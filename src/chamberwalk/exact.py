"""Exact small-instance analysis of the chamber walk.

Stationary distribution (absorbed from the forward face chain), separation
and total-variation distance from start rows pushed along the face x chamber
product table (the dense transition matrix is their oracle), P(T > t) as the
live mass of the chain on the zero sets of the face product, or of the count
chain where the supports allow, with the Möbius form over the flats as its
reference, and the coupling parameters b, d with the cutoff prediction they
determine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, _bits, _keys, _lookup, _search, _sign_keys, check_separating
from .core import weighted_faces

DEFAULT_TABLE_CELL_CAP = 2**25  # cells of one exact table; ~19 bytes a product-table cell at peak
DEFAULT_WALK_CELL_CAP = 2**36  # steps x rows x table entries that one _walk pushes
_TABLE_CELLS = 2**20  # bytes of packed products in one block of faces
_READ_CELLS = 2**18  # entries of start rows read out, or of their table entries pushed, at once


def _check_cells(cells, table):
    """Refuse a table that will hold cells cells past DEFAULT_TABLE_CELL_CAP, before it exists."""
    if cells > DEFAULT_TABLE_CELL_CAP:
        raise CapacityError(f"{table} of {cells} cells exceeds cap {DEFAULT_TABLE_CELL_CAP}")


def _product_table(arr, w):
    """(faces, chambers) array of the index of F C, built on packed bits in
    blocks of faces of at most _TABLE_CELLS bytes (one face at least); a
    product that is not a chamber of arr raises ValueError, and a table of
    more than DEFAULT_TABLE_CELL_CAP cells CapacityError, before any block."""
    _check_cells(len(w.weights) * arr.n_chambers, "product table")
    C, F = _bits(arr.signs), w.signs
    plus, on = _bits(F)[:, np.newaxis], np.packbits(F != 0, axis=1)[:, np.newaxis]
    rows = max(1, _TABLE_CELLS // max(C.size, 1))
    table = np.concatenate([np.empty((0, len(C)), dtype=np.intp)] + [
        arr._find(C & ~on[i:i + rows] | plus[i:i + rows]) for i in range(0, len(F), rows)])
    if np.any(table < 0):
        raise ValueError("a face product is not a chamber of the arrangement")
    return table


def _offsets(succ, rows):
    """The index of _push for rows laws on the ell states of succ's last axis: succ offset
    by r ell for row r of a block of at most _READ_CELLS entries, on an axis next to last."""
    block = max(1, min(rows, _READ_CELLS // max(succ.size, 1)))
    return succ[..., np.newaxis, :] + succ.shape[-1] * np.arange(block)[:, np.newaxis]


def _push(index, prob, laws):
    """One step in place of each row of laws along a successor table succ, index its _offsets:
    sum of prob[k, i] law[i] at succ[k, i] in k order, one bincount a block; on np.eye, P."""
    for i in range(0, len(laws), index.shape[-2]):
        rows = laws[i:i + index.shape[-2]]  # a shorter last block reads a copy of its index
        law = (prob[..., np.newaxis, :] * rows).ravel()  # (k, row, i): each bin's in k order
        rows[:] = np.bincount(index[..., :len(rows), :].ravel(), law, rows.size).reshape(rows.shape)
    return laws


def transition_matrix(arr, w):
    """Row-stochastic matrix P[C, D] = sum of w(F) over faces with FC = D,
    each cell summed in face order."""
    table, ell = _product_table(arr, w), arr.n_chambers
    _check_cells(ell * ell, "transition matrix")
    return _push(_offsets(table, ell), w.weights[:, np.newaxis], np.eye(ell))


def _symmetries(arr, w):
    """The chamber permutations of the candidates arr.symmetries that pass
    the check: each maps the chambers onto the chambers and each weighted
    face to one of exactly equal total weight (a face listed twice weighs
    the sum of its entries), so that P(gx, gy) = P(x, y).  All candidates are
    checked at once, in blocks of at most _READ_CELLS image signs (one at least)."""
    w = weighted_faces(w.signs, w.weights)
    faces, maps = _lookup(_sign_keys(w.signs)), []
    pairs = np.reshape(arr.symmetries, (len(arr.symmetries), 2, arr.m)).astype(np.intp)
    block = max(1, _READ_CELLS // max(arr.signs.size + w.signs.size, 1))
    for s, p in (pairs[i:i + block].transpose(1, 0, 2) for i in range(0, len(pairs), block)):
        p = p[:, np.newaxis].astype(np.int8)  # the images' signs stay int8
        g = arr._find(_bits(p * arr.signs[:, s].transpose(1, 0, 2)))  # (candidate, chamber)
        image = _search(faces, _sign_keys(p * w.signs[:, s].transpose(1, 0, 2)))
        ok = (g >= 0).all(axis=1) & ((image >= 0) & (w.weights[image] == w.weights)).all(axis=1)
        maps += list(g[ok])
    return maps


def _orbits(maps, n):
    """One start per orbit of n states under the group that the permutations
    maps generate: the least state of each, in increasing order."""
    label, low = None, np.arange(n)
    while not np.array_equal(label, low):  # pull the least label along every map
        label = low
        low = functools.reduce(lambda low, g: np.minimum(low, low[g]), maps, label)
        low = low[low]
    return np.unique(label)


def stationary_solve(arr, w):
    """Stationary law pi: the law of the chamber at which the forward product
    F_1 F_2 ... freezes (Brown-Diaconis), from one pass over the faces that
    it reaches from the zero face, in order of support size.  G passes its
    mass to each G F != G in proportion to w(F); G F != G exactly when the
    support grows, so a level is complete when it is read.  The faces are
    rows of packed > 0 and < 0 bits, merged by sorted row keys and multiplied
    in blocks of _TABLE_CELLS bytes.  The chambers absorb the mass, so pi is
    0 off those reached; a product that is not a chamber raises ValueError.  A level of
    more than DEFAULT_TABLE_CELL_CAP products, rows x faces, raises CapacityError first."""
    if not check_separating(w):
        raise ValueError("non-separating weights: stationary law not unique")
    m, nb = w.m, -(-w.m // 8)
    faces = np.concatenate([_bits(w.signs), _bits(-w.signs)], axis=1)
    block = max(1, _TABLE_CELLS // max(faces.size, 1))
    levels = {0: [(np.zeros((1, 2 * nb), dtype=np.uint8), np.ones(1))]}  # blocks by support
    while (k := min(levels)) < m:
        rows, mass = (np.concatenate(x) for x in zip(*levels.pop(k)))
        _, first, merged = np.unique(_keys(rows), return_index=True, return_inverse=True)
        rows, mass = rows[first], np.bincount(merged, mass)
        _check_cells(len(rows) * len(w.weights), "face chain level")
        for i in range(0, len(rows), block):
            G = rows[i:i + block, np.newaxis]
            product = G | faces & ~np.concatenate([G[..., :nb] | G[..., nb:]] * 2, axis=-1)
            size = np.bitwise_count(product).sum(axis=-1)  # k where F adds nothing to G
            share = w.weights * (size > k)
            p = mass[i:i + block, np.newaxis] * share / share.sum(axis=1, keepdims=True)
            for s in np.unique(size[size > k]):
                levels.setdefault(s, []).append((product[size == s], p[size == s]))
    rows, mass = (np.concatenate(x) for x in zip(*levels[m]))
    if (at := arr._find(rows[:, :nb])).min() < 0:
        raise ValueError("a face product is not a chamber of the arrangement")
    return np.bincount(at, mass, arr.n_chambers)


def _times(t_grid):
    """The distinct times of t_grid as sorted ints; a negative or a
    fractional one raises ValueError."""
    times = sorted(set(t_grid))
    if times and times[0] < 0:
        raise ValueError(f"negative time {times[0]} in the time grid")
    if fractional := [t for t in times if not float(t).is_integer()]:
        raise ValueError(f"fractional time {fractional[0]} in the time grid")
    return [int(t) for t in times]


def _walk(state, step, t_grid, cells):
    """Yield (t, state after t steps) over _times(t_grid), each step pushing
    cells cells (rows x table entries); where the steps to the last time push
    more than DEFAULT_WALK_CELL_CAP, it raises CapacityError before the first."""
    times, current = _times(t_grid), 0
    if (total := cells * max(times, default=0)) > DEFAULT_WALK_CELL_CAP:
        raise CapacityError(f"walk of {total} cells exceeds cap {DEFAULT_WALK_CELL_CAP}")
    for t in times:
        for _ in range(t - current):
            state = step(state)
        current = t
        yield t, state


def separation(pi):
    """s(Pt), 1 / pi taken once: the max over the starts x0 (rows of Pt) of 1 - min over x
    with pi(x) > 0 of Pt(x0, x) (1 / pi(x)), read bit for bit as 1 - min_x (1 / pi(x))
    min_x0 Pt(x0, x) since rounding is monotone: at uniform pi that is 1 - ell min Pt bit
    for bit where 1 / (1 / ell) == ell, as for ell = n! (n <= 7) and ell = 2^n."""
    on, inv = pi > 0, 1.0 / pi[pi > 0]
    return lambda Pt: float(1.0 - (Pt.min(axis=0)[on] * inv).min())


def distance_profiles(arr, w, t_grid, stats=None):
    """Exact s(t) and worst-case TV(t) over an integer time grid, {t: (s, TV)}:
    the law nu_t from each of one start per orbit of _symmetries is pushed in
    place along the product table, nu_{t+1}[F C] += w(F) nu_t[C], with no P,
    and both maxima are read over these rows, as the row of P^t at any other
    start relabels one of theirs.  stats, if a dict, receives exact_path (it
    only counts the starts: 'one-start', where pi is uniform, 'orbits', or
    'dense', each chamber its own orbit), chambers and starts."""
    if not check_separating(w):
        raise ValueError("non-separating weights: stationary law not unique")
    ell = arr.n_chambers
    starts = _orbits(_symmetries(arr, w), ell)
    _check_cells(len(starts) * ell, "start rows")
    succ, prob = _product_table(arr, w), w.weights[:, np.newaxis]
    pi = np.full(ell, 1.0 / ell) if len(starts) == 1 else stationary_solve(arr, w)
    rows = (starts[:, np.newaxis] == np.arange(ell)).astype(float)
    path = "one-start" if len(starts) == 1 else "dense" if len(starts) == ell else "orbits"
    s, block = separation(pi), max(1, _READ_CELLS // ell)
    if stats is not None:
        stats.update(exact_path=path, chambers=ell, starts=len(starts))

    def read(R):  # s over all rows, TV over _READ_CELLS entries of them at a time
        parts = [R[i:i + block] for i in range(0, len(R), block)]
        return s(R), float(0.5 * max(np.abs(P - pi).sum(axis=1).max() for P in parts))

    push = functools.partial(_push, _offsets(succ, len(rows)), prob)
    return {t: read(R) for t, R in _walk(rows, push, t_grid, len(rows) * succ.size)}


def separation_profile(arr, w, t_grid):
    """Exact separation distance s(t) over an integer time grid."""
    return {t: s for t, (s, _) in distance_profiles(arr, w, t_grid).items()}


def total_variation_profile(arr, w, t_grid):
    """Exact worst-case total variation distance to stationarity on a grid."""
    return {t: tv for t, (_, tv) in distance_profiles(arr, w, t_grid).items()}


def _superset(x, op):
    """Fold x, indexed by the sets S of some m coordinates, in place by op
    over the supersets of each S, one coordinate at a time: a run of 2^i < 16
    as 2^i strided slices, a longer one as one block view, so each element
    sees the same ops without numpy's short inner loops."""
    for i in range(x.size.bit_length() - 1):
        xs = x.reshape(-1, 2, 1 << i)
        for j in range(1 << i) if i < 4 else [slice(None)]:  # x[j::2^(i+1)] while 2^i < 16
            op(xs[:, 0, j], xs[:, 1, j], out=xs[:, 0, j])
    return x


def _form(arr, w):
    """q_S, the faces' weight on all of S, and c_S over the sets S of hyperplanes, and the flats
    c_S != 0 < q_S: c_X = -mu({}, X) is the sum of (-1)^(|S|+1) over the S of closure X (Rota).
    Four 2^m arrays, checked first against DEFAULT_TABLE_CELL_CAP, hold the superset folds."""
    _check_cells(4 << (m := arr.m), "Mobius arrays")
    masks = (w.signs == 0) @ (1 << np.arange(m, dtype=np.int64))
    q = _superset(np.bincount(masks, w.weights, minlength=1 << m), np.add)
    cl = np.full(1 << m, (1 << m) - 1, dtype=np.min_scalar_type((1 << m) - 1))
    cl[masks] = masks
    sign = np.full(1 << m, -1.0)  # -(-1)^|S|, by doubling over the coordinates
    for i in range(m):
        np.negative(sign[:1 << i], out=sign[1 << i:2 << i])
    c = np.bincount(_superset(cl, np.bitwise_and)[1:], sign[1:], minlength=1 << m)
    return q, c, np.flatnonzero((c != 0) & (q > 0))


def survival_terms(arr, w):
    """(c_X, q_X) per flat X of _form: P(T > t) = sum c_X q_X^t for t >= 1, the Mobius reference."""
    q, c, flats = _form(arr, w)
    return list(zip(c[flats].astype(np.int64).tolist(), q[flats].tolist()))


def _zero_set_chain(m, zero, p, t_grid, t_first):
    """{t: P(T > t)} over _times(t_grid), 1.0 before t_first: the live mass of the chain on the
    non-empty zero sets of the product, from all m hyperplanes, a step ANDing row k of zero with
    chance p[k]; sets are rows of words, searched in blocks of _READ_CELLS products into
    merged (state, successor) pairs, and a step is one bincount.  Mass past 1 by at most the
    rounding, ((2 K + n + 1) t + n) eps for K supports and n states, is put on 1, further raises."""
    width, n_zero = max(-(-m // 64), 1), len(p)

    def words(x):  # rows of bools as words: to 64 hyperplanes one unsigned of the fewest bytes
        pad = np.zeros((len(x), 64 * width - m), dtype=bool)
        x = np.packbits(np.concatenate([x, pad], axis=1), axis=1).view("<u8")
        return x if width > 1 else x.astype(np.min_scalar_type(256 ** -(-m // 8) - 1))

    def keys(x):  # rows of words as scalars (raw bytes past one word), back by .view(zero.dtype)
        return x.view(np.dtype((np.void, 8 * width)))[..., 0] if width > 1 else x[..., 0]

    zero, todo, empty = words(zero), words(np.ones((1, m), bool)), keys(words(zero[:1]) & 0)[0]
    known = start = keys(todo := todo[keys(todo) != empty])  # m = 0: no state, T = 0
    pairs, block = [(start[:0], start[:0], np.empty(0))], max(1, _READ_CELLS // n_zero)
    while len(todo):
        _check_cells(len(known) * n_zero, "zero-set table")
        rows, todo = todo[:block], todo[block:]
        prod = keys(rows[:, np.newaxis] & zero)
        ranked = np.sort(prod, axis=1).ravel()  # each row's products in key order
        first = np.concatenate([[True], ranked[1:] != ranked[:-1]])  # first of each run,
        first[::n_zero] = True  # and of each row
        order = np.argsort(prod, axis=1, kind="stable")  # ties in zero's row order (radix: 16 bits)
        chance = np.add.reduceat(p[order].ravel(), at := np.flatnonzero(first))
        live = (to := ranked[at]) != empty
        pairs.append((keys(rows)[at[live] // n_zero], to[live], chance[live]))
        new = np.sort(to[live])
        fresh = np.concatenate([[True], new[1:] != new[:-1]])[:new.size]  # each value once
        fresh &= known[np.searchsorted(known, new).clip(max=len(known) - 1)] != new  # unknown
        known = np.sort(np.concatenate([known, new[fresh]]))
        todo = np.concatenate([todo, new[fresh].view(zero.dtype).reshape(-1, width)])
    src, dst, chance = (np.concatenate(x) for x in zip(*pairs))
    src, dst, n, out = np.searchsorted(known, src), np.searchsorted(known, dst), len(known), {}
    for t, law in _walk((known == start).astype(float),
                        lambda law: np.bincount(dst, law[src] * chance, n), t_grid, len(chance)):
        if (mass := float(law.sum())) > 1.0 + ((2 * n_zero + n + 1) * t + n) * np.finfo(float).eps:
            raise RuntimeError(f"zero-set chain at t={t}: mass {mass!r} > 1")
        out[t] = 1.0 if t < t_first else min(mass, 1.0)
    return out


def survival_exact_profile(arr, w, t_grid, stats=None):
    """Exact P(T > t) over an integer time grid (T = 0 when m = 0), 1.0 before ceil(m / s): t
    faces of at most s nonzero signs cut at most t s hyperplanes.  Where each face cuts s and all
    C(m, s) supports are present, at s > 1 of one weight bit for bit, it is the count chain of m
    coupons, s a step, or at s = 1 of m cards in their supports' _classes; else, or past the
    chain's cap, _zero_set_chain.  stats gets survival_path, the route's name."""
    from .glauber import DEFAULT_COUPON_CELL_CAP, _chain_at, _chain_cells, _classes
    m, size, times = arr.m, (cut := w.signs != 0).sum(axis=1), _times(t_grid)
    s, keys = max(int(size.max()), 1), _keys(_bits(cut))
    each = np.bincount(_search(_lookup(keys), keys), w.weights)  # at each support's first face
    each = each[first := np.flatnonzero(each)]  # the bins of first faces: every weight is > 0
    if chain := size.min() == s and len(each) == math.comb(m, s) and (
            s == 1 or (each == each[0]).all()):
        key = (_classes(each) if s == 1 else ((m, 1),), s, m)
        chain = _chain_cells(key, max(times, default=0)) <= DEFAULT_COUPON_CELL_CAP
    if stats is not None:
        stats.update(survival_path="count-chain" if chain else "zero-set-chain")
    if chain:
        return {t: _chain_at(key, t) for t in times}
    return _zero_set_chain(m, ~cut[first], each / each.sum(), times, -(-m // s))


@dataclass(frozen=True)
class CouplingParameters:
    """b_i = weight not on H_i; d_ij = weight on neither H_i nor H_j."""

    b_per_hyperplane: np.ndarray
    d_per_pair: np.ndarray
    uniform_b: float | None
    uniform_d: float | None


def coupling_parameters(w):
    """Exact b_i and d_ij from the explicit weighted faces, as products over
    the faces' cut matrix (F_i != 0).

    The uniform values are set only when all entries agree within 1e-12,
    which is the regime where the cutoff prediction applies.  A pair matrix
    of more than DEFAULT_TABLE_CELL_CAP cells raises CapacityError first.
    """
    _check_cells((m := w.m) ** 2, "pair matrix")
    cut = w.signs != 0
    b = w.weights @ cut
    d = (cut.T * w.weights) @ cut * ~np.eye(m, dtype=bool)
    off = d[~np.eye(m, dtype=bool)]
    uniform_b = float(b[0]) if np.ptp(b) <= 1e-12 else None
    uniform_d = float(off[0]) if m > 1 and np.ptp(off) <= 1e-12 else None
    return CouplingParameters(b, d, uniform_b, uniform_d)


@dataclass(frozen=True)
class CutoffPrediction:
    time: float
    window: float
    assumptions_ok: bool


def cutoff_prediction(b, d, m):
    """Predicted separation cutoff location and window.

    Cutoff at log base 1/(1-b) of m, window 1/b, valid when b <= (1+d)/2
    and 0 < d <= b^2, within the 1e-12 of coupling_parameters.
    """
    if not (0 < b < 1 and m >= 1):
        raise ValueError(f"need 0 < b < 1 and m >= 1 hyperplanes, got b={b}, m={m}")
    time = math.log(m) / math.log(1.0 / (1.0 - b))
    window = 1.0 / b
    assumptions_ok = (b <= (1.0 + d) / 2.0) and (0.0 < d <= b * b + 1e-12)
    return CutoffPrediction(time=time, window=window, assumptions_ok=assumptions_ok)
