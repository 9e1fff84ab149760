"""Exact small-instance analysis of the chamber walk.

Stationary distribution (absorbed from the forward face chain, with sampling
without replacement as an independent oracle), separation and total-variation
distance from start rows pushed along the face x chamber product table (the
dense transition matrix is their oracle), the Möbius form of P(T > t) over
the flats of the faces' zero sets, and the coupling parameters b, d with
the cutoff prediction they determine.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, _bits, _keys, _lookup, _search, _sign_keys, check_separating
from .core import face_product, is_chamber, symmetry_generators, weighted_faces

DEFAULT_CHAMBER_CAP = 10_000
DEFAULT_IE_HYPERPLANE_CAP = 20
ENUM_ORDERING_FACE_CAP = 9
_TABLE_CELLS = 2**20  # bytes of packed products in one block of faces
_PAIR_CELLS = 2**20  # entries of the m x m pair matrix of coupling_parameters
_READ_CELLS = 2**18  # entries of the start rows that distance_profiles reads out at once


def _check_chambers(arr, chamber_cap):
    if arr.n_chambers > chamber_cap:
        raise CapacityError(f"{arr.n_chambers} chambers exceeds exact-mode cap {chamber_cap}")


def _product_table(arr, w):
    """(faces, chambers) array of the index of F C, built on packed bits in
    blocks of faces of at most _TABLE_CELLS bytes (one face at least); a
    product that is not a chamber of arr raises ValueError."""
    C, F = _bits(arr.signs), w.signs
    plus, on = _bits(F)[:, np.newaxis], np.packbits(F != 0, axis=1)[:, np.newaxis]
    rows = max(1, _TABLE_CELLS // max(C.size, 1))
    table = np.concatenate([np.empty((0, len(C)), dtype=np.intp)] + [
        arr._find(C & ~on[i:i + rows] | plus[i:i + rows]) for i in range(0, len(F), rows)])
    if np.any(table < 0):
        raise ValueError("a face product is not a chamber of the arrangement")
    return table


def _push(succ, prob, laws):
    """One step in place of a law, or of each row of laws, along a successor table:
    sum of prob[k, i] law[i] at succ[k, i], over the law.size states, in k
    order.  On the rows of np.eye it builds the dense matrix of the table."""
    for law in np.atleast_2d(laws):  # a row's step reads that row alone
        law[:] = np.bincount(succ.ravel(), (prob * law).ravel(), law.size)
    return laws


def transition_matrix(arr, w, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Row-stochastic matrix P[C, D] = sum of w(F) over faces with FC = D,
    each cell summed in face order."""
    _check_chambers(arr, chamber_cap)
    return _push(_product_table(arr, w), w.weights[:, np.newaxis], np.eye(arr.n_chambers))


def _symmetries(arr, w):
    """The chamber permutations of the candidates symmetry_generators(arr)
    that pass the check: each maps the chambers onto the chambers and each
    weighted face to one of exactly equal total weight (a face listed twice
    weighs the sum of its entries), so that P(gx, gy) = P(x, y)."""
    w = weighted_faces(w.signs, w.weights)
    faces, maps = _lookup(_sign_keys(w.signs)), []
    for src, sign in symmetry_generators(arr):
        g = arr._find(_bits(sign * arr.signs[:, src]))
        image = _search(faces, _sign_keys(sign * w.signs[:, src]))
        if g.min() >= 0 and image.min() >= 0 and np.array_equal(w.weights[image], w.weights):
            maps.append(g)
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


def stationary_solve(arr, w, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Stationary law pi: the law of the chamber at which the forward product
    F_1 F_2 ... freezes (Brown-Diaconis), from one pass over the faces that
    it reaches from the zero face, in order of support size.  G passes its
    mass to each G F != G in proportion to w(F); G F != G exactly when the
    support grows, so a level is complete when it is read.  The faces are
    rows of packed > 0 and < 0 bits, merged by sorted row keys and multiplied
    in blocks of _TABLE_CELLS bytes.  The chambers absorb the mass, so pi is
    0 off those reached; a product that is not a chamber raises ValueError."""
    _check_chambers(arr, chamber_cap)
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


def stationary_without_replacement(arr, w, max_enum_faces=ENUM_ORDERING_FACE_CAP):
    """Stationary law via a sampling-without-replacement construction,
    enumerated exactly over the orderings of the weighted faces; more than
    max_enum_faces of them raise CapacityError.

    Sample faces without replacement from w and apply them in reverse order,
    so the chamber is F1 F2 ... (first-sampled face leftmost).  The prefix
    product is extended left-to-right and the recursion stops as soon as it
    is a chamber: later faces cannot change it.
    """
    n_faces, weights = len(w.faces), w.weights
    if n_faces > max_enum_faces:
        raise CapacityError(f"{n_faces} weighted faces exceeds enumeration cap {max_enum_faces}")
    mass, pi = collections.defaultdict(float), np.zeros(arr.n_chambers)

    def recurse(prefix, remaining, prob):
        if prefix is not None and is_chamber(prefix):
            mass[prefix] += prob
            return
        total = weights[remaining].sum()
        for k in remaining:
            nxt = w.faces[k] if prefix is None else face_product(prefix, w.faces[k])
            recurse(nxt, [j for j in remaining if j != k], prob * weights[k] / total)

    recurse(None, list(range(n_faces)), 1.0)
    for c, p in mass.items():  # one lookup per chamber reached
        pi[arr.chamber_index(c)] = p
    return pi


def _times(t_grid):
    """The distinct times of t_grid as sorted ints; a negative or a
    fractional one raises ValueError."""
    times = sorted(set(t_grid))
    if times and times[0] < 0:
        raise ValueError(f"negative time {times[0]} in the time grid")
    if fractional := [t for t in times if not float(t).is_integer()]:
        raise ValueError(f"fractional time {fractional[0]} in the time grid")
    return [int(t) for t in times]


def _walk(state, step, t_grid):
    """Yield (t, state after t steps) over _times(t_grid)."""
    current = 0
    for t in _times(t_grid):
        for _ in range(t - current):
            state = step(state)
        current = t
        yield t, state


def separation(Pt, pi):
    """s = max over the starts x0 (the rows of Pt) of 1 - min over x with
    pi(x) > 0 of Pt(x0, x) / pi(x), each ratio read as Pt(x0, x) (1 / pi(x)):
    at uniform pi that is 1 - ell min Pt(x0, .) bit for bit where
    1 / (1 / ell) == ell, as for ell = n! (n <= 7) and ell = 2^n."""
    on = pi > 0
    inv = np.divide(1.0, pi, out=np.zeros_like(pi), where=on)
    ratio = np.multiply(Pt, inv, out=np.full_like(Pt, np.inf), where=on)
    return float((1.0 - ratio.min(axis=1)).max())


def distance_profiles(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP, stats=None):
    """Exact s(t) and worst-case TV(t) over an integer time grid, {t: (s, TV)}:
    the law nu_t from each of one start per orbit of _symmetries is pushed in
    place along the product table, nu_{t+1}[F C] += w(F) nu_t[C], with no P,
    and both maxima are read over these rows, as the row of P^t at any other
    start relabels one of theirs.  stats, if a dict, receives exact_path (it
    only counts the starts: 'one-start', where pi is uniform, 'orbits', or
    'dense', each chamber its own orbit), chambers and starts."""
    if not check_separating(w):
        raise ValueError("non-separating weights: stationary law not unique")
    _check_chambers(arr, chamber_cap)
    ell = arr.n_chambers
    starts = _orbits(_symmetries(arr, w), ell)
    succ, prob = _product_table(arr, w), w.weights[:, np.newaxis]
    pi = np.full(ell, 1.0 / ell) if len(starts) == 1 else stationary_solve(arr, w, ell)
    rows = (starts[:, np.newaxis] == np.arange(ell)).astype(float)
    path = "one-start" if len(starts) == 1 else "dense" if len(starts) == ell else "orbits"
    if stats is not None:
        stats.update(exact_path=path, chambers=ell, starts=len(starts))

    def read(R):  # s and TV, _READ_CELLS entries of the rows at a time
        parts = np.array_split(R, min(len(R), -(-R.size // _READ_CELLS)))
        return (max(separation(P, pi) for P in parts),
                float(0.5 * max(np.abs(P - pi).sum(axis=1).max() for P in parts)))

    push = functools.partial(_push, succ, prob)
    return {t: read(R) for t, R in _walk(rows, push, t_grid)}


def separation_profile(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Exact separation distance s(t) over an integer time grid."""
    prof = distance_profiles(arr, w, t_grid, chamber_cap)
    return {t: s for t, (s, _) in prof.items()}


def total_variation_profile(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Exact worst-case total variation distance to stationarity on a grid."""
    prof = distance_profiles(arr, w, t_grid, chamber_cap)
    return {t: tv for t, (_, tv) in prof.items()}


def _power_sums(c, q, exact_q, t_grid, t_first):
    """P(T > t) = sum_i c_i q_i^t over _times(t_grid), for int64 c_i (else
    OverflowError), and 1.0 before t_first, a lower bound on the first time T
    can take.  The terms of float-equal rates are merged once, so each time
    takes one power per rate: sum c_i gives the value and sum |c_i| its
    rounding bound (t + 1) eps sum_i |c_i| q_i^t.  A float sum outside [0, 1]
    by no more than that bound is put on the nearer edge.  Where it lies
    further out or the bound exceeds 1e-12, the value is the integer ratio
    sum_i c_i a_i^t / d^t, which Python rounds correctly, over the exact rates
    exact_q() = (integers a_i, d), q_i = a_i / d: read at the first such time,
    and the c_i of equal a_i summed once on int64."""
    c, rates = np.asarray(c, dtype=np.int64), np.unique(q)
    at = np.searchsorted(rates, q)
    c_sum, abs_sum = np.bincount(at, c, rates.size), np.bincount(at, np.abs(c), rates.size)
    del at  # not held while the exact rates are read
    out, by_rate = {}, None
    for t in _times(t_grid):
        if t < t_first:
            out[t] = 1.0
            continue
        qt = rates**t
        value, bound = c_sum @ qt, (t + 1) * np.finfo(float).eps * (abs_sum @ qt)
        if bound <= 1e-12 and -bound <= value <= 1.0 + bound:
            out[t] = float(min(max(value, 0.0), 1.0))
            continue
        if by_rate is None:
            a, d = exact_q()
            a_rates = np.unique(a)
            merged = np.zeros(a_rates.size, dtype=np.int64)
            np.add.at(merged, np.searchsorted(a_rates, a), c)
            by_rate = list(zip(a_rates.tolist(), merged.tolist()))
        out[t] = sum(ci * ai**t for ai, ci in by_rate) / d**t
    return out


def _superset(x, op):
    """Fold x, indexed by the sets S of some m coordinates, in place by op
    over the supersets of each S, one coordinate at a time."""
    for i in range(x.size.bit_length() - 1):
        xs = x.reshape(-1, 2, 1 << i)
        op(xs[:, 0], xs[:, 1], out=xs[:, 0])
    return x


def _rates(masks, weights, m, keep, exact=False):
    """q_S, the total weight of the masks that contain S, at the sets S in
    keep: floats, or with exact=True (integers a_S, a_{}), the weights made
    integers over one power of two and q_S = a_S / a_{} read against their
    exact total, as int64 where a_{} < 2^63 bounds them all."""
    if not exact:
        return _superset(np.bincount(masks, weights, minlength=1 << m), np.add)[keep]
    ratios = [float(x).as_integer_ratio() for x in weights]
    d = max(den for _, den in ratios)
    ints = [num * (d // den) for num, den in ratios]
    a = np.zeros(1 << m, dtype=np.int64 if sum(ints) < 2**63 else object)
    np.add.at(a, masks, np.array(ints, dtype=a.dtype))
    return _superset(a, np.add)[keep], int(a[0])


def _mobius_form(arr, w, hyperplane_cap):
    """Arrays (c, q), and the exact rates for _power_sums, with
    P(T > t) = sum c_X q_X^t over the flats X != {}.

    T > t iff every face picked so far lies on some hyperplane.  Over the sets
    S of hyperplanes, superset transforms give q_S, the weight of the faces
    on all of S, and the closure cl(S), the AND of their zero masks (all
    hyperplanes if none, where q_S = 0).  As q_S = q_cl(S), the signs
    (-1)^(|S|+1) summed per closure are c_X = -mu({}, X) (Rota), integers.
    """
    m = arr.m
    if m > hyperplane_cap:
        raise CapacityError(
            f"m={m} exceeds inclusion-exclusion cap {hyperplane_cap}; "
            "use Monte Carlo survival estimation"
        )
    masks = (w.signs == 0) @ (1 << np.arange(m, dtype=np.int64))
    q = _rates(masks, w.weights, m, slice(None))
    cl = np.full(1 << m, (1 << m) - 1, dtype=np.int64)
    cl[masks] = masks
    sign = np.where(np.bitwise_count(np.arange(1, 1 << m)) % 2, 1.0, -1.0)
    c = np.bincount(_superset(cl, np.bitwise_and)[1:], sign, minlength=1 << m)
    flats = np.flatnonzero((c != 0) & (q > 0))
    c = c[flats].astype(np.int64)
    return c, q[flats], functools.partial(_rates, masks, w.weights, m, flats, exact=True)


def survival_terms(arr, w, hyperplane_cap=DEFAULT_IE_HYPERPLANE_CAP):
    """The (c_X, q_X) pairs of _mobius_form, one per flat X != {}, with
    P(T > t) = sum c_X q_X^t for t >= 1 and c_X = -mu({}, X)."""
    return list(zip(*(a.tolist() for a in _mobius_form(arr, w, hyperplane_cap)[:2])))


def survival_exact_profile(arr, w, t_grid, hyperplane_cap=DEFAULT_IE_HYPERPLANE_CAP):
    """Exact P(T > t) over an integer time grid (T = 0 when m = 0).  As t
    faces of at most s nonzero signs cut at most t s hyperplanes, T >= m / s."""
    c, q, exact_q = _mobius_form(arr, w, hyperplane_cap)
    s = max((w.signs != 0).sum(axis=1).max(), 1)
    return _power_sums(c, q, exact_q, t_grid, -(-arr.m // s))


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
    which is the regime where the cutoff prediction applies.  More than
    _PAIR_CELLS pairs raise CapacityError.
    """
    if (m := w.m) ** 2 > _PAIR_CELLS:
        raise CapacityError(f"m={m} hyperplanes: {m}^2 pairs exceeds cap {_PAIR_CELLS}")
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
    and 0 < d <= b^2.
    """
    if not (0 < b < 1 and m >= 1):
        raise ValueError(f"need 0 < b < 1 and m >= 1 hyperplanes, got b={b}, m={m}")
    time = math.log(m) / math.log(1.0 / (1.0 - b))
    window = 1.0 / b
    assumptions_ok = (b <= (1.0 + d) / 2.0) and (0.0 < d <= b * b + 1e-15)
    return CutoffPrediction(time=time, window=window, assumptions_ok=assumptions_ok)
