"""Heat-bath Glauber dynamics on monotone spin systems.

The heat-bath move table of a spin system, the exact chain on tiny systems,
the uniform coupon-collector lower bounds on separation and total variation
mixing, and the count chain of cards drawn by weight class: one reader of
its cached curves, their cells and horizon, and the samplers' search.
"""

from __future__ import annotations

import array
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, _guide
from .exact import _offsets, _orbits, _push, _walk, separation

DEFAULT_STATE_CAP = 4096
DEFAULT_COUPON_CELL_CAP = 2**28


@dataclass(frozen=True)
class MonotoneSystem:
    """Finite spin system: sites, a totally ordered spin alphabet, and an
    unnormalized log weight over configurations S^V.  symmetries lists site
    permutations (tuples p, site u goes to p[u]) that may fix the weight;
    glauber_separation_profile checks each before it uses it."""

    n_sites: int
    spins: tuple
    log_weight: callable
    name: str = "custom"
    symmetries: tuple = ()

    def configurations(self):
        if len(self.spins) ** self.n_sites > DEFAULT_STATE_CAP:
            raise CapacityError(f"{len(self.spins)}^{self.n_sites} configurations exceeds "
                                f"cap {DEFAULT_STATE_CAP}")
        return list(itertools.product(self.spins, repeat=self.n_sites))

    @property
    def top(self):
        return (max(self.spins),) * self.n_sites

    @property
    def bottom(self):
        return (min(self.spins),) * self.n_sites


def _check_sites(n):
    """Refuse n two-spin sites past the state cap before a system is built."""
    if n > DEFAULT_STATE_CAP.bit_length() - 1:
        raise CapacityError(f"{n} sites: 2^{n} configurations exceeds cap {DEFAULT_STATE_CAP}")


def grid_edges(width, height):
    edges = []
    for y in range(height):
        for x in range(width):
            u = y * width + x
            if x + 1 < width:
                edges.append((u, u + 1))
            if y + 1 < height:
                edges.append((u, u + width))
    return edges


def ising_system(width, height, beta, field=0.0):
    """Ferromagnetic Ising model on a width x height grid, free boundary;
    its symmetries are the grid's reflections, and its transpose when square."""
    if not (0 <= beta < math.inf and math.isfinite(field)):  # beta < 0 is not monotone
        raise ValueError(f"need a finite beta >= 0 and a finite field, got {beta=} {field=}")
    if min(width, height) < 1:
        raise ValueError(f"need at least one site, got {width}x{height}")
    _check_sites(n := width * height)  # before building the 2n edges
    edges = grid_edges(width, height)

    def log_weight(sigma):
        e = sum(sigma[u] * sigma[v] for u, v in edges)
        return beta * e + field * sum(sigma)

    x, y = np.arange(n) % width, np.arange(n) // width  # the reflections, then the transpose
    maps = [y * width + width - 1 - x, (height - 1 - y) * width + x, x * width + y]
    return MonotoneSystem(
        n_sites=n, spins=(-1, 1), log_weight=log_weight, name=f"ising({width}x{height})",
        symmetries=tuple(tuple(p.tolist()) for p in maps[:2 + (width == height)]),
    )


def product_system(n, probs_up=None):
    """Independent +-1 spins; sanity system with trivially monotone
    conditionals."""
    if n < 1:
        raise ValueError(f"need at least one site, got n={n}")
    _check_sites(n)
    probs_up = [0.5] * n if probs_up is None else list(probs_up)
    if len(probs_up) != n or not all(0 < p < 1 for p in probs_up):
        raise ValueError(f"need n={n} probabilities in (0, 1), got {probs_up}")

    def log_weight(sigma):
        return sum(math.log(p if s > 0 else 1.0 - p) for s, p in zip(sigma, probs_up))

    return MonotoneSystem(n_sites=n, spins=(-1, 1), log_weight=log_weight, name="product")


def _softmax(logs, axis):
    p = np.exp(logs - logs.max(axis=axis, keepdims=True))
    return p / p.sum(axis=axis, keepdims=True)


def _heat_bath(sys):
    """(configs, pi, succ, prob) from one log_weight call per configuration:
    succ[u, s, i] is configuration i (itertools.product order) with site u
    set to spins[s], and prob[u, s, i] its heat-bath probability: the
    softmax of the log weights of the len(spins) configurations that differ
    from i at u alone."""
    configs = sys.configurations()
    logs = np.array([sys.log_weight(c) for c in configs])
    with np.errstate(over="ignore", invalid="ignore"):  # a pi of 0 or nan is refused below
        pi = _softmax(logs, 0)
    if not (low := pi.min()) >= np.finfo(float).tiny:  # 1 / pi stays a float
        raise ValueError(f"{sys.name}: a stationary probability {float(low)} is below the floats")
    i, n_spins = np.arange(len(configs)), len(sys.spins)
    place = n_spins ** np.arange(sys.n_sites - 1, -1, -1)[:, np.newaxis, np.newaxis]
    succ = i - i // place % n_spins * place + np.arange(n_spins)[:, np.newaxis] * place
    return configs, pi, succ, _softmax(logs[succ], 1)


def glauber_matrix(sys):
    """Exact transition matrix: pick a uniform site, resample from its
    conditional; each cell summed in (site, spin) order."""
    configs, pi, succ, prob = _heat_bath(sys)
    return configs, pi, _push(_offsets(succ, len(pi)), prob / sys.n_sites, np.eye(len(pi)))


def glauber_separation_profile(sys, t_grid, stats=None):
    """{t: (s(t), 1 - P^t(top, bottom) / pi(bottom))}, read off the rows of
    P^t at top and at one start per orbit of the candidate symmetries that
    fix pi bitwise: spin reversal and sys.symmetries.  Each such g has
    P(gx, gy) = P(x, y) and pi(gx) = pi(x), so the other rows relabel these.
    P is never formed: sites u < h = n // 2 are the high digits a of a state
    a L + b, so P is L blocks Hm[b] (H x H) plus H blocks Lm[a] (L x L).
    stats, if a dict, receives the counts of states and starts."""
    configs, pi, succ, prob = _heat_bath(sys)
    h, q = sys.n_sites // 2, len(sys.spins)
    H, L, ell, prob = q ** h, q ** (sys.n_sites - h), len(configs), prob / sys.n_sites
    (a, b), (to_a, to_b) = np.divmod(np.arange(ell), L), np.divmod(succ, L)
    HmT, LmT = np.zeros((L, H, H)), np.zeros((H, L, L))  # the blocks, transposed
    np.add.at(HmT, (b, to_a[:h], a), prob[:h])  # a move in one half keeps the other's digits
    np.add.at(LmT, (a, to_b[h:], b), prob[h:])
    i_top, i_bot = configs.index(sys.top), configs.index(sys.bottom)
    index = np.arange(ell).reshape((q,) * sys.n_sites)
    maps = [g.ravel() for g in [np.flip(index), *map(index.transpose, sys.symmetries)]
            if np.array_equal(pi[g.ravel()], pi)]
    starts = np.union1d(_orbits(maps, ell), [i_top])
    top, s = np.searchsorted(starts, i_top), separation(pi)
    if stats is not None:
        stats.update(states=ell, starts=len(starts))
    *bufs, hi = [np.empty((H, L, len(starts))) for _ in range(3)]  # two row buffers, hi
    bufs[0].reshape(ell, -1)[:] = np.arange(ell)[:, np.newaxis] == starts  # P^0, k innermost

    def step(Q):  # Q[a, b, k] is the row of P^t at starts[k]: two GEMMs, no copy, other buffer
        out = np.matmul(LmT, Q, out=bufs[Q is bufs[0]])
        np.matmul(HmT, Q.transpose(1, 0, 2), out=hi.transpose(1, 0, 2))  # into out's layout
        return np.add(out, hi, out=out)

    return {t: (s((R := Q.reshape(ell, -1)).T), float(1.0 - R[i_bot, top] / pi[i_bot]))
            for t, Q in _walk(bufs[0], step, t_grid, len(starts) * (HmT.size + LmT.size))}


def coupon_survival_uniform(n, t, k=None, d=1):
    """P(fewer than k of n sites picked after t steps of d distinct uniform sites
    each), by _chain_at; k = n, the default, is P(some site unpicked)."""
    if not 0 <= (k := n if k is None else k) <= n or not 1 <= d <= n:  # so n >= 1
        raise ValueError(f"need 0 <= k <= n and 1 <= d <= n, got k={k}, d={d}, n={n}")
    if t < 0 or t % 1:  # the checks of exact._times, on one time (inf % 1 is nan)
        raise ValueError(f"{'negative' if t < 0 else 'fractional'} time {t}")
    return _chain_at((((n, 1),), d, k), int(t))


def _classes(weights):
    """_count_chain classes: (count, exact weight over the gcd) per weight, lightest first."""
    w, counts = np.unique(weights, return_counts=True)
    g = math.gcd(*(ints := [a * 2**1074 // b for a, b in map(float.as_integer_ratio, w.tolist())]))
    return tuple(zip(counts.tolist(), [a // g for a in ints]))


def _chain_at(key, t):
    """The curve of _count_chain(key) at the integer t >= 0, 1.0 before need / d and 0.0 past
    its end; one lookup, then the cap of _chain_cells, its first branch at once for a held key."""
    if t * key[1] < key[2]:
        return 1.0
    per, _, curve = _CHAINS.get(key, _UNHELD)
    if per * (t + 1) > DEFAULT_COUPON_CELL_CAP and (
            (cells := _chain_cells(key, t)) > (cap := DEFAULT_COUPON_CELL_CAP)):
        raise CapacityError(f"count chain of {cells:.4g} cells exceeds cap {cap}")
    if t >= len(curve) and t >= len(curve := _count_chain(key)(t + 1)):
        return 0.0  # past the curve only at its 0
    return curve[t]


def _chain_cells(key, t=2**63, p=2.0**-1022):
    """The cells _count_chain(key) pushes to point t >= need / d, or below p: _step_cells
    times t + 1 points, past the cap those to _horizon(key, p), or the least, ceil(need / d)
    + 1, where they pass it already: then no binomial is read."""
    if (cells := (per := _step_cells(*key)) * (t + 1)) > DEFAULT_COUPON_CELL_CAP:
        least = per * (-(-key[2] // key[1]) + 1)
        cells = least if least > DEFAULT_COUPON_CELL_CAP else per * (min(t, _horizon(key, p)) + 1)
    return cells


def _step_cells(classes, d, need):
    """States x moves, the cells a step of _count_chain pushes, as a float (inf past it)."""
    moves = 1 + min(d, need - 1) * len(classes)
    return moves * math.prod(float(min(k + 1, need)) for k, _ in classes)


# key -> (_step_cells(*key), grown, curve) of the last 8 keys built or grown, oldest first
_CHAINS, _UNHELD = {}, (math.inf, None, ())  # an unheld key's read takes the full rule


def _count_chain(key):
    """grown(size, low), the one reader of the count chain of key = (classes, d, need), held in
    _CHAINS: n_c cards of integer weight a_c, (n_c, a_c) in classes, lightest first; a step
    picks card i with chance a_i / D, D the total (d = 1), or d distinct cards of one class.
    The state is the count picked per class; grown returns curve, the chance of fewer than need
    cards after t steps, grown in place to size points and on while at least low, never past
    its first 0.  Each chance is rounded once from exact integers, a mass past 1 by (moves t + n)
    eps at most put on 1 (further, raised at every read past it), one below 2^-1022 on 0."""
    if held := _CHAINS.pop(key, None):
        return _CHAINS.setdefault(key, held)[1]  # now the most recent
    f, n, (classes, d, need) = np.finfo(float), sum(k for k, _ in key[0]), key
    if d > 1:  # i new cards from j < need - i: C(n - j, i) C(j, d - i) / C(n, d)
        stay, *rest = _hypergeometric(n, d, need)[:need or 1]
        moves = [(slice(i, None), slice(None, -i), p[:need - i]) for i, p in enumerate(rest, 1)]
    else:  # class c: (n_c - j_c) a_c / D, 0 where need is reached; staying sum_c j_c a_c / D
        j = np.indices([min(k + 1, need) for k, _ in classes], sparse=True)
        total, short, moves = sum(k * a for k, a in classes), sum(j) + 1 < need, []
        stay = (sum(x.astype(object) * a for x, (_, a) in zip(j, classes)) / total).astype(float)
        for c, (x, (k, a)) in enumerate(zip(j, classes)):
            src = (slice(None),) * c + (slice(None, -1),)
            p = np.where(short, (k - x.astype(object)) * a / total, 0.0)[src].astype(float)
            moves.append((src[:-1] + (slice(1, None),), src, p))
    curve, law = array.array("d", [need > 0]), np.eye(1, stay.size)[0].reshape(stay.shape)

    def grown(size=0, low=math.inf):
        nonlocal law
        while curve[-1] and (len(curve) < size or curve[-1] >= low):
            step = law * stay
            for dst, src, p in moves:
                step[dst] += law[src] * p
            step[step < f.tiny] = 0.0
            if (mass := float(step.sum())) > 1.0 + ((len(moves) + 1) * len(curve) + n) * f.eps:
                raise RuntimeError(f"count chain {key} at t={len(curve)}: mass {mass!r} > 1")
            law = step
            curve.append(min(mass, 1.0))
        return curve

    if len(_CHAINS) == 8:
        del _CHAINS[next(iter(_CHAINS))]  # the least recent
    _CHAINS[key] = (_step_cells(*key), grown, curve)
    return grown


def _hypergeometric(n, d, cols):
    """[i, j] = C(n - j, i) C(j, d - i) / C(n, d), j < cols: the chance that d distinct sites
    of n bring i new ones to j picked, from exact integers col[a] = C(a, i), rounded once.
    Rows i and d - i read columns i and d - i alone, so the columns up to d / 2 are held
    and each later one meets its partner, the last held, as it is made."""
    out, total, col, held = np.empty((d + 1, cols)), math.comb(n, d), [1] * (n + 1), []
    for i in range(d + 1):
        if 2 * i <= d:
            held.append(col)
        if 2 * i >= d:
            other = held.pop()
            out[i] = [col[n - j] * other[j] / total for j in range(cols)]
            out[d - i] = [other[n - j] * col[j] / total for j in range(cols)]
        col = [0, *itertools.accumulate(col[:-1])]  # C(a, i + 1): C(b, i) summed over b < a
    return out


def _horizon(key, p):
    """The first t (at most 2^63 + 1) with C(n, r) (kept / total)^t < p, r = n - need + 1:
    a union bound on the chance that some r cards are all unpicked, kept / total the most
    that a step misses r given cards with, so the curve of _count_chain(key) is below p."""
    classes, d, need = key
    if need <= d:
        return min(need, 1)  # one step picks need cards
    r = (n := sum(k for k, _ in classes)) - need + 1
    if d > 1:
        total, kept = math.comb(n, d), math.comb(need - 1, d)
    else:  # all but the r lightest cards
        total = sum(k * a for k, a in classes)
        kept = total - sum(itertools.islice((a for k, a in classes for _ in range(k)), r))
    fall = math.log1p((kept - total) / total)  # one rounding of an exact ratio
    return math.floor(min((math.log(math.comb(n, r)) - math.log(p)) / -fall, 2.0**63)) + 1


def _chain_T(key, v):
    """#{t : S(t) >= v} for each v in (0, 1], S the curve of _count_chain(key), grown until
    it falls below min(v) or ends, or CapacityError where _chain_cells to min(v) pass the cap.
    The guide search runs on a rising copy of the curve's running minimum: an ulp of upward
    rounding after the cut would otherwise count where the cut did not."""
    if (cells := _chain_cells(key, p=v.min(initial=1.0))) > (cap := DEFAULT_COUPON_CELL_CAP):
        raise CapacityError(f"count chain of {cells:.4g} cells exceeds cap {cap}")
    rising = np.minimum.accumulate(_count_chain(key)(low=v.min(initial=np.inf)))[::-1].copy()
    t = _guide(rising, len(v))(v)  # #{t : S(t) < v}
    return np.subtract(len(rising), t, out=t)


@dataclass(frozen=True)
class MonotoneLowerBounds:
    sep_time: float
    sep_bound: float
    tv_time: float
    tv_bound: float


def monotone_lower_bounds(n, c):
    """Uniform lower bounds for any n-site monotone system:
    s(n log n - cn) >= 1 - exp(-e^c) and
    d(n/2 log n - cn) >= 1/4 - exp(-e^c)/4."""
    if not 0 < c < math.inf:
        raise ValueError(f"need a finite c > 0, got c={c}")
    sep_bound = 1.0 - math.exp(-math.exp(min(c, 709.0)))  # 1.0 from c = 6.62 on; e^c kept finite
    return MonotoneLowerBounds(sep_time=n * math.log(n) - c * n, sep_bound=sep_bound,
                               tv_time=0.5 * n * math.log(n) - c * n, tv_bound=sep_bound / 4.0)
