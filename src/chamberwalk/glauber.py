"""Heat-bath Glauber dynamics on monotone spin systems.

The heat-bath move table of a spin system, the exact chain on tiny systems,
the uniform coupon-collector lower bounds on separation and total variation
mixing, and Erdos-Renyi's count chain: one reader of its cached curves,
their horizon and the samplers' search.
"""

from __future__ import annotations

import array
import functools
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
        return sum(
            math.log(p if s > 0 else 1.0 - p) for s, p in zip(sigma, probs_up)
        )

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
    """P(fewer than k of n sites picked after t steps of d distinct uniform
    sites each); k = n, the default, is P(some site unpicked).  Read off the
    curve of _count_chain(n, d, k), grown to t: O(n t) work once per key, a
    lookup after.  A chain of more than DEFAULT_COUPON_CELL_CAP cells (n + 2
    for each of the t + 1 points) raises CapacityError first."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= (k := n if k is None else k) <= n or not 1 <= d <= n:
        raise ValueError(f"need 0 <= k <= n and 1 <= d <= n, got k={k}, d={d}, n={n}")
    if t < 0 or t % 1:  # the checks of exact._times, on one time (inf % 1 is nan)
        raise ValueError(f"{'negative' if t < 0 else 'fractional'} time {t}")
    if (t := int(t)) * d < k:
        return 1.0
    # the curve is 1 before t = k / d, and below 2^-1022, so ended, from _horizon on
    if (cells := (n + 2) * (t + 1)) > DEFAULT_COUPON_CELL_CAP >= (n + 2) * (k + 1):
        cells = (n + 2) * (min(t, _horizon((n, d, k), 2.0**-1022)) + 1)
    if cells > DEFAULT_COUPON_CELL_CAP:
        raise CapacityError(f"coupon chain of {cells} cells exceeds cap {DEFAULT_COUPON_CELL_CAP}")
    curve = _count_chain(n, d, k)(t + 1)
    return curve[t] if t < len(curve) else 0.0  # past the curve only at its 0


@functools.lru_cache(maxsize=8)
def _count_chain(n, d, need):
    """grown(size, low), the one reader of Erdos-Renyi's count chain: each
    step draws d distinct sites of n uniformly, and curve[t] is the chance
    of fewer than need distinct sites after t steps, a sum that does not
    cancel.  grown returns the curve, grown in place to size points and on
    while it is at least low, never past its first 0: no mass flows back
    below need.  From j sites a step brings i new ones with chance
    C(n - j, i) C(j, d - i) / C(n, d), rounded once from exact integers.
    (n, 1, n) is the coupon collector's survival, (n, 1, n - 1) that of the
    equal-weight Tsetlin T, (m, k, m) that of the non-local hypercube walk's
    T.  A mass past 1 by rounding, ((d + 1) t + n) eps at most, is put on 1;
    further, it is an error, raised again at every read past the curve.
    Each chance below 2^-1022 is put on 0: the subnormals would not empty
    (j/n of the least rounds back to it) and step slowly."""
    f = np.finfo(float)  # new[i][j]: the chance of i new sites from j, for j < need - i
    new = [p[:need - i] for i, p in enumerate(_hypergeometric(n, d, need)[:need])]
    curve, law = array.array("d", [need > 0]), np.eye(1, need)[0]  # law[j]: j sites, j < need

    def grown(size=0, low=math.inf):
        nonlocal law
        while curve[-1] and (len(curve) < size or curve[-1] >= low):
            step = law * new[0]
            for i, p in enumerate(new[1:need], 1):
                step[i:] += law[:-i] * p
            step[step < f.tiny] = 0.0
            if (mass := float(step.sum())) > 1.0 + ((d + 1) * len(curve) + n) * f.eps:
                raise RuntimeError(f"count chain {n, d, need} at t={len(curve)}: mass {mass!r} > 1")
            law = step
            curve.append(min(mass, 1.0))
        return curve

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
    """The first t with C(n, r) (C(n - r, d) / C(n, d))^t < p, key = (n, d, need)
    and r = n - need + 1: a union bound on the chance that some r sites are all
    unpicked, so the curve of _count_chain(*key) is below p from t on."""
    n, d, need = key
    if need <= d:
        return min(need, 1)  # one step picks need sites
    total = math.comb(n, d)
    fall = math.log1p((math.comb(need - 1, d) - total) / total)  # one rounding of an exact ratio
    return math.floor((math.log(math.comb(n, n - need + 1)) - math.log(p)) / -fall) + 1


def _chain_T(key, v):
    """#{t : S(t) >= v} for each v in (0, 1], S the curve of _count_chain(*key),
    grown until it falls below min(v) or ends.  The guide search runs on a
    rising copy of the curve's running minimum: an ulp of upward rounding
    after the cut would otherwise count where the cut did not."""
    rising = np.minimum.accumulate(_count_chain(*key)(low=v.min(initial=np.inf)))[::-1].copy()
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
    return MonotoneLowerBounds(
        sep_time=n * math.log(n) - c * n,
        sep_bound=sep_bound,
        tv_time=0.5 * n * math.log(n) - c * n,
        tv_bound=sep_bound / 4.0,
    )
