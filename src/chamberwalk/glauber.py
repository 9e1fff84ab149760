"""Heat-bath Glauber dynamics on monotone spin systems.

Single-site conditionals, the shared-randomness (grand) coupling, stochastic
domination checks, the exact chain on tiny systems, the uniform
coupon-collector lower bounds on separation and total variation mixing, and
Erdos-Renyi's count chain: one reader of its cached curves, their horizon
and the samplers' search.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, _guide
from .exact import _orbits, _push, _walk, separation

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
    if beta < 0:
        raise ValueError("antiferromagnetic coupling (beta < 0) is not monotone")
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
    if probs_up is None:
        probs_up = [0.5] * n
    probs_up = list(probs_up)

    def log_weight(sigma):
        return sum(
            math.log(p if s > 0 else 1.0 - p) for s, p in zip(sigma, probs_up)
        )

    return MonotoneSystem(n_sites=n, spins=(-1, 1), log_weight=log_weight, name="product")


def _softmax(logs, axis):
    p = np.exp(logs - logs.max(axis=axis, keepdims=True))
    return p / p.sum(axis=axis, keepdims=True)


def conditional_at_site(sys, sigma, u):
    """Heat-bath conditional at site u given the rest of sigma; array over
    sys.spins in spin order."""
    logs = []
    for s in sys.spins:
        cfg = list(sigma)
        cfg[u] = s
        logs.append(sys.log_weight(tuple(cfg)))
    return _softmax(np.array(logs), 0)


def glauber_step(sys, sigma, u, v):
    """Heat-bath update at site u driven by the uniform variate v.

    The new spin is the inverse CDF of the conditional, with the CDF taken
    in spin order; sharing (u, v) across configurations realizes the
    monotone grand coupling.
    """
    p = conditional_at_site(sys, sigma, u)
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, v, side="right"))
    idx = min(idx, len(sys.spins) - 1)
    out = list(sigma)
    out[u] = sys.spins[idx]
    return tuple(out)


def comparable_pairs(configs):
    for a in configs:
        for b in configs:
            if a != b and all(x <= y for x, y in zip(a, b)):
                yield a, b


def check_monotone(sys):
    """Verify stochastic domination of single-site conditionals.

    For every comparable pair sigma <= tau and every site, the conditional
    at tau must dominate the one at sigma (its CDF pointwise below, to 1e-12).
    Returns (True, None) or (False, witness) with the violating
    (sigma, tau, site), the first in comparable_pairs order, then site order.
    """
    configs, _, _, prob = _heat_bath(sys)
    cdf, spins = np.cumsum(prob, axis=1), np.array(configs)
    for a, sigma in enumerate(spins):
        above = np.all(sigma <= spins, axis=1) & (np.arange(len(configs)) != a)
        bad = np.any(cdf > cdf[:, :, [a]] + 1e-12, axis=1)  # (site, tau)
        if (taus := np.flatnonzero(above & bad.any(axis=0))).size:
            return False, (configs[a], configs[taus[0]], int(np.argmax(bad[:, taus[0]])))
    return True, None


def _heat_bath(sys):
    """(configs, pi, succ, prob) from one log_weight call per configuration:
    succ[u, s, i] is configuration i (itertools.product order) with site u
    set to spins[s], and prob[u, s, i] its heat-bath probability, computed as
    conditional_at_site computes it."""
    configs = sys.configurations()
    logs = np.array([sys.log_weight(c) for c in configs])
    i, n_spins = np.arange(len(configs)), len(sys.spins)
    place = n_spins ** np.arange(sys.n_sites - 1, -1, -1)[:, np.newaxis, np.newaxis]
    succ = i - i // place % n_spins * place + np.arange(n_spins)[:, np.newaxis] * place
    return configs, _softmax(logs, 0), succ, _softmax(logs[succ], 1)


def stationary_distribution(sys):
    return _heat_bath(sys)[:2]


def glauber_matrix(sys):
    """Exact transition matrix: pick a uniform site, resample from its
    conditional; each cell summed in (site, spin) order."""
    configs, pi, succ, prob = _heat_bath(sys)
    return configs, pi, _push(succ, prob / sys.n_sites, np.eye(len(configs)))


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
    Hm, Lm = np.zeros((L, H, H)), np.zeros((H, L, L))
    np.add.at(Hm, (b, a, to_a[:h]), prob[:h])  # a move in one half keeps the other's digits
    np.add.at(Lm, (a, b, to_b[h:]), prob[h:])
    i_top, i_bot = configs.index(sys.top), configs.index(sys.bottom)
    index = np.arange(ell).reshape((q,) * sys.n_sites)
    maps = [g.ravel() for g in [np.flip(index), *map(index.transpose, sys.symmetries)]
            if np.array_equal(pi[g.ravel()], pi)]
    starts = np.union1d(_orbits(maps, ell), [i_top])
    top = np.searchsorted(starts, i_top)
    if stats is not None:
        stats.update(states=ell, starts=len(starts))

    def step(R):  # R[k, a, b]: the row of P^t at starts[k]
        return ((R.transpose(1, 0, 2) @ Lm).transpose(1, 0, 2)
                + (R.transpose(2, 0, 1) @ Hm).transpose(1, 2, 0))

    rows = (starts[:, np.newaxis] == np.arange(ell)).astype(float).reshape(-1, H, L)
    return {t: (separation(R := R3.reshape(-1, ell), pi), float(1.0 - R[top, i_bot] / pi[i_bot]))
            for t, R3 in _walk(rows, step, t_grid)}


def coupon_survival_uniform(n, t, k=None):
    """P(fewer than k of n sites picked after t uniform site selections);
    k = n, the default, is P(some site unpicked).  Read off the curve of
    _count_chain(n, 1, k), grown to t: O(n t) work once per (n, k), a
    lookup after.  A chain of more than DEFAULT_COUPON_CELL_CAP cells
    (n + 2 for each of the t + 1 points) raises CapacityError first."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= (k := n if k is None else k) <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if t < 0 or t % 1:  # the checks of exact._times, on one time (inf % 1 is nan)
        raise ValueError(f"{'negative' if t < 0 else 'fractional'} time {t}")
    if (t := int(t)) < k:
        return 1.0
    # the curve is 1 before t = k, and below 2^-1022, so ended, from _horizon on
    if (cells := (n + 2) * (t + 1)) > DEFAULT_COUPON_CELL_CAP >= (n + 2) * (k + 1):
        cells = (n + 2) * (min(t, _horizon((n, 1, k), 2.0**-1022)) + 1)
    if cells > DEFAULT_COUPON_CELL_CAP:
        raise CapacityError(f"coupon chain of {cells} cells exceeds cap {DEFAULT_COUPON_CELL_CAP}")
    curve = _count_chain(n, 1, k)(t + 1)
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
    total, f = math.comb(n, d), np.finfo(float)
    # new[i][j]: the chance of i new sites from j, for j < need - i
    new = [np.array([math.comb(n - j, i) * math.comb(j, d - i) / total
                     for j in range(need - i)]) for i in range(d + 1)]
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
    t = _guide(rising)(v)  # #{t : S(t) < v}
    return np.subtract(len(rising), t, out=t)


def coverage_conditioned_profile(sys, t_grid):
    """Law of X^t started from the top configuration, conditioned on every
    site having been selected by time t, over a grid: evolves the joint
    (configuration, selected-site set) chain once and reads off every t.
    Returns (configs, {t: (conditional law, coverage probability)})."""
    configs, _, _, prob = _heat_bath(sys)
    n, q, full = sys.n_sites, len(sys.spins), (1 << sys.n_sites) - 1
    joint = np.zeros((len(configs), full + 1))  # over (config, touched-mask), from (top, empty)
    joint[configs.index(sys.top), 0] = 1.0

    def step(joint):  # a move at u sums out spin u and mask bit u, then sets them by the
        out = np.zeros_like(joint)  # law at u (which does not read spin u) and to 1
        for u in range(n):
            shape = (q ** u, q, q ** (n - 1 - u), 1 << (n - 1 - u), 2, 1 << u)
            cond = prob[u].reshape(q, q ** u, q, -1)[:, :, 0].swapaxes(0, 1)[..., None, None] / n
            out.reshape(shape)[..., 1, :] += cond * joint.reshape(shape).sum(1).sum(3)[:, None]
        return out

    out = {}
    for t, joint in _walk(joint, step, t_grid):
        covered = joint[:, full]
        p_cov = covered.sum()
        if p_cov <= 0:
            raise ValueError(f"coverage event has zero probability at t={t}")
        out[t] = (covered / p_cov, float(p_cov))
    return configs, out


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
    if c <= 0:
        raise ValueError("need c > 0")
    sep_bound = 1.0 - math.exp(-math.exp(c))
    return MonotoneLowerBounds(
        sep_time=n * math.log(n) - c * n,
        sep_bound=sep_bound,
        tv_time=0.5 * n * math.log(n) - c * n,
        tv_bound=sep_bound / 4.0,
    )
