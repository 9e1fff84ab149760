"""Weighted-face families on the braid and Boolean arrangements, plus the
move-to-front (Tsetlin library) machinery: the t* solver, the closed-form
separation bounds, the exact survival formula for "all but one card
touched", and samplers for large instances, the chain ones by glauber._chain_T.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, braid_m, braid_signs, weighted_faces
from .exact import _power_sums, _rates
from .glauber import DEFAULT_COUPON_CELL_CAP, _chain_T, _horizon

DEFAULT_ENUM_CAP = 10_000_000  # sign entries, faces x hyperplanes, one face list enumerates
DEFAULT_TSETLIN_EXACT_CAP = 20
_CHUNK_CELLS = 2**16  # trials x n cells per block of the card sampler
# a cell of the count chain (one state at one step) costs about two of the
# card sampler's exponentials: 24 ns against 12 ns at n = 500, measured once
# (numpy 2.4, 2-core x86 host)
_CHAIN_CELL_COST = 2


def _check_entries(faces, m, enum_cap, hint=""):
    """Refuse a list of faces x m sign entries above enum_cap before listing a face."""
    if faces * m > enum_cap:
        raise CapacityError(
            f"{faces} faces x {m} hyperplanes exceeds the cap of {enum_cap} sign entries{hint}"
        )


def _check_weights(weights):
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("card weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"card weights sum to {w.sum()!r}, expected 1")
    return w


@dataclass(frozen=True)
class TsetlinSpec:
    """Move-to-front chain: pick card i with probability w_i, move it to top."""

    card_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "card_weights", _check_weights(self.card_weights))
        if len(self.card_weights) < 1:
            raise ValueError("need at least one card")

    @property
    def n(self):
        return len(self.card_weights)

    @property
    def equal_weights(self):
        return np.ptp(self.card_weights) <= 1e-15


def tsetlin_faces(spec, enum_cap=DEFAULT_ENUM_CAP):
    """Faces {j}{rest} with weight w_j on the braid arrangement."""
    n = spec.n
    if n < 2:
        raise ValueError("tsetlin faces need n >= 2")
    _check_entries(n, braid_m(n), enum_cap, "; use sample_card_collection_T")
    pos = 1 - np.eye(n, dtype=np.int8)  # card j in block 0, the rest in block 1
    return weighted_faces(braid_signs(pos), spec.card_weights)


def riffle_faces(n, a, enum_cap=DEFAULT_ENUM_CAP):
    """Inverse a-shuffle faces: mark each card with a value in {0..a-1}
    uniformly; the face is the ordered partition by increasing mark with
    empty marks collapsed.  Weight = (#mark functions inducing it) / a^n."""
    if n < 2 or a < 2:
        raise ValueError(f"riffle faces need n >= 2 and a >= 2, got n={n} a={a}")
    _check_entries(a**n, braid_m(n), enum_cap)
    # one row of marks per mark function, in itertools.product order and the
    # smallest signed type that holds them: the marks order the blocks
    marks = np.indices((a,) * n, dtype=np.min_scalar_type(-a)).reshape(n, -1).T
    return weighted_faces(braid_signs(marks), np.full(a**n, 1.0 / a**n))


def riffle_coupling_closed_form(a):
    """b and d for the inverse a-shuffle (any n): the probability two given
    cards get different marks, resp. pairwise for two card pairs."""
    if a < 2:
        raise ValueError(f"riffle needs a >= 2, got a={a}")
    b = 1.0 - 1.0 / a
    d = (1.0 - 1.0 / a) ** 2
    return b, d


def k_to_top_faces(n, k, enum_cap=DEFAULT_ENUM_CAP):
    """Uniform weight on faces {S}{rest} with |S| = k."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    total = math.comb(n, k)
    _check_entries(total, braid_m(n), enum_cap)
    pos = np.ones((total, n), dtype=np.int8)  # S in block 0, the rest in block 1
    pos[np.arange(total)[:, np.newaxis], list(itertools.combinations(range(n), k))] = 0
    return weighted_faces(braid_signs(pos), np.full(total, 1.0 / total))


def kset_coupling_closed_form(n, k):
    """b = k/n and d = k^2/n^2 - k(n-k)/(n^2 (n-1)), the coupling
    parameters of the non-local hypercube walk (k-to-top's faces give others)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n} k={k}")
    b = k / n
    d = k**2 / n**2 - k * (n - k) / (n**2 * (n - 1))
    return b, d


def top_bottom_faces(n, card_weights=None, enum_cap=DEFAULT_ENUM_CAP):
    """Move a random card to top or bottom, each side with probability 1/2.

    Faces {c}{rest} and {rest}{c}, each with weight w_c / 2 (uniform case:
    1/(2n) each)."""
    if card_weights is None:
        card_weights = np.full(n, 1.0 / n)
    w = _check_weights(card_weights)
    if n < 2 or len(w) != n:
        raise ValueError(f"top-bottom faces need n >= 2 and one weight per card, got n={n}")
    _check_entries(2 * n, braid_m(n), enum_cap)
    on_top = np.eye(n, dtype=np.int8)  # card c's top face, then its bottom face
    pos = np.stack([1 - on_top, on_top], axis=1).reshape(2 * n, n)
    return weighted_faces(braid_signs(pos), np.repeat(w / 2.0, 2))


def hypercube_nn_faces(w_plus, w_minus, enum_cap=DEFAULT_ENUM_CAP):
    """Weighted nearest-neighbor hypercube walk: faces e_i^+/- with a single
    nonzero coordinate."""
    wp = np.asarray(w_plus, dtype=float)
    wm = np.asarray(w_minus, dtype=float)
    if len(wp) != len(wm):
        raise ValueError("w_plus and w_minus length mismatch")
    n = len(wp)  # WeightedFaceSet checks the weights: positive, summing to 1
    _check_entries(2 * n, n, enum_cap)
    signs = np.kron(np.eye(n, dtype=np.int8), np.int8([[1], [-1]]))  # e_i^+ then e_i^-, each i
    return weighted_faces(signs, np.stack([wp, wm], axis=1).ravel())


def hypercube_nonlocal_faces(n, k, enum_cap=DEFAULT_ENUM_CAP):
    """Non-local hypercube walk: pick k coordinates at random and flip a fair
    coin for each.  Faces have any k-set support with signs in {+,-}^k."""
    if not 1 < k <= n / 2:
        raise ValueError("need 1 < k <= n/2")
    count = math.comb(n, k) * 2**k
    _check_entries(count, n, enum_cap, "; use sample_kset_coupon_T")
    supports = np.eye(n, dtype=np.int8)[list(itertools.combinations(range(n), k))]
    flips = 1 - 2 * np.indices((2,) * k, dtype=np.int8).reshape(k, -1).T  # product((+1, -1))
    return weighted_faces((flips @ supports).reshape(count, n), np.full(count, 1.0 / count))


def solve_t_star(spec):
    """Unique t with sum_i exp(-w_i t) = 1/2, by bisection to width 1e-9.

    The map is strictly decreasing from n >= 1/2 at t = 0, so a doubling
    search brackets the root.
    """
    w = spec.card_weights

    def g(t):
        return np.exp(-w * t).sum() - 0.5

    lo, hi = 0.0, 1.0
    while g(hi) > 0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TsetlinBoundReport:
    """Evaluated separation bounds around t* for the move-to-front chain."""

    t_star: float
    c: float
    upper_time: float
    upper_value: float
    lower_time: float
    lower_value: float
    upper_raw: float  # the formulas' values before clamping into [0, 1]
    lower_raw: float
    t_star_min_w: float
    t_star_min_w_sq: float


def tsetlin_bounds(spec, c, strict=True):
    """Closed-form separation bounds at t* +- multiples of 1/min(w).

    Upper: at t = t* + c/min(w),
        s(t) <= 1 - exp(-exp(-c/2)/2) + (4 min(w^2) t* + 2 c min(w)) / c^2.
    Lower: at t = t* - 2c/min(w),
        s(t) >= 1 - exp(-exp(c/2)/2) - (4 min(w^2) t* - 2 c min(w)) / c^2 - 1/c,
    valid for 0 < c < t* min(w) / 2.  With strict=False the lower formula is
    evaluated outside its validity range (asymptotic-target usage) instead of
    raising.
    """
    if c <= 0:
        raise ValueError("need c > 0")
    w = spec.card_weights
    min_w = float(w.min())
    min_w_sq = float((w**2).min())
    t_star = solve_t_star(spec)
    c_cap = t_star * min_w / 2.0
    if strict and not c < c_cap:
        raise ValueError(
            f"lower bound requires c < t*.min(w)/2 = {c_cap:.6g}; got c = {c}"
        )
    slack = (4.0 * min_w_sq * t_star + 2.0 * c * min_w) / c**2
    upper_raw = 1.0 - math.exp(-math.exp(-c / 2.0) / 2.0) + slack
    lower_raw = (
        1.0
        - math.exp(-math.exp(c / 2.0) / 2.0)
        - (4.0 * min_w_sq * t_star - 2.0 * c * min_w) / c**2
        - 1.0 / c
    )
    upper_value = min(max(upper_raw, 0.0), 1.0)
    lower_value = min(max(lower_raw, 0.0), 1.0)
    return TsetlinBoundReport(
        t_star=t_star,
        c=c,
        upper_time=t_star + c / min_w,
        upper_value=upper_value,
        lower_time=t_star - 2.0 * c / min_w,
        lower_value=lower_value,
        t_star_min_w=t_star * min_w,
        t_star_min_w_sq=t_star * min_w_sq,
        upper_raw=upper_raw,
        lower_raw=lower_raw,
    )


def tsetlin_survival_profile(spec, t_grid):
    """P(T > t) = P(at least two cards untouched at t) in Möbius form: the sum
    over card sets U with |U| >= 2 of (-1)^|U| (|U| - 1) w(rest)^t, where
    w(rest) is the weight of the cards outside U."""
    n = spec.n
    if n > DEFAULT_TSETLIN_EXACT_CAP:
        raise CapacityError(
            f"n={n} exceeds the 2^n cap {DEFAULT_TSETLIN_EXACT_CAP}; use sample_card_collection_T"
        )
    size = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
    sets = np.flatnonzero(size >= 2)
    # card i weighs on the sets U that miss it, so q_U is the weight outside U
    masks = ((1 << n) - 1) ^ (1 << np.arange(n))
    rates = functools.partial(_rates, masks, spec.card_weights, n, sets)
    c = np.where(size % 2, 1 - size, size - 1)[sets]
    return _power_sums(c, rates(), functools.partial(rates, exact=True), t_grid, n - 1)


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan mean is refused below
def sample_card_collection_T(spec, trials, seed):
    """Monte Carlo samples of T = first time n-1 distinct cards are touched.

    Equal weights, where the count chain's worst-case cells, n + 2 for each
    of _horizon((n, 1, n - 1), 2^-53) steps, cost less than n - 2
    exponentials a trial: one V = 1 - U per trial and T = #{t : S(t) >= V}
    by _chain_T, S the curve of _count_chain(n, 1, n - 1).  Exact in law up
    to 2^-53 and the chain's rounding, whatever the cache holds.  Otherwise
    T is n-1 steps plus one Poisson count of repeats: card i is touched at
    rate w_i in continuous time, first at tau_i = E_i / w_i, E_i ~ Exp(1);
    n-1 cards are touched at s, the second-largest tau, and card i repeats
    Poisson(w_i (s - tau_i)^+) times before it.
    """
    n = spec.n
    w = spec.card_weights
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if spec.equal_weights and (
            _CHAIN_CELL_COST * (n + 2) * _horizon((n, 1, n - 1), 2.0**-53) < trials * (n - 2)):
        u = rng.random(trials)
        return _chain_T((n, 1, n - 1), np.subtract(1.0, u, out=u))
    out = np.empty(trials, dtype=np.int64)
    rows = max(1, _CHUNK_CELLS // n)
    for block in np.split(out, range(rows, trials, rows)):  # views of out
        tau = rng.standard_exponential((block.size, n)) / w
        at, last = np.arange(block.size), tau.argmax(axis=1)
        tau[at, last] = 0.0
        s = tau.max(axis=1)
        tau[at, last] = s  # the last card is not touched before s
        mean = np.subtract(s[:, np.newaxis], tau, out=tau) @ w
        if not np.all(mean <= 2.0**62):  # else a count could pass int64
            raise CapacityError(f"T would overflow int64: a mean of {mean.max():.3g} repeats")
        block[:] = (n - 1) + rng.poisson(mean)
    return out


def sample_kset_coupon_T(m, k, trials, seed):
    """Samples of T for the coupon process that collects a uniform k-subset
    of [m] per step; T = first time all m coupons are held.

    Matches the chamber-walk T for the non-local hypercube walk (signs never
    matter for T).  One V = 1 - U per trial and T = #{t : S(t) >= V}, S the
    curve of _count_chain(m, k, m), cached per (m, k): exact in law up to
    2^-53 and the chain's rounding, whatever the cache holds.  A cold curve
    costs m states a step, out to the t where it falls below the least V;
    where m + 2 cells for each point to _horizon at that V pass
    DEFAULT_COUPON_CELL_CAP, it raises CapacityError before any chain is built.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).random(trials)
    v = np.subtract(1.0, u, out=u)
    cells = (m + 2) * (_horizon((m, k, m), v.min(initial=1.0)) + 1)
    if cells > DEFAULT_COUPON_CELL_CAP:
        raise CapacityError(f"k-set chain of {cells} cells exceeds cap {DEFAULT_COUPON_CELL_CAP}")
    return _chain_T((m, k, m), v)
