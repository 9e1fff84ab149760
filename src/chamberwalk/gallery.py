"""Weighted-face families on the braid and Boolean arrangements, plus the
move-to-front (Tsetlin library) machinery: the t* solver, the closed-form
separation bounds, P(T > t) for "all but one card touched" off the count
chain of the card weights, and samplers, the chain ones by glauber._chain_T;
and the exact s and TV of riffle and the hypercube walks from their lumped
chains, with no chamber or face.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import glauber
from .core import CapacityError, _check_entries, _check_weights, braid_m, braid_signs
from .core import weighted_faces
from .exact import _offsets, _push, _times, _walk
from .glauber import _chain_at, _chain_cells, _chain_T, _classes, _hypergeometric

DEFAULT_RIFFLE_BIT_CAP = 2**24  # bits of the integers riffle_profiles builds over its grid
_CHUNK_CELLS = 2**16  # trials x n cells per block of the card sampler


@dataclass(frozen=True)
class TsetlinSpec:
    """Move-to-front chain: pick card i with probability w_i, move it to top."""

    card_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "card_weights", _check_weights(self.card_weights, "card weights"))

    @property
    def n(self):
        return len(self.card_weights)

    @property
    def chain_key(self):
        """The _count_chain key of T: the weight classes of the cards, one a step."""
        return _classes(self.card_weights), 1, self.n - 1


def tsetlin_faces(spec):
    """Faces {j}{rest} with weight w_j on the braid arrangement."""
    n = spec.n
    if n < 2:
        raise ValueError("tsetlin faces need n >= 2")
    _check_entries(n, braid_m(n), "; use sample_card_collection_T")
    pos = 1 - np.eye(n, dtype=np.int8)  # card j in block 0, the rest in block 1
    return weighted_faces(braid_signs(pos), spec.card_weights)


def riffle_faces(n, a):
    """Inverse a-shuffle faces: mark each card with a value in {0..a-1}
    uniformly; the face is the ordered partition by increasing mark with
    empty marks collapsed.  Weight = (#mark functions inducing it) / a^n."""
    if n < 2 or a < 2:
        raise ValueError(f"riffle faces need n >= 2 and a >= 2, got n={n} a={a}")
    _check_entries(a**n, braid_m(n))
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


def k_to_top_faces(n, k):
    """Uniform weight on faces {S}{rest} with |S| = k."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    total = math.comb(n, k)
    _check_entries(total, braid_m(n))
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


def top_bottom_faces(n, card_weights=None):
    """Move a random card to top or bottom, each side with probability 1/2.

    Faces {c}{rest} and {rest}{c}, each with weight w_c / 2 (uniform case:
    1/(2n) each)."""
    if card_weights is None:
        card_weights = np.full(n, 1.0 / n)
    w = _check_weights(card_weights, "card weights")
    if n < 2 or len(w) != n:
        raise ValueError(f"top-bottom faces need n >= 2 and one weight per card, got n={n}")
    _check_entries(2 * n, braid_m(n))
    on_top = np.eye(n, dtype=np.int8)  # card c's top face, then its bottom face
    pos = np.stack([1 - on_top, on_top], axis=1).reshape(2 * n, n)
    return weighted_faces(braid_signs(pos), np.repeat(w / 2.0, 2))


def hypercube_nn_faces(w_plus, w_minus):
    """Weighted nearest-neighbor hypercube walk: faces e_i^+/- with a single
    nonzero coordinate."""
    wp = np.asarray(w_plus, dtype=float)
    wm = np.asarray(w_minus, dtype=float)
    if len(wp) != len(wm):
        raise ValueError("w_plus and w_minus length mismatch")
    n = len(wp)  # WeightedFaceSet checks the weights: positive, summing to 1
    _check_entries(2 * n, n)
    signs = np.kron(np.eye(n, dtype=np.int8), np.int8([[1], [-1]]))  # e_i^+ then e_i^-, each i
    return weighted_faces(signs, np.stack([wp, wm], axis=1).ravel())


def hypercube_nonlocal_faces(n, k):
    """Non-local hypercube walk: pick k coordinates at random and flip a fair
    coin for each.  Faces have any k-set support with signs in {+,-}^k."""
    if not 1 < k <= n / 2:
        raise ValueError("need 1 < k <= n/2")
    count = math.comb(n, k) * 2**k
    _check_entries(count, n, "; use sample_kset_coupon_T")
    supports = np.eye(n, dtype=np.int8)[list(itertools.combinations(range(n), k))]
    flips = 1 - 2 * np.indices((2,) * k, dtype=np.int8).reshape(k, -1).T  # product((+1, -1))
    return weighted_faces((flips @ supports).reshape(count, n), np.full(count, 1.0 / count))


def _lumped_read(law, pi, den=1):
    """(s, TV) of a walk lumped into classes on each of which its law's ratio
    to pi is constant: law and pi hold the classes' masses times den, as
    floats or as exact integers (object arrays), read with one division each."""
    return (float(np.max((pi - np.minimum(law, pi)) / pi)),
            float(np.abs(law - pi).sum() / (2 * den)))


def riffle_profiles(n, a, t_grid, stats=None):
    """{t: (s, TV)} of the inverse a-shuffle on n cards from its
    rising sequences (Bayer-Diaconis 1992), with no chamber or face: t steps
    make an N = a^t-shuffle, under which each of the A(n, r - 1) (Eulerian)
    orders with r rising sequences has mass C(N + n - r, n) / N^n.  So
    s(t) = 1 - n! C(N, n) / N^n, the chance that two cards share all t
    marks, which is P(T > t).  Each value is one division of exact integers;
    where the n integers of each time, over the grid and t = 0 (the Eulerian
    row), would hold more than DEFAULT_RIFFLE_BIT_CAP bits, it raises
    CapacityError first.  stats, if a dict, receives exact_path, chambers
    and starts."""
    if n < 2 or a < 2:
        raise ValueError(f"riffle faces need n >= 2 and a >= 2, got n={n} a={a}")
    times = _times(t_grid)
    lg = math.lgamma(n + 1) / math.log(2)  # bits of n!, with N^n the size of each F below
    if (bits := n * sum(lg + n * t * math.log2(a) for t in [0, *times])) > DEFAULT_RIFFLE_BIT_CAP:
        raise CapacityError(f"riffle({n}, {a}) integers of {bits:.3g} bits over the grid "
                            f"exceed the cap of {DEFAULT_RIFFLE_BIT_CAP}")
    eulerian = [1]
    for j in range(2, n + 1):  # A(j, k) = (k + 1) A(j - 1, k) + (j - k) A(j - 1, k - 1)
        eulerian = [(k + 1) * x + (j - k) * y
                    for k, (x, y) in enumerate(zip(eulerian + [0], [0] + eulerian))]
    eulerian, fact = np.array(eulerian, dtype=object), math.factorial(n)
    if stats is not None:
        stats.update(exact_path="eulerian", chambers=fact, starts=1)
    out = {}
    for t in times:
        N = a**t
        F, law, D = math.prod(range(N, N + n)), [], N**n
        for r in range(1, n + 1):  # F = n! C(N + n - r, n)
            law.append(F)
            F = F * (N - r) // (N + n - r)
        out[t] = _lumped_read(eulerian * np.array(law, dtype=object), eulerian * D, fact * D)
    return out


def hamming_profiles(m, k, t_grid, stats=None):
    """{t: (s, TV)} of the hypercube walk on m coordinates that re-signs k distinct
    uniform ones a step, each sign fair (k = 1: the equal-weight nearest-neighbor walk),
    lumped by the Hamming distance j from the start: i ~ hypergeometric of the k lie
    among the j that differ, and each of the k then differs with chance 1/2, so
    j' = j - i + Bin(k, 1/2).  The law is pushed along that band of 2k + 1 successors,
    the hypergeometric chances rounded once from exact integers, and read against
    pi_j = C(m, j) / 2^m.  Where pi_0 = 2^-m is not a normal float (m > 1022), or past
    _walk's cell cap, it raises CapacityError before any step; stats as riffle_profiles."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    if math.ldexp(1.0, -m) < np.finfo(float).tiny:
        raise CapacityError(f"m={m}: pi_0 = 2^-{m} is not a normal float")
    hyp = _hypergeometric(m, k, m + 1)  # hyp[k - i, j]: i of the k among the j that differ
    band = np.zeros((2 * k + 1, m + 1))  # band[d, j]: the chance of j -> j + d - k
    for l in range(k + 1):  # l of the k differ after the step: d - k = l - i
        band[l:l + k + 1] += math.comb(k, l) / 2**k * hyp
    succ = np.clip(np.arange(m + 1) + np.arange(-k, k + 1)[:, np.newaxis], 0, m)  # clipped at chance 0
    pi = np.array([math.comb(m, j) / 2**m for j in range(m + 1)])
    if stats is not None:
        stats.update(exact_path="hamming-chain", chambers=2**m, starts=1)
    push = functools.partial(_push, _offsets(succ, 1), band)
    walk = _walk(np.eye(1, m + 1), push, t_grid, band.size)
    return {t: _lumped_read(law[0], pi) for t, law in walk}


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
    while hi - lo > 1e-9 and lo < (mid := 0.5 * (lo + hi)) < hi:  # floats past 2^23: > 1e-9 apart
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
    if not 0 < c < math.inf:
        raise ValueError(f"need a finite c > 0, got c={c}")
    w = spec.card_weights
    min_w = float(w.min())
    min_w_sq = float((w**2).min())
    t_star = solve_t_star(spec)
    c_cap = t_star * min_w / 2.0
    if strict and not c < c_cap:
        raise ValueError(
            f"lower bound requires c < t*.min(w)/2 = {c_cap:.6g}; got c = {c}"
        )
    try:
        slack = (4.0 * min_w_sq * t_star + 2.0 * c * min_w) / c**2
        upper_raw = 1.0 - math.exp(-math.exp(-c / 2.0) / 2.0) + slack
        lower_raw = (
            1.0
            - math.exp(-math.exp(c / 2.0) / 2.0)
            - (4.0 * min_w_sq * t_star - 2.0 * c * min_w) / c**2
            - 1.0 / c
        )
    except (OverflowError, ZeroDivisionError):  # c**2 or exp(c/2) past the floats
        raise ValueError(f"the bounds at c={c} leave the float range") from None
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
    """P(T > t) = P(at least two cards untouched at t) over _times(t_grid), read by
    glauber._chain_at off the count chain of spec.chain_key, the cards' weight classes."""
    key = spec.chain_key
    return {t: _chain_at(key, t) for t in _times(t_grid)}


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan mean is refused below
def sample_card_collection_T(spec, trials, seed):
    """Monte Carlo samples of T = first time n-1 distinct cards are touched.

    Where the cells the count chain of spec.chain_key pushes to fall below 2^-53
    fit DEFAULT_COUPON_CELL_CAP and cost less than n - 2 exponentials a trial:
    T = #{t : S(t) >= 1 - U} by _chain_T, S its curve, exact in law up to 2^-53
    and the chain's rounding, whatever the cache holds.  Otherwise T is n-1
    steps plus one Poisson count of repeats: card i is first touched at
    tau_i = E_i / w_i in continuous time, E_i ~ Exp(1), n-1 are touched at s,
    the second-largest tau, and card i repeats Poisson(w_i (s - tau_i)^+) times.
    """
    n, w, key = spec.n, spec.card_weights, spec.chain_key
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    cells = _chain_cells(key, p=2.0**-53)
    # a cell the count chain pushes (one move of one state at one step) costs about one of the
    # exponentials below: 5.3 ns against 8.4 ns at n = 500, measured once (numpy 2.4, 2-core x86)
    if cells <= glauber.DEFAULT_COUPON_CELL_CAP and cells < trials * (n - 2):
        u = rng.random(trials)
        return _chain_T(key, np.subtract(1.0, u, out=u))
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
    matter for T).  T = #{t : S(t) >= 1 - U} by _chain_T, S the curve of the
    count chain of m coupons, k a step: exact in law up to 2^-53 and the chain's
    rounding.  Past DEFAULT_COUPON_CELL_CAP cells pushed, CapacityError first.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).random(trials)
    v = np.subtract(1.0, u, out=u)
    return _chain_T((((m, 1),), k, m), v)
