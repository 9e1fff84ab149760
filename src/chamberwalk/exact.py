"""Exact small-instance analysis of the chamber walk.

Transition matrix, stationary distribution (linear solve plus the
sampling-without-replacement construction as an independent oracle),
separation and total-variation distance, the inclusion-exclusion formula
for P(T > t), and the coupling parameters b, d with the cutoff prediction
they determine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, check_separating, face_product, is_chamber
from .core import symmetry_generators, weighted_faces
from .walk import trial_rng

DEFAULT_CHAMBER_CAP = 10_000
DEFAULT_IE_HYPERPLANE_CAP = 20
ENUM_ORDERING_FACE_CAP = 9
_TABLE_CELLS = 2**20  # bytes of packed products in one block of faces


def _signs(rows, m):
    return np.array(rows, dtype=np.int8).reshape(len(rows), m)


def _bits(x):
    """Rows of signs as packed bits, one per hyperplane: set where x > 0."""
    return np.packbits(x > 0, axis=-1)


def _chamber_finder(arr, chamber_cap):
    """Vectorized arr.chamber_index, once the chamber cap holds: the index of
    each chamber given as _bits among arr's chambers, or -1 if it is none."""
    if arr.n_chambers > chamber_cap:
        raise CapacityError(f"{arr.n_chambers} chambers exceeds exact-mode cap {chamber_cap}")

    def keys(bits):  # compared as raw bytes; with no hyperplanes all are equal
        if not bits.shape[-1]:
            return np.zeros(bits.shape[:-1], dtype="V1")
        bits = np.ascontiguousarray(bits)
        return bits.view(np.dtype((np.void, bits.shape[-1])))[..., 0]

    order = np.argsort(known := keys(_bits(_signs(arr.chambers, arr.m))))
    known = known[order]

    def find(bits):
        k = keys(bits)
        pos = np.minimum(np.searchsorted(known, k), len(known) - 1)
        return np.where(known[pos] == k, order[pos], -1)

    return find


def _product_table(arr, w, find):
    """(faces, chambers) array of the index of F C, built on packed bits in
    blocks of faces of at most _TABLE_CELLS bytes (one face at least); a
    product that is not a chamber of arr raises ValueError."""
    C, F = _bits(_signs(arr.chambers, arr.m)), _signs(w.faces, arr.m)
    plus, on = _bits(F)[:, np.newaxis], np.packbits(F != 0, axis=1)[:, np.newaxis]
    rows = max(1, _TABLE_CELLS // max(C.size, 1))
    table = np.concatenate([np.empty((0, len(C)), dtype=np.intp)] + [
        find(C & ~on[i:i + rows] | plus[i:i + rows]) for i in range(0, len(F), rows)])
    if np.any(table < 0):
        raise ValueError("a face product is not a chamber of the arrangement")
    return table


def transition_matrix(arr, w, chamber_cap=DEFAULT_CHAMBER_CAP, find=None):
    """Row-stochastic matrix P[C, D] = sum of w(F) over faces with FC = D,
    each cell summed in face order; find, if given, is _chamber_finder's."""
    table, ell = _product_table(arr, w, find or _chamber_finder(arr, chamber_cap)), arr.n_chambers
    P = np.zeros((ell, ell))
    np.add.at(P, (np.tile(np.arange(ell), len(table)), table.ravel()), np.repeat(w.weights, ell))
    return P


def _symmetric(arr, w, find):
    """True when symmetry_generators(arr) map the chambers onto themselves
    and each weighted face to one of exactly equal total weight, and reach
    every chamber from chamber 0: each row of P^t then relabels row 0, and
    pi is uniform."""
    w = weighted_faces(zip(w.faces, w.weights))  # a face listed twice has the sum
    C, F = _signs(arr.chambers, arr.m), _signs(w.faces, arr.m)
    weight, maps = dict(zip(w.faces, w.weights)), []
    for src, sign in symmetry_generators(arr):
        images = map(tuple, (sign * F[:, src]).tolist())
        maps.append(find(_bits(sign * C[:, src])))
        if maps[-1].min() < 0 or any(weight.get(g) != wt for g, wt in zip(images, w.weights)):
            return False
    seen, frontier = np.arange(len(C)) == 0, np.array([0])
    while maps and frontier.size:
        frontier = np.unique(np.concatenate([g[frontier] for g in maps]))
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return bool(maps) and bool(seen.all())


def _chain(arr, w, chamber_cap, find=None):
    """One build of P and one solve of pi P = pi, sum(pi) = 1, for the
    exact engine and the stationary solve alike."""
    if not check_separating(arr, w):
        raise ValueError("non-separating weights: stationary law not unique")
    P = transition_matrix(arr, w, chamber_cap, find)
    ell = P.shape[0]
    A = np.vstack([P.T - np.eye(ell), np.ones((1, ell))])
    b = np.zeros(ell + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = np.abs(pi @ P - pi).max()
    if residual > 1e-10:
        raise RuntimeError(f"stationary solve residual {residual:.3g} > 1e-10")
    return P, pi


def stationary_solve(arr, w, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Stationary probability vector: solves pi P = pi, sum(pi) = 1."""
    return _chain(arr, w, chamber_cap)[1]


def stationary_without_replacement(
    arr, w, max_enum_faces=ENUM_ORDERING_FACE_CAP, trials=200_000, seed=0
):
    """Stationary law via a sampling-without-replacement construction.

    Sample faces without replacement from w and apply them in reverse order,
    so the chamber is F1 F2 ... (first-sampled face leftmost).  Exact
    enumeration over orderings when the number of weighted faces allows,
    Monte Carlo otherwise (returns (pi_hat, std_err) in that case).

    The prefix product is extended left-to-right and the recursion stops as
    soon as it is a chamber: later faces cannot change it.
    """
    n_faces = len(w.faces)
    pi = np.zeros(arr.n_chambers)
    if n_faces <= max_enum_faces:
        weights = w.weights

        def recurse(prefix, remaining, prob):
            if prefix is not None and is_chamber(prefix):
                pi[arr.chamber_index(prefix)] += prob
                return
            total = weights[remaining].sum()
            for k in remaining:
                nxt = (
                    w.faces[k]
                    if prefix is None
                    else face_product(prefix, w.faces[k])
                )
                recurse(nxt, [j for j in remaining if j != k], prob * weights[k] / total)

        recurse(None, list(range(n_faces)), 1.0)
        return pi
    # Monte Carlo fallback
    for k in range(trials):
        rng = trial_rng(seed, k)
        remaining = list(range(n_faces))
        prefix = None
        while prefix is None or not is_chamber(prefix):
            probs = w.weights[remaining]
            j = remaining[rng.choice(len(remaining), p=probs / probs.sum())]
            prefix = w.faces[j] if prefix is None else face_product(prefix, w.faces[j])
            remaining.remove(j)
        pi[arr.chamber_index(prefix)] += 1.0
    pi /= trials
    std_err = np.sqrt(pi * (1 - pi) / trials)
    return pi, std_err


def _walk(state, step, t_grid):
    """Yield (t, state after t steps) over the distinct times of t_grid in
    increasing order; a negative time raises ValueError."""
    t_grid = sorted(set(int(t) for t in t_grid))
    if t_grid and t_grid[0] < 0:
        raise ValueError(f"negative time {t_grid[0]} in the time grid")
    current = 0
    for t in t_grid:
        for _ in range(t - current):
            state = step(state)
        current = t
        yield t, state


def _power_profile(P, t_grid):
    """Yield (t, P^t) along an increasing integer grid."""
    return _walk(np.eye(P.shape[0]), lambda Pt: Pt @ P, t_grid)


def separation(Pt, pi):
    """s = max over starts x0 of 1 - min over x of Pt(x0, x) / pi(x)."""
    return float((1.0 - (Pt / pi[np.newaxis, :]).min(axis=1)).max())


def _dense_profiles(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP, find=None):
    """{t: (s(t), TV(t))} from one build of P, one stationary solve and one
    walk of P^t from every start."""
    P, pi = _chain(arr, w, chamber_cap, find)
    out = {}
    for t, Pt in _power_profile(P, t_grid):
        tv = 0.5 * np.abs(Pt - pi[np.newaxis, :]).sum(axis=1).max()
        out[t] = (separation(Pt, pi), float(tv))
    return out


def _profiles(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """(path, {t: (s(t), TV(t))}).  When _symmetric certifies the weights,
    the path is 'one-start': only the law nu_t of the walk from chamber 0 is
    evolved, nu_{t+1}[F C] += w(F) nu_t[C], and read against the uniform pi.
    Any other input takes the 'dense' path, _dense_profiles."""
    if not check_separating(arr, w):
        raise ValueError("non-separating weights: stationary law not unique")
    find = _chamber_finder(arr, chamber_cap)
    if not _symmetric(arr, w, find):
        return "dense", _dense_profiles(arr, w, t_grid, chamber_cap, find)
    table, ell = _product_table(arr, w, find), arr.n_chambers

    def step(nu):
        return np.bincount(table.ravel(), (w.weights[:, np.newaxis] * nu).ravel(), ell)

    return "one-start", {
        t: (float(1.0 - ell * nu.min()), float(0.5 * np.abs(nu - 1.0 / ell).sum()))
        for t, nu in _walk((np.arange(ell) == 0).astype(float), step, t_grid)}


def distance_profiles(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Exact separation distance s(t) and worst-case total variation TV(t)
    over an integer time grid, as {t: (s(t), TV(t))}; see _profiles."""
    return _profiles(arr, w, t_grid, chamber_cap)[1]


def separation_profile(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Exact separation distance s(t) over an integer time grid."""
    prof = distance_profiles(arr, w, t_grid, chamber_cap)
    return {t: s for t, (s, _) in prof.items()}


def separation_distance(arr, w, t, chamber_cap=DEFAULT_CHAMBER_CAP):
    return separation_profile(arr, w, [t], chamber_cap)[int(t)]


def total_variation_profile(arr, w, t_grid, chamber_cap=DEFAULT_CHAMBER_CAP):
    """Exact worst-case total variation distance to stationarity on a grid."""
    prof = distance_profiles(arr, w, t_grid, chamber_cap)
    return {t: tv for t, (_, tv) in prof.items()}


def total_variation(arr, w, t, chamber_cap=DEFAULT_CHAMBER_CAP):
    return total_variation_profile(arr, w, [t], chamber_cap)[int(t)]


def survival_terms(arr, w, hyperplane_cap=DEFAULT_IE_HYPERPLANE_CAP):
    """Inclusion-exclusion terms for P(T > t).

    T > t iff some hyperplane is uncut, i.e. every face picked so far lies
    on it.  With q_S = total weight of faces lying on every hyperplane in S,
    P(T > t) = sum over nonempty S of (-1)^(|S|+1) q_S^t.  Returns a list of
    (sign, q_S) pairs; subsets with q_S = 0 are pruned together with all
    their supersets (q is monotone decreasing in S).
    """
    m = arr.m
    if m > hyperplane_cap:
        raise CapacityError(
            f"m={m} exceeds inclusion-exclusion cap {hyperplane_cap}; "
            "use Monte Carlo survival estimation"
        )
    terms = []
    _extend_terms(terms, m, 0, 0, list(zip(w.zero_masks(), w.weights)))
    return terms


def _extend_terms(terms, m, start, size, compatible):
    """Append, depth first, the term of every set that adds hyperplanes from
    start..m-1 to a set of the given size whose faces are ``compatible``."""
    for i in range(start, m):
        bit = 1 << i
        sub = [(mask, wt) for mask, wt in compatible if mask & bit]
        if not sub:
            continue
        q = sum(wt for _, wt in sub)
        terms.append((1 if (size + 1) % 2 == 1 else -1, q))
        _extend_terms(terms, m, i + 1, size + 1, sub)


def survival_exact(arr, w, t, hyperplane_cap=DEFAULT_IE_HYPERPLANE_CAP):
    """Exact P(T > t) by inclusion-exclusion over uncut hyperplanes."""
    return survival_exact_profile(arr, w, [t], hyperplane_cap)[int(t)]


def survival_exact_profile(arr, w, t_grid, hyperplane_cap=DEFAULT_IE_HYPERPLANE_CAP):
    terms = survival_terms(arr, w, hyperplane_cap)
    signs = np.array([s for s, _ in terms], dtype=float)
    qs = np.array([q for _, q in terms])
    out = {}
    for t in t_grid:
        t = int(t)
        out[t] = float(np.clip((signs * qs**t).sum(), 0.0, 1.0)) if t > 0 else 1.0
    return out


@dataclass(frozen=True)
class CouplingParameters:
    """b_i = weight not on H_i; d_ij = weight on neither H_i nor H_j."""

    b_per_hyperplane: np.ndarray
    d_per_pair: np.ndarray
    uniform_b: float | None
    uniform_d: float | None


def coupling_parameters(arr, w):
    """Exact b_i and d_ij from the explicit weighted faces.

    The uniform values are set only when all entries agree within 1e-12,
    which is the regime where the cutoff prediction applies.
    """
    m = arr.m
    masks = w.zero_masks()
    b = np.zeros(m)
    d = np.zeros((m, m))
    for mask, wt in zip(masks, w.weights):
        for i in range(m):
            if not (mask >> i) & 1:
                b[i] += wt
        for i in range(m):
            if (mask >> i) & 1:
                continue
            for j in range(m):
                if not (mask >> j) & 1 and j != i:
                    d[i, j] += wt
    off = d[~np.eye(m, dtype=bool)] if m > 1 else np.array([])
    uniform_b = float(b[0]) if np.ptp(b) <= 1e-12 else None
    uniform_d = None
    if m > 1 and np.ptp(off) <= 1e-12:
        uniform_d = float(off[0])
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
    if not 0 < b < 1:
        raise ValueError("need 0 < b < 1")
    time = math.log(m) / math.log(1.0 / (1.0 - b))
    window = 1.0 / b
    assumptions_ok = (b <= (1.0 + d) / 2.0) and (0.0 < d <= b * b + 1e-15)
    return CutoffPrediction(time=time, window=window, assumptions_ok=assumptions_ok)
