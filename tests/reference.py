"""Reference implementations that the tests compare chamberwalk against.

Each is written from the definition, one face, pair or configuration at a
time, and nothing here imports chamberwalk: the functions take sign tuples,
weights, chamber lists and a spin system's fields (``n_sites``, ``spins``,
``log_weight``) as plain values.

- Faces: sign vectors read from strings like '+0-', the face product, the
  ordered set partitions of n cards and their braid sign vectors, deck
  orders as braid chambers and back.
- Candidate symmetries (src, sign), x -> sign * x[src]: the card
  transpositions of the braid arrangement, the sign flips of the Boolean one.
- The stationary law of the chamber walk by sampling faces without
  replacement, enumerated over their orderings.
- The Tsetlin library's P(T > t), all cards but one touched, as the Möbius
  sum over the count vectors of the untouched cards, in fractions.
- P(T > t) of faces whose supports are uniform k-sets of m hyperplanes, by
  inclusion-exclusion over the hyperplanes missed, in fractions.
- P(T > t) of any face list as the live mass of the chain on the zero sets
  of the product, stepped on integers and read in fractions.
- Heat-bath Glauber dynamics: a site's conditional, one coupled update,
  the comparable pairs of configurations and the monotonicity check, and
  the law from the top conditioned on every site having been picked.
- What a cache of count chains, key -> (cells a step, grower, curve), holds:
  each key's grower and curve length, so that a chain built, rebuilt or
  grown shows.
- The Möbius form of P(T > t) from a face list's signs and weights: the
  superset fold as one block view per coordinate and the terms (c_X, q_X)
  of each flat X.
"""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

ENUM_ORDERING_FACE_CAP = 9  # weighted faces: stationary_without_replacement walks their orderings


def parse_sign_vector(s):
    """A string like '+-0' as a sign tuple of +1, -1 and 0."""
    return tuple({"+": 1, "-": -1, "0": 0}[ch] for ch in s)


def face_product(f, g):
    """Semigroup product: coordinate i is f[i] unless it is zero, then g[i]."""
    if len(f) != len(g):
        raise ValueError(f"length mismatch: {len(f)} vs {len(g)}")
    return tuple(a if a != 0 else b for a, b in zip(f, g))


def ordered_set_partitions(items):
    """Yield all ordered partitions of ``items`` into nonempty blocks: the
    first block is any nonempty subset, the rest a partition of the others."""
    items = list(items)
    if not items:
        yield []
        return
    for r in range(1, len(items) + 1):
        for block in itertools.combinations(items, r):
            rest = [x for x in items if x not in block]
            for tail in ordered_set_partitions(rest):
                yield [set(block)] + tail


def partition_to_sign_vector(blocks, n):
    """Sign vector of an ordered set partition of {0, .., n-1}: the
    coordinate of pair (i, j), i < j, in lexicographic order, is + when i's
    block comes before j's, - when after, 0 when they share a block."""
    pos = {}
    for b_idx, block in enumerate(blocks):
        for x in block:
            if x in pos:
                raise ValueError(f"element {x} appears in two blocks")
            pos[x] = b_idx
    if sorted(pos) != list(range(n)):
        raise ValueError("blocks do not partition range(n)")
    return tuple((pos[i] < pos[j]) - (pos[i] > pos[j])
                 for i, j in itertools.combinations(range(n), 2))


def permutation_to_chamber(perm):
    """Chamber of a deck order (perm[0] on top / smallest coordinate)."""
    return partition_to_sign_vector([{x} for x in perm], len(perm))


def chamber_to_permutation(c, n):
    """Inverse of permutation_to_chamber: each card's place is the number
    of cards before it."""
    before = [0] * n
    for (i, j), sign in zip(itertools.combinations(range(n), 2), c):
        if sign == 0:
            raise ValueError("not a braid chamber (zero coordinate)")
        before[j if sign > 0 else i] += 1
    perm = [None] * n
    for card, b in enumerate(before):
        perm[b] = card
    return tuple(perm)


def card_transpositions(n):
    """One (src, sign) per pair (a, b) of n cards, in lexicographic order:
    swap a and b, then the coordinate of pair (i, j) reads that of the pair
    of the cards sent to i and j, negated where their order reverses."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for a, b in pairs:
        swap = {a: b, b: a}
        pre = [(swap.get(i, i), swap.get(j, j)) for i, j in pairs]
        out.append(([pairs.index((min(p), max(p))) for p in pre],
                    [1 if i < j else -1 for i, j in pre]))
    return out


def coordinate_flips(n):
    """One (src, sign) per coordinate of the Boolean arrangement: negate it."""
    return [(list(range(n)), [-1 if k == i else 1 for k in range(n)]) for i in range(n)]


def stationary_without_replacement(chambers, faces, weights):
    """Stationary law over ``chambers``, in their order: draw the faces
    without replacement in proportion to their weights and multiply them
    left to right, F1 F2 ...; the law of the first chamber this reaches,
    enumerated exactly over the orderings.  More than
    ENUM_ORDERING_FACE_CAP faces raise RuntimeError."""
    if len(faces) > ENUM_ORDERING_FACE_CAP:
        raise RuntimeError(
            f"{len(faces)} weighted faces exceeds enumeration cap {ENUM_ORDERING_FACE_CAP}")
    mass, weights = collections.defaultdict(float), np.asarray(weights)

    def recurse(prefix, remaining, prob):
        if prefix is not None and 0 not in prefix:  # later faces cannot change a chamber
            mass[prefix] += prob
            return
        total = weights[remaining].sum()
        for k in remaining:
            nxt = faces[k] if prefix is None else face_product(prefix, faces[k])
            recurse(nxt, [j for j in remaining if j != k], prob * weights[k] / total)

    recurse(None, list(range(len(faces))), 1.0)
    return np.array([mass[tuple(c)] for c in chambers])


def count_vector_survival(weights, t):
    """P(T > t) for T the first time all cards but one are touched, card i picked
    with chance weights[i] over their exact total, as a Fraction: the untouched
    set U holds u_i of the n_i cards of the i-th distinct weight w_i, and each u
    with |u| >= 2 adds (-1)^|u| (|u| - 1) prod_i C(n_i, u_i) q(u)^t, q(u) the
    weight outside U over the total.  prod_i (n_i + 1) terms: for n <= 10 cards."""
    classes = collections.Counter(map(Fraction, weights))
    total = sum(k * w for w, k in classes.items())
    out = Fraction(0)
    for u in itertools.product(*(range(k + 1) for k in classes.values())):
        if sum(u) >= 2:
            c = (-1) ** sum(u) * (sum(u) - 1) * math.prod(map(math.comb, classes.values(), u))
            out += c * (sum((k - x) * w for (w, k), x in zip(classes.items(), u)) / total) ** t
    return out


def kset_survival(m, k, t):
    """P(T > t) for T the first time that t uniform k-sets of m hyperplanes
    cover them all: the sum over the j >= 1 hyperplanes missed of
    (-1)^(j+1) C(m, j) (C(m - j, k) / C(m, k))^t, as a Fraction."""
    total = math.comb(m, k)
    return sum((-1) ** (j + 1) * math.comb(m, j) * Fraction(math.comb(m - j, k), total) ** t
               for j in range(1, m + 1))


def zero_set_survival(signs, weights, times):
    """({t: P(T > t)} as Fractions, states, supports) for faces of the sign rows drawn with
    chances weights over their exact total: the law of the zero set of the product of the
    faces drawn, a bit mask of hyperplanes from all of them, ANDed a step with the zero mask
    of the face drawn; T > t while it is not empty.  Each weight is its float's exact value,
    the law is integers over total^t, states counts the non-empty sets reached and supports
    the distinct zero masks."""
    exact = [Fraction(float(x)) for x in weights]
    den = math.lcm(*(x.denominator for x in exact))
    supports = collections.Counter()
    for row, x in zip(signs, exact):
        supports[sum(1 << i for i, v in enumerate(row) if v == 0)] += int(x * den)
    total, full = sum(supports.values()), (1 << len(signs[0])) - 1
    states, todo = set(), [full] if full else []
    while todo:
        if (s := todo.pop()) not in states:
            states.add(s)
            todo += [s & z for z in supports if s & z]
    law, out = collections.Counter({full: 1} if full else {}), {}
    for t in range(max(times) + 1):
        if t in times:
            out[t] = Fraction(sum(law.values()), total**t)
        step = collections.Counter()
        for s, x in law.items():
            for z, a in supports.items():
                if s & z:
                    step[s & z] += x * a
        law = step
    return out, len(states), len(supports)


def conditional_at_site(sys, sigma, u):
    """Heat-bath conditional at site u given the rest of sigma; array over
    sys.spins in spin order."""
    logs = np.array([sys.log_weight(tuple(sigma[:u]) + (s,) + tuple(sigma[u + 1:]))
                     for s in sys.spins])
    p = np.exp(logs - logs.max())
    return p / p.sum()


def glauber_step(sys, sigma, u, v):
    """Heat-bath update at site u driven by the uniform variate v: the new
    spin is the inverse CDF of the conditional, taken in spin order, so
    sharing (u, v) across configurations realizes the grand coupling."""
    cdf = np.cumsum(conditional_at_site(sys, sigma, u))
    idx = min(int(np.searchsorted(cdf, v, side="right")), len(sys.spins) - 1)
    return tuple(sigma[:u]) + (sys.spins[idx],) + tuple(sigma[u + 1:])


def comparable_pairs(configs):
    """Pairs (a, b) of distinct configurations with a <= b at every site, in configs order."""
    for a in configs:
        for b in configs:
            if a != b and all(x <= y for x, y in zip(a, b)):
                yield a, b


def check_monotone(sys):
    """Stochastic domination of the single-site conditionals: for every
    comparable pair sigma <= tau and every site, the CDF at tau is pointwise
    below the one at sigma, to 1e-12.  Returns (True, None) or (False,
    (sigma, tau, site)), the first violation in comparable_pairs order, then
    site order."""
    configs = list(itertools.product(sys.spins, repeat=sys.n_sites))
    for sigma, tau in comparable_pairs(configs):
        for u in range(sys.n_sites):
            low = np.cumsum(conditional_at_site(sys, sigma, u))
            if np.any(np.cumsum(conditional_at_site(sys, tau, u)) > low + 1e-12):
                return False, (sigma, tau, u)
    return True, None


def coverage_conditioned_profile(sys, t_grid):
    """Law of the heat-bath chain after t steps from the top configuration,
    conditioned on every site having been picked by then, at each t of
    t_grid: the joint law of (configuration, picked-site mask), stepped as a
    whole, one log_weight call per configuration.  A move at u sums out spin
    u and mask bit u, then sets them by u's conditional (which does not read
    spin u) and to 1.  Returns (configs, {t: (conditional law, P(all picked))})."""
    n, q, full = sys.n_sites, len(sys.spins), (1 << sys.n_sites) - 1
    configs = list(itertools.product(sys.spins, repeat=n))
    logs = np.array([sys.log_weight(c) for c in configs]).reshape((q,) * n)
    conds = []
    for u in range(n):  # cond[high digits, spin at u, low digits]
        p = np.exp(logs - logs.max(axis=u, keepdims=True))
        conds.append((p / p.sum(axis=u, keepdims=True) / n).reshape(q**u, q, -1, 1, 1))
    joint = np.zeros((len(configs), full + 1))  # over (config, mask), from (top, no site)
    joint[configs.index((max(sys.spins),) * n), 0] = 1.0
    out, wanted = {}, set(t_grid)
    for t in range(max(wanted) + 1):
        if t in wanted:
            covered = joint[:, full]
            if (p_cov := covered.sum()) <= 0:
                raise ValueError(f"coverage event has zero probability at t={t}")
            out[t] = (covered / p_cov, float(p_cov))
        step = np.zeros_like(joint)
        for u, cond in enumerate(conds):
            shape = (q**u, q, q ** (n - 1 - u), 1 << (n - 1 - u), 2, 1 << u)
            step.reshape(shape)[..., 1, :] += cond * joint.reshape(shape).sum(1).sum(3)[:, None]
        joint = step
    return configs, out


def held_chains(chains):
    """{key: (grower, curve length)} of a count-chain cache; a rebuild replaces the grower."""
    return {key: (grown, len(curve)) for key, (_, grown, curve) in chains.items()}


def superset_reshape(x, op):
    """Fold x, indexed by the sets of some m coordinates, in place by op over
    the supersets of each set: one block view per coordinate."""
    for i in range(x.size.bit_length() - 1):
        xs = x.reshape(-1, 2, 1 << i)
        op(xs[:, 0], xs[:, 1], out=xs[:, 0])
    return x


def mobius_reference(signs, weights):
    """(c, q, flats) of the faces' sign rows and weights: q_S, the weight of
    the faces zero on all of S, and c_X = -mu({}, X) at the flats X != {} with
    q_X > 0, from an int64 closure and signs from bit counts."""
    m = signs.shape[1]
    masks = (signs == 0) @ (1 << np.arange(m, dtype=np.int64))
    q = superset_reshape(np.bincount(masks, weights, minlength=1 << m), np.add)
    cl = np.full(1 << m, (1 << m) - 1, dtype=np.int64)
    cl[masks] = masks
    sign = np.where(np.bitwise_count(np.arange(1, 1 << m)) % 2, 1.0, -1.0)
    c = np.bincount(superset_reshape(cl, np.bitwise_and)[1:], sign, minlength=1 << m)
    flats = np.flatnonzero((c != 0) & (q > 0))
    return c[flats].astype(np.int64), q[flats], flats

