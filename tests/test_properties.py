"""Differential properties of the exact engines on random walks.  The
survival P(T > t), and s(t) against the survival conditioned on the chamber
at which the walk freezes: random positive weights on random face subsets of
boolean(2..4) and braid(3..4), kept only when they separate the hyperplanes.
The stationary law against the sampling-without-replacement law.
One start per orbit: class-constant card weights on braid(3..5), and Ising
grids of at most 9 sites.  The sign lists: braid_signs against
partition_to_sign_vector, chamber_index against a search of the chamber
tuples, their packed bits against np.packbits along the last axis, and each
built-in face list against a loop that lists it face by face.
P(T > t) on random faces of build_custom's arrangements of 2 to 6 lines in
the plane against the summed Möbius terms.  The Tsetlin P(T > t) over count
vectors of tied weights against the card-set sum and the braid walk, with
its term count.  Faces whose supports are all the k-sets of boolean(1..10),
equally weighted: the count chain against the k-set law in fractions, and
with one weight made unequal, within its move of that law.  The count chain's
refusals against its cell rule, with its cache cold and warm.  The guide-table search
against np.searchsorted, on both sides and on every cell edge of large CDFs and
of tables sized to their keys, and over key counts around one block.
The generic, card-collection and k-set samplers: each Monte Carlo count
against the binomial law of the exact survival."""

import collections
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import binom

import chamberwalk as cw
from chamberwalk import core, exact, glauber
from chamberwalk.core import CapacityError, braid_signs, is_chamber

from reference import face_product, ordered_set_partitions, partition_to_sign_vector
from reference import count_vector_survival, held_chains, stationary_without_replacement
from reference import kset_survival

TIMES = range(1, 26)
GLAUBER_TIMES = range(1, 16)
CASES = settings(derandomize=True, database=None, deadline=None, max_examples=40)

UNIVERSES = {("boolean", n): (cw.build_boolean(n), list(itertools.product((1, -1, 0), repeat=n)))
             for n in (2, 3, 4)}
UNIVERSES.update({("braid", n): (cw.build_braid(n), [partition_to_sign_vector(p, n)
                                                     for p in ordered_set_partitions(range(n))])
                  for n in (3, 4)})


@st.composite
def walks(draw, max_faces=8):
    arr, universe = UNIVERSES[draw(st.sampled_from(sorted(UNIVERSES)))]
    faces = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=max_faces, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(faces), max_size=len(faces)))
    w = cw.WeightedFaceSet(tuple(faces), np.array(raw) / sum(raw))
    assume(cw.check_separating(w))
    return arr, w


def inclusion_exclusion(arr, w, t):
    """Sum over every nonempty set S of hyperplanes of (-1)^(|S|+1) q_S^t,
    q_S the weight of the faces that lie on every hyperplane of S."""
    total = 0.0
    for size in range(1, arr.m + 1):
        for S in itertools.combinations(range(arr.m), size):
            q = sum(wt for f, wt in zip(w.faces, w.weights) if all(f[i] == 0 for i in S))
            total += (-1) ** (size + 1) * q**t
    return total


def by_face_sequences(w, t):
    """P(T > t): the weight of the face sequences of length t whose product
    is not a chamber."""
    total = 0.0
    for seq in itertools.product(range(len(w.faces)), repeat=t):
        product = w.faces[seq[0]]
        for k in seq[1:]:
            product = face_product(product, w.faces[k])
        if not is_chamber(product):
            total += float(np.prod(w.weights[list(seq)]))
    return total


@CASES
@given(walks())
def test_survival_equals_inclusion_exclusion_over_hyperplane_subsets(walk):
    arr, w = walk
    got = cw.survival_exact_profile(arr, w, TIMES)
    for t in TIMES:
        assert abs(got[t] - inclusion_exclusion(arr, w, t)) <= 1e-12, t


@st.composite
def line_arrangements(draw):
    """A weighted face set on build_custom's arrangement of 2 to 6 distinct lines through
    the origin of the plane, normals at angles k pi / 12: its faces are the origin, two rays
    a line and the 2 m sectors, each the signs of one point on it; 1 to 8 of them, weighted."""
    angles = np.array(draw(st.lists(st.integers(0, 11), min_size=2, max_size=6, unique=True)))
    normals = np.stack([np.cos(angles * np.pi / 12), np.sin(angles * np.pi / 12)], axis=1)
    rays = np.sort(np.concatenate([angles * np.pi / 12 + np.pi / 2] * 2) + np.repeat([0, np.pi],
                                                                                  len(angles)))
    sectors = (rays + np.roll(rays, -1) + 2 * np.pi * (np.arange(len(rays)) == len(rays) - 1)) / 2
    points = [np.stack([np.cos(x), np.sin(x)], axis=1) for x in (rays, sectors)]
    signs = [np.where(np.abs(d := p @ normals.T) < 1e-9, 0, np.sign(d)).astype(int).tolist()
             for p in points]
    arr = cw.build_custom(len(angles), signs[1], [[0] * len(angles)] + signs[0] + signs[1])
    faces = draw(st.lists(st.sampled_from(arr.faces), min_size=1, max_size=8, unique=True))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(faces), max_size=len(faces))))
    return arr, cw.WeightedFaceSet(tuple(faces), raw / raw.sum())


@CASES
@given(line_arrangements())
def test_survival_equals_the_summed_mobius_terms_on_line_arrangements(case):
    # the zero-set chain, or the count chain where the supports allow it, against the
    # float sum of survival_terms over the flats, which shares no step with either
    arr, w = case
    got, terms = cw.survival_exact_profile(arr, w, TIMES), exact.survival_terms(arr, w)
    for t in TIMES:
        assert abs(got[t] - sum(c * q**t for c, q in terms)) <= 1e-12, t


def card_set_survival(w, t):
    """P(T > t) as the sum over the card sets U with |U| >= 2 of
    (-1)^|U| (|U| - 1) w(rest)^t, w(rest) the weight of the cards outside U."""
    cards = range(len(w))
    return sum((-1) ** len(U) * (len(U) - 1) * sum(w[i] for i in cards if i not in U)**t
               for size in range(2, len(w) + 1) for U in itertools.combinations(cards, size))


@CASES
@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3, unique=True).flatmap(
    lambda pool: st.tuples(st.just(pool), st.lists(st.integers(0, len(pool) - 1),
                                                   min_size=2, max_size=8))))
@example(([1.0], [0] * 7))  # one class
@example(([1.0, 3.0], [0, 1, 1, 0, 1, 0]))
@example(([1.0, 1e-30], [0, 1, 0, 1]))  # its denominator lifts the exact total past 2^63
@example(([0.2, 0.5, 0.9], [0, 1, 2, 0, 1, 2, 0, 1]))  # three classes of eight cards
def test_tsetlin_survival_over_count_vectors_equals_card_sets_and_the_braid_walk(case):
    # the count chain of 1 to 3 weight classes against the Mobius sum over their count
    # vectors in fractions, the card-set sum, and the zero-set chain of the braid walk
    pool, pick = case
    raw = np.array(pool)[pick]
    spec = cw.TsetlinSpec(raw / raw.sum())  # equal raw weights stay equal floats
    w, n = spec.card_weights, spec.n
    times = range(0, 41)
    got = cw.tsetlin_survival_profile(spec, times)
    assert all(abs(got[t] - count_vector_survival(w.tolist(), t)) <= 1e-12 for t in times)
    assert all(abs(got[t] - card_set_survival(w, t)) <= 1e-12 for t in times)
    faces = cw.tsetlin_faces(spec)  # which carry m: no braid arrangement is built
    walk = cw.survival_exact_profile(faces, faces, times)
    assert all(abs(got[t] - walk[t]) <= 1e-12 for t in times)


@st.composite
def exchangeable_faces(draw):
    """(m, k, faces) on boolean(m <= 10) whose supports are all the k-sets of the m
    hyperplanes, each holding 1 to 2^p distinct random sign rows, in random order, of
    weights a x / 2^p, the a summing to 2^p: x = N / 2^52, N the integer nearest
    2^52 / C(m, k), and 2^p <= C(m, k), so every partial sum of a support is exact
    and each sums to x bit for bit."""
    m = draw(st.integers(1, 10))
    k = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets, signs, weights = math.comb(m, k), [], []
    n_top, p = round(2**52 / sets), min(sets.bit_length() - 1, k, 3)
    for support in itertools.combinations(range(m), k):
        j = int(rng.integers(1, 2**p + 1))
        cuts = np.sort(rng.choice(np.arange(1, 2**p), j - 1, replace=False))
        for a, row in zip(np.diff([0, *cuts, 2**p]), rng.choice(2**k, j, replace=False)):
            face = np.zeros(m, dtype=np.int8)
            face[list(support)] = 1 - 2 * (row >> np.arange(k) & 1)
            signs.append(face)
            weights.append(int(a) * n_top / 2**(52 + p))  # an exact float: a N < 2^53
    order = rng.permutation(len(signs))
    return m, k, cw.WeightedFaceSet(np.array(signs)[order], np.array(weights)[order])


@CASES
@given(exchangeable_faces())
@example((3, 1, cw.hypercube_nn_faces([1 / 6] * 3, [1 / 6] * 3)))
@example((4, 4, cw.WeightedFaceSet([(1, 1, 1, 1), (1, -1, 1, -1)], [0.75, 0.25])))
def test_exchangeable_supports_read_the_count_chain(case):
    # the count chain against the k-set law in fractions; one weight made unequal keeps
    # single-hyperplane supports on the chain of their two weight classes, and sends
    # larger ones to the zero-set chain, which moves by at most 41 x 2^-40 from that law
    m, k, w = case
    arr, times, stats = cw.build_boolean(m), range(41), {}
    got = cw.survival_exact_profile(arr, w, times, stats)
    assert stats == {"survival_path": "count-chain"}
    assert all(abs(got[t] - kset_survival(m, k, t)) <= 1e-13 for t in times)
    if math.comb(m, k) > 1:  # one support weighs the same as itself at any weights
        weights = w.weights.copy()
        weights[0] *= 1 + 2.0**-40
        w = cw.WeightedFaceSet(w.signs, weights)
        got = cw.survival_exact_profile(arr, w, times, stats)
        assert stats == {"survival_path": "count-chain" if k == 1 else "zero-set-chain"}
        assert all(abs(got[t] - kset_survival(m, k, t)) <= 1e-10 for t in times)


@st.composite
def chain_reads(draw):
    """A small count-chain key, 1 to 3 weight classes one card a step or one class d <= 3
    a step, a time from need / d on, and a cap near one of the cell counts the cap rule
    weighs, or any."""
    d = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3 if d == 1 else 1))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(counts), max_size=len(counts),
                            unique=True)) if d == 1 else [1]
    assume(d <= (n := sum(counts)))
    key = (tuple(zip(counts, sorted(weights))), d, need := draw(st.integers(0, n)))
    t = -(-need // d) + draw(st.integers(0, 60) | st.integers(0, 5000))
    per = glauber._step_cells(*key)
    near = [per * (t + 1), per * (-(-need // d) + 1),
            per * (min(t, glauber._horizon(key, 2.0**-1022)) + 1)]
    cap = draw(st.sampled_from(near).flatmap(lambda c: st.integers(max(int(c) - 1, 0), int(c) + 1))
               | st.integers(0, 10**5))
    return key, t, cap


def capped_read(key, t, cap):
    """glauber._chain_at(key, t) with the cap set to cap on its module, or None where it
    refuses: exactly where _chain_cells(key, t) passes cap at a t past need / d, and then
    with the cache as it was."""
    held = held_chains(glauber._CHAINS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(glauber, "DEFAULT_COUPON_CELL_CAP", cap)
        refuse = t * key[1] >= key[2] and glauber._chain_cells(key, t) > cap
        try:
            value = glauber._chain_at(key, t)
        except CapacityError:
            assert refuse and held_chains(glauber._CHAINS) == held
            return None
    assert not refuse
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(chain_reads())
@example(((((2, 1),), 1, 2), 3, 15))  # 2 states x 2 moves: 16 cells to t = 3
@example(((((2, 1),), 1, 2), 3, 16))
@example(((((3, 1),), 1, 3), 5000, 10_505))  # 6 cells a step: 30 006 to t = 5000, past the cap,
@example(((((3, 1),), 1, 3), 5000, 10_506))  # and 10 506 to the horizon, 1750
@example(((((4, 1),), 3, 4), 2, 47))  # 3 a step: 4 states x 4 moves, 48 cells to t = 2
@example(((((4, 1),), 3, 4), 2, 48))
@example(((((4, 1),), 3, 4), 1, 0))  # t d < need: 1.0, with no cell counted
def test_count_chain_refuses_where_its_cells_pass_the_cap_with_the_cache_cold_or_warm(read):
    # a held curve's quick admit, per (t + 1) within the cap, is the rule's first branch;
    # any other read takes the whole rule, so warm or cold refuse the same reads
    key, t, cap = read
    glauber._CHAINS.clear()
    cold = capped_read(key, t, cap)
    want = glauber._chain_at(key, t)  # at the default cap: grown past t, or to its 0
    curve = glauber._CHAINS[key][2] if key in glauber._CHAINS else ()
    assert t * key[1] < key[2] or len(curve) > t or curve[-1] == 0.0
    warm = capped_read(key, t, cap)
    assert (cold is None) == (warm is None) and cold in (None, want) and warm in (None, want)


@CASES
@given(walks(max_faces=6))
def test_survival_equals_face_sequence_enumeration(walk):
    arr, w = walk
    got = cw.survival_exact_profile(arr, w, [1, 2, 3])
    for t in (1, 2, 3):
        assert abs(got[t] - by_face_sequences(w, t)) <= 1e-12, t


@CASES
@given(walks())
def test_total_variation_below_survival_below_separation(walk):
    arr, w = walk
    survival = cw.survival_exact_profile(arr, w, TIMES)
    for t, (s, tv) in cw.distance_profiles(arr, w, TIMES).items():
        assert tv <= survival[t] + 1e-12 and survival[t] <= s + 1e-12, t


@CASES
@given(walks())
def test_survival_between_the_moment_bounds_of_the_uncut_count(walk):
    # N_t, the hyperplanes no face has cut by t, has E N_t = sum (1 - b_i)^t
    # and E N_t^2 = E N_t + sum_{i != j} (1 - b_i - b_j + d_ij)^t; T > t iff
    # N_t > 0, so the second and first moments bound P(T > t) on both sides
    arr, w = walk
    cp, times = cw.coupling_parameters(w), range(1, 41)
    b, off = cp.b_per_hyperplane, ~np.eye(w.m, dtype=bool)
    both = (1.0 - b[:, np.newaxis] - b[np.newaxis, :] + cp.d_per_pair)[off]
    survival = cw.survival_exact_profile(arr, w, times)
    sep = cw.separation_profile(arr, w, times)
    for t in times:
        first = float(((1.0 - b) ** t).sum())
        second = first + float((both**t).sum())
        lower = first**2 / second if second > 0 else 0.0
        assert lower <= survival[t] + 1e-12, t
        assert survival[t] <= min(1.0, first) + 1e-12, t
        assert survival[t] <= sep[t] + 1e-12, t


def freeze_chamber_survivals(w, times):
    """Oracle for s(t) = max_C P(T > t | Z = C), Z the chamber at which the
    forward product F_1 F_2 ... freezes (Brown-Diaconis).  The forward chain
    moves a face G to G F with weight w(F), and chambers absorb.  h(G), the
    law of Z from G, comes exactly by dynamic programming over the zero
    count, which every move off G lowers; the mass mu_t on faces comes by
    pushing the chain t steps from the all-zero face.  Returns pi = h(0) and
    {t: {C: P(T > t, Z = C)}}, with P(T > t, Z = C) = sum over the faces G
    that are not chambers of mu_t(G) h(G)(C)."""
    h = {}

    def law(G):
        if G in h:
            return h[G]
        if is_chamber(G):
            h[G] = {G: 1.0}
            return h[G]
        moved, stay = collections.defaultdict(float), 0.0
        for F, wt in zip(w.faces, w.weights):
            if (GF := face_product(G, F)) == G:
                stay += wt
            else:
                for C, p in law(GF).items():
                    moved[C] += wt * p
        h[G] = {C: p / (1.0 - stay) for C, p in moved.items()}
        return h[G]

    zero = (0,) * w.m
    mu, alive = {zero: 1.0}, {}
    for t in range(1, max(times) + 1):
        pushed = collections.defaultdict(float)
        for G, p in mu.items():
            for F, wt in zip(w.faces, w.weights):
                pushed[face_product(G, F)] += p * wt
        mu = pushed
        if t in times:
            alive[t] = collections.defaultdict(float)
            for G, p in mu.items():
                if not is_chamber(G):
                    for C, q in law(G).items():
                        alive[t][C] += p * q
    return law(zero), alive


@CASES
@given(walks())
def test_separation_is_the_largest_conditional_survival(walk):
    arr, w = walk
    pi, alive = freeze_chamber_survivals(w, TIMES)
    got = cw.separation_profile(arr, w, TIMES)
    for t in TIMES:
        s = max(alive[t][C] / pi[C] for C in pi if pi[C] > 0)
        assert abs(got[t] - s) <= 1e-12, t


def closed_class(arr, w):
    """The chambers that the walk reaches from the product of all the
    weighted faces, read off the transition matrix."""
    P, product = cw.transition_matrix(arr, w) > 0, functools.reduce(face_product, w.faces)
    reached = np.arange(arr.n_chambers) == arr.chamber_index(product)
    while (grown := reached | (reached @ P)).sum() > reached.sum():
        reached = grown
    return reached


@CASES
@given(walks(max_faces=9))
def test_stationary_law_is_the_law_without_replacement(walk):
    arr, w = walk
    want = stationary_without_replacement(arr.chambers, w.faces, w.weights)
    pi = cw.stationary_solve(arr, w)
    assert np.abs(pi - want).max() <= 1e-15
    closed = closed_class(arr, w)
    assert np.all(pi[~closed] == 0.0) and np.all(pi[closed] > 0.0)


@st.composite
def class_weighted_walks(draw):
    """Move-to-front or top-or-bottom on braid(3..5), each card weighted by
    one of three random class weights: equal weights are exactly equal."""
    n = draw(st.integers(3, 5))
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    raw = np.array([values[c] for c in classes])
    card = raw / raw.sum()
    if draw(st.booleans()):
        return cw.build_braid(n), cw.tsetlin_faces(cw.TsetlinSpec(card))
    return cw.build_braid(n), cw.top_bottom_faces(n, card)


@CASES
@given(class_weighted_walks())
def test_orbit_rows_and_lumped_pi_equal_every_row_and_the_full_solve(walk):
    arr, w = walk
    P = cw.transition_matrix(arr, w)
    ell = len(P)
    A = np.vstack([P.T - np.eye(ell), np.ones((1, ell))])
    pi = np.linalg.lstsq(A, np.eye(ell + 1)[-1], rcond=None)[0]
    assert np.abs(cw.stationary_solve(arr, w) - pi).max() <= 1e-13
    got, Pt = cw.distance_profiles(arr, w, TIMES), np.eye(ell)
    for t in TIMES:
        Pt = Pt @ P
        s = (1.0 - (Pt / pi).min(axis=1)).max()
        tv = 0.5 * np.abs(Pt - pi).sum(axis=1).max()
        assert abs(got[t][0] - s) <= 1e-13 and abs(got[t][1] - tv) <= 1e-13, t


def rowwise_separation(Pt, pi):
    """The row-wise reading: 1 - min_x Pt(x0, x) (1 / pi(x)) at each start x0, then the max."""
    on = pi > 0
    inv = np.divide(1.0, pi, out=np.zeros_like(pi), where=on)
    ratio = np.multiply(Pt, inv, out=np.full_like(Pt, np.inf), where=on)
    return float((1.0 - ratio.min(axis=1)).max())


@CASES
@given(st.integers(1, 6).flatmap(lambda ell: st.tuples(
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=ell, max_size=ell), min_size=1, max_size=5),
    st.lists(st.one_of(st.just(0.0), st.floats(2.0**-20, 1.0)), min_size=ell, max_size=ell))))
def test_separation_reduces_over_the_starts_first_bit_for_bit(case):
    rows, pi = np.array(case[0]), np.array(case[1])
    assume(pi.max() > 0)
    assert exact.separation(pi)(rows) == rowwise_separation(rows, pi)
    assert exact.separation(pi)(rows.T.copy().T) == rowwise_separation(rows, pi)  # strided rows


@st.composite
def ising_systems(draw):
    width, height = draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]))
    field = draw(st.sampled_from([0.0, None]))
    if field is None:
        field = draw(st.floats(-1.0, 1.0))
    return cw.ising_system(width, height, draw(st.floats(0.0, 1.0)), field=field)


@CASES
@given(ising_systems())
def test_glauber_orbit_rows_equal_every_row(sys_):
    configs, pi, P = cw.glauber_matrix(sys_)
    top, bottom = configs.index(sys_.top), configs.index(sys_.bottom)
    got, Pt = cw.glauber_separation_profile(sys_, GLAUBER_TIMES), np.eye(len(P))
    for t in GLAUBER_TIMES:
        Pt = Pt @ P
        s, ratio = (1.0 - (Pt / pi).min(axis=1)).max(), 1.0 - Pt[top, bottom] / pi[bottom]
        assert abs(got[t][0] - s) <= 1e-13 and abs(got[t][1] - ratio) <= 1e-13, t


@CASES
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.integers(0, 9), min_size=n, max_size=n)))
@example([0] * 7)  # one block
@example([3, 0, 6, 1, 5, 2, 4])  # all singletons
def test_braid_signs_equal_partition_to_sign_vector(labels):
    # labels[x] orders card x's block; labels need not be consecutive
    labels = np.array(labels)
    blocks = [set(np.flatnonzero(labels == v).tolist()) for v in np.unique(labels)]
    want = list(partition_to_sign_vector(blocks, len(labels)))
    assert braid_signs(labels).tolist() == want
    assert braid_signs(np.stack([labels, labels])).tolist() == [want, want]


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 63, 64, 65])  # whole bytes, one bit either side
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(st.data())
def test_bits_pack_as_packbits_along_the_last_axis(m, data):
    lead = data.draw(st.lists(st.integers(0, 3), max_size=2))  # 1-D to 3-D, with zero rows
    x = data.draw(hnp.arrays(np.int8, (*lead, m), elements=st.integers(-1, 1)))
    for signs in (x, np.zeros((0, m), dtype=np.int8)):
        want, got = np.packbits(signs > 0, axis=-1), core._bits(signs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


BRAID3_FACES = [partition_to_sign_vector(p, 3) for p in ordered_set_partitions(range(3))]
LOOKUPS = ([cw.build_braid(n) for n in range(2, 6)] + [cw.build_boolean(n) for n in range(1, 7)]
           + [cw.build_custom(3, cw.build_braid(3).chambers[::-1], BRAID3_FACES)])


@st.composite
def sign_vectors(draw):
    """An arrangement and one of its chambers, or any sign vector of its length."""
    arr = draw(st.sampled_from(LOOKUPS))
    if draw(st.booleans()):
        return arr, draw(st.sampled_from(arr.chambers))
    signs = draw(st.sampled_from([(1, -1), (1, -1, 0)]))
    return arr, tuple(draw(st.lists(st.sampled_from(signs), min_size=arr.m, max_size=arr.m)))


@CASES
@given(sign_vectors())
def test_chamber_index_equals_a_search_of_the_chambers(case):
    arr, x = case
    assert arr.signs.dtype == np.int8 and arr.signs.tolist() == [list(c) for c in arr.chambers]
    found = [i for i, c in enumerate(arr.chambers) if c == x]
    if found:
        assert arr.chamber_index(x) == found[0]
    else:
        with pytest.raises(KeyError):
            arr.chamber_index(x)
    with pytest.raises(KeyError):
        arr.chamber_index(x + (1,))


@pytest.mark.parametrize("n", range(2, 8))
def test_braid_chambers_equal_the_partition_loop(n):
    want = tuple(partition_to_sign_vector([{x} for x in perm], n)
                 for perm in itertools.permutations(range(n)))
    got = cw.build_braid(n).chambers
    assert got == want and all(type(x) is int for c in got for x in c)


def looped_faces(family, n, k, weights):
    """(face, weight) pairs of a built-in face list, listed face by face."""
    cards = set(range(n))
    if family == "tsetlin":
        return [(partition_to_sign_vector([{j}, cards - {j}], n), weights[j])
                for j in range(n)]
    if family == "top-bottom":
        return [(partition_to_sign_vector(blocks, n), weights[c] / 2.0)
                for c in range(n) for blocks in ([{c}, cards - {c}], [cards - {c}, {c}])]
    if family == "k-to-top":
        sets = list(itertools.combinations(range(n), k))
        return [(partition_to_sign_vector([set(S), cards - set(S)], n), 1.0 / len(sets))
                for S in sets]
    if family == "riffle":  # k marks; the blocks by increasing mark, empty ones dropped
        return [(partition_to_sign_vector([{c for c in range(n) if marks[c] == v}
                                              for v in sorted(set(marks))], n), 1.0 / k**n)
                for marks in itertools.product(range(k), repeat=n)]
    if family == "hypercube-nn":
        return [(tuple(s if j == i else 0 for j in range(n)), weights[i + (s < 0) * n])
                for i in range(n) for s in (1, -1)]
    count = math.comb(n, k) * 2**k  # hypercube-nonlocal
    return [(tuple(dict(zip(S, signs)).get(j, 0) for j in range(n)), 1.0 / count)
            for S in itertools.combinations(range(n), k)
            for signs in itertools.product((1, -1), repeat=k)]


@st.composite
def face_lists(draw):
    family = draw(st.sampled_from(["tsetlin", "top-bottom", "k-to-top", "riffle",
                                   "hypercube-nn", "hypercube-nonlocal"]))
    n = draw(st.integers(4 if family == "hypercube-nonlocal" else 2, 7))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2 * n, max_size=2 * n)))
    weights = raw[:n] / raw[:n].sum() if family in ("tsetlin", "top-bottom") else raw / raw.sum()
    if family == "riffle":
        k = draw(st.integers(2, 4 if n <= 5 else 3))
    else:
        k = draw(st.integers(*{"k-to-top": (1, n - 1), "hypercube-nonlocal": (2, n // 2)}
                             .get(family, (0, 0))))
    built = {
        "tsetlin": lambda: cw.tsetlin_faces(cw.TsetlinSpec(weights)),
        "top-bottom": lambda: cw.top_bottom_faces(n, weights),
        "k-to-top": lambda: cw.k_to_top_faces(n, k),
        "riffle": lambda: cw.riffle_faces(n, k),
        "hypercube-nn": lambda: cw.hypercube_nn_faces(weights[:n], weights[n:]),
        "hypercube-nonlocal": lambda: cw.hypercube_nonlocal_faces(n, k),
    }[family]()
    return built, looped_faces(family, n, k, weights)


@CASES
@given(face_lists())
def test_built_in_face_lists_equal_the_face_by_face_loop(case):
    # the same faces as tuples of Python ints, in the same order, with
    # bitwise-equal weights: Monte Carlo draws faces by their order
    w, pairs = case
    merged = {}
    for f, wt in pairs:
        merged[f] = merged.get(f, 0.0) + wt
    assert w.faces == tuple(merged) and all(type(x) is int for f in w.faces for x in f)
    assert w.weights.tobytes() == np.array(list(merged.values())).tobytes()
    assert w.signs.dtype == np.int8 and w.signs.tolist() == [list(f) for f in w.faces]


TINY = [5e-324, 2.0**-1074 * 3, np.nextafter(2.0**-1022, 0.0), 2.0**-1022]  # subnormals, least normal
EDGES = np.arange(core._GUIDE_CELLS + 1) / core._GUIDE_CELLS  # the cell edges of a guide table


@st.composite
def guide_cases(draw):
    """(points, keys): points sorted in [0, 1], with ties, points on cell edges,
    a cluster a few ulps wide and subnormals; keys drawn in [0, 1] besides
    those the test adds."""
    edge = st.integers(0, core._GUIDE_CELLS).map(lambda j: EDGES[j])
    point = st.one_of(st.floats(0.0, 1.0), edge, st.sampled_from(TINY + [0.0, 1.0]))
    base = draw(st.one_of(st.floats(0.0, 1.0), edge))
    cluster = [base + k * np.spacing(base) for k in draw(st.lists(st.integers(-3, 3)))]
    points = np.clip(draw(st.lists(point, max_size=60)) + cluster, 0.0, 1.0)
    return np.sort(points), draw(st.lists(st.floats(0.0, 1.0)))


@CASES
@given(guide_cases())
@example((np.array([0.0] * 5 + [0.5] * 3 + [1.0] * 4), []))  # runs of 0, an edge, 1
@example((np.array([]), [0.3]))
def test_guide_search_equals_searchsorted_and_keeps_the_keys(case):
    points, drawn = case
    keys = np.concatenate([EDGES, TINY, drawn, points,
                           np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    before, search = keys.copy(), core._guide(points)
    for side in ("left", "right"):
        assert np.array_equal(search(keys, side), np.searchsorted(points, keys, side)), side
    assert keys.tobytes() == before.tobytes()


@pytest.mark.parametrize("size", [10, 2**14, 2**16])
def test_guide_search_of_a_cdf_equals_searchsorted_on_every_cell_edge(size):
    # the table grows with the CDF; the edges of its largest size hold those of every smaller one
    rng = np.random.default_rng(size)
    weights = rng.random(size) * (rng.random(size) < 0.9)  # zero weights tie points
    cdf = np.cumsum(weights) / weights.sum()
    cdf[rng.integers(0, size, size // 8)] = 0.5  # points on an edge, kept sorted below
    cdf = np.sort(cdf)
    keys = np.concatenate([np.arange(core._GUIDE_CELL_CAP + 1) / core._GUIDE_CELL_CAP,
                           cdf, rng.random(1000)])
    search = core._guide(cdf)
    for side in ("left", "right"):
        assert np.array_equal(search(keys, side), np.searchsorted(cdf, keys, side)), side


@pytest.mark.parametrize("keys, cells", [(0, 2**14), (2**14, 2**16), (100_000, 2**18),
                                         (2**19 - 1, 2**20), (2**22, 2**20)])
def test_guide_table_grows_with_its_keys_and_searches_only_marked_cells(keys, cells, monkeypatch):
    # K is the power of 2 in (2 n, 4 n] in [_GUIDE_CELLS, _GUIDE_CELL_CAP], n the larger of
    # the points and the keys: on every edge of the largest table, which holds the edges of
    # each smaller one, only the keys in the K cells that hold a point fall back to a search
    rng = np.random.default_rng(keys)
    edges = np.arange(core._GUIDE_CELL_CAP + 1) / core._GUIDE_CELL_CAP
    points = np.sort(np.concatenate([rng.random(300), rng.choice(edges, 100), [0.0, 1.0, 1.0]]))
    probe = np.concatenate([edges, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    before, searched, searchsorted = probe.copy(), [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, side: searched.append(len(v))
                        or searchsorted(a, v, side))
    search = core._guide(points, keys)
    marked = np.isin((probe * cells).astype(np.intp), (points * cells).astype(np.intp)).sum()
    for side in ("left", "right"):
        searched.clear()
        assert np.array_equal(search(probe, side), searchsorted(points, probe, side)), side
        assert sum(searched) == marked, side
    assert probe.tobytes() == before.tobytes()


@pytest.mark.parametrize("count", [1, core._GUIDE_BLOCK - 1, core._GUIDE_BLOCK,
                                   core._GUIDE_BLOCK + 1, 100_001])
def test_guide_search_reads_every_block_of_keys_and_keeps_them(count):
    # keys on points, which fall back to the search, every 997 keys from the last one back
    rng = np.random.default_rng(count)
    points = np.sort(np.concatenate([rng.random(1000), [0.25] * 3, EDGES[::512]]))
    keys = rng.random(count)
    keys[::-997] = points[rng.integers(0, len(points), len(keys[::-997]))]
    before, search = keys.copy(), core._guide(points, count)
    for side in ("left", "right"):
        assert np.array_equal(search(keys, side), np.searchsorted(points, keys, side)), side
    assert keys.tobytes() == before.tobytes()


MC_TRIALS = 20_000
SEEDS = st.integers(0, 2**32 - 1)


# per count, both tails together: each property reads 25 times on each of its
# 40 examples (41 with an explicit one), so a correct sampler fails a run of one
# property with chance at most 1025 x 1e-6, about 1e-3, and of all three 3e-3
FALSE_ALARM = 1e-6


def assert_binomial_tails(samples, exact):
    """Each count of samples above t against its exact law, Binomial(trials,
    P(T > t)): a count out in either tail, of mass below FALSE_ALARM / 2, fails."""
    trials = len(samples)
    for t, p in exact.items():
        k = int((samples > t).sum())
        tail = min(binom.cdf(k, trials, p), binom.sf(k - 1, trials, p))
        assert tail >= FALSE_ALARM / 2, (t, k, trials * p, tail)


@CASES
@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=7), SEEDS)
@example([1.0] * 7, 1)  # equal weights take their own path
def test_card_collection_samples_match_the_exact_survival(raw, seed):
    spec = cw.TsetlinSpec(np.array(raw) / sum(raw))
    T = cw.sample_card_collection_T(spec, MC_TRIALS, seed)
    assert_binomial_tails(T, cw.tsetlin_survival_profile(spec, TIMES))


@CASES
@given(st.integers(4, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, m // 2))), SEEDS)
def test_kset_coupon_samples_match_the_exact_survival(mk, seed):
    m, k = mk
    T = cw.sample_kset_coupon_T(m, k, MC_TRIALS, seed)
    assert_binomial_tails(T, cw.survival_exact_profile(
        cw.build_boolean(m), cw.hypercube_nonlocal_faces(m, k), TIMES))


@CASES
@given(walks(), SEEDS)
def test_batch_samples_match_the_exact_survival(walk, seed):
    arr, w = walk
    T = cw.sample_T_batch(w, MC_TRIALS, seed)
    assert_binomial_tails(T, cw.survival_exact_profile(arr, w, TIMES))


def flat_eigenvalues(arr, w):
    """The eigenvalues of the walk by Bidigare-Hanlon-Rockmore, each as often
    as its multiplicity |mu(X, top)|: one per flat X, the weight of the
    faces in X.  boolean(n): X = {x_Z = 0} for each coordinate set Z,
    multiplicity 1.  braid(n): X = {x_i = x_j within each block of a set
    partition rho}, whose faces have blocks that are unions of rho's blocks,
    multiplicity prod_B (|B| - 1)!."""
    family, n = arr.family_tag.rstrip(")").split("(")
    n, faces = int(n), list(zip(w.faces, w.weights))
    if family == "boolean":
        return [sum(wt for f, wt in faces if all(f[i] == 0 for i in Z))
                for r in range(n + 1) for Z in itertools.combinations(range(n), r)]
    pair = {p: k for k, p in enumerate(itertools.combinations(range(n), 2))}
    rhos = {frozenset(map(frozenset, p)) for p in ordered_set_partitions(range(n))}
    return [value for rho in rhos
            for value in [sum(wt for f, wt in faces
                              if all(f[pair[p]] == 0 for B in rho
                                     for p in itertools.combinations(sorted(B), 2)))]
            * math.prod(math.factorial(len(B) - 1) for B in rho)]


@CASES
@given(walks())
def test_spectrum_equals_the_flat_weights(walk):
    arr, w = walk
    got = np.linalg.eigvals(cw.transition_matrix(arr, w))
    want = np.sort(flat_eigenvalues(arr, w))
    assert len(got) == arr.n_chambers == len(want)
    assert np.abs(np.sort(got.real) - want).max() <= 1e-12
    assert np.abs(got.imag).max() <= 1e-12
