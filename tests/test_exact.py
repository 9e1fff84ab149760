import gc
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk import exact
from chamberwalk.core import CapacityError, chamber_to_permutation, permutation_to_chamber
from chamberwalk.core import symmetry_generators
from chamberwalk.exact import survival_terms


def boolean2_uniform():
    arr = cw.build_boolean(2)
    w = cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])
    return arr, w


def tsetlin(weights):
    spec = cw.TsetlinSpec(weights)
    return cw.build_braid(spec.n), cw.tsetlin_faces(spec)


TWO_HEAVY_OF_SIX = [1 / 10, 1 / 10, 3 / 10, 3 / 10, 1 / 10, 1 / 10]


def test_transition_matrix_tsetlin2():
    arr, w = tsetlin([0.7, 0.3])
    P = cw.transition_matrix(arr, w)
    # one step moves card 0 or card 1 to the top: both rows identical
    assert np.allclose(P[0], P[1])
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert sorted(P[0]) == pytest.approx([0.3, 0.7])


def test_transition_matrix_boolean2_row():
    arr, w = boolean2_uniform()
    P = cw.transition_matrix(arr, w)
    i = {c: arr.chamber_index(c) for c in arr.chambers}
    row = P[i[(1, 1)]]
    assert row[i[(1, 1)]] == pytest.approx(0.5)
    assert row[i[(-1, 1)]] == pytest.approx(0.25)
    assert row[i[(1, -1)]] == pytest.approx(0.25)
    assert row[i[(-1, -1)]] == 0.0


def test_transition_matrix_capacity():
    arr, w = boolean2_uniform()
    with pytest.raises(CapacityError):
        cw.transition_matrix(arr, w, chamber_cap=3)


def test_stationary_uniform_for_certified_families():
    for arr, w in [
        boolean2_uniform(),
        tsetlin([1 / 3, 1 / 3, 1 / 3]),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
    ]:
        pi = cw.stationary_solve(arr, w)
        assert np.allclose(pi, 1.0 / arr.n_chambers, atol=1e-10)


def luce_probability(perm, weights):
    p, rest = 1.0, sum(weights)
    for card in perm:
        p *= weights[card] / rest
        rest -= weights[card]
    return p


def test_stationary_matches_luce_model():
    weights = [0.5, 0.3, 0.2]
    arr, w = tsetlin(weights)
    pi = cw.stationary_solve(arr, w)
    from chamberwalk.core import permutation_to_chamber

    for perm in itertools.permutations(range(3)):
        expected = luce_probability(perm, weights)
        got = pi[arr.chamber_index(permutation_to_chamber(perm))]
        assert got == pytest.approx(expected, abs=1e-10)
    # identity order 0,1,2: 0.5 * 0.3/(1-0.5) = 0.3
    got = pi[arr.chamber_index(permutation_to_chamber((0, 1, 2)))]
    assert got == pytest.approx(0.3, abs=1e-10)


def test_stationary_of_seven_distinct_cards_is_the_luce_law():
    # every card weighs differently: no symmetry, 5040 chambers, 8660 faces reached
    weights = np.random.default_rng(7).dirichlet(np.ones(7))
    arr, w = tsetlin(weights)
    start = time.perf_counter()
    pi = cw.stationary_solve(arr, w)
    assert time.perf_counter() - start < 1.0
    # build_braid lists its chambers in itertools.permutations order
    luce = [luce_probability(perm, weights) for perm in itertools.permutations(range(7))]
    assert np.abs(pi - luce).max() <= 1e-14


def test_stationary_tsetlin2_one_step():
    arr, w = tsetlin([0.6, 0.4])
    pi = cw.stationary_solve(arr, w)
    assert sorted(pi) == pytest.approx([0.4, 0.6], abs=1e-10)


def test_two_oracle_stationary_agreement():
    cases = [
        tsetlin([1 / 3, 1 / 3, 1 / 3]),
        tsetlin([0.5, 0.3, 0.2]),
        boolean2_uniform(),
        (cw.build_boolean(2), cw.hypercube_nn_faces([0.3, 0.2], [0.25, 0.25])),
        (cw.build_braid(2), cw.riffle_faces(2, 2)),
    ]
    for arr, w in cases:
        assert len(w.faces) <= 9
        pi_solve = cw.stationary_solve(arr, w)
        pi_swr = cw.stationary_without_replacement(arr, w)
        assert np.abs(pi_solve - pi_swr).max() < 1e-10


def test_swr_point_mass_for_chamber_face():
    arr = cw.build_boolean(1)
    w = cw.weighted_faces([(1,)], [1.0])
    pi = cw.stationary_without_replacement(arr, w)
    assert pi[arr.chamber_index((1,))] == 1.0


def test_swr_refuses_more_faces_than_its_cap():
    arr, w = cw.build_braid(4), cw.riffle_faces(4, 2)
    assert len(w.faces) > exact.ENUM_ORDERING_FACE_CAP
    with pytest.raises(CapacityError, match="enumeration cap"):
        cw.stationary_without_replacement(arr, w)
    arr, w = tsetlin([0.4, 0.3, 0.2, 0.1])
    with pytest.raises(CapacityError, match="enumeration cap 3"):
        cw.stationary_without_replacement(arr, w, max_enum_faces=3)
    pi = cw.stationary_without_replacement(arr, w, max_enum_faces=4)
    assert np.abs(pi - cw.stationary_solve(arr, w)).max() < 1e-12


def test_swr_tsetlin3_uniform():
    arr, w = tsetlin([1 / 3, 1 / 3, 1 / 3])
    pi = cw.stationary_without_replacement(arr, w)
    assert np.allclose(pi, 1 / 6, atol=1e-12)


def test_separation_t0_is_one():
    arr, w = boolean2_uniform()
    assert cw.separation_profile(arr, w, [0])[0] == pytest.approx(1.0)


def brute_force_two_step_law(arr, w, x0):
    """Oracle: enumerate all weighted face pairs for the two-step law."""
    law = {c: 0.0 for c in arr.chambers}
    for f1, w1 in zip(w.faces, w.weights):
        for f2, w2 in zip(w.faces, w.weights):
            c = cw.face_product(f2, cw.face_product(f1, x0))
            law[c] += w1 * w2
    return law


def test_separation_boolean2_spot_value():
    arr, w = boolean2_uniform()
    # oracle over the 16 equally likely face pairs
    law = brute_force_two_step_law(arr, w, (1, 1))
    assert law[(-1, -1)] == pytest.approx(1 / 8)
    assert cw.separation_profile(arr, w, [2])[2] == pytest.approx(0.5, abs=1e-12)


def test_separation_tsetlin3_spot_value():
    arr, w = tsetlin([1 / 3, 1 / 3, 1 / 3])
    assert cw.separation_profile(arr, w, [2])[2] == pytest.approx(1 / 3, abs=1e-9)


def test_separation_monotone_in_t():
    for arr, w in [boolean2_uniform(), tsetlin([0.5, 0.3, 0.2])]:
        prof = cw.separation_profile(arr, w, range(0, 25))
        vals = [prof[t] for t in range(0, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_total_variation_tsetlin2_one_step():
    arr, w = tsetlin([0.6, 0.4])
    assert cw.total_variation_profile(arr, w, [1])[1] == pytest.approx(0.0, abs=1e-12)


def test_total_variation_t0():
    arr, w = boolean2_uniform()
    assert cw.total_variation_profile(arr, w, [0])[0] == pytest.approx(1 - 1 / 4)


def profiles(arr, w, t_grid):
    """(path, starts, profile) as distance_profiles reports them through
    stats, which only receives them: the profile is the same without it."""
    stats = {}
    got = cw.distance_profiles(arr, w, t_grid, stats=stats)
    assert got == cw.distance_profiles(arr, w, t_grid)
    assert list(stats) == ["exact_path", "chambers", "starts"]
    assert stats["chambers"] == arr.n_chambers
    return stats["exact_path"], stats["starts"], got


def separate_loop_profiles(arr, w, t_grid):
    """Oracle: s(t) and TV(t) from a loop over every row of P^t, written
    out here from the dense transition matrix."""
    P = cw.transition_matrix(arr, w)
    pi = cw.stationary_solve(arr, w)
    Pt, current, out = np.eye(P.shape[0]), 0, {}
    for t in t_grid:
        for _ in range(t - current):
            Pt = Pt @ P
        current = t
        sep = float((1.0 - (Pt / pi[np.newaxis, :]).min(axis=1)).max())
        tv = float(0.5 * np.abs(Pt - pi[np.newaxis, :]).sum(axis=1).max())
        out[t] = (sep, tv)
    return out


def test_tv_below_separation():
    for arr, w in [
        boolean2_uniform(),
        tsetlin([0.5, 0.3, 0.2]),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        tsetlin([0.4, 0.3, 0.2, 0.1]),
        (
            cw.build_boolean(3),
            cw.hypercube_nn_faces([0.1, 0.2, 0.15], [0.2, 0.25, 0.1]),
        ),
    ]:
        sep = cw.separation_profile(arr, w, range(1, 15))
        tv = cw.total_variation_profile(arr, w, range(1, 15))
        for t in range(1, 15):
            assert tv[t] <= sep[t] + 1e-12
        both = cw.distance_profiles(arr, w, range(1, 15))
        assert both == {t: (sep[t], tv[t]) for t in range(1, 15)}
        every_row = separate_loop_profiles(arr, w, range(1, 15))
        for t in range(1, 15):
            assert np.abs(np.subtract(both[t], every_row[t])).max() <= 1e-12
    # the two symmetric inputs take the one-start path
    assert [profiles(*boolean2_uniform(), [0])[0],
            profiles(cw.build_braid(4), cw.riffle_faces(4, 2), [0])[0]] == ["one-start"] * 2


def test_survival_exact_boolean2():
    arr, w = boolean2_uniform()
    # q_{1} = q_{2} = 1/2, q_{12} = 0: P(T>t) = 2 (1/2)^t
    for t in range(1, 12):
        assert cw.survival_exact_profile(arr, w, [t])[t] == pytest.approx(
            min(1.0, 2 * 0.5**t), abs=1e-12
        )
    assert cw.survival_exact_profile(arr, w, [0])[0] == 1.0


def test_survival_exact_tsetlin3():
    arr, w = tsetlin([1 / 3, 1 / 3, 1 / 3])
    assert cw.survival_exact_profile(arr, w, [2])[2] == pytest.approx(1 / 3, abs=1e-12)


def test_survival_terms_leave_no_garbage():
    arr, w = cw.build_braid(5), cw.riffle_faces(5, 2)
    gc.collect()
    gc.disable()
    try:
        terms = survival_terms(arr, w)
        assert len(terms) == 51  # the non-bottom flats: partitions of 5 cards
        del terms
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_survival_exact_capacity():
    arr, w = boolean2_uniform()
    with pytest.raises(CapacityError):
        cw.survival_exact_profile(arr, w, [3], hyperplane_cap=1)


def test_survival_mc_agreement():
    for arr, w in [boolean2_uniform(), tsetlin([0.5, 0.3, 0.2])]:
        grid = [1, 2, 3, 5, 8]
        est = cw.survival_from_samples(cw.sample_T_batch(w, 50_000, seed=17), grid)
        exact = cw.survival_exact_profile(arr, w, grid)
        for t, p, se in zip(est.t_values, est.p_hat, est.std_err):
            assert abs(p - exact[int(t)]) <= 4 * max(se, 1e-4)


def test_coupling_parameters_riffle():
    cp = cw.coupling_parameters(cw.riffle_faces(4, 2))
    assert cp.uniform_b == 0.5
    assert cp.uniform_d == 0.25


def test_coupling_parameters_bounds_invariant():
    cp = cw.coupling_parameters(cw.k_to_top_faces(4, 2))
    m = len(cp.b_per_hyperplane)
    for i in range(m):
        assert 0 <= cp.b_per_hyperplane[i] <= 1
        for j in range(m):
            if i != j:
                assert cp.d_per_pair[i, j] <= cp.b_per_hyperplane[i] + 1e-12


def test_coupling_parameters_hypercube_nonlocal():
    # enumeration agrees with the closed form b=k/n, d=k(k-1)/(n(n-1))
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        cp = cw.coupling_parameters(cw.hypercube_nonlocal_faces(n, k))
        b, d = cw.kset_coupling_closed_form(n, k)
        assert cp.uniform_b == pytest.approx(b, abs=1e-12)
        assert cp.uniform_d == pytest.approx(d, abs=1e-12)
        assert d == pytest.approx(k * (k - 1) / (n * (n - 1)), abs=1e-15)


def test_coupling_parameters_pair_cap():
    # the m x m pair matrix is refused past 2^20 entries, before it is built
    def faces(m):
        return cw.hypercube_nn_faces(np.full(m, 0.5 / m), np.full(m, 0.5 / m))

    assert cw.coupling_parameters(faces(1024)).uniform_b == pytest.approx(1 / 1024)
    with pytest.raises(CapacityError):
        cw.coupling_parameters(faces(1025))


def test_k_to_top_braid_enumeration_value():
    # On the braid arrangement the face-weight sums differ from the k/n
    # closed form: a pair hyperplane is cut iff exactly one of its cards is
    # in the chosen k-set, so b = 2k(n-k)/(n(n-1)).
    n, k = 4, 2
    cp = cw.coupling_parameters(cw.k_to_top_faces(n, k))
    assert cp.uniform_b == pytest.approx(2 * k * (n - k) / (n * (n - 1)), abs=1e-12)
    assert cp.uniform_d is None  # d depends on whether the pairs share a card


def test_cutoff_prediction_values():
    pred = cw.cutoff_prediction(0.5, 0.25, 15)
    assert pred.time == pytest.approx(math.log(15) / math.log(2))
    assert pred.time == pytest.approx(3.9069, abs=1e-4)
    assert pred.window == 2.0
    assert pred.assumptions_ok

    assert not cw.cutoff_prediction(0.5, 0.3, 15).assumptions_ok  # d > b^2
    pred2 = cw.cutoff_prediction(0.5, 0.25, 2)
    assert pred2.time == pytest.approx(1.0)
    assert pred2.window == 2.0
    with pytest.raises(ValueError):
        cw.cutoff_prediction(1.0, 0.25, 4)


@pytest.mark.parametrize("m", [0, -3])
def test_cutoff_prediction_refuses_fewer_than_one_hyperplane(m):
    # riffle(1) has m = 0, whose log once raised "math domain error"
    with pytest.raises(ValueError, match=f"need 0 < b < 1 and m >= 1 hyperplanes, .*m={m}$"):
        cw.cutoff_prediction(0.5, 0.25, m)


def test_survival_below_separation_many_families():
    # inequality P(T>t) <= s(t) for arbitrary (also asymmetric) weights
    rng = np.random.default_rng(0)
    families = [
        boolean2_uniform(),
        tsetlin([0.5, 0.3, 0.2]),
        tsetlin([0.4, 0.3, 0.2, 0.1]),
        (cw.build_boolean(3), cw.hypercube_nn_faces([0.3, 0.1, 0.05], [0.2, 0.15, 0.2])),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        (cw.build_braid(3), cw.top_bottom_faces(3, [0.5, 0.25, 0.25])),
    ]
    for arr, w in families:
        grid = range(1, 31)
        sep = cw.separation_profile(arr, w, grid)
        surv = cw.survival_exact_profile(arr, w, grid)
        for t in grid:
            assert surv[t] <= sep[t] + 1e-9


def test_equality_for_invariant_weights():
    families = [
        tsetlin([1 / 3, 1 / 3, 1 / 3]),
        tsetlin([0.25] * 4),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        (cw.build_boolean(3), cw.hypercube_nn_faces([1 / 6] * 3, [1 / 6] * 3)),
        (
            cw.build_boolean(3),
            cw.hypercube_nn_faces([0.25, 0.15, 0.1], [0.25, 0.15, 0.1]),
        ),
    ]
    for arr, w in families:
        grid = range(1, 31)
        sep = cw.separation_profile(arr, w, grid)
        surv = cw.survival_exact_profile(arr, w, grid)
        for t in grid:
            assert abs(surv[t] - sep[t]) <= 1e-9


def loop_transition_matrix(arr, w):
    """Oracle: P summed face by face, chamber by chamber, in Python."""
    P = np.zeros((arr.n_chambers, arr.n_chambers))
    for f, wt in zip(w.faces, w.weights):
        for ci, c in enumerate(arr.chambers):
            P[ci, arr.chamber_index(cw.face_product(f, c))] += wt
    return P


def test_transition_matrix_matches_loop_bitwise():
    universe = list(itertools.product((1, -1, 0), repeat=3))
    custom = cw.build_custom(3, cw.build_boolean(3).chambers, universe)
    rng = np.random.default_rng(5)
    for arr, w in [
        tsetlin([0.45, 0.3, 0.15, 0.1]),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        (custom, cw.WeightedFaceSet(tuple(universe), rng.dirichlet(np.ones(27)))),
        (cw.build_custom(0, [()], [()]), cw.weighted_faces([()], [1.0])),  # no hyperplanes
    ]:
        assert np.array_equal(cw.transition_matrix(arr, w), loop_transition_matrix(arr, w))


def untouched_at_least(r, n, q, t):
    """P(at least r of n symmetric items untouched after t steps), where a
    given set of j items stays untouched in one step with probability q(j)."""
    total = sum((-1) ** (j - r) * math.comb(j - 1, r - 1) * math.comb(n, j) * q(j) ** t
                for j in range(r, n + 1))
    return float(total)


def riffle_separation(n, t):
    """s(t) of the inverse 2-shuffle: 1 - prod_{i<n} (1 - i / 2^t)."""
    return float(1 - math.prod(1 - Fraction(i, 2**t) for i in range(1, n)))


def test_one_start_matches_closed_forms():
    grid = range(0, 41)
    cases = [(cw.build_braid(n), cw.riffle_faces(n, 2), lambda t, n=n: riffle_separation(n, t))
             for n in (4, 5, 6)]
    cases += [
        (cw.build_braid(5), cw.top_bottom_faces(5),
         lambda t: untouched_at_least(2, 5, lambda j: 1 - Fraction(j, 5), t)),
        (cw.build_braid(5), cw.k_to_top_faces(5, 2), None),
        (cw.build_boolean(5), cw.hypercube_nn_faces([0.1] * 5, [0.1] * 5),
         lambda t: untouched_at_least(1, 5, lambda j: 1 - Fraction(j, 5), t)),
        (cw.build_boolean(6), cw.hypercube_nonlocal_faces(6, 2),
         lambda t: untouched_at_least(
             1, 6, lambda j: Fraction(math.comb(6 - j, 2), math.comb(6, 2)), t)),
    ]
    for arr, w, closed in cases:
        path, starts, got = profiles(arr, w, grid)
        assert (path, starts) == ("one-start", 1)
        dense = separate_loop_profiles(arr, w, grid)
        for t in grid:
            want = dense[t][0] if closed is None else closed(t)
            assert abs(got[t][0] - want) <= 1e-13, (arr.family_tag, t)
            assert abs(got[t][1] - dense[t][1]) <= 1e-13, (arr.family_tag, t)
        assert got[0] == (1.0, pytest.approx(1.0 - 1.0 / arr.n_chambers, abs=1e-15))


def test_one_start_riffle7_without_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    sep = cw.separation_profile(cw.build_braid(7), cw.riffle_faces(7, 2), range(1, 21))
    assert calls == []
    for t in range(1, 21):
        assert abs(sep[t] - riffle_separation(7, t)) <= 1e-13


def braid4_with_extra_orbit():
    """braid(4)'s chambers plus the orbit of a cyclic sign vector (0 before
    1 before 2 before 0), which no ordering of the cards gives."""
    braid4 = cw.build_braid(4)
    gens = symmetry_generators(braid4)
    orbit, frontier = set(), [(1, -1, 1, 1, 1, 1)]
    while frontier:
        x = frontier.pop()
        if x not in orbit:
            orbit.add(x)
            frontier += [tuple(int(v) for v in sign * np.array(x)[src]) for src, sign in gens]
    return cw.Arrangement(m=6, signs=braid4.chambers + tuple(sorted(orbit)),
                          faces=None, family_tag="braid(4)")


def orbit_starts(arr, w):
    """One start per orbit of the symmetries that pass the engine's check."""
    return exact._orbits(exact._symmetries(arr, w), arr.n_chambers)


def test_certificate_rejects_asymmetric_inputs():
    riffle4 = cw.riffle_faces(4, 2)
    moved = riffle4.weights.copy()
    i, j = [k for k, f in enumerate(riffle4.faces) if any(f)][:2]
    moved[i] = np.nextafter(moved[i], 1.0)  # one ulp up, and one down elsewhere
    moved[j] = np.nextafter(moved[j], 0.0)
    universe = list(itertools.product((1, -1, 0), repeat=2))
    missing = cw.Arrangement(m=6, signs=cw.build_braid(4).signs[1:], faces=None,
                             family_tag="braid(4)")
    for arr, w in [
        tsetlin([0.3, 0.3, 0.2, 0.2]),
        (cw.build_boolean(3), cw.hypercube_nn_faces([0.2] * 3, [0.4 / 3] * 3)),
        (cw.build_braid(4), cw.WeightedFaceSet(riffle4.faces, moved)),
        (cw.build_custom(2, cw.build_boolean(2).chambers, universe),
         cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])),
        (missing, riffle4),
        (braid4_with_extra_orbit(), riffle4),
    ]:
        assert len(orbit_starts(arr, w)) > 1  # not one start
    with pytest.raises(ValueError, match="not a chamber"):
        cw.transition_matrix(missing, riffle4)
    with pytest.raises(ValueError, match="not a chamber"):
        cw.distance_profiles(missing, riffle4, [1])
    with pytest.raises(ValueError, match="not a chamber"):  # no write into a last chamber
        cw.stationary_solve(missing, riffle4)


def test_orbits_keep_the_symmetries_that_pass():
    # cards 0, 1 and cards 2, 3 share weights: of the six card transpositions
    # only (0 1) and (2 3) pass, and their group has 4! / (2! 2!) orbits
    arr, w = tsetlin([0.3, 0.3, 0.2, 0.2])

    def swap_cards(a, b):
        swap = {a: b, b: a}
        return [arr.chamber_index(permutation_to_chamber([swap.get(c, c) for c in
                                                           chamber_to_permutation(x, 4)]))
                for x in arr.chambers]

    maps = exact._symmetries(arr, w)
    assert len(symmetry_generators(arr)) == 6
    assert [g.tolist() for g in maps] == [swap_cards(0, 1), swap_cards(2, 3)]
    assert len(orbit_starts(arr, w)) == 6
    # two heavy cards among six: 6! / (2! 4!) orbits, each walked from its least chamber
    arr, w = tsetlin(TWO_HEAVY_OF_SIX)
    path, starts, got = profiles(arr, w, range(0, 8))
    assert (path, starts) == ("orbits", 15)
    every_row = separate_loop_profiles(arr, w, range(0, 8))
    for t in range(8):
        assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13


def test_profiles_are_the_maxima_over_single_row_pushes():
    # each start's law walked on its own, one _push a step, and read out here
    # as 1 - min nu (1 / pi) and half the l1 distance to pi
    for arr, w in [tsetlin([0.5, 0.3, 0.2]),
                   (cw.build_boolean(3),
                    cw.hypercube_nn_faces([0.1, 0.2, 0.15], [0.2, 0.25, 0.1])),
                   tsetlin(TWO_HEAVY_OF_SIX)]:
        succ, prob = exact._product_table(arr, w), w.weights[:, np.newaxis]
        pi = cw.stationary_solve(arr, w)
        on, grid = pi > 0, range(0, 25)
        s, tv = {t: [] for t in grid}, {t: [] for t in grid}
        for x in orbit_starts(arr, w):
            nu = (np.arange(arr.n_chambers) == x).astype(float)
            for t in grid:
                s[t].append(1.0 - (nu[on] * (1.0 / pi[on])).min())
                tv[t].append(0.5 * np.abs(nu - pi).sum())
                nu = exact._push(succ, prob, nu)
        path, starts, got = profiles(arr, w, grid)
        assert path != "one-start" and starts == len(s[0])
        assert got == {t: (max(s[t]), max(tv[t])) for t in grid}


def test_profiles_build_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense P built")

    monkeypatch.setattr(exact, "transition_matrix", refuse)
    for (arr, w), path in [((cw.build_braid(4), cw.riffle_faces(4, 2)), "one-start"),
                           (tsetlin(TWO_HEAVY_OF_SIX), "orbits"),
                           (tsetlin([0.5, 0.3, 0.2]), "dense")]:
        got = profiles(arr, w, range(0, 11))
        assert got[0] == path and sorted(got[2]) == list(range(0, 11))


def test_certificate_sums_a_face_listed_twice():
    arr, grid = cw.build_boolean(1), range(0, 4)
    lopsided = cw.WeightedFaceSet(((1,), (1,), (-1,)), [1 / 3] * 3)  # w(+) = 2/3, w(-) = 1/3
    path, starts, got = profiles(arr, lopsided, grid)
    assert (path, starts) == ("dense", 2)
    every_row = separate_loop_profiles(arr, lopsided, grid)
    for t in grid:
        assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-15
    assert got[1] == pytest.approx((0.0, 0.0), abs=1e-12)  # one step reaches pi = (2/3, 1/3)
    even = cw.WeightedFaceSet(((1,), (1,), (-1,)), [0.25, 0.25, 0.5])  # w(+) = w(-) = 1/2
    path, starts, got = profiles(arr, even, grid)
    assert (path, starts) == ("one-start", 1)
    assert got == {0: (1.0, 0.5), 1: (0.0, 0.0), 2: (0.0, 0.0), 3: (0.0, 0.0)}


def test_negative_times_raise():
    for arr, w in [boolean2_uniform(), tsetlin([0.5, 0.3, 0.2])]:
        with pytest.raises(ValueError, match="negative time"):
            cw.distance_profiles(arr, w, [-2, -1, 0, 1])
        assert cw.separation_profile(arr, w, [0])[0] == 1.0


def test_survival_formulas_reject_negative_times():
    arr, w = cw.build_braid(3), cw.riffle_faces(3, 2)
    for survival in (lambda: cw.survival_exact_profile(arr, w, [-2, 0, 1]),
                     lambda: cw.tsetlin_survival_profile(cw.TsetlinSpec([0.5, 0.3, 0.2]), [-2, 0]),
                     lambda: cw.coupon_survival_uniform(3, -2),
                     lambda: cw.survival_from_samples(cw.sample_T_batch(w, 100, 0), [-3, 1])):
        with pytest.raises(ValueError, match="negative time"):
            survival()


def test_fractional_times_raise():
    arr, w = cw.build_braid(3), cw.riffle_faces(3, 2)
    for call in (lambda: cw.separation_profile(arr, w, [1.7, 2.2]),
                 lambda: cw.survival_exact_profile(arr, w, [1, 2.5]),
                 lambda: cw.glauber_separation_profile(cw.ising_system(2, 1, 0.3), [0.5]),
                 lambda: cw.coupon_survival_uniform(3, 4.9),
                 lambda: cw.survival_from_samples(cw.sample_T_batch(w, 100, 0), [1.5, 2.7])):
        with pytest.raises(ValueError, match="fractional time"):
            call()
    # a whole float is a time
    assert cw.separation_profile(arr, w, [2.0]) == cw.separation_profile(arr, w, [2])
    assert cw.coupon_survival_uniform(3, 4.0) == cw.coupon_survival_uniform(3, 4)


def test_no_hyperplanes_means_T_is_zero():
    arr = cw.build_custom(0, [()], [()])
    w = cw.weighted_faces([()], [1.0])
    assert cw.sample_T_batch(w, 1, seed=3)[0] == 0
    assert cw.sample_T_batch(w, 5, seed=3).tolist() == [0] * 5
    assert cw.survival_exact_profile(arr, w, [0])[0] == 0.0
    assert cw.survival_exact_profile(arr, w, [0, 1, 4]) == {0: 0.0, 1: 0.0, 4: 0.0}
    assert survival_terms(arr, w) == []
    assert cw.stationary_solve(arr, w).tolist() == [1.0]


def test_survival_terms_count_flats_with_integer_coefficients():
    # riffle lists the all-zero face, so its top flat has q > 0 and stays, and
    # the coefficients sum to 1 (the form at t = 0); top-bottom drops its top
    for arr, w, flats, total in [(cw.build_braid(6), cw.riffle_faces(6, 2), 202, 1),
                                 (cw.build_braid(6), cw.top_bottom_faces(6), 56, -4)]:
        terms = survival_terms(arr, w)
        assert len(terms) == flats
        assert all(type(c) is int and c != 0 and 0 < q < 1 for c, q in terms)
        assert sum(c for c, _ in terms) == total


def test_power_sums_snap_rounding_and_take_the_rest_exactly():
    def unread():
        raise AssertionError("exact rates read")

    assert exact._power_sums([1, 1], [1.0, 2.0**-52], unread, [0, 1], 1) == {0: 1.0, 1: 1.0}
    # 2^60 (3/4)^t cancels in floats with a bound far above 1e-9; in integers
    # the two terms of rate 3/4 fold into one of coefficient 0
    big = 2**60
    assert exact._power_sums([1, big, -big], [0.5, 0.75, 0.75], lambda: ([2, 3, 3], 4),
                             [1, 7], 1) == {1: 0.5, 7: 0.5**7}
    # every caller's coefficients lie in the int64 range; others are refused
    huge = 10**400
    with pytest.raises(OverflowError):
        exact._power_sums([huge, 1 - huge], [0.5, 0.5], unread, [1], 1)


def test_survival_is_one_before_m_over_the_largest_face_support(monkeypatch):
    # t faces of at most s nonzero signs cut at most t s of the m hyperplanes
    first, fallback = [], []
    power_sums = exact._power_sums

    def recorded(c, q, exact_q, t_grid, t_first):
        first.append(t_first)
        return power_sums(c, q, lambda: fallback.append(t_first) or exact_q(), t_grid, t_first)

    monkeypatch.setattr(exact, "_power_sums", recorded)
    # the non-local hypercube's faces cut two of 16 coordinates: T >= 8, and
    # from t = 8 on every float sum passes its bound
    got = cw.survival_exact_profile(cw.build_boolean(16), cw.hypercube_nonlocal_faces(16, 2),
                                    range(1, 301))
    assert first == [8] and fallback == []
    assert [got[t] for t in range(1, 8)] == [1.0] * 7 and got[8] < 1.0
    # riffle(6, 2)'s largest face splits the deck 3|3 and cuts 9 of the 15 pairs
    got = cw.survival_exact_profile(cw.build_braid(6), cw.riffle_faces(6, 2), range(1, 41))
    assert first[1:] == [2]
    assert got == {t: pytest.approx(riffle_separation(6, t), abs=1e-15) for t in range(1, 41)}
    assert got[1] == got[2] == 1.0


def test_separation_reads_only_the_chambers_pi_charges():
    # the products of these two faces reach two of braid(3)'s six chambers
    arr = cw.build_braid(3)
    w = cw.WeightedFaceSet(((0, 1, 1), (-1, -1, -1)), [0.5, 0.5])
    assert cw.stationary_solve(arr, w) == pytest.approx([0, 0, 0.5, 0, 0, 0.5], abs=1e-15)
    assert cw.separation_profile(arr, w, [1, 2, 3]) == pytest.approx(
        {1: 1.0, 2: 0.5, 3: 0.25}, abs=1e-12)
