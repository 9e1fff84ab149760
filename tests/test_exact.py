import gc
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk import exact
from chamberwalk.core import CapacityError
from chamberwalk.exact import survival_terms

import reference
from reference import chamber_to_permutation, face_product, permutation_to_chamber
from reference import merge_reference, mobius_reference, superset_reshape


def boolean2_uniform():
    arr = cw.build_boolean(2)
    w = cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])
    return arr, w


def tsetlin(weights):
    spec = cw.TsetlinSpec(weights)
    return cw.build_braid(spec.n), cw.tsetlin_faces(spec)


def swr(arr, w):
    return reference.stationary_without_replacement(arr.chambers, w.faces, w.weights)


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


def test_transition_matrix_capacity(monkeypatch):
    arr, w = boolean2_uniform()
    monkeypatch.setattr(exact, "DEFAULT_CHAMBER_CAP", 3)
    with pytest.raises(CapacityError):
        cw.transition_matrix(arr, w)


def test_product_table_capacity_refuses_before_any_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block of the product table built")

    monkeypatch.setattr(exact, "_symmetries", lambda arr, w: [])  # it packs chambers as well
    monkeypatch.setattr(exact, "_bits", refuse)  # the table's first step packs the chambers
    arr, w = cw.build_boolean(12), cw.hypercube_nonlocal_faces(12, 6)
    assert (len(w.weights), arr.n_chambers) == (59136, 4096)  # 242M cells
    for build in (lambda: cw.distance_profiles(arr, w, [1]), lambda: cw.transition_matrix(arr, w)):
        with pytest.raises(CapacityError, match="product table of 242221056 cells"):
            build()
    monkeypatch.undo()
    arr, w = boolean2_uniform()  # a cap of exactly the table's cells, then one cell less
    monkeypatch.setattr(exact, "DEFAULT_TABLE_CELL_CAP", len(w.weights) * arr.n_chambers)
    assert cw.transition_matrix(arr, w).shape == (4, 4)
    monkeypatch.setattr(exact, "DEFAULT_TABLE_CELL_CAP", len(w.weights) * arr.n_chambers - 1)
    for build in (lambda: cw.transition_matrix(arr, w), lambda: cw.separation_profile(arr, w, [1])):
        with pytest.raises(CapacityError, match="product table"):
            build()


def test_walk_cell_cap_refuses_before_the_first_step(monkeypatch):
    # steps to the last time x rows x table entries, for each engine that pushes start rows
    def stepped(*args, **kwargs):
        raise AssertionError("a step taken")

    sys_ = cw.ising_system(2, 2, 0.3)
    stats = {}
    cw.glauber_separation_profile(sys_, [0], stats)
    arr, w = tsetlin([1 / 4, 1 / 4, 1 / 2])  # 3 starts, 3 faces x 6 chambers
    walks = [(lambda g: cw.distance_profiles(arr, w, g), 3 * 3 * 6),
             (lambda g: cw.glauber_separation_profile(sys_, g), stats["starts"] * 2 * 4**3),
             (lambda g: cw.hamming_profiles(6, 2, g), 5 * 7)]  # the band: 2k + 1 by m + 1
    for walk, cells in walks:
        monkeypatch.setattr(exact, "DEFAULT_WALK_CELL_CAP", 4 * cells)
        assert list(walk([0, 4])) == [0, 4]
        monkeypatch.setattr(exact, "DEFAULT_WALK_CELL_CAP", 4 * cells - 1)
        for module, name in ((exact, "_push"), (cw.gallery, "_push"), (np, "matmul")):
            monkeypatch.setattr(module, name, stepped)  # the steps of the three walks
        with pytest.raises(CapacityError, match=f"walk of {4 * cells} cells exceeds cap"):
            walk([0, 4])
        monkeypatch.undo()


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
        pi_swr = swr(arr, w)
        assert np.abs(pi_solve - pi_swr).max() < 1e-10


def test_swr_point_mass_for_chamber_face():
    arr = cw.build_boolean(1)
    w = cw.weighted_faces([(1,)], [1.0])
    pi = swr(arr, w)
    assert pi[arr.chamber_index((1,))] == 1.0


def test_swr_refuses_more_faces_than_its_cap(monkeypatch):
    arr, w = cw.build_braid(4), cw.riffle_faces(4, 2)
    assert len(w.faces) > reference.ENUM_ORDERING_FACE_CAP
    with pytest.raises(RuntimeError, match="enumeration cap"):
        swr(arr, w)
    arr, w = tsetlin([0.4, 0.3, 0.2, 0.1])
    monkeypatch.setattr(reference, "ENUM_ORDERING_FACE_CAP", 3)
    with pytest.raises(RuntimeError, match="enumeration cap 3"):
        swr(arr, w)
    monkeypatch.setattr(reference, "ENUM_ORDERING_FACE_CAP", 4)
    pi = swr(arr, w)
    assert np.abs(pi - cw.stationary_solve(arr, w)).max() < 1e-12


def test_swr_tsetlin3_uniform():
    arr, w = tsetlin([1 / 3, 1 / 3, 1 / 3])
    pi = swr(arr, w)
    assert np.allclose(pi, 1 / 6, atol=1e-12)


def test_separation_t0_is_one():
    arr, w = boolean2_uniform()
    assert cw.separation_profile(arr, w, [0])[0] == pytest.approx(1.0)


def brute_force_two_step_law(arr, w, x0):
    """Oracle: enumerate all weighted face pairs for the two-step law."""
    law = {c: 0.0 for c in arr.chambers}
    for f1, w1 in zip(w.faces, w.weights):
        for f2, w2 in zip(w.faces, w.weights):
            c = face_product(f2, face_product(f1, x0))
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


def test_survival_exact_capacity(monkeypatch):
    # the cap sizes the Mobius form's 2^m sets: it refuses faces whose supports
    # weigh unequally, while equal ones take the count chain, which builds none
    monkeypatch.setattr(exact, "DEFAULT_IE_HYPERPLANE_CAP", 1)
    arr, w = cw.build_boolean(2), cw.hypercube_nn_faces([0.25, 0.25], [0.3, 0.2])
    with pytest.raises(CapacityError):
        cw.survival_exact_profile(arr, w, [3])
    arr, w = boolean2_uniform()
    assert cw.survival_exact_profile(arr, w, [3]) == {3: 0.25}


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


@pytest.mark.parametrize("n, a", [(7, 3), (5, 5)])
def test_cutoff_assumptions_on_riffle_faces_agree_with_the_closed_form(n, a):
    # d = b^2 on riffle faces; the face-weight sums leave d - b^2 = 1.29e-14 at
    # (7, 3) and 1.55e-15 at (5, 5) (numpy 2, x86-64), inside coupling_parameters' 1e-12
    cp = cw.coupling_parameters(cw.riffle_faces(n, a))
    assert abs(cp.uniform_d - cp.uniform_b**2) <= 1e-12
    m = n * (n - 1) // 2
    got = cw.cutoff_prediction(cp.uniform_b, cp.uniform_d, m).assumptions_ok
    assert got and cw.cutoff_prediction(*cw.riffle_coupling_closed_form(a), m).assumptions_ok


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
            P[ci, arr.chamber_index(face_product(f, c))] += wt
    return P


def test_transition_matrix_matches_loop_bitwise(monkeypatch):
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
    arr, w = tsetlin([0.45, 0.3, 0.15, 0.1])  # 24 rows in blocks of 5 and a last of 4
    monkeypatch.setattr(exact, "_READ_CELLS", 5 * 4 * 24)
    assert exact._offsets(exact._product_table(arr, w), 24).shape == (4, 5, 24)
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
    gens = braid4.symmetries
    orbit, frontier = set(), [(1, -1, 1, 1, 1, 1)]
    while frontier:
        x = frontier.pop()
        if x not in orbit:
            orbit.add(x)
            frontier += [tuple(int(v) for v in sign * np.array(x)[src]) for src, sign in gens]
    return cw.Arrangement(m=6, signs=braid4.chambers + tuple(sorted(orbit)),
                          faces=None, family_tag="braid(4)", symmetries=gens)


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
                             family_tag="braid(4)", symmetries=cw.build_braid(4).symmetries)
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


def loop_symmetries(arr, w):
    """The candidates checked one at a time on tuples: each chamber's image looked
    up among the chamber tuples, and each face's among the faces, merged by weight
    in list order, with exactly its weight."""
    chambers = {c: i for i, c in reversed(list(enumerate(map(tuple, arr.signs.tolist()))))}
    weight = {}
    for f, x in zip(map(tuple, w.signs.tolist()), w.weights.tolist()):
        weight[f] = weight.get(f, 0.0) + x
    maps = []
    for src, sign in arr.symmetries:
        def image(x, src=src, sign=sign):
            return tuple(int(e) * x[int(j)] for j, e in zip(src, sign))
        g = [chambers.get(image(c)) for c in map(tuple, arr.signs.tolist())]
        if None not in g and all(weight.get(image(f)) == x for f, x in weight.items()):
            maps.append(g)
    return maps


def test_stacked_symmetry_check_equals_the_candidate_loop():
    # braid(4..6) at equal, two-class and all-distinct card weights, and the
    # coordinate flips of boolean(3..5) at unequal w_plus / w_minus
    braids = [tsetlin(np.full(n, 1 / n)) for n in (4, 5, 6)]
    braids += [tsetlin([0.3, 0.3, 0.2, 0.2]), tsetlin(TWO_HEAVY_OF_SIX),
               tsetlin([0.1, 0.15, 0.2, 0.25, 0.3]), tsetlin([0.05, 0.1, 0.15, 0.2, 0.22, 0.28]),
               (cw.build_braid(5), cw.riffle_faces(5, 2)),
               (cw.build_braid(5), cw.k_to_top_faces(5, 2))]
    flips = [(cw.build_boolean(len(p)), cw.hypercube_nn_faces(p, m)) for p, m in [
        ([0.1, 0.2, 0.15], [0.2, 0.25, 0.1]),
        ([0.1, 0.05, 0.05, 0.1], [0.2, 0.1, 0.3, 0.1]),
        ([0.1, 0.1, 0.05, 0.1, 0.1], [0.1, 0.1, 0.15, 0.15, 0.05])]]
    passed = []
    for arr, w in braids + flips:
        want = loop_symmetries(arr, w)
        assert [g.tolist() for g in exact._symmetries(arr, w)] == want
        passed.append(len(want))
    assert len(cw.build_braid(6).symmetries) == 15 and passed[:3] == [6, 10, 15]  # all pass
    assert passed[3:7] == [2, 7, 0, 0]  # a transposition of unequal cards fails on its weights
    assert passed[-3:] == [0, 1, 2]  # the flips of w_plus(i) == w_minus(i) alone
    custom = cw.build_custom(2, cw.build_boolean(2).chambers,
                             list(itertools.product((1, -1, 0), repeat=2)))
    assert custom.symmetries == () and exact._symmetries(custom, boolean2_uniform()[1]) == []


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
    assert len(arr.symmetries) == 6
    assert [g.tolist() for g in maps] == [swap_cards(0, 1), swap_cards(2, 3)]
    assert len(orbit_starts(arr, w)) == 6
    # two heavy cards among six: 6! / (2! 4!) orbits, each walked from its least chamber
    arr, w = tsetlin(TWO_HEAVY_OF_SIX)
    path, starts, got = profiles(arr, w, range(0, 8))
    assert (path, starts) == ("orbits", 15)
    every_row = separate_loop_profiles(arr, w, range(0, 8))
    for t in range(8):
        assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13


def test_profiles_are_the_maxima_over_single_row_pushes(monkeypatch):
    # each start's law walked on its own, one row's bincount a step (the batched
    # _push must match it bit for bit), and read out here as 1 - min nu (1 / pi)
    # and half the l1 distance to pi; the 15 rows of two heavy cards go in blocks
    # of 4, 4, 4 and 3 (4 x 6 x 720 entries)
    monkeypatch.setattr(exact, "_READ_CELLS", 4 * 6 * 720)
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
                nu = np.bincount(succ.ravel(), (prob * nu).ravel(), nu.size)
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
    def unread(x):
        raise AssertionError("exact rates read")

    one = np.ones(2)
    assert exact._power_sums(np.array([2.0**-52, 1.0]), one, one, unread, [1.0], [0, 1], 1) == {
        0: 1.0, 1: 1.0}
    # the merged terms 2^60 (3/4)^t and -2^60 (3/4)^t cancel to a sum of 0 with
    # a bound far above 1e-9; the fallback's pairs hold them as one of
    # coefficient 0.  The weights 1/2, 1/4, 1/4 are the integers 2, 1, 1 over
    # 4, and the map gives each exact rate from them: 2 and 2 + 1
    read, big = [], 2**60

    def pairs(x):
        read.append(x.tolist())
        return [(int(x[0]), 1), (int(x[0] + x[1]), big - big)]

    assert exact._power_sums(np.array([0.5, 0.75]), np.array([1.0, 0.0]),
                             np.array([1.0, 2.0 * big]), pairs, [0.5, 0.25, 0.25],
                             [1, 7], 1) == {1: 0.5, 7: 0.5**7}
    assert read == [[2, 1, 1]]
    # every caller's coefficient sums are floats below 2^53; a Python int past
    # the float range is refused
    huge = 10**400
    with pytest.raises(OverflowError):
        exact._power_sums(np.array([0.5]), [1], [2 * huge], unread, [1.0], [1], 1)


@pytest.mark.parametrize("m", range(11))
def test_superset_folds_bit_for_bit_as_the_block_view(m):
    # runs below 16 go as strided slices, from m = 5 on the block view too
    rng = np.random.default_rng(m)
    cases = [(rng.random(1 << m), np.add)] + [
        (rng.integers(0, 1 << min(m, 16), 1 << m).astype(dtype), np.bitwise_and)
        for dtype in (np.uint16, np.uint32, np.int64)]
    cases.append((np.array([2**64 + int(k) for k in rng.integers(0, 2**40, 1 << m)],
                           dtype=object), np.add))  # exact rates past int64
    for x, op in cases:
        got, want = exact._superset(x.copy(), op), superset_reshape(x.copy(), op)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert x.dtype == object or got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arr, w, closure", [
    (cw.build_braid(4), cw.riffle_faces(4, 2), np.uint8),
    (cw.build_braid(6), cw.riffle_faces(6, 2), np.uint16),
    (cw.build_braid(6), cw.top_bottom_faces(6), np.uint16),
    (cw.build_boolean(16), cw.hypercube_nonlocal_faces(16, 2), np.uint16),
    (cw.build_boolean(17), cw.hypercube_nonlocal_faces(17, 2), np.uint32),
])
def test_mobius_form_is_the_int64_form_on_the_narrowest_closure(arr, w, closure, monkeypatch):
    folded, superset = [], exact._superset
    monkeypatch.setattr(exact, "_superset",
                        lambda x, op: folded.append(x.dtype) or superset(x, op))
    # the per-flat terms of the fallback's builder, and the merge of _mobius_form
    _, q, c, _, flats = exact._form(arr, w)
    want_c, want_q, want_flats = mobius_reference(w.signs, w.weights)
    assert flats.tobytes() == want_flats.tobytes()
    assert c[flats].astype(np.int64).tobytes() == want_c.tobytes()
    assert q[flats].tobytes() == want_q.tobytes()
    assert folded == [np.float64, closure]
    *merged, exact_terms = exact._mobius_form(arr, w)
    assert [x.tobytes() for x in merged] == [x.tobytes() for x in merge_reference(want_c, want_q)]
    assert exact_terms.args == (arr, w) and folded == [np.float64, closure] * 2


@pytest.mark.parametrize("r", [0, 2, 9, 200])
def test_power_table_gives_each_time_as_its_singleton_grid(r):
    # r distinct rates k / 4096, ascending, with coefficients +-1 down the
    # rates, so that every value lies in [0, 1]; r = 0 is the form of m = 0
    k = np.sort(np.random.default_rng(r).choice(np.arange(1, 4096), r, replace=False))
    c, q = (-1.0) ** np.arange(r)[::-1], k / 4096
    weights = [1 - 2.0**-12, 2.0**-12]  # the integers 4095 and 1 over 4096

    def exact_terms(x):  # k x_1, with x_1 = 1
        assert x.tolist() == [4095, 1] and x.dtype == np.int64
        return list(zip((k.astype(np.int64) * x[1]).tolist(), c.astype(np.int64).tolist()))

    # the table's row sums tie no time to another: 200 rates pass numpy's
    # 8-way and 128-block pairwise sums, and 0..1400 spans five blocks of 327
    grid = [0, 2, 2, 1, 5, 5, 40, 17, 1000, *range(1400)]
    for t_first in (0, 3):
        got = exact._power_sums(q, c, np.abs(c), exact_terms, weights, grid, t_first)
        assert list(got) == sorted(set(grid))
        assert all(got[t] == 1.0 for t in range(t_first))
        for t in got:
            assert exact._power_sums(q, c, np.abs(c), exact_terms, weights, [t],
                                     t_first) == {t: got[t]}, t
        for t in (0, 2, 5, 40):
            want = sum(int(ci) * Fraction(qi) ** t for ci, qi in zip(c, q)) if t >= t_first else 1
            assert abs(got[t] - want) <= (t + 1) * np.finfo(float).eps * max(len(c), 1), t
        assert exact._power_sums(q, c, np.abs(c), exact_terms, weights, [], t_first) == {}


def test_power_table_is_blocked():
    # 65 519 rates, as all-distinct Tsetlin n = 16, over 133 times: one table
    # would take 66 MiB, a block of 2^16 entries takes 0.5 MiB
    rng = np.random.default_rng(7)
    q = np.sort(rng.random(65519) / 2)
    c = (-1.0) ** np.arange(q.size)[::-1]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = exact._power_sums(q, c, np.abs(c), None, None, range(1, 134), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 133 and all(0.0 <= v <= 1.0 for v in got.values())
    assert peak < 8 * 2**20


def mobius_profile(arr, w, t_grid):
    """The Mobius route of survival_exact_profile, taken whatever the supports weigh."""
    t_first = -(-arr.m // max(int((w.signs != 0).sum(axis=1).max()), 1))
    return exact._power_sums(*exact._mobius_form(arr, w), w.weights, t_grid, t_first)


def test_mobius_form_holds_no_per_flat_copy_past_its_merge():
    # hypercube-nonlocal(16, 2): 65 518 flats of 14 float rates, and each
    # 2^16-set array of floats takes 0.5 MiB; six of them at most are held
    arr, w = cw.build_boolean(16), cw.hypercube_nonlocal_faces(16, 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = mobius_profile(arr, w, range(1, 301))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 300 and peak <= 3 * 2**20


def test_mobius_survival_values_are_pinned_bit_for_bit():
    # riffle and k-to-top take the Mobius route themselves; nonlocal(16, 2), whose
    # supports weigh the same, takes the count chain, so its pins read the form directly
    for survival, arr, w, want in [
            (cw.survival_exact_profile, cw.build_braid(6), cw.riffle_faces(6, 2), {
                2: "0x1.0000000000000p+0", 5: "0x1.91c4700000000p-2",
                20: "0x1.dfff56001c200p-17"}),
            (cw.survival_exact_profile, cw.build_braid(6), cw.k_to_top_faces(6, 2), {
                3: "0x1.fffffffffffffp-1", 10: "0x1.e113ddd850690p-8",
                30: "0x1.e4a8339670cf6p-30"}),
            (mobius_profile, cw.build_boolean(16), cw.hypercube_nonlocal_faces(16, 2), {
                8: "0x1.ffffc03881b30p-1", 40: "0x1.324add1fa23cdp-4",
                300: "0x1.2763cf89c120ep-54"})]:
        got = survival(arr, w, list(want))
        assert {t: v.hex() for t, v in got.items()} == want


def test_count_chain_survival_values_are_pinned_bit_for_bit():
    # nonlocal(16, 2)'s 120 supports weigh 4/480 each: the count chain of two coupons
    # of 16 a step, within 5 ulp of the fractions at these times, where the Mobius
    # pins above are off by up to 3.8e-14 relative
    arr, w, stats = cw.build_boolean(16), cw.hypercube_nonlocal_faces(16, 2), {}
    got = cw.survival_exact_profile(arr, w, [8, 40, 300], stats)
    assert stats == {"survival_path": "count-chain"}
    assert {t: v.hex() for t, v in got.items()} == {
        8: "0x1.ffffc03881b04p-1", 40: "0x1.324add1fa23e2p-4", 300: "0x1.2763cf89c12d3p-54"}
    assert got == {t: cw.coupon_survival_uniform(16, t, 16, 2) for t in got}
    for t, v in got.items():
        assert abs(v - float(reference.kset_survival(16, 2, t))) <= 5 * np.spacing(v)


def test_count_chain_route_admits_hyperplanes_past_the_mobius_cap():
    # 24 coordinates, past DEFAULT_IE_HYPERPLANE_CAP = 20: the faces of every
    # pair of them, equally weighted, read off the count chain of that key,
    # no arrangement built (the faces carry m)
    w, stats = cw.hypercube_nonlocal_faces(24, 2), {}
    assert w.m > exact.DEFAULT_IE_HYPERPLANE_CAP
    grid = range(0, 401, 7)
    got = cw.survival_exact_profile(w, w, grid, stats)
    assert stats == {"survival_path": "count-chain"}
    assert got == {t: cw.coupon_survival_uniform(24, t, 24, 2) for t in grid}
    assert got[7] == 1.0 and got[14] < 1.0  # T >= 24 / 2
    assert all(abs(got[t] - float(reference.kset_survival(24, 2, t))) <= 1e-15 for t in grid)


def test_survival_is_one_before_m_over_the_largest_face_support(monkeypatch):
    # t faces of at most s nonzero signs cut at most t s of the m hyperplanes
    first, fallback = [], []
    power_sums = exact._power_sums

    def recorded(rates, c_sum, abs_sum, exact_terms, weights, t_grid, t_first):
        first.append(t_first)
        return power_sums(rates, c_sum, abs_sum,
                          lambda x: fallback.append(t_first) or exact_terms(x), weights,
                          t_grid, t_first)

    monkeypatch.setattr(exact, "_power_sums", recorded)
    # the non-local hypercube's faces cut two of 16 coordinates: T >= 8, and
    # from t = 8 on every float sum passes its bound; one weight made unequal
    # keeps the supports off the count chain
    w = cw.hypercube_nonlocal_faces(16, 2)
    weights = w.weights.copy()
    weights[0] *= 1 + 2.0**-40
    got = cw.survival_exact_profile(cw.build_boolean(16), cw.WeightedFaceSet(w.signs, weights),
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
