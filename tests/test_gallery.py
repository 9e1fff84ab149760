import collections
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk import core, gallery, glauber
from chamberwalk.core import CapacityError
from reference import count_vector_survival, held_chains


def test_tsetlin_faces_uniform3():
    w = cw.tsetlin_faces(cw.TsetlinSpec([1 / 3, 1 / 3, 1 / 3]))
    assert len(w.faces) == 3
    assert np.allclose(w.weights, 1 / 3)
    for f in w.faces:
        assert np.count_nonzero(f) == 2  # the two pairs involving the moved card
    assert cw.check_separating(w)


def test_tsetlin_separating_all_n():
    for n in range(2, 7):
        w = cw.tsetlin_faces(cw.TsetlinSpec(np.full(n, 1 / n)))
        assert cw.check_separating(w)
        for f in w.faces:
            assert np.count_nonzero(f) == n - 1


def test_tsetlin_weight_validation():
    with pytest.raises(ValueError):
        cw.TsetlinSpec([0.5, 0.6])
    with pytest.raises(ValueError):
        cw.TsetlinSpec([1.2, -0.2])
    with pytest.raises(ValueError, match="sum to 0.0"):
        cw.TsetlinSpec([])  # an empty list sums to 0
    with pytest.raises(ValueError, match="strictly positive"):
        cw.TsetlinSpec([math.nan, 0.5, 0.5])
    with pytest.raises(ValueError, match="strictly positive"):
        cw.top_bottom_faces(3, [math.nan, 0.5, 0.5])


@pytest.mark.parametrize(
    "build, total",
    [
        (lambda: cw.TsetlinSpec([0.5, 0.4]), "0.9"),
        (lambda: cw.hypercube_nn_faces([0.4, 0.2], [0.4, 0.2]), "1.2"),
    ],
)
def test_weight_sum_refusals_print_plain_numbers(build, total):
    with pytest.raises(ValueError, match=f"sum to {total}, expected 1") as exc:
        build()
    assert "np.float64" not in str(exc.value)


def test_riffle_n2_a2():
    w = cw.riffle_faces(2, 2)
    got = dict(zip(w.faces, w.weights))
    # 4 mark functions: 00 and 11 collapse to the single block
    assert got[(0,)] == pytest.approx(0.5)
    assert got[(1,)] == pytest.approx(0.25)  # {0}{1}
    assert got[(-1,)] == pytest.approx(0.25)  # {1}{0}


def test_riffle_capacity(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", 1000)
    with pytest.raises(CapacityError):
        cw.riffle_faces(30, 2)


@pytest.mark.parametrize(
    "build, entries",
    [
        (lambda: cw.tsetlin_faces(cw.TsetlinSpec([1 / 4] * 4)), 4 * 6),
        (lambda: cw.riffle_faces(4, 2), 2**4 * 6),
        (lambda: cw.k_to_top_faces(4, 2), 6 * 6),
        (lambda: cw.top_bottom_faces(4), 8 * 6),
        (lambda: cw.hypercube_nn_faces([1 / 8] * 4, [1 / 8] * 4), 8 * 4),
        (lambda: cw.hypercube_nonlocal_faces(4, 2), 24 * 4),
        (lambda: cw.build_braid(4), 24 * 6),
        (lambda: cw.build_boolean(4), 16 * 4),
    ],
)
def test_face_lists_refuse_past_their_cap(monkeypatch, build, entries):
    # the cap counts the sign entries enumerated, faces (or chambers) x hyperplanes
    monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", entries)
    build()
    monkeypatch.setattr(core, "DEFAULT_ENUM_CAP", entries - 1)
    with pytest.raises(CapacityError):
        build()


def test_k_to_top_counts():
    w = cw.k_to_top_faces(4, 2)
    assert len(w.faces) == 6
    assert np.allclose(w.weights, 1 / 6)
    with pytest.raises(ValueError):
        cw.k_to_top_faces(4, 4)


def test_k_to_top_k1_recovers_tsetlin():
    assert set(cw.k_to_top_faces(3, 1).faces) == set(
        cw.tsetlin_faces(cw.TsetlinSpec([1 / 3] * 3)).faces
    )


def test_kset_closed_forms():
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        b, d = cw.kset_coupling_closed_form(n, k)
        assert b == k / n
        assert d == k**2 / n**2 - k * (n - k) / (n**2 * (n - 1))
    assert cw.riffle_coupling_closed_form(2) == (0.5, 0.25)


def test_top_bottom_faces():
    w = cw.top_bottom_faces(3)
    assert len(w.faces) == 6
    assert np.allclose(w.weights, 1 / 6)
    # weighted card version is accepted
    w2 = cw.top_bottom_faces(3, [0.5, 0.3, 0.2])
    assert len(w2.faces) == 6
    assert w2.weights.sum() == pytest.approx(1.0)


def test_hypercube_nn_faces():
    w = cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])
    assert len(w.faces) == 4
    for f in w.faces:
        assert np.count_nonzero(f) == 1
    arr = cw.build_boolean(2)
    assert np.allclose(cw.stationary_solve(arr, w), 0.25, atol=1e-10)
    assert cw.survival_exact_profile(arr, w, [2])[2] == pytest.approx(0.5, abs=1e-12)


def test_hypercube_nn_symmetric_uniform_stationary():
    arr = cw.build_boolean(3)
    w = cw.hypercube_nn_faces([0.3, 0.1, 0.1], [0.3, 0.1, 0.1])
    assert np.allclose(cw.stationary_solve(arr, w), 1 / 8, atol=1e-10)


def test_hypercube_nonlocal_faces():
    w = cw.hypercube_nonlocal_faces(4, 2)
    assert len(w.faces) == 24
    assert np.allclose(w.weights, 1 / 24)
    with pytest.raises(ValueError):
        cw.hypercube_nonlocal_faces(4, 4)  # k = n is one-step stationarity
    with pytest.raises(ValueError):
        cw.hypercube_nonlocal_faces(4, 1)


def test_solve_t_star():
    # uniform: n e^{-t/n} = 1/2 gives t* = n ln(2n)
    for n in (2, 5, 100):
        spec = cw.TsetlinSpec(np.full(n, 1 / n))
        assert cw.solve_t_star(spec) == pytest.approx(n * math.log(2 * n), abs=1e-7)
    assert cw.solve_t_star(cw.TsetlinSpec([1.0])) == pytest.approx(
        math.log(2), abs=1e-9
    )
    # past t = 2^23 adjacent floats are more than 1e-9 apart: the bisection ends there
    t_star = cw.solve_t_star(cw.TsetlinSpec([1e-8, 1 - 1e-8]))
    assert t_star == pytest.approx(1e8 * math.log(2), rel=1e-12)
    spec = cw.TsetlinSpec([0.5, 0.3, 0.2])
    t_star = cw.solve_t_star(spec)
    resid = abs(np.exp(-spec.card_weights * t_star).sum() - 0.5)
    assert resid <= 1e-9


def test_tsetlin_bounds_values():
    spec = cw.TsetlinSpec(np.full(100, 0.01))
    rep = cw.tsetlin_bounds(spec, 4.0, strict=False)
    assert rep.t_star == pytest.approx(100 * math.log(200), abs=1e-6)
    assert rep.upper_value == pytest.approx(0.0837, abs=5e-4)
    assert rep.upper_time == pytest.approx(rep.t_star + 400.0, abs=1e-6)
    assert rep.lower_time == pytest.approx(rep.t_star - 800.0, abs=1e-6)


def test_tsetlin_bounds_monotone_in_c():
    spec = cw.TsetlinSpec(np.full(200, 1 / 200))
    uppers, lowers = [], []
    for c in np.linspace(2.0, 10.0, 9):
        rep = cw.tsetlin_bounds(spec, float(c), strict=False)
        uppers.append(rep.upper_value)
        lowers.append(rep.lower_value)
    assert all(b <= a + 1e-12 for a, b in zip(uppers, uppers[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert uppers[-1] < 0.1
    assert lowers[-1] > 0.7


def test_tsetlin_bounds_preconditions():
    spec = cw.TsetlinSpec(np.full(10, 0.1))
    with pytest.raises(ValueError):
        cw.tsetlin_bounds(spec, -1.0)
    c_cap = cw.solve_t_star(spec) * 0.1 / 2
    with pytest.raises(ValueError, match="c <"):
        cw.tsetlin_bounds(spec, c_cap + 0.1, strict=True)
    # non-strict evaluation outside the validity range is allowed
    rep = cw.tsetlin_bounds(spec, c_cap + 0.1, strict=False)
    assert 0 <= rep.lower_value <= 1
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"c={c}"):
            cw.tsetlin_bounds(spec, c, strict=False)
    for c in (1e-300, 2000.0):  # c**2 is 0, or exp(c / 2) overflows
        with pytest.raises(ValueError, match="float range"):
            cw.tsetlin_bounds(spec, c, strict=False)


def test_tsetlin_survival_profile_values():
    spec = cw.TsetlinSpec([1 / 3, 1 / 3, 1 / 3])
    assert cw.tsetlin_survival_profile(spec, [2])[2] == pytest.approx(1 / 3, abs=1e-12)
    spec2 = cw.TsetlinSpec([0.5, 0.3, 0.2])
    # T > 2 iff both picks equal: 0.25 + 0.09 + 0.04
    assert cw.tsetlin_survival_profile(spec2, [2])[2] == pytest.approx(0.38, abs=1e-12)
    for n in (3, 4, 6):
        spec_n = cw.TsetlinSpec(np.full(n, 1 / n))
        assert cw.tsetlin_survival_profile(spec_n, [1])[1] == 1.0


def test_tsetlin_survival_answers_where_the_float_sum_cancels():
    # one heavy card among 20: the float sum's rounding bound exceeds 1e-9 up
    # to t of about 90, so those times take the integer ratio
    spec = cw.TsetlinSpec([0.9] + [0.1 / 19] * 19)
    heavy, light = spec.card_weights[:2]
    law = np.zeros((2, 20))  # (heavy card touched, light cards touched)
    law[0, 0], k, want = 1.0, np.arange(20), {}
    for t in range(1, 151):
        fresh = np.zeros_like(law)
        fresh[:, 1:] = law[:, :-1] * light * (19 - k[:-1])
        law = law * light * k + fresh + np.stack([0 * k, heavy * law.sum(axis=0)])
        want[t] = law[(1 - np.arange(2))[:, None] + 19 - k >= 2].sum()
    got = cw.tsetlin_survival_profile(spec, [19, 40, 90, 150])
    assert all(got[t] == pytest.approx(want[t], abs=1e-12) for t in got)
    # the weights' float total is not exactly 1; the rates are read against it
    assert all(0.0 <= p <= 1.0 for p in got.values())


def test_tsetlin_survival_reads_the_exact_rates_once_where_the_float_sum_cancels():
    # eight cards of 3/32 and eight of 1/32: T >= n - 1 = 15, and a Mobius sum over
    # their count vectors cancels at t = 15, 16, 17, where the chain sums no sign
    spec = cw.TsetlinSpec([3 / 32] * 8 + [1 / 32] * 8)
    grid = range(1, 134)  # to 3 n ln n
    got = cw.tsetlin_survival_profile(spec, grid)
    # the lumped chain on the untouched (heavy, light) card counts, in fractions
    law, want = {(8, 8): Fraction(1)}, {}
    for t in grid:
        step = collections.defaultdict(Fraction)
        for (heavy, light), p in law.items():
            for state, hits in (((heavy - 1, light), 3 * heavy), ((heavy, light - 1), light),
                                ((heavy, light), 32 - 3 * heavy - light)):
                if hits:
                    step[state] += p * Fraction(hits, 32)
        law = step
        want[t] = sum(p for (heavy, light), p in law.items() if heavy + light >= 2)
    assert all(abs(got[t] - want[t]) <= 1e-15 for t in (15, 16, 17))  # a few ulps
    assert all(abs(got[t] - want[t]) <= 1e-12 for t in grid)


def test_tsetlin_exact_total_counts_each_card_of_a_class():
    # one card of 2^-11 + 2^-63 sets the denominator 2^63; fifteen cards of w_b,
    # raised until their sum with it is at least 1: each class's integer is
    # below 2^63, the cards' total is not, and the chances are read against it
    w_s = 2.0**-11 + 2.0**-63
    w_b = (1 - w_s) / 15
    while 15 * Fraction(w_b) + Fraction(w_s) < 1:
        w_b = np.nextafter(w_b, 1.0)
    assert Fraction(w_b) * 2**63 < 2**63 <= (15 * Fraction(w_b) + Fraction(w_s)) * 2**63
    got = cw.tsetlin_survival_profile(cw.TsetlinSpec([w_b] * 15 + [w_s]), range(1, 100))
    assert got[14] == 1.0
    # the count-vector sum in fractions, against the exact total
    total = 15 * Fraction(w_b) + Fraction(w_s)
    terms = [((-1) ** (b + s) * (b + s - 1) * math.comb(15, b),
              ((15 - b) * Fraction(w_b) + (1 - s) * Fraction(w_s)) / total)
             for b in range(16) for s in range(2) if b + s >= 2]

    def want(t):
        return sum(c * q**t for c, q in terms)

    assert abs(got[15] - want(15)) <= 1e-15
    assert all(abs(got[t] - want(t)) <= 1e-12 for t in range(15, 100))


def test_tsetlin_survival_capacity():
    # all-distinct weights on 20 cards: 2^20 states x 21 moves a step, past the cell cap
    # over the 20 points before the curve can leave 1, so no chain is built
    spec = cw.TsetlinSpec(np.random.default_rng(7).dirichlet(np.ones(20)))
    held = held_chains(glauber._CHAINS)
    with pytest.raises(CapacityError, match="cells exceeds cap"):
        cw.tsetlin_survival_profile(spec, range(1, 181))
    # 2000 distinct weights: 2^2000 states, past the floats; the sampler takes its clocks
    spec = cw.TsetlinSpec(np.random.default_rng(7).dirichlet(np.ones(2000)))
    with pytest.raises(CapacityError, match="count chain of inf cells"):
        cw.tsetlin_survival_profile(spec, [1999])
    assert np.all(cw.sample_card_collection_T(spec, 10, 0) >= 1999)
    assert held_chains(glauber._CHAINS) == held


@pytest.mark.parametrize("weights", [[1 / 3] * 3, [0.25] * 4, [0.2] * 5])
def test_card_collection_equality_uniform(weights):
    # touched-(n-1)-cards survival == separation distance, uniform weights
    spec = cw.TsetlinSpec(weights)
    arr = cw.build_braid(spec.n)
    w = cw.tsetlin_faces(spec)
    sep = cw.separation_profile(arr, w, range(1, 41))
    surv = cw.tsetlin_survival_profile(spec, range(1, 41))
    for t in range(1, 41):
        assert abs(sep[t] - surv[t]) <= 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the touched-(n-1)-cards identity fails off-uniform: for weights "
    "(0.5,0.3,0.2) exact s(2)=1/2 (worst chamber (0,2,1): P^2=0.10, pi=0.20) "
    "while P(T>2)=0.38; verified by direct path enumeration",
)
@pytest.mark.parametrize("weights", [[0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]])
def test_card_collection_equality_nonuniform(weights):
    spec = cw.TsetlinSpec(weights)
    arr = cw.build_braid(spec.n)
    w = cw.tsetlin_faces(spec)
    sep = cw.separation_profile(arr, w, range(1, 41))
    surv = cw.tsetlin_survival_profile(spec, range(1, 41))
    for t in range(1, 41):
        assert abs(sep[t] - surv[t]) <= 1e-9


def test_survival_bounds_separation_nonuniform():
    # off-uniform the survival still lower-bounds the separation distance
    for weights in ([0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]):
        spec = cw.TsetlinSpec(weights)
        arr = cw.build_braid(spec.n)
        w = cw.tsetlin_faces(spec)
        sep = cw.separation_profile(arr, w, range(1, 41))
        surv = cw.tsetlin_survival_profile(spec, range(1, 41))
        for t in range(1, 41):
            assert surv[t] <= sep[t] + 1e-9


def test_fill_survival_matches_inclusion_exclusion():
    # the chamber stopping time and the touched-n-1-cards time coincide
    spec = cw.TsetlinSpec([0.4, 0.3, 0.2, 0.1])
    arr = cw.build_braid(4)
    w = cw.tsetlin_faces(spec)
    for t in range(0, 20):
        assert cw.survival_exact_profile(arr, w, [t])[t] == pytest.approx(
            cw.tsetlin_survival_profile(spec, [t])[t], abs=1e-12
        )


def test_sample_card_collection_T_uniform_matches_exact():
    spec = cw.TsetlinSpec(np.full(5, 0.2))
    T = cw.sample_card_collection_T(spec, 100_000, seed=3)
    for t in (4, 6, 10, 15):
        p = (T > t).mean()
        exact = cw.tsetlin_survival_profile(spec, [t])[t]
        se = max(np.sqrt(exact * (1 - exact) / len(T)), 1e-4)
        assert abs(p - exact) < 4 * se


def test_sample_card_collection_T_weighted_matches_exact():
    spec = cw.TsetlinSpec([0.5, 0.3, 0.2])
    T = cw.sample_card_collection_T(spec, 20_000, seed=4)
    for t in (2, 4, 8):
        p = (T > t).mean()
        exact = cw.tsetlin_survival_profile(spec, [t])[t]
        se = max(np.sqrt(exact * (1 - exact) / len(T)), 1e-3)
        assert abs(p - exact) < 4 * se


def test_sample_kset_coupon_T_matches_exact():
    n, k = 6, 2
    arr = cw.build_boolean(n)
    w = cw.hypercube_nonlocal_faces(n, k)
    T = cw.sample_kset_coupon_T(n, k, 50_000, seed=8)
    exact = cw.survival_exact_profile(arr, w, [3, 5, 8, 12])
    for t in (3, 5, 8, 12):
        p = (T > t).mean()
        se = max(np.sqrt(exact[t] * (1 - exact[t]) / len(T)), 1e-3)
        assert abs(p - exact[t]) < 4 * se


def _assert_survival_within_4se(samples, exact):
    for t, p in exact.items():
        se = max(np.sqrt(p * (1 - p) / len(samples)), 1 / len(samples))
        assert abs((samples > t).mean() - p) < 4 * se, (t, (samples > t).mean(), p)


def test_sample_card_collection_T_skewed_matches_exact():
    # one card 50 times lighter than the others
    spec = cw.TsetlinSpec(np.array([50, 50, 50, 50, 1]) / 201)
    T = cw.sample_card_collection_T(spec, 100_000, seed=71)
    _assert_survival_within_4se(T, cw.tsetlin_survival_profile(spec, range(3, 30)))


def test_sample_kset_coupon_T_k3_m7_matches_chain():
    # jumps of 1 to 3 new coupons; for c < 3 a step always brings one
    m, k = 7, 3
    P = np.zeros((m + 1, m + 1))
    for c in range(m + 1):
        for x in range(k + 1):
            P[c, min(c + x, m)] += math.comb(m - c, x) * math.comb(c, k - x) / math.comb(m, k)
    law = np.eye(m + 1)[0]
    exact = {}
    for t in range(1, 21):
        law = law @ P
        exact[t] = 1.0 - law[m]
    T = cw.sample_kset_coupon_T(m, k, 100_000, seed=72)
    _assert_survival_within_4se(T, exact)


def test_sample_kset_coupon_T_rejects_bad_k():
    held = held_chains(glauber._CHAINS)
    for k in (0, 8):
        with pytest.raises(ValueError):
            cw.sample_kset_coupon_T(7, k, 10, seed=0)
    assert held_chains(glauber._CHAINS) == held  # refused before any chain
    assert np.all(cw.sample_kset_coupon_T(7, 7, 10, seed=0) == 1)


@pytest.mark.parametrize("m, trials", [(8192, 1000), (2**20, 10)])
def test_kset_sampler_refuses_past_the_cell_cap_before_any_chain(m, trials):
    # (m + 2) (horizon at the least V + 1) cells: 5.3e8 at (8192, 2, 1000),
    # where (4096, 2, 1000) needs 1.3e8; at 2^20 coupons the chain would
    # take about a day
    held = held_chains(glauber._CHAINS)
    with pytest.raises(CapacityError):  # a first call imports parts of numpy.random
        cw.sample_kset_coupon_T(m, 2, trials, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cells exceeds cap"):
            cw.sample_kset_coupon_T(m, 2, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # a law of m floats would take m * 8 bytes
    assert held_chains(glauber._CHAINS) == held


def test_samplers_repeat_for_fixed_seed_and_trials():
    for spec in (cw.TsetlinSpec(np.full(100, 0.01)), cw.TsetlinSpec(np.arange(1, 101) / 5050)):
        # 1000 trials of 100 cards span two blocks of the weighted path
        a = cw.sample_card_collection_T(spec, 1000, seed=73)
        assert a.shape == (1000,)
        assert np.array_equal(a, cw.sample_card_collection_T(spec, 1000, seed=73))
    a = cw.sample_kset_coupon_T(64, 2, 1000, seed=73)
    assert np.array_equal(a, cw.sample_kset_coupon_T(64, 2, 1000, seed=73))


def test_card_collection_small_n_both_paths():
    # n=1 has nothing to wait for; n=2 stops at the first step, equal weights or not
    assert np.all(cw.sample_card_collection_T(cw.TsetlinSpec([1.0]), 50, seed=0) == 0)
    for weights in ([0.5, 0.5], [0.3, 0.7], [1 - 1e-9, 1e-9]):
        T = cw.sample_card_collection_T(cw.TsetlinSpec(weights), 50, seed=0)
        assert T.dtype == np.int64 and np.all(T == 1)


def _chain_draws(n, trials, seed, key=None):
    """The chain path's T, from the sampler's own V = 1 - U; key defaults to n equal cards."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return glauber._chain_T(key or (((n, 1),), 1, n - 1), 1.0 - rng.random(trials))


def test_card_collection_equal_weights_chain_matches_the_mobius_form():
    # 20 000 trials of 12 cards take the count chain, draw for draw; the
    # count-vector Mobius sum in fractions shares no code with it
    spec, trials = cw.TsetlinSpec(np.full(12, 1 / 12)), 20_000
    T = cw.sample_card_collection_T(spec, trials, seed=76)
    assert np.array_equal(T, _chain_draws(12, trials, 76))
    _assert_survival_within_4se(T, {t: float(count_vector_survival([1] * 12, t))
                                    for t in range(10, 120, 2)})


def test_card_collection_unequal_weights_take_the_chain_where_it_pays():
    # three cards of 3/13 and four of 1/13: 20 states x 3 moves for each of 240 points,
    # 14 400 cells against 10 000 trials x 5 exponentials, so the chain of their two classes
    spec, trials = cw.TsetlinSpec([3 / 13] * 3 + [1 / 13] * 4), 10_000
    assert spec.chain_key == (((4, 1), (3, 3)), 1, 6)
    T = cw.sample_card_collection_T(spec, trials, seed=80)
    assert np.array_equal(T, _chain_draws(7, trials, 80, spec.chain_key))
    _assert_survival_within_4se(T, {t: float(count_vector_survival(spec.card_weights, t))
                                    for t in range(6, 60, 3)})


CHAIN_SAMPLERS = {  # n cards or coupons -> (sampler of trials and seed, its curve's key)
    "card": lambda n: (functools.partial(cw.sample_card_collection_T,
                                         cw.TsetlinSpec(np.full(n, 1 / n))),
                       (((n, 1),), 1, n - 1)),
    "kset": lambda n: (functools.partial(cw.sample_kset_coupon_T, n, 1), (((n, 1),), 1, n)),
}


@pytest.mark.parametrize("sampler", CHAIN_SAMPLERS)
def test_card_collection_chain_samples_do_not_depend_on_the_cache(sampler):
    n, trials, seed = 30, 5000, 77
    sample, key = CHAIN_SAMPLERS[sampler](n)
    glauber._CHAINS.clear()
    cold = sample(trials, seed)
    size = len(glauber._count_chain(key)())
    assert np.array_equal(cold, sample(trials, seed))
    # a curve grown past the cut by coupon_survival_uniform, on this key or
    # the other single-site one, changes no sample
    cw.coupon_survival_uniform(n, 4 * size, n - 1)
    cw.coupon_survival_uniform(n, 4 * size)
    assert len(glauber._count_chain(key)()) > size
    assert np.array_equal(cold, sample(trials, seed))
    # and a curve grown by fewer trials first, a shorter cut, gives the same
    glauber._CHAINS.clear()
    sample(50, seed + 1)
    assert np.array_equal(cold, sample(trials, seed))


def test_kset_sampler_of_one_coupon_a_step_reads_the_coupon_curve():
    glauber._CHAINS.clear()
    cw.coupon_survival_uniform(40, 2000)
    grown = glauber._count_chain(key := (((40, 1),), 1, 40))
    T = cw.sample_kset_coupon_T(40, 1, 1000, seed=79)
    assert list(glauber._CHAINS) == [key] and glauber._count_chain(key) is grown
    assert np.all(T >= 40)


def test_card_collection_chain_at_one_and_two_cards():
    # V = 1 - U runs from 2^-53 to 1: one card needs no step, two need one
    v = np.array([2.0**-53, 0.5, 1.0])
    assert glauber._chain_T((((1, 1),), 1, 0), v).tolist() == [0, 0, 0]
    assert glauber._chain_T((((2, 1),), 1, 1), v).tolist() == [1, 1, 1]


def test_card_collection_takes_the_draws_where_the_chain_does_not_pay():
    held = held_chains(glauber._CHAINS)
    T = cw.sample_card_collection_T(cw.TsetlinSpec(np.full(3000, 1 / 3000)), 10, seed=78)
    assert held_chains(glauber._CHAINS) == held
    assert T.shape == (10,) and np.all(T >= 2999)


def _clock_draws(w, trials, seed):
    """The clock path's T, in one block of the sampler: card i first touched
    at tau_i = E_i / w_i; before s, the second-largest clock, it repeats
    Poisson(w_i (s - tau_i)^+) times."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    tau = rng.standard_exponential((trials, len(w))) / w
    s = np.sort(tau, axis=1)[:, -2]
    return (len(w) - 1) + rng.poisson(np.maximum(s[:, np.newaxis] - tau, 0.0) @ w)


def test_card_collection_unequal_weights_draw_for_draw():
    # equal weights take the same clocks where the cost rule keeps them off
    # the chain: 350 trials of 9 cards count 2450 exponentials, fewer than
    # the 2592 cells the chain pushes
    n, trials, seed = 9, 350, 75
    for w in [np.arange(1, n + 1) / (n * (n + 1) / 2), np.full(n, 1 / n)]:
        got = cw.sample_card_collection_T(cw.TsetlinSpec(w), trials, seed)
        assert np.array_equal(got, _clock_draws(w, trials, seed))


def test_card_collection_takes_the_clocks_past_the_cell_cap(monkeypatch):
    # 3000 trials of 9 cards pay for the chain, whose worst case is 8 states x
    # 2 moves for each of 162 points, 2592: a cap of 2592 keeps it, one of 2591
    # does not, and then no chain is read or built
    n, trials, seed = 9, 3000, 75
    w = np.full(n, 1 / n)
    monkeypatch.setattr(glauber, "DEFAULT_COUPON_CELL_CAP", 2592)
    T = cw.sample_card_collection_T(cw.TsetlinSpec(w), trials, seed)
    assert np.array_equal(T, _chain_draws(n, trials, seed))
    monkeypatch.setattr(glauber, "DEFAULT_COUPON_CELL_CAP", 2591)
    held = held_chains(glauber._CHAINS)
    T = cw.sample_card_collection_T(cw.TsetlinSpec(w), trials, seed)
    assert held_chains(glauber._CHAINS) == held
    assert np.array_equal(T, _clock_draws(w, trials, seed))


def test_card_collection_refuses_a_count_past_int64():
    # one card near weight 1 and two that are almost never touched: the mean
    # number of repeats is about 1e200, once wrapped to -2^63
    spec = cw.TsetlinSpec([1 - 2e-200, 1e-200, 1e-200])
    with pytest.raises(CapacityError):
        cw.sample_card_collection_T(spec, 5, seed=0)


def test_card_collection_refuses_a_subnormal_weight_without_a_warning():
    # E / 5e-324 overflows to inf; the refusal is the whole report
    spec = cw.TsetlinSpec([1 - 1e-300, 5e-324, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CapacityError):
            cw.sample_card_collection_T(spec, 5, seed=0)


def test_riffle_sst_crossing_location():
    # for a=2, n=5 the survival curve crosses 1/2 near log2 C(5,2)
    arr = cw.build_braid(5)
    w = cw.riffle_faces(5, 2)
    prof = cw.survival_exact_profile(arr, w, range(1, 12))
    crossing = min(t for t in range(1, 12) if prof[t] <= 0.5)
    target = math.log2(math.comb(5, 2))
    assert abs(crossing - target) <= 2.0


def test_hypercube_symmetric_equality():
    for n in range(2, 7):
        arr = cw.build_boolean(n)
        w = cw.hypercube_nn_faces(np.full(n, 1 / (2 * n)), np.full(n, 1 / (2 * n)))
        sep = cw.separation_profile(arr, w, range(1, 31))
        surv = cw.survival_exact_profile(arr, w, range(1, 31))
        for t in range(1, 31):
            assert abs(sep[t] - surv[t]) <= 1e-9


def test_hypercube_nn_equality_any_weights():
    # the sign of a coordinate's first touch is independent of when it
    # happens, so T is independent of the chamber the walk freezes at and
    # s(t) = P(T > t) holds for every w+, w-, not only for w+ = w-
    rng = np.random.default_rng(20)
    grid = range(1, 40)
    for n in (2, 3, 4):
        for _ in range(3):
            w = rng.random(2 * n) + 0.05
            w /= w.sum()
            arr, faces = cw.build_boolean(n), cw.hypercube_nn_faces(w[:n], w[n:])
            sep = cw.separation_profile(arr, faces, grid)
            surv = cw.survival_exact_profile(arr, faces, grid)
            assert max(abs(sep[t] - surv[t]) for t in grid) <= 1e-12


def _close_to_chambers(lumped, survival, arr, w, grid, tol):
    """The lumped (s, TV) against distance_profiles and the family's exact
    P(T>t), up to 20 hyperplanes, against survival_exact_profile on the
    chamber walk itself."""
    dist = cw.distance_profiles(arr, w, grid)
    surv = cw.survival_exact_profile(arr, w, grid) if arr.m <= 20 else None
    for t in grid:
        assert lumped[t] == pytest.approx(dist[t], abs=tol), t
        if surv is not None:
            assert survival[t] == pytest.approx(surv[t], abs=tol), t


# the chamber engine's own rounding reaches 1.4e-13 at riffle(7, 3) and
# 1.0e-13 at hypercube-nonlocal(9, 4); the lumped forms are within 2.3e-15
# of exact rationals (test_hamming_chain_is_exact_in_rationals)
ENGINE_TOL = 2e-13


@pytest.mark.parametrize("n, a", [(n, a) for n in range(3, 8) for a in (2, 3)])
def test_riffle_profiles_match_the_chamber_walk(n, a):
    grid = range(41)
    got = gallery.riffle_profiles(n, a, grid)  # s(t) = P(T>t), the birthday product
    _close_to_chambers(got, {t: s for t, (s, _) in got.items()}, cw.build_braid(n),
                       cw.riffle_faces(n, a), grid, ENGINE_TOL)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(2, 13) for k in range(1, m // 2 + 1)
                                  # at most 2^21 entries in the face x chamber product table
                                  if (k == 1 or math.comb(m, k) * 2**k << m <= 2**21)])
def test_hamming_profiles_match_the_chamber_walk(m, k):
    grid = range(41)
    w = (cw.hypercube_nn_faces([1 / (2 * m)] * m, [1 / (2 * m)] * m) if k == 1
         else cw.hypercube_nonlocal_faces(m, k))
    _close_to_chambers(gallery.hamming_profiles(m, k, grid),
                       {t: cw.coupon_survival_uniform(m, t, m, k) for t in grid},
                       cw.build_boolean(m), w, grid, ENGINE_TOL)


def test_hamming_chain_is_exact_in_rationals():
    m, k = 9, 4
    law = [Fraction(1)] + [Fraction(0)] * m
    pi = [Fraction(math.comb(m, j), 2**m) for j in range(m + 1)]
    got = gallery.hamming_profiles(m, k, range(41))
    for t in range(41):
        s = max(1 - q / p for q, p in zip(law, pi))
        tv = sum(abs(q - p) for q, p in zip(law, pi)) / 2
        assert got[t][:2] == pytest.approx((float(s), float(tv)), abs=3e-15), t
        step = [Fraction(0)] * (m + 1)
        for j, q in enumerate(law):  # i of the k among the j that differ, then Bin(k, 1/2)
            for i in range(k + 1):
                for ell in range(k + 1):
                    if i <= j and k - i <= m - j:
                        step[j - i + ell] += q * Fraction(
                            math.comb(j, i) * math.comb(m - j, k - i) * math.comb(k, ell),
                            math.comb(m, k) * 2**k)
        law = step


def test_riffle_profiles_reproduce_bayer_diaconis_at_52_cards():
    got = gallery.riffle_profiles(52, 2, range(1, 13), stats=(stats := {}))
    tv = [1, 1, 1, 1, 0.924, 0.614, 0.334, 0.167, 0.085, 0.043, 0.022, 0.011]
    assert [round(got[t][1], 3) for t in range(1, 13)] == tv
    assert [round(got[t][0], 3) for t in range(8, 13)] == [0.996, 0.932, 0.732, 0.479, 0.278]
    # s(t) = P(T>t), the birthday product 1 - (N)_52 / N^52 at N = 2^t, correctly rounded
    assert all(got[t][0] == (2**(52 * t) - math.perm(2**t, 52)) / 2**(52 * t) for t in got)
    assert stats == {"exact_path": "eulerian", "chambers": math.factorial(52), "starts": 1}


@pytest.mark.parametrize("k, t_max", [(1, 8000), (2, 4000)])
def test_hamming_separation_is_the_count_chain_at_512_coordinates(k, t_max):
    got = gallery.hamming_profiles(512, k, range(t_max + 1), stats=(stats := {}))
    assert max(abs(s - cw.coupon_survival_uniform(512, t, 512, k))
               for t, (s, _) in got.items()) <= 1e-12
    assert list(stats) == ["exact_path", "chambers", "starts"]
    assert got[t_max][0] < 1e-3  # the grid runs through the cutoff


class _NoPower(int):
    def __pow__(self, other):
        raise AssertionError("big-integer power taken")


def test_lumped_refusals_come_before_any_step_or_power(monkeypatch):
    with pytest.raises(CapacityError, match="bits over the grid"):
        gallery.riffle_profiles(52, _NoPower(2), range(1, 200))
    with pytest.raises(CapacityError, match="bits over the grid"):
        gallery.riffle_profiles(5000, _NoPower(2), [1])
    with pytest.raises(ValueError, match="n >= 2 and a >= 2"):
        gallery.riffle_profiles(1, 2, [1])
    assert gallery.riffle_profiles(52, 2, range(1, 107))[106][0] > 0  # just under the cap

    def stepped(*args, **kwargs):
        raise AssertionError("chain stepped")

    assert gallery.hamming_profiles(1022, 1, [0, 1])[1][0] == 1.0  # pi_0 = 2^-1022 is normal
    monkeypatch.setattr(gallery, "_push", stepped)
    with pytest.raises(CapacityError, match="not a normal float"):
        gallery.hamming_profiles(1023, 2, [1])
    with pytest.raises(CapacityError, match="cells exceeds cap"):
        gallery.hamming_profiles(512, 2, [10**8])  # 5 x 513 cells a step
