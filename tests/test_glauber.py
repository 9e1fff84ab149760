import collections
import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk import glauber
from chamberwalk.core import CapacityError
from chamberwalk.glauber import grid_edges

from reference import check_monotone, comparable_pairs, conditional_at_site, glauber_step
from reference import coverage_conditioned_profile, held_chains


def test_grid_edges():
    assert set(grid_edges(2, 2)) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    assert len(grid_edges(1, 4)) == 3


def test_ising_zero_beta_uniform():
    sys_ = cw.ising_system(2, 2, beta=0.0)
    _, pi, _ = cw.glauber_matrix(sys_)
    assert np.allclose(pi, 1 / 16, atol=1e-14)


def test_ising_rejects_negative_beta_and_capacity():
    with pytest.raises(ValueError):
        cw.ising_system(2, 2, beta=-0.5)
    for beta, field in [(math.nan, 0.0), (math.inf, 0.0), (0.3, math.nan), (0.3, -math.inf)]:
        with pytest.raises(ValueError, match="nan|inf"):
            cw.ising_system(2, 2, beta, field)
    for probs_up in ([1.5, 0.5], [0.0, 0.5], [math.nan, 0.5], [0.9]):
        with pytest.raises(ValueError, match="probabilities in"):
            cw.product_system(2, probs_up)
    for beta, field in [(89.0, 0.0), (0.0, 94.0), (2.25e307, 0.0)]:  # pi below the floats
        with pytest.raises(ValueError, match="stationary probability") as err:
            cw.glauber_separation_profile(cw.ising_system(2, 2, beta, field), [1])
        assert "np.float64" not in str(err.value)  # a plain float: 3.02899732099947e-310 at 89
    nan_weight = cw.MonotoneSystem(n_sites=2, spins=(-1, 1), log_weight=lambda sigma: math.nan)
    for sys_ in (cw.ising_system(3, 3, 700.0), nan_weight):
        with pytest.raises(ValueError, match=r"probability (0\.0|nan) is") as err:
            cw.glauber_separation_profile(sys_, [1])
        assert "np.float64" not in str(err.value)
    with pytest.raises(CapacityError):
        cw.ising_system(5, 5, beta=0.1)


def test_state_cap_refuses_without_formatting_the_count():
    # 2^30000 has more digits than Python converts to a string by default
    with pytest.raises(CapacityError, match="13 sites"):
        cw.product_system(13)
    many = cw.MonotoneSystem(n_sites=30000, spins=(-1, 1), log_weight=lambda sigma: 0.0)
    with pytest.raises(CapacityError, match=r"2\^30000 configurations"):
        many.configurations()


def test_conditional_values():
    sys_ = cw.ising_system(1, 2, beta=0.0)
    p = conditional_at_site(sys_, (1, 1), 0)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    sys1 = cw.ising_system(1, 2, beta=1.0)
    p = conditional_at_site(sys1, (1, 1), 0)
    expect = math.e / (math.e + math.exp(-1))
    assert p[1] == pytest.approx(expect, abs=1e-12)
    assert p[1] == pytest.approx(0.8808, abs=1e-4)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_product_conditional_ignores_rest():
    sys_ = cw.product_system(3, [0.7, 0.5, 0.2])
    for other in ((1, 1, 1), (1, -1, -1), (-1, -1, 1)):
        p = conditional_at_site(sys_, other, 0)
        assert p[1] == pytest.approx(0.7, abs=1e-12)


def test_glauber_step_inverse_cdf_convention():
    sys_ = cw.ising_system(2, 2, beta=0.3)
    sigma = (1, -1, 1, -1)
    out = glauber_step(sys_, sigma, 1, 0.0)
    assert out[1] == -1  # v=0 picks the minimum spin with positive mass
    assert out[0] == sigma[0] and out[2] == sigma[2]
    out_hi = glauber_step(sys_, sigma, 1, 1.0 - 1e-12)
    assert out_hi[1] == 1


def test_glauber_step_beta_zero_ignores_neighbors():
    sys_ = cw.ising_system(2, 2, beta=0.0)
    for v in (0.2, 0.7):
        results = {
            glauber_step(sys_, sigma, 0, v)[0]
            for sigma in sys_.configurations()
        }
        assert len(results) == 1


@pytest.mark.parametrize("shape,beta", [((2, 2), 0.0), ((2, 2), 0.3), ((2, 2), 1.0),
                                        ((1, 4), 0.3), ((1, 4), 1.0)])
def test_check_monotone_ising(shape, beta):
    sys_ = cw.ising_system(shape[0], shape[1], beta)
    ok, witness = check_monotone(sys_)
    assert ok, witness


def test_check_monotone_product():
    ok, _ = check_monotone(cw.product_system(3))
    assert ok


def test_check_monotone_rejects_antiferromagnet():
    def log_weight(sigma):
        return -1.0 * sigma[0] * sigma[1]

    sys_ = cw.MonotoneSystem(n_sites=2, spins=(-1, 1), log_weight=log_weight)
    ok, witness = check_monotone(sys_)
    assert not ok
    sigma, tau, u = witness
    assert all(a <= b for a, b in zip(sigma, tau))
    # the first violation in comparable_pairs order, then site order
    assert witness == ((-1, -1), (-1, 1), 0)


@pytest.mark.parametrize("shape,beta", [((2, 2), 0.0), ((2, 2), 0.3), ((2, 2), 1.0),
                                        ((1, 4), 0.0), ((1, 4), 0.3), ((1, 4), 1.0)])
def test_grand_coupling_preserves_order(shape, beta):
    sys_ = cw.ising_system(shape[0], shape[1], beta)
    configs = sys_.configurations()
    v_grid = (np.arange(64) + 0.5) / 64
    for sigma, tau in comparable_pairs(configs):
        for u in range(sys_.n_sites):
            for v in v_grid:
                a = glauber_step(sys_, sigma, u, v)
                b = glauber_step(sys_, tau, u, v)
                assert all(x <= y for x, y in zip(a, b))


def site_loop_matrix(sys_):
    """Oracle: P by a direct loop over configs x sites x spins, adding into
    P in the same order as the shared site-move table."""
    configs = sys_.configurations()
    index = {c: i for i, c in enumerate(configs)}
    n = sys_.n_sites
    P = np.zeros((len(configs), len(configs)))
    for i, sigma in enumerate(configs):
        for u in range(n):
            p = conditional_at_site(sys_, sigma, u)
            for s, ps in zip(sys_.spins, p):
                cfg = list(sigma)
                cfg[u] = s
                P[i, index[tuple(cfg)]] += ps / n
    return P


def test_glauber_matrix_stochastic_and_stationary():
    for sys_ in (
        cw.ising_system(2, 2, 0.3),
        cw.ising_system(1, 4, 1.0),
        cw.ising_system(3, 2, 0.3, field=0.2),
        cw.product_system(3, [0.2, 0.5, 0.7]),
    ):
        _, pi, P = cw.glauber_matrix(sys_)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(pi @ P - pi).max() < 1e-10
        assert np.array_equal(P, site_loop_matrix(sys_))


def test_separation_t0_and_two_site_value():
    sys_ = cw.product_system(2)
    s0, _ = cw.glauber_separation_profile(sys_, [0])[0]
    assert s0 == pytest.approx(1.0)
    # independent fair spins: s(t) = P(some site never picked)
    for t in (1, 2, 3, 5):
        s, ratio = cw.glauber_separation_profile(sys_, [t])[t]
        assert s == pytest.approx(cw.coupon_survival_uniform(2, t), abs=1e-12)
        assert s >= ratio - 1e-12
    s2, _ = cw.glauber_separation_profile(sys_, [2])[2]
    assert s2 == pytest.approx(0.5, abs=1e-12)


def test_coupon_survival_values():
    assert cw.coupon_survival_uniform(2, 2) == pytest.approx(0.5)
    assert cw.coupon_survival_uniform(4, 0) == 1.0
    assert cw.coupon_survival_uniform(4, 3) == 1.0  # t < n
    v = cw.coupon_survival_uniform(9, 30)
    assert 0 < v < 1


def test_coupon_survival_matches_mc():
    rng = np.random.default_rng(12)
    n, t, trials = 9, 30, 100_000
    picks = rng.integers(0, n, size=(trials, t))
    p = np.mean([len(set(row)) < n for row in picks])
    exact = cw.coupon_survival_uniform(n, t)
    se = np.sqrt(exact * (1 - exact) / trials)
    assert abs(p - exact) < 4 * se


def test_separation_dominates_coupon_survival():
    for sys_ in (
        cw.ising_system(2, 2, 0.0),
        cw.ising_system(2, 2, 0.3),
        cw.ising_system(1, 4, 0.3),
    ):
        prof = cw.glauber_separation_profile(sys_, range(1, 41))
        for t in range(1, 41):
            assert prof[t][0] >= cw.coupon_survival_uniform(sys_.n_sites, t) - 1e-9


def test_coverage_conditioned_bound():
    # conditioned on all sites selected, the bottom state is not overweighted
    for sys_ in (cw.ising_system(2, 2, 0.3), cw.ising_system(1, 4, 0.3)):
        configs, piv, _ = cw.glauber_matrix(sys_)
        idx = {c: i for i, c in enumerate(configs)}
        _, prof = coverage_conditioned_profile(sys_, range(sys_.n_sites, 31))
        for t, (law, p_cov) in prof.items():
            assert law[idx[sys_.bottom]] <= piv[idx[sys_.bottom]] + 1e-9
            expect_cov = 1.0 - cw.coupon_survival_uniform(sys_.n_sites, t)
            assert p_cov == pytest.approx(expect_cov, abs=1e-10)


def joint_loop_coverage(sys_, t_grid):
    """Oracle: the joint (configuration, picked-site mask) chain stepped by a
    loop over its nonzero cells x sites x spins, with conditional_at_site."""
    configs = sys_.configurations()
    index = {c: i for i, c in enumerate(configs)}
    n, full = sys_.n_sites, (1 << sys_.n_sites) - 1
    joint = np.zeros((len(configs), full + 1))
    joint[index[sys_.top], 0] = 1.0
    out = {}
    for t in range(max(t_grid) + 1):
        if t in t_grid:
            covered = joint[:, full]
            out[t] = (covered / covered.sum(), covered.sum())
        nxt = np.zeros_like(joint)
        for i, mask in zip(*np.nonzero(joint)):
            for u in range(n):
                p = conditional_at_site(sys_, configs[i], u)
                for s, ps in zip(sys_.spins, p):
                    cfg = list(configs[i])
                    cfg[u] = s
                    nxt[index[tuple(cfg)], mask | (1 << u)] += joint[i, mask] * ps / n
        joint = nxt
    return out


def three_spin_path():
    """Four sites on a path with spins 0, 1, 2: ferromagnetic, with an end
    bias that keeps the path's reversal and breaks spin reversal."""
    def log_weight(sigma):
        return 0.4 * sum(x * y for x, y in zip(sigma, sigma[1:])) - 0.3 * (sigma[0] + sigma[3])
    return cw.MonotoneSystem(n_sites=4, spins=(0, 1, 2), log_weight=log_weight,
                             name="path3", symmetries=((3, 2, 1, 0),))


@pytest.mark.parametrize("sys_", [cw.ising_system(2, 2, 0.3), cw.ising_system(1, 4, 0.3),
                                  cw.ising_system(3, 2, 0.3, field=0.2),
                                  cw.product_system(3, [0.2, 0.5, 0.7]), three_spin_path()],
                         ids=lambda s: s.name + str(s.n_sites))
def test_coverage_matches_joint_chain_loop(sys_):
    t_grid = list(range(sys_.n_sites, sys_.n_sites + 8))
    want = joint_loop_coverage(sys_, t_grid)
    configs, got = coverage_conditioned_profile(sys_, t_grid)
    assert configs == sys_.configurations()
    for t in t_grid:
        assert np.abs(got[t][0] - want[t][0]).max() <= 1e-14
        assert got[t][1] == pytest.approx(want[t][1], abs=1e-14)


def test_one_log_weight_call_per_configuration():
    def counted(sys_):
        def log_weight(sigma):
            calls.append(sigma)
            return sys_.log_weight(sigma)
        return dataclasses.replace(sys_, log_weight=log_weight)

    calls = []
    cw.glauber_matrix(counted(cw.ising_system(5, 2, 0.3)))
    assert len(calls) == len(set(calls)) == 1024


def test_systems_need_a_site():
    for build in (lambda: cw.ising_system(0, 3, 0.3), lambda: cw.ising_system(2, -1, 0.3),
                  lambda: cw.product_system(0)):
        with pytest.raises(ValueError, match="at least one site"):
            build()


def test_monotone_lower_bounds_values():
    b = cw.monotone_lower_bounds(9, 1.0)
    assert b.sep_time == pytest.approx(9 * math.log(9) - 9, abs=1e-3)
    assert b.sep_time == pytest.approx(10.775, abs=1e-3)
    assert b.sep_bound == pytest.approx(1 - math.exp(-math.e), abs=1e-12)
    assert b.sep_bound == pytest.approx(0.93402, abs=1e-5)
    assert b.tv_bound == pytest.approx(b.sep_bound / 4, abs=1e-15)
    big = cw.monotone_lower_bounds(9, 20.0)
    assert big.sep_bound == pytest.approx(1.0)
    assert big.tv_bound == pytest.approx(0.25)
    for c in (0.5, 6.6, 6.7, 709.0, 709.78):  # the formula, bit for bit, while e^c is finite
        assert cw.monotone_lower_bounds(9, c).sep_bound == 1.0 - math.exp(-math.exp(c))
    for c in (710.0, 1e300):  # past it e^c overflows, and the bounds are 1 and 1/4 exactly
        big = cw.monotone_lower_bounds(9, c)
        assert (big.sep_bound, big.tv_bound) == (1.0, 0.25)
    with pytest.raises(ValueError):
        cw.monotone_lower_bounds(9, 0.0)
    with pytest.raises(ValueError, match="c=nan"):
        cw.monotone_lower_bounds(9, math.nan)


def _count_chain_survival(n, ts):
    """P(some of n sites unpicked after t uniform picks), by evolving the law
    of the number of distinct sites picked."""
    law, k, out = np.zeros(n + 1), np.arange(n + 1), {}
    law[0] = 1.0
    for t in range(1, max(ts) + 1):
        law = law * k / n + np.concatenate([[0.0], law[:-1] * (n - k[:-1]) / n])
        if t in ts:
            out[t] = 1.0 - law[n]
    return out


def test_coupon_survival_does_not_cancel_at_large_n():
    for n, grid in ((200, range(200, 401)), (60, range(60, 737))):
        for t, p in _count_chain_survival(n, grid).items():
            assert cw.coupon_survival_uniform(n, t) == pytest.approx(p, abs=1e-12), (n, t)
    assert cw.coupon_survival_uniform(1000, 1000) == pytest.approx(
        _count_chain_survival(1000, [1000])[1000], abs=1e-12)


def _inclusion_exclusion_survival(n, t):
    """P(some of n sites unpicked after t uniform picks), as 1 minus the
    exact integer inclusion-exclusion sum_j (-1)^j C(n, j) (n - j)^t / n^t,
    rounded once."""
    covered = sum((-1) ** j * math.comb(n, j) * (n - j) ** t for j in range(n + 1))
    return float(1 - Fraction(covered, n**t))


def test_coupon_survival_matches_exact_inclusion_exclusion():
    # an oracle that shares nothing with the count chain the program reads
    # where its float sum cancels (t up to about 940 at n = 200)
    for t in range(200, 940, 7):
        assert cw.coupon_survival_uniform(200, t) == pytest.approx(
            _inclusion_exclusion_survival(200, t), abs=1e-12), t


def test_coupon_survival_cut_at_k_sites():
    # P(fewer than k of n sites picked), against exact Fractions of the
    # subsets of sites the picks can cover
    n = 6
    for k in range(n + 1):
        for t in {0, max(k - 1, 0), k, 9, 25}:
            short = sum(math.comb(n, j) * sum((-1) ** (j - i) * math.comb(j, i) * i**t
                                              for i in range(j + 1)) for j in range(k))
            assert cw.coupon_survival_uniform(n, t, k) == pytest.approx(
                float(Fraction(short, n**t)), abs=1e-15), (k, t)
    with pytest.raises(ValueError, match="0 <= k <= n"):
        cw.coupon_survival_uniform(n, 9, n + 1)
    with pytest.raises(ValueError, match="1 <= d <= n"):
        cw.coupon_survival_uniform(n, 9, n, n + 1)


def test_coupon_survival_checks_t_before_any_binomial():
    # C(1030, j) overflows a float; t < n still means no site is missed yet
    assert cw.coupon_survival_uniform(1030, 0) == 1.0
    assert cw.coupon_survival_uniform(1031, 0) == 1.0
    assert cw.coupon_survival_uniform(1031, 1030) == 1.0
    with pytest.raises(ValueError, match="negative time"):
        cw.coupon_survival_uniform(1030, -2)


def test_coupon_chain_refuses_past_its_cell_cap_before_any_allocation():
    held = held_chains(glauber._CHAINS)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cells exceeds cap"):
            cw.coupon_survival_uniform(10**6, 10**6 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the chain's law alone would take 8 MB
    assert held_chains(glauber._CHAINS) == held


def test_coupon_chain_refuses_a_large_k_without_its_horizon():
    # the curve is 1 up to t = k, so k + 1 points of k states x 2 moves past the cap refuse
    # before the horizon's C(n, n - k + 1), here a million-bit integer, is formed
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cells exceeds cap"):
            cw.coupon_survival_uniform(10**6, 10**6, 5 * 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_count_chain_refuses_on_states_and_moves_before_any_binomial(monkeypatch):
    # 100 000 coupons, 50 000 a step: 1e5 states x 50 001 moves a step pass the cap
    # over the 3 points before the curve can leave 1; the hypergeometric table would
    # hold 5e9 floats, and the horizon read C(100 000, 50 000)
    def refuse(*args):
        raise AssertionError("a binomial was read")

    monkeypatch.setattr(glauber, "_horizon", refuse)
    monkeypatch.setattr(glauber, "_hypergeometric", refuse)
    with pytest.raises(CapacityError, match="cells exceeds cap"):
        cw.sample_kset_coupon_T(100_000, 50_000, 10, 0)
    with pytest.raises(CapacityError, match="cells exceeds cap"):
        cw.coupon_survival_uniform(100_000, 2, d=50_000)


def _one(n, d, need):
    """The count chain's key for n sites of one weight, d a step, cut at need."""
    return ((n, 1),), d, need


def test_coupon_curve_ends_at_its_first_zero():
    glauber._CHAINS.clear()
    assert cw.coupon_survival_uniform(9, 10**9) == 0.0
    curve = glauber._count_chain(_one(9, 1, 9))()
    assert curve[-1] == 0.0 and min(curve[:-1]) > 0.0  # no longer than its first zero
    assert len(curve) < 8192 and min(curve[:-1]) < 1e-307
    # every later t reads 0 without growing the curve
    size = len(curve)
    assert cw.coupon_survival_uniform(9, size) == cw.coupon_survival_uniform(9, 10**12) == 0.0
    assert len(glauber._count_chain(_one(9, 1, 9))()) == size


def test_coupon_curve_is_kept_per_n_and_grown_in_place():
    glauber._CHAINS.clear()
    first = cw.coupon_survival_uniform(60, 500)
    curve = glauber._count_chain(_one(60, 1, 60))()
    assert len(curve) == 501  # stepped to t = 500, no further
    prefix = curve.tolist()
    cw.coupon_survival_uniform(200, 3000)
    cw.coupon_survival_uniform(60, 1000)  # a second n neither evicts nor rebuilds the first
    assert glauber._count_chain(_one(60, 1, 60))() is curve and len(curve) == 1001
    assert curve[:501].tolist() == prefix and curve[500] == first
    assert list(glauber._CHAINS) == [_one(200, 1, 200), _one(60, 1, 60)]  # two chains built


def test_a_read_the_curve_covers_is_one_lookup(monkeypatch):
    # grown past t at the default cap, a read neither counts cells nor builds, grows or
    # looks up a chain: the cap check is one product, and the value a keyed index
    glauber._CHAINS.clear()
    want = {t: cw.coupon_survival_uniform(200, t) for t in (199, 200, 1000, 2500)}
    spec = cw.TsetlinSpec([1 / 12] * 3 + [1 / 4] * 3)
    tsetlin = cw.tsetlin_survival_profile(spec, range(1, 61))
    held, calls = held_chains(glauber._CHAINS), collections.Counter()

    def counted(name, fn):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    for name in ("_chain_cells", "_step_cells", "_horizon", "_count_chain", "_hypergeometric"):
        monkeypatch.setattr(glauber, name, counted(name, getattr(glauber, name)))
    assert {t: cw.coupon_survival_uniform(200, t) for t in want} == want
    assert cw.tsetlin_survival_profile(spec, range(1, 61)) == tsetlin
    assert not calls and held_chains(glauber._CHAINS) == held
    assert cw.coupon_survival_uniform(200, 2501) < want[2500]  # past the curve: grown once
    assert calls == {"_count_chain": 1}


def _curve(key, t):
    """The first t + 1 points of the curve of _count_chain(key), grown in place."""
    return glauber._count_chain(key)(t + 1)[:t + 1].tolist()


def _two_line_recurrence(n, k, t):
    """The single-site curve cut at k sites, as two numpy lines a step: the
    chance of j distinct sites at law[1 + j], j <= k, behind a 0."""
    law, out = np.eye(1, k + 2, 1)[0], [float(k > 0)]
    stay, up = np.arange(k + 1) / n, np.arange(n + 1, n - k, -1) / n
    while len(out) <= t and out[-1]:
        law[1:] = law[1:] * stay + law[:-1] * up
        law[law < np.finfo(float).tiny] = 0.0
        out.append(min(float(law[1:-1].sum()), 1.0))
    return out


def test_single_site_count_chain_values_are_pinned_bit_for_bit():
    glauber._CHAINS.clear()
    curve = _curve(_one(60, 1, 60), 500)
    assert [curve[t].hex() for t in (60, 200, 500)] == [
        "0x1.0000000000000p+0", "0x1.ca90e70a480e7p-1", "0x1.b605b35bf5399p-7"]
    assert _curve(_one(500, 1, 499), 4000)[4000].hex() == "0x1.9089f5361e16fp-7"


@pytest.mark.parametrize("n, k, t", [(60, 60, 3000), (500, 499, 6000), (9, 9, 7000)])
def test_single_site_count_chain_is_the_two_line_recurrence_bit_for_bit(n, k, t):
    # (9, 9) runs to its first 0, at t = 6034, through the cut at 2^-1022
    glauber._CHAINS.clear()
    want = _two_line_recurrence(n, k, t)
    assert len(want) == (6035 if n == 9 else t + 1)
    assert _curve(_one(n, 1, k), t) == want


@pytest.mark.parametrize("m, k", [(8, 2), (9, 3), (10, 5), (12, 2)])
def test_kset_count_chain_matches_the_mobius_form(m, k):
    # P(T > t) of hypercube-nonlocal(m, k) by the float sum of survival_terms over its
    # flats, which shares no code with the chain of k coupons a step
    times, w = np.arange(1, 61), cw.hypercube_nonlocal_faces(m, k)
    c, q = np.array(cw.exact.survival_terms(cw.build_boolean(m), w)).T
    mobius = (c * q ** times[:, np.newaxis]).sum(axis=1)
    assert np.allclose(_curve(_one(m, k, m), 60)[1:], mobius, rtol=0, atol=1e-13)


def _card_horizon(n):
    """The equal-weight card sampler's step bound as it was first written: the
    first t with C(n, 2) (1 - 2/n)^t < 2^-53, and n - 1 below three cards."""
    if n < 3:
        return n - 1
    return math.floor((math.log(math.comb(n, 2)) + 53 * math.log(2)) / -math.log1p(-2 / n)) + 1


def test_horizon_is_the_card_bound_and_the_curve_is_below_p_there():
    assert all(glauber._horizon(_one(n, 1, n - 1), 2.0**-53) == _card_horizon(n)
               for n in range(1, 20_001))
    # at 2^-1022 the union bound ends the curve of 9 sites exactly at its first 0
    glauber._CHAINS.clear()
    key = _one(9, 1, 9)
    assert glauber._horizon(key, 2.0**-1022) == 6034 == _curve(key, 7000).index(0.0)
    for key in [_one(60, 1, 60), _one(500, 1, 499), _one(7, 1, 3), _one(512, 2, 512),
                (((8, 1), (8, 3)), 1, 15), (((2, 1), (3, 5), (1, 9)), 1, 4)]:  # r lightest
        for p in (2.0**-53, 1e-4):
            t = glauber._horizon(key, p)
            assert _curve(key, t)[t] < p, (key, p)


@pytest.mark.parametrize("key, trials", [(_one(500, 1, 499), 100_000),
                                         (_one(512, 2, 512), 20_000)])
def test_chain_T_is_the_searchsorted_count_draw_for_draw(key, trials):
    # the guide-table search against one np.searchsorted on the curve's
    # running minimum, over the curve the call grew
    v = 1.0 - np.random.default_rng(81).random(trials)
    T = glauber._chain_T(key, v)
    rising = np.minimum.accumulate(glauber._count_chain(key)())[::-1]
    assert np.array_equal(T, len(rising) - np.searchsorted(rising, v))
    assert v.min() > rising[0] or rising[0] == 0.0  # the curve reached below every V


def test_count_chain_mass_past_one_raises_at_every_read_past_the_curve(monkeypatch):
    table = glauber._hypergeometric
    glauber._CHAINS.clear()
    try:
        with monkeypatch.context() as patch:  # every jump chance inflated while (5, 2, 5) is built
            patch.setattr(glauber, "_hypergeometric", lambda *key: table(*key) * 1.25)
            grown = glauber._count_chain(_one(5, 2, 5))
        with pytest.raises(RuntimeError, match=r"\(\(\(5, 1\),\), 2, 5\) at t=1: mass .* > 1"):
            grown(3)
        # later reads of the key, by either path, raise again and return no value
        for read in (lambda: cw.coupon_survival_uniform(5, 7, 5, 2),
                     lambda: glauber._chain_T(_one(5, 2, 5), np.array([0.5]))):
            with pytest.raises(RuntimeError, match="mass"):
                read()
        assert grown().tolist() == [1.0]  # no point was kept past the last good one
    finally:
        glauber._CHAINS.clear()


def orbit_count(n_sites, site_maps, reversal):
    """Orbits of the +-1 configurations under the site permutations (site u
    to p[u]) and, if reversal, the flip of every spin, by search."""
    moves = [lambda c, p=p: tuple(c[p.index(u)] for u in range(n_sites)) for p in site_maps]
    moves += [lambda c: tuple(-x for x in c)] * reversal
    seen, count = set(), 0
    for c in itertools.product((-1, 1), repeat=n_sites):
        count += c not in seen
        frontier = [c]
        while frontier:
            if (x := frontier.pop()) not in seen:
                seen.add(x)
                frontier += [move(x) for move in moves]
    return count


def every_row_profile(sys_, t_grid):
    """Oracle: s(t) and the top-to-bottom ratio from every row of P^t."""
    configs, pi, P = cw.glauber_matrix(sys_)
    top, bottom = configs.index(sys_.top), configs.index(sys_.bottom)
    Pt, out = np.eye(len(P)), {}
    for t in range(max(t_grid) + 1):
        if t in t_grid:
            out[t] = ((1.0 - (Pt / pi).min(axis=1)).max(), 1.0 - Pt[top, bottom] / pi[bottom])
        Pt = Pt @ P
    return out


def test_glauber_walks_one_start_per_orbit_and_top():
    assert cw.ising_system(3, 2, 0.3).symmetries == ((2, 1, 0, 5, 4, 3), (3, 4, 5, 0, 1, 2))
    assert len(cw.ising_system(3, 3, 0.3).symmetries) == 3  # two reflections, the transpose
    for (width, height), field, starts in [((5, 2), 0.0, 153), ((3, 3), 0.0, 52),
                                           ((3, 2), 0.0, None), ((3, 2), 0.2, None)]:
        sys_, stats = cw.ising_system(width, height, 0.3, field=field), {}
        got = cw.glauber_separation_profile(sys_, range(0, 12), stats=stats)
        # a field breaks spin reversal; without it, top shares bottom's orbit
        # and is walked besides the orbit's least state, bottom
        want = orbit_count(sys_.n_sites, sys_.symmetries, field == 0) + (field == 0)
        assert stats == {"states": 2**sys_.n_sites, "starts": want}
        assert starts in (None, want)
        if sys_.n_sites <= 6:
            every_row = every_row_profile(sys_, range(0, 12))
            for t in range(12):
                assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13


def test_glauber_rejects_a_site_permutation_that_moves_the_weight():
    # sites 0 and 1 share their bias, site 2 does not; no bias is 1/2
    sys_ = cw.product_system(3, [0.7, 0.7, 0.2])
    for symmetries, starts in [((), 8), (((0, 2, 1),), 8), (((0, 2, 1), (1, 0, 2)), 6)]:
        stats = {}
        got = cw.glauber_separation_profile(
            dataclasses.replace(sys_, symmetries=symmetries), range(0, 10), stats=stats)
        assert stats == {"states": 8, "starts": starts}
        every_row = every_row_profile(sys_, range(0, 10))
        for t in range(10):
            assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13


@pytest.mark.parametrize("sys_", [cw.ising_system(3, 1, 0.3), cw.ising_system(1, 1, 0.3),
                                  cw.product_system(5, [0.2, 0.5, 0.7, 0.4, 0.9]),
                                  cw.product_system(1, [0.3]),
                                  cw.ising_system(3, 2, 0.3, field=0.2), three_spin_path()],
                         ids=lambda s: s.name + str(s.n_sites))
def test_block_walk_matches_every_row_of_the_dense_power(sys_):
    # odd n gives halves of unequal size, n = 1 an empty high half, a field no
    # spin reversal, and three spins a mixed-radix split
    got = cw.glauber_separation_profile(sys_, range(0, 15))
    every_row = every_row_profile(sys_, range(0, 15))
    for t in range(15):
        assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13


def three_spin_ring():
    """Five sites on a ring with spins 0, 1, 2 and a bias at site 0: halves of
    9 and 27 states, and the ring's reflection through site 0 as a symmetry."""
    def log_weight(sigma):
        return 0.5 * sum(x * y for x, y in zip(sigma, sigma[1:] + sigma[:1])) - 0.2 * sigma[0]
    return cw.MonotoneSystem(n_sites=5, spins=(0, 1, 2), log_weight=log_weight,
                             name="ring3", symmetries=((0, 4, 3, 2, 1),))


@pytest.mark.parametrize("sys_", [three_spin_ring(), cw.ising_system(3, 2, 0.4, field=-0.3)],
                         ids=lambda s: s.name + str(s.n_sites))
def test_block_walk_reads_each_time_before_the_next_step(sys_):
    # the walk steps two buffers in turn: a grid that repeats, skips and runs
    # backwards must still read each time off its own step, before the next
    # step overwrites the other buffer
    stats = {}
    got = cw.glauber_separation_profile(sys_, [0, 3, 1, 3, 7], stats=stats)
    assert list(got) == [0, 1, 3, 7] and 1 < stats["starts"] < stats["states"]
    every_row = every_row_profile(sys_, range(8))
    for t in got:
        assert np.abs(np.subtract(got[t], every_row[t])).max() <= 1e-13, t


@pytest.mark.parametrize("n, d", [(8, 2), (10, 3), (12, 4), (64, 5), (600, 300), (1022, 511)])
def test_hypergeometric_table_is_the_comb_formula_bit_for_bit(n, d):
    # every column to n = 40; past that 41 columns, as the whole table at (1022, 511) would
    # take some 10 s of math.comb
    cols = [*range(0, n, -(-n // 40)), n]
    want = [[math.comb(n - j, i) * math.comb(j, d - i) / math.comb(n, d) for j in cols]
            for i in range(d + 1)]
    got = glauber._hypergeometric(n, d, n + 1)
    assert got.shape == (d + 1, n + 1) and np.array_equal(got[:, cols], want)
    assert np.array_equal(glauber._hypergeometric(n, d, n // 2), got[:, :n // 2])


def test_glauber_profile_builds_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense P built")

    monkeypatch.setattr(glauber, "glauber_matrix", refuse)
    stats = {}
    prof = cw.glauber_separation_profile(cw.ising_system(3, 3, 0.3), range(1, 41), stats=stats)
    assert stats == {"states": 512, "starts": 52}
    assert sorted(prof) == list(range(1, 41))
