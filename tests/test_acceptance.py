"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s pytest shows them for failing criteria only.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import chamberwalk as cw
from chamberwalk.cli import main as cli_main
from chamberwalk.walk import survival_from_samples

from reference import check_monotone, comparable_pairs, face_product, glauber_step
from reference import coverage_conditioned_profile, permutation_to_chamber
from reference import stationary_without_replacement


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def tsetlin(weights):
    spec = cw.TsetlinSpec(weights)
    return cw.build_braid(spec.n), cw.tsetlin_faces(spec)


def max_profile_gap(arr, w, t_grid, signed=False):
    """Max of sep-surv mismatch over the grid: absolute gap, or the signed
    excess surv - sep when only the inequality is claimed."""
    sep = cw.separation_profile(arr, w, t_grid)
    surv = cw.survival_exact_profile(arr, w, t_grid)
    if signed:
        return max(surv[t] - sep[t] for t in t_grid)
    return max(abs(surv[t] - sep[t]) for t in t_grid)


def test_criterion_01_equality_for_invariant_weights():
    families = [
        tsetlin([1 / 3] * 3),
        tsetlin([0.25] * 4),
        (cw.build_braid(4), cw.riffle_faces(4, 2)),
        (cw.build_braid(5), cw.riffle_faces(5, 2)),
        (cw.build_braid(3), cw.top_bottom_faces(3)),
        (cw.build_braid(4), cw.top_bottom_faces(4)),
    ] + [
        (cw.build_boolean(n), cw.hypercube_nn_faces([1 / (2 * n)] * n, [1 / (2 * n)] * n))
        for n in range(2, 7)
    ]
    worst = max(max_profile_gap(arr, w, range(1, 31)) for arr, w in families)
    report(1, worst <= 1e-9, f"sep==surv on 11 invariant families, max gap {worst:.2e}")


def test_criterion_02_inequality_for_general_weights():
    families = [
        tsetlin([0.5, 0.3, 0.2]),
        tsetlin([0.4, 0.3, 0.2, 0.1]),
        (
            cw.build_boolean(3),
            cw.hypercube_nn_faces([0.3, 0.1, 0.05], [0.2, 0.15, 0.2]),
        ),
    ]
    worst = max(
        max_profile_gap(arr, w, range(1, 41), signed=True) for arr, w in families
    )
    report(2, worst <= 1e-9, f"surv<=sep on asymmetric families, max excess {worst:.2e}")


def luce_mass(weights, order):
    """Probability of a deck order (top card first) when cards are drawn
    without replacement with probability proportional to their weights."""
    p, rest = 1, 1
    for card in order:
        p *= weights[card] / rest
        rest -= weights[card]
    return p


def mtf_enumeration(weights, t):
    """Exact (s(t), P(T > t)) for move-to-front by rational path enumeration.

    Every card sequence of length t is applied to every start order and the
    law is compared with the Luce stationary law (top card drawn first, with
    probability proportional to its weight). T is the first time n-1
    distinct cards have been touched. No transition matrix is used.
    """
    n = len(weights)
    orders = list(itertools.permutations(range(n)))
    pi = {order: luce_mass(weights, order) for order in orders}
    paths = [
        (seq, math.prod(weights[card] for card in seq))
        for seq in itertools.product(range(n), repeat=t)
    ]
    sep = Fraction(0)
    for start in orders:
        law = dict.fromkeys(orders, Fraction(0))
        for seq, p in paths:
            deck = list(start)
            for card in seq:
                deck.remove(card)
                deck.insert(0, card)
            law[tuple(deck)] += p
        sep = max(sep, 1 - min(law[x] / pi[x] for x in orders))
    surv = sum(p for seq, p in paths if len(set(seq)) < n - 1)
    return sep, surv


def test_criterion_03_card_collection_identity():
    # P(first time n-1 distinct cards touched > t) equals the move-to-front
    # separation distance for uniform weights only; for general weights it
    # is a lower bound, and the gap is pinned by exact enumeration at t <= 4.
    # The false general claim is recorded by the strict xfail
    # tests/test_gallery.py::test_card_collection_equality_nonuniform.
    uniform = [[Fraction(1, 3)] * 3, [Fraction(1, 4)] * 4]
    skewed = [
        [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
        [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)],
    ]
    grid = range(1, 41)
    eq_gap = excess = enum_err = 0.0
    for weights in uniform + skewed:
        floats = [float(x) for x in weights]
        arr, w = tsetlin(floats)
        sep = cw.separation_profile(arr, w, grid)
        surv = cw.tsetlin_survival_profile(cw.TsetlinSpec(floats), grid)
        if weights in uniform:
            eq_gap = max(eq_gap, max(abs(surv[t] - sep[t]) for t in grid))
            continue
        excess = max(excess, max(surv[t] - sep[t] for t in grid))
        for t in range(1, 5):
            s_t, p_t = mtf_enumeration(weights, t)
            enum_err = max(
                enum_err, abs(sep[t] - float(s_t)), abs(surv[t] - float(p_t))
            )
    # the gap is pinned twice: by enumeration, and for n = 3 by hand, where
    # s(2) = max w_i and P(T > 2) = sum w_i^2
    weights = skewed[0]
    s_2, p_2 = mtf_enumeration(weights, 2)
    hand_gap = max(weights) - sum(x * x for x in weights)
    ok = (
        eq_gap <= 1e-9
        and excess <= 1e-9
        and enum_err <= 1e-12
        and s_2 - p_2 == hand_gap == Fraction(3, 25)
    )
    report(
        3,
        ok,
        f"uniform survival == separation, max gap {eq_gap:.2e}; off-uniform "
        f"max excess surv-sep {excess:.2e}, enumeration error t<=4 "
        f"{enum_err:.2e}, s(2)-P(T>2)={s_2 - p_2} at (0.5,0.3,0.2)",
    )


def test_criterion_04_spot_values():
    # [DERIVED] oracle: all 16 equally likely face pairs on Boolean(2)
    arr = cw.build_boolean(2)
    w = cw.hypercube_nn_faces([0.25, 0.25], [0.25, 0.25])
    law = {c: 0.0 for c in arr.chambers}
    for f1, p1 in zip(w.faces, w.weights):
        for f2, p2 in zip(w.faces, w.weights):
            law[face_product(f2, face_product(f1, (1, 1)))] += p1 * p2
    oracle_s2 = 1.0 - min(law.values()) / 0.25
    ok = (
        oracle_s2 == 0.5
        and abs(cw.separation_profile(arr, w, [2])[2] - 0.5) <= 1e-12
        and cw.survival_exact_profile(arr, w, [2])[2] == 0.5
    )
    arr3, w3 = tsetlin([1 / 3] * 3)
    s2 = cw.separation_profile(arr3, w3, [2])[2]
    ok = ok and abs(s2 - 1 / 3) <= 1e-12
    report(4, ok, f"Boolean(2) s(2)=0.5 exact; move-to-front(3) s(2)={s2:.12f}")


def test_criterion_05_stationary_two_oracle():
    cases = [
        tsetlin([1 / 3] * 3),
        tsetlin([0.5, 0.3, 0.2]),
        (cw.build_boolean(2), cw.hypercube_nn_faces([0.25] * 2, [0.25] * 2)),
    ]
    worst = 0.0
    for arr, w in cases:
        a = cw.stationary_solve(arr, w)
        b = stationary_without_replacement(arr.chambers, w.faces, w.weights)
        worst = max(worst, float(np.abs(a - b).max()))
    # Luce check: sampling without replacement proportional to weights
    weights = [0.5, 0.3, 0.2]
    arr, w = tsetlin(weights)
    pi = cw.stationary_solve(arr, w)
    luce_gap = 0.0
    for perm in itertools.permutations(range(3)):
        got = pi[arr.chamber_index(permutation_to_chamber(perm))]
        luce_gap = max(luce_gap, abs(got - luce_mass(weights, perm)))
    report(
        5,
        worst <= 1e-10 and luce_gap <= 1e-10,
        f"two-oracle gap {worst:.2e}, Luce gap {luce_gap:.2e}",
    )


def test_criterion_06_coupling_parameters():
    cp = cw.coupling_parameters(cw.riffle_faces(4, 2))
    ok = cp.uniform_b == 0.5 and cp.uniform_d == 0.25
    detail = [f"riffle b={cp.uniform_b} d={cp.uniform_d}"]
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        b, d = cw.kset_coupling_closed_form(n, k)
        ok = ok and b == k / n
        ok = ok and d == k**2 / n**2 - k * (n - k) / (n**2 * (n - 1))
        cp = cw.coupling_parameters(cw.hypercube_nonlocal_faces(n, k))
        ok = (
            ok
            and abs(cp.uniform_b - b) <= 1e-12
            and abs(cp.uniform_d - d) <= 1e-12
        )
        detail.append(f"(n={n},k={k}) b={b:.6g} d={d:.6g}")
    report(6, ok, "; ".join(detail))


def test_criterion_07_cutoff_profile_large_hypercube():
    n, k, trials = 512, 2, 100_000
    b, d = cw.kset_coupling_closed_form(n, k)
    pred = cw.cutoff_prediction(b, d, n)
    samples = cw.sample_kset_coupon_T(n, k, trials, seed=2026)
    lo = int(math.floor(pred.time - 3 * pred.window))
    hi = int(math.ceil(pred.time + 3 * pred.window))
    est = survival_from_samples(samples, [lo, hi])
    p_lo, p_hi = est.p_hat[0], est.p_hat[1]
    report(
        7,
        p_lo >= 0.9 and p_hi <= 0.1,
        f"n=512 k=2: P(T>{lo})={p_lo:.4f} (need >=0.9), "
        f"P(T>{hi})={p_hi:.4f} (need <=0.1)",
    )


def test_criterion_08_bound_sandwich_asymptotic_target():
    spec = cw.TsetlinSpec([1.0 / 500] * 500)
    samples = cw.sample_card_collection_T(spec, 100_000, seed=11)
    ok, parts = True, []
    for c in (3.0, 4.0, 5.0):
        rep = cw.tsetlin_bounds(spec, c, strict=False)
        # T >= 1, so P(T > t) = 1 at every t <= 0: a negative lower time reads t = 0
        t_hi, t_lo = math.ceil(rep.upper_time), max(math.ceil(rep.lower_time), 0)
        est = survival_from_samples(samples, [t_lo, t_hi])
        p_lo, se_lo = est.p_hat[0], est.std_err[0]
        p_hi, se_hi = est.p_hat[1], est.std_err[1]
        ok_c = (p_hi <= rep.upper_value + 4 * se_hi) and (
            p_lo >= rep.lower_value - 4 * se_lo
        )
        ok = ok and ok_c
        parts.append(
            f"c={c:g}: {p_hi:.4f}<={rep.upper_value:.4f}+, "
            f"{p_lo:.4f}>={rep.lower_value:.4f}-"
        )
    report(8, ok, "asymptotic-target sandwich n=500; " + "; ".join(parts))


def test_criterion_09_glauber_suite():
    ok, notes = True, []
    v_grid = (np.arange(64) + 0.5) / 64
    for shape in ((2, 2), (1, 4)):
        for beta in (0.0, 0.3):
            sys_ = cw.ising_system(shape[0], shape[1], beta)
            mono, _ = check_monotone(sys_)
            ok = ok and mono
            configs = sys_.configurations()
            for sigma, tau in comparable_pairs(configs):
                for u in range(sys_.n_sites):
                    for v in v_grid:
                        a = glauber_step(sys_, sigma, u, v)
                        bb = glauber_step(sys_, tau, u, v)
                        ok = ok and all(x <= y for x, y in zip(a, bb))
            prof = cw.glauber_separation_profile(sys_, range(1, 61))
            for t in range(1, 61):
                ok = ok and prof[t][0] >= cw.coupon_survival_uniform(4, t) - 1e-9
            # conditional inequality is vacuous before every site can be hit
            _, piv, _ = cw.glauber_matrix(sys_)
            cfgs, cprof = coverage_conditioned_profile(
                sys_, range(sys_.n_sites, 51)
            )
            i_bot = cfgs.index(sys_.bottom)
            for t, (law, _) in cprof.items():
                ok = ok and law[i_bot] <= piv[i_bot] + 1e-12
            notes.append(f"{sys_.name} beta={beta:g}")
    report(9, ok, "monotone+coupling+coupon+conditional on " + ", ".join(notes))


def test_criterion_10_deterministic_csv(tmp_path):
    runs = {
        "mc-kset": [
            "mc", "--family", "hypercube-nonlocal", "--params", "n=64", "k=2",
            "--t-grid", "20..200..20", "--trials", "20000", "--seed", "8",
        ],
        "mc-cards": [
            "mc", "--family", "tsetlin", "--params", "n=100",
            "--t-grid", "100..700..100", "--trials", "20000", "--seed", "8",
        ],
        "bounds": [
            "bounds", "--family", "tsetlin", "--params", "n=500", "c=4",
            "--t-grid", "1..2", "--trials", "20000", "--seed", "8",
        ],
        "cutoff": [
            "cutoff", "--family", "riffle", "--params", "n=6", "a=2",
            "--trials", "20000", "--seed", "8",
        ],
    }
    ok, parts = True, []
    for tag, argv in runs.items():
        a, b = tmp_path / f"{tag}-a.csv", tmp_path / f"{tag}-b.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        ok = ok and same
        parts.append(f"{tag}:{'identical' if same else 'DIFFERS'}")
    report(10, ok, "seeded rerun CSVs " + ", ".join(parts))
