"""Tests of the benchmark itself: oracles against each other and against
brute-force enumeration, and every operation's check against perturbed
outputs.

Run from the root of the repository:  python3 -m pytest bench -q
(about a minute: the check tests run one pass of every workload).
"""

import itertools
import math
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

TS = list(range(0, 41))


def assert_same(a, b, tol=1e-12):
    assert a.keys() == b.keys()
    for t in a:
        assert abs(a[t] - b[t]) <= tol, (t, a[t], b[t])


# ---------------------------------------------------------------- oracles


def test_count_chain_matches_exact_inclusion_exclusion():
    n = 7
    for t in (7, 10, 20, 40):
        exact = sum((-1) ** (j + 1) * math.comb(n, j) * Fraction(n - j, n) ** t
                    for j in range(1, n + 1))
        assert abs(oracles.count_chain_survival(n, n, [t])[t] - float(exact)) <= 1e-14


def test_two_class_chain_with_equal_weights_is_the_count_chain():
    for need in (5, 6):
        assert_same(oracles.two_class_chain_survival(2, 1 / 6, 4, 1 / 6, need, TS),
                    oracles.count_chain_survival(6, need, TS))


def test_kset_chain_with_k1_is_the_count_chain():
    assert_same(oracles.kset_chain_survival(9, 1, TS), oracles.count_chain_survival(9, 9, TS))


def test_refinement_chain_with_k1_is_the_count_chain_for_n_minus_1():
    assert_same(oracles.refinement_chain_survival(6, 1, TS),
                oracles.count_chain_survival(6, 5, TS))


def brute_force_survival(n, picks, t, done):
    """P(not done after t steps) by enumerating every sequence of picks;
    ``picks`` is a list of (touched set, probability)."""
    alive = 0.0
    for seq in itertools.product(picks, repeat=t):
        touched = set().union(*(s for s, _ in seq)) if seq else set()
        if not done(touched, seq):
            alive += math.prod(p for _, p in seq)
    return alive


def test_kset_chain_matches_enumeration():
    n, k = 5, 2
    subsets = [(set(s), 1 / math.comb(n, k)) for s in itertools.combinations(range(n), k)]
    for t in range(0, 5):
        want = brute_force_survival(n, subsets, t, lambda touched, _: len(touched) == n)
        assert abs(oracles.kset_chain_survival(n, k, [t])[t] - want) <= 1e-12


def test_two_class_chain_matches_enumeration():
    w = [0.3, 0.3, 0.1, 0.1, 0.1, 0.1]
    cards = [({c}, wc) for c, wc in enumerate(w)]
    for t in range(0, 7):
        want = brute_force_survival(6, cards, t, lambda touched, _: len(touched) >= 5)
        assert abs(oracles.two_class_chain_survival(2, 0.3, 4, 0.1, 5, [t])[t] - want) <= 1e-12


def test_refinement_chain_matches_enumeration():
    n, k = 5, 2
    subsets = [(set(s), 1 / math.comb(n, k)) for s in itertools.combinations(range(n), k)]

    def all_pairs_split(_, seq):
        return all(any((i in s) != (j in s) for s, _ in seq)
                   for i, j in itertools.combinations(range(n), 2))

    for t in range(0, 6):
        want = brute_force_survival(n, subsets, t, all_pairs_split)
        assert abs(oracles.refinement_chain_survival(n, k, [t])[t] - want) <= 1e-12


def test_riffle_closed_form_matches_mark_enumeration():
    for n, a in ((3, 2), (4, 2), (3, 3)):
        for t in range(0, 4):
            marks = itertools.product(range(a ** t), repeat=n)
            distinct = sum(len(set(m)) == n for m in marks)
            want = 1 - Fraction(distinct, a ** (t * n))
            assert oracles.riffle_survival(n, a, [t])[t] == float(want)


def test_move_to_front_separation_matches_path_enumeration():
    for w, ts in (([0.4, 0.3, 0.2, 0.1], range(1, 6)),
                  (inputs.TwoClassWeights(6, 2, 0, "test").values, range(1, 4))):
        got = oracles.move_to_front_separation(w, ts)
        for t in ts:
            assert abs(got[t] - oracles.move_to_front_separation_by_paths(w, t)) <= 1e-12


def test_move_to_front_separation_hand_values():
    # three cards: s(2) = max w_i, s(3) = 1/4 for (0.5, 0.3, 0.2)
    got = oracles.move_to_front_separation([0.5, 0.3, 0.2], [2, 3])
    assert abs(got[2] - 0.5) <= 1e-12 and abs(got[3] - 0.25) <= 1e-12


def test_two_class_weights_depend_on_the_seed_only_through_the_heavy_cards():
    a = inputs.TwoClassWeights(100, 50, 1, "x")
    b = inputs.TwoClassWeights(100, 50, 2, "x")
    assert a.heavy_cards != b.heavy_cards
    assert sorted(a.values) == sorted(b.values)
    assert abs(sum(a.values) - 1.0) <= 1e-12
    assert a.values == inputs.TwoClassWeights(100, 50, 1, "x").values


# ---------------------------------------------------------------- checks


def move_csv_value(text, column, delta):
    """Move the value of ``column`` in the middle data row by ``delta``."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    row = head + 1 + (len(lines) - head - 1) // 2
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def swap_csv_columns(text, a, b):
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[head].split(",")
    ia, ib = names.index(a), names.index(b)
    for i in range(head + 1, len(lines)):
        cells = lines[i].split(",")
        cells[ia], cells[ib] = cells[ib], cells[ia]
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passed_ops(request, tmp_path_factory):
    """Every operation of a workload, run once, with its output."""
    name = request.param
    cw, cli, instances = inputs.setup(name, 0)
    ops = workloads.WORKLOADS[name](cw, cli, instances, 0, str(tmp_path_factory.mktemp(name)))
    return [(op, op.run()) for op in ops]


def test_checks_pass_the_program_and_reject_perturbed_outputs(passed_ops):
    for op, output in passed_ops:
        problems = op.verify(output)
        if op.name in workloads.KNOWN_FAULTS:
            assert problems, op.name
            continue
        assert problems == [], (op.name, problems)
        if isinstance(output, dict):
            ts = sorted(output)
            mid = ts[len(ts) // 2]
            assert op.verify({**output, mid: output[mid] + 1e-6}), (op.name, "1e-6 move")
            swapped = {**output, ts[0]: output[ts[-1]], ts[-1]: output[ts[0]]}
            assert op.verify(swapped), (op.name, "swapped first and last")
        elif workloads.parse_csv(output)[0]["mode"] in ("exact", "glauber"):
            moved = move_csv_value(output, "survival_exact", 1e-6)
            assert op.verify(moved), (op.name, "1e-6 move")
            swapped = swap_csv_columns(output, "s_exact", "tv_exact")
            assert op.verify(swapped), (op.name, "swapped s and tv")
        else:
            swapped = swap_csv_columns(output, "survival_mc", "mc_stderr")
            assert op.verify(swapped), (op.name, "swapped estimate and stderr")
            # 1e-6 is within Monte Carlo error; the first pass's output shows it
            moved = move_csv_value(output, "survival_mc", 1e-6)
            op.record(output)
            op.record(moved)
            assert "output differs from the first pass's output" in op.finish(), op.name


def test_a_failed_check_fails_every_attempt_that_gave_the_output(passed_ops):
    op, output = passed_ops[0]
    bad = workloads.Operation(op.name, op.run, lambda: lambda out: ["wrong"])
    for _ in range(3):
        bad.record(output)
    bad.raised("Traceback ...")
    assert bad.finish() == ["Traceback ...", "wrong", "wrong", "wrong"]
    assert bad.finish() == ["Traceback ...", "wrong", "wrong", "wrong"]  # counted once
