import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chamberwalk as cw
import chamberwalk.exact
from chamberwalk import cli

from chamberwalk.cli import DEFAULT_TRIAL_CAP, FAMILIES, ConfigError, _fmt, main, parse_params
from chamberwalk.cli import build_family, parse_t_grid
from chamberwalk.walk import survival_from_samples


def run_cli(argv, capsys=None):
    rc = main(argv)
    assert rc == 0


def read_rows(path):
    """Split a CSV file into ('#' preamble lines, header, data rows)."""
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return meta, body[0], body[1:]


def test_parse_t_grid_forms():
    assert parse_t_grid("1..5") == [1, 2, 3, 4, 5]
    assert parse_t_grid("0..8..2") == [0, 2, 4, 6, 8]
    assert parse_t_grid("1,2,5") == [1, 2, 5]
    with pytest.raises(ConfigError):
        parse_t_grid("3,2,1")
    with pytest.raises(ConfigError):
        parse_t_grid("")


def test_parse_params_fractions_and_lists():
    p = parse_params(["n=4", "weights=1/2,1/4,1/4", "c=3.5"])
    assert p["n"] == "4"
    assert p["weights"] == [0.5, 0.25, 0.25]
    assert p["c"] == "3.5"
    with pytest.raises(ConfigError):
        parse_params(["oops"])


def test_exact_tsetlin_uniform_values(tmp_path, monkeypatch):
    # uniform card weights pass the symmetry check: one start, no P; no path solves
    counts = {"transition_matrix": 0, "lstsq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        chamberwalk.exact,
        "transition_matrix",
        counted("transition_matrix", chamberwalk.exact.transition_matrix),
    )
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    out = tmp_path / "exact.csv"
    run_cli(
        [
            "exact",
            "--family",
            "tsetlin",
            "--params",
            "weights=1/3,1/3,1/3",
            "--t-grid",
            "1..4",
            "--out",
            str(out),
        ]
    )
    meta, header, rows = read_rows(out)
    assert header == "t,s_exact,tv_exact,survival_exact,survival_mc,mc_stderr"
    assert any("family=tsetlin" in m for m in meta)
    assert any("prng=numpy-pcg64" in m for m in meta)
    table = {int(r.split(",")[0]): r.split(",") for r in rows}
    # uniform weights: separation equals the stopping-time survival
    s2 = float(table[2][1])
    surv2 = float(table[2][3])
    assert s2 == pytest.approx(1 / 3, abs=1e-9)
    assert surv2 == pytest.approx(s2, abs=1e-9)
    assert table[2][4] == "" and table[2][5] == ""
    assert counts == {"transition_matrix": 0, "lstsq": 0}
    assert meta[-5:-1] == ["# exact_path=one-start", "# chambers=6", "# starts=1",
                           "# survival_path=count-chain"]
    # two weight classes: one start per orbit of the swap of cards 0 and 1,
    # each pushed along the product table with no P, and pi from the
    # absorption pass
    run_cli(["exact", "--family", "tsetlin", "--params", "weights=1/4,1/4,1/2",
             "--t-grid", "1..4", "--out", str(out)])
    meta, _, _ = read_rows(out)
    assert counts == {"transition_matrix": 0, "lstsq": 0}
    assert meta[-5:-1] == ["# exact_path=orbits", "# chambers=6", "# starts=3",
                           "# survival_path=count-chain"]
    # weights that differ for every card: every start
    run_cli(["exact", "--family", "tsetlin", "--params", "weights=1/2,1/3,1/6",
             "--t-grid", "1..4", "--out", str(out)])
    meta, _, _ = read_rows(out)
    assert counts == {"transition_matrix": 0, "lstsq": 0}
    assert meta[-5:-1] == ["# exact_path=dense", "# chambers=6", "# starts=6",
                           "# survival_path=count-chain"]


def test_mc_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "mc",
        "--family",
        "hypercube-nonlocal",
        "--params",
        "n=16",
        "k=2",
        "--t-grid",
        "5..40..5",
        "--trials",
        "5000",
        "--seed",
        "42",
    ]
    run_cli(argv + ["--out", str(a)])
    run_cli(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    # and a different seed changes the data
    c = tmp_path / "c.csv"
    run_cli(argv[:-1] + ["43", "--out", str(c)])
    assert a.read_bytes() != c.read_bytes()


def test_mc_matches_exact_small_instance(tmp_path):
    out = tmp_path / "mc.csv"
    run_cli(
        [
            "mc",
            "--family",
            "tsetlin",
            "--params",
            "weights=1/3,1/3,1/3",
            "--t-grid",
            "2,4",
            "--trials",
            "100000",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    _, _, rows = read_rows(out)
    table = {int(r.split(",")[0]): r.split(",") for r in rows}
    p2, se2 = float(table[2][4]), float(table[2][5])
    assert abs(p2 - 1 / 3) < 4 * se2


def test_seed_env_var(tmp_path, monkeypatch):
    argv = [
        "mc",
        "--family",
        "tsetlin",
        "--params",
        "n=5",
        "--t-grid",
        "1..10",
        "--trials",
        "2000",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("CHAMBERWALK_SEED", "99")
    run_cli(argv + ["--out", str(a)])
    run_cli(argv + ["--seed", "99", "--out", str(b)])
    # env var and explicit flag give the same bytes
    assert a.read_bytes() == b.read_bytes()


def test_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tsetlin run\nfamily=tsetlin\nweights=0.5,0.3,0.2\n"
        "t_grid=1..5\nseed=3\ntrials=1000\n"
    )
    out = tmp_path / "out.csv"
    run_cli(["mc", "--config", str(cfg), "--out", str(out)])
    meta, _, rows = read_rows(out)
    assert any("seed=3" in m for m in meta)
    assert len(rows) == 5


@pytest.mark.parametrize("flags, tokens, line, times", [
    (["--trials", "1000"], ["trials=500"], "# trials=1000", [1, 2, 3]),
    ([], ["trials=500"], "# trials=500", [1, 2, 3]),
    ([], [], "# trials=100000", [1, 2, 3]),
    (["--seed", "1"], ["seed=4"], "# seed=1", [1, 2, 3]),
    ([], ["seed=4"], "# seed=4", [1, 2, 3]),
    (["--family", "riffle"], ["family=top-bottom"], "# family=riffle", [1, 2, 3]),
    ([], ["family=top-bottom"], "# family=top-bottom", [1, 2, 3]),
    (["--t-grid", "1..2"], ["t=1..4"], "# seed=0", [1, 2]),
    ([], ["t=1..4"], "# seed=0", [1, 2, 3, 4]),  # t before t_grid
])
@pytest.mark.parametrize("via", ["--config", "--params"])
def test_a_flag_beats_its_parameter_and_a_parameter_its_default(
        flags, tokens, line, times, via, tmp_path, monkeypatch):
    # family, the t-grid, seed and trials: the flag if given, else the
    # parameter, else the default; the parameter leaves the params line either way
    monkeypatch.delenv("CHAMBERWALK_SEED", raising=False)
    cfg, out = tmp_path / "c.cfg", tmp_path / "out.csv"
    cfg.write_text("\n".join(["family=tsetlin", "n=5", "t_grid=1..3"]
                             + (tokens if via == "--config" else [])))
    argv = ["mc", "--config", str(cfg), "--params", *(tokens if via == "--params" else [])]
    run_cli(argv + flags + ["--out", str(out)])
    meta, _, rows = read_rows(out)
    assert line in meta and "# params=n=5" in meta
    assert [int(r.split(",")[0]) for r in rows] == times


def test_bounds_mode(tmp_path):
    out = tmp_path / "bounds.csv"
    run_cli(
        [
            "bounds",
            "--family",
            "tsetlin",
            "--params",
            "n=500",
            "c=3",
            "--trials",
            "20000",
            "--seed",
            "1",
            "--t-grid",
            "1..2",
            "--out",
            str(out),
        ]
    )
    meta, _, rows = read_rows(out)
    kv = dict(m[2:].split("=", 1) for m in meta if "=" in m)
    t_star = float(kv["t_star"])
    assert t_star == pytest.approx(500 * np.log(1000), rel=1e-9)
    assert float(kv["upper_time"]) > t_star > float(kv["lower_time"])
    assert 0 < float(kv["upper_value"]) < 1
    # MC survival at the two bound times should sit inside the sandwich
    table = {int(r.split(",")[0]): r.split(",") for r in rows}
    t_lo = int(np.ceil(float(kv["lower_time"])))
    t_hi = int(np.ceil(float(kv["upper_time"])))
    assert float(table[t_hi][4]) <= float(kv["upper_value"]) + 0.01
    assert float(table[t_lo][4]) >= float(kv["lower_value"]) - 0.01


def test_cutoff_k_to_top_reads_b_and_d_off_its_faces(tmp_path, capsys):
    # a pair of cards is cut when exactly one of them moves to the top, so
    # b = 2k(n-k)/(n(n-1)), not the non-local hypercube's k/n (1/3 here);
    # from n = 4 on d differs between pairs, and cutoff refuses it
    out = tmp_path / "cutoff.csv"
    run_cli(["cutoff", "--family", "k-to-top", "--params", "n=3", "k=1", "--trials", "100",
             "--t-grid", "1..3", "--out", str(out)])
    kv = dict(m[2:].split("=", 1) for m in read_rows(out)[0] if "=" in m)
    assert float(kv["b"]) == pytest.approx(2 / 3, abs=1e-11)
    assert float(kv["d"]) == pytest.approx(1 / 3, abs=1e-11)
    with pytest.raises(SystemExit) as exc:
        main(["cutoff", "--family", "k-to-top", "--params", "n=7", "k=2", "--trials", "10",
              "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert "not constant" in capsys.readouterr().err


def test_cutoff_takes_m_from_the_family(capsys):
    # tsetlin derives n from its weights alone, and cutoff reads m = C(3, 2)
    run_cli(["cutoff", "--family", "tsetlin", "--params", "weights=1/3,1/3,1/3",
             "--trials", "100"])
    meta = capsys.readouterr().out.splitlines()
    assert {"# b=0.666666666667", "# d=0.333333333333", "# m=3"} <= set(meta)


def test_cutoff_mode_riffle(tmp_path):
    out = tmp_path / "cutoff.csv"
    run_cli(
        [
            "cutoff",
            "--family",
            "riffle",
            "--params",
            "n=6",
            "a=2",
            "--trials",
            "20000",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    meta, _, rows = read_rows(out)
    kv = dict(m[2:].split("=", 1) for m in meta if "=" in m)
    assert float(kv["b"]) == 0.5 and float(kv["d"]) == 0.25
    assert int(kv["m"]) == 15
    assert float(kv["cutoff_time"]) == pytest.approx(np.log2(15), abs=1e-9)
    assert kv["assumptions_ok"] == "True"
    # survival crosses 1/2 within the predicted window of the cutoff time
    tc, win = float(kv["cutoff_time"]), float(kv["window"])
    crossings = [
        int(r.split(",")[0]) for r in rows if float(r.split(",")[4]) <= 0.5
    ]
    assert crossings and abs(crossings[0] - tc) <= 3 * win + 1


def test_glauber_mode(tmp_path):
    out = tmp_path / "glauber.csv"
    run_cli(
        [
            "glauber",
            "--family",
            "ising",
            "--params",
            "width=2",
            "height=2",
            "beta=0.3",
            "--t-grid",
            "1..20",
            "--out",
            str(out),
        ]
    )
    meta, _, rows = read_rows(out)
    for r in rows:
        cols = r.split(",")
        s_exact, coupon = float(cols[1]), float(cols[3])
        assert s_exact >= coupon - 1e-9
    # spin reversal and the square's reflections and transpose leave the 2x2
    # grid's 16 states in 4 orbits (all spins alike, one spin apart, two
    # adjacent spins up, two diagonal spins up); top shares bottom's orbit
    # and is walked too
    assert meta[-2:] == ["# states=16", "# starts=5"]


def test_list_mode(capsys):
    run_cli(["list"])
    text = capsys.readouterr().out
    for name in ("tsetlin", "riffle", "hypercube-nonlocal", "ising"):
        assert name in text
    assert "CHAMBERWALK_SEED" in text


def test_unknown_family_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["exact", "--family", "nope", "--t-grid", "1..3"])


@pytest.mark.parametrize("command, family", [("mc", "ising"), ("exact", "product")])
def test_glauber_family_under_a_walk_command_names_the_glauber_command(command, family, capsys):
    # list shows the Glauber families, so the walk commands point to the one that runs them
    with pytest.raises(SystemExit) as exc:
        main([command, "--family", family, "--params", "n=3", "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert f"unknown family {family!r}; see the glauber command" in capsys.readouterr().err


@pytest.mark.parametrize("family, see", [("tsetlin", "exact, mc, bounds and cutoff commands"),
                                         ("nope", "list subcommand")])
def test_walk_family_under_the_glauber_command_names_the_walk_commands(family, see, capsys):
    # the mirror of the above: a walk family points to the commands that run it
    with pytest.raises(SystemExit) as exc:
        main(["glauber", "--family", family, "--params", "n=3", "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert f"unknown glauber family {family!r}; see the {see}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--family", "riffle", "--params", "n=3.7"],
        ["mc", "--family", "riffle", "--params", "n=6,7"],
        ["mc", "--family", "riffle", "--params", "n=abc"],
        ["mc", "--family", "riffle", "--params", "n=6", "a=2.5"],
        ["mc", "--family", "riffle", "--params", "n=6", "trials=2.5"],
        ["mc", "--family", "hypercube-nonlocal", "--params", "n=8", "k=2",
         "--trials", "0"],
        ["mc", "--config", "run.cfg"],
        ["glauber", "--family", "ising", "--params", "width=2", "height=2",
         "beta=0.3,0.9"],
        ["mc", "--family", "riffle", "--params", "n=4", "seed=2.5"],
        ["mc", "--config", "seed.cfg"],
        ["mc", "--family", "riffle", "--params", "n=4", "seed=-1"],
        ["mc", "--family", "riffle", "--params", "n=4", "--seed", "-1"],
        ["env-seed", "mc", "--family", "riffle", "--params", "n=4"],
        ["exact", "--family", "riffle", "--params", "n=3", "--t-grid=-2..1"],
        ["glauber", "--family", "ising", "--params", "width=2", "height=2",
         "--t-grid=-2..1"],
        ["mc", "--family", "riffle", "--params", "n=3", "--t-grid=-2..1"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=1", "--t-grid=-2..1"],
        ["mc", "--family", "riffle", "--params", "n=3", "--t-grid", "1.5,2.7"],
        ["no-grid", "mc", "--config", "grid.cfg"],
        ["mc", "--family", "riffle", "--params", "n=3", "--t-grid", "1..10..0"],
        ["mc", "--family", "riffle", "--params", "n=3", "--t-grid", "1..x"],
        ["exact", "--family", "riffle", "--params", "n=3", "--t-grid", "1e400,2"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=inf"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=nan"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=2000"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=1e-300"],
        ["glauber", "--family", "ising", "--params", "width=2", "height=2", "beta=nan"],
        ["mc", "--family", "tsetlin", "--params", "weights=1/0,1"],
        ["mc", "--family", "tsetlin", "--params", "weights=1/2/3,1/2"],
        ["mc", "--family", "riffle", "--params", "n=4/0"],
    ],
)
def test_bad_numeric_params_exit_2(argv, tmp_path, monkeypatch):
    # a parameter that takes one number is never truncated or cut to a list
    # head, a run never draws zero trials, and a seed is a whole number >= 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("family=riffle\nn=4\ntrials=2.5\n")
    (tmp_path / "seed.cfg").write_text("family=riffle\nn=4\nseed=2.5\n")
    (tmp_path / "grid.cfg").write_text("family=riffle\nn=3\nt=1.5,2.5\n")
    grid = ["--t-grid", "1..3"]  # a later --t-grid wins
    if argv[0] == "env-seed":
        monkeypatch.setenv("CHAMBERWALK_SEED", "abc")
        argv = argv[1:]
    if argv[0] == "no-grid":  # the times come from the config file
        argv, grid = argv[1:], []
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + grid + argv[1:])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, fraction, decimal",
    [
        (["bounds", "--family", "tsetlin", "--params", "n=20"], "c=1/2", "c=0.5"),
        (["glauber", "--family", "ising", "--params", "width=2", "height=2"],
         "beta=1/3", "beta=0.3333333333333333"),
    ],
)
def test_a_fraction_runs_as_its_decimal(argv, fraction, decimal, tmp_path):
    # every number parameter takes a fraction; only the params line tells the two apart
    runs = []
    for i, value in enumerate((fraction, decimal)):
        out = tmp_path / f"{i}.csv"
        run_cli(argv + [value, "--trials", "200", "--t-grid", "1..5", "--out", str(out)])
        meta, _, rows = read_rows(out)
        runs.append(([m for m in meta if not m.startswith("# params=")], rows))
    assert runs[0] == runs[1]


NUMBER_RUNS = [
    (["bounds", "--family", "tsetlin", "--params", "n=5"], "c"),
    (["glauber", "--family", "ising", "--params", "width=2", "height=2"], "beta"),
    (["glauber", "--family", "ising", "--params", "width=2", "height=2"], "field"),
    (["mc", "--family", "hypercube-nonlocal", "--params", "n=8"], "k"),
    (["mc", "--family", "hypercube-nonlocal", "--params", "n=8", "k=2"], "seed"),
]
TEXT = st.one_of(
    st.text(),
    st.floats().map(str),
    st.fractions().map(str),
    st.from_regex(r"[-+]?[0-9.e]{0,5}(/[-+]?[0-9.e]{0,5})?", fullmatch=True),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(NUMBER_RUNS), TEXT)
def test_any_text_in_a_number_parameter_runs_or_exits_2(run, text):
    # text, and strings shaped like numbers that reach the formulas: each value
    # runs or is refused at main's boundary, never a traceback
    argv, key = run
    rest = ["--trials", "10", "--t-grid", "1..3", "--out", os.devnull]
    try:
        rc = main([*argv, f"{key}={text}", *rest])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert rc == 0


@pytest.mark.parametrize("k", [0, 1, 300, 600])
def test_hypercube_nonlocal_k_out_of_range_exit_2(k):
    # k=0 once looped forever, k=600 raised from numpy, k=300 ran
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--family", "hypercube-nonlocal", "--params", "n=512", f"k={k}",
              "--trials", "10", "--t-grid", "1..3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--family", "k-to-top", "--params", "n=4", "k=0"],
        ["mc", "--family", "riffle", "--params", "n=1"],
        ["mc", "--family", "hypercube-nn", "--params", "n=3", "w_plus=0.5,0.1,0.1"],
        ["mc", "--family", "riffle", "--params", "n=21"],
        ["exact", "--family", "top-bottom", "--params", "n=9"],
        ["glauber", "--family", "ising", "--params", "width=2", "height=2", "beta=-0.5"],
        ["glauber", "--family", "product", "--params", "n=0"],
        ["glauber", "--family", "ising", "--params", "width=0", "height=3"],
        ["glauber", "--family", "ising", "--params", "width=100000", "height=100000"],
        ["glauber", "--family", "product", "--params", "n=20000000"],
        ["mc", "--family", "hypercube-nn", "--params", "n=5", "w_plus=1/4,1/4",
         "w_minus=1/4,1/4"],
        ["mc", "--family", "k-to-top", "--params", "n=30", "k=15"],
        ["cutoff", "--family", "top-bottom", "--params", "n=5000"],
        ["mc", "--family", "hypercube-nn", "--params", "n=100000"],
        ["cutoff", "--family", "top-bottom", "--params", "n=109"],
        ["exact", "--family", "tsetlin", "--params", "n=1"],
        ["mc", "--family", "riffle", "--params", "n=5", "a=0"],
        ["mc", "--family", "hypercube-nn", "--params", "n=0"],
        ["cutoff", "--family", "k-to-top", "--params", "n=1", "k=1"],
        ["mc", "--family", "tsetlin", "--params", "weights=1,1e-200,1e-200"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=50", "strict=1"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=0"],
        ["cutoff", "--family", "riffle", "--params", "n=1"],
        ["mc", "--family", "hypercube-nonlocal", "--params", "n=1048576", "k=2"],
        ["exact", "--family", "riffle", "--params", "n=1000"],
        ["exact", "--family", "riffle", "--params", "n=1"],
        ["exact", "--family", "hypercube-nonlocal", "--params", "n=1023", "k=2"],
        ["exact", "--family", "hypercube-nn", "--params", "n=2000"],
    ],
)
def test_builder_and_capacity_errors_exit_2(argv, monkeypatch, capsys):
    # a face or spin-system builder's ValueError, a weight list that does not
    # match n, or a CapacityError is a usage error, not a traceback, and it
    # comes before any braid chamber is built.  The caps: 2^21 riffle mark
    # functions, C(30,15) k-to-top faces, 10^4 top-bottom faces (cutoff's b
    # and d), 2*10^5 hypercube-nn faces and the 9! chambers of braid(9) each
    # exceed 10^7 sign entries; 5886^2 hyperplane pairs for cutoff's coupling
    # parameters pass 2^25 cells; 10^10 Ising sites, refused before any grid edge is built, 2*10^7
    # product sites, refused before any site is listed, and card weights of
    # 1e-200, whose T would pass int64 (once wrapped to -2^63, exit 0).  The
    # bounds' c past its lower-bound limit or at 0, riffle(1)'s m = 0 in the
    # cutoff and a 2^20-coupon k-set chain reach main's one boundary too, as
    # do the lumped exact forms' refusals: riffle(1000)'s integers past 2^24
    # bits, riffle(1), and pi_0 = 2^-m below the least normal float
    def enumerated(*args):
        raise AssertionError("braid chambers enumerated")

    monkeypatch.setattr("chamberwalk.core.braid_signs", enumerated)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "10", "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert "chamberwalk: error: " in capsys.readouterr().err


@pytest.mark.parametrize("weights, time", [("1e-300,1", "1.693147180559945e+300"),
                                           ("5e-324,1", "inf")])
def test_bounds_time_past_int64_exits_2(weights, time, tmp_path, capsys):
    # t* + c / min(w) past 2^63, or past the floats, was an OverflowError
    # traceback, or "cannot convert float NaN to integer"; now it is named
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", "tsetlin", "--params", f"weights={weights}", "c=1",
              "--t-grid", "1..3", "--trials", "10", "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    assert f"t* + c/min(w) = {time} does not fit int64" in capsys.readouterr().err


@pytest.mark.parametrize("flag, path", [("--config", "missing.txt"), ("--out", "nodir/x.csv")])
def test_os_errors_exit_2(flag, path, tmp_path, capsys):
    # a config file that is not there or an output directory that is not
    # there is a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--family", "riffle", "--params", "n=4", "--t-grid", "1..3",
              "--trials", "10", flag, str(tmp_path / path)])
    assert exc.value.code == 2
    assert "chamberwalk: error: " in capsys.readouterr().err


@pytest.mark.parametrize("by_param", [False, True])
def test_trials_past_the_cap_exit_2_before_any_draw(by_param, monkeypatch, capsys):
    # a flag or a parameter past the cap would reach the samplers' arrays of
    # one entry per trial (8 GB at 10^9): a usage error, before any T is drawn
    def drawn(*args, **kwargs):
        raise AssertionError("T sampled")

    monkeypatch.setattr("chamberwalk.cli.sample_T_batch", drawn)
    over = DEFAULT_TRIAL_CAP + 1
    argv = ["mc", "--family", "riffle", "--t-grid", "1..3", "--params", "n=4"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ([f"trials={over}"] if by_param else ["--trials", str(over)]))
    assert exc.value.code == 2
    assert f"{over} trials exceeds cap {DEFAULT_TRIAL_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("1..99999999999999999999", "t-grid of 99999999999999999999 points exceeds cap 1000000"),
    ("0,99999999999999999999", "t-grid time 99999999999999999999 does not fit int64"),
])
def test_a_grid_past_int64_exits_2_before_any_draw(grid, message, monkeypatch, capsys):
    # the range was listed (an OverflowError traceback), or the time reached
    # the int64 cast of survival_from_samples; now the grid is refused unlisted
    def drawn(*args, **kwargs):
        raise AssertionError("T sampled")

    monkeypatch.setattr("chamberwalk.cli.sample_T_batch", drawn)
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--family", "riffle", "--params", "n=4", "--trials", "10", "--t-grid", grid])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_a_grid_is_counted_against_the_point_cap_and_int64(monkeypatch):
    # every form of grid is counted before it is listed, and its times fit int64
    monkeypatch.setattr(cli, "DEFAULT_GRID_POINT_CAP", 5)
    assert parse_t_grid("1..5") == [1, 2, 3, 4, 5]
    assert parse_t_grid("0..40..10") == [0, 10, 20, 30, 40]
    for spec in ("1..6", "0..50..10", "1,2,3,4,5,6", [1, 2, 3, 4, 5, 6]):
        with pytest.raises(cw.CapacityError, match="t-grid of 6 points exceeds cap 5"):
            parse_t_grid(spec)
    assert parse_t_grid(f"1,{2**63 - 1}") == [1, 2**63 - 1]
    for spec in (f"1,{2**63}", f"{2**63}..{2**63}", [2**63]):
        with pytest.raises(ConfigError, match=f"t-grid time {2**63} does not fit int64"):
            parse_t_grid(spec)


@pytest.mark.parametrize("argv", [
    ["exact", "--family", "top-bottom", "--params", "n=4"],
    ["glauber", "--family", "ising", "--params", "width=2", "height=2", "beta=0.3"],
])
def test_a_last_time_the_walk_cannot_reach_exits_2(argv, capsys):
    # the start rows were pushed 10^11 steps; the walk's cell cap refuses them before the first
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--t-grid", "0,100000000000", "--out", os.devnull])
    assert exc.value.code == 2
    assert f"exceeds cap {cw.exact.DEFAULT_WALK_CELL_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [RuntimeError, OverflowError, AssertionError])
def test_faults_are_not_refusals(fault, monkeypatch):
    # main's boundary turns ValueError, CapacityError and OSError into exit 2;
    # a fault in the program keeps its traceback
    def broken(*args, **kwargs):
        raise fault("broken sampler")

    monkeypatch.setattr("chamberwalk.cli.sample_T_batch", broken)
    with pytest.raises(fault, match="broken sampler"):
        main(["mc", "--family", "riffle", "--params", "n=4", "--trials", "10", "--t-grid", "1..3"])


@pytest.mark.parametrize(
    "params",
    [["tsetlin", "weights=3/11,3/11,1/11,1/11,1/11,1/11,1/11"], ["top-bottom", "n=7"],
     ["tsetlin", "n=7"]],
)
def test_exact_runs_past_20_hyperplanes(params, tmp_path):
    # braid(7) has 5040 chambers, under the chamber cap, and 21 hyperplanes, past
    # the Mobius form's cap: P(T > t), all cards but one touched, reads the card
    # classes instead, and s(t) >= P(T > t), with equality where the chambers are
    # all alike (one start)
    family, *params = params
    out = tmp_path / "exact.csv"
    run_cli(["exact", "--family", family, "--params", *params, "--t-grid", "1..40",
             "--out", str(out)])
    meta, _, rows = read_rows(out)
    s, tv, surv = (np.array([float(r.split(",")[c]) for r in rows]) for c in (1, 2, 3))
    assert len(rows) == 40 and np.all((0 <= tv) & (tv <= s + 1e-12) & (surv <= s + 1e-12))
    assert ("# starts=1" in meta) == ("weights" not in params[0])
    if "# starts=1" in meta:
        assert np.all(np.abs(s - surv) <= 1e-12)
    assert meta[-1].startswith("# s_survival_gap=")


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--family", "riffle", "--params", "n=7", "--t-grid", "0..30"],
        ["exact", "--family", "riffle", "--params", "n=8", "a=3", "--t-grid", "1..20"],
        ["exact", "--family", "riffle", "--params", "n=52", "--t-grid", "1..14"],
        ["exact", "--family", "hypercube-nonlocal", "--params", "n=512", "k=2",
         "--t-grid", "1..4000..37"],
        ["exact", "--family", "hypercube-nn", "--params", "n=40", "--t-grid", "1..300"],
    ],
)
def test_exact_lumped_families_build_no_arrangement_and_no_face(argv, tmp_path, monkeypatch):
    # riffle by rising sequences and the equal-weight hypercube walks by
    # Hamming distance: no chamber cap, no hyperplane cap, no arrangement; the
    # nearest-neighbour walk's survival lists its 2n faces, whose equal supports
    # survival_exact_profile reads off the count chain (n = 40 is past the Mobius cap)
    def built(*args, **kwargs):
        raise AssertionError("arrangement or face list built")

    listed = ("hypercube_nn_faces", "survival_exact_profile") if "hypercube-nn" in argv else ()
    for name in ("build_braid", "build_boolean", "riffle_faces", "hypercube_nn_faces",
                 "hypercube_nonlocal_faces", "survival_exact_profile", "distance_profiles"):
        if name not in listed:
            monkeypatch.setattr(f"chamberwalk.cli.{name}", built)
    out = tmp_path / "exact.csv"
    run_cli(argv + ["--out", str(out)])
    meta, _, rows = read_rows(out)
    family, n = argv[2], int(argv[4][2:])
    riffle = family == "riffle"
    path, chambers = ("eulerian", math.factorial(n)) if riffle else ("hamming-chain", 2**n)
    assert meta[-5:-1] == [f"# exact_path={path}", f"# chambers={chambers}", "# starts=1",
                           f"# survival_path={'eulerian' if riffle else 'count-chain'}"]
    s, tv, surv = (np.array([float(r.split(",")[c]) for r in rows]) for c in (1, 2, 3))
    assert np.all((0 <= tv) & (tv <= s + 1e-12) & (s <= 1)) and np.all(np.diff(s) <= 1e-15)
    assert np.allclose(s, surv, rtol=0, atol=1e-11)  # s(t) = P(T>t), as the list text says
    # the lumped chain's s against the survival form's P(T > t), at full precision
    key, _, gap = meta[-1].partition("=")
    assert key == "# s_survival_gap" and 0 <= float(gap) <= 1e-12


@pytest.mark.parametrize("family, params, n, path", [
    ("tsetlin", ["n=6"], 6, "count-chain"), ("tsetlin", ["n=7"], 7, "count-chain"),
    ("tsetlin", ["n=8"], 8, "count-chain"), ("k-to-top", ["n=7", "k=2"], 7, "zero-set-chain")],
    ids=["6", "7", "8", "k-to-top-7-2"])
def test_exact_one_start_gap_is_rounding(family, params, n, path, tmp_path):
    # equal card weights: every chamber alike, so the generic push walks one start, and
    # its s(t) is P(T > t) read another way (2.75e-15 at 7 cards; k-to-top's 429 zero sets)
    out = tmp_path / "exact.csv"
    run_cli(["exact", "--family", family, "--params", *params, "--t-grid", "1..40",
             "--out", str(out)])
    meta = read_rows(out)[0]
    assert meta[-5:-1] == ["# exact_path=one-start", f"# chambers={math.factorial(n)}",
                           "# starts=1", f"# survival_path={path}"]
    key, _, gap = meta[-1].partition("=")
    assert key == "# s_survival_gap" and 0 <= float(gap) <= 1e-13


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--family", "riffle", "--params", "n=10"],
        ["mc", "--family", "k-to-top", "--params", "n=5", "k=2"],
        ["mc", "--family", "top-bottom", "--params", "n=5"],
        ["mc", "--family", "hypercube-nn", "--params", "n=25"],
        ["mc", "--family", "tsetlin", "--params", "n=4"],
        ["mc", "--family", "hypercube-nonlocal", "--params", "n=8", "k=2"],
        ["cutoff", "--family", "riffle", "--params", "n=12"],
        ["cutoff", "--family", "tsetlin", "--params", "n=3"],
        ["cutoff", "--family", "hypercube-nn", "--params", "n=4"],
        ["bounds", "--family", "tsetlin", "--params", "n=10", "c=0.5"],
    ],
)
def test_monte_carlo_builds_no_arrangement(argv, tmp_path, monkeypatch):
    # T depends only on the weighted faces: mc, cutoff and bounds never build
    # an arrangement, so riffle at n=10 (10! chambers) and hypercube-nn at
    # n=25 (2^25) run
    def built(*args, **kwargs):
        raise AssertionError("arrangement built")

    for builder in ("build_braid", "build_boolean"):
        monkeypatch.setattr(f"chamberwalk.cli.{builder}", built)
    run_cli(argv + ["--trials", "200", "--t-grid", "1..3", "--out", str(tmp_path / "mc.csv")])
    _, _, rows = read_rows(tmp_path / "mc.csv")
    assert rows


CARD_FAMILIES = ["tsetlin", "top-bottom"]


@pytest.mark.parametrize("family", CARD_FAMILIES)
@pytest.mark.parametrize("params, weights", [
    (["n=4"], [0.25] * 4),
    (["weights=0.4,0.3,0.2,0.1"], [0.4, 0.3, 0.2, 0.1]),
    (["n=4", "weights=0.4,0.3,0.2,0.1"], [0.4, 0.3, 0.2, 0.1]),
    (["n=1"], [1.0]),
])
def test_card_families_read_their_cards_by_one_rule(family, params, weights, tmp_path):
    # weights= sets n, n= alone means equal weights, and n= beside weights= counts them
    out = tmp_path / "mc.csv"
    run_cli(["mc", "--family", family, "--params", *params, "--trials", "50",
             "--t-grid", "0..3", "--out", str(out)])
    assert len(read_rows(out)[2]) == 4
    spec = build_family(family, parse_params(params))[1]["spec"]
    assert spec.card_weights.tolist() == weights


@pytest.mark.parametrize("family", CARD_FAMILIES)
@pytest.mark.parametrize("params, message", [
    (["n=5", "weights=0.25,0.25,0.25,0.25"], "parameter 'weights' needs n=5 entries, got 4"),
    (["n=0"], "parameter 'n' must be >= 1, got 0"),
    (["n=-1", "weights=1"], "parameter 'n' must be >= 1, got -1"),
    ([], "missing required parameter 'n'"),
])
def test_card_families_refuse_a_card_count_at_fault(family, params, message, capsys):
    # tsetlin once ran the 4 weights and dropped n=5; top-bottom n=0 named 'weights'
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--family", family, "--params", *params, "--trials", "10",
              "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_top_bottom_draws_t_with_the_card_sampler_and_lists_no_face(tmp_path, monkeypatch):
    # top-bottom's T, all cards but one touched, card c with chance w_c, is tsetlin's
    def listed(*args):
        raise AssertionError("top-bottom faces listed")

    estimates = []

    def recorded(samples, grid):
        estimates.append(est := survival_from_samples(samples, grid))
        return est

    monkeypatch.setattr("chamberwalk.cli.top_bottom_faces", listed)
    monkeypatch.setattr("chamberwalk.cli.survival_from_samples", recorded)
    weights = [0.25, 0.25, 0.125, 0.125, 0.125, 0.125]
    run_cli(["mc", "--family", "top-bottom", "--params", "weights=" + ",".join(map(str, weights)),
             "--trials", "2000", "--seed", "3", "--t-grid", "1..40",
             "--out", str(tmp_path / "mc.csv")])
    want = survival_from_samples(
        cw.sample_card_collection_T(cw.TsetlinSpec(np.array(weights)), 2000, 3), range(1, 41))
    got, = estimates
    assert np.array_equal(got.p_hat, want.p_hat) and np.array_equal(got.std_err, want.std_err)
    _, _, rows = read_rows(tmp_path / "mc.csv")
    assert [r.split(",")[4] for r in rows] == [_fmt(p) for p in want.p_hat]


def test_tsetlin_one_card_runs(tmp_path):
    # one card is always in place: T == 0, so P(T > t) == 0 at every t
    out = tmp_path / "one.csv"
    run_cli(["mc", "--family", "tsetlin", "--params", "n=1", "--trials", "10",
             "--t-grid", "1..3", "--out", str(out)])
    _, _, rows = read_rows(out)
    assert [r.split(",")[4:] for r in rows] == [["0", "0"]] * 3


def test_seed_digits_stay_exact(tmp_path):
    big = 2**64 + 1  # float(big) == 2**64
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["mc", "--family", "tsetlin", "--t-grid", "1..5", "--trials", "200",
            "--params", "weights=0.5,0.3,0.2"]
    run_cli(argv + [f"seed={big}", "--out", str(a)])
    run_cli(argv + ["--seed", str(big), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_main_calls_share_no_state(tmp_path, monkeypatch, capsys):
    # the parser is built once a process; a flag of one call must not reach the next
    monkeypatch.delenv("CHAMBERWALK_SEED", raising=False)
    out = tmp_path / "mc.csv"
    argv = ["mc", "--family", "riffle", "--params", "n=4", "--trials", "10", "--out", str(out)]
    run_cli(argv + ["--seed", "7", "--t-grid", "1..3"])
    assert "# seed=7" in out.read_text()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "missing t-grid" in capsys.readouterr().err
    run_cli(argv + ["--t-grid", "1..2"])
    meta, _, rows = read_rows(out)
    assert "# seed=0" in meta and len(rows) == 2
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--family", "top-bottom", "--params", "n=9", "--t-grid", "1..2"])
    assert exc.value.code == 2


def test_missing_t_grid_errors():
    with pytest.raises(SystemExit):
        main(["exact", "--family", "tsetlin", "--params", "n=3"])


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(chamberwalk.exact.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "chamberwalk", "list"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "available families:" in proc.stdout


def test_bounds_preamble_keeps_the_clamped_raw_values(tmp_path):
    out = tmp_path / "bounds.csv"
    run_cli(["bounds", "--family", "tsetlin", "--params", "n=10", "c=0.5", "--trials", "100",
             "--t-grid", "1..2", "--out", str(out)])
    meta, _, _ = read_rows(out)
    kv = dict(m[2:].split("=", 1) for m in meta if "=" in m)
    assert (kv["upper_value"], kv["lower_value"]) == ("1", "0")
    assert (kv["upper_raw"], kv["lower_raw"]) == ("5.51570867246", "-5.91940384322")


@pytest.mark.parametrize("params, path", [(["n=12", "c=1"], "count-chain"),
                                          (["weights=1/2,1/4,1/4", "c=0.5"], "count-chain")])
def test_bounds_reads_the_exact_survival_at_any_weights(params, path, tmp_path):
    out = tmp_path / "bounds.csv"
    run_cli(["bounds", "--family", "tsetlin", "--params", *params, "--trials", "100",
             "--t-grid", "1..2", "--out", str(out)])
    meta, _, rows = read_rows(out)
    spec = build_family("tsetlin", parse_params(params))[1]["spec"]
    times = [int(r.split(",")[0]) for r in rows]
    exact = chamberwalk.tsetlin_survival_profile(spec, times)
    for r in rows:
        t, surv = int(r.split(",")[0]), float(r.split(",")[3])
        assert surv == pytest.approx(exact[t], rel=1e-11), t  # 12 digits in the CSV
    assert f"# survival_path={path}" in meta
    assert not any(m.startswith("# survival_exact=") for m in meta)


def test_bounds_leaves_the_exact_survival_blank_past_the_chain_cap(tmp_path):
    # 20 000 cards: the count chain to the upper time would pass its cell cap
    out = tmp_path / "bounds.csv"
    run_cli(["bounds", "--family", "tsetlin", "--params", "n=20000", "c=4", "strict=0",
             "--trials", "10", "--t-grid", "1..2", "--out", str(out)])
    meta, _, rows = read_rows(out)
    assert all(r.split(",")[3] == "" for r in rows)
    assert any(m.startswith("# survival_exact=refused: count chain of") for m in meta)


def test_mc_fills_the_k_to_top_survival_from_its_zero_sets(tmp_path):
    # k-to-top(8, 2): each face cuts 12 of 28 pairs, so T >= 3; its 1325 zero sets are
    # stepped, and no array over the 2^28 sets of pairs is held
    out = tmp_path / "mc.csv"
    run_cli(["mc", "--family", "k-to-top", "--params", "n=8", "k=2", "--trials", "100",
             "--t-grid", "1..60", "--out", str(out)])
    meta, _, rows = read_rows(out)
    assert "# survival_path=zero-set-chain" in meta
    assert not any(m.startswith("# survival_exact=") for m in meta)
    surv = np.array([float(r.split(",")[3]) for r in rows])
    assert list(surv[:2]) == [1.0, 1.0] and np.all(np.diff(surv) <= 0) and 0 < surv[-1] < 1e-3


@pytest.mark.parametrize("n", [8, 10])
def test_hypercube_nonlocal_separation_is_its_survival_as_listed(tmp_path, n):
    # the list text states s(t) = P(T>t), and exact shows it at every t
    assert "s(t) = P(T>t)" in FAMILIES["hypercube-nonlocal"]
    out = tmp_path / "exact.csv"
    run_cli(["exact", "--family", "hypercube-nonlocal", "--params", f"n={n}", "k=3",
             "--t-grid", "1..60", "--out", str(out)])
    _, _, rows = read_rows(out)
    assert len(rows) == 60
    for row in rows:
        t, s_exact, _, survival_exact = row.split(",")[:4]
        assert float(s_exact) == pytest.approx(float(survival_exact), abs=1e-12), t


# family and params -> the commands besides exact and mc that take them: cutoff
# where b and d are constant, bounds for tsetlin
SURVIVAL_CASES = {
    ("tsetlin", "n=3"): ["cutoff", "bounds"],
    ("tsetlin", "weights=0.4,0.3,0.2,0.1"): ["bounds"],
    ("top-bottom", "n=4"): [],
    ("top-bottom", "n=4 weights=0.4,0.3,0.2,0.1"): [],
    ("riffle", "n=4 a=3"): ["cutoff"],
    ("k-to-top", "n=5 k=2"): [],
    ("hypercube-nn", "n=4"): ["cutoff"],
    ("hypercube-nn", "n=3 w_plus=0.1,0.2,0.3 w_minus=0.1,0.1,0.2"): [],
    ("hypercube-nonlocal", "n=6 k=2"): ["cutoff"],
}


@pytest.mark.parametrize("command, family, params", [
    (command, family, params) for (family, params), more in SURVIVAL_CASES.items()
    for command in ["exact", "mc", *more]])
def test_survival_column_is_the_walks_own(command, family, params, tmp_path):
    # every command's survival_exact column, whichever form the family reads,
    # against the Mobius form over the flats of the chamber walk itself
    parsed = parse_params(params.split())
    faces, _ = build_family(family, parsed)
    n = int(parsed["n"]) if "n" in parsed else len(parsed["weights"])
    arrangement = (cw.build_boolean if family.startswith("hypercube") else cw.build_braid)(n)
    out = tmp_path / "out.csv"
    run_cli([command, "--family", family, "--params", *params.split(), "--t-grid", "0..30",
             "--trials", "50", "--out", str(out)])
    meta, _, rows = read_rows(out)
    got = {int(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
    want = chamberwalk.exact.survival_exact_profile(arrangement, faces(), list(got))
    assert got and max(abs(got[t] - want[t]) for t in got) <= 1e-12
    assert any(m.startswith("# survival_path=") for m in meta)


def test_every_traced_layer_function_exists():
    # bench/tracing.py wraps each (module, function) pair of its LAYERS by
    # getattr, so a name missing here breaks bench/run.py --trace 1
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for functions, _ in tracing.LAYERS.values() for pair in functions]
    assert pairs
    missing = [(module, name) for module, name in pairs
               if not hasattr(importlib.import_module(f"chamberwalk.{module}"), name)]
    assert missing == []
