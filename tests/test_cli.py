import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import chamberwalk.exact

from chamberwalk.cli import FAMILIES, ConfigError, main, parse_params, parse_t_grid


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
    assert meta[-3:] == ["# exact_path=one-start", "# chambers=6", "# starts=1"]
    # two weight classes: one start per orbit of the swap of cards 0 and 1,
    # each pushed along the product table with no P, and pi from the
    # absorption pass
    run_cli(["exact", "--family", "tsetlin", "--params", "weights=1/4,1/4,1/2",
             "--t-grid", "1..4", "--out", str(out)])
    meta, _, _ = read_rows(out)
    assert counts == {"transition_matrix": 0, "lstsq": 0}
    assert meta[-3:] == ["# exact_path=orbits", "# chambers=6", "# starts=3"]
    # weights that differ for every card: every start
    run_cli(["exact", "--family", "tsetlin", "--params", "weights=1/2,1/3,1/6",
             "--t-grid", "1..4", "--out", str(out)])
    meta, _, _ = read_rows(out)
    assert counts == {"transition_matrix": 0, "lstsq": 0}
    assert meta[-3:] == ["# exact_path=dense", "# chambers=6", "# starts=6"]


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
        ["exact", "--family", "riffle", "--params", "n=8"],
        ["glauber", "--family", "ising", "--params", "width=2", "height=2", "beta=-0.5"],
        ["glauber", "--family", "product", "--params", "n=0"],
        ["glauber", "--family", "ising", "--params", "width=0", "height=3"],
        ["glauber", "--family", "ising", "--params", "width=100000", "height=100000"],
        ["glauber", "--family", "product", "--params", "n=20000000"],
        ["mc", "--family", "hypercube-nn", "--params", "n=5", "w_plus=1/4,1/4",
         "w_minus=1/4,1/4"],
        ["mc", "--family", "k-to-top", "--params", "n=30", "k=15"],
        ["mc", "--family", "top-bottom", "--params", "n=5000"],
        ["mc", "--family", "hypercube-nn", "--params", "n=100000"],
        ["cutoff", "--family", "top-bottom", "--params", "n=50"],
        ["exact", "--family", "tsetlin", "--params", "n=1"],
        ["mc", "--family", "riffle", "--params", "n=5", "a=0"],
        ["mc", "--family", "hypercube-nn", "--params", "n=0"],
        ["cutoff", "--family", "k-to-top", "--params", "n=1", "k=1"],
        ["mc", "--family", "tsetlin", "--params", "weights=1,1e-200,1e-200"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=50", "strict=1"],
        ["bounds", "--family", "tsetlin", "--params", "n=20", "c=0"],
        ["cutoff", "--family", "riffle", "--params", "n=1"],
        ["mc", "--family", "hypercube-nonlocal", "--params", "n=1048576", "k=2"],
    ],
)
def test_builder_and_capacity_errors_exit_2(argv, monkeypatch, capsys):
    # a face or spin-system builder's ValueError, a weight list that does not
    # match n, or a CapacityError is a usage error, not a traceback, and it
    # comes before any braid chamber is built.  The caps: 2^21 riffle mark
    # functions, C(30,15) k-to-top faces, 10^4 top-bottom and 2*10^5
    # hypercube-nn faces each exceed 10^7 sign entries; 1225^2 hyperplane
    # pairs for cutoff's coupling parameters; 8! chambers for the exact engine;
    # 10^10 Ising sites, refused before any grid edge is built, 2*10^7
    # product sites, refused before any site is listed, and card weights of
    # 1e-200, whose T would pass int64 (once wrapped to -2^63, exit 0).  The
    # bounds' c past its lower-bound limit or at 0, riffle(1)'s m = 0 in the
    # cutoff and a 2^20-coupon k-set chain reach main's one boundary too
    def enumerated(*args):
        raise AssertionError("braid chambers enumerated")

    monkeypatch.setattr("chamberwalk.core.braid_signs", enumerated)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "10", "--t-grid", "1..3"])
    assert exc.value.code == 2
    assert "chamberwalk: error: " in capsys.readouterr().err


@pytest.mark.parametrize("fault", [RuntimeError, OverflowError, AssertionError])
def test_faults_are_not_refusals(fault, monkeypatch):
    # main's boundary turns ValueError and CapacityError into exit 2; a fault
    # in the program keeps its traceback
    def broken(*args, **kwargs):
        raise fault("broken sampler")

    monkeypatch.setattr("chamberwalk.cli.sample_T_batch", broken)
    with pytest.raises(fault, match="broken sampler"):
        main(["mc", "--family", "riffle", "--params", "n=4", "--trials", "10", "--t-grid", "1..3"])


@pytest.mark.parametrize(
    "params",
    [["weights=3/11,3/11,1/11,1/11,1/11,1/11,1/11"], ["n=7"]],
)
def test_exact_refuses_past_20_hyperplanes_before_the_walk(params, monkeypatch):
    # braid(7) has 5040 chambers, under the chamber cap, but 21 hyperplanes:
    # the survival's cap refuses before any distance is walked
    family = "tsetlin" if params[0].startswith("weights") else "riffle"

    def walked(*args, **kwargs):
        raise AssertionError("distances walked")

    monkeypatch.setattr("chamberwalk.cli.distance_profiles", walked)
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--family", family, "--params", *params, "--t-grid", "1..3"])
    assert exc.value.code == 2


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


def test_bounds_reads_the_exact_survival_at_equal_weights_only(tmp_path):
    out = tmp_path / "bounds.csv"
    run_cli(["bounds", "--family", "tsetlin", "--params", "n=12", "c=1", "--trials", "100",
             "--t-grid", "1..2", "--out", str(out)])
    _, _, rows = read_rows(out)
    spec = chamberwalk.TsetlinSpec(np.full(12, 1 / 12))
    times = [int(r.split(",")[0]) for r in rows]
    exact = chamberwalk.tsetlin_survival_profile(spec, times)
    for r in rows:
        t, surv = int(r.split(",")[0]), float(r.split(",")[3])
        assert surv == pytest.approx(exact[t], rel=1e-11), t  # 12 digits in the CSV
    run_cli(["bounds", "--family", "tsetlin", "--params", "weights=1/2,1/4,1/4", "c=0.5",
             "--trials", "100", "--t-grid", "1..2", "--out", str(out)])
    meta, _, rows = read_rows(out)
    assert rows and all(r.split(",")[3] == "" for r in rows)
    assert not any(m.startswith("# survival_exact=") for m in meta)


def test_bounds_leaves_the_exact_survival_blank_past_the_chain_cap(tmp_path):
    # 20 000 cards: the count chain to the upper time would pass its cell cap
    out = tmp_path / "bounds.csv"
    run_cli(["bounds", "--family", "tsetlin", "--params", "n=20000", "c=4", "strict=0",
             "--trials", "10", "--t-grid", "1..2", "--out", str(out)])
    meta, _, rows = read_rows(out)
    assert all(r.split(",")[3] == "" for r in rows)
    assert any(m.startswith("# survival_exact=refused: coupon chain of") for m in meta)


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
