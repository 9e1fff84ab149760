"""The benchmark's workloads: fixed lists of operations on chamberwalk's
public entry points, each with a check of its output.

An operation's check compares the output with the values of ``oracles``
(computed after the run's last pass, and never by chamberwalk) or with a
property the method must have.  Every output must also equal the output of
the same operation in the run's first pass: the program is deterministic for
a fixed input and seed, Monte Carlo included.
"""

import math
import os

import oracles
from inputs import TwoClassWeights, survival_grid_inputs, t_range

EXACT_TOL = 1e-9  # the program agrees with the exact values to about 2e-12
# coupon_survival_uniform is an alternating sum: at n=60 it loses about 1e-8
# to cancellation, at n=200 it loses everything
COUPON_TOL = 1e-7
SHAPE_TOL = 1e-12  # slack for [0, 1] and monotonicity of rounded floats
MC_Z = 6.0  # Monte Carlo estimates must lie within MC_Z oracle sigmas (+1/trials)

# Operations that fail every time because of a fault in the program; the run
# counts them in ``failed`` and stays ``correct``.
KNOWN_FAULTS = {
    # coupon_survival_uniform(200, t) cancels catastrophically and np.clip
    # hides it: 147 of the 2979 points are off by more than 1e-6, and 109
    # of them read 0.0 where the exact value is about 1.
    "coupon-curve-n200",
}


class Operation:
    """One call into chamberwalk, with the check of its output.

    ``make_check`` builds the check, oracle values included, when it is first
    needed.  A run records the outputs of every pass and checks them after
    the last one, so that no oracle work shares the process's peak memory
    with the program before ``peak_rss_mb`` is read.
    """

    def __init__(self, name, run, make_check):
        self.name = name
        self.run = run
        self._make_check = make_check
        self._check = None
        self.reference = None  # the first output; later ones must equal it
        self.matching = 0  # outputs equal to the reference, itself included
        self.problems = []  # one entry per failed attempt

    @property
    def check(self):
        if self._check is None:
            self._check = self._make_check()
        return self._check

    def verify(self, output):
        """Problems the check finds in ``output``; an empty list means it passed."""
        try:
            return self.check(output)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            return [f"output could not be checked: {exc!r}"]

    def record(self, output):
        """Keep one attempt's output: the first becomes the reference, and a
        later one that differs from it fails at once."""
        if self.reference is None:
            self.reference = output
        if output == self.reference:
            self.matching += 1
        else:
            self.problems.append("output differs from the first pass's output")

    def raised(self, text):
        self.problems.append(text)

    def finish(self):
        """Check the reference output; every attempt that gave it fails with
        it.  Returns the problems of all failed attempts."""
        if self.matching:
            problems = self.verify(self.reference)
            if problems:
                self.problems.extend(["; ".join(problems)] * self.matching)
            self.matching = 0
        return self.problems


def lumped_chain(w, ts):
    """The two-class lumped chain's P(T > t) for the weights ``w``: done when
    all cards but one are touched."""
    return oracles.two_class_chain_survival(w.n_heavy, w.w_heavy, w.n - w.n_heavy,
                                            w.w_light, w.n - 1, ts)


# ---------------------------------------------------------------- checks


def parse_csv(text):
    """(metadata, {column: {t: value or None}}) of a chamberwalk CSV."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None or header[0] != "t":
        raise ValueError("CSV has no header starting with 't'")
    columns = {name: {} for name in header[1:]}
    for row in rows:
        t = int(row[0])
        for name, cell in zip(header[1:], row[1:]):
            columns[name][t] = float(cell) if cell else None
    return meta, columns


def _report(problems, label, bad):
    if bad:
        t, detail = bad[0]
        problems.append(f"{label}: {len(bad)} bad points, first at t={t}: {detail}")


def check_grid(problems, label, got, grid):
    """The output's times are ``grid`` (any times when ``grid`` is None)."""
    if grid is not None and sorted(got) != sorted(grid):
        problems.append(f"{label}: times {sorted(got)[:5]}... are not the grid {list(grid)[:5]}...")


def check_close(problems, label, got, want, tol):
    bad = []
    for t, v in want.items():
        g = got.get(t)
        if g is None or not abs(g - v) <= tol:
            bad.append((t, f"got {g!r}, exact {v!r}"))
    _report(problems, label, bad)


def check_leq(problems, label, lower, upper, slack=EXACT_TOL):
    bad = [(t, f"{lower[t]!r} > {upper[t]!r}") for t in lower
           if lower[t] is None or upper.get(t) is None or not lower[t] <= upper[t] + slack]
    _report(problems, label, bad)


def check_profile(problems, label, got, tol=SHAPE_TOL):
    """Values lie in [0, 1] and do not increase with t, up to ``tol``."""
    bad = [(t, f"{v!r} outside [0, 1]") for t, v in got.items()
           if v is None or not -tol <= v <= 1 + tol]
    _report(problems, label, bad)
    ts = sorted(t for t in got if got[t] is not None)
    rising = [(b, f"{got[a]!r} -> {got[b]!r}") for a, b in zip(ts, ts[1:])
              if got[b] > got[a] + tol]
    _report(problems, label + " rises", rising)


def check_mc(problems, label, p_hat, std_err, exact, trials):
    """Estimates within MC_Z sigmas of the exact value, sigma from the exact
    value, plus one trial of slack for the binomial's discreteness; and the
    reported standard error equals sqrt(p(1-p)/trials) of the estimate."""
    bad, bad_se = [], []
    for t, p in exact.items():
        est, se = p_hat.get(t), std_err.get(t)
        if est is None or se is None:
            bad.append((t, "missing"))
            continue
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        if not abs(est - p) <= MC_Z * sigma + 1.0 / trials:
            bad.append((t, f"estimate {est!r}, exact {p!r}, z={(est - p) / max(sigma, 1e-300):.2f}"))
        if not abs(se - math.sqrt(est * (1.0 - est) / trials)) <= EXACT_TOL:
            bad_se.append((t, f"stderr {se!r} for estimate {est!r}"))
    _report(problems, label, bad)
    _report(problems, label + " stderr", bad_se)


def check_meta(problems, label, meta, key, want, rel=1e-10):
    got = meta.get(key)
    try:
        ok = abs(float(got) - want) <= rel * max(1.0, abs(want))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        problems.append(f"{label}: {key}={got!r}, expected {want!r}")


# ---------------------------------------------------------------- operations


class CliCommand:
    """Runs ``chamberwalk <argv> --out <file>`` in-process; output is the CSV text."""

    def __init__(self, cli, out_dir, name, argv):
        self.cli = cli
        self.path = os.path.join(out_dir, name + ".csv")
        self.argv = list(argv)

    def __call__(self):
        self.cli.main(self.argv + ["--out", self.path])  # looked up per call: tracing wraps it
        with open(self.path) as fh:
            return fh.read()


def grid_arg(ts):
    return f"{ts[0]}..{ts[-1]}"


def exact_check(grid, s_want=None, surv_want=None, s_leq_surv=False, surv_leq_s=False,
                extra=None):
    """Check of an ``exact`` CSV: the oracle columns, then the properties
    every instance has (values in [0, 1], non-increasing, TV <= s)."""

    def check(text):
        problems = []
        _, cols = parse_csv(text)
        s, tv, surv = cols["s_exact"], cols["tv_exact"], cols["survival_exact"]
        check_grid(problems, "t", s, grid)
        for label, col in (("s", s), ("tv", tv), ("P(T>t)", surv)):
            check_profile(problems, label, col)
        check_leq(problems, "tv <= s", tv, s)
        if s_want is not None:
            check_close(problems, "s vs exact", s, s_want, EXACT_TOL)
        if surv_want is not None:
            check_close(problems, "P(T>t) vs exact", surv, surv_want, EXACT_TOL)
        if s_leq_surv:
            check_leq(problems, "s <= P(T>t)", s, surv)
        if surv_leq_s:
            check_leq(problems, "P(T>t) <= s", surv, s)
        if extra is not None:
            extra(problems, s)
        return problems

    return check


def glauber_check(grid, n_sites):
    coupon_want = oracles.count_chain_survival(n_sites, n_sites, grid)

    def check(text):
        problems = []
        _, cols = parse_csv(text)
        s, coupon = cols["s_exact"], cols["survival_exact"]
        check_grid(problems, "t", s, grid)
        check_profile(problems, "s", s)
        check_profile(problems, "coupon bound", coupon)
        check_close(problems, "coupon column vs count chain", coupon, coupon_want, EXACT_TOL)
        check_leq(problems, "coupon lower bound <= s", coupon, s)
        return problems

    return check


def mc_check(grid, exact, trials, meta_checks=(), extra=None):
    """Check of an ``mc``/``bounds``/``cutoff`` CSV.  ``grid`` and ``exact``
    are values, or functions of the metadata (and of the CSV's times)."""

    def check(text):
        problems = []
        meta, cols = parse_csv(text)
        p_hat, se = cols["survival_mc"], cols["mc_stderr"]
        times = sorted(p_hat)
        check_grid(problems, "t", p_hat, grid(meta) if callable(grid) else grid)
        want = exact(meta, times) if callable(exact) else exact
        check_mc(problems, "P(T>t) estimate", p_hat, se, want, trials)
        for key, value in meta_checks:
            check_meta(problems, "metadata", meta, key, value)
        if extra is not None:
            extra(problems, meta, times)
        return problems

    return check


def exact_profile(cw, cli, instances, seed, out_dir):
    """CLI ``exact`` and ``glauber`` commands: the dense exact engine."""
    ops = []

    def add(name, argv, make_check):
        ops.append(Operation(name, CliCommand(cli, out_dir, name, argv), make_check))

    def same_s_and_survival(g, exact):
        """s(t) = P(T > t) = ``exact(g)``."""
        def make_check():
            want = exact(g)
            return exact_check(g, s_want=want, surv_want=want)
        return make_check

    g = list(range(1, 31))
    add("exact-riffle-n6-a2", ["exact", "--family", "riffle", "--params", "n=6", "a=2",
                               "--t-grid", grid_arg(g)],
        same_s_and_survival(g, lambda g: oracles.riffle_survival(6, 2, g)))

    g = list(range(1, 41))
    w = TwoClassWeights(6, 2, seed, "exact-tsetlin-6")

    def tsetlin_check(g=g, w=w):
        s_paths = {t: oracles.move_to_front_separation_by_paths(w.values, t) for t in (1, 2, 3)}

        def by_paths(problems, s):
            check_close(problems, "s vs path enumeration", s, s_paths, EXACT_TOL)

        return exact_check(g, s_want=oracles.move_to_front_separation(w.values, g),
                           surv_want=lumped_chain(w, g), surv_leq_s=True, extra=by_paths)

    add("exact-tsetlin-n6", ["exact", "--family", "tsetlin", "--params", w.param(),
                             "--t-grid", grid_arg(g)], tsetlin_check)

    g = list(range(1, 61))
    add("exact-top-bottom-n6", ["exact", "--family", "top-bottom", "--params", "n=6",
                                "--t-grid", grid_arg(g)],
        same_s_and_survival(g, lambda g: oracles.count_chain_survival(6, 5, g)))

    g = list(range(1, 31))
    add("exact-k-to-top-n6-k2", ["exact", "--family", "k-to-top", "--params", "n=6", "k=2",
                                 "--t-grid", grid_arg(g)],
        lambda g=g: exact_check(g, s_leq_surv=True,
                                surv_want=oracles.refinement_chain_survival(6, 2, g)))

    g = list(range(1, 81))
    add("exact-hypercube-nn-n9", ["exact", "--family", "hypercube-nn", "--params", "n=9",
                                  "--t-grid", grid_arg(g)],
        same_s_and_survival(g, lambda g: oracles.count_chain_survival(9, 9, g)))

    g = list(range(1, 41))
    add("exact-hypercube-nonlocal-n8-k2", ["exact", "--family", "hypercube-nonlocal",
                                           "--params", "n=8", "k=2", "--t-grid", grid_arg(g)],
        same_s_and_survival(g, lambda g: oracles.kset_chain_survival(8, 2, g)))

    g = list(range(1, 41))
    for width, height in ((3, 3), (5, 2)):
        add(f"glauber-ising-{width}x{height}",
            ["glauber", "--family", "ising", "--params", f"width={width}",
             f"height={height}", "beta=0.3", "--t-grid", grid_arg(g)],
            lambda g=g, sites=width * height: glauber_check(g, sites))
    return ops


def survival_grid(cw, cli, instances, seed, out_dir):
    """Library calls of the three exact survival formulas on prebuilt instances."""
    inputs = survival_grid_inputs(seed)
    ops = []

    def add(name, run, grid, exact, tol=EXACT_TOL, shape_tol=SHAPE_TOL):
        def make_check():
            want = exact(grid)

            def check(got):
                problems = []
                check_grid(problems, "t", got, grid)
                check_profile(problems, "P(T>t)", got, shape_tol)
                check_close(problems, "P(T>t) vs exact", got, want, tol)
                return problems

            return check

        ops.append(Operation(name, run, make_check))

    braid6 = instances["braid6"]
    g = list(range(1, t_range(6) + 1))
    for a in (2, 3):
        faces = instances[f"riffle{a}"]
        add(f"survival-riffle-n6-a{a}",
            lambda faces=faces: cw.survival_exact_profile(braid6, faces, g),
            g, lambda g, a=a: oracles.riffle_survival(6, a, g))

    add("survival-top-bottom-n6",
        lambda: cw.survival_exact_profile(braid6, instances["top_bottom"], g),
        g, lambda g: lumped_chain(inputs["top_bottom"], g))

    g300 = list(range(1, 301))
    add("survival-hypercube-nonlocal-n16-k2",
        lambda: cw.survival_exact_profile(instances["boolean16"], instances["nonlocal16"], g300),
        g300, lambda g: oracles.kset_chain_survival(16, 2, g))

    g16 = list(range(1, t_range(16) + 1))
    add("survival-tsetlin-n16",
        lambda: cw.tsetlin_survival_profile(instances["tsetlin16"], g16),
        g16, lambda g: lumped_chain(inputs["tsetlin16"], g))

    for n in (60, 200):
        gn = list(range(n, t_range(n) + 1))
        add(f"coupon-curve-n{n}",
            lambda n=n, gn=gn: {t: cw.coupon_survival_uniform(n, t) for t in gn},
            gn, lambda g, n=n: oracles.count_chain_survival(n, n, g),
            tol=COUPON_TOL, shape_tol=COUPON_TOL)
    return ops


def mc_sampling(cw, cli, instances, seed, out_dir):
    """CLI ``mc``, ``bounds`` and ``cutoff`` commands: the T samplers."""
    ops = []

    def add(name, argv, make_check):
        mc_seed = seed * 100 + len(ops)
        ops.append(Operation(name, CliCommand(cli, out_dir, name,
                                              argv + ["--seed", str(mc_seed)]), make_check))

    g = list(range(1, 21))
    add("mc-riffle-n7", ["mc", "--family", "riffle", "--params", "n=7", "a=2",
                         "--trials", "20000", "--t-grid", grid_arg(g)],
        lambda g=g: mc_check(g, oracles.riffle_survival(7, 2, g), 20000))

    g = list(range(1, 81))
    w = TwoClassWeights(7, 3, seed, "mc-top-bottom-7")
    add("mc-top-bottom-n7", ["mc", "--family", "top-bottom", "--params", "n=7", w.param(),
                             "--trials", "10000", "--t-grid", grid_arg(g)],
        lambda g=g, w=w: mc_check(g, lumped_chain(w, g), 10000))

    g = list(range(100, 3001, 100))
    w = TwoClassWeights(100, 50, seed, "mc-tsetlin-100")
    add("mc-tsetlin-n100", ["mc", "--family", "tsetlin", "--params", w.param(),
                            "--trials", "5000", "--t-grid", "100..3000..100"],
        lambda g=g, w=w: mc_check(g, lumped_chain(w, g), 5000))

    add("mc-hypercube-nonlocal-n512-k2",
        ["mc", "--family", "hypercube-nonlocal", "--params", "n=512", "k=2",
         "--trials", "10000", "--t-grid", "100..3000..100"],
        lambda g=g: mc_check(g, oracles.kset_chain_survival(512, 2, g), 10000))

    n, c = 500, 4
    t_star = n * math.log(2 * n)  # sum_i exp(-t/n) = 1/2 for uniform weights

    def bounds_times(meta):
        lower, upper = float(meta["lower_time"]), float(meta["upper_time"])
        return sorted({max(0, math.ceil(lower)), math.ceil(upper)})

    add("bounds-tsetlin-n500", ["bounds", "--family", "tsetlin", "--params", f"n={n}",
                                f"c={c}", "strict=0", "--trials", "100000", "--t-grid", "1..2"],
        lambda: mc_check(bounds_times,
                         lambda meta, ts: oracles.count_chain_survival(n, n - 1, ts),
                         100000, meta_checks=[("t_star", t_star),
                                              ("upper_time", t_star + c * n),
                                              ("lower_time", t_star - 2 * c * n)]))

    m = 21
    cutoff_time = math.log2(m)  # log m / log(1/(1-b)) with b = 1/2

    def brackets_cutoff(problems, meta, times):
        if not (times and times[0] <= cutoff_time <= times[-1]):
            problems.append(f"grid {times[:3]}... does not bracket the cutoff time")

    add("cutoff-riffle-n7", ["cutoff", "--family", "riffle", "--params", "n=7", "a=2",
                             "--trials", "20000"],
        lambda: mc_check(None, lambda meta, ts: oracles.riffle_survival(7, 2, ts), 20000,
                         meta_checks=[("b", 0.5), ("d", 0.25), ("m", m),
                                      ("cutoff_time", cutoff_time), ("window", 2.0)],
                         extra=brackets_cutoff))
    return ops


WORKLOADS = {
    "exact-profile": exact_profile,
    "survival-grid": survival_grid,
    "mc-sampling": mc_sampling,
}
