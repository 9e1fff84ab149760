"""Batch experiment harness.

Subcommands: exact, mc, bounds, cutoff, glauber, list.  Experiments are
described by key=value parameters (from --params tokens and/or a flat
key=value config file) and write CSV with a '#' metadata preamble; output
is byte-identical for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .core import CapacityError, braid_m, build_boolean, build_braid
from .exact import coupling_parameters, cutoff_prediction, distance_profiles
from .exact import survival_exact_profile
from .gallery import (
    TsetlinSpec,
    hamming_profiles,
    hypercube_nn_faces,
    hypercube_nonlocal_faces,
    k_to_top_faces,
    kset_coupling_closed_form,
    riffle_coupling_closed_form,
    riffle_faces,
    riffle_profiles,
    sample_card_collection_T,
    sample_kset_coupon_T,
    top_bottom_faces,
    tsetlin_bounds,
    tsetlin_faces,
    tsetlin_survival_profile,
)
from .glauber import (
    coupon_survival_uniform,
    glauber_separation_profile,
    ising_system,
    product_system,
)
from .walk import sample_T_batch, survival_from_samples

SEED_ENV_VAR = "CHAMBERWALK_SEED"
PRNG_NAME = "numpy-pcg64"
DEFAULT_TRIAL_CAP = 10**7  # T samples of one run; the samplers hold a few arrays of this length
DEFAULT_GRID_POINT_CAP = 10**6  # times of one grid, each a row of the CSV

CSV_HEADER = "t,s_exact,tv_exact,survival_exact,survival_mc,mc_stderr"

FAMILIES = {
    "tsetlin": "move-to-front on the braid arrangement; weights= sets n, n= alone "
    "means equal weights; s(t) = P(T>t) under uniform card weights",
    "riffle": "inverse a-shuffle; s(t) = P(T>t) under uniform marks; "
    "closed-form cutoff parameters b=1-1/a, d=(1-1/a)^2",
    "k-to-top": "k random cards to top; its faces give b=2k(n-k)/(n(n-1)) "
    "and a non-constant d, so cutoff refuses it",
    "top-bottom": "random card to top or bottom; cards and T as for tsetlin; "
    "s(t) = P(T>t) under uniform card weights",
    "hypercube-nn": "weighted nearest-neighbor hypercube walk; "
    "s(t) = P(T>t) for any weights w_i^+, w_i^-",
    "hypercube-nonlocal": "flip k random coordinates; s(t) = P(T>t); "
    "closed-form cutoff parameters b=k/n, d=k^2/n^2-k(n-k)/(n^2(n-1))",
    "ising": "ferromagnetic Ising Glauber dynamics (glauber command; "
    "--width --height --beta --field as params)",
    "product": "independent-spin Glauber sanity system (glauber command)",
}


class ConfigError(ValueError):
    pass


def _parse_value(raw, what):
    if "," in raw:
        return [_number(x, what) for x in raw.split(",") if x.strip()]
    return raw


def parse_params(tokens):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, raw = (x.strip() for x in tok.split("=", 1))
        params[key] = _parse_value(raw, f"each entry of parameter {key!r}")
    return params


def read_config_file(path):
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                tokens.append(line)
    return parse_params(tokens)


def parse_t_grid(spec):
    """Parse '1..10', '0..40..2' or '1,2,5' into an increasing integer list;
    each token is a whole number, as _whole checks it.  More than
    DEFAULT_GRID_POINT_CAP points, counted before a range is listed, raise
    CapacityError, and a time past int64 ConfigError."""
    if isinstance(spec, list):
        grid = [_whole(x, "t-grid time") for x in spec]
    elif ".." in (spec := str(spec)):
        parts = [_whole(x, "t-grid bound") for x in spec.split("..")]
        if len(parts) > 3 or parts[2:] == [0]:
            raise ConfigError(f"bad t-grid {spec!r}")
        grid = range(parts[0], parts[1] + 1, *parts[2:])
    else:
        grid = [_whole(x, "t-grid time") for x in spec.split(",") if x.strip()]
    # a range is counted, not listed: its len() overflows past sys.maxsize points
    points = grid.index(grid[-1]) + 1 if isinstance(grid, range) and grid else len(grid)
    if points > DEFAULT_GRID_POINT_CAP:
        raise CapacityError(f"t-grid of {points} points exceeds cap {DEFAULT_GRID_POINT_CAP}")
    if not (grid := list(grid)) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("t-grid must be nonempty and strictly increasing")
    if grid[0] < 0:
        raise ConfigError(f"t-grid times must be >= 0, got {grid[0]}")
    if grid[-1] > np.iinfo(np.int64).max:
        raise ConfigError(f"t-grid time {grid[-1]} does not fit int64")
    return grid


def _number(v, what):
    """v, a number or an 'a' or 'a/b' string, as a finite float; anything
    else (a list, 1/0, 1/2/3, nan, inf) raises ConfigError naming what."""
    try:
        num, den = v.split("/") if isinstance(v, str) and "/" in v else (v, 1)
        x = float(num) / float(den)  # exact where den is 1
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be one finite number, got {v!r}")
    return x


def _whole(v, what):
    """v as an int; a fraction, an infinity or no number raises ConfigError."""
    if not (x := _number(v, what)).is_integer():
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    raw = str(v).strip()
    return int(raw) if raw.isdigit() else int(x)  # digits stay exact past 2**53


def _get_int(params, key, default=None):
    return _whole(params.get(key, _get_float(params, key, default)), f"parameter {key!r}")


def _get_float(params, key, default=None):
    if key not in params:
        if default is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return default
    return _number(params[key], f"parameter {key!r}")


def _get_weights(params, key, n=None):
    if key not in params:
        raise ConfigError(f"missing required parameter {key!r}")
    v = params[key]
    w = np.asarray(v if isinstance(v, list) else [_number(v, f"parameter {key!r}")])
    if n is not None and len(w) != n:
        raise ConfigError(f"parameter {key!r} needs n={n} entries, got {len(w)}")
    return w


def build_family(family, params):
    """Resolve a family name into (faces, info).

    faces() lists the weighted faces on first use.  info carries the family's
    T sampler, (trials, seed) -> samples, which reads no faces for the card
    families and hypercube-nonlocal, the closed-form (b, d) of families with
    one, m, the hyperplane count, "profiles", (t_grid, stats) -> {t: (s, TV)}
    of the lumped chain where one exists, else of distance_profiles on the
    arrangement, and "survival", (t_grid, stats) -> {t: P(T>t)} of its
    exact form, which names its route in stats["survival_path"] before it runs.
    """
    info = {"bd": None}
    if family in ("tsetlin", "top-bottom"):  # one T: all cards but one touched
        # weights= sets n, n= alone means equal weights, and n= beside weights= counts them
        n = _get_int(params, "n") if "n" in params or "weights" not in params else None
        if n is not None and n < 1:
            raise ConfigError(f"parameter 'n' must be >= 1, got {n}")
        w = _get_weights(params, "weights", n) if "weights" in params else np.full(n, 1.0 / n)
        info["spec"] = spec = TsetlinSpec(w)
        info["survival"] = _route("count-chain", functools.partial(tsetlin_survival_profile, spec))
        info["t_sampler"] = lambda trials, seed: sample_card_collection_T(spec, trials, seed)
        n, listing = spec.n, ((tsetlin_faces, spec) if family == "tsetlin" else
                              (top_bottom_faces, spec.n, spec.card_weights))
    elif family == "riffle":
        n = _get_int(params, "n")
        a = _get_int(params, "a", 2)
        info["bd"] = riffle_coupling_closed_form(a)
        info["profiles"] = prof = functools.partial(riffle_profiles, n, a)
        info["survival"] = _route("eulerian", lambda g: {t: s for t, (s, _) in prof(g).items()})
        listing = (riffle_faces, n, a)
    elif family == "k-to-top":
        n, k = _get_int(params, "n"), _get_int(params, "k")
        listing = (k_to_top_faces, n, k)
    elif family == "hypercube-nn":
        if (n := _get_int(params, "n")) < 1:
            raise ConfigError(f"hypercube-nn needs n >= 1, got n={n}")
        half = np.full(n, 1.0 / (2 * n))
        w_plus = _get_weights(params, "w_plus", n) if "w_plus" in params else half
        w_minus = _get_weights(params, "w_minus", n) if "w_minus" in params else half
        if np.all(np.concatenate([w_plus, w_minus]) == half[0]):
            info["profiles"] = functools.partial(hamming_profiles, n, 1)
        listing = (hypercube_nn_faces, w_plus, w_minus)
    elif family == "hypercube-nonlocal":
        n, k = _get_int(params, "n"), _get_int(params, "k")
        if not 1 < k <= n / 2:
            raise ConfigError(f"hypercube-nonlocal needs 1 < k <= n/2, got n={n} k={k}")
        info["bd"] = kset_coupling_closed_form(n, k)
        info["t_sampler"] = lambda trials, seed: sample_kset_coupon_T(n, k, trials, seed)
        info["profiles"] = functools.partial(hamming_profiles, n, k)
        info["survival"] = _route("count-chain", lambda g: {
            t: coupon_survival_uniform(n, t, n, k) for t in g})
        listing = (hypercube_nonlocal_faces, n, k)
    else:
        see = "glauber command" if family in ("ising", "product") else "list subcommand"
        raise ConfigError(f"unknown family {family!r}; see the {see}")
    faces = functools.cache(functools.partial(*listing))
    info.setdefault("t_sampler", lambda trials, seed: sample_T_batch(faces(), trials, seed))
    # survival_exact_profile reads arr.m alone, which the faces carry: no arrangement is built
    info.setdefault("survival", lambda g, stats: survival_exact_profile(w := faces(), w, g, stats))
    boolean = family.startswith("hypercube")
    build, info["m"] = (build_boolean, n) if boolean else (build_braid, braid_m(n))
    info.setdefault("profiles", lambda g, stats: distance_profiles(  # no face listed past the cap
        build(n), faces(), g, stats=stats))
    return faces, info


def build_glauber_family(family, params):
    """The family's spin system."""
    if family == "ising":
        return ising_system(
            _get_int(params, "width"),
            _get_int(params, "height"),
            _get_float(params, "beta", 0.0),
            _get_float(params, "field", 0.0),
        )
    if family == "product":
        return product_system(_get_int(params, "n"))
    walk = family in FAMILIES and family not in ("ising", "product")
    see = "exact, mc, bounds and cutoff commands" if walk else "list subcommand"
    raise ConfigError(f"unknown glauber family {family!r}; see the {see}")


def _fmt(x):
    return "" if x is None else format(float(x), ".12g")


def write_csv(out, meta, rows):
    lines = [f"# chamberwalk {__version__}"]
    for k, v in meta:
        lines.append(f"# {k}={v}")
    lines.append(CSV_HEADER)
    for row in rows:
        lines.append(",".join([str(int(row[0]))] + [_fmt(x) for x in row[1:]]))
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _meta(args, params, extra=()):
    meta = [
        ("family", args.family),
        ("params", " ".join(f"{k}={params[k]}" for k in sorted(params))),
        ("mode", args.command),
        ("seed", args.seed),
        ("trials", getattr(args, "trials", "")),
        ("prng", PRNG_NAME),
    ]
    meta.extend(extra)
    return meta


def _route(name, survival):
    """A survival form of one route: (t_grid, stats) -> survival(t_grid), name in stats."""
    return lambda g, stats: stats.update(survival_path=name) or survival(g)


def _with_survival(info, rows, extra):
    """rows with survival_exact from the family's exact P(T>t); extra gains the
    route the form names, and where a cap refuses, the reason, with the column left blank."""
    stats = {}
    try:
        surv = info["survival"]([row[0] for row in rows], stats)
        rows = [(t, s, tv, surv[t], *mc) for t, s, tv, _, *mc in rows]
    except CapacityError as exc:
        stats["survival_exact"] = f"refused: {exc}"
    extra.extend(stats.items())
    return rows


def cmd_exact(args, params):
    info = build_family(args.family, params)[1]
    grid, stats = parse_t_grid(args.t_grid), {}
    prof = info["profiles"](grid, stats)
    extra = list(stats.items())
    rows = _with_survival(info, [(t, *prof[t], None, None, None) for t in grid], extra)
    if rows[0][3] is not None:  # s and P(T>t), two exact readings of one walk
        extra.append(("s_survival_gap", f"{max(abs(r[1] - r[3]) for r in rows):.3g}"))
    write_csv(args.out, _meta(args, params, extra), rows)


def _write_mc(args, params, info, grid, extra=()):
    """Write the CSV of the Monte Carlo survival estimate over grid, drawn with
    the family's T sampler, beside the exact one; extra leads the command's lines."""
    est = survival_from_samples(info["t_sampler"](args.trials, args.seed), grid)
    rows = [(t, None, None, None, p, se) for t, p, se in zip(est.t_values, est.p_hat, est.std_err)]
    rows = _with_survival(info, rows, extra := list(extra))
    write_csv(args.out, _meta(args, params, extra), rows)


def cmd_mc(args, params):
    _write_mc(args, params, build_family(args.family, params)[1], parse_t_grid(args.t_grid))


def cmd_bounds(args, params):
    if args.family != "tsetlin":
        raise ConfigError("bounds mode applies to the tsetlin family")
    parse_t_grid(args.t_grid)  # checked like every grid, though bounds picks its own times
    info = build_family(args.family, params)[1]
    c = _get_float(params, "c", 3.0)
    report = tsetlin_bounds(info["spec"], c, strict=bool(_get_int(params, "strict", 0)))
    if not report.upper_time < 2**63:  # nan and inf too; then the lower time is finite as well
        raise ConfigError(f"bounds time t* + c/min(w) = {report.upper_time!r} does not fit int64")
    times = sorted(
        {max(0, math.ceil(report.lower_time)), math.ceil(report.upper_time)}
    )
    extra = [(k, _fmt(v)) for k, v in dataclasses.asdict(report).items()]  # in field order
    _write_mc(args, params, info, times, extra)


def cmd_cutoff(args, params):
    faces, info = build_family(args.family, params)
    if info["bd"] is not None:
        b, d = info["bd"]
    else:
        cp = coupling_parameters(faces())
        if cp.uniform_b is None or cp.uniform_d is None:
            raise ConfigError("b or d not constant; no cutoff prediction")
        b, d = cp.uniform_b, cp.uniform_d
    pred = cutoff_prediction(b, d, m := info["m"])
    if args.t_grid:
        grid = parse_t_grid(args.t_grid)
    else:
        lo = max(1, math.floor(pred.time - 4 * pred.window))
        hi = math.ceil(pred.time + 4 * pred.window)
        step = max(1, (hi - lo) // 32)
        grid = list(range(lo, hi + 1, step))
    extra = [
        ("b", _fmt(b)),
        ("d", _fmt(d)),
        ("m", m),
        ("cutoff_time", _fmt(pred.time)),
        ("window", _fmt(pred.window)),
        ("assumptions_ok", pred.assumptions_ok),
    ]
    _write_mc(args, params, info, grid, extra)


def cmd_glauber(args, params):
    sys_ = build_glauber_family(args.family, params)
    grid = parse_t_grid(args.t_grid)
    stats = {}
    prof = glauber_separation_profile(sys_, grid, stats=stats)
    rows = [
        (t, prof[t][0], None, coupon_survival_uniform(sys_.n_sites, t), None, None)
        for t in grid
    ]
    write_csv(args.out, _meta(args, params, list(stats.items())), rows)


def cmd_list(args, params):
    print("available families:")
    for name, desc in FAMILIES.items():
        print(f"  {name}: {desc}")
    print(f"default seed env var: {SEED_ENV_VAR}")


@functools.cache
def _parser():
    """The CLI's parser, built once a process: each parse_args call fills a
    new namespace."""
    parser = argparse.ArgumentParser(
        prog="chamberwalk",
        description="chamber-walk mixing experiments: exact distances, "
        "stopping-time Monte Carlo, bounds, cutoff profiles, Glauber dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("exact", cmd_exact),
        ("mc", cmd_mc),
        ("bounds", cmd_bounds),
        ("cutoff", cmd_cutoff),
        ("glauber", cmd_glauber),
        ("list", cmd_list),
    ]:
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        if name == "list":
            continue
        p.add_argument("--family", default=None)
        p.add_argument(
            "--params",
            nargs="*",
            default=[],
            help="key=value tokens; lists comma-separated, fractions like 1/3 ok",
        )
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--t-grid", default=None, help="e.g. 1..30 or 1,2,5")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        cmd_list(args, {})
        return 0

    try:  # the one refusal boundary: a bad argument or a cap is a usage error
        return _run(args)
    except (ValueError, CapacityError, OSError) as exc:
        parser.error(str(exc))


def _run(args):
    params = {}
    if args.config:
        params.update(read_config_file(args.config))
    params.update(parse_params(args.params))
    params.pop("mode", None)

    def setting(flag, *keys, default=None):
        """The flag if given, else the first key's parameter, else default; every key popped."""
        found = [params.pop(k) for k in keys if k in params]
        return flag if flag is not None else (found or [default])[0]

    args.family = setting(args.family, "family")
    if args.family is None:
        raise ConfigError("missing family")
    args.t_grid = setting(args.t_grid, "t", "t_grid")
    seed = setting(args.seed, "seed", default=os.environ.get(SEED_ENV_VAR, "0"))
    args.seed = _whole(seed, "parameter 'seed'")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    args.trials = _whole(setting(args.trials, "trials", default=100_000), "parameter 'trials'")
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    if args.trials > DEFAULT_TRIAL_CAP:
        raise CapacityError(f"{args.trials} trials exceeds cap {DEFAULT_TRIAL_CAP}")
    if args.command != "cutoff" and args.t_grid is None:
        raise ConfigError("missing t-grid")
    args.func(args, params)
    return 0


if __name__ == "__main__":
    sys.exit(main())
