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
from .core import CapacityError, build_boolean, build_braid
from .exact import DEFAULT_CHAMBER_CAP, coupling_parameters, cutoff_prediction, distance_profiles
from .exact import survival_exact_profile
from .gallery import (
    TsetlinSpec,
    hypercube_nn_faces,
    hypercube_nonlocal_faces,
    k_to_top_faces,
    kset_coupling_closed_form,
    riffle_coupling_closed_form,
    riffle_faces,
    sample_card_collection_T,
    sample_kset_coupon_T,
    top_bottom_faces,
    tsetlin_bounds,
    tsetlin_faces,
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

CSV_HEADER = "t,s_exact,tv_exact,survival_exact,survival_mc,mc_stderr"

FAMILIES = {
    "tsetlin": "move-to-front on the braid arrangement; s(t) = P(T>t) "
    "under uniform card weights",
    "riffle": "inverse a-shuffle; s(t) = P(T>t) under uniform marks; "
    "closed-form cutoff parameters b=1-1/a, d=(1-1/a)^2",
    "k-to-top": "k random cards to top; its faces give b=2k(n-k)/(n(n-1)) "
    "and a non-constant d, so cutoff refuses it",
    "top-bottom": "random card to top or bottom; s(t) = P(T>t) under "
    "uniform card weights",
    "hypercube-nn": "weighted nearest-neighbor hypercube walk; "
    "s(t) = P(T>t) for any weights w_i^+, w_i^-",
    "hypercube-nonlocal": "flip k random coordinates; s(t) = P(T>t); "
    "closed-form cutoff parameters b=k/n, d=k^2/n^2-k(n-k)/(n^2(n-1))",
    "ising": "ferromagnetic Ising Glauber dynamics (glauber mode; "
    "--width --height --beta --field as params)",
    "product": "independent-spin Glauber sanity system (glauber mode)",
}


class ConfigError(ValueError):
    pass


def _parse_number(tok):
    tok = tok.strip()
    if "/" in tok:
        num, den = tok.split("/")
        return float(num) / float(den)
    return float(tok)


def _parse_value(raw):
    raw = raw.strip()
    if "," in raw:
        return [_parse_number(x) for x in raw.split(",") if x.strip()]
    return raw


def parse_params(tokens):
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        key, raw = tok.split("=", 1)
        params[key.strip()] = _parse_value(raw)
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
    each token is a whole number, as _whole checks it."""
    if isinstance(spec, list):
        grid = [_whole(x, "t-grid time") for x in spec]
    elif ".." in (spec := str(spec)):
        parts = [_whole(x, "t-grid bound") for x in spec.split("..")]
        if len(parts) > 3 or parts[2:] == [0]:
            raise ConfigError(f"bad t-grid {spec!r}")
        grid = list(range(parts[0], parts[1] + 1, *parts[2:]))
    else:
        grid = [_whole(x, "t-grid time") for x in spec.split(",") if x.strip()]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("t-grid must be nonempty and strictly increasing")
    if grid[0] < 0:
        raise ConfigError(f"t-grid times must be >= 0, got {grid[0]}")
    return grid


def _number(v, what):
    try:
        return float(v)  # a list value raises TypeError
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be one number, got {v!r}") from None


def _whole(v, what):
    """v as an int; a fraction, an infinity or no number raises ConfigError."""
    if not _number(v, what).is_integer():
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    raw = str(v).strip()
    return int(raw) if raw.isdigit() else int(float(v))  # digits stay exact past 2**53


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
        if n is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return np.full(n, 1.0 / n)
    v = params[key]
    if not isinstance(v, list):
        v = [_parse_number(v)]
    return np.asarray(v, dtype=float)


def build_family(family, params):
    """Resolve a family name into (faces, arrangement, info).

    faces() lists the weighted faces on first use; arrangement(face_limit)
    builds the arrangement of at most face_limit chambers, and only exact
    mode calls it.  info carries the family's T sampler, (trials, seed) ->
    samples, which reads no faces for tsetlin and hypercube-nonlocal, and
    the closed-form (b, d) of families with one.
    """
    info = {"bd": None}
    if family == "tsetlin":
        weights = _get_weights(params, "weights", _get_int(params, "n", 0) or None)
        info["spec"] = spec = TsetlinSpec(weights)
        info["t_sampler"] = lambda trials, seed: sample_card_collection_T(spec, trials, seed)
        n, listing = spec.n, (tsetlin_faces, spec)
    elif family == "riffle":
        n = _get_int(params, "n")
        a = _get_int(params, "a", 2)
        info["bd"] = riffle_coupling_closed_form(a)
        listing = (riffle_faces, n, a)
    elif family == "k-to-top":
        n, k = _get_int(params, "n"), _get_int(params, "k")
        listing = (k_to_top_faces, n, k)
    elif family == "top-bottom":
        n = _get_int(params, "n")
        listing = (top_bottom_faces, n, _get_weights(params, "weights", n))
    elif family == "hypercube-nn":
        if (n := _get_int(params, "n")) < 1:
            raise ConfigError(f"hypercube-nn needs n >= 1, got n={n}")
        half = np.full(n, 1.0 / (2 * n))
        w_plus = _get_weights(params, "w_plus") if "w_plus" in params else half
        w_minus = _get_weights(params, "w_minus") if "w_minus" in params else half
        if not len(w_plus) == len(w_minus) == n:
            raise ConfigError(f"hypercube-nn needs n={n} weights in w_plus and w_minus")
        listing = (hypercube_nn_faces, w_plus, w_minus)
    elif family == "hypercube-nonlocal":
        n, k = _get_int(params, "n"), _get_int(params, "k")
        if not 1 < k <= n / 2:
            raise ConfigError(f"hypercube-nonlocal needs 1 < k <= n/2, got n={n} k={k}")
        info["bd"] = kset_coupling_closed_form(n, k)
        info["t_sampler"] = lambda trials, seed: sample_kset_coupon_T(n, k, trials, seed)
        listing = (hypercube_nonlocal_faces, n, k)
    else:
        raise ConfigError(f"unknown family {family!r}; see the list subcommand")
    faces = functools.cache(functools.partial(*listing))
    info.setdefault("t_sampler", lambda trials, seed: sample_T_batch(faces(), trials, seed))
    build = build_boolean if family.startswith("hypercube") else build_braid
    return faces, functools.cache(functools.partial(build, n)), info


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
    raise ConfigError(f"unknown glauber family {family!r}")


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


def cmd_exact(args, params):
    faces, arrangement, _ = build_family(args.family, params)
    arr, w = arrangement(DEFAULT_CHAMBER_CAP), faces()  # no face listed past the cap
    grid = parse_t_grid(args.t_grid)
    surv = survival_exact_profile(arr, w, grid)  # its hyperplane cap refuses before the walk
    stats = {}
    dist = distance_profiles(arr, w, grid, stats=stats)
    rows = [(t, *dist[t], surv[t], None, None) for t in grid]
    write_csv(args.out, _meta(args, params, list(stats.items())), rows)


def _mc_rows(args, info, grid):
    """CSV rows of the Monte Carlo survival estimate over grid, drawn with
    the family's T sampler."""
    est = survival_from_samples(info["t_sampler"](args.trials, args.seed), grid, seed=args.seed)
    return [
        (t, None, None, None, p, se)
        for t, p, se in zip(est.t_values, est.p_hat, est.std_err)
    ]


def cmd_mc(args, params):
    _, _, info = build_family(args.family, params)
    rows = _mc_rows(args, info, parse_t_grid(args.t_grid))
    write_csv(args.out, _meta(args, params), rows)


def cmd_bounds(args, params):
    if args.family != "tsetlin":
        raise ConfigError("bounds mode applies to the tsetlin family")
    parse_t_grid(args.t_grid)  # checked like every grid, though bounds picks its own times
    _, _, info = build_family(args.family, params)
    spec = info["spec"]
    c = _get_float(params, "c", 3.0)
    report = tsetlin_bounds(spec, c, strict=bool(_get_int(params, "strict", 0)))
    times = sorted(
        {max(0, math.ceil(report.lower_time)), math.ceil(report.upper_time)}
    )
    rows = _mc_rows(args, info, times)
    extra = [(k, _fmt(v)) for k, v in dataclasses.asdict(report).items()]  # in field order
    if spec.equal_weights:  # then P(T > t) is the count chain's, cut at n - 1 cards
        try:
            rows = [(t, s, tv, coupon_survival_uniform(spec.n, t, spec.n - 1), p, se)
                    for t, s, tv, _, p, se in rows]
        except CapacityError as exc:  # the column stays blank, and the preamble says why
            extra.append(("survival_exact", f"refused: {exc}"))
    write_csv(args.out, _meta(args, params, extra), rows)


def cmd_cutoff(args, params):
    faces, _, info = build_family(args.family, params)
    if info["bd"] is not None:
        b, d = info["bd"]
    else:
        cp = coupling_parameters(faces())
        if cp.uniform_b is None or cp.uniform_d is None:
            raise ConfigError("b or d not constant; no cutoff prediction")
        b, d = cp.uniform_b, cp.uniform_d
    n = _get_int(params, "n")
    m = n if args.family.startswith("hypercube") else n * (n - 1) // 2
    pred = cutoff_prediction(b, d, m)
    if args.t_grid:
        grid = parse_t_grid(args.t_grid)
    else:
        lo = max(1, math.floor(pred.time - 4 * pred.window))
        hi = math.ceil(pred.time + 4 * pred.window)
        step = max(1, (hi - lo) // 32)
        grid = list(range(lo, hi + 1, step))
    rows = _mc_rows(args, info, grid)
    extra = [
        ("b", _fmt(b)),
        ("d", _fmt(d)),
        ("m", m),
        ("cutoff_time", _fmt(pred.time)),
        ("window", _fmt(pred.window)),
        ("assumptions_ok", pred.assumptions_ok),
    ]
    write_csv(args.out, _meta(args, params, extra), rows)


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


def main(argv=None):
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
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.command == "list":
        cmd_list(args, {})
        return 0

    try:  # the one refusal boundary: a bad argument or a cap is a usage error
        return _run(args)
    except (ValueError, CapacityError) as exc:
        parser.error(str(exc))


def _run(args):
    params = {}
    if args.config:
        params.update(read_config_file(args.config))
    params.update(parse_params(args.params))
    # config-file fallbacks for the harness-level settings
    if args.family is None:
        args.family = params.pop("family", None)
        if args.family is None:
            raise ConfigError("missing family")
    for key in ("family", "mode"):
        params.pop(key, None)
    if args.t_grid is None:
        args.t_grid = params.pop("t", params.pop("t_grid", None))
    else:
        params.pop("t", None), params.pop("t_grid", None)
    if args.seed is None:
        params.setdefault("seed", os.environ.get(SEED_ENV_VAR, "0"))
        args.seed = _get_int(params, "seed")
        del params["seed"]
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if "trials" in params:
        args.trials = _get_int(params, "trials")
        del params["trials"]
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    if args.command != "cutoff" and args.t_grid is None:
        raise ConfigError("missing t-grid")
    args.func(args, params)
    return 0


if __name__ == "__main__":
    sys.exit(main())
