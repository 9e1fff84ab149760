"""Benchmark of chamberwalk: three workloads, every output checked.

Usage (from the root of the repository):

    python3 bench/run.py --workload {exact-profile,survival-grid,mc-sampling}
        [--seed N] [--seconds S] [--trace 0|1]

One run sets up (timed in fresh interpreters, see setup_probe.py), runs one
warm-up pass over the workload's operations, then at least three measured
passes and more until ``--seconds`` have gone by, and then checks every
output against the oracle values.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary goes to
standard error.
See README.md in this directory.
"""

import os

# Set before numpy is first imported, here and in the set-up probes.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

import calibrate  # noqa: E402
import inputs  # noqa: E402  (standard library only)
from tracing import Tracer  # noqa: E402  (standard library only)

WORKLOAD_NAMES = ("exact-profile", "survival-grid", "mc-sampling")
MIN_PASSES = 3  # measured passes per run, at least: a median of three drops one outlier
SETUP_PROBES = 11  # fresh-interpreter set-ups per run; setup_s is their median


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, scaled to the reference speed by
    the calibration kernel timed right after it; and the unscaled time."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
    setup_s, kernel_s = map(float, proc.stdout.split()[-2:])
    return calibrate.scale(setup_s, [kernel_s]), setup_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    probes = [] if tracer else [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_PROBES)]
    cw, cli, instances = inputs.setup(args.workload, args.seed,
                                      after_import=tracer.install if tracer else None)
    if not os.path.realpath(cw.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"chamberwalk was imported from {cw.__file__}, not from {SRC}")

    import numpy
    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(out_dir)
    try:
        ops = workloads.WORKLOADS[args.workload](cw, cli, instances, args.seed, out_dir)

        def run_pass(phase):
            """Wall time of each operation of one pass, and the same scaled to
            the reference speed by the calibration kernel timed before and
            after it.  Outputs are kept, and checked after the last pass.

            A full collection first, so that cyclic garbage left by earlier
            passes is not carried into this one: peak memory then does not
            grow with the number of passes a run happens to fit in.
            """
            if tracer:
                tracer.phase = phase
            gc.collect()
            times, kernel = [], [calibrate.kernel_s()]
            for op in ops:
                began = time.perf_counter()
                try:
                    output = op.run()
                except Exception:  # a raising operation counts as failed
                    times.append(time.perf_counter() - began)
                    op.raised(traceback.format_exc(limit=3))
                else:
                    times.append(time.perf_counter() - began)
                    op.record(output)
                kernel.append(calibrate.kernel_s())
            scaled = [calibrate.scale(t, kernel[i:i + 2]) for i, t in enumerate(times)]
            return times, scaled, kernel

        rss_before_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        warmup = run_pass("warm-up")
        passes, phases = [], []
        began = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - began < args.seconds:
            phases.append(f"pass-{len(passes) + 1}")
            passes.append(run_pass(phases[-1]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # read before the checks compute their oracle values in this process
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.phase = "checks"
    failures = {op.name: op.finish() for op in ops}
    failures = {name: problems for name, problems in failures.items() if problems}
    attempted = len(ops) * (1 + len(passes))
    failed = sum(len(v) for v in failures.values())
    correct = all(name in workloads.KNOWN_FAULTS for name in failures)
    # per operation, the median over the measured passes: raw and scaled
    raw_medians, op_medians = ([statistics.median(p[k][i] for p in passes)
                                for i in range(len(ops))] for k in (0, 1))

    if tracer:
        metrics = tracer.metrics(phases)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "pass_s": {"value": sum(op_medians), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    log = sys.stderr
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS} "
          f"python={sys.version.split()[0]} numpy={numpy.__version__}", file=log)
    print(f"peak RSS: {rss_before_mb:.1f} MiB before the first pass, "
          f"{peak_rss_mb:.1f} MiB after the last", file=log)
    print(f"set-up samples, scaled: {[round(p[0], 4) for p in probes]}", file=log)
    print(f"set-up samples, unscaled: {[round(p[1], 4) for p in probes]}", file=log)
    print(f"pass times, unscaled: warm-up {sum(warmup[0]):.3f} s, measured "
          f"{[round(sum(p[0]), 3) for p in passes]}; scaled: measured "
          f"{[round(sum(p[1]), 3) for p in passes]}", file=log)
    kernel = [k for p in passes for k in p[2]]
    print(f"calibration kernel: median {statistics.median(kernel):.4f} s, "
          f"{min(kernel):.4f}..{max(kernel):.4f} s over {len(kernel)} runs", file=log)
    for op, raw, median in zip(ops, raw_medians, op_medians):
        print(f"  {op.name}: median {median:.4f} s scaled, {raw:.4f} s unscaled, "
              f"over {len(passes)} passes", file=log)
    for name, problems in failures.items():
        known = " (known fault)" if name in workloads.KNOWN_FAULTS else ""
        print(f"FAILED {name}{known} x{len(problems)}: {problems[0]}", file=log)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
