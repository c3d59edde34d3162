"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload exact|search|montecarlo --seed N \
        --seconds S --trace 0|1

Run from the root of a qtop checkout; the program is imported from its
`src/`.  A run draws a fixed list of operations from the seed (the
count is set by --seconds at each workload's reference pace), sets up,
runs the operations one after another in this single thread, and then
checks every output.  With --trace 0 it reports the end-to-end metrics;
set-up is repeated in fresh processes and its median reported.  With
--trace 1 it wraps the library's layers and reports per-layer metrics
instead.  Full results and trace spans are written under bench/out/.
"""

import os
import sys
import time

T0 = time.perf_counter()

# one thread everywhere; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PASSES = 3  # set-ups per untraced run: SETUP_PASSES - 1 probes and the run's own


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact", "search", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (ROOT / "src" / "qtop" / "__init__.py").is_file():
        sys.exit(f"error: no qtop sources under {ROOT / 'src'}; run from a qtop checkout")
    sys.path.insert(0, str(ROOT / "src"))


def setup_probe(args) -> float:
    """Seconds one fresh process takes to set the workload up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    start = T0
    setup_samples = []
    if not args.trace and not args.setup_probe:
        setup_samples = [setup_probe(args) for _ in range(SETUP_PASSES - 1)]
        start = time.perf_counter()

    import workloads  # imports qtop

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(tracing.qtop_modules())
    span = tracer.span if tracer else (lambda name, op=None: contextlib.nullcontext())
    cls = workloads.WORKLOADS[args.workload]
    with span("bench.setup"):
        workload = cls(args.seed, cls.op_count(args.seconds))
        gc.collect()
    setup_samples.append(time.perf_counter() - start)
    if args.setup_probe:
        print(setup_samples[-1])
        return 0

    outs, times = [], []
    t_begin = time.perf_counter()
    for i, op in enumerate(workload.ops):
        t = time.perf_counter()
        try:
            with span("bench.op", i):
                out = workload.run(op)
        except Exception as exc:  # counted as a failed operation, reported below
            out = exc
        times.append(time.perf_counter() - t)
        outs.append(out)
    timed_wall = time.perf_counter() - t_begin
    if tracer:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed, wrong = [], 0, False
    done = [(op, out, dt) for op, out, dt in zip(workload.ops, outs, times) if not isinstance(out, Exception)]
    for i, (op, out) in enumerate(zip(workload.ops, outs)):
        if isinstance(out, Exception):
            failed += 1
            problems.append(f"op {i}: raised {type(out).__name__}: {out}")
            continue
        found = workload.check(op, out)
        if found:
            failed += 1
            wrong = True
            problems.extend(f"op {i}: {msg}" for msg in found)
    run_problems = workload.check_run([out for _op, out, _dt in done])
    problems.extend(run_problems)
    correct = not wrong and not run_problems

    timing = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(done) / timed_wall,
        "op_p50_s": statistics.median(dt for _op, _out, dt in done) if done else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
    if tracer:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = tracer.metrics()
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]
        }
    else:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in timing.items()}
    result = {"correct": correct, "attempted": len(workload.ops), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "timing": timing,
        "setup_samples_s": setup_samples,
        "op_times_s": times,
        "timed_wall_s": timed_wall,
        "problems": problems,
        "skipped_seeds": workload.skipped,
    }
    if tracer:
        record["layers"] = layers
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans_json()))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for msg in problems[:20]:
        print(msg, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
