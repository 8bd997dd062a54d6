"""Benchmark entry point for sfwitness.

    python3 bench/run.py --workload {reproduce,large-n,seesaw} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. The
timed phase repeats the workload pass until ``--seconds`` have elapsed (at
least one pass), in this fresh process.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median over separate launches of this script up to the first
timed call), ``peak_rss_mb`` (``ru_maxrss``) and, on the summary lines,
``fail_ratio``. ``--trace 1`` adds one traced pass after the untraced ones
and prints the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A
result file with environment, task values and timings goes to
``bench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_LAUNCHES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "large-n", "seesaw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set only on the setup launches this script makes of itself
    parser.add_argument("--probe-t0-ns", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_launch(args) -> float:
    """Seconds from launching this script to the point of its first timed call."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--probe-t0-ns", str(time.monotonic_ns())]
    done = subprocess.run(command, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _summary(value):
    """JSON-friendly digest of a task's value for the result file."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "bound") and hasattr(value, "best_cut"):
        return {"bound": value.bound, "iterations": value.iterations,
                "converged": value.converged,
                "cut": [list(value.best_cut.part_a), list(value.best_cut.part_b)]}
    if hasattr(value, "n_qubits"):
        return {"type": type(value).__name__, "n_qubits": value.n_qubits}
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], dict):
        return {"exit_code": value[0], "checks": {c["name"]: c["passed"]
                                                  for c in value[1]["checks"]}}
    if isinstance(value, (tuple, list)):
        items = [v._asdict() if hasattr(v, "_asdict") else _summary(v) for v in value]
        return items if len(items) <= 16 else {"points": len(items), "first": items[0],
                                               "last": items[-1]}
    return repr(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sfwitness" / "__init__.py").is_file():
        print(f"error: sfwitness sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sfwitness
    import sfwitness.cli  # noqa: F401  (reproduce calls cli.main)

    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.probe_t0_ns is not None:
        print((time.monotonic_ns() - args.probe_t0_ns) / 1e9)
        return 0

    setup = [_setup_launch(args) for _ in range(SETUP_LAUNCHES)]

    walls, cpus, results = [], [], []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        rec = None  # the previous pass's values must not raise this pass's peak RSS
        cpu0, start = _cpu_seconds(), time.perf_counter()
        rec = workloads.run_pass(args.workload, sfwitness, inputs)
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu0)
        results.append(checks.CHECKS[args.workload](inputs, rec.values))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)

    # spans and envinfo are imported only after the timed passes, so that
    # setup_s covers no more than the interpreter, sfwitness and the inputs
    tracer = None
    if args.trace:
        import spans
        with spans.Tracer(sfwitness) as tracer:
            start = time.perf_counter()
            rec = workloads.run_pass(args.workload, sfwitness, inputs)
            traced_wall = time.perf_counter() - start
        results.append(checks.CHECKS[args.workload](inputs, rec.values))

    all_checks = [c for pass_checks in results for c in pass_checks]
    attempted = len(all_checks)
    failed = sum(not c["ok"] for c in all_checks)

    if args.trace:
        values = tracer.layer_metrics()
        values["process.cpu_s"] = statistics.median(cpus)
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    import envinfo
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.environment({
            w: workloads.largest_array(w, sfwitness, workloads.make_inputs(w, args.seed))
            for w in workloads.WORKLOADS}),
        "inputs": inputs,
        "setup_launches_s": setup, "pass_wall_s": walls, "pass_cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": failed / attempted,
        "tasks": [{"task": label, "seconds": rec.seconds[label],
                   "value": _summary(value)} for label, value in rec.values.items()],
        "checks": all_checks,
        "metrics": metrics,
    }
    if tracer is not None:
        record["traced_pass_wall_s"] = traced_wall
        record["span_count"] = tracer.span_count
        record["functions"] = tracer.function_table()
        np.savez_compressed(RESULTS / f"{stem}-spans.npz", names=np.array(tracer.names),
                            fn_layer=np.array(tracer.fn_layer), **tracer.span_arrays())
    result_path = RESULTS / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1, default=_summary) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  "
          f"pass walls {', '.join(f'{w:.3f}' for w in walls)} s")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    for check in all_checks:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: value={check['value']} "
                  f"reference={check['reference']} tol={check['tol']}")
    print(f"  results: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
