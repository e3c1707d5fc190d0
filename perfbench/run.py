"""tensorray benchmark: seeded closed-loop workloads against the public API and CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload project --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs ops back to back in this process (closed loop, single
process); each op is checked for correctness as soon as it ends.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  Lines before it
name every metric with its unit, including the ones that only make sense per
run (tail latency, worst tolerance ratio, failed share).  A run record with
the environment, every op and, when traced, every span is written under
``.perfbench_runs/``.  The exit code is 0 only when every op passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("project", "analyze", "check-cli")
SETUP_REPEATS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed-loop budget; the loop stops between passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> dict:
    """Single-worker projector and at most one BLAS thread per process.

    Must run before numpy is imported.  Returns the caller's original values.
    """
    original = {var: os.environ.get(var) for var in BLAS_VARS + ("TENSORRAY_THREADS",)}
    os.environ.pop("TENSORRAY_THREADS", None)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return original


def import_program() -> None:
    """Import tensorray from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tensorray
        import tensorray.cli  # noqa: F401  (loaded before the tracer patches it)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tensorray from {src}: {exc}")
    if not Path(tensorray.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: tensorray resolved outside {src}: {tensorray.__file__}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args, original_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads_env": {var: os.environ.get(var) for var in BLAS_VARS + ("TENSORRAY_THREADS",)},
        "threads_env_caller": original_env,
    }


def tail(durations: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it (needs 11 samples)."""
    n = len(durations)
    if n < 11:
        return None
    ordered = sorted(durations)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_workload(args, import_s: float, original_env: dict) -> int:
    import tracer as tracing
    from workloads import WORKLOADS

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.install()
            tracer.op = tracing.SETUP_OP
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)

        ops = []
        loop_start = time.perf_counter()
        while True:
            for _ in range(workload.pass_len):
                ops.append(run_op(workload, len(ops), tracer))
            elapsed = time.perf_counter() - loop_start
            passes = len(ops) // workload.pass_len
            if elapsed + elapsed / passes > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    durations = [op["seconds"] for op in ops]
    failed = sum(not op["passed"] for op in ops)
    worst = max((max(op["ratios"].values(), default=0.0) for op in ops), default=0.0)
    end_to_end = {
        "ops_per_s": len(ops) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + statistics.median(setup_times),
    }
    # Printed and recorded, but not in BENCHMARK.json: see perfbench/README.md.
    summary = {
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail(durations),
        "worst_tol_ratio": worst,
        "failed_frac": failed / len(ops),
        "setup_repeats_s": setup_times,
        "import_s": import_s,
    }
    if tracer:
        metrics = tracing.layer_metrics(tracer, ops=len(ops), setups=SETUP_REPEATS,
                                        op_seconds=sum(durations))
        tracer.dump(RUNS / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    record = {"environment": environment(args, original_env), "end_to_end": end_to_end,
              "summary": summary, "metrics": metrics, "ops": ops}
    with open(RUNS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, value in end_to_end.items():
        print(f"{args.workload} {name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{args.workload} op_s_p50 {summary['op_s_p50']:.6g} s")
    t = summary["op_s_tail"]
    print(f"{args.workload} op_s_tail "
          + (f"{t['value']:.6g} s (p{t['percentile']:.1f} of {t['samples']} ops)" if t
             else f"n/a ({len(ops)} ops, needs at least 11)"))
    print(f"{args.workload} worst_tol_ratio {worst:.6g} 1")
    print(f"{args.workload} failed_frac {summary['failed_frac']:.6g} 1")
    if tracer:
        for name, entry in metrics.items():
            print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_op(workload, index: int, tracer) -> dict:
    if tracer:
        tracer.op = f"op{index}"
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = workload.op(index)
            label, ratios, problems = outcome.label, outcome.ratios, outcome.problems
            passed = outcome.passed
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            label, ratios, problems, passed = "?", {}, [traceback.format_exc(limit=1)], False
    seconds = time.perf_counter() - start
    if not passed:
        print(f"perfbench: op {index} ({label}) failed: {problems} {ratios}", file=sys.stderr)
    counts: dict[str, int] = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return {"index": index, "label": label, "seconds": seconds, "passed": passed,
            "ratios": ratios, "problems": problems, "warnings": counts}


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    original_env = pin_threads()
    start = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - start
    return run_workload(args, import_s, original_env)


if __name__ == "__main__":
    sys.exit(main())
