"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workloads project analyze check-cli \
        --seeds 1-10 --seconds 20 [--trace-seed 1] [--out perfbench/baseline.json]

Runs are sequential, one fresh process each.  For every workload and metric
it prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median``.  With ``--trace-seed`` it also makes
one traced run per workload and keeps its per-layer metrics, and the ratio
of its ``ops_per_s`` to the untraced run of the same seed.  ``--out``
writes everything, with the environment of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".perfbench_runs"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "summary": record["summary"], "end_to_end": record["end_to_end"],
            "environment": record["environment"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"end_to_end": {}, "worst_tol_ratio": [r["summary"]["worst_tol_ratio"] for r in runs],
                 "op_s_p50": spread([r["summary"]["op_s_p50"] for r in runs]),
                 "attempted": [r["result"]["attempted"] for r in runs]}
        report.setdefault("environment", runs[0]["environment"])
        for metric, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"unit": first["unit"], **spread(values)}
            stats = entry["end_to_end"][metric]
            print(f"{workload:10s} {metric:12s} median {stats['median']:.5g} {first['unit']:4s} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.4f}")
        print(f"{workload:10s} {'op_s_p50':12s} median {entry['op_s_p50']['median']:.5g} s    "
              f"spread {entry['op_s_p50']['spread']:.4f} (not gated)")
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": traced["result"]["metrics"]}
            if args.trace_seed in args.seeds:
                untraced = runs[args.seeds.index(args.trace_seed)]
                # same inputs, one run each: host noise dominates this ratio
                entry["per_layer"]["ops_per_s_traced_over_untraced"] = (
                    traced["end_to_end"]["ops_per_s"] / untraced["end_to_end"]["ops_per_s"])
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
