"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --runs 10 [--seconds S] [WORKLOAD ...]

Runs ``bench/run.py`` once per seed 1..runs on each workload, one run at a
time, keeps every raw result in ``bench/out/results/<workload>.json`` and
prints, per metric, the median, the first and third quartiles and the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results_dir = BENCH_DIR / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
            proc = subprocess.run(cmd + ["--seconds", str(args.seconds), "--trace", "0"], capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(seed=seed, exit_code=proc.returncode)
            runs.append(result)
        (results_dir / f"{workload}.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, failed/attempted: {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:11.4f}  q1 {q1:11.4f}  q3 {q3:11.4f}  spread {(q3 - q1) / med:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
