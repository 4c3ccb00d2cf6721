"""Benchmark command for hhlsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the public API of the hhlsim
sources under ``src/``, repeating whole passes over the workload's fixed
list of operations until S seconds have gone by, and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from spans around each module's
public functions with ``--trace 1``.  The traced run also writes its span
table to ``bench/out/trace-<workload>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One fixed BLAS thread count for every run; at most the CPUs this process may use.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7  # set-up is timed in this process and in SETUP_SAMPLES - 1 fresh ones


def prepare(workload: str, seed: int, out_dir: Path):
    """Import hhlsim, build the workload's inputs and warm it up: the set-up a user pays."""
    if not (ROOT / "src" / "hhlsim" / "__init__.py").is_file():
        raise SystemExit(f"hhlsim sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import hhlsim

    if Path(hhlsim.__file__).resolve().parent != ROOT / "src" / "hhlsim":
        raise SystemExit(f"imported hhlsim from {hhlsim.__file__}, not from {ROOT / 'src'}")
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[workload](seed, out_dir)
    w.warm_up()
    return w


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
        + ["--seconds", "0"],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class SetupSamples:
    """This process's set-up time plus fresh interpreters' ones, taken between passes at
    evenly spaced times, so that their median follows the host's speed over the whole run
    as ``pass_ms`` does, not over the few seconds after it."""

    def __init__(self, workload: str, seed: int, seconds: float, first: float):
        self.workload, self.seed = workload, seed
        self.interval = seconds / SETUP_SAMPLES
        self.start = time.perf_counter()
        self.samples = [first]

    def between_passes(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.start >= self.interval * len(self.samples):
            self.samples.append(setup_probe(self.workload, self.seed))

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_probe(self.workload, self.seed))
        return statistics.median(self.samples)


def run_passes(w, seconds: float, tracer, setup):
    """Whole passes while another one still fits in ``seconds``; checks and set-up
    samples run after each pass, untimed."""
    pass_times, layer_passes = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        gc.collect()
        outputs = []
        pass_time = 0.0
        for op in w.ops:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                outputs.append((op, op.run(), None))
            except Exception as exc:  # a raising operation counts as failed, the run goes on
                outputs.append((op, None, exc))
            pass_time += time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        pass_times.append(pass_time)
        if tracer is not None:
            layer_passes.append(tracer.take_pass())
        for op, result, exc in outputs:
            attempted += 1
            if exc is None:
                try:
                    op.check(result)
                    continue
                except Exception as bad:  # a check that fails or raises fails the operation
                    exc = bad
            failed += 1
            print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return pass_times, layer_passes, attempted, failed
        if setup is not None:
            setup.between_passes()


def trace_report(layer_passes: list, pass_times: list) -> tuple[dict, dict, bool]:
    """Per-pass per-layer metrics (times averaged over passes), the span table, and whether counts repeated."""
    import spans

    per_pass = [spans.layer_metrics(table) for table in layer_passes]
    metrics = {}
    counts_repeat = True
    for name, kind, _ in spans.PER_LAYER:
        values = [m[name] for m in per_pass]
        if kind == "self":
            value = statistics.fmean(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                counts_repeat = False
                print(f"COUNT DIFFERS {name} between passes: {sorted(set(values))}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": spans.metric_unit(kind)}
    totals: dict = {}
    for table in layer_passes:
        for name, row in table.items():
            acc = totals.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            for key in acc:
                acc[key] += row[key]
    n = len(layer_passes)
    per_span = {k: {key: v / n for key, v in row.items()} for k, row in sorted(totals.items())}
    details = {"passes": n, "traced_pass_ms": statistics.median(pass_times) * 1e3, "metrics": metrics, "spans": per_span}
    return metrics, details, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper_demo", "scaled_pure", "readout_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        w = prepare(args.workload, args.seed, out_dir)
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = setup = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        else:
            setup = SetupSamples(args.workload, args.seed, args.seconds, setup_s)
        pass_times, layer_passes, attempted, failed = run_passes(w, args.seconds, tracer, setup)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    correct = failed == 0
    if args.trace:
        metrics, details, counts_repeat = trace_report(layer_passes, pass_times)
        correct = correct and counts_repeat
        details.update(workload=args.workload, seed=args.seed, blas_threads=BLAS_THREADS)
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=2)
    else:
        completed = attempted - failed
        metrics = {
            "ops_per_s": {"value": completed / sum(pass_times), "unit": "ops/s"},
            "pass_ms": {"value": statistics.median(pass_times) * 1e3, "unit": "ms"},
            "setup_s": {"value": setup.median(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
