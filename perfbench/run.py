"""Benchmark of bpalgebra's exact engine, timed from outside the package.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One parent process generates every
operation from the seed and runs fresh worker interpreters one at a time;
each pass of a workload gets fresh workers, so no memo survives from one
pass to the next.  Every operation's output is checked (see operations.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes, interleaved with untraced passes whose difference gives
``trace.overhead_s``, and the spans are written to ``perfbench/out/``.
The lines before the last say how many samples each figure rests on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path
import random
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
import tracer as tracing
from workloads import WORKLOADS, plan_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"

# Every run, setup probes included, ends well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0
SETUP_PROBES = 20

END_TO_END = (("pass_s", "s"), ("op_p90_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def worker_env() -> dict:
    """The caller's environment, minus what would change what is measured."""
    env = dict(os.environ)
    # Default enumeration bound (8); bytecode is cached as on an install.
    for name in ("BPALG_WEIGHT_BOUND", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH"):
        env.pop(name, None)
    return env


class Bench:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = worker_env()
        self.setup_s: list[float] = []  # raw, and scaled to the reference speed
        self.setup_ref_s: list[float] = []

    def job(self, ops: list[dict], trace: bool) -> dict:
        """Run one worker interpreter to completion and return its result."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run time limit reached")
        payload = json.dumps({"ops": ops, "trace": trace})
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(SRC)],
                input=payload,
                capture_output=True,
                text=True,
                timeout=timeout,
                env=self.env,
                cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            raise WorkerFailed(f"worker wrote no result: {proc.stdout[-200:]!r}") from None
        self.setup_s.append(out["setup_s"])
        self.setup_ref_s.append(out["setup_s"] * REFERENCE_S / out["setup_calib_s"])
        return out

    def run_pass(self, jobs: list[list[dict]], trace: bool) -> dict:
        """One pass: its jobs in order, each in a fresh worker."""
        record = {"trace": trace, "seconds": 0.0, "rss_kb": 0, "ops": [], "layers": {}, "spans": []}
        for ops in jobs:
            started = time.monotonic()
            try:
                out = self.job(ops, trace)
            except WorkerFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                # The worker's whole wall time stands in for its operations.
                record["seconds"] += time.monotonic() - started
                record["ops"] += [{"op": op, "ok": False, "seconds": None, "ref_s": None} for op in ops]
                continue
            for op, result in zip(ops, out["ops"]):
                if not result["ok"]:
                    print(f"failed: {op}: {result.get('error', 'wrong output')}", file=sys.stderr)
                ref_s = result["seconds"] * REFERENCE_S / result["calib_s"]
                record["ops"].append({"op": op, "ref_s": ref_s, **result})
                record["seconds"] += result["seconds"]
            record["rss_kb"] = max(record["rss_kb"], out["rss_kb"])
            if trace:
                record["layers"] = tracing.merge(record["layers"], tracing.summarize(out["spans"]))
                record["spans"].append(out["spans"])
        return record


def timed(record: dict) -> list[float]:
    return [op["ref_s"] for op in record["ops"] if op["ref_s"] is not None]


def pass_time(passes: list[dict], key: str = "ref_s") -> float:
    """Typical time of one pass: each operation's median time over the
    passes, summed over the operations of a pass.

    A median per operation rests on every pass's sample of it, spread over
    the whole window; a median of whole-pass sums would rest on three or
    four samples in the longer workloads.
    """
    samples: dict[str, list[float]] = {}
    for record in passes:
        for op in record["ops"]:
            if op[key] is not None:
                samples.setdefault(json.dumps(op["op"], sort_keys=True), []).append(op[key])
    return sum(statistics.median(v) for v in samples.values())


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(len(ranked) * share) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    started = time.monotonic()
    bench = Bench(started + RUN_LIMIT_S)
    bench.job([], False)  # warm-up: writes __pycache__ before set-up is timed
    bench.setup_s.clear()
    bench.setup_ref_s.clear()
    for _ in range(SETUP_PROBES):
        bench.job([], False)

    rng = random.Random(seed)
    passes = []
    window = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        passes.append(bench.run_pass(plan_pass(workload, rng), traced))
        now = time.monotonic()
        # Stop once the next pass would mostly fall outside the window.
        enough = now + (now - began) / 2 >= window + seconds
        if (enough and (not trace or len(passes) >= 2)) or now >= bench.deadline - 1:
            break

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    plain = [p for p in passes if not p["trace"]]
    if not any(timed(p) for p in plain):
        raise WorkerFailed("no operation completed")
    pass_s = pass_time(plain)
    lines = [
        f"workload {workload}  seed {seed}  window {seconds} s  trace {int(trace)}",
        f"passes {len(passes)} ({len(plain)} untraced)  operations {len(ops)}  failed {failed}"
        f"  failed_share {failed / len(ops):.4f}",
        f"pass_s {pass_s:.4f} s  (per-operation medians over {len(plain)} untraced passes, summed;"
        f" {pass_time(plain, 'seconds'):.4f} s unscaled)",
        "  unscaled untraced pass sums: " + " ".join(f"{p['seconds']:.3f}" for p in plain),
    ]
    if trace:
        metrics = traced_metrics(workload, passes, pass_s, lines)
        write_spans(workload, seed, passes)
    else:
        op_p90 = [percentile(timed(p), 0.9) for p in plain if timed(p)]
        values = {
            "pass_s": pass_s,
            "op_p90_s": statistics.median(op_p90),
            "setup_s": statistics.median(bench.setup_ref_s),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
        }
        lines += [
            f"op_p90_s {values['op_p90_s']:.4f} s  (p90 of the {len(timed(plain[0]))} operations of a pass,"
            f" median over {len(plain)} passes)",
            f"setup_s {values['setup_s']:.4f} s  (median of {len(bench.setup_s)} worker set-ups;"
            f" {statistics.median(bench.setup_s):.4f} s unscaled)",
            f"peak_rss_mb {values['peak_rss_mb']:.1f} MB  (median over passes of the largest worker)",
        ]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, lines


def traced_metrics(workload: str, passes: list[dict], plain_pass_s: float, lines: list[str]) -> dict:
    traced = [p for p in passes if p["trace"]]
    missing = [
        layer for layer in tracing.EXPECTED[workload] if not any(p["layers"].get(f"{layer}.calls") for p in traced)
    ]
    if missing:
        raise SystemExit(f"error: traced {workload} never entered {', '.join(missing)}")
    overhead = pass_time(traced) - plain_pass_s
    metrics = {}
    for name, unit in tracing.metric_names():
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median_low(p["layers"].get(name, 0) for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    lines.append(f"per-layer values: medians over {len(traced)} traced passes, per pass")
    for name, unit in tracing.metric_names():
        lines.append(f"  {name:40s} {metrics[name]['value']:>14.6g} {unit}")
    return metrics


def write_spans(workload: str, seed: int, passes: list[dict]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    traced = [{"pass": i, "workers": p["spans"]} for i, p in enumerate(passes) if p["trace"]]
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": traced}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bpalgebra" / "__init__.py").is_file():
        print(f"error: no bpalgebra sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
