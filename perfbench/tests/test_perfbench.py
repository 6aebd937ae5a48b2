"""Tests of the benchmark itself: repeatable traces, wrapper placement,
failure accounting and the metric lists in BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
from pathlib import Path
import random
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, ladder_ops, plan_pass, sweep_ops  # noqa: E402


def _bench():
    return bench_run.Bench(time.monotonic() + 150)


def _traced_pass(jobs):
    record = _bench().run_pass(jobs, trace=True)
    counts = {k: v for k, v in record["layers"].items() if not k.endswith(".self_s")}
    outputs = sorted((json.dumps(r["op"], sort_keys=True), r["digest"], r["ok"]) for r in record["ops"])
    return counts, outputs


def test_two_traced_runs_give_identical_counts_and_outputs():
    jobs = {
        "suites": lambda rng: plan_pass("suites", rng),
        "singular-ladder": lambda rng: [ladder_ops(rng.sample(["bar", "omega"], 2), weights=(4, 5))],
        "basis-sweep": lambda rng: [sweep_ops(pairs=[("bar", "hw", ["0", "1", "2", "3"])], charges=range(-2, 3))],
    }
    for workload, plan in jobs.items():
        first = _traced_pass(plan(random.Random(1)))
        second = _traced_pass(plan(random.Random(2)))
        assert first == second, workload
        counts, outputs = first
        assert all(ok for _, _, ok in outputs), workload
        for layer in tracer.EXPECTED[workload]:
            assert counts.get(f"{layer}.calls"), (workload, layer)


def test_traced_run_fails_when_an_expected_layer_is_never_entered():
    traced = {"trace": True, "seconds": 1.0, "ops": [], "layers": {"cli.main.calls": 1}}
    with pytest.raises(SystemExit, match="never entered weightspace.enumerate_basis"):
        bench_run.traced_metrics("basis-sweep", [traced], 1.0, [])


def test_failed_operation_is_counted_and_the_job_goes_on():
    bad = {"kind": "singular", "level": "-5/3", "weight": 9, "charge": 0, "grading": "bar"}
    good = ladder_ops(["bar"], weights=(4,))[0]
    record = _bench().run_pass([[bad, good]], trace=False)
    assert [r["ok"] for r in record["ops"]] == [False, True]
    assert "exceeds the enumeration bound" in record["ops"][0]["error"]
    assert record["ops"][1]["calib_s"] > 0 and record["ops"][1]["ref_s"] > 0


_WRAP_CHECK = r"""
import sys
sys.path.insert(0, sys.argv[1])
import bpalgebra, bpalgebra.cli, bpalgebra.tables
import tracer
originals = {}
for layer, module, attr, _, _ in tracer.LAYERS:
    if "." not in attr:
        originals[layer] = getattr(sys.modules[module], attr)
t = tracer.Tracer()
tracer.install(t)
for layer, original in originals.items():
    for name, mod in sys.modules.items():
        if name.split(".")[0] == "bpalgebra":
            assert original not in vars(mod).values(), (layer, name)
t.active = True
from bpalgebra.arith import Poly2
x, y = Poly2.x(), Poly2.y()
bpalgebra.classify.solve_system(x * x + y * y - Poly2.const(2), x - y)
names = {span[0] for span in t.export()}
assert {"classify.solve_system", "arith.resultant", "arith.rational_roots"} <= names, names
print("ok")
"""


def test_every_lookup_of_a_layer_is_wrapped():
    src = str(BENCH_DIR.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _WRAP_CHECK, src], capture_output=True, text=True, cwd=BENCH_DIR, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
