"""The operations a worker times, and the checks of their outputs.

Each operation calls one public bpalgebra function and records its time,
its output digest, its verdict and the calibration around it.  No check is
timed, and the checks that build engine objects (golden states, the
dimension oracle) run after every operation of the job, so they warm no
cache a later operation uses.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
import hashlib
import io
import json
from pathlib import Path
import resource
import time
import traceback

from calibrate import calibrate
import tracer as tracing

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Kernel dimension of find_singular(-5/3, w, 0, g) in either grading.
LADDER_KERNEL_DIM = {4: 1, 5: 0, 6: 0, 7: 0}
LADDER_GOLDEN = {"omega": "omega4", "bar": "omega4_bar"}

# Host speed changes within seconds; calibrate at least this often.
CALIBRATE_EVERY_S = 0.5


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    def __init__(self, bp):
        self.bp = bp
        self.algebras: dict = {}
        self.oracles: dict = {}
        self.deferred: list = []  # (result, check) pairs, run after all ops

    def algebra(self, level, grading):
        key = (level, grading)
        if key not in self.algebras:
            self.algebras[key] = self.bp.BPAlgebra(level, grading)
        return self.algebras[key]

    def suite(self, op, result):
        buf = io.StringIO()
        main = self.bp.cli.main
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = main(op["argv"])
            result["seconds"] = time.perf_counter() - start
        text = buf.getvalue()
        result["digest"] = _digest(text)
        want = (REFERENCE_DIR / f"{op['name']}.json").read_text()
        result["ok"] = code == 0 and json.loads(text).get("status") == "pass" and text == want

    def singular(self, op, result):
        level = Fraction(op["level"])
        start = time.perf_counter()
        sol = self.bp.find_singular(level, op["weight"], op["charge"], op["grading"])
        result["seconds"] = time.perf_counter() - start
        vectors = [v.to_json() for v in sol.vectors]
        result["digest"] = _digest(json.dumps([sol.dimension, vectors]))
        result["ok"] = sol.dimension == LADDER_KERNEL_DIM[op["weight"]]
        if sol.dimension == 1:
            self.deferred.append((result, lambda: self._matches_golden(sol.vectors[0], op["grading"])))

    def _matches_golden(self, vec, grading) -> bool:
        golden = self.bp.tables.table_state(LADDER_GOLDEN[grading])
        first = golden.monomials_sorted()[0]
        scaled = self.bp.singular.scale_to_match(vec, first, golden.terms[first].const_value())
        return scaled == golden

    def basis(self, op, result):
        algebra = self.algebra(Fraction(op["level"]), op["grading"])
        weight = Fraction(op["weight"])
        start = time.perf_counter()
        basis = self.bp.enumerate_basis(algebra, op["base"], weight, op["charge"])
        result["seconds"] = time.perf_counter() - start
        result["digest"] = _digest(json.dumps(basis.to_json()))
        result["ok"] = True
        size = len(basis)
        self.deferred.append((result, lambda: size == self._oracle(algebra, op["base"])(weight, op["charge"])))

    def _oracle(self, algebra, base):
        key = (algebra.k, algebra.convention, base)
        if key not in self.oracles:
            self.oracles[key] = self.bp.basis_dimension_oracle(algebra, base, self.bp.weightspace.weight_bound())
        return self.oracles[key]


def run(bp, src: str, job: dict) -> dict:
    """Run the job's operations on the imported package ``bp``, then check them."""
    if not Path(bp.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bpalgebra imported from {bp.__file__}, not from {src}")
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracing.install(tracer)
        tracer.active = True
    runner = Runner(bp)
    results = []
    # Each operation is scaled by the calibrations on either side of it.
    calibrations = [calibrate()]
    block: list[dict] = []
    last = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        result = {"ok": False, "seconds": 0.0, "digest": None}
        try:
            getattr(runner, op["kind"])(op, result)
        except Exception:
            result["error"] = traceback.format_exc(limit=-3)
        results.append(result)
        block.append(result)
        if time.perf_counter() - last >= CALIBRATE_EVERY_S or i == len(job["ops"]) - 1:
            calibrations.append(calibrate())
            for r in block:
                r["calib_s"] = (calibrations[-2] + calibrations[-1]) / 2
            block.clear()
            last = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.active = False
    for result, check in runner.deferred:
        try:
            result["ok"] = result["ok"] and check()
        except Exception:
            result["ok"] = False
            result["error"] = traceback.format_exc(limit=-3)
    return {
        "setup_calib_s": calibrations[0],
        "rss_kb": rss_kb,
        "ops": results,
        "spans": tracer.export() if tracer else None,
    }

