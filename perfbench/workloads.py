"""The three workloads: which operations a pass runs, and in which order.

Only plain argument lists leave this module; the worker turns them into
calls of ``bpalgebra``'s public functions.  The workload seed picks the
order of operations within a pass (``suites``, ``basis-sweep``) or the order
of the two gradings (``singular-ladder``); it never changes the operations
themselves.
"""

from __future__ import annotations

from fractions import Fraction
import random

LEVEL = "-5/3"

# The ten README invocations, one fresh interpreter each, as a `bpalg` call.
SUITES = {
    "singular_m5_3_w4": ["singular", "--level", "-5/3", "--weight", "4"],
    "singular_m9_4_w3_bar": ["singular", "--level", "-9/4", "--weight", "3", "--grading", "bar"],
    "singular_m5_3_w2": ["singular", "--level", "-5/3", "--weight", "2"],
    "zhu_m5_3": ["zhu", "--level", "-5/3"],
    "zhu_m9_4": ["zhu", "--level", "-9/4"],
    "zhu_m1": ["zhu", "--level", "-1"],
    "classify_m5_3": ["classify", "--level", "-5/3"],
    "classify_0": ["classify", "--level", "0"],
    "freefield_m5_3": ["freefield", "--level", "-5/3"],
    "freefield_0": ["freefield", "--level", "0"],
}

# w = 8 costs about 25 s per call and grading with the dense Fraction
# kernel; it joins the ladder once the kernel is fast.
LADDER_WEIGHTS = (4, 5, 6, 7)
GRADINGS = ("bar", "omega")

# (grading, base, weights): 221 + 117 + 91 = 429 cells over charges -6..6.
SWEEP_PAIRS = (
    ("omega", "vac", [str(Fraction(i, 2)) for i in range(17)]),
    ("bar", "vac", [str(w) for w in range(9)]),
    ("bar", "hw", [str(w) for w in range(7)]),
)
SWEEP_CHARGES = range(-6, 7)

WORKLOADS = ("suites", "singular-ladder", "basis-sweep")


def suite_ops() -> list[dict]:
    return [{"kind": "suite", "name": name, "argv": argv + ["--format", "json"]} for name, argv in SUITES.items()]


def ladder_ops(gradings=GRADINGS, weights=LADDER_WEIGHTS) -> list[dict]:
    return [
        {"kind": "singular", "level": LEVEL, "weight": w, "charge": 0, "grading": g}
        for g in gradings
        for w in weights
    ]


def sweep_ops(pairs=SWEEP_PAIRS, charges=SWEEP_CHARGES) -> list[dict]:
    return [
        {"kind": "basis", "level": LEVEL, "grading": g, "base": base, "weight": w, "charge": c}
        for g, base, weights in pairs
        for w in weights
        for c in charges
    ]


def plan_pass(workload: str, rng: random.Random) -> list[list[dict]]:
    """The worker jobs of one pass: each job is the op list of one interpreter."""
    if workload == "suites":
        ops = suite_ops()
        rng.shuffle(ops)
        return [[op] for op in ops]
    if workload == "singular-ladder":
        gradings = list(GRADINGS)
        rng.shuffle(gradings)
        return [ladder_ops(gradings)]
    if workload == "basis-sweep":
        ops = sweep_ops()
        rng.shuffle(ops)
        return [ops]
    raise ValueError(f"unknown workload {workload!r}")
