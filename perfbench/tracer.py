"""Span tracing around bpalgebra's layers, installed from outside the package.

``install`` replaces each layer function with a wrapper, in every bpalgebra
module that looks the name up (``cli`` imports ``find_singular``, ``singular``
imports ``kernel_basis`` and ``enumerate_basis``, and so on), and each layer
method on its class.  A wrapper records a span only for the outermost call of
its layer: ``apply_mode`` recurses through ``_insert`` thousands of times per
call, and only the outer call is a layer boundary.

Spans stay in memory as ``[name, start, end, parent, counters]`` and the
parent process turns them into per-pass self times with ``summarize``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


def _kernel_counters(bound, result) -> dict:
    rows, ncols = bound["rows"], bound["ncols"]
    entries = [v for row in rows for v in row if v]
    return {
        "arith.kernel.rows": len(rows),
        "arith.kernel.cols": ncols,
        "arith.kernel.nnz": len(entries),
        "arith.kernel.rank": ncols - len(result),
        "arith.kernel.max_entry_bits": max(
            (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in entries),
            default=0,
        ),
    }


def _basis_counters(bound, result) -> dict:
    return {"weightspace.monomials": len(result)}


# (layer, module, attribute, report call count, counters from (arguments, result))
LAYERS = (
    ("weightspace.enumerate_basis", "bpalgebra.weightspace", "enumerate_basis", True, _basis_counters),
    ("arith.kernel_basis", "bpalgebra.arith", "kernel_basis", True, _kernel_counters),
    ("modes.apply_mode", "bpalgebra.modes", "BPAlgebra.apply_mode", True, None),
    ("modes.state_product_action", "bpalgebra.modes", "BPAlgebra.state_product_action", True, None),
    ("modes.normal_form", "bpalgebra.modes", "BPAlgebra.normal_form", False, None),
    ("singular.find_singular", "bpalgebra.singular", "find_singular", False, None),
    ("singular.verify_singular", "bpalgebra.singular", "verify_singular", False, None),
    ("zhu.zero_mode_poly", "bpalgebra.zhu", "zero_mode_poly", False, None),
    ("zhu.zhu_star", "bpalgebra.zhu", "zhu_star", False, None),
    ("zhu.reduce_state", "bpalgebra.zhu", "ZhuReducer.reduce_state", False, None),
    ("zhu.smith_relation", "bpalgebra.zhu", "smith_relation", False, None),
    ("classify.classify_level", "bpalgebra.classify", "classify_level", False, None),
    ("classify.solve_system", "bpalgebra.classify", "solve_system", True, None),
    ("arith.resultant", "bpalgebra.arith", "resultant", False, None),
    ("arith.rational_roots", "bpalgebra.arith", "rational_roots", False, None),
    ("freefield.product", "bpalgebra.freefield", "FFAlgebra.product", True, None),
    ("freefield.push_state", "bpalgebra.freefield", "push_state", False, None),
    ("freefield.check_embedding", "bpalgebra.freefield", "check_embedding", False, None),
    ("cli.main", "bpalgebra.cli", "main", False, None),
)

COUNTER_NAMES = (
    "weightspace.monomials",
    "arith.kernel.rows",
    "arith.kernel.cols",
    "arith.kernel.nnz",
    "arith.kernel.rank",
    "arith.kernel.max_entry_bits",
)

# Counters that describe the largest matrix rather than add up over a pass.
_MAX_COUNTERS = {"arith.kernel.max_entry_bits"}

# Layers each workload must reach; a traced run that never enters one fails,
# so that a rename in the package cannot silently zero a layer.  The suites
# never reach arith.resultant: every system the shipped classifications solve
# has a difference linear in x, which solve_system solves without it.
EXPECTED = {
    "suites": (
        "modes.apply_mode",
        "modes.state_product_action",
        "modes.normal_form",
        "zhu.zero_mode_poly",
        "zhu.zhu_star",
        "zhu.reduce_state",
        "zhu.smith_relation",
        "classify.classify_level",
        "classify.solve_system",
        "arith.rational_roots",
        "freefield.product",
        "freefield.push_state",
        "freefield.check_embedding",
        "cli.main",
    ),
    "singular-ladder": (
        "arith.kernel_basis",
        "modes.apply_mode",
        "singular.find_singular",
        "singular.verify_singular",
    ),
    "basis-sweep": ("weightspace.enumerate_basis",),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, _, _, calls, _ in LAYERS:
        out.append((f"{layer}.self_s", "s"))
        if calls:
            out.append((f"{layer}.calls", "count"))
    for name in COUNTER_NAMES:
        out.append((name, "bits" if name.endswith("_bits") else "count"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Collects spans while ``active``; nothing is recorded otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._pending: list = []

    def wrap(self, layer: str, fn, counters=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counters else None
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[0] or not self.active:
                return fn(*args, **kwargs)
            depth[0] = 1
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[0] = 0
            if counters is not None:
                # Counted after the run, so the counting is not timed.
                self._pending.append((span, counters, signature.bind(*args, **kwargs), result))
            return result

        return traced

    def export(self) -> list[list]:
        """The spans, with their counters computed."""
        for span, counters, bound, result in self._pending:
            span[4] = counters(bound.arguments, result)
        self._pending.clear()
        return self.spans


def install(tracer: Tracer) -> None:
    """Wrap every layer of ``LAYERS`` in every loaded bpalgebra module."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "bpalgebra"]
    for layer, module_name, attr, _, counters in LAYERS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(layer, cls.__dict__[method], counters))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(layer, original, counters)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)


def _add(out: dict, key: str, value) -> None:
    out[key] = max(out.get(key, 0), value) if key in _MAX_COUNTERS else out.get(key, 0) + value


def summarize(spans: list[list]) -> dict:
    """Self time, call count and counters per layer for one worker's spans.

    A span's self time is its duration minus the time its child spans
    cover; children of one span never overlap, since a worker is one thread.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        _add(out, f"{name}.self_s", end - start - child[i])
        _add(out, f"{name}.calls", 1)
        for key, value in (counters or {}).items():
            _add(out, key, value)
    return out


def merge(a: dict, b: dict) -> dict:
    """Combine two ``summarize`` results (workers of one pass)."""
    out = dict(a)
    for key, value in b.items():
        _add(out, key, value)
    return out
