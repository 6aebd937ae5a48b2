"""Golden data: the printed singular vectors and Zhu-layer values.

The JSON files under ``golden/`` hold the published coefficient tables; the
loaders below rebuild them as engine states so that every other module (and
the regression tests) compares freshly computed objects against this single
copy of the data.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
import json
import os

from .arith import Poly2, Q, frac
from .modes import BPAlgebra, State, parse_mode


@lru_cache(maxsize=None)
def _load(name: str):
    with open(os.path.join(os.path.dirname(__file__), "golden", name), encoding="utf-8") as fh:
        return json.load(fh)


def golden_tables() -> dict:
    return _load("tables.json")


def golden_zhu() -> dict:
    return _load("zhu.json")


def golden_states() -> dict:
    """Tables 1-2 in the canonical state-serialization format."""
    return _load("states.json")


def golden_classify() -> dict:
    return _load("classify.json")


def table_words(name: str):
    """(level, convention, [(mode word, coefficient), ...]) for a table entry."""
    entry = golden_tables()[name]
    words = [
        ([parse_mode(t) for t in word], frac(coeff))
        for word, coeff in entry["terms"]
    ]
    return frac(entry["level"]), entry["convention"], words


def table_state(name: str, algebra: BPAlgebra | None = None) -> State:
    """The table entry as a canonical state (built by normal ordering)."""
    level, convention, words = table_words(name)
    if algebra is None:
        algebra = BPAlgebra(level, convention)
    if algebra.k != level or algebra.convention != convention:
        raise ValueError(f"table {name} lives at level {level} in {convention}")
    return algebra.state_from_words(words)


def omega4(algebra=None) -> State:
    return table_state("omega4", algebra)


def omega3(algebra=None) -> State:
    return table_state("omega3", algebra)


def omega4_bar(algebra=None) -> State:
    return table_state("omega4_bar", algebra)


def omega3_bar(algebra=None) -> State:
    return table_state("omega3_bar", algebra)


def singular_table_name(level, weight, charge: int, convention: str) -> str | None:
    """The golden table of the singular vector at this configuration, if any.

    Every table holds a charge-zero vector.
    """
    for name, entry in golden_tables().items():
        key = (frac(entry["level"]), frac(entry["weight"]), entry["convention"])
        if charge == 0 and key == (level, weight, convention):
            return name
    return None


class RationalLevel(namedtuple("RationalLevel", "singular projection relation")):
    """The golden names of a rational level's data; its power and y0 are derived.

    ``singular`` names the golden singular vector (bar grading), ``projection``
    its zero-mode projection and ``relation`` its Smith relation word, both in
    ``zhu.json``; see ``zhu.smith_relation`` and ``zhu.relation_line``.
    """

    __slots__ = ()


RATIONAL_LEVELS = {
    Q(-5, 3): RationalLevel("omega4_bar", "U", "smith_relation_5_3"),
    Q(-9, 4): RationalLevel("omega3_bar", "V", "smith_relation_9_4"),
}


def golden_poly(name: str) -> Poly2:
    return Poly2.from_json(golden_zhu()[name])
