"""Weight-space enumeration and module-level weight utilities.

Bases of the (weight, charge) homogeneous subspaces of the vacuum module and
of the generic highest-weight module are enumerated by one multiset recursion
over the creation modes, listed in the canonical PBW order.  An independent
Euler-product counting oracle is provided so the enumeration can be
cross-checked in tests without trusting the enumeration code itself.
"""

from __future__ import annotations

from fractions import Fraction
import os
from types import SimpleNamespace

from .arith import Q, frac
from .modes import BAR, GM, GP, HW, J, L, BPAlgebra, State, mode_str

DEFAULT_WEIGHT_BOUND = 8


def weight_bound() -> int:
    """Enumeration bound: config default, overridable via BPALG_WEIGHT_BOUND."""
    return int(os.environ.get("BPALG_WEIGHT_BOUND", DEFAULT_WEIGHT_BOUND))


class WeightSpaceBasis(SimpleNamespace):
    def __init__(self, k: Fraction, convention: str, base: str, weight: Fraction, charge: int, monomials: list):
        super().__init__(k=k, convention=convention, base=base, weight=weight, charge=charge, monomials=monomials)

    def __len__(self):
        return len(self.monomials)

    def to_json(self):
        return [[mode_str(m) for m in mono] for mono in self.monomials]


def _mode_pool(algebra: BPAlgebra, gen: str, base: str, cap: Fraction):
    """Creation modes of one generator with weight <= cap, shallowest first."""
    out = []
    n = algebra.creation_bound(gen, base)
    while algebra.weight((gen, n)) <= cap:
        out.append((n, algebra.weight((gen, n))))
        n -= 1
    return out


def multisets(pool, total: Fraction):
    """Multisets from a finite (item, weight) pool with the given total weight.

    Items of weight zero are never drawn.  Emitted tuples keep the pool's
    order, so a pool listed in canonical order yields canonical monomials.
    """

    def rec(start: int, remaining: Fraction):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            item, w = pool[i]
            if 0 < w <= remaining:
                for rest in rec(i, remaining - w):
                    yield (item,) + rest

    yield from rec(0, total)


def enumerate_basis(algebra: BPAlgebra, base: str, weight, charge: int) -> WeightSpaceBasis:
    """Complete, duplicate-free canonical basis of the (weight, charge) space."""
    weight = frac(weight)
    if weight < 0:
        raise ValueError("weights in the module are nonnegative")
    if weight > weight_bound():
        raise ValueError(
            f"weight {weight} exceeds the enumeration bound {weight_bound()}"
        )
    if (2 * weight).denominator != 1:
        raise ValueError("weights are multiples of 1/2")
    # Canonical PBW order: L, J, G+, G-, each generator shallowest first.
    pool = [
        ((gen, n), w) for gen in (L, J, GP, GM) for n, w in _mode_pool(algebra, gen, base, weight)
    ]
    # On the highest-weight base G+(0) has weight zero and fills missing charge.
    has_zero_gp = ((GP, 0), 0) in pool
    monomials = []
    for mono in multisets(pool, weight):
        extra = charge - algebra.monomial_charge(mono)
        if extra == 0:
            monomials.append(mono)
        elif extra > 0 and has_zero_gp:
            cut = sum(1 for gen, _ in mono if gen in (L, J))
            monomials.append(mono[:cut] + ((GP, 0),) * extra + mono[cut:])
    monomials.sort(key=lambda mono: (len(mono), [(m[0], -m[1]) for m in mono]))
    return WeightSpaceBasis(algebra.k, algebra.convention, base, weight, charge, monomials)


def basis_dimension_oracle(algebra: BPAlgebra, base: str, max_weight):
    """Independent graded-dimension oracle from the Euler product.

    Returns a callable count(weight, charge).  The series
    prod_modes 1/(1 - z^charge q^weight) over the weighted creation modes is
    expanded by repeated shifted addition; on the highest-weight base the
    weight-zero mode contributes a cumulative sum over lower charges (every
    missing unit of charge is supplied by one extra power of it).
    """
    max_weight = frac(max_weight)
    series: dict[tuple[Fraction, int], int] = {(Q(0), 0): 1}
    weighted = []
    has_zero_mode = False
    for gen in (L, J, GP, GM):
        for n, w in _mode_pool(algebra, gen, base, max_weight):
            if w == 0:
                has_zero_mode = True
            else:
                weighted.append((algebra.charge((gen, n)), w))
    for charge, w in weighted:
        new = dict(series)
        power = 1
        while power * w <= max_weight:
            for (sw, sc), dim in series.items():
                if sw + power * w <= max_weight:
                    key = (sw + power * w, sc + power * charge)
                    new[key] = new.get(key, 0) + dim
            power += 1
        series = new

    def count(weight, charge) -> int:
        weight = frac(weight)
        if weight > max_weight:
            raise ValueError("weight beyond the oracle's truncation")
        if not has_zero_mode:
            return series.get((weight, charge), 0)
        return sum(
            dim for (sw, sc), dim in series.items() if sw == weight and sc <= charge
        )

    return count


# ---------------------------------------------------------------------------
# Top-level operators
# ---------------------------------------------------------------------------

def top_vector(algebra: BPAlgebra, i: int) -> State:
    """w_i = G+(0)^i v(x,y) in the highest-weight module."""
    if algebra.convention != BAR:
        raise ValueError("top-level vectors live in the integer-graded convention")
    return algebra.normal_form([(GP, 0)] * i, base=HW)


def top_action(algebra: BPAlgebra, op: str, i: int) -> State:
    """Action of a zero mode on w_i, computed by normal ordering.

    ``op`` is one of "E" (G+(0)), "F" (G-(0)), "X" (J(0)), "Y" (L(0)).  The
    closed forms E w_i = w_{i+1}, F w_i = i h_i(x,y) w_{i-1}, X w_i = (x+i) w_i
    and Y w_i = y w_i are *checked against* this function in the tests, never
    assumed by it.
    """
    if i < 0:
        raise ValueError("index out of range")
    modes = {"E": (GP, 0), "F": (GM, 0), "X": (J, 0), "Y": (L, 0)}
    if op not in modes:
        raise ValueError(f"unknown top-level operator {op!r}")
    return algebra.apply_mode(modes[op], top_vector(algebra, i))


# ---------------------------------------------------------------------------
# Weight maps
# ---------------------------------------------------------------------------

def contragredient_weight(x, y):
    """Highest weight of the contragredient module, integer-graded labels."""
    x, y = frac(x), frac(y)
    return (-x, y + x)


def conjugate_weight_omega(x, y):
    """The same symmetry in the half-integer-graded labels."""
    x, y = frac(x), frac(y)
    return (-x, y)


def spectral_flow_weight(x, y, i: int, k):
    """Highest weight of the spectral-flow twist, given dim(top level) = i; x, y may be polynomials."""
    if i < 1:
        raise ValueError("the top-level dimension is at least 1")
    k = frac(k)
    lam = (2 * k + 3) / 3
    return (x + i - 1 - lam, y - x - i + 1 + lam)


def spectral_flow_weight_inverse(xh, yh, i: int, k):
    """Inverse twist; ``i`` is the top-level dimension of the *preimage*."""
    if i < 1:
        raise ValueError("the top-level dimension is at least 1")
    xh, yh, k = frac(xh), frac(yh), frac(k)
    lam = (2 * k + 3) / 3
    x = xh - i + 1 + lam
    y = yh + x + i - 1 - lam
    return (x, y)
