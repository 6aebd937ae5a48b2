"""Highest-weight classification at the four supported levels.

The classifier is an auditable re-derivation: every weight it emits is tagged
with the branch (polynomial system, diagonal equation, or boundary filter)
that produced it, and every exclusion carries the reason; the audit trail is
what the tests check.  One singular vector per level is the only input
(golden at -5/3 and -9/4, G+(-1)^{k+2} 1 at -1 and 0); the Smith relation
c E^P (Y - y0) or c E^P, with P and y0, and the projection filter derive from it.

The relation forces a nilpotency degree for the charge-raising zero mode
(h_i conditions, i <= P).  With no Y factor each h_i = 0 is a curve family.
Otherwise the h_i zeros combine with the spectral-flow shift of the weight,
or the weight has the eigenvalue y = y0 of the relation's second factor, where
candidates are cut down by the projection polynomial and the contragredient
symmetry.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .arith import POLY_X, POLY_Y, Poly1, Poly2, Q, binomial, frac, rational_roots, resultant
from .modes import BAR, BPAlgebra, State
from .singular import integral_level_vector
from .tables import RATIONAL_LEVELS, table_state
from .weightspace import contragredient_weight, spectral_flow_weight, top_action
from .zhu import h_in_i, h_poly, relation_line, smith_relation, zero_mode_poly

SUPPORTED_LEVELS = (Q(-5, 3), Q(-9, 4), Q(-1), Q(0))


class UnsupportedLevel(ValueError):
    pass


class IdenticalSystem(ValueError):
    """solve_system rejects identical polynomials (infinite solution set)."""


# ---------------------------------------------------------------------------
# Exact bivariate systems
# ---------------------------------------------------------------------------

def solve_system(p: Poly2, q: Poly2):
    """All common rational zeros of p and q, with a completeness flag.

    The flag is True when the elimination proves there are no further
    (irrational) solutions.  Identical inputs are rejected: their common zero
    set is a curve, not a finite list.
    """
    if not p or not q:
        raise ValueError("solve_system needs two nonzero polynomials")
    if p == q:
        raise IdenticalSystem("identical polynomials have an infinite common zero set")
    diff = q - p
    complete = True
    candidates_x = set()
    if diff.degree_in("y") == 0 and diff.degree_in("x") == 1:
        # Linear-in-x difference: x is pinned directly.
        lin = diff.as_poly1_in("x")
        candidates_x.add(-lin[0] / lin[1])
    else:
        if p.degree_in("y") == 0 and q.degree_in("y") == 0:
            raise ValueError("system is univariate in x; eliminate nothing")
        res = resultant(p, q, "y")
        if res.is_zero():
            raise IdenticalSystem("vanishing resultant: common factor in the system")
        roots, cofactor = rational_roots(res)
        candidates_x.update(roots)
        complete = complete and cofactor.is_const()
    solutions = []  # sorted and distinct: by x, then by the sorted fiber roots
    for xv in sorted(candidates_x):
        ys, flag_complete = _common_univariate_roots(p.specialize("x", xv), q.specialize("x", xv))
        complete = complete and flag_complete
        solutions.extend((xv, yv) for yv in ys if p.eval(xv, yv) == 0 and q.eval(xv, yv) == 0)
    return solutions, complete


def _common_univariate_roots(p: Poly1, q: Poly1):
    if p.is_zero() and q.is_zero():
        raise IdenticalSystem("both polynomials vanish identically on a fiber")
    if any(poly.is_const() and not poly.is_zero() for poly in (p, q)):
        return [], True  # a nonzero constant has no root: the fiber is empty
    # Roots of the first nonzero polynomial suffice; both are re-checked.
    roots, cofactor = rational_roots(q if p.is_zero() else p)
    return sorted(roots), cofactor.is_const()


# ---------------------------------------------------------------------------
# Classification data
# ---------------------------------------------------------------------------

class BranchResult(SimpleNamespace):
    """``excluded`` holds (weight, reason) pairs; ``complete`` is False when
    irrational solutions may be missing."""

    def __init__(self, name: str, description: str, system: list, solutions: list, admitted: list,
                 excluded: list | None = None, complete: bool = True):
        super().__init__(name=name, description=description, system=system, solutions=solutions,
                         admitted=admitted, excluded=[] if excluded is None else excluded, complete=complete)


Certificate = namedtuple("Certificate", "weight poly_in_i rational_roots verdict")


class WeightSet(SimpleNamespace):
    """``finite_families`` holds the symbolic families (k = -1, 0),
    ``identities`` (label, bool) pairs, and ``flagged_corner`` the (x, y) the
    flag names, which is checked and never rendered."""

    def __init__(self, k: Fraction, finite_top: list, infinite_top: list, finite_families: list | None = None,
                 branches: list | None = None, certificates: list | None = None, identities: list | None = None,
                 flags: list | None = None, flagged_corner: tuple | None = None):
        super().__init__(
            k=k, finite_top=finite_top, infinite_top=infinite_top,
            finite_families=[] if finite_families is None else finite_families,
            branches=[] if branches is None else branches,
            certificates=[] if certificates is None else certificates,
            identities=[] if identities is None else identities,
            flags=[] if flags is None else flags,
            flagged_corner=flagged_corner,
        )


def _singular_vector(k) -> tuple[BPAlgebra, State]:
    """The bar-graded singular vector: golden at a rational level, G+(-1)^{k+2} 1 at -1 and 0."""
    level = frac(k)
    if level not in SUPPORTED_LEVELS:
        raise UnsupportedLevel(f"level {level} is not in the supported set")
    bar = BPAlgebra(level, BAR)
    if level in RATIONAL_LEVELS:
        return bar, table_state(RATIONAL_LEVELS[level].singular, bar)
    return bar, integral_level_vector(bar, "+", int(level) + 2)


def infinite_top_certificates(k, weights) -> list[Certificate]:
    """Certify that h_i(x0,y0) has no positive-integer zero, per weight."""
    if not weights:
        raise ValueError("empty weight list")
    out = []
    for (x0, y0) in weights:
        poly = h_in_i(k, x0, y0)
        roots, cofactor = rational_roots(poly)
        positive_integers = [r for r in roots if r.denominator == 1 and r > 0]
        verdict = "no positive integer root" if not positive_integers else "FAILS"
        # completeness: the cofactor carries any irrational roots, which are
        # never positive integers anyway.
        out.append(Certificate((frac(x0), frac(y0)), poly, sorted(roots), verdict))
    return out


def classify_level(k) -> WeightSet:
    """Weights from the Smith relation: c E^P (Y - y0) gives points, a bare c E^P curves."""
    bar, singular = _singular_vector(k)
    power, y0 = relation_line(smith_relation(bar, singular))
    h = {i: h_poly(i, bar.k) for i in range(1, power + 1)}
    if y0 is None:
        return _classify_families(bar, h)
    return _classify_rational(bar, singular, h, y0)


def _classify_rational(bar: BPAlgebra, singular: State, h: dict, y0: Fraction) -> WeightSet:
    """Branches of the Smith relation E^P (Y - y0) = 0.

    A top level of dimension i <= P satisfies h_i = 0.  Off the diagonal
    y = x + i - 1 the flow-shifted weight has a top level of some dimension
    j <= P (generic branches); on it, the shifted weight lies on y = y0.
    Every finite candidate must pass the projection filter; the candidates
    on y = y0 are cut down by the filter and by the contragredient weight.
    """
    k = bar.k
    filt = zero_mode_poly(bar, singular, BAR)
    reason = "fails the weight-{} projection filter".format(bar.state_weight(singular))
    branches = []

    def add(name, description, system, sols, candidates, complete):
        admitted = [s for s in candidates if filt.eval(*s) == 0]
        excluded = [(s, reason) for s in candidates if filt.eval(*s) != 0]
        branches.append(BranchResult(
            name, description, [str(p) for p in system], sols, admitted, excluded, complete))

    for i, hi in h.items():
        line = "x" if i == 1 else f"x+{i - 1}"
        px, py = spectral_flow_weight(POLY_X, POLY_Y, i, k)
        for j, hj in h.items():
            shifted = hj.subst(px, py)
            sols, complete = solve_system(hi, shifted)
            # Descriptions are report text: only the j = 1 systems name the
            # diagonal that every generic branch leaves out.
            add("dim1-generic" if i == j == 1 else f"dim{i}-to-dim{j}",
                f"h{i}(x,y) = 0 = h{j} at the flow-shifted weight" + (f" (y != {line})" if j == 1 else ""),
                [hi, shifted], sols, [s for s in sols if s[1] != s[0] + i - 1], complete)
            if j == i:
                diag = hi.subst(POLY_X, POLY_X + i - 1).as_poly1_in("x")
                roots, cofactor = rational_roots(diag)
                sols = sorted((r, r + i - 1) for r in roots)
                add(f"dim{i}-diagonal", f"h{i}(x,{line}) = 0 (flow-shifted weight hits the boundary)",
                    [diag], sols, sols, cofactor.is_const())
    finite = sorted({s for br in branches for s in br.admitted})

    bound_poly = filt.specialize("y", y0)
    roots, cofactor = rational_roots(bound_poly)
    candidates = sorted((r, y0) for r in roots)
    dims = "- or ".join(str(i) for i in h)
    admitted, excluded = [], []
    for (xv, yv) in candidates:
        cx, cy = contragredient_weight(xv, yv)
        if cy != y0 and all(hi.eval(cx, cy) != 0 for hi in h.values()):
            excluded.append(((xv, yv), f"contragredient weight ({cx}, {cy}) admits no {dims}-dim top level"))
        else:
            admitted.append((xv, yv))
    branches.append(BranchResult(
        "boundary-y", f"projection filter on the line y = {y0}",
        [str(bound_poly)], candidates, admitted, excluded, cofactor.is_const()))

    # Per-weight invariants recorded on the result (tested downstream).
    checks = []
    vanishes = " or ".join(f"h{i}" for i in h) + " vanishes"
    for (xv, yv) in finite:
        checks.append((f"filter({xv},{yv}) == 0", filt.eval(xv, yv) == 0))
        checks.append((f"{vanishes} at ({xv},{yv})", any(hi.eval(xv, yv) == 0 for hi in h.values())))
    checks.extend((f"filter({xv},{yv}) == 0", filt.eval(xv, yv) == 0) for (xv, yv) in admitted)
    return WeightSet(k, finite, admitted, branches=branches, identities=checks,
                     certificates=infinite_top_certificates(k, admitted))


def _classify_families(bar: BPAlgebra, h: dict) -> WeightSet:
    """Families of E^P = 0: an i-dimensional top level lies on h_i = 0, that is y = f_i(x).

    Where an h_j, j < i, also vanishes, G-(0) kills w_j: that corner is left
    out and flagged, as the top level degenerates to an indecomposable module.
    The identity rows come from the mode engine: G-(0) w_i = 0 on y = f_i(x).
    """
    families, identities, flags, corners = [], [], [], []
    for i, hi in h.items():
        f = hi.coeff_of("y", 0) * (-1 / hi.coeff_of("y", 1).const_value())
        curve = f.as_poly1_in("x")
        note = f"dim{i} family"
        for j in range(1, i):
            for r in sorted(set(rational_roots(h[j].subst(POLY_X, f).as_poly1_in("x"))[0])):
                yv = curve.eval(r)
                note += f" (x != {r})"
                corners.append((r, yv))
                flags.append(f"x = {r} on the dim-{i} family: h{j}({r},{yv}) = h{i}({r},{yv}) = 0; "
                             f"the top level degenerates to a {i}-dimensional indecomposable module")
        families.append((f"y = {curve}", note))
        action = top_action(bar, "F", i)
        identities.append((f"h{i}(x, {curve}) == 0", not any(c.subst(POLY_X, f) for c in action.terms.values())))
    # Several corners name no single point, and the golden check then fails.
    return WeightSet(bar.k, [], [], finite_families=families, identities=identities,
                     flags=flags, flagged_corner=corners[0] if len(corners) == 1 else None)


# ---------------------------------------------------------------------------
# The isolated lattice-side polynomial identity
# ---------------------------------------------------------------------------

def pi0_bracket_identity():
    """The zero-mode commutator identity of the boundary-weight family.

    nu^2 (C(4r, 3) - C(4r-4, 3)) = 3r^2 - 9/2 r + 15/8 with nu^2 = 6/64,
    verified as an identity of polynomials in r.  Returns (lhs, rhs, equal).
    """
    r = Poly1.ident("r")
    lhs = (binomial(4 * r, 3) - binomial(4 * r - 4, 3)) * Q(6, 64)
    rhs = 3 * r * r - Q(9, 2) * r + Poly1.const(Q(15, 8), "r")
    return lhs, rhs, lhs == rhs
