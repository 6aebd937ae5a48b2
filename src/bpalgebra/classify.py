"""Highest-weight classification at the four supported levels.

The classifier is an auditable re-derivation: every weight it emits is tagged
with the branch (polynomial system, diagonal equation, or boundary filter)
that produced it, and every exclusion carries the reason.  Nothing is looked
up; the audit trail is what the tests check.

Branch structure for the two rational levels (integer-graded weights (x, y)):
the Zhu relation forces either a nilpotency degree for the charge-raising
zero mode (giving h_1 or h_2 conditions combined with the spectral-flow
shift of the weight) or the fixed eigenvalue y = y0 of the relation's second
factor, where candidates are cut down by the projection polynomial of the
singular vector and the contragredient symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import POLY_X, POLY_Y, Poly1, Poly2, Q, binomial, frac, rational_roots, resultant
from .modes import BAR, BPAlgebra
from .tables import RATIONAL_LEVELS, golden_tables, table_state
from .weightspace import contragredient_weight
from .zhu import h_in_i, h_poly, zero_mode_poly

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
    solutions = []
    for xv in sorted(candidates_x):
        col = p.specialize("x", xv)
        col_q = q.specialize("x", xv)
        ys, flag_complete = _common_univariate_roots(col, col_q)
        complete = complete and flag_complete
        for yv in ys:
            if p.eval(xv, yv) == 0 and q.eval(xv, yv) == 0:
                solutions.append((xv, yv))
    solutions = sorted(set(solutions))
    return solutions, complete


def _common_univariate_roots(p: Poly1, q: Poly1):
    if p.is_zero() and q.is_zero():
        raise IdenticalSystem("both polynomials vanish identically on a fiber")
    complete = True
    ys = set()
    for poly in (p, q):
        if poly.is_zero() or poly.is_const():
            continue
        roots, cofactor = rational_roots(poly)
        ys.update(roots)
        complete = complete and cofactor.is_const()
        break  # roots of the first nonconstant polynomial suffice; both re-checked
    if not ys and (p.is_const() and not p.is_zero() or q.is_const() and not q.is_zero()):
        return [], True
    return sorted(ys), complete


# ---------------------------------------------------------------------------
# Classification data
# ---------------------------------------------------------------------------

@dataclass
class BranchResult:
    name: str
    description: str
    system: list
    solutions: list
    admitted: list
    excluded: list = field(default_factory=list)  # (weight, reason)
    complete: bool = True  # False when irrational solutions may be missing


@dataclass
class Certificate:
    weight: tuple
    poly_in_i: Poly1
    rational_roots: list
    verdict: str


@dataclass
class WeightSet:
    k: Fraction
    finite_top: list
    infinite_top: list
    finite_families: list = field(default_factory=list)  # symbolic families (k = -1, 0)
    branches: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    identities: list = field(default_factory=list)  # (label, bool)
    flags: list = field(default_factory=list)
    flagged_corner: tuple | None = None  # (x, y) the flag names; checked, never rendered


def _psi_shift(k: Fraction, i: int):
    """Polynomial substitution realizing the flow-shifted weight arguments."""
    lam = (2 * k + 3) / 3
    px = POLY_X + (i - 1 - lam)
    py = POLY_Y - POLY_X - (i - 1 - lam)
    return px, py


def projection_filter(k: Fraction) -> Poly2:
    """The singular-vector projection in the bar labels: U or V at (x, y+x/2)."""
    level = frac(k)
    if level not in RATIONAL_LEVELS:
        raise UnsupportedLevel(f"no singular-vector filter at level {level}")
    state = table_state(RATIONAL_LEVELS[level].singular)
    return zero_mode_poly(BPAlgebra(level, BAR), state, BAR)


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
    level = frac(k)
    if level in RATIONAL_LEVELS:
        return _classify_rational(level)
    if level == Q(-1):
        return _classify_minus_one(level)
    if level == Q(0):
        return _classify_zero(level)
    raise UnsupportedLevel(f"level {level} is not in the supported set")


def _classify_rational(k: Fraction) -> WeightSet:
    """Branches of the Smith relation E^P (Y - y0) = 0.

    A top level of dimension i <= P satisfies h_i = 0.  Off the diagonal
    y = x + i - 1 the flow-shifted weight has a top level of some dimension
    j <= P (generic branches); on it, the shifted weight lies on y = y0.
    Every finite candidate must pass the projection filter; the candidates
    on y = y0 are cut down by the filter and by the contragredient weight.
    """
    data = RATIONAL_LEVELS[k]
    filt = projection_filter(k)
    reason = "fails the weight-{} projection filter".format(golden_tables()[data.singular]["weight"])
    h = {i: h_poly(i, k) for i in range(1, data.power + 1)}
    branches = []

    def add(name, description, system, sols, candidates, complete):
        admitted = [s for s in candidates if filt.eval(*s) == 0]
        excluded = [(s, reason) for s in candidates if filt.eval(*s) != 0]
        branches.append(BranchResult(
            name, description, [str(p) for p in system], sols, admitted, excluded, complete))

    for i, hi in h.items():
        line = "x" if i == 1 else f"x+{i - 1}"
        px, py = _psi_shift(k, i)
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

    y0 = data.y0
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

    ws = WeightSet(k, finite, admitted, branches=branches,
                   certificates=infinite_top_certificates(k, admitted))
    _attach_common_checks(ws, filt)
    return ws


def _classify_minus_one(k: Fraction) -> WeightSet:
    # h1 vanishes exactly on the parabola y = (3x^2 - x)/2.
    h1 = h_poly(1, k)
    parabola = POLY_Y - (3 * POLY_X**2 - POLY_X) * Q(1, 2)
    lead = h1.coeff_of("y", 1).const_value()
    factors_through = (h1 - parabola * lead) == Poly2()
    ws = WeightSet(
        k, [], [],
        finite_families=[("y = 3/2*x^2 - 1/2*x", "dim1 family: h1(x, 3/2 x^2 - 1/2 x) = 0")],
        identities=[("h1 == (k+3)*(y - 3/2 x^2 + 1/2 x)", factors_through)],
    )
    return ws


def _classify_zero(k: Fraction) -> WeightSet:
    h1 = h_poly(1, k)
    h2 = h_poly(2, k)
    fam0 = h1.subst(POLY_X, POLY_X**2 - POLY_X)  # y = x^2 - x
    fam1 = h2.subst(POLY_X, POLY_X**2)  # y = x^2
    identities = [
        ("h1(x, x^2 - x) == 0", fam0 == Poly2()),
        ("h2(x, x^2) == 0", fam1 == Poly2()),
    ]
    flags, corner = [], None
    if h2.eval(0, 0) == 0 and h1.eval(0, 0) == 0:
        corner = (Q(0), Q(0))
        flags.append(
            "x = 0 on the dim-2 family: h1(0,0) = h2(0,0) = 0; the top level "
            "degenerates to a 2-dimensional indecomposable module"
        )
    return WeightSet(
        k, [], [],
        finite_families=[
            ("y = x^2 - x", "dim1 family"),
            ("y = x^2", "dim2 family (x != 0)"),
        ],
        identities=identities,
        flags=flags,
        flagged_corner=corner,
    )


def _attach_common_checks(ws: WeightSet, filt: Poly2) -> None:
    """Per-weight invariants recorded on the result (tested downstream)."""
    checks = []
    for (xv, yv) in ws.finite_top:
        checks.append((f"filter({xv},{yv}) == 0", filt.eval(xv, yv) == 0))
        hvals = [h_poly(i, ws.k).eval(xv, yv) for i in (1, 2)]
        checks.append((f"h1 or h2 vanishes at ({xv},{yv})", Q(0) in hvals))
    for (xv, yv) in ws.infinite_top:
        checks.append((f"filter({xv},{yv}) == 0", filt.eval(xv, yv) == 0))
    ws.identities.extend(checks)


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
