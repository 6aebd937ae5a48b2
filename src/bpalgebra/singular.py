"""Singular vectors as exact kernels of annihilation-operator systems.

A vector in a vacuum weight space is singular when the generators of the
strictly positive part of the mode algebra kill it.  The default annihilator
set is {J(1), L(1), L(2), G+(1), G-(1)} in the grading's own labels; every
strictly positive mode is an iterated bracket of these.  The charge-carrying
weight-zero mode G-(0) is *not* imposed by default (the stricter
highest-weight check is available via a flag); for the half-integer grading
the corresponding mode is genuinely positive and belongs to the default set.

An empty kernel is certified from the rows built mod p = 1,073,741,789
(2^30 - 35), the largest prime below 2^30, so that every residue is a
one-digit CPython int.  Full column rank mod p proves full column rank over
Q.  Only when that certificate fails, or when a structure constant has no
image mod p, are the rows built over Q; ``kernel_basis`` solves them mod
word-size primes, reconstructs the rational kernel and certifies it over
the integers.  Both engines and their memos are reused by every call at one
(level, grading); only the latest pair is kept.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from .arith import _PRIME, NotInvertibleModP, Poly2, frac, kernel_basis, rank_mod_p, residue
from .modes import BAR, GM, GP, J, L, OMEGA, VAC, BPAlgebra, ScalarState, State
from .weightspace import enumerate_basis


class AnnihilatorSet(SimpleNamespace):
    """Modes required to annihilate a candidate singular vector."""

    def __init__(self, modes: list):
        super().__init__(modes=modes)

    @staticmethod
    def default(convention: str, include_gm0=False) -> "AnnihilatorSet":
        modes = [(J, 1), (L, 1), (L, 2), (GP, 1), (GM, 1)]
        if include_gm0 and convention == BAR:
            modes.append((GM, 0))
        return AnnihilatorSet(modes)


class SingularSolution(SimpleNamespace):
    """``vectors`` (a list of State) spans the kernel in the weight space
    searched, of dimension ``space_dimension``."""

    def __init__(self, k: Fraction, weight: Fraction, charge: int, convention: str,
                 space_dimension: int, dimension: int, vectors: list, annihilators: list | None = None):
        super().__init__(k=k, weight=weight, charge=charge, convention=convention, space_dimension=space_dimension,
                         dimension=dimension, vectors=vectors, annihilators=[] if annihilators is None else annihilators)


class _ScalarAlgebra(BPAlgebra):
    """The vacuum engine over Q: the annihilator system never meets x or y."""

    state_type = ScalarState


class _ModPState(State):
    """A vacuum state with coefficients in GF(p), as int residues in [0, p);
    its ring lifts are :func:`~bpalgebra.arith.residue`, and residues over 1
    for the level constants."""

    __slots__ = ()
    ring = int
    lift = staticmethod(residue)

    @staticmethod
    def lift_constants(values: list) -> tuple:
        return [residue(v) for v in values], 1

    def add_scaled(self, pairs, factor=None) -> None:
        """:meth:`State.add_scaled` mod p: every sum and product is reduced,
        and a zero residue is never stored."""
        if factor is None:
            factor = 1
        elif type(factor) is not int:  # an int needs no lift: the sums are reduced
            factor = residue(factor)
        terms = self.terms
        for mono, coeff in pairs:
            coeff = (terms.get(mono, 0) + coeff * factor) % _PRIME
            if coeff:
                terms[mono] = coeff
            else:
                terms.pop(mono, None)


class _ModPAlgebra(BPAlgebra):
    """The vacuum engine over GF(p), p = 1,073,741,789, on int residues.

    The prime is 2^30 - 35, the largest below 2^30, so a residue is a
    one-digit CPython int and a product of two is at most two digits.

    Its ring lifts are those of :class:`_ModPState`: ``bracket`` evaluates
    each closed form on residues, with the level constants of a generator
    pair lifted once, on the pair's first bracket.  Every other step is a
    ring operation reduced mod p, there and in :class:`_ModPState`, so the
    rows it builds are the reductions mod p of the rows of
    :class:`_ScalarAlgebra`.
    """

    state_type = _ModPState


@lru_cache(maxsize=1)
def _engines(k: Fraction, convention: str) -> tuple[_ScalarAlgebra, _ModPAlgebra]:
    """The engines over Q and over GF(p) at one (level, grading)."""
    return _ScalarAlgebra(k, convention), _ModPAlgebra(k, convention)


def annihilator_rows(algebra: BPAlgebra, monomials, ann: AnnihilatorSet) -> list[dict]:
    """The stacked annihilator system on vacuum monomials (the columns), as
    sparse {column: coefficient} rows.

    Coefficients lie in the ring of ``algebra.state_type``: GF(p) or Q on
    the engines :func:`find_singular` uses.  Each column's entries are the
    (monomial, coefficient) pairs of the insertion memo, read as they are.
    """
    rows = []
    for mode in ann.modes:
        by_mono = {}
        for col, mono in enumerate(monomials):
            for mono2, coeff in algebra._insert(mode, mono, VAC):
                by_mono.setdefault(mono2, {})[col] = coeff
        rows.extend(row for _, row in sorted(by_mono.items(), key=lambda t: str(t[0])))
    return rows


def find_singular(k, weight, charge, convention: str = OMEGA) -> SingularSolution:
    """Exact kernel of the stacked annihilator system on a vacuum weight space.

    The system is first built mod p: full column rank there proves the
    kernel is {0}.  Otherwise it is built over Q scalars and solved exactly;
    the returned basis vectors are Q[x,y] states, normalized to be monic in
    their first canonical monomial.  One engine pair per (level, grading),
    :func:`_engines`, is reused with its memos; only the latest pair is kept.
    """
    algebra, modp = _engines(frac(k), convention)
    ann = AnnihilatorSet.default(convention)
    basis = enumerate_basis(algebra, VAC, weight, charge)
    kernel = []
    if not _full_rank_mod_p(modp, basis.monomials, ann):
        zero, n = Fraction(0), len(basis)
        rows = annihilator_rows(algebra, basis.monomials, ann)
        kernel = kernel_basis([[row.get(c, zero) for c in range(n)] for row in rows], n)
    vectors = []
    for vec in kernel:
        s = normalize_monic(ScalarState(terms={mono: c for mono, c in zip(basis.monomials, vec) if c}))
        # Re-verify each solution through the mode action, independently of
        # the linear solve.
        ok, witness = verify_singular(algebra, s, ann)
        if not ok:
            raise AssertionError(f"kernel vector fails reverification: {witness}")
        vectors.append(State(terms={mono: Poly2.const(c) for mono, c in s.terms.items()}))
    return SingularSolution(
        algebra.k, basis.weight, charge, convention, len(basis), len(vectors), vectors, list(ann.modes)
    )


def _full_rank_mod_p(algebra: _ModPAlgebra, monomials, ann: AnnihilatorSet) -> bool:
    """Whether the annihilator rows have full column rank mod p; False when a
    structure constant has no image mod p."""
    try:
        rows = annihilator_rows(algebra, monomials, ann)
    except NotInvertibleModP:
        return False
    return rank_mod_p(rows, len(monomials)) == len(monomials)


def normalize_monic(s: ScalarState) -> ScalarState:
    """Scale so the canonically-first monomial has coefficient one."""
    if s.is_zero():
        return s
    return s.scaled(1 / s.terms[s.monomials_sorted()[0]])


def scale_to_match(s: State, mono, coefficient) -> State:
    """Rescale so the given monomial carries the given coefficient."""
    cur = s.coefficient(tuple(mono))
    if not cur:
        raise ValueError("state has no such monomial")
    return s.scaled(Poly2.const(coefficient) * Poly2.const(1 / cur.const_value()))


def verify_singular(algebra: BPAlgebra, s: State, ann: AnnihilatorSet | None = None):
    """True iff every annihilator kills s; otherwise the first witness.

    Returns (ok, witness) with witness = (mode, image-state) on failure.
    """
    ann = ann or AnnihilatorSet.default(algebra.convention)
    for mode in ann.modes:
        image = algebra.apply_mode(mode, s)
        if not image.is_zero():
            return False, (mode, image)
    return True, None


def integral_level_vector(algebra: BPAlgebra, side: str, n: int) -> State:
    """The integral-level family members G+(-1)^n 1 and G-(-2)^n 1."""
    if algebra.convention != BAR:
        raise ValueError("the integral-level vectors are integer-graded objects")
    word = [(GP, -1)] * n if side == "+" else [(GM, -2)] * n
    return algebra.normal_form(word)
