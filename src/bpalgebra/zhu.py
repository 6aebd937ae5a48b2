"""Zhu-algebra layer: zero-mode projections, star/circle products, and the
reduction of vacuum states to Smith-algebra normal form.

For the integer-graded Zhu algebra the generators are

    E = [G+(-1)1],  F = -[G-(-2)1],  X = [J(-1)1],  Y = [shifted Virasoro],

with Y central and XE - EX = E, XF - FX = -F, EF - FE = g(X, Y) where
g(x, y) = -(3x^2 - (2k+3)x - (k+3)y).  A Smith word is kept in the normal
form  sum_{a,d} F^a p_{a,d}(X, Y) E^d  with p a polynomial.

The half-integer-graded Zhu algebra is commutative and is reached only
through :func:`zero_mode_poly`, which suffices for the polynomial
projections of the singular vectors.
"""

from __future__ import annotations

from .arith import POLY_X, POLY_Y, Poly2, Q, binomial, frac, join_signed
from .modes import BAR, GM, GP, HW, J, L, OMEGA, VAC, BPAlgebra, State


def g_poly(k) -> Poly2:
    """The Smith-algebra bracket polynomial at level k."""
    k = frac(k)
    return -(3 * POLY_X**2 - (2 * k + 3) * POLY_X - (k + 3) * POLY_Y)


def h_poly(i: int, k) -> Poly2:
    """h_i(x,y) = (1/i)(g(x,y) + g(x+1,y) + ... + g(x+i-1,y))."""
    if i < 1:
        raise ValueError("h_i is defined for i >= 1")
    g = g_poly(k)
    total = Poly2()
    for j in range(i):
        total = total + g.subst(POLY_X + j, POLY_Y)
    return total * Q(1, i)


def h_closed_form(i: int, k) -> Poly2:
    """The closed form of h_i, kept separate so tests can cross-check."""
    k = frac(k)
    x, y = POLY_X, POLY_Y
    return (
        Poly2.const(-i * i + k * i + 3 * i - k - 2)
        - 3 * i * x
        - 3 * x**2
        + 2 * k * x
        + 6 * x
        + k * y
        + 3 * y
    )


def h_in_i(k, x0, y0) -> Poly2:
    """h_i(x0, y0) as an exact polynomial in the index i (Faulhaber sums),
    written in x."""
    k, x0, y0 = frac(k), frac(x0), frac(y0)
    g = g_poly(k)
    c0 = g.eval(x0, y0)
    # g(x0 + j) = c0 + c1 j + c2 j^2 with
    c1 = 2 * k + 3 - 6 * x0
    c2 = Q(-3)
    # (1/i) sum_{j<i}: c0 + c1 (i-1)/2 + c2 (i-1)(2i-1)/6
    i = POLY_X
    return (
        Poly2.const(c0)
        + (i - 1) * Q(c1, 2)
        + (i - 1) * (2 * i - 1) * Q(c2, 6)
    )


# ---------------------------------------------------------------------------
# Zero-mode projection
# ---------------------------------------------------------------------------

def zero_mode_poly(algebra: BPAlgebra, s: State, grading: str = OMEGA) -> Poly2:
    """Polynomial action of the zero mode of s on the generic top level.

    ``s`` may be given in either convention; charge zero is required.  The
    variables of the result are the highest-weight labels of the requested
    grading: (J_0, L_0)-eigenvalues for ``omega`` and (J(0), L(0)) for
    ``bar``.
    """
    bar = algebra if algebra.convention == BAR else BPAlgebra(algebra.k, BAR)
    sbar = s if algebra.convention == BAR else algebra.convert(s, bar)
    if bar.state_charge(sbar) != 0:
        raise ValueError("zero-mode projection needs a charge-zero state")
    weight = bar.state_weight(sbar)
    if weight != int(weight):
        raise ValueError("charge-zero states have integer weight")
    image = bar.state_product_action(sbar, int(weight) - 1, bar.unit(HW))
    poly = image.coefficient(())
    if set(image.terms) - {()}:
        raise ValueError("zero mode did not act diagonally on the top level")
    if grading == BAR:
        return poly
    if grading == OMEGA:
        # The omega highest-weight labels (x, y) correspond to the shifted
        # labels (x, y - x/2).
        return poly.subst(POLY_X, POLY_Y - POLY_X * Q(1, 2))
    raise ValueError(f"unknown grading {grading!r}")


# ---------------------------------------------------------------------------
# Star and circle products (integer grading)
# ---------------------------------------------------------------------------

def zhu_star(algebra: BPAlgebra, a: State, b: State) -> State:
    """a * b = Res_z Y(a,z) (1+z)^{deg a} / z b, as an exact finite sum."""
    return _zhu_product(algebra, a, b, 1)


def zhu_circle(algebra: BPAlgebra, a: State, b: State) -> State:
    """a o b = Res_z Y(a,z) (1+z)^{deg a} / z^2 b; spans O(V)."""
    return _zhu_product(algebra, a, b, 2)


def _zhu_product(algebra: BPAlgebra, a: State, b: State, pole: int) -> State:
    """Res_z Y(a,z) (1+z)^{deg a} / z^pole b: sum_j C(deg a, j) a_(j-pole) b."""
    _require_bar_vac(algebra, a, b)
    d = algebra.state_weight(a)
    out = State(VAC)
    for j in range(int(d) + 1):
        out = out + algebra.state_product_action(a, j - pole, b).scaled(binomial(int(d), j))
    return out


def _require_bar_vac(algebra: BPAlgebra, *states: State):
    if algebra.convention != BAR:
        raise ValueError("the star/circle products are integer-graded operations")
    for s in states:
        if s.base != VAC:
            raise ValueError("star/circle products are defined on the vacuum algebra")


# ---------------------------------------------------------------------------
# Smith words
# ---------------------------------------------------------------------------

class SmithAlgebra:
    """Words in E, F, X, Y modulo the Smith relations, at a fixed level."""

    def __init__(self, k):
        self.k = frac(k)
        self.g = g_poly(self.k)
        self._ef_memo: dict[tuple[int, int], "SmithWord"] = {}

    def __eq__(self, other):
        # The base of a SmithWord; each ZhuReducer (cmd_zhu's, smith_relation's)
        # builds its own instance, and words at one level must compare equal.
        return isinstance(other, SmithAlgebra) and self.k == other.k

    def zero(self) -> "SmithWord":
        return SmithWord(self)

    def word(self, fpow: int, poly: Poly2, epow: int) -> "SmithWord":
        out = SmithWord(self)
        out.add_term((fpow, epow), poly)
        return out

    def one(self) -> "SmithWord":
        return self.word(0, Poly2.const(1), 0)

    def E(self) -> "SmithWord":
        return self.word(0, Poly2.const(1), 1)

    def F(self) -> "SmithWord":
        return self.word(1, Poly2.const(1), 0)

    def X(self) -> "SmithWord":
        return self.word(0, POLY_X, 0)

    def Y(self) -> "SmithWord":
        return self.word(0, POLY_Y, 0)

    def _ef_pow(self, d: int, a: int) -> "SmithWord":
        """Normal form of E^d F^a."""
        key = (d, a)
        hit = self._ef_memo.get(key)
        if hit is not None:
            return hit
        if d == 0 or a == 0:
            out = self.word(a, Poly2.const(1), d)
        else:
            # E^d F^a = E^{d-1} (F E + g(X,Y)) F^{a-1}
            fe = self.word(1, Poly2.const(1), 1) * self.word(a - 1, Poly2.const(1), 0)
            gf = self.word(0, self.g, 0) * self.word(a - 1, Poly2.const(1), 0)
            out = self.word(0, Poly2.const(1), d - 1) * (fe + gf)
        self._ef_memo[key] = out
        return out


class SmithWord(State):
    """Normal form sum_{a,d} F^a p_{a,d}(X,Y) E^d.

    A :class:`State` keyed by (a, d) with Q[x,y] coefficients; its base is
    the :class:`SmithAlgebra` that multiplies it.
    """

    __slots__ = ()

    def __mul__(self, other: "SmithWord") -> "SmithWord":
        out = SmithWord(self.base)
        for (a1, d1), p1 in self.terms.items():
            for (a2, d2), p2 in other.terms.items():
                mid = self.base._ef_pow(d1, a2)
                for (am, dm), pm in mid.terms.items():
                    # F^{a1} p1 (F^{am} pm E^{dm}) p2 E^{d2}
                    poly = (
                        p1.subst(POLY_X - am, POLY_Y)
                        * pm
                        * p2.subst(POLY_X - dm, POLY_Y)
                    )
                    out.add_term((a1 + am, dm + d2), poly)
        return out

    def __pow__(self, n: int) -> "SmithWord":
        out = self.base.one()
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        parts = []
        for (a, d) in sorted(self.terms):
            poly = self.terms[(a, d)]
            for (i, jj), val in poly.terms_sorted():
                factors = []
                if a:
                    factors.append("F" if a == 1 else f"F^{a}")
                if i:
                    factors.append("X" if i == 1 else f"X^{i}")
                if d:
                    factors.append("E" if d == 1 else f"E^{d}")
                if jj:
                    factors.append("Y" if jj == 1 else f"Y^{jj}")
                if not factors:
                    parts.append(str(val))
                elif val == 1:
                    parts.append("*".join(factors))
                elif val == -1:
                    parts.append("-" + "*".join(factors))
                else:
                    parts.append(f"{val}*" + "*".join(factors))
        return join_signed(parts)

    __repr__ = __str__

    def to_json(self):
        return [
            [a, d, poly.to_json()]
            for (a, d), poly in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(algebra: SmithAlgebra, data) -> "SmithWord":
        out = algebra.zero()
        for a, d, poly in data:
            out.add_term((int(a), int(d)), Poly2.from_json(poly))
        return out


# ---------------------------------------------------------------------------
# Reduction of vacuum states to Smith normal form
# ---------------------------------------------------------------------------

class ZhuReducer:
    """Image of vacuum states in the integer-graded Zhu algebra.

    Deep modes are raised with the O(V) relations
    sum_j C(d,j) a_(j-2-n) b in O(V) (n >= 0, d the generator weight), the
    translation modes through [L(-1)u] = -[L(0)u], and the boundary modes are
    peeled with the star product against the generator images.
    """

    def __init__(self, algebra: BPAlgebra):
        if algebra.convention != BAR:
            raise ValueError("the Smith reduction applies to the integer grading")
        self.algebra = algebra
        self.smith = SmithAlgebra(algebra.k)
        self._memo: dict[tuple, SmithWord] = {}

    def _gen_image(self, gen: str) -> SmithWord:
        sm = self.smith
        return {J: sm.X(), L: sm.Y(), GP: sm.E(), GM: sm.F().scaled(-1)}[gen]

    def reduce_state(self, s: State) -> SmithWord:
        if s.base != VAC:
            raise ValueError("only vacuum states have Zhu images here")
        out = self.smith.zero()
        for mono, coeff in s.terms.items():
            out = out + self.reduce_mono(mono).scaled(coeff.const_value())
        return out

    def reduce_mono(self, mono: tuple) -> SmithWord:
        hit = self._memo.get(mono)
        if hit is not None:
            return hit
        if not mono:
            result = self.smith.one()
        else:
            (gen, n), rest = mono[0], mono[1:]
            # A canonical vacuum mode has n <= boundary = -(generator weight).
            d = -self.algebra.creation_bound(gen, VAC)
            # The boundary mode n == -d is peeled with the star product.
            result = self._gen_image(gen) * self.reduce_mono(rest) if n == -d else self.smith.zero()
            for j in range(1, d + 1):
                for mono2, coeff in self.algebra._insert((gen, n + j), rest, VAC):
                    result = result - self.reduce_mono(mono2).scaled(binomial(d, j) * coeff.const_value())
        self._memo[mono] = result
        return result


def zhu_reduce(algebra: BPAlgebra, s: State) -> SmithWord:
    return ZhuReducer(algebra).reduce_state(s)


def smith_relation(algebra: BPAlgebra, singular: State) -> SmithWord:
    """Zhu image of G+(0)^P s for a singular vector s, P maximal with G+(0)^P s != 0."""
    # G+(0) raises the charge at a fixed weight, so the string ends.
    while not (raised := algebra.apply_mode((GP, 0), singular)).is_zero():
        singular = raised
    return zhu_reduce(algebra, singular)


def relation_line(word: SmithWord) -> tuple[int, Q | None]:
    """(P, y0) of a Smith relation c * E^P * (Y - y0), or (P, None) of c * E^P; c a nonzero constant.

    Any other shape is refused, not guessed: an F power, several terms, the
    zero word, P = 0, x in the coefficient, or Y^2."""
    if len(word.terms) == 1:
        ((a, d), poly), = word.terms.items()
        if not a and d and poly.degree_in("x") == 0 and poly.degree_in("y") <= 1:
            return d, None if poly.is_const() else -poly.eval(0, 0) / poly.coeff_of("y", 1).const_value()
    raise ValueError(f"not a relation c*E^P*(Y - y0) or c*E^P: {word}")
