"""Shared randomized property checks.

The acceptance suite runs each of these at 100 cases with a fixed seed; the
unit tests reuse them at smaller counts.  All checks raise AssertionError
with a reproduction hint on failure.
"""

from __future__ import annotations

import argparse
import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

from bpalgebra import BPAlgebra, State
from bpalgebra.arith import POLY_X, POLY_Y, Poly2, _divisors, binomial, frac, join_signed
from bpalgebra.classify import _singular_vector
from bpalgebra.cli import _NEGATIVE_RATIONAL
from bpalgebra.modes import BAR, GM, GP, HW, J, L, OMEGA, VAC
from bpalgebra.weightspace import enumerate_basis, top_vector
from bpalgebra.zhu import ZhuReducer, zero_mode_poly, zhu_circle, zhu_star

GENS = (J, L, GP, GM)


def falling_binomial(n, j: int) -> Fraction:
    """n(n-1)...(n-j+1)/j!, straight from the definition."""
    num = Fraction(1)
    for t in range(j):
        num *= n - t
    for t in range(1, j + 1):
        num /= t
    return num


def poly_in(coeffs, var: str = "x") -> Poly2:
    """sum coeffs[d] t^d as a Poly2 in t = ``var``: a dense coefficient list
    by degree from 0, as the univariate class took it."""
    return Poly2({((d, 0) if var == "x" else (0, d)): c for d, c in enumerate(coeffs)})


class ReferencePoly2:
    """``arith.Poly2`` as it was before it held integer numerators: a dict
    {(i, j): Fraction} with no zero coefficient, every operation in
    ``Fraction`` arithmetic.  Kept as the differential reference for the
    fraction-free type; substitutes must be ReferencePoly2s.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for key, val in coeffs.items():
                val = frac(val) if not isinstance(val, Fraction) else val
                if val:
                    c[(int(key[0]), int(key[1]))] = val
        self.c = c

    @staticmethod
    def _wrap(c: dict) -> "ReferencePoly2":
        out = ReferencePoly2.__new__(ReferencePoly2)
        out.c = c
        return out

    @staticmethod
    def _coerce(value) -> "ReferencePoly2":
        return value if isinstance(value, ReferencePoly2) else ReferencePoly2.const(value)

    @staticmethod
    def const(value) -> "ReferencePoly2":
        value = frac(value)
        return ReferencePoly2._wrap({(0, 0): value} if value else {})

    def __add__(self, other):
        other = ReferencePoly2._coerce(other)
        c = dict(self.c)
        for key, val in other.c.items():
            prev = c.get(key)
            if prev is None:
                c[key] = val
            else:
                val = prev + val
                if val:
                    c[key] = val
                else:
                    del c[key]
        return ReferencePoly2._wrap(c)

    __radd__ = __add__

    def __neg__(self):
        return ReferencePoly2._wrap({key: -val for key, val in self.c.items()})

    def __sub__(self, other):
        return self + (-ReferencePoly2._coerce(other))

    def __rsub__(self, other):
        return ReferencePoly2._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self.c, ReferencePoly2._coerce(other).c
        if len(a) == 1 and (0, 0) in a:
            a, b = b, a
        if len(b) == 1 and (0, 0) in b:
            v = b[(0, 0)]
            return ReferencePoly2._wrap(dict(a) if v == 1 else {key: val * v for key, val in a.items()})
        c = {}
        for (i1, j1), v1 in a.items():
            for (i2, j2), v2 in b.items():
                key = (i1 + i2, j1 + j2)
                prev = c.get(key)
                if prev is None:
                    c[key] = v1 * v2
                else:
                    val = prev + v1 * v2
                    if val:
                        c[key] = val
                    else:
                        del c[key]
        return ReferencePoly2._wrap(c)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        out = ReferencePoly2.const(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = ReferencePoly2.const(other)
        return isinstance(other, ReferencePoly2) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def is_const(self) -> bool:
        return not self.c or self.c.keys() == {(0, 0)}

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.c.get((0, 0), Fraction(0))

    def degree_in(self, var: str) -> int:
        pos = 0 if var == "x" else 1
        return max((key[pos] for key in self.c), default=0)

    def coeff_of(self, var: str, power: int) -> "ReferencePoly2":
        pos = 0 if var == "x" else 1
        return ReferencePoly2._wrap({((0, key[1]) if pos == 0 else (key[0], 0)): val
                                     for key, val in self.c.items() if key[pos] == power})

    def eval(self, xval, yval) -> Fraction:
        xval, yval = frac(xval), frac(yval)
        total = Fraction(0)
        for (i, j), val in self.c.items():
            total += val * xval**i * yval**j
        return total

    def subst(self, px, py) -> "ReferencePoly2":
        xpow, ypow = [ReferencePoly2.const(1)], [ReferencePoly2.const(1)]
        for pows, base, deg in ((xpow, px, self.degree_in("x")), (ypow, py, self.degree_in("y"))):
            for _ in range(deg):
                pows.append(pows[-1] * base)
        out = ReferencePoly2()
        for (i, j), val in self.c.items():
            out = out + xpow[i] * ypow[j] * val
        return out

    def terms_sorted(self):
        return sorted(self.c.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))

    def __str__(self):
        parts = []
        for (i, j), val in self.terms_sorted():
            mono = "*".join(
                ([f"x^{i}" if i > 1 else "x"] if i else [])
                + ([f"y^{j}" if j > 1 else "y"] if j else [])
            )
            if not mono:
                parts.append(str(val))
            elif val == 1:
                parts.append(mono)
            elif val == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{val}*{mono}")
        return join_signed(parts)

    __repr__ = __str__

    def to_json(self):
        return [[i, j, str(val)] for (i, j), val in self.terms_sorted()]


class ReferencePoly1:
    """The dense univariate polynomial over ``Fraction`` that ``arith`` kept
    beside ``Poly2`` before a univariate polynomial became a Poly2 in one
    variable.  Kept, with :func:`reference_resultant` and
    :func:`reference_rational_roots`, as the differential reference for root
    extraction, the resultant, exact division and display."""

    __slots__ = ("a", "var")

    def __init__(self, coeffs=(), var: str = "x"):
        a = [frac(v) for v in coeffs]
        while a and not a[-1]:
            a.pop()
        self.a = a
        self.var = var

    @staticmethod
    def const(value, var="x") -> "ReferencePoly1":
        return ReferencePoly1([frac(value)], var=var)

    def degree(self) -> int:
        return len(self.a) - 1 if self.a else -1

    def is_zero(self) -> bool:
        return not self.a

    def is_const(self) -> bool:
        return len(self.a) <= 1

    def __getitem__(self, d: int) -> Fraction:
        return self.a[d] if 0 <= d < len(self.a) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = ReferencePoly1.const(other, var=self.var)
        return isinstance(other, ReferencePoly1) and self.a == other.a

    def __hash__(self):
        return hash(tuple(self.a))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.a), len(other.a))
        return ReferencePoly1([self[d] + other[d] for d in range(n)], var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return ReferencePoly1([-v for v in self.a], var=self.var)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return ReferencePoly1(var=self.var)
        out = [Fraction(0)] * (len(self.a) + len(other.a) - 1)
        for i, u in enumerate(self.a):
            if not u:
                continue
            for j, v in enumerate(other.a):
                out[i + j] += u * v
        return ReferencePoly1(out, var=self.var)

    __rmul__ = __mul__

    def _coerce(self, other) -> "ReferencePoly1":
        if isinstance(other, ReferencePoly1):
            return other
        return ReferencePoly1.const(other, var=self.var)

    def eval(self, point) -> Fraction:
        point = frac(point)
        total = Fraction(0)
        for coeff in reversed(self.a):
            total = total * point + coeff
        return total

    def divmod_exact(self, other: "ReferencePoly1"):
        """Quotient and remainder over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.a)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.a) + 1)
        dlead = other.a[-1]
        while len(rem) >= len(other.a):
            factor = rem[-1] / dlead
            shift = len(rem) - len(other.a)
            quot[shift] = factor
            for i, v in enumerate(other.a):
                rem[shift + i] -= factor * v
            while rem and not rem[-1]:
                rem.pop()
            if not rem:
                break
        return ReferencePoly1(quot, var=self.var), ReferencePoly1(rem, var=self.var)

    def __str__(self):
        parts = []
        for d in range(len(self.a) - 1, -1, -1):
            val = self.a[d]
            if not val:
                continue
            if d == 0:
                parts.append(str(val))
            else:
                mono = self.var if d == 1 else f"{self.var}^{d}"
                parts.append(mono if val == 1 else (f"-{mono}" if val == -1 else f"{val}*{mono}"))
        return join_signed(parts)

    __repr__ = __str__


def as_reference_poly1(p: Poly2, var: str | None = None) -> ReferencePoly1:
    """A Poly2 in x only or in y only as a ReferencePoly1 in that variable
    (x for a constant), or named ``var``."""
    terms = p.terms_sorted()
    pos = 1 if any(j for (_, j), _ in terms) else 0
    assert not (pos and any(i for (i, _), _ in terms)), f"{p} is in both variables"
    coeffs = {key[pos]: val for key, val in terms}
    deg = max(coeffs, default=-1)
    return ReferencePoly1([coeffs.get(d, 0) for d in range(deg + 1)], var=var or "xy"[pos])


def reference_resultant(p: Poly2, q: Poly2, eliminate: str) -> ReferencePoly1:
    """``arith.resultant`` as it stood on ReferencePoly1 entries: the
    Sylvester matrix over Q[t] with p's rows on top, and Bareiss's
    elimination with every division a Fraction ``divmod_exact``."""
    keep = "y" if eliminate == "x" else "x"
    n, m = p.degree_in(eliminate), q.degree_in(eliminate)
    prow = [as_reference_poly1(p.coeff_of(eliminate, n - i), keep) for i in range(n + 1)]
    qrow = [as_reference_poly1(q.coeff_of(eliminate, m - i), keep) for i in range(m + 1)]
    size = n + m
    zero = ReferencePoly1(var=keep)
    matrix = [[zero] * s + prow + [zero] * (m - 1 - s) for s in range(m)]
    matrix += [[zero] * s + qrow + [zero] * (n - 1 - s) for s in range(n)]
    sign, prev = 1, ReferencePoly1([1], var=keep)
    for k in range(size - 1):
        if matrix[k][k].is_zero():
            swap = next((r for r in range(k + 1, size) if not matrix[r][k].is_zero()), None)
            if swap is None:
                return zero
            matrix[k], matrix[swap] = matrix[swap], matrix[k]
            sign = -sign
        pivot = matrix[k]
        for row in matrix[k + 1:]:
            for j in range(k + 1, size):
                row[j], rem = (row[j] * pivot[k] - row[k] * pivot[j]).divmod_exact(prev)
                assert rem.is_zero()
        prev = pivot[k]
    return matrix[-1][-1] * sign


def reference_mono_product(algebra, umono: tuple, p: int, wmono: tuple, base: str, memo: dict) -> tuple:
    """``umono_(p) wmono`` as (monomial, coefficient) pairs, by the iterate
    recursion as ``ModeAlgebra._mono_product`` computed it before it read the
    insertion memo: every head-sum and tail-sum term goes through
    ``apply_mode`` on a temporary state, and weights are summed afresh.

    The reference for that method; ``memo`` is the caller's own dict, so the
    engine's action memo is neither read nor written.
    """
    key = (umono, p, wmono, base)
    hit = memo.get(key)
    if hit is not None:
        return hit
    lift = algebra.state_type.lift
    if not umono:
        result = memo[key] = ((wmono, lift(1)),) if p == -1 else ()
        return result

    def weight(mono):
        return sum((algebra.weight(m) for m in mono), Fraction(0))

    head, rest = umono[0], umono[1:]
    gen, m = head[0], algebra.product_index(head)
    w_weight = weight(wmono)
    total = algebra.state_type(base=base)
    for j in range(math.floor(weight(rest) + w_weight - p)):
        coeff = (-1) ** j * binomial(m, j)
        if coeff:
            inner = reference_mono_product(algebra, rest, p + j, wmono, base, memo)
            if inner:
                inner_state = algebra.state_type(base=base, terms=dict(inner))
                total.add_scaled(algebra.apply_mode(algebra.product_mode(gen, m - j), inner_state).terms.items(), coeff)
    koszul = -1 if algebra.parity(gen) and algebra.monomial_parity(rest) else 1
    tail_sign = koszul * (1 if m % 2 else -1)
    wstate = algebra.state_type(base=base, terms={wmono: lift(1)})
    for j in range(math.floor(algebra.weight(algebra.product_mode(gen, 0)) + w_weight) + 1):
        coeff = (-1) ** j * binomial(m, j) * tail_sign
        if coeff:
            for mono2, c2 in algebra.apply_mode(algebra.product_mode(gen, j), wstate).terms.items():
                total.add_scaled(reference_mono_product(algebra, rest, m + p - j, mono2, base, memo), coeff * c2)
    result = memo[key] = tuple(total.terms.items())
    return result


def _subtract(vec: dict, factor, row: dict) -> None:
    """``vec -= factor * row`` in place, on sparse rows over Q."""
    for c, v in row.items():
        # A column missing from vec gets -factor * v, never 0 in a field.
        value = vec.get(c, 0) - factor * v
        if value:
            vec[c] = value
        else:
            del vec[c]


def reference_kernel_basis(rows: list, ncols: int) -> list:
    """The kernel by sparse elimination over Fraction, the reference for
    ``kernel_basis``'s modular solve: leftmost leads, then back-substitution
    to the reduced row echelon form; one vector per free column, 1 there and
    0 on every other free column.  Rows of ints are read as Fractions.

    Each row clears the pivots it holds in the order they were made, through
    a heap: a pivot row holds no lead of an earlier pivot.
    """
    vectors = sorted(({c: Fraction(v) for c, v in enumerate(row) if v} for row in rows), key=len)
    echelon, made, pivots = {}, {}, []
    for vec in vectors:
        heap = [made[c] for c in vec if c in made]
        heapify(heap)
        while heap:
            lead, row = pivots[heappop(heap)]
            factor = vec.get(lead)
            if factor is None:  # cancelled, or pushed twice
                continue
            for c in row:
                if c not in vec and c in made:
                    heappush(heap, made[c])
            _subtract(vec, factor, row)
        if vec:
            lead = min(vec)
            inv = 1 / vec[lead]
            row = {c: v * inv for c, v in vec.items()}
            echelon[lead] = row
            made[lead] = len(pivots)
            pivots.append((lead, row))
            if len(echelon) == ncols:
                break
    # Last pivot first: a reduced row is 0 on every other pivot column, so
    # subtracting it brings in free columns only.
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for c in [c for c in row if c != lead and c in echelon]:
            _subtract(row, row[c], echelon[c])
    basis = []
    for fc in (c for c in range(ncols) if c not in echelon):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in echelon.items():
            vec[pc] = -row.get(fc, Fraction(0))
        basis.append(vec)
    return basis


def reference_rational_roots(p: ReferencePoly1):
    """``arith.rational_roots`` as it stood before its integer root test:
    every candidate r/s is a ``Fraction``, evaluated on the deflated
    polynomial by Fraction Horner, in ascending order.  The reference for it."""
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    roots: dict[Fraction, int] = {}
    a = list(p.a)
    zero_mult = 0
    while a and not a[0]:
        a.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    work = ReferencePoly1(a, var=p.var)
    if work.degree() >= 1:
        den_lcm = math.lcm(*(v.denominator for v in work.a))
        ints = [int(v * den_lcm) for v in work.a]
        lead, trail = ints[-1], ints[0]
        candidates = set()
        for r in _divisors(abs(trail)):
            for s in _divisors(abs(lead)):
                candidates.add(Fraction(r, s))
                candidates.add(Fraction(-r, s))
        for cand in sorted(candidates):
            while not work.is_const() and work.eval(cand) == 0:
                roots[cand] = roots.get(cand, 0) + 1
                work, rem = work.divmod_exact(ReferencePoly1([-cand, 1], var=p.var))
                assert rem.is_zero()
    return roots, work


def reference_omega_bracket(algebra: BPAlgebra, a, b) -> tuple:
    """[a, b] in the omega grading as (j2, linear, scalar) over Q, by the
    printed table written out case by case, as the omega brackets were
    coded before the table became data.  Linear terms with a zero
    coefficient are dropped; the reference for that table."""
    (ga, m), (gb, n) = a, b
    k = algebra.k
    if ga == J and gb == J:
        j2, linear, scalar = (), (), algebra.heis_level * m if m + n == 0 else Fraction(0)
    elif ga == J and gb in (GP, GM):
        j2, linear, scalar = (), (((gb, m + n), Fraction(1 if gb == GP else -1)),), Fraction(0)
    elif ga == L and gb == J:
        j2, linear, scalar = (), (((J, m + n), Fraction(-n)),), Fraction(0)
    elif ga == L and gb == L:
        j2, linear = (), (((L, m + n), Fraction(m - n)),)
        scalar = algebra.central_charge * (m**3 - m) / 12 if m + n == 0 else Fraction(0)
    elif ga == L and gb in (GP, GM):
        j2, linear, scalar = (), (((gb, m + n), Fraction(m, 2) - n + Fraction(1, 2)),), Fraction(0)
    elif ga == GP and gb == GM:
        j2 = ((m + n - 1, Fraction(3)),)
        linear = (((L, m + n - 1), -(k + 3)), ((J, m + n - 1), Fraction(3, 2) * (k + 1) * (m - n)))
        scalar = (k + 1) * (2 * k + 3) * (m - 1) * m / 2 if m + n == 1 else Fraction(0)
    elif ga == gb:
        j2, linear, scalar = (), (), Fraction(0)
    else:
        j2, linear, scalar = reference_omega_bracket(algebra, b, a)
        return tuple((p, -c) for p, c in j2), tuple((md, -c) for md, c in linear), -scalar
    return j2, tuple((md, c) for md, c in linear if c), scalar


def reference_translate(algebra, s):
    """The translation operator D of a free-field algebra by the commutator
    [D, x_(n)] = -n x_(n-1) and D(vacuum) = 0, monomial by monomial through
    the mode action: the derivation ``FFAlgebra.translate`` used before it
    became one iterate product, kept as its reference."""
    out = type(s)()
    for mono, coeff in s.terms.items():
        for i, (gen, n) in enumerate(mono):
            rest = type(s)(terms={mono[i + 1:]: Fraction(1)})
            lifted = algebra.apply_mode((gen, n - 1), rest).scaled(-n)
            for j in range(i - 1, -1, -1):
                lifted = algebra.apply_mode(mono[j], lifted)
            out = out + lifted.scaled(coeff)
    return out


def reference_top_level_action(word, algebra_hw: BPAlgebra) -> State:
    """A Smith word's action on the generic highest-weight vector v(x, y).

    E acts as G+(0), F as -G-(0), X as J(0) and Y as L(0); the result is
    computed through the mode engine, not through closed forms.
    """
    out = State(HW)
    for (a, d), poly in word.terms.items():
        w = top_vector(algebra_hw, d)
        w = w.scaled(poly.subst(POLY_X + d, POLY_Y))
        for _ in range(a):
            w = algebra_hw.apply_mode((GM, 0), w).scaled(-1)
        out = out + w
    return out


def projection_filter(k: Fraction):
    """The singular-vector projection in the bar labels: U or V at (x, y+x/2)."""
    return zero_mode_poly(*_singular_vector(k), BAR)


def random_mode(rng: random.Random, lo=-3, hi=3):
    return (rng.choice(GENS), rng.randint(lo, hi))


def random_state(algebra: BPAlgebra, rng: random.Random, max_weight: int,
                 base: str = VAC, terms: int = 2) -> State:
    weight = rng.randint(0, max_weight)
    charge_range = range(-2, 3) if base == VAC else range(0, 3)
    charge = rng.choice(list(charge_range))
    basis = enumerate_basis(algebra, base, weight, charge)
    state = State(base)
    if not basis.monomials:
        state.add_term((), rng.randint(1, 3))
        return state
    for _ in range(min(terms, len(basis.monomials))):
        mono = rng.choice(basis.monomials)
        state.add_term(mono, rng.choice([-3, -2, -1, 1, 2, 3]))
    if state.is_zero():
        state.add_term(basis.monomials[0], 1)
    return state


def check_bracket_consistency(algebra: BPAlgebra, cases: int, seed: int, max_weight=6):
    """[a, b] s == a(b s) - b(a s) for random generator modes and states."""
    rng = random.Random(seed)
    for case in range(cases):
        a = random_mode(rng)
        b = random_mode(rng)
        s = random_state(algebra, rng, max_weight, base=rng.choice([VAC, HW]) if algebra.convention == BAR else VAC)
        lhs = algebra.apply_mode(a, algebra.apply_mode(b, s)) - algebra.apply_mode(
            b, algebra.apply_mode(a, s)
        )
        rhs = algebra.apply_bracket(algebra.bracket(a, b), s)
        assert lhs == rhs, f"case {case}: [{a},{b}] on {s}"


def check_grading(algebra: BPAlgebra, cases: int, seed: int, max_weight=6):
    """apply_mode shifts weight by -n (own grading) and charge by +-1/0."""
    rng = random.Random(seed)
    charges = {J: 0, L: 0, GP: 1, GM: -1}
    for case in range(cases):
        mode = random_mode(rng)
        base = rng.choice([VAC, HW]) if algebra.convention == BAR else VAC
        weight = rng.randint(0, max_weight)
        charge = rng.randint(-1, 1)
        basis = enumerate_basis(algebra, base, weight, charge)
        if not basis.monomials:
            continue
        mono = rng.choice(basis.monomials)
        image = algebra.apply_mode(mode, State(base, {mono: _one()}))
        for mono2 in image.terms:
            assert algebra.monomial_weight(mono2) == weight + algebra.weight(mode), (
                f"case {case}: weight shift of {mode}"
            )
            assert algebra.monomial_charge(mono2) == charge + charges[mode[0]], (
                f"case {case}: charge shift of {mode}"
            )


def _one():
    from bpalgebra.arith import Poly2

    return Poly2.const(1)


def check_confluence(algebra: BPAlgebra, cases: int, seed: int, max_len=5):
    """Normal forms agree across reduction routes.

    A random word is reduced directly, and with a random adjacent pair first
    rewritten through the commutator: w = (swapped word) + (bracket insertion).
    """
    rng = random.Random(seed)
    for case in range(cases):
        length = rng.randint(2, max_len)
        word = [random_mode(rng, -3, 2) for _ in range(length)]
        direct = algebra.normal_form(word)
        i = rng.randrange(length - 1)
        swapped = list(word)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        tail = algebra.normal_form(word[i + 2:])
        correction = algebra.apply_bracket(algebra.bracket(word[i], word[i + 1]), tail)
        for m in reversed(word[:i]):
            correction = algebra.apply_mode(m, correction)
        other = algebra.normal_form(swapped) + correction
        assert direct == other, f"case {case}: word {word} at position {i}"


def apply_j2(algebra: BPAlgebra, p: int, s: State, act=None) -> State:
    """(J^2)_p s with the normal-ordered splitting, on a whole state.

    (J^2)_p = sum_{j<=-1} J_j J_{p-j} + sum_{j>=0} J_{p-j} J_j, truncated
    to the finitely many terms that act nonzero on s.  J modes have weight
    -index in either convention, so J_q kills s for q above its top weight;
    the spectral flow changes J only at J_0, so the same window serves an
    ``act`` that applies flowed modes.  ``act`` defaults to ``apply_mode``.
    """
    act = act or algebra.apply_mode
    out = type(s)(base=s.base)
    if s.is_zero():
        return out
    maxw = int(max(algebra.monomial_weight(m) for m in s.terms))
    for j in range(p - maxw, 0):
        out.add_scaled(act((J, j), act((J, p - j), s)).terms.items())
    for j in range(0, maxw + 1):
        out.add_scaled(act((J, p - j), act((J, j), s)).terms.items())
    return out


def bracket_by_definition(algebra: BPAlgebra, br, s: State, act=None) -> State:
    """A bracket applied to s term by term: the scalar, each linear mode and
    each (J^2)_p marker through ``act`` (``apply_mode`` by default) on the
    whole state."""
    act = act or algebra.apply_mode
    out = s.scaled(br.scalar)
    for md, coeff in br.linear:
        out = out + act(md, s).scaled(coeff)
    for p, coeff in br.j2:
        out = out + apply_j2(algebra, p, s, act).scaled(coeff)
    return out


def spectral_flow_mode(algebra: BPAlgebra, m):
    """The mode substitution of the spectral-flow twist (bar convention).

    Returns (list of (mode, coeff), scalar).
    """
    if algebra.convention != BAR:
        raise ValueError("spectral flow is defined on the integer-graded convention")
    gen, n = m
    lam = algebra.heis_level
    if gen == J:
        return [((J, n), Fraction(1))], (-lam if n == 0 else Fraction(0))
    if gen == L:
        return [((L, n), Fraction(1)), ((J, n), Fraction(-1))], (lam if n == 0 else Fraction(0))
    if gen == GP:
        return [((GP, n - 1), Fraction(1))], Fraction(0)
    return [((GM, n + 1), Fraction(1))], Fraction(0)


def apply_spectral_flow_op(algebra: BPAlgebra, m, s: State) -> State:
    """The spectral-flow image of the mode m applied to s."""
    combo, scalar = spectral_flow_mode(algebra, m)
    out = s.scaled(scalar)
    for md, coeff in combo:
        out = out + algebra.apply_mode(md, s).scaled(coeff)
    return out


def apply_spectral_flow_bracket(algebra: BPAlgebra, br, s: State) -> State:
    """Apply the spectral-flow image of a bracket result to a state."""
    return bracket_by_definition(algebra, br, s, lambda m, t: apply_spectral_flow_op(algebra, m, t))


def check_spectral_flow_brackets(algebra: BPAlgebra, cases: int, seed: int, max_weight=4):
    """[psi(a), psi(b)] s == psi([a, b]) s for random modes and states."""
    rng = random.Random(seed)
    for case in range(cases):
        a = random_mode(rng, -2, 2)
        b = random_mode(rng, -2, 2)
        s = random_state(algebra, rng, max_weight)
        lhs = apply_spectral_flow_op(
            algebra, a, apply_spectral_flow_op(algebra, b, s)
        ) - apply_spectral_flow_op(algebra, b, apply_spectral_flow_op(algebra, a, s))
        rhs = apply_spectral_flow_bracket(algebra, algebra.bracket(a, b), s)
        assert lhs == rhs, f"case {case}: psi-bracket of {a}, {b}"


def check_zhu_multiplicativity(algebra: BPAlgebra, cases: int, seed: int, max_weight=3):
    """zhu_reduce(a * b) == zhu_reduce(a) zhu_reduce(b) on random states."""
    rng = random.Random(seed)
    reducer = ZhuReducer(algebra)
    for case in range(cases):
        a = _homogeneous_state(algebra, rng, max_weight)
        b = random_state(algebra, rng, max_weight)
        left = reducer.reduce_state(zhu_star(algebra, a, b))
        right = reducer.reduce_state(a) * reducer.reduce_state(b)
        assert left == right, f"case {case}: star multiplicativity"


def check_circle_vanishes(algebra: BPAlgebra, cases: int, seed: int, max_weight=3):
    """zhu_reduce kills O(V): reduce(a o b) == 0 on random states."""
    rng = random.Random(seed)
    reducer = ZhuReducer(algebra)
    for case in range(cases):
        a = _homogeneous_state(algebra, rng, max_weight)
        b = random_state(algebra, rng, max_weight)
        circ = zhu_circle(algebra, a, b)
        assert reducer.reduce_state(circ).is_zero(), f"case {case}: circle image"


def _homogeneous_state(algebra: BPAlgebra, rng: random.Random, max_weight: int) -> State:
    for _ in range(20):
        weight = rng.randint(0, max_weight)
        charge = rng.randint(-1, 1)
        basis = enumerate_basis(algebra, VAC, weight, charge)
        if basis.monomials:
            state = State(VAC)
            for _ in range(2):
                state.add_term(rng.choice(basis.monomials), rng.choice([-2, -1, 1, 2]))
            if not state.is_zero():
                return state
    return algebra.unit()


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that `bpalg` used before its table parser: the
    reference for `cli.parse_argv`."""
    parser = argparse.ArgumentParser(
        prog="bpalg",
        description="Exact verification suites for the Bershadsky-Polyakov algebra",
    )
    parser._negative_number_matcher = _NEGATIVE_RATIONAL
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p._negative_number_matcher = _NEGATIVE_RATIONAL
        p.add_argument("--format", choices=("md", "json"), default="md")
        return p

    p_sing = add_parser("singular", help="singular-vector kernels and golden tables")
    p_sing.add_argument("--level", required=True)
    p_sing.add_argument("--weight", required=True)
    p_sing.add_argument("--charge", default=0, type=int)
    p_sing.add_argument("--grading", choices=(OMEGA, BAR), default=OMEGA)
    p_sing.add_argument("--check", action="store_true", help="require a golden table")

    p_zhu = add_parser("zhu", help="Zhu projections and Smith-algebra relations")
    p_zhu.add_argument("--level", required=True)

    p_cls = add_parser("classify", help="highest-weight classification")
    p_cls.add_argument("--level", required=True)

    p_ff = add_parser("freefield", help="free-field realization checks")
    p_ff.add_argument("--level", required=True)
    return parser
