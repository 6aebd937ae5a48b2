"""Exact scalar and polynomial arithmetic.

Everything downstream is built on ``fractions.Fraction``: no floating point
appears anywhere in the library.  Two small polynomial types are provided:

* :class:`Poly2` -- sparse polynomials in Q[x, y], used for highest-weight
  parameters and Zhu-algebra coefficients.
* :class:`Poly1` -- univariate polynomials over Q with exact rational root
  extraction, used by the elimination machinery.

The Sylvester resultant is computed by evaluation/interpolation so that all
intermediate linear algebra stays over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

Q = Fraction


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"-5/3"`` and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def binomial(n, j: int):
    """Generalized binomial coefficient n(n-1)...(n-j+1)/j!.

    The upper argument may be an int, a Fraction, or a polynomial (anything
    supporting ring arithmetic with ints); the lower argument must be a
    nonnegative integer.
    """
    if j < 0:
        raise ValueError("lower binomial argument must be nonnegative")
    num = 1
    for t in range(j):
        num = (n - t) * num
    den = 1
    for t in range(1, j + 1):
        den *= t
    if isinstance(num, int):
        return Fraction(num, den)
    return num * Fraction(1, den)


def join_signed(parts: list) -> str:
    """Signed term strings as one sum: "a", "-b", "c" give "a - b + c"."""
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


# ---------------------------------------------------------------------------
# Bivariate polynomials
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse exact polynomial in Q[x, y].

    Stored as {(i, j): coefficient} with no zero coefficients.  Instances are
    treated as immutable values; all operations return new objects.
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

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(value) -> "Poly2":
        value = frac(value)
        return Poly2({(0, 0): value}) if value else Poly2()

    @staticmethod
    def x() -> "Poly2":
        return Poly2({(1, 0): Fraction(1)})

    @staticmethod
    def y() -> "Poly2":
        return Poly2({(0, 1): Fraction(1)})

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        other = _as_poly2(other)
        c = dict(self.c)
        for key, val in other.c.items():
            s = c.get(key, Fraction(0)) + val
            if s:
                c[key] = s
            else:
                c.pop(key, None)
        out = Poly2()
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly2()
        out.c = {key: -val for key, val in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-_as_poly2(other))

    def __rsub__(self, other):
        return _as_poly2(other) + (-self)

    def __mul__(self, other):
        other = _as_poly2(other)
        c = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                key = (i1 + i2, j1 + j2)
                s = c.get(key, Fraction(0)) + v1 * v2
                if s:
                    c[key] = s
                else:
                    c.pop(key, None)
        out = Poly2()
        out.c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly2.const(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Poly2.const(other)
        return isinstance(other, Poly2) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    # -- queries -----------------------------------------------------------
    def is_const(self) -> bool:
        return not self.c or self.c.keys() == {(0, 0)}

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.c.get((0, 0), Fraction(0))

    def degree(self) -> int:
        return max((i + j for (i, j) in self.c), default=0)

    def degree_in(self, var: str) -> int:
        pos = 0 if var == "x" else 1
        return max((key[pos] for key in self.c), default=0)

    def coeff_of(self, var: str, power: int) -> "Poly2":
        """Coefficient of var**power, as a polynomial in the other variable."""
        pos = 0 if var == "x" else 1
        out = Poly2()
        c = {}
        for key, val in self.c.items():
            if key[pos] == power:
                rest = (0, key[1]) if pos == 0 else (key[0], 0)
                c[rest] = val
        out.c = c
        return out

    def eval(self, xval, yval) -> Fraction:
        xval, yval = frac(xval), frac(yval)
        total = Fraction(0)
        for (i, j), val in self.c.items():
            total += val * xval**i * yval**j
        return total

    def subst(self, px: "Poly2", py: "Poly2") -> "Poly2":
        """Substitute x -> px, y -> py."""
        out = Poly2()
        for (i, j), val in self.c.items():
            out = out + Poly2.const(val) * px**i * py**j
        return out

    def specialize(self, var: str, value) -> "Poly1":
        """Set ``var`` to ``value``; the result is univariate in the other variable."""
        pos = 0 if var == "x" else 1
        value = frac(value)
        coeffs: dict[int, Fraction] = {}
        for key, val in self.c.items():
            d = key[1 - pos]
            coeffs[d] = coeffs.get(d, Fraction(0)) + val * value ** key[pos]
        deg = max(coeffs, default=0)
        return Poly1([coeffs.get(d, Fraction(0)) for d in range(deg + 1)], var="y" if pos == 0 else "x")

    def as_poly1_in(self, var: str) -> "Poly1":
        """View as univariate in ``var``; the other variable must be absent."""
        pos = 0 if var == "x" else 1
        other = 1 - pos
        coeffs = {}
        for key, val in self.c.items():
            if key[other]:
                raise ValueError(f"{self} is not univariate in {var}")
            coeffs[key[pos]] = val
        deg = max(coeffs, default=0)
        return Poly1([coeffs.get(d, Fraction(0)) for d in range(deg + 1)], var=var)

    # -- display / serialization -------------------------------------------
    def terms_sorted(self):
        """Terms in graded-lex order with x > y (deterministic display)."""
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

    @staticmethod
    def from_json(data) -> "Poly2":
        return Poly2({(int(i), int(j)): frac(val) for i, j, val in data})


def _as_poly2(value) -> Poly2:
    if isinstance(value, Poly2):
        return value
    return Poly2.const(value)


POLY_X = Poly2.x()
POLY_Y = Poly2.y()


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------

class Poly1:
    """Dense univariate polynomial over Q with exact arithmetic."""

    __slots__ = ("a", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "x"):
        a = [frac(v) for v in coeffs]
        while a and not a[-1]:
            a.pop()
        self.a = a
        self.var = var

    @staticmethod
    def const(value, var="x") -> "Poly1":
        return Poly1([frac(value)], var=var)

    @staticmethod
    def ident(var="x") -> "Poly1":
        return Poly1([0, 1], var=var)

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
            other = Poly1.const(other, var=self.var)
        return isinstance(other, Poly1) and self.a == other.a

    def __hash__(self):
        return hash(tuple(self.a))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.a), len(other.a))
        return Poly1([self[d] + other[d] for d in range(n)], var=self.var)

    __radd__ = __add__

    def __neg__(self):
        return Poly1([-v for v in self.a], var=self.var)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return Poly1(var=self.var)
        out = [Fraction(0)] * (len(self.a) + len(other.a) - 1)
        for i, u in enumerate(self.a):
            if not u:
                continue
            for j, v in enumerate(other.a):
                out[i + j] += u * v
        return Poly1(out, var=self.var)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly1":
        if isinstance(other, Poly1):
            return other
        return Poly1.const(other, var=self.var)

    def eval(self, point) -> Fraction:
        point = frac(point)
        total = Fraction(0)
        for coeff in reversed(self.a):
            total = total * point + coeff
        return total

    def divmod_exact(self, other: "Poly1"):
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
        return Poly1(quot, var=self.var), Poly1(rem, var=self.var)

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


def rational_roots(p: Poly1):
    """All rational roots of ``p`` with multiplicity, plus the cofactor.

    Returns ``(roots, cofactor)`` where ``roots`` maps each rational root to
    its multiplicity and ``cofactor`` is what remains of ``p`` after dividing
    out the corresponding linear factors (so the root list is provably
    complete iff the cofactor has no rational roots; it never does, by
    construction, and the caller can check ``cofactor.is_const()`` to decide
    whether irrational roots may remain).
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has every root")
    # Strip x^m.
    roots: dict[Fraction, int] = {}
    a = list(p.a)
    zero_mult = 0
    while a and not a[0]:
        a.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[Fraction(0)] = zero_mult
    work = Poly1(a, var=p.var)
    if work.degree() >= 1:
        # Clear denominators: candidate roots r/s with r | a0, s | alead.
        den_lcm = 1
        for v in work.a:
            den_lcm = den_lcm * v.denominator // _gcd(den_lcm, v.denominator)
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
                work, rem = work.divmod_exact(Poly1([-cand, 1], var=p.var))
                assert rem.is_zero()
    return roots, work


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _divisors(n: int):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


# ---------------------------------------------------------------------------
# Resultants and exact linear algebra
# ---------------------------------------------------------------------------

def resultant(p: Poly2, q: Poly2, eliminate: str) -> Poly1:
    """Sylvester resultant of p, q with respect to ``eliminate`` ("x" or "y").

    The sign convention is that of the Sylvester determinant with p's
    coefficient rows on top.  The result is univariate in the kept variable.
    """
    if not p or not q:
        raise ValueError("resultant of a zero polynomial")
    keep = "y" if eliminate == "x" else "x"
    n, m = p.degree_in(eliminate), q.degree_in(eliminate)
    if n == 0 and m == 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    prow = [p.coeff_of(eliminate, n - i) for i in range(n + 1)]
    qrow = [q.coeff_of(eliminate, m - i) for i in range(m + 1)]
    size = n + m
    if size == 0:
        return Poly1([1], var=keep)
    matrix = []
    for shift in range(m):
        row = [Poly2()] * size
        for i, entry in enumerate(prow):
            row[shift + i] = entry
        matrix.append(row)
    for shift in range(n):
        row = [Poly2()] * size
        for i, entry in enumerate(qrow):
            row[shift + i] = entry
        matrix.append(row)
    # Degree bound for det as polynomial in the kept variable.
    bound = sum(max((e.degree_in(keep) for e in row if e), default=0) for row in matrix)
    points, values = [], []
    t = 0
    while len(points) <= bound:
        pt = Fraction(t)
        # Entries are univariate in ``keep``.
        scalar = [[entry.specialize(keep, pt)[0] for entry in row] for row in matrix]
        values.append(_det_fraction(scalar))
        points.append(pt)
        t += 1
    coeffs = _lagrange(points, values)
    return Poly1(coeffs, var=keep)


def _det_fraction(matrix) -> Fraction:
    """Determinant over Q by fraction-free-ish Gaussian elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col]:
                factor = m[r][col] * inv
                for cc in range(col, size):
                    m[r][cc] -= factor * m[col][cc]
    return det


def _lagrange(points, values):
    """Coefficients of the interpolating polynomial through (points, values)."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for d, cv in enumerate(basis):
                new[d] -= cv * xj
                new[d + 1] += cv
            basis = new
        scale = yi / denom
        for d, cv in enumerate(basis):
            coeffs[d] += cv * scale
    return coeffs


# A 61-bit Mersenne prime: the modulus of the rank certificate in kernel_basis.
_PRIME = 2**61 - 1


def _pivot_rows_mod_p(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Indices of the rows that become pivots of a row echelon form mod ``_PRIME``.

    Each row is first scaled to an integer row by the lcm of its
    denominators, so no denominator is ever inverted mod p.  The rows are
    kept sparse; the scan stops once every column has a pivot.
    """
    echelon: dict[int, dict[int, int]] = {}  # leading column -> row with leading entry 1
    selected = []
    for index, row in enumerate(rows):
        scale = math.lcm(*(v.denominator for v in row if v))
        vec = {}
        for c, v in enumerate(row):
            value = v.numerator * (scale // v.denominator) % _PRIME
            if value:
                vec[c] = value
        while vec:
            lead = min(vec)
            pivot = echelon.get(lead)
            if pivot is None:
                inv = pow(vec[lead], -1, _PRIME)
                echelon[lead] = {c: v * inv % _PRIME for c, v in vec.items()}
                selected.append(index)
                break
            factor = vec[lead]
            for c, v in pivot.items():
                # A column missing from vec gets -factor * v, never 0 mod p.
                value = (vec.get(c, 0) - factor * v) % _PRIME
                if value:
                    vec[c] = value
                else:
                    del vec[c]
        if len(echelon) == ncols:
            break
    return selected


def _gauss_jordan_kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis by dense Gauss-Jordan elimination over Q.

    One vector per free column of the reduced row echelon form: 1 on its
    free column, 0 on the other free columns.
    """
    m = [row[:] for row in rows]
    pivots = {}
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots[col] = r
        r += 1
        if r == len(m):
            break
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -m[pr][fc]
        basis.append(vec)
    return basis


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the given matrix over Q.

    Rows are lists of length ``ncols``.  Returns a list of kernel vectors
    (each of length ``ncols``), deterministically ordered by free column:
    the vector of a free column of the reduced row echelon form is 1 there
    and 0 on every other free column.

    The rank is first computed modulo the prime p = 2^61 - 1 on the rows
    scaled to integers.  Every minor of an integer matrix that is nonzero
    mod p is nonzero over Q, so the rank mod p is at most the rank over Q:
    when it equals ``ncols`` the kernel is {0}, and that is a proof.

    Otherwise the exact Gauss-Jordan elimination runs on the rows that were
    pivots mod p only.  Each resulting vector is checked over Q against every
    row of the matrix; rows that fail join the selection and the solve is
    repeated.  When every row passes, the selected rows have the same kernel
    as the whole matrix, hence the same reduced row echelon form and the
    same basis.  An unlucky prime costs time, never correctness.
    """
    chosen = set(_pivot_rows_mod_p(rows, ncols))
    if len(chosen) == ncols:
        return []
    sparse = [[(c, v) for c, v in enumerate(row) if v] for row in rows]
    while True:
        basis = _gauss_jordan_kernel([rows[i] for i in sorted(chosen)], ncols)
        failing = {
            i for i, row in enumerate(sparse) if any(sum(v * vec[c] for c, v in row) for vec in basis)
        }
        if not failing:
            return basis
        chosen |= failing
