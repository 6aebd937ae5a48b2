"""Exact scalar and polynomial arithmetic.

Every scalar is exact, an ``int`` or a ``fractions.Fraction``: no floating
point appears anywhere in the library.  One polynomial type is provided:
:class:`Poly2`, sparse polynomials in Q[x, y], used for highest-weight
parameters and Zhu-algebra coefficients.  Inside, a Poly2 is integers:
numerators over one common denominator, so its arithmetic makes no Fraction;
coefficients become Fractions only at its boundary (display, JSON,
:meth:`Poly2.const_value` and :meth:`Poly2.eval`).  A univariate polynomial
is a Poly2 in x only or in y only: :func:`rational_roots` finds its exact
rational roots, and :func:`resultant` returns one.

The linear algebra has one elimination.  :func:`_echelon` is the sparse row
echelon form mod a prime behind both :func:`rank_mod_p` and
:func:`kernel_basis`, which solves mod word-size primes, recovers the
rational kernel by the Chinese remainder theorem and rational
reconstruction, and certifies it exactly on the integer-scaled rows.
Elements of GF(p) are plain ``int`` residues in [0, p), and :func:`residue`
maps a rational to one.  The Sylvester resultant is a determinant over
Q[t], taken by Bareiss's fraction-free elimination, whose divisions are
exact and run on integer numerators.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush

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
    nonnegative integer.  An int upper argument gives an int, with
    C(n, j) = (-1)^j C(j - n - 1, j) for n < 0; a Fraction gives a Fraction.
    """
    if j < 0:
        raise ValueError("lower binomial argument must be nonnegative")
    if isinstance(n, int):
        return math.comb(n, j) if n >= 0 else (-1) ** j * math.comb(j - n - 1, j)
    num = 1
    for t in range(j):
        num = (n - t) * num
    return num * Fraction(1, math.factorial(j))


def join_signed(parts: list) -> str:
    """Signed term strings as one sum: "a", "-b", "c" give "a - b + c"."""
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse exact polynomial in Q[x, y], held fraction-free.

    Stored as integer numerators {(i, j): n} over one positive integer
    denominator, in canonical form: no numerator is 0, the gcd of the
    denominator and every numerator is 1, and the zero polynomial has
    denominator 1.  Equal polynomials therefore have equal forms.  The ring
    operations multiply and add ints and divide each result once by a gcd;
    a coefficient becomes a Fraction only where it leaves the type.
    Instances are treated as immutable values; all operations return new
    objects, and no result shares an operand's dict, so a memo table holding
    a Poly2 cannot be changed through a result.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=None):
        """The polynomial with coefficients {(i, j): value}, each an int, a
        Fraction or a string such as "-5/3"."""
        vals = [(key, frac(val)) for key, val in (coeffs or {}).items()]
        den = math.lcm(*(val.denominator for _, val in vals))
        canon = _canonical({(int(key[0]), int(key[1])): val.numerator * (den // val.denominator)
                            for key, val in vals if val}, den)
        self._num, self._den = canon._num, canon._den

    # -- constructors -----------------------------------------------------
    @staticmethod
    def const(value, den: int = 1) -> "Poly2":
        """The constant value / den: ``value`` an int, a Fraction or a string
        such as "-5/3", ``den`` a positive int."""
        if type(value) is not int:
            value = frac(value)
            value, den = value.numerator, value.denominator * den
        return _canonical({(0, 0): value} if value else {}, den)

    @staticmethod
    def x() -> "Poly2":
        return Poly2({(1, 0): 1})

    @staticmethod
    def y() -> "Poly2":
        return Poly2({(0, 1): 1})

    def numerators(self) -> tuple[dict, int]:
        """The integer numerators {(i, j): n} (a copy) and their common
        positive denominator, in canonical form."""
        return dict(self._num), self._den

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        other = _as_poly2(other)
        a, da, db = self._num, self._den, other._den
        if da == db:
            den, c, fb = da, dict(a), 1
        else:
            den = math.lcm(da, db)
            fa, fb = den // da, den // db
            c = {key: val * fa for key, val in a.items()}
        for key, val in other._num.items():
            val *= fb
            prev = c.get(key)
            if prev is None:
                c[key] = val
            else:
                val += prev
                if val:
                    c[key] = val
                else:
                    del c[key]
        return _canonical(c, den)

    __radd__ = __add__

    def __neg__(self):
        return _canonical({key: -val for key, val in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-_as_poly2(other))

    def __rsub__(self, other):
        return _as_poly2(other) + (-self)

    def __mul__(self, other):
        other = _as_poly2(other)
        a, b = self._num, other._num
        if len(a) == 1 and (0, 0) in a:
            a, b = b, a
        if len(b) == 1 and (0, 0) in b:
            # A constant factor, most often 1, needs no key arithmetic: it
            # scales the other operand's numerators.
            v = b[(0, 0)]
            c = dict(a) if v == 1 else {key: val * v for key, val in a.items()}
        else:
            c = _product(a, b)
        return _canonical(c, self._den * other._den)

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
        if not isinstance(other, Poly2):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly2.const(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # A constant hashes as its value, since it compares equal to it.
        if self.is_const():
            return hash(self.const_value())
        return hash((frozenset(self._num.items()), self._den))

    def __bool__(self):
        return bool(self._num)

    # -- queries -----------------------------------------------------------
    def is_const(self) -> bool:
        return not self._num or self._num.keys() == {(0, 0)}

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._num.get((0, 0), 0), self._den)

    def degree(self) -> int:
        return max((i + j for (i, j) in self._num), default=0)

    def degree_in(self, var: str) -> int:
        pos = 0 if var == "x" else 1
        return max((key[pos] for key in self._num), default=0)

    def coeff_of(self, var: str, power: int) -> "Poly2":
        """Coefficient of var**power, as a polynomial in the other variable."""
        pos = 0 if var == "x" else 1
        return _canonical({((0, key[1]) if pos == 0 else (key[0], 0)): val
                           for key, val in self._num.items() if key[pos] == power}, self._den)

    def eval(self, xval, yval) -> Fraction:
        """The value at (xval, yval): one integer sum over the common
        denominator of every term, made a Fraction once."""
        xs, xden = _scaled_powers(frac(xval), self.degree_in("x"))
        ys, yden = _scaled_powers(frac(yval), self.degree_in("y"))
        total = sum(val * xs[i] * ys[j] for (i, j), val in self._num.items())
        return Fraction(total, self._den * xden * yden)

    def subst(self, px: "Poly2", py: "Poly2") -> "Poly2":
        """Substitute x -> px, y -> py over the integers.

        With px = P / dp, py = Q / dq and degrees dx, dy in x, y, the result
        is sum n_ij P^i dp^(dx-i) Q^j dq^(dy-j) over den dp^dx dq^dy; each
        power of P and Q is built once.
        """
        px, py = _as_poly2(px), _as_poly2(py)
        dx, dy, dp, dq = self.degree_in("x"), self.degree_in("y"), px._den, py._den
        xpow, ypow = [{(0, 0): 1}], [{(0, 0): 1}]
        for pows, base, deg in ((xpow, px, dx), (ypow, py, dy)):
            for _ in range(deg):
                pows.append(_product(pows[-1], base._num))
        c: dict = {}
        for (i, j), val in self._num.items():
            scale = val * dp ** (dx - i) * dq ** (dy - j)
            for key, v in _product(xpow[i], ypow[j]).items():
                c[key] = c.get(key, 0) + v * scale
        return _canonical({key: val for key, val in c.items() if val}, self._den * dp**dx * dq**dy)

    # -- display / serialization -------------------------------------------
    def terms_sorted(self):
        """(key, Fraction) terms in graded-lex order with x > y (deterministic
        display)."""
        den = self._den
        return sorted(((key, Fraction(val, den)) for key, val in self._num.items()),
                      key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0]))

    def format(self, x: str = "x") -> str:
        """The display, in graded-lex order with x > y, with ``x`` as the name
        of the first variable: a polynomial in an index i is an x-polynomial
        shown by ``p.format(x="i")``."""
        parts = []
        for (i, j), val in self.terms_sorted():
            mono = "*".join(
                ([f"{x}^{i}" if i > 1 else x] if i else [])
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

    __str__ = __repr__ = format

    def to_json(self):
        return [[i, j, str(val)] for (i, j), val in self.terms_sorted()]

    @staticmethod
    def from_json(data) -> "Poly2":
        return Poly2({(int(i), int(j)): frac(val) for i, j, val in data})


def _canonical(num: dict, den: int) -> Poly2:
    """The Poly2 num / den, divided through by the gcd of ``den`` and every
    numerator; ``num`` must hold no zero and is not copied, ``den`` must be
    positive."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {key: val // g for key, val in num.items()}
            den //= g
    out = Poly2.__new__(Poly2)
    out._num, out._den = num, den
    return out


def _as_poly2(value) -> Poly2:
    if isinstance(value, Poly2):
        return value
    return Poly2.const(value)


def _product(a: dict, b: dict) -> dict:
    """The product of two integer numerator dicts, with no zero entry."""
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
    return c


def _scaled_powers(value: Fraction, deg: int) -> tuple[list, int]:
    """[a^i b^(deg - i) for i = 0..deg] and b^deg, for value = a / b."""
    a, b = value.numerator, value.denominator
    apow, bpow = [1], [1]
    for _ in range(deg):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    return [apow[i] * bpow[deg - i] for i in range(deg + 1)], bpow[deg]


POLY_X = Poly2.x()
POLY_Y = Poly2.y()


# ---------------------------------------------------------------------------
# Polynomials in one variable: Poly2s in x only or in y only
# ---------------------------------------------------------------------------

def _dense(p: Poly2, pos: int) -> list[int]:
    """The numerators of ``p``, a polynomial in the variable at ``pos`` only
    (0 for x, 1 for y), by degree from 0; [] for zero."""
    ints = [0] * (max((key[pos] for key in p._num), default=-1) + 1)
    for key, val in p._num.items():
        ints[key[pos]] = val
    return ints


def _from_dense(ints: list[int], den: int, pos: int) -> Poly2:
    """The polynomial sum ints[d] t^d / den in the variable t at ``pos``."""
    return _canonical({((0, d) if pos else (d, 0)): val for d, val in enumerate(ints) if val}, den)


def _quotient(a: Poly2, b: Poly2, pos: int) -> Poly2 | None:
    """a / b if b divides a, else None, for polynomials in the variable at
    ``pos`` only.

    With b's numerators c B, c their positive content, B is primitive, so by
    Gauss's lemma a's numerators divided by B is an integer polynomial when b
    divides a; it is taken from the top in integer steps, and a / b is it
    times b's denominator over c times a's.
    """
    num, div = _dense(a, pos), _dense(b, pos)
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    content = math.gcd(*div)
    div = [val // content for val in div]
    m, lead = len(div) - 1, div[-1]
    quot = [0] * max(0, len(num) - m)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(num[k + m], lead)
        if r:
            return None
        quot[k] = q
        for j, val in enumerate(div):
            num[k + j] -= q * val
    if any(num):
        return None
    return _from_dense([q * b._den for q in quot], a._den * content, pos)


def rational_roots(p: Poly2):
    """All rational roots of ``p``, a polynomial in x only or in y only, with
    multiplicity, plus the cofactor.

    Returns ``(roots, cofactor)`` where ``roots`` maps each rational root to
    its multiplicity and ``cofactor`` is what remains of ``p`` after dividing
    out the corresponding monic linear factors, in the same variable (so the
    root list is provably complete iff the cofactor has no rational roots; it
    never does, by construction, and the caller can check
    ``cofactor.is_const()`` to decide whether irrational roots may remain).
    Raises ValueError on zero and on a polynomial in both x and y.
    """
    if not p:
        raise ValueError("the zero polynomial has every root")
    pos = 1 if any(j for _, j in p._num) else 0
    if pos and any(i for i, _ in p._num):
        raise ValueError(f"{p} is not a polynomial in one variable")
    # Strip t^m.
    ints = _dense(p, pos)
    zero_mult = next(d for d, val in enumerate(ints) if val)
    roots: dict[Fraction, int] = {Fraction(0): zero_mult} if zero_mult else {}
    ints = ints[zero_mult:]
    work = _from_dense(ints, p._den, pos)
    if len(ints) > 1:
        # A root r/s in lowest terms has r | a0 and s | alead, and is one iff
        # sum a_i r^i s^(d-i) vanishes.  The roots are deflated in ascending
        # order, each as often as it divides.
        found = []
        for r in _divisors(abs(ints[0])):
            for s in _divisors(abs(ints[-1])):
                if math.gcd(r, s) == 1:
                    found.extend(Fraction(num, s) for num in (r, -r) if not _homogeneous_value(ints, num, s))
        for cand in sorted(found):
            linear = _from_dense([-cand.numerator, cand.denominator], cand.denominator, pos)
            while (quot := _quotient(work, linear, pos)) is not None:
                roots[cand] = roots.get(cand, 0) + 1
                work = quot
    return roots, work


def _homogeneous_value(ints: list, r: int, s: int) -> int:
    """s^d times the integer polynomial with coefficients ``ints`` at r/s."""
    value, spow = ints[-1], 1
    for coeff in reversed(ints[:-1]):
        spow *= s
        value = value * r + coeff * spow
    return value


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


def resultant(p: Poly2, q: Poly2, eliminate: str) -> Poly2:
    """Sylvester resultant of p, q with respect to ``eliminate`` ("x" or "y").

    The sign convention is that of the Sylvester determinant with p's
    coefficient rows on top.  The result is a polynomial in the kept variable.
    """
    if not p or not q:
        raise ValueError("resultant of a zero polynomial")
    keep = 1 if eliminate == "x" else 0  # the kept variable's place in a key
    n, m = p.degree_in(eliminate), q.degree_in(eliminate)
    if n == 0 and m == 0:
        raise ValueError("both polynomials are constant in the eliminated variable")
    prow = [p.coeff_of(eliminate, n - i) for i in range(n + 1)]
    qrow = [q.coeff_of(eliminate, m - i) for i in range(m + 1)]
    size = n + m
    zero = Poly2()
    matrix = [[zero] * s + prow + [zero] * (m - 1 - s) for s in range(m)]
    matrix += [[zero] * s + qrow + [zero] * (n - 1 - s) for s in range(n)]
    # Bareiss: after step k, entry (i, j) is the minor on rows 0..k, i and
    # columns 0..k, j, so dividing by the previous pivot is exact over Q[t].
    sign, prev = 1, Poly2.const(1)
    for k in range(size - 1):
        if not matrix[k][k]:
            swap = next((r for r in range(k + 1, size) if matrix[r][k]), None)
            if swap is None:
                return zero
            matrix[k], matrix[swap] = matrix[swap], matrix[k]
            sign = -sign
        pivot = matrix[k]
        for row in matrix[k + 1:]:
            for j in range(k + 1, size):
                row[j] = _quotient(row[j] * pivot[k] - row[k] * pivot[j], prev, keep)
                assert row[j] is not None
        prev = pivot[k]
    return matrix[-1][-1] * sign


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

# The modulus of the rank certificate: 1,073,741,789, the largest prime below
# 2^30.  Every residue is then a one-digit CPython int (30 bits), and every
# product of two residues is at most two digits.
_PRIME = 2**30 - 35


class NotInvertibleModP(ArithmeticError):
    """A rational whose denominator is divisible by ``_PRIME`` has no image in GF(p)."""


def residue(value, den: int = 1) -> int:
    """The image of value / den in GF(p), p = ``_PRIME``, as its residue in
    [0, p), for an int or Fraction value; raises :class:`NotInvertibleModP`.

    This is the reduction Z_(p) -> GF(p), a ring homomorphism, so a matrix
    computed with lifted constants is the reduction of the rational one, and
    a nonzero minor mod p proves a nonzero minor over Q.
    """
    if isinstance(value, int) and den == 1:
        return value % _PRIME
    value = Fraction(value, den)
    den = value.denominator % _PRIME
    if not den:
        raise NotInvertibleModP(f"{value} has no image mod {_PRIME}")
    return value.numerator * pow(den, -1, _PRIME) % _PRIME


def _echelon(vectors: Iterable[dict], ncols: int, p: int, leftmost: bool = True) -> dict[int, dict]:
    """Row echelon form mod ``p`` of sparse {column: residue} rows, which it
    consumes.

    Returns {leading column: row} with every row scaled to a leading 1.  The
    rows are eliminated sparsest first, which keeps the fill-in down, and the
    scan stops once every column has a pivot.

    Each row clears the pivot columns it holds in the order the pivots were
    made, through a heap: a pivot row holds no lead of an earlier pivot, so
    clearing one brings in only later ones.  What is left leads with its
    leftmost column, or, with ``leftmost`` false, with its column that has
    the fewest nonzeros in the matrix.  The rank does not depend on that
    choice; the leftmost leads are those of the reduced row echelon form,
    and every row then lies on or right of its lead.
    """
    vectors = sorted(vectors, key=len)
    if leftmost:
        choose = min
    else:
        nonzeros = Counter(c for vec in vectors for c in vec)
        choose = partial(min, key=nonzeros.__getitem__)
    echelon: dict[int, dict] = {}
    made: dict[int, int] = {}  # pivot column -> its place in the order of making
    pivots: list[tuple] = []  # (column, row) in that order
    for vec in vectors:
        heap = [made[c] for c in vec if c in made]
        heapify(heap)
        while heap:
            lead, row = pivots[heappop(heap)]
            factor = vec.get(lead)
            if factor is None:  # cancelled, or pushed twice
                continue
            for c, v in row.items():
                old = vec.get(c)
                if old is None:  # -factor * v, never 0 in a field
                    vec[c] = -factor * v % p
                    if c in made:
                        heappush(heap, made[c])
                    continue
                value = (old - factor * v) % p
                if value:
                    vec[c] = value
                else:
                    del vec[c]
        if vec:
            lead = choose(vec)
            inv = pow(vec[lead], -1, p)
            row = {c: v * inv % p for c, v in vec.items()}
            echelon[lead] = row
            made[lead] = len(pivots)
            pivots.append((lead, row))
            if len(echelon) == ncols:
                break
    return echelon


def rank_mod_p(vectors: Iterable[dict[int, int]], ncols: int) -> int:
    """Rank mod ``_PRIME`` of sparse {column: residue} rows, which it consumes.

    The leads are the sparsest columns (``_echelon`` with ``leftmost``
    false), which keeps the fill-in of the large certificate systems down.
    """
    return len(_echelon(vectors, ncols, _PRIME, leftmost=False))


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, deterministic for n < 4,759,123,141."""
    for q in (2, 3, 5, 7, 11, 13, 61):
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterable[int]:
    """``_PRIME``, then each smaller prime in turn, generated as needed."""
    return filter(_is_prime, range(_PRIME, 1, -1))


def _kernel_mod_p(echelon: dict[int, dict], free: list[int], ncols: int, p: int) -> list[list[int]]:
    """The kernel mod ``p`` of a leftmost-lead echelon, one vector per free
    column: 1 there, 0 on every other free column.

    Back-substitution, last lead first: a row lies on or right of its lead,
    and every column right of it is already known.  The row's own lead
    meets the 0 still stored there, so the whole row can be summed.
    """
    leads = sorted(echelon, reverse=True)
    vectors = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for lead in leads:
            if lead < fc:  # a row leading right of fc meets zeros only
                vec[lead] = -sum(v * vec[c] for c, v in echelon[lead].items()) % p
        vectors.append(vec)
    return vectors


def _reconstruct(u: int, m: int) -> tuple[int, int] | None:
    """Wang's rational reconstruction: the (a, b) with a = u b mod ``m``,
    |a| and 0 < b at most sqrt(m/2), and gcd(a, b) = 1; None if there is none.

    When a rational a/b within that bound has image u, it is the one found.
    """
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _certified(scaled: list[dict], images: list[list[int]], modulus: int) -> list[list[Fraction]] | None:
    """The rational vectors with the given images mod ``modulus``, if every
    entry reconstructs and the integer-scaled rows kill every vector scaled
    to integers exactly; else None."""
    basis = []
    for image in images:
        pairs = [_reconstruct(u, modulus) for u in image]
        if None in pairs:
            return None
        den = math.lcm(*(b for _, b in pairs))
        ints = [a * (den // b) for a, b in pairs]
        if any(sum(v * ints[c] for c, v in row.items()) for row in scaled):
            return None
        basis.append([Fraction(a, b) for a, b in pairs])
    return basis


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the given matrix over Q.

    Rows are lists of length ``ncols``, of ints or Fractions.  Returns the
    reduced row echelon basis, ordered by free column (the vector of a free
    column is 1 there and 0 on every other free column), every entry a
    Fraction.  It depends on the row space only, not on the order of rows.

    Each row is scaled to integers by the lcm of its denominators and solved
    mod ``_PRIME``, then mod each smaller prime in turn (:func:`_primes`),
    skipping a prime that divides a row's scale: :func:`_echelon` with
    leftmost leads, and back-substitution to one vector per free column.
    Full rank mod p proves full rank over Q.  Rank mod p is at most the rank
    over Q in every leading block of columns, so the exact free set is the
    smallest and, among sets of its size, the lexicographically latest: the
    primes with the best free set so far are combined by the Chinese
    remainder theorem, the others dropped.  Each entry is then recovered by
    rational reconstruction, and certified: every scaled row times every
    vector scaled to integers is 0.  The d vectors then lie in the kernel
    over Q, of dimension at most d, the dimension mod p, and each is 1 on
    its free column and supported left of it, so they are its reduced row
    echelon basis.  Otherwise the next prime is added; the Hadamard bound on
    the entries ensures that this ends.
    """
    dens, scaled = [], []  # each row's scale, and the row times it
    for row in rows:
        entries = [(c, v) for c, v in enumerate(row) if v]
        den = math.lcm(*(v.denominator for _, v in entries))
        dens.append(den)
        scaled.append({c: v.numerator * (den // v.denominator) for c, v in entries})
    best = None  # (rank, free columns) of the primes kept
    for p in _primes():
        if any(den % p == 0 for den in dens):
            continue
        echelon = _echelon(({c: r for c, v in row.items() if (r := v % p)} for row in scaled), ncols, p)
        if len(echelon) == ncols:
            return []
        profile = (len(echelon), [c for c in range(ncols) if c not in echelon])
        if best is not None and profile < best:
            continue
        images = _kernel_mod_p(echelon, profile[1], ncols, p)
        if profile == best:
            inv = pow(modulus, -1, p)
            images = [[x + modulus * ((r - x) * inv % p) for x, r in zip(old, new)]
                      for old, new in zip(combined, images)]
            modulus *= p
        else:
            best, modulus = profile, p
        combined = images
        basis = _certified(scaled, combined, modulus)
        if basis is not None:
            return basis
    raise ArithmeticError("no certified kernel from the primes below 2^30")
