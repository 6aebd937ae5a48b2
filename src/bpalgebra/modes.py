"""Mode algebra of the Bershadsky-Polyakov vertex algebra at a fixed level.

Two index conventions are supported for the four generating fields J, L, G+,
G- and are written here as in the source algebra:

* ``omega`` -- modes taken with respect to the standard Virasoro vector
  (half-integer grading; G+- carry conformal weight 3/2).  The printed
  commutation table is written once, as data with symbolic indices
  (``_OMEGA_TABLE``).
* ``bar`` -- modes with respect to the shifted Virasoro vector obtained by
  adding half the derivative of J (integer grading; G+ has weight 1 and G-
  weight 2).  Brackets in this convention are *derived* from the omega table
  through the mode substitution (``_BAR_IN_OMEGA``)
      J(n) = J_n,  L(n) = L_n - (n+1)/2 J_n,  G+(n) = G+_n,  G-(n) = G-_{n+1},
  so the printed table remains the single source of truth.

The substitution is applied to the table symbolically, once per process and
pair of generators, on the pair's first use: :func:`closed_form` gives the
bracket as polynomials in the two mode indices times level constants.  A
bracket is then evaluated, not derived: the integer indices go into its
pair's closed form, and the level constants are lifted once per engine into
its ring (Q, GF(p) or Q[x,y]) by the ring lifts of its state type.

States are finite linear combinations of canonical PBW monomials applied to
the vacuum or to a generic highest-weight vector v(x,y) with (J(0), L(0))
eigenvalues (x, y).  Coefficients lie in the state type's ``ring``: Q[x,y]
for :class:`State`, Q for :class:`ScalarState`, which serves vacuum
computations that never meet x or y, and Z for :class:`IntState`, the ring
of the free-field engines' memo tables.  The canonical monomial order puts
the generators in the order L < J < G+ < G- (the order used by the tables
we reproduce) with non-increasing mode indices inside each generator block.

:class:`State` is the one sparse combination type of the package and
:class:`ModeAlgebra` the one normal-ordering engine: it inserts a mode into a
canonical monomial by commuting it past the head, applying the bracket
[mode, head] straight to the rest of the monomial, and computes modes of
composite states by the Borcherds iterate recursion.  :class:`BPAlgebra`
supplies the generators, the creation ranges and the brackets; the
free-field algebras plug into the same engine through the same ``bracket``
hook.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
import math
import re

from .arith import POLY_X, POLY_Y, Poly2, Q, binomial, frac

OMEGA = "omega"
BAR = "bar"
VAC = "vac"
HW = "hw"

J, L, GP, GM = "J", "L", "G+", "G-"

# Canonical PBW generator order; within a generator indices are
# non-increasing left to right.  This matches the monomials of the golden
# tables verbatim (L-modes leftmost, then J, then G+, then G-).
_RANK = {L: 0, J: 1, GP: 2, GM: 3}

Mode = tuple  # (generator, index)

# The largest creation index of each generator: on the vacuum in either
# grading, and on the highest-weight vector in the bar grading.
_VACUUM_CREATION_BOUND = {
    BAR: {J: -1, L: -2, GP: -1, GM: -2},
    OMEGA: {J: -1, L: -2, GP: -1, GM: -1},
}
_HW_CREATION_BOUND = {J: -1, L: -1, GP: 0, GM: -1}

_MODE_RE = re.compile(r"^(J|L|G\+|G-)\((-?\d+)\)$")


def parse_mode(text: str) -> Mode:
    m = _MODE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse mode {text!r}")
    return (m.group(1), int(m.group(2)))


def mode_str(m: Mode) -> str:
    return f"{m[0]}({m[1]})"


def _mode_key(m: Mode):
    return (_RANK[m[0]], -m[1])


# The bar modes in the omega modes: gen(n) is the sum of (a n + b)
# out_{n + shift} over its (out, shift, (a, b)) entries, so J and G+ agree,
# G-(n) = G-_{n+1} and L(n) = L_n - (n+1)/2 J_n.  The map fixes J, so its
# inverse negates the shifts and the off-diagonal coefficients.  This table
# is the only place the two gradings meet.
_BAR_IN_OMEGA = {
    J: ((J, 0, (0, 1)),),
    L: ((L, 0, (0, 1)), (J, 0, (Q(-1, 2), Q(-1, 2)))),
    GP: ((GP, 0, (0, 1)),),
    GM: ((GM, 1, (0, 1)),),
}


def _substitution(gen: str, n, source: str, target: str) -> list:
    """The ``source`` mode gen(n) as (target generator, index shift,
    coefficient) triples; ``n`` is an int, or a Poly2 for a symbolic index."""
    if source == target:
        return [(gen, 0, 1)]
    sign = 1 if source == BAR else -1
    return [(out, sign * shift, (a * n + b if a else b) * (1 if out == gen else sign))
            for out, shift, (a, b) in _BAR_IN_OMEGA[gen]]


def substitute(m: Mode, source: str, target: str) -> list:
    """A ``source``-convention mode as (target mode, coefficient) pairs."""
    gen, n = m
    return [((out, n + shift), Q(c)) for out, shift, c in _substitution(gen, n, source, target)]


def expand_word(word, source: str, target: str, coeff) -> list:
    """``coeff * word`` under :func:`substitute`, as (target word, coefficient) pairs."""
    words = [((), coeff)]
    for m in word:
        words = [(w + (md,), c * c2) for w, c in words for md, c2 in substitute(m, source, target)]
    return words


# The printed commutation table in the omega grading: [a_m, b_n], with L_m
# carrying the conformal index and J, G+- the n-th product index, as terms
# (output, offset, {(i, j): coefficient of m^i n^j}, level constant).  The
# output is the mode output_{m+n+offset}, the marker (J^2)_{m+n+offset}, or
# the central term, present when m + n = offset.  [L_m, L_n] is the Virasoro
# relation with central charge c_k.  Antisymmetry gives the other pairs.
_J2, _CENTRAL = "(J^2)", "central"
_OMEGA_TABLE = {
    (J, J): ((_CENTRAL, 0, {(1, 0): 1}, "lambda"),),
    (J, GP): ((GP, 0, {(0, 0): 1}, "1"),),
    (J, GM): ((GM, 0, {(0, 0): -1}, "1"),),
    (L, J): ((J, 0, {(0, 1): -1}, "1"),),
    (L, L): ((L, 0, {(1, 0): 1, (0, 1): -1}, "1"), (_CENTRAL, 0, {(3, 0): 1, (1, 0): -1}, "c/12")),
    (L, GP): ((GP, 0, {(1, 0): Q(1, 2), (0, 1): -1, (0, 0): Q(1, 2)}, "1"),),
    (L, GM): ((GM, 0, {(1, 0): Q(1, 2), (0, 1): -1, (0, 0): Q(1, 2)}, "1"),),
    (GP, GM): (
        (_J2, -1, {(0, 0): 3}, "1"),
        (J, -1, {(1, 0): 1, (0, 1): -1}, "3(k+1)/2"),
        (L, -1, {(0, 0): 1}, "-(k+3)"),
        (_CENTRAL, 1, {(2, 0): 1, (1, 0): -1}, "(k+1)(2k+3)/2"),
    ),
    (GP, GP): (),
    (GM, GM): (),
}


@lru_cache(maxsize=None)
def _omega_relation(ga: str, gb: str) -> tuple:
    """[ga_m, gb_n] as table terms with a Poly2 in (m, n) = (x, y)."""
    if (ga, gb) in _OMEGA_TABLE:
        return tuple((out, off, Poly2(poly), const) for out, off, poly, const in _OMEGA_TABLE[(ga, gb)])
    return tuple((out, off, -poly.subst(POLY_Y, POLY_X), const) for out, off, poly, const in _omega_relation(gb, ga))


@lru_cache(maxsize=None)
def _output_substitution(out: str, off: int, convention: str) -> tuple:
    """The omega output out_{m+n+off} as (output, offset, coefficient)
    triples of the convention; a (J^2) marker is made of J modes."""
    if out == _J2:
        return ((out, off, 1),)
    return tuple((out2, off + s2, c2) for out2, s2, c2 in _substitution(out, POLY_X + POLY_Y + off, OMEGA, convention))


@lru_cache(maxsize=None)
def closed_form(ga: str, gb: str, convention: str) -> tuple:
    """[ga(m), gb(n)] in the convention, in closed form in (m, n); derived
    from the printed table once per process, on the pair's first use.

    Both modes are substituted into omega modes, the printed relation is
    taken at the shifted indices, and each output is substituted back.  The
    result lists (output, offset, terms): the (J^2) markers, the modes in
    canonical order, then the central terms.  Each term is (polynomial,
    (constant, den)): integer coefficients (c, i, j) of c m^i n^j, to be
    multiplied by the level constant over ``den``.
    """
    acc: dict = {}
    subs_b = _substitution(gb, POLY_Y, convention, OMEGA)
    for oa, sa, ca in _substitution(ga, POLY_X, convention, OMEGA):
        for ob, sb, cb in subs_b:
            scale, shifted = ca * cb, (POLY_X + sa, POLY_Y + sb) if sa or sb else None
            for out, off, poly, const in _omega_relation(oa, ob):
                poly = poly.subst(*shifted) if shifted else poly
                poly = poly if scale == 1 else poly * scale
                outputs = (((out, off - sa - sb, 1),) if out == _CENTRAL
                           else _output_substitution(out, off + sa + sb, convention))
                for out2, off2, c2 in outputs:
                    group = acc.setdefault((out2, off2), {})
                    term, prev = poly if c2 == 1 else poly * c2, group.get(const)
                    group[const] = term if prev is None else prev + term
    order = {_J2: -1, **_RANK, _CENTRAL: len(_RANK)}
    form = []
    for (out, off), group in sorted(acc.items(), key=lambda t: (order[t[0][0]], -t[0][1])):
        terms = []
        for const, poly in group.items():
            if poly:
                num, den = poly.numerators()
                terms.append((tuple((c, i, j) for (i, j), c in num.items()), (const, den)))
        if terms:
            form.append((out, off, tuple(terms)))
    return tuple(form)


def _q_constants(values: list) -> tuple:
    """Rationals as integer numerators over their common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _evaluate(form: tuple, m: int, n: int, value) -> Bracket:
    """A closed form with lifted constants at the indices (m, n).

    Each output's sum of polynomial values times numerators goes through
    ``value(total, den)``, the memo type's ``lift``, into the ring; an output
    that vanishes there (mod p, a nonzero sum may) is dropped.
    """
    s, j2, linear, scalar = m + n, [], [], None
    for out, off, den, terms in form:
        if out == _CENTRAL and s != off:
            continue
        total = 0
        for poly, num in terms:
            v = 0
            for c, i, j in poly:
                v += c * m**i * n**j
            total += v * num
        coeff = value(total, den) if total else None
        if out == _CENTRAL:
            scalar = coeff
        elif coeff:
            if out == _J2:
                j2.append((s + off, coeff))
            else:
                linear.append(((out, s + off), coeff))
    return Bracket(tuple(j2), tuple(linear), value(0, 1) if scalar is None else scalar)


def _floor_sum(a, b, n: int) -> int:
    """floor(a + b) + n for rationals a and b, by integer floor division."""
    da, db = a.denominator, b.denominator
    return (a.numerator * db + b.numerator * da) // (da * db) + n


class Bracket(namedtuple("Bracket", "j2 linear scalar", defaults=((), (), Q(0)))):
    """Exact commutator [a, b] of two generator modes.

    ``j2`` holds unexpanded (J^2)_p markers as (p, coefficient) pairs; they
    are expanded with the normal-ordered splitting only when applied to a
    canonical monomial, where finitely many terms survive
    (:meth:`ModeAlgebra._add_bracket`).  ``linear`` lists (mode, coeff) and
    ``scalar`` is the central term with delta conditions already evaluated.
    Brackets are memoized per algebra, so they are immutable; the ones an
    algebra's ``bracket`` returns hold their constants in its memo type's
    ring (:class:`ModeAlgebra`), not its state ring: Z for the free fields.
    """

    __slots__ = ()


class State:
    """Sparse combination of canonical PBW monomials over a base tag.

    Coefficients lie in ``ring``: Q[x,y] by default, Q for
    :class:`ScalarState`.  The ring lifts live here: ``lift(value, den=1)``
    maps value / den into it and ``lift_constants`` maps a closed form's
    level constants to (numerators, denominator).  This is the one
    sparse combination type: the scalar and free-field states and the Smith
    words are subclasses that change the ring, the base or the display only,
    so generic code builds states with keyword arguments:
    ``type(s)(base=..., terms=...)``.  States are mutable (``add_term``) and
    therefore unhashable.
    """

    __slots__ = ("base", "terms")
    ring = Poly2
    lift = staticmethod(Poly2.const)
    lift_constants = staticmethod(_q_constants)

    def __init__(self, base=VAC, terms: dict | None = None):
        self.base = base
        self.terms: dict = terms or {}

    def copy(self) -> "State":
        return type(self)(base=self.base, terms=dict(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self.base == other.base
            and self.terms == other.terms
        )

    def add_term(self, mono: tuple, coeff) -> None:
        if not isinstance(coeff, self.ring):
            coeff = self.lift(coeff)
        if coeff:
            self.add_scaled(((mono, coeff),))

    def add_scaled(self, pairs, factor=None) -> None:
        """Add ``factor`` times the (monomial, coefficient) pairs, in place.

        The pairs come from a state or a memo table, so their coefficients
        are nonzero elements of ``ring``; every ring here is a domain, so no
        product vanishes.  Without ``factor`` the pairs are added as they are.
        """
        if factor is not None:
            if not isinstance(factor, self.ring):
                factor = self.lift(factor)
            if not factor:
                return
        terms = self.terms
        for mono, coeff in pairs:
            if factor is not None:
                coeff = coeff * factor
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = coeff
            else:
                coeff = cur + coeff
                if coeff:
                    terms[mono] = coeff
                else:
                    del terms[mono]

    def __add__(self, other: "State") -> "State":
        if self.base != other.base:
            raise ValueError("cannot add states over different bases")
        out = self.copy()
        for mono, coeff in other.terms.items():
            out.add_term(mono, coeff)
        return out

    def __sub__(self, other: "State") -> "State":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "State":
        out = type(self)(base=self.base)
        out.add_scaled(self.terms.items(), factor)
        return out

    def monomials_sorted(self):
        return sorted(self.terms, key=lambda mono: (len(mono), [_mode_key(m) for m in mono]))

    def coefficient(self, mono: tuple):
        return self.terms.get(tuple(mono), self.lift(0))

    def __str__(self):
        tag = "1" if self.base == VAC else "v(x,y)"
        if not self.terms:
            return "0"
        parts = []
        for mono in self.monomials_sorted():
            coeff = self.terms[mono]
            word = "".join(mode_str(m) for m in mono)
            parts.append(f"({coeff})*{word}{tag}" if word else f"({coeff})*{tag}")
        return " + ".join(parts)

    __repr__ = __str__

    def to_json(self):
        out = []
        for mono in self.monomials_sorted():
            out.append([[mode_str(m) for m in mono], self.terms[mono].to_json()])
        return out

    @staticmethod
    def from_json(data, base=VAC) -> "State":
        s = State(base)
        for word, coeff in data:
            s.add_term(tuple(parse_mode(t) for t in word), Poly2.from_json(coeff))
        return s


class ScalarState(State):
    """A state with coefficients in Q, for computations that never meet x or y."""

    __slots__ = ()
    ring = lift = Fraction


class IntState(State):
    """A state with coefficients in Z: the memo ring of an engine whose
    structure constants are all integers (the free-field engines)."""

    __slots__ = ()
    ring = int

    @staticmethod
    def lift(value) -> int:
        """An integral int or Fraction as an int; any other value raises, so
        a non-integral constant is never truncated into Z."""
        if isinstance(value, (int, Fraction)) and value.denominator == 1:
            return int(value)
        raise ValueError(f"{value!r} is not an integer")


class ModeAlgebra:
    """Normal ordering of modes, and modes of composite states.

    A subclass fixes the generators through these hooks:

    * ``is_creation(mode, base)`` -- whether the mode creates on the base;
    * ``mode_key(mode)`` -- the canonical PBW order of creation modes;
    * ``base_action(mode, base)`` -- the scalar by which a non-creation mode
      acts on the bare base vector;
    * ``bracket(mode, head)`` -- the (super)commutator [mode, head] as a
      :class:`Bracket` whose constants lie in the memo ring;
    * ``parity(gen)`` -- the Koszul sign of a swap; odd modes square to zero;
    * ``weight(mode)``, ``product_mode(gen, j)`` (the mode acting as the j-th
      product of the generator state) and its inverse ``product_index(mode)``
      for the iterate recursion.

    A subclass also sets ``state_type``, the type of public results; its
    ``__init__`` creates the memo dicts ``_insert_memo``, ``_action_memo``
    and ``_weight_memo`` and, beside them, the memo ring ``memo_type``: the
    state type in which ``_insert`` and ``_mono_product`` accumulate, whose
    ring holds the bracket constants and memo coefficients (``state_type``
    for :class:`BPAlgebra`, :class:`IntState` for the free fields), and
    whose ``lift`` and ``lift_constants`` put them there.  A memo
    coefficient enters a public state only times a factor lifted into its
    ring.  Insertion and action memo values are frozen tuples of (monomial,
    coefficient) pairs, so no result can alias a memo table; the weight memo
    holds one immutable ``Fraction`` per monomial.

    Modes of composite states follow the Borcherds iterate recursion: for a
    monomial a u with head generator a,
        (a_(m) u)_(p) = sum_j (-1)^j C(m, j) (a_(m-j) u_(p+j)
                        - (-1)^(m + |a||u|) u_(m+p-j) a_(j))
    (Kac, Vertex Algebras for Beginners, 4.8), truncated where the module
    weights vanish.
    """

    state_type = State

    def monomial_weight(self, mono: tuple) -> Fraction:
        memo = self._weight_memo
        hit = memo.get(mono)
        if hit is None:
            hit = memo[mono] = sum((self.weight(m) for m in mono), Q(0))
        return hit

    def monomial_parity(self, mono: tuple) -> int:
        return sum(self.parity(g) for g, _ in mono) % 2

    def unit(self, base: str = VAC) -> State:
        s = self.state_type(base=base)
        s.add_term((), 1)
        return s

    def apply_mode(self, m: Mode, s: State) -> State:
        out = self.state_type(base=s.base)
        for mono, coeff in s.terms.items():
            out.add_scaled(self._insert(m, mono, s.base), coeff)
        return out

    def _insert(self, m: Mode, mono: tuple, base: str) -> tuple:
        """``m`` applied to a canonical monomial, as (monomial, coefficient) pairs."""
        key = (m, mono, base)
        memo = self._insert_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        lift = self.memo_type.lift
        if not mono:
            if self.is_creation(m, base):
                result = (((m,), lift(1)),)
            else:
                act = self.base_action(m, base)
                result = (((), act),) if act else ()
        elif self.is_creation(m, base) and self.mode_key(m) <= self.mode_key(mono[0]):
            if m == mono[0] and self.parity(m[0]):
                result = ()  # odd modes square to zero
            else:
                result = (((m,) + mono, lift(1)),)
        else:
            # m head rest = +-head (m rest) + [m, head] rest, from the memo.
            head, rest = mono[0], mono[1:]
            odd = self.parity(m[0]) and self.parity(head[0])
            total = self.memo_type(base=base)
            self._add_bracket(total, self.bracket(m, head), rest)
            for mono2, c2 in self._insert(m, rest, base):
                total.add_scaled(self._insert(head, mono2, base), -c2 if odd else c2)
            result = tuple(total.terms.items())
        memo[key] = result
        return result

    def _add_bracket(self, out: State, br: Bracket, mono: tuple, factor=None) -> None:
        """Add ``factor`` (1 when omitted) times ``br`` applied to the canonical
        monomial ``mono`` into ``out``.  The bracket's constants lie in the
        memo ring, ``factor`` in the ring of ``out``, which contains it.

        A (J^2)_p marker expands with the normal-ordered splitting
            (J^2)_p = sum_{j<=-1} J_j J_{p-j} + sum_{j>=0} J_{p-j} J_j,
        which the printed table requires; J_q kills the monomial for q above
        its weight (J modes have weight -index), so only j in [p - wt, wt] acts.
        """
        base = out.base
        if br.scalar:
            out.add_scaled(((mono, br.scalar),), factor)
        for md, coeff in br.linear:
            out.add_scaled(self._insert(md, mono, base), coeff if factor is None else coeff * factor)
        if br.j2:
            top = int(self.monomial_weight(mono))
            for p, coeff in br.j2:
                if factor is not None:
                    coeff = coeff * factor
                for j in range(p - top, top + 1):
                    inner, outer = ((J, p - j), (J, j)) if j < 0 else ((J, j), (J, p - j))
                    for mono2, c2 in self._insert(inner, mono, base):
                        out.add_scaled(self._insert(outer, mono2, base), coeff * c2)

    def apply_bracket(self, br: Bracket, s: State) -> State:
        """A bracket of this engine applied to ``s``, in the ring of ``s``."""
        out = type(s)(base=s.base)
        for mono, coeff in s.terms.items():
            self._add_bracket(out, br, mono, coeff)
        return out

    def normal_form(self, word, base: str = VAC, coeff=1) -> State:
        """Canonical state for a mode word applied right-to-left to the base."""
        s = self.unit(base).scaled(coeff)
        for m in reversed(list(word)):
            s = self.apply_mode(m, s)
        return s

    def _product(self, u: State, p: int, w: State) -> State:
        out = self.state_type(base=w.base)
        for umono, ucoeff in u.terms.items():
            for wmono, wcoeff in w.terms.items():
                out.add_scaled(self._mono_product(umono, p, wmono, w.base), ucoeff * wcoeff)
        return out

    def _mono_product(self, umono: tuple, p: int, wmono: tuple, base: str) -> tuple:
        """``umono_(p) wmono`` as (monomial, coefficient) pairs."""
        key = (umono, p, wmono, base)
        memo = self._action_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not umono:
            result = memo[key] = ((wmono, self.memo_type.lift(1)),) if p == -1 else ()
            return result
        head, rest = umono[0], umono[1:]
        gen, m = head[0], self.product_index(head)
        w_weight = self.monomial_weight(wmono)
        total = self.memo_type(base=base)
        # Head sum: a_(m-j) (rest_(p+j) w), the mode inserted into each
        # monomial of the inner product.  x_(n) w has weight
        # wt(x) + wt(w) - n - 1 and vanishes when that is negative.
        for j in range(_floor_sum(self.monomial_weight(rest), w_weight, -p)):
            coeff = (-1) ** j * binomial(m, j)
            if coeff:
                md = self.product_mode(gen, m - j)
                for mono2, c2 in self._mono_product(rest, p + j, wmono, base):
                    total.add_scaled(self._insert(md, mono2, base), coeff * c2)
        # Tail sum: rest_(m+p-j) (a_(j) w); a_(j) w has weight
        # weight(product_mode(gen, j)) + wt(w), one less for each step in j.
        koszul = -1 if self.parity(gen) and self.monomial_parity(rest) else 1
        tail_sign = koszul * (1 if m % 2 else -1)
        for j in range(_floor_sum(self.monomial_weight((self.product_mode(gen, 0),)), w_weight, 1)):
            coeff = (-1) ** j * binomial(m, j) * tail_sign
            if coeff:
                for mono2, c2 in self._insert(self.product_mode(gen, j), wmono, base):
                    total.add_scaled(self._mono_product(rest, m + p - j, mono2, base), coeff * c2)
        result = memo[key] = tuple(total.terms.items())
        return result


class BPAlgebra(ModeAlgebra):
    """The mode algebra at a fixed rational level, in one index convention."""

    def __init__(self, k, convention: str = BAR):
        if convention not in (OMEGA, BAR):
            raise ValueError(f"unknown convention {convention!r}")
        self.k = frac(k)
        if self.k == -3:
            raise ValueError("level -3 is excluded (the critical level)")
        self.convention = convention
        k = self.k
        self.heis_level = (2 * k + 3) / 3
        self.central_charge = -(3 * k + 1) * (2 * k + 3) / (k + 3)
        # The level constants of the printed table, by their names there.
        self._level_constants = {
            "1": Q(1), "lambda": self.heis_level, "c/12": self.central_charge / 12, "3(k+1)/2": Q(3, 2) * (k + 1),
            "-(k+3)": -(k + 3), "(k+1)(2k+3)/2": (k + 1) * (2 * k + 3) / 2,
        }
        self._insert_memo: dict = {}
        self._action_memo: dict = {}
        self._weight_memo: dict = {}
        self.memo_type = self.state_type
        self._bracket_memo: dict = {}
        self._forms: dict = {}

    # ------------------------------------------------------------------
    # Gradings
    # ------------------------------------------------------------------
    def weight(self, m: Mode) -> Fraction:
        """Shift of the convention's L(0)-eigenvalue produced by the mode."""
        gen, n = m
        if self.convention == BAR:
            return Q(-n)
        if gen in (GP, GM):
            return Q(1, 2) - n
        return Q(-n)

    @staticmethod
    def charge(m: Mode) -> int:
        return {J: 0, L: 0, GP: 1, GM: -1}[m[0]]

    def monomial_charge(self, mono: tuple) -> int:
        return sum(self.charge(m) for m in mono)

    def state_weight(self, s: State) -> Fraction:
        """Weight of a homogeneous state (error if mixed)."""
        weights = {self.monomial_weight(m) for m in s.terms}
        if len(weights) != 1:
            raise ValueError(f"state is not weight-homogeneous: {sorted(weights)}")
        return weights.pop()

    def state_charge(self, s: State) -> int:
        charges = {self.monomial_charge(m) for m in s.terms}
        if len(charges) != 1:
            raise ValueError(f"state is not charge-homogeneous: {sorted(charges)}")
        return charges.pop()

    # ------------------------------------------------------------------
    # Creation ranges / base actions
    # ------------------------------------------------------------------
    def creation_bound(self, gen: str, base: str) -> int:
        """Largest index n such that gen(n) is a creation mode on the base."""
        if base == VAC:
            return _VACUUM_CREATION_BOUND[self.convention][gen]
        if self.convention != BAR:
            raise ValueError("omega-convention engine only supports the vacuum base")
        return _HW_CREATION_BOUND[gen]

    def is_creation(self, m: Mode, base: str) -> bool:
        return m[1] <= self.creation_bound(m[0], base)

    mode_key = staticmethod(_mode_key)

    def base_action(self, m: Mode, base: str) -> Poly2:
        """Action of a non-creation mode on the bare base vector."""
        if base == VAC:
            return Poly2()
        if m == (J, 0):
            return Poly2.x()
        if m == (L, 0):
            return Poly2.y()
        return Poly2()  # annihilators, including G-(0)

    # ------------------------------------------------------------------
    # Brackets
    # ------------------------------------------------------------------
    def bracket(self, a: Mode, b: Mode) -> Bracket:
        """[a, b] with both modes (and the result) in this convention,
        evaluated from the pair's closed form in the ring of ``state_type``
        and memoized."""
        out = self._bracket_memo.get((a, b))
        if out is None:
            pair = (a[0], b[0])
            form = self._forms.get(pair)
            if form is None:
                form = self._forms[pair] = self._lift_form(pair)
            out = self._bracket_memo[(a, b)] = _evaluate(form, a[1], b[1], self.memo_type.lift)
        return out

    def _lift_form(self, pair: tuple) -> tuple:
        """The pair's closed form, each output's constants at this level
        lifted by the memo type's ``lift_constants``."""
        form = []
        for out, off, terms in closed_form(*pair, self.convention):
            nums, den = self.memo_type.lift_constants([self._level_constants[name] / d for _, (name, d) in terms])
            form.append((out, off, den, tuple(zip((poly for poly, _ in terms), nums))))
        return tuple(form)

    # ------------------------------------------------------------------
    # Left action and normal ordering
    # ------------------------------------------------------------------
    # The shared bodies, bound here as well: the benchmark tracer wraps
    # these layers through BPAlgebra.__dict__.
    apply_mode = ModeAlgebra.apply_mode
    normal_form = ModeAlgebra.normal_form

    def state_from_words(self, entries, base: str = VAC) -> State:
        """Sum of coeff * word(base) over (word, coeff) pairs."""
        out = self.state_type(base=base)
        for word, coeff in entries:
            out = out + self.normal_form(word, base=base, coeff=coeff)
        return out

    # ------------------------------------------------------------------
    # Convention conversion
    # ------------------------------------------------------------------
    def convert(self, s: State, target: "BPAlgebra") -> State:
        """Re-express a vacuum state in the target convention's PBW basis."""
        if s.base != VAC:
            raise ValueError("convention conversion is defined on vacuum states")
        if target.k != self.k:
            raise ValueError("conversion requires matching levels")
        if target.convention == self.convention:
            return s.copy()
        out = target.state_type(base=VAC)
        for mono, coeff in s.terms.items():
            for word, c in expand_word(mono, self.convention, target.convention, coeff):
                out = out + target.normal_form(word, coeff=c)
        return out

    # ------------------------------------------------------------------
    # Modes of composite states (hooks of the iterate recursion)
    # ------------------------------------------------------------------
    def parity(self, gen: str) -> int:
        """All four generators are even: no Koszul signs."""
        return 0

    def product_mode(self, gen: str, j: int) -> Mode:
        """The mode acting as the j-th product of the generator state.

        For the weight-one generators it is gen(j); for the weight-two
        generators it is gen(j-1).
        """
        if self.convention != BAR:
            raise ValueError("composite mode actions are implemented for the bar convention")
        return (gen, j - 1 if gen in (L, GM) else j)

    def product_index(self, m: Mode) -> int:
        return m[1] - self.product_mode(m[0], 0)[1]

    def state_product_action(self, u: State, p: int, w: State) -> State:
        """The p-th product mode of the vacuum state u, applied to w."""
        if u.base != VAC:
            raise ValueError("the acting state must live over the vacuum")
        # A named layer of the benchmark tracer, which wraps BPAlgebra.__dict__.
        return self._product(u, p, w)
