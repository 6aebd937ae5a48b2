"""Mode algebra of the Bershadsky-Polyakov vertex algebra at a fixed level.

Two index conventions are supported for the four generating fields J, L, G+,
G- and are written here as in the source algebra:

* ``omega`` -- modes taken with respect to the standard Virasoro vector
  (half-integer grading; G+- carry conformal weight 3/2).  The commutation
  table is encoded verbatim in :func:`BPAlgebra._bracket_omega`.
* ``bar`` -- modes with respect to the shifted Virasoro vector obtained by
  adding half the derivative of J (integer grading; G+ has weight 1 and G-
  weight 2).  Brackets in this convention are *derived* from the omega table
  through the mode substitution
      J(n) = J_n,  L(n) = L_n - (n+1)/2 J_n,  G+(n) = G+_n,  G-(n) = G-_{n+1},
  so the printed table remains the single source of truth.

States are finite Q[x,y]-linear combinations of canonical PBW monomials
applied to the vacuum or to a generic highest-weight vector v(x,y) with
(J(0), L(0)) eigenvalues (x, y).  The canonical monomial order puts the
generators in the order L < J < G+ < G- (the order used by the tables we
reproduce) with non-increasing mode indices inside each generator block.

:class:`State` is the one sparse combination type of the package and
:class:`ModeAlgebra` the one normal-ordering engine: it inserts a mode into a
canonical monomial by commuting it past the head, and computes modes of
composite states by the Borcherds iterate recursion.  :class:`BPAlgebra`
supplies the generators, the creation ranges and the brackets; the
free-field algebras plug into the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import math
import re

from .arith import Poly2, Q, binomial, frac

OMEGA = "omega"
BAR = "bar"
VAC = "vac"
HW = "hw"

J, L, GP, GM = "J", "L", "G+", "G-"
GENERATORS = (J, L, GP, GM)

# Canonical PBW generator order; within a generator indices are
# non-increasing left to right.  This matches the monomials of the golden
# tables verbatim (L-modes leftmost, then J, then G+, then G-).
_RANK = {L: 0, J: 1, GP: 2, GM: 3}

Mode = tuple  # (generator, index)

_MODE_RE = re.compile(r"^(J|L|G\+|G-)\((-?\d+)\)$")


def mode(gen: str, n: int) -> Mode:
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    return (gen, int(n))


def parse_mode(text: str) -> Mode:
    m = _MODE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse mode {text!r}")
    return (m.group(1), int(m.group(2)))


def mode_str(m: Mode) -> str:
    return f"{m[0]}({m[1]})"


def _mode_key(m: Mode):
    return (_RANK[m[0]], -m[1])


def substitute(m: Mode, source: str, target: str) -> list:
    """A ``source``-convention mode as (target mode, coefficient) pairs.

    The bar modes are L(n) = L_n - (n+1)/2 J_n and G-(n) = G-_{n+1} in terms
    of the omega modes; J and G+ agree.  This table is the only place the
    two gradings meet.
    """
    gen, n = m
    if source == target or gen in (J, GP):
        return [(m, Q(1))]
    sign = 1 if source == BAR else -1
    if gen == L:
        return [((L, n), Q(1)), ((J, n), -sign * Q(n + 1, 2))]
    return [((GM, n + sign), Q(1))]


def expand_word(word, source: str, target: str, coeff) -> list:
    """``coeff * word`` under :func:`substitute`, as (target word, coefficient) pairs."""
    words = [((), coeff)]
    for m in word:
        words = [(w + (md,), c * c2) for w, c in words for md, c2 in substitute(m, source, target)]
    return words


@dataclass
class Bracket:
    """Exact commutator [a, b] of two generator modes.

    ``j2`` holds unexpanded (J^2)_p markers as (p, coefficient) pairs; they
    are expanded with the normal-ordered splitting only when applied to a
    state, where finitely many terms survive.  ``linear`` lists (mode, coeff)
    and ``scalar`` is the central term with delta conditions already
    evaluated.
    """

    j2: list = field(default_factory=list)
    linear: list = field(default_factory=list)
    scalar: Fraction = Q(0)


class State:
    """Sparse combination of canonical PBW monomials over a base tag.

    Coefficients lie in ``ring`` (Q[x,y] here); ``lift`` maps scalars into
    it.  This is the one sparse combination type: the free-field states and
    the Smith words are subclasses that change the ring, the base or the
    display only, so generic code builds states with keyword arguments:
    ``type(s)(base=..., terms=...)``.  States are mutable (``add_term``) and
    therefore unhashable.
    """

    __slots__ = ("base", "terms")
    ring = Poly2
    lift = staticmethod(Poly2.const)

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
        if not coeff:
            return
        cur = self.terms.get(mono)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[mono] = new
        else:
            del self.terms[mono]

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
        if not isinstance(factor, self.ring):
            factor = self.lift(factor)
        out = type(self)(base=self.base)
        if not factor:
            return out
        for mono, coeff in self.terms.items():
            out.add_term(mono, coeff * factor)
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


class ModeAlgebra:
    """Normal ordering of modes, and modes of composite states.

    A subclass fixes the generators through these hooks:

    * ``is_creation(mode, base)`` -- whether the mode creates on the base;
    * ``mode_key(mode)`` -- the canonical PBW order of creation modes;
    * ``base_action(mode, base)`` -- the scalar by which a non-creation mode
      acts on the bare base vector;
    * ``commutator(mode, head, rest_state)`` -- the (super)commutator
      [mode, head] applied to ``rest_state``;
    * ``parity(gen)`` -- the Koszul sign of a swap; odd modes square to zero;
    * ``weight(mode)``, ``product_mode(gen, j)`` (the mode acting as the j-th
      product of the generator state) and its inverse ``product_index(mode)``
      for the iterate recursion.

    A subclass also sets ``state_type`` and creates the memo dicts
    ``_insert_memo`` and ``_action_memo``.  Their values are shared between
    results, so every method copies before it mutates.

    Modes of composite states follow the Borcherds iterate recursion: for a
    monomial a u with head generator a,
        (a_(m) u)_(p) = sum_j (-1)^j C(m, j) (a_(m-j) u_(p+j)
                        - (-1)^(m + |a||u|) u_(m+p-j) a_(j))
    (Kac, Vertex Algebras for Beginners, 4.8), truncated where the module
    weights vanish.
    """

    state_type = State

    def monomial_weight(self, mono: tuple) -> Fraction:
        return sum((self.weight(m) for m in mono), Q(0))

    def monomial_parity(self, mono: tuple) -> int:
        return sum(self.parity(g) for g, _ in mono) % 2

    def unit(self, base: str = VAC) -> State:
        s = self.state_type(base=base)
        s.add_term((), 1)
        return s

    def apply_mode(self, m: Mode, s: State) -> State:
        out = self.state_type(base=s.base)
        for mono, coeff in s.terms.items():
            for mono2, c2 in self._insert(m, mono, s.base).items():
                out.add_term(mono2, coeff * c2)
        return out

    def _insert(self, m: Mode, mono: tuple, base: str) -> dict:
        """``m`` applied to a canonical monomial, as {monomial: coefficient}."""
        key = (m, mono, base)
        memo = self._insert_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        lift = self.state_type.lift
        if not mono:
            if self.is_creation(m, base):
                result = {(m,): lift(1)}
            else:
                act = self.base_action(m, base)
                result = {(): act} if act else {}
        elif self.is_creation(m, base) and self.mode_key(m) <= self.mode_key(mono[0]):
            if m == mono[0] and self.parity(m[0]):
                result = {}  # odd modes square to zero
            else:
                result = {(m,) + mono: lift(1)}
        else:
            head, rest = mono[0], mono[1:]
            rest_state = self.state_type(base=base, terms={rest: lift(1)})
            swapped = self.apply_mode(head, self.apply_mode(m, rest_state))
            if self.parity(m[0]) and self.parity(head[0]):
                swapped = swapped.scaled(-1)
            total = swapped + self.commutator(m, head, rest_state)
            result = dict(total.terms)
        memo[key] = result
        return result

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
                part = self._mono_product(umono, p, wmono, w.base)
                out = out + part.scaled(ucoeff * wcoeff)
        return out

    def _mono_product(self, umono: tuple, p: int, wmono: tuple, base: str) -> State:
        key = (umono, p, wmono, base)
        memo = self._action_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        wstate = self.state_type(base=base)
        wstate.add_term(wmono, 1)
        if not umono:
            result = wstate if p == -1 else self.state_type(base=base)
            memo[key] = result
            return result
        head, rest = umono[0], umono[1:]
        gen, m = head[0], self.product_index(head)
        w_weight = self.monomial_weight(wmono)
        result = self.state_type(base=base)
        # Head sum: a_(m-j) (rest_(p+j) w).  x_(n) w has weight
        # wt(x) + wt(w) - n - 1 and vanishes when that is negative.
        for j in range(math.floor(self.monomial_weight(rest) + w_weight - p)):
            coeff = Q(-1) ** j * binomial(m, j)
            if coeff:
                inner = self._mono_product(rest, p + j, wmono, base)
                if not inner.is_zero():
                    result = result + self.apply_mode(self.product_mode(gen, m - j), inner).scaled(coeff)
        # Tail sum: rest_(m+p-j) (a_(j) w); a_(j) w has weight
        # weight(product_mode(gen, j)) + wt(w), one less for each step in j.
        koszul = -1 if self.parity(gen) and self.monomial_parity(rest) else 1
        tail_sign = koszul * (1 if m % 2 else -1)
        for j in range(math.floor(self.weight(self.product_mode(gen, 0)) + w_weight) + 1):
            coeff = Q(-1) ** j * binomial(m, j) * tail_sign
            if coeff:
                for mono2, c2 in self.apply_mode(self.product_mode(gen, j), wstate).terms.items():
                    part = self._mono_product(rest, m + p - j, mono2, base)
                    result = result + part.scaled(coeff * c2)
        memo[key] = result
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
        self.heis_level = (2 * self.k + 3) / 3
        self.central_charge = -(3 * self.k + 1) * (2 * self.k + 3) / (self.k + 3)
        self.central_charge_bar = -4 * (self.k + 1) * (2 * self.k + 3) / (self.k + 3)
        self._insert_memo: dict = {}
        self._action_memo: dict = {}

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
        if self.convention == BAR:
            if base == VAC:
                return {J: -1, L: -2, GP: -1, GM: -2}[gen]
            return {J: -1, L: -1, GP: 0, GM: -1}[gen]
        if base != VAC:
            raise ValueError("omega-convention engine only supports the vacuum base")
        return {J: -1, L: -2, GP: -1, GM: -1}[gen]

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
    def _bracket_omega(self, a: Mode, b: Mode) -> Bracket:
        """The commutation table of the generating fields, encoded verbatim.

        Indices: L_m carries the conformal (weight) index, J/G+- the n-th
        product index.  [L_m, L_n] is the Virasoro relation with central
        charge c_k; the remaining relations are the printed list.
        """
        (ga, m), (gb, n) = a, b
        k = self.k
        if ga == J and gb == J:
            return Bracket(scalar=self.heis_level * m if m + n == 0 else Q(0))
        if ga == J and gb in (GP, GM):
            sign = 1 if gb == GP else -1
            return Bracket(linear=[((gb, m + n), Q(sign))])
        if ga == L and gb == J:
            return Bracket(linear=[((J, m + n), Q(-n))])
        if ga == L and gb == L:
            out = Bracket(linear=[((L, m + n), Q(m - n))])
            if m + n == 0:
                out.scalar = self.central_charge * (m**3 - m) / 12
            return out
        if ga == L and gb in (GP, GM):
            return Bracket(linear=[((gb, m + n), Q(m, 2) - n + Q(1, 2))])
        if ga == GP and gb == GM:
            out = Bracket(j2=[(m + n - 1, Q(3))])
            out.linear = [
                ((J, m + n - 1), Q(3, 2) * (k + 1) * (m - n)),
                ((L, m + n - 1), -(k + 3)),
            ]
            if m + n == 1:
                out.scalar = (k + 1) * (2 * k + 3) * (m - 1) * m / 2
            return out
        if ga == gb and ga in (GP, GM):
            return Bracket()
        # Remaining cases by antisymmetry.
        flipped = self._bracket_omega(b, a)
        return Bracket(
            j2=[(p, -c) for p, c in flipped.j2],
            linear=[(md, -c) for md, c in flipped.linear],
            scalar=-flipped.scalar,
        )

    def bracket(self, a: Mode, b: Mode) -> Bracket:
        """[a, b] with both modes (and the result) in this convention."""
        if self.convention == OMEGA:
            return self._bracket_omega(a, b)
        out = Bracket()
        linear_acc: dict[Mode, Fraction] = {}
        j2_acc: dict[int, Fraction] = {}
        scalar = Q(0)
        for ma, ca in substitute(a, BAR, OMEGA):
            for mb, cb in substitute(b, BAR, OMEGA):
                piece = self._bracket_omega(ma, mb)
                cc = ca * cb
                scalar += cc * piece.scalar
                for p, coeff in piece.j2:
                    j2_acc[p] = j2_acc.get(p, Q(0)) + cc * coeff
                for md, coeff in piece.linear:
                    for md2, c2 in substitute(md, OMEGA, BAR):
                        linear_acc[md2] = linear_acc.get(md2, Q(0)) + cc * coeff * c2
        out.scalar = scalar
        out.j2 = sorted(((p, c) for p, c in j2_acc.items() if c), key=lambda t: t[0])
        out.linear = sorted(
            ((md, c) for md, c in linear_acc.items() if c), key=lambda t: _mode_key(t[0])
        )
        return out

    # ------------------------------------------------------------------
    # Left action and normal ordering
    # ------------------------------------------------------------------
    # The shared bodies, bound here as well: the benchmark tracer wraps
    # these layers through BPAlgebra.__dict__.
    apply_mode = ModeAlgebra.apply_mode
    normal_form = ModeAlgebra.normal_form

    def commutator(self, m: Mode, head: Mode, rest_state: State) -> State:
        return self.apply_bracket(self.bracket(m, head), rest_state)

    def apply_bracket(self, br: Bracket, s: State, act=None) -> State:
        """Apply a bracket result to s, each mode acting through ``act``
        (default :meth:`apply_mode`)."""
        act = act or self.apply_mode
        out = s.scaled(br.scalar) if br.scalar else State(s.base)
        for md, coeff in br.linear:
            out = out + act(md, s).scaled(coeff)
        for p, coeff in br.j2:
            out = out + self.apply_j2(p, s, act).scaled(coeff)
        return out

    def apply_j2(self, p: int, s: State, act=None) -> State:
        """(J^2)_p s with the normal-ordered splitting.

        (J^2)_p = sum_{j<=-1} J_j J_{p-j} + sum_{j>=0} J_{p-j} J_j, truncated
        to the finitely many terms that act nonzero on s.  This exact
        splitting is required to reproduce the printed bracket table.  J
        modes have weight -index in either convention, so J_q kills s for q
        above its top weight; the spectral flow changes J only at J_0, so the
        same window serves an ``act`` that applies flowed modes.
        """
        act = act or self.apply_mode
        out = State(s.base)
        if s.is_zero():
            return out
        maxw = int(max(self.monomial_weight(m) for m in s.terms))
        for j in range(p - maxw, 0):
            out = out + act((J, j), act((J, p - j), s))
        for j in range(0, maxw + 1):
            out = out + act((J, p - j), act((J, j), s))
        return out

    def state_from_words(self, entries, base: str = VAC) -> State:
        """Sum of coeff * word(base) over (word, coeff) pairs."""
        out = State(base)
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
        out = State(VAC)
        for mono, coeff in s.terms.items():
            for word, c in expand_word(mono, self.convention, target.convention, coeff):
                out = out + target.normal_form(word, coeff=c)
        return out

    # ------------------------------------------------------------------
    # Spectral flow
    # ------------------------------------------------------------------
    def spectral_flow_mode(self, m: Mode):
        """The mode substitution of the spectral-flow twist (bar convention).

        Returns (list of (mode, coeff), scalar).
        """
        if self.convention != BAR:
            raise ValueError("spectral flow is defined on the integer-graded convention")
        gen, n = m
        lam = self.heis_level
        if gen == J:
            return [((J, n), Q(1))], (-lam if n == 0 else Q(0))
        if gen == L:
            return [((L, n), Q(1)), ((J, n), Q(-1))], (lam if n == 0 else Q(0))
        if gen == GP:
            return [((GP, n - 1), Q(1))], Q(0)
        return [((GM, n + 1), Q(1))], Q(0)

    def apply_spectral_flow_op(self, m: Mode, s: State) -> State:
        combo, scalar = self.spectral_flow_mode(m)
        return self.apply_bracket(Bracket(linear=combo, scalar=scalar), s)

    def apply_spectral_flow_bracket(self, br: Bracket, s: State) -> State:
        """Apply the spectral-flow image of a bracket result to a state."""
        return self.apply_bracket(br, s, self.apply_spectral_flow_op)

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


def level_pair(k) -> tuple[BPAlgebra, BPAlgebra]:
    """Convenience constructor: (omega engine, bar engine) at level k."""
    return BPAlgebra(k, OMEGA), BPAlgebra(k, BAR)
