import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from bpalgebra import arith, singular
from bpalgebra.arith import (
    _PRIME,
    _echelon,
    _is_prime,
    _primes,
    NotInvertibleModP,
    POLY_X,
    POLY_Y,
    Poly2,
    _quotient,
    binomial,
    frac,
    kernel_basis,
    rank_mod_p,
    rational_roots,
    residue,
    resultant,
)
from bpalgebra.modes import BAR, OMEGA, VAC
from bpalgebra.weightspace import enumerate_basis

from helpers import (
    ReferencePoly1,
    ReferencePoly2,
    as_reference_poly1,
    falling_binomial,
    poly_in,
    projection_filter,
    reference_kernel_basis,
    reference_rational_roots,
    reference_resultant,
)


def _swap(p: Poly2) -> Poly2:
    """p with x and y exchanged: a polynomial in x written in y."""
    return p.subst(POLY_Y, POLY_X)


def test_frac_parsing():
    assert frac("-5/3") == Q(-5, 3)
    assert frac("4") == 4
    assert frac(Q(1, 2)) == Q(1, 2)
    with pytest.raises(TypeError):
        frac(0.5)


def test_binomial_values():
    assert binomial(4, 3) == 4
    assert binomial(7, 0) == 1
    assert binomial(1, 3) == 0  # the vanishing upper-argument case
    assert binomial(Q(1, 2), 2) == Q(-1, 8)
    n = POLY_X
    assert binomial(n, 0) == Poly2.const(1)
    # n(n-1)(n-2)/6
    assert binomial(n, 3) == (n * (n - 1) * (n - 2)) * Q(1, 6)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_binomial_int_upper_argument_matches_the_definition():
    for n in range(-15, 16):
        for j in range(13):
            got = binomial(n, j)
            assert type(got) is int, (n, j)
            assert got == falling_binomial(n, j), (n, j)
            # A Fraction upper argument keeps the loop, and gives a Fraction.
            assert binomial(Q(n), j) == got and isinstance(binomial(Q(n), j), Q)


def _model(p):
    """A Poly2 or scalar as an independent {(i, j): Fraction} model."""
    if isinstance(p, Poly2):
        return dict(p.terms_sorted())
    return {(0, 0): Q(p)} if p else {}


def _model_add(a, b, sign=1):
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, Q(0)) + sign * val
    return {key: val for key, val in out.items() if val}


def _model_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Q(0)) + v1 * v2
    return {key: val for key, val in out.items() if val}


def _model_pow(a, exp):
    out = {(0, 0): Q(1)}
    for _ in range(exp):
        out = _model_mul(out, a)
    return out


def _poly2_operands(rng, cls=Poly2):
    """Random polynomials, with the zero and constant cases and cancelling
    pairs, built as ``cls``: two calls on equal seeds give the same
    polynomials as Poly2 and as ReferencePoly2."""
    def rand_poly():
        return cls({(rng.randint(0, 3), rng.randint(0, 2)): Q(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 5))})

    x, y = cls({(1, 0): 1}), cls({(0, 1): 1})
    polys = [cls(), cls.const(1), cls.const(Q(-2, 3)), x, x - y]
    for _ in range(30):
        p = rand_poly()
        polys += [p, -p, p + rand_poly()]
    scalars = [0, 1, -3, Q(0), Q(5, 2), Q(-1, 7)]
    return polys, scalars


def _assert_canonical(p):
    """Integer numerators, none 0, over a positive denominator coprime to
    all of them; the zero polynomial has denominator 1."""
    num, den = p.numerators()
    assert type(den) is int and den > 0, (num, den)
    assert all(type(v) is int and v for v in num.values()), (num, den)
    assert math.gcd(den, *num.values()) == 1, (num, den)


def _check_poly2_result(result, want, *operands):
    assert isinstance(result, Poly2)
    _assert_canonical(result)
    assert dict(result.terms_sorted()) == want
    assert all(type(v) is Q for _, v in result.terms_sorted())
    for op in operands:
        if isinstance(op, Poly2):
            # A result never shares an operand's dict: Poly2s are memo values.
            assert result is not op and result._num is not op._num


def test_poly2_ring_ops_match_a_dict_model():
    """+, -, *, ** and const against a dict-of-Fraction model written here."""
    rng = random.Random(22)
    polys, scalars = _poly2_operands(rng)
    for v in scalars + ["-5/3"]:
        _check_poly2_result(Poly2.const(v), _model(frac(v)))
    pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(300)]
    pairs += [(p, p) for p in polys] + [(p, -p) for p in polys]
    pairs += [(p, s) for p in polys[:20] for s in scalars] + [(s, p) for p in polys[:20] for s in scalars]
    for a, b in pairs:
        snapshot = (_model(a), _model(b))
        ma, mb = snapshot
        _check_poly2_result(a + b, _model_add(ma, mb), a, b)
        _check_poly2_result(a - b, _model_add(ma, mb, -1), a, b)
        _check_poly2_result(a * b, _model_mul(ma, mb), a, b)
        assert (_model(a), _model(b)) == snapshot  # the operands are unchanged
    for p in polys:
        _check_poly2_result(-p, {key: -val for key, val in _model(p).items()}, p)
        _check_poly2_result(p - p, {}, p)
        for exp in range(4):
            _check_poly2_result(p**exp, _model_pow(_model(p), exp), p)


def test_poly2_ring_ops_match_sympy():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def to_sympy(p):
        if not isinstance(p, Poly2):
            p = Poly2.const(p)
        return sum((sympy.Rational(v.numerator, v.denominator) * x**i * y**j for (i, j), v in p.terms_sorted()),
                   sympy.Integer(0))

    rng = random.Random(5)
    polys, scalars = _poly2_operands(rng)
    operands = polys + scalars
    for _ in range(120):
        a, b = rng.choice(operands), rng.choice(polys)
        if rng.random() < 0.5:
            a, b = b, a
        sa, sb = to_sympy(a), to_sympy(b)
        assert sympy.expand(to_sympy(a + b) - (sa + sb)) == 0
        assert sympy.expand(to_sympy(a - b) - (sa - sb)) == 0
        assert sympy.expand(to_sympy(a * b) - sa * sb) == 0
    for p in polys[:20]:
        assert sympy.expand(to_sympy(p**3) - to_sympy(p) ** 3) == 0


def test_poly2_ring_axioms_randomized():
    rng = random.Random(7)

    def rand_poly():
        p = Poly2()
        for _ in range(rng.randint(1, 4)):
            p = p + Poly2({(rng.randint(0, 3), rng.randint(0, 3)): Q(rng.randint(-5, 5))})
        return p

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_poly2_display_graded_lex():
    p = -18 * POLY_X**4 + 46 * POLY_X**2 * POLY_Y - Q(1, 2) * POLY_X**2
    assert str(p) == "-18*x^4 + 46*x^2*y - 1/2*x^2"


def test_poly2_subst_and_eval():
    p = POLY_X**2 - POLY_Y
    assert p.eval(3, 2) == 7
    q = p.subst(POLY_X + 1, POLY_Y - POLY_X)
    assert q.eval(2, 5) == (2 + 1) ** 2 - (5 - 2)
    assert p.subst(Poly2.const(3), POLY_Y) == poly_in([9, -1], "y")
    assert p.subst(POLY_X, Poly2.const(Q(1, 2))) == poly_in([Q(-1, 2), 0, 1])
    r = 2 * POLY_X * POLY_Y**2 + POLY_Y
    for xv, yv in ((0, 0), (Q(-1, 3), 2), (5, Q(7, 4))):
        at_x, at_y = r.subst(Poly2.const(xv), POLY_Y), r.subst(POLY_X, Poly2.const(yv))
        assert at_x.eval(0, yv) == r.eval(xv, yv) == at_y.eval(xv, 0)


def test_poly2_subst_matches_the_term_by_term_definition():
    """subst(px, py) == sum(val * px**i * py**j) over the terms, on random
    polynomials of degree up to 4 (zero, constants, fractional and negative
    coefficients) and substitutes of degree up to 2; x -> x, y -> y is the
    identity."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)

    def polys(max_degree):
        keys = st.integers(0, max_degree).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, max_degree - i)))
        return st.one_of(st.builds(Poly2.const, coeffs), st.dictionaries(keys, coeffs, max_size=6).map(Poly2))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polys(4), polys(2), polys(2))
    def check(p, px, py):
        snapshot = (_model(p), _model(px), _model(py))
        want = sum((val * px**i * py**j for (i, j), val in p.terms_sorted()), Poly2())
        _check_poly2_result(p.subst(px, py), _model(want), p, px, py)
        assert (_model(p), _model(px), _model(py)) == snapshot  # the operands are unchanged
        assert p.subst(POLY_X, POLY_Y) == p

    check()


def test_poly2_json_roundtrip():
    p = POLY_X**3 - Q(3, 2) * POLY_X * POLY_Y - Q(5, 8) * POLY_X
    assert Poly2.from_json(p.to_json()) == p


def _same_as_reference(p, ref, *operands):
    """A Poly2 result is canonical, shares no operand's dict, and is the
    ReferencePoly2 result, shown the same way."""
    _check_poly2_result(p, ref.c, *operands)
    assert str(p) == str(ref) and p.to_json() == ref.to_json()
    again = Poly2.from_json(p.to_json())
    assert again == p and hash(again) == hash(p)


def _check_against_reference(polys, refs, triples, scalars, points):
    """Every Poly2 operation on ``polys`` against the same operation on the
    matching ReferencePoly2s; the binary operations and subst on the index
    ``triples``."""
    for p, r in zip(polys, refs):
        _same_as_reference(p, r)
    for i, j, k in triples:
        (a, b, c), (ra, rb, rc) = (polys[i], polys[j], polys[k]), (refs[i], refs[j], refs[k])
        _same_as_reference(a + b, ra + rb, a, b)
        _same_as_reference(a - b, ra - rb, a, b)
        _same_as_reference(a * b, ra * rb, a, b)
        _same_as_reference(a.subst(b, c), ra.subst(rb, rc), a, b, c)
        assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
        if a == b:
            assert hash(a) == hash(b)
    for p, r in zip(polys, refs):
        _same_as_reference(-p, -r, p)
        for exp in range(4):
            _same_as_reference(p**exp, r**exp, p)
        for v in scalars:
            _same_as_reference(p + v, r + v, p)
            _same_as_reference(v - p, v - r, p)
            _same_as_reference(p * v, r * v, p)
            _same_as_reference(v * p, v * r, p)
            assert (p == v) == (r == v)
        for xv, yv in points:
            value = p.eval(xv, yv)
            assert type(value) is Q and value == r.eval(xv, yv), (p, xv, yv)
        for v, _ in points:
            # Fixing one variable, as the classifier does.
            ref_x, ref_y = ReferencePoly2({(1, 0): 1}), ReferencePoly2({(0, 1): 1})
            _same_as_reference(p.subst(Poly2.const(v), POLY_Y), r.subst(ReferencePoly2.const(v), ref_y), p)
            _same_as_reference(p.subst(POLY_X, Poly2.const(v)), r.subst(ref_x, ReferencePoly2.const(v)), p)
        for var in ("x", "y"):
            for power in range(4):
                _same_as_reference(p.coeff_of(var, power), r.coeff_of(var, power), p)
        assert p.is_const() == r.is_const()
        if p.is_const():
            assert type(p.const_value()) is Q and p.const_value() == r.const_value()
            assert hash(p) == hash(p.const_value())


def test_poly2_matches_the_fraction_reference():
    """Fraction-free Poly2 against the dict-of-Fraction class it replaced, on
    the shared operand generator: ring operations, subst (with a constant
    substitute too), eval, coeff_of, display, JSON, == and hash."""
    polys, scalars = _poly2_operands(random.Random(29))
    refs, _ = _poly2_operands(random.Random(29), ReferencePoly2)
    points = [(0, 0), (1, -1), (Q(-1, 3), 2), (Q(5, 2), Q(-7, 4)), ("-5/3", Q(2, 9))]
    rng, idx = random.Random(30), range(len(polys))
    triples = [(rng.choice(idx), rng.choice(idx), rng.choice(idx)) for _ in range(200)] + [(i, i, i) for i in idx]
    _check_against_reference(polys, refs, triples, scalars, points)


def test_poly2_matches_the_fraction_reference_on_hypothesis_examples():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    specs = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=5)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(specs, min_size=3, max_size=3), st.lists(coeffs, min_size=2, max_size=2))
    def check(spec_list, values):
        polys = [Poly2(spec) for spec in spec_list]
        refs = [ReferencePoly2(spec) for spec in spec_list]
        _check_against_reference(polys, refs, [(0, 1, 2), (2, 0, 1)], values, [tuple(values)])

    check()


def test_poly2_hash_agrees_with_eq():
    """A constant equals its value and hashes as it; a non-number is unequal."""
    three = Poly2.const(3)
    assert three == 3 and hash(three) == hash(3)
    assert {3: "found"}.get(three) == "found"
    assert {Q(-5, 3): "found"}.get(Poly2.const("-5/3")) == "found"
    assert Poly2() == 0 and hash(Poly2()) == hash(0)
    assert (three == "abc") is False and (three != "abc") is True
    assert (three == "3") is False and (POLY_X == "x") is False
    p, q = (POLY_X + Q(1, 2)) * 2 - 1, POLY_Y * 0 + 2 * POLY_X
    assert p == q and hash(p) == hash(q)


def test_poly2_const_value_is_a_fraction():
    for p in (Poly2.const(3), Poly2(), Poly2.const(Q(6, 2)), (POLY_X + 3) - POLY_X, Poly2.const(Q(-5, 3)) * 3):
        value = p.const_value()
        assert type(value) is Q, (p, value)
        if value:
            assert type(1 / value) is Q


def test_poly2_rejects_floats():
    p = POLY_X + Q(1, 2)
    operations = (
        lambda: p + 0.5, lambda: 0.5 + p, lambda: p - 0.5, lambda: 0.5 - p, lambda: p * 0.5, lambda: 0.5 * p,
        lambda: Poly2.const(0.5), lambda: Poly2({(0, 0): 0.5}), lambda: p.eval(0.5, 1),
        lambda: p.subst(Poly2.const(0.5), POLY_Y), lambda: p.subst(0.5, POLY_Y),
    )
    for operation in operations:
        with pytest.raises(TypeError):
            operation()


def test_exact_quotient():
    p = poly_in([-1, 0, 1])  # x^2 - 1
    assert _quotient(p, poly_in([-1, 1]), 0) == poly_in([1, 1])
    assert _quotient(_swap(p), poly_in([-1, 1], "y"), 1) == poly_in([1, 1], "y")
    assert _quotient(p * Q(2, 3), poly_in([-3, 3]) * Q(1, 5), 0) == poly_in([Q(10, 9), Q(10, 9)])  # content 3
    assert _quotient(p, poly_in([2, 1]), 0) is None  # a nonzero remainder
    assert _quotient(p, poly_in([0, 2, 3]), 0) is None  # an inexact integer step
    assert _quotient(Poly2(), p, 0) == Poly2()
    with pytest.raises(ZeroDivisionError):
        _quotient(p, Poly2(), 0)


def test_rational_roots_simple():
    roots, cof = rational_roots(poly_in([-1, 0, 1]))
    assert roots == {Q(1): 1, Q(-1): 1}
    assert cof.is_const()
    roots, cof = rational_roots(poly_in([1, 0, 1]))  # x^2 + 1
    assert roots == {}
    assert cof == poly_in([1, 0, 1])
    with pytest.raises(ValueError):
        rational_roots(poly_in([]))


def test_rational_roots_rejects_zero_and_two_variables():
    """A polynomial in both x and y is refused, not read as univariate in one."""
    for p in (Poly2(), POLY_X * POLY_Y, POLY_X + POLY_Y, POLY_X**2 - 1 + POLY_Y, poly_in([1, 2]) * (POLY_Y - 3)):
        with pytest.raises(ValueError):
            rational_roots(p)


def test_rational_roots_agree_in_x_and_in_y():
    """The same polynomial written in x and in y has the same roots in the
    same order, the same multiplicities, and the same cofactor, written in
    the same variable as the input."""
    polys = _random_root_polys(random.Random(31), 120) + [poly_in([0, 0, 3]), poly_in([Q(5, 7)]), poly_in([Q(1, 9), 0, -1])]
    for p in polys:
        roots, cofactor = rational_roots(p)
        roots_y, cofactor_y = rational_roots(_swap(p))
        assert list(roots_y.items()) == list(roots.items()), p
        assert cofactor_y == _swap(cofactor) and cofactor_y.degree_in("x") == 0, p


def test_rational_roots_multiplicity_and_resubstitution():
    # (x - 1/3)^2 (2x + 5)
    p = poly_in([Q(1, 3) * Q(1, 3) * 5, Q(-10, 3) + Q(1, 9) * 2, Q(2) * Q(-2, 3) + 5, 2])
    p = poly_in([-1, 1]) * poly_in([-1, 1]) * poly_in([5, 2]) * Q(1, 3)
    roots, cof = rational_roots(p)
    assert roots == {Q(1): 2, Q(-5, 2): 1}
    assert cof.is_const()
    for r, mult in roots.items():
        assert p.eval(r, 0) == 0


def test_rational_roots_boundary_quartic():
    """The quartic cutting out the boundary-line weights at level -5/3."""
    filt = projection_filter(Q(-5, 3))
    quartic = filt.subst(POLY_X, Poly2.const(Q(-1, 9)))
    roots, cof = rational_roots(quartic)
    assert set(roots) == {Q(1, 9), Q(4, 9), Q(7, 9), Q(-1, 18)}
    assert cof.is_const()


def _random_root_polys(rng: random.Random, count: int) -> list:
    """Polynomials with planted rational roots (repeated, zero, negative) and
    a random cofactor, over Q with mixed denominators."""
    polys = []
    for _ in range(count):
        p = poly_in([Q(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))])
        for _ in range(rng.randint(0, 5)):
            root = Q(rng.randint(-9, 9), rng.randint(1, 8))
            p = p * poly_in([-root, 1])
        rest = poly_in([Q(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))])
        if rest:
            p = p * rest
        polys.append(p)
    return polys


def test_rational_roots_match_the_fraction_horner_reference():
    """The integer root test and deflation find the roots, in the order and
    with the multiplicities and cofactor of the Fraction Horner search on
    the dense Fraction polynomial, for polynomials in x and in y."""
    rng = random.Random(27)
    polys = _random_root_polys(rng, 300) + [projection_filter(Q(-5, 3)).subst(POLY_X, Poly2.const(Q(-1, 9)))]
    polys += [poly_in([0, 0, 3]), poly_in([Q(5, 7)]), poly_in([-1, 0, 0, 1]), poly_in([Q(1, 9), 0, -1])]
    found = 0
    for p in polys + [_swap(p) for p in polys[::3]]:
        roots, cofactor = rational_roots(p)
        want_roots, want_cofactor = reference_rational_roots(as_reference_poly1(p))
        assert list(roots.items()) == list(want_roots.items()), p
        got = as_reference_poly1(cofactor, want_cofactor.var)
        assert got == want_cofactor and str(cofactor) == str(want_cofactor), p
        found += len(roots)
    assert found >= 400


def test_exact_quotient_matches_the_fraction_divmod_reference():
    """Exact division on integer numerators against Fraction long division:
    the quotient when the remainder is zero, None otherwise, in x and in y."""
    rng = random.Random(32)

    def rand(deg):
        return poly_in([Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)])

    exact = inexact = 0
    for _ in range(400):
        b = rand(rng.randint(0, 3))
        if not b:
            continue
        a = b * rand(rng.randint(0, 3)) if rng.random() < 0.5 else rand(rng.randint(0, 5))
        want, rem = as_reference_poly1(a).divmod_exact(as_reference_poly1(b))
        for got, var in ((_quotient(a, b, 0), "x"), (_quotient(_swap(a), _swap(b), 1), "y")):
            if rem.is_zero():
                assert got is not None and as_reference_poly1(got, var) == want, (a, b)
                assert str(got) == str(ReferencePoly1(want.a, var)), (a, b)
            else:
                assert got is None, (a, b)
        exact, inexact = exact + rem.is_zero(), inexact + (not rem.is_zero())
    assert exact >= 150 and inexact >= 100


def test_univariate_display_matches_the_reference():
    """A polynomial in x shows as the dense Fraction polynomial did, with x
    renamed by ``format(x=...)``; one in y shows in y."""
    rng = random.Random(33)
    polys = [poly_in([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 6))]) for _ in range(300)]
    polys += _random_root_polys(rng, 50) + [poly_in([0, -1]), poly_in([1, 0, -1]), poly_in([Q(-1, 2), 1])]
    for p in polys:
        for name in ("x", "i", "r"):
            assert p.format(x=name) == str(as_reference_poly1(p, name)), p
        assert str(_swap(p)) == str(as_reference_poly1(_swap(p))) == str(as_reference_poly1(p, "y")), p


def test_rational_roots_match_sympy_on_random_polynomials():
    """An independent oracle for the integer root test: sympy's rational roots."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("x")
    for p in _random_root_polys(random.Random(28), 120):
        expr = sum(sympy.Rational(v.numerator, v.denominator) * t**i for (i, _), v in p.terms_sorted())
        roots, cofactor = rational_roots(p)
        assert roots == _sympy_linear_roots(sympy, expr, t), p
        assert cofactor.degree() == p.degree() - sum(roots.values())


def test_resultant_conventions():
    # Sylvester with the first polynomial's rows on top:
    # res_x(x - y, x + y) = det [[1, -y], [1, y]] = 2y.
    res = resultant(POLY_X - POLY_Y, POLY_X + POLY_Y, "x")
    assert res == poly_in([0, 2], "y")
    assert not resultant(POLY_X - POLY_Y, POLY_X - POLY_Y, "x")
    with pytest.raises(ValueError):
        resultant(Poly2.const(3), Poly2.const(4), "x")


def test_resultant_classification_pair():
    # Eliminating y from the first dim-1 system leaves the root x = -1/9.
    p = -3 * POLY_X**2 - Q(1, 3) * POLY_X + Q(4, 3) * POLY_Y
    q = -3 * POLY_X**2 - Q(7, 3) * POLY_X + Q(4, 3) * POLY_Y - Q(2, 9)
    res = resultant(p, q, "y")
    roots, cof = rational_roots(res)
    assert roots == {Q(-1, 9): 1}
    assert cof.is_const()


def test_resultant_matches_the_fraction_bareiss_reference():
    """Bareiss on integer numerators against the Fraction Bareiss on dense
    polynomials, eliminating x and eliminating y: row swaps, a vanishing
    resultant, and random pairs of degree up to 3."""
    rng = random.Random(34)

    def rand():
        deg = rng.randint(1, 3)
        return Poly2({(i, j): Q(rng.randint(-3, 3), rng.randint(1, 3))
                      for i in range(deg + 1) for j in range(deg + 1 - i) if rng.random() < 0.7})

    x, y = POLY_X, POLY_Y
    cases = [(x**3 + y, x**2 + x * y), (x**2 * y + x + 1, x * y + 1), (x**2 - y, x**2 - y), (x - y, x + y)]
    cases += [(rand(), rand()) for _ in range(80)]
    checked = zero = 0
    for p, q in cases:
        for var, keep in (("x", "y"), ("y", "x")):
            if not p or not q or p.degree_in(var) == q.degree_in(var) == 0:
                continue
            ours, want = resultant(p, q, var), reference_resultant(p, q, var)
            assert ours.degree_in(var) == 0, (p, q, var)
            assert as_reference_poly1(ours, keep) == want and str(ours) == str(want), (p, q, var)
            checked, zero = checked + 1, zero + (not ours)
    assert checked >= 140 and zero >= 2


def test_kernel_basis():
    rows = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def _reference_kernel(rows, ncols):
    """Dense Gauss-Jordan over Q on every row: the kernel before the rank certificate."""
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
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Q(0)] * ncols
        vec[fc] = Q(1)
        for pc, pr in pivots.items():
            vec[pc] = -m[pr][fc]
        basis.append(vec)
    return basis


def _random_sparse_matrix(rng):
    """A sparse rational matrix of varied shape, with entries that are multiples of p."""
    nrows, ncols = rng.choice([(rng.randint(0, 14), rng.randint(0, 8)), (rng.randint(0, 6), rng.randint(0, 12))])

    def entry():
        kind = rng.random()
        if kind < 0.1:
            return Q(_PRIME * rng.randint(-2, 2), rng.randint(1, 3))  # 0 mod p
        if kind < 0.2:
            return Q(rng.randint(-4, 4), _PRIME * rng.randint(1, 2))  # denominator divisible by p
        return Q(rng.randint(-6, 6), rng.randint(1, 5))

    rows = [[entry() if rng.random() < 0.35 else Q(0) for _ in range(ncols)] for _ in range(nrows)]
    if ncols and rng.random() < 0.3:  # a column that vanishes mod p
        col = rng.randrange(ncols)
        for row in rows:
            row[col] *= _PRIME
    if rows:
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("zero", "duplicate", "sum"))
            if kind == "zero":
                new = [Q(0)] * ncols
            elif kind == "duplicate":
                new = rng.choice(rows)[:]
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                new = [x + rng.randint(-2, 2) * y for x, y in zip(a, b)]
            rows.insert(rng.randint(0, len(rows)), new)
    return rows, ncols


def test_gfp_lift_is_a_ring_homomorphism():
    """The residue map Z_(p) -> GF(p) on int residues in [0, p): +, *, negation
    and the zero test commute with it, and a denominator divisible by p is refused."""
    rng = random.Random(61)
    values = [Q(rng.randint(-10**20, 10**20), rng.randint(1, 10**20)) for _ in range(200)] + [Q(0), Q(_PRIME, 7)]
    for a, b in zip(values, reversed(values)):
        ra, rb = residue(a), residue(b)
        assert type(ra) is int and 0 <= ra < _PRIME
        assert (ra + rb) % _PRIME == residue(a + b)
        assert ra * rb % _PRIME == residue(a * b)
        assert -ra % _PRIME == residue(-a)
        assert bool(ra) == bool(a.numerator % _PRIME)
    assert residue(-1) == _PRIME - 1 and residue(_PRIME) == 0
    assert residue(Q(1, 2)) * residue(2) % _PRIME == residue(1) == 1
    for bad in (Q(1, _PRIME), Q(-3, 2 * _PRIME)):
        with pytest.raises(NotInvertibleModP):
            residue(bad)


def test_kernel_basis_matches_reference_on_random_matrices():
    rng = random.Random(20191031)
    cases = [([], 0), ([], 4), ([[]], 0), ([[], []], 0), ([[Q(_PRIME)]], 1), ([[Q(1, _PRIME), Q(1)]], 2)]
    cases += [_random_sparse_matrix(rng) for _ in range(100 - len(cases))]
    shapes = {"tall": 0, "wide": 0}
    for rows, ncols in cases:
        want = _reference_kernel(rows, ncols)
        assert kernel_basis(rows, ncols) == want == reference_kernel_basis(rows, ncols), (rows, ncols)
        if rows and ncols:
            shapes["tall" if len(rows) > ncols else "wide"] += 1
    assert min(shapes.values()) >= 20, shapes


def test_kernel_basis_matches_reference_on_ladder_matrices():
    # The ladder's exact systems, built directly: find_singular itself hands
    # only the rank-deficient w = 4 systems to kernel_basis.
    matrices = []
    for grading in (BAR, OMEGA):
        algebra = singular._ScalarAlgebra(Q(-5, 3), grading)
        ann = singular.AnnihilatorSet.default(grading)
        for weight in (4, 5, 6, 7):
            monomials = enumerate_basis(algebra, VAC, weight, 0).monomials
            rows = singular.annihilator_rows(algebra, monomials, ann)
            assert all(row and all(type(v) is Q and v for v in row.values()) for row in rows)
            matrices.append(([[row.get(c, Q(0)) for c in range(len(monomials))] for row in rows], len(monomials)))
    assert len(matrices) == 8
    for rows, ncols in matrices:
        assert kernel_basis(rows, ncols) == _reference_kernel(rows, ncols)


def _low_rank_matrix(rng):
    """A rational matrix of chosen rank: a product of random nrows x r and r x ncols factors."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    rank = rng.randint(0, min(nrows, ncols))

    def entry():
        return Q(rng.randint(-5, 5), rng.randint(1, 4))

    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = [[Q(sum(left[i][t] * right[t][j] for t in range(rank))) for j in range(ncols)] for i in range(nrows)]
    return rows, ncols


def _low_rank_cases():
    rng = random.Random(2019)
    cases = [([], 0), ([], 5), ([[]], 0), ([[Q(0)] * 4 for _ in range(3)], 4)]
    return cases + [_low_rank_matrix(rng) for _ in range(200)]


def test_kernel_basis_matches_sympy_nullspace():
    """An independent oracle: sympy's nullspace, which also normalizes by free column."""
    sympy = pytest.importorskip("sympy")
    for rows, ncols in _low_rank_cases():
        entries = [sympy.Rational(v.numerator, v.denominator) for row in rows for v in row]
        matrix = sympy.Matrix(len(rows), ncols, entries)
        want = [[Q(int(v.p), int(v.q)) for v in vec] for vec in matrix.nullspace()]
        assert kernel_basis(rows, ncols) == want, (rows, ncols)


def test_kernel_basis_returns_fractions_for_int_rows():
    """Rows of ints, or of ints and Fractions, give Fraction entries only,
    equal to the Fraction elimination's kernel of the rows read as Fractions."""
    cases = [
        ([[3, 1, 2]], 3),
        ([[1, 2, 3], [2, 4, 6]], 3),
        ([[2, 0, -4, 1], [0, 3, 1, 0]], 4),
        ([[Q(1, 2), 3, 0], [1, Q(-2, 3), 5]], 3),
        ([[0, Q(0), 7]], 3),
        ([[5]], 1),
        ([[0]], 1),
    ]
    for rows, ncols in cases:
        basis = kernel_basis(rows, ncols)
        assert all(type(v) is Q for vec in basis for v in vec), (rows, basis)
        assert basis == reference_kernel_basis([[Q(v) for v in row] for row in rows], ncols), rows
    assert kernel_basis([[3, 1, 2]], 3) == [[Q(-1, 3), Q(1), Q(0)], [Q(-2, 3), Q(0), Q(1)]]


def test_primes_descend_from_the_certificate_prime():
    """The kernel's primes: _PRIME, then every smaller prime in turn."""
    def trial_division(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(2000) if _is_prime(n)] == [n for n in range(2000) if trial_division(n)]
    first = list(itertools.islice(_primes(), 12))
    assert first[0] == _PRIME == 2**30 - 35
    assert first == [n for n in range(_PRIME, _PRIME - 1000, -1) if trial_division(n)][:12]
    # Strong pseudoprimes to some of the bases 2, 7 and 61.
    assert not any(_is_prime(n) for n in (2047, 3277, 4033, 4681, 8321, 25326001, 3215031751))


def _spy(monkeypatch, limit=8):
    """The primes kernel_basis draws, and the moduli it eliminates mod, with
    at most ``limit`` primes drawn: a kernel that does not certify then
    raises instead of running on."""
    drawn, eliminated = [], []
    primes, echelon = arith._primes, arith._echelon

    def limited():
        for p in itertools.islice(primes(), limit):
            drawn.append(p)
            yield p

    def recording(vectors, ncols, p, leftmost=True):
        eliminated.append(p)
        return echelon(vectors, ncols, p, leftmost)

    monkeypatch.setattr(arith, "_primes", limited)
    monkeypatch.setattr(arith, "_echelon", recording)
    return drawn, eliminated


def test_kernel_needs_the_chinese_remainder_theorem_over_several_primes(monkeypatch):
    """Entries of about 28 and 40 bits reconstruct from two and three primes."""
    drawn, eliminated = _spy(monkeypatch)
    a, b = 3**17, 2**28 + 1
    assert kernel_basis([[a, b]], 2) == [[Q(-b, a), Q(1)]]
    assert len(drawn) == 2 and eliminated == drawn
    drawn.clear()
    eliminated.clear()
    a, b = 3**25, -(2**40 + 15)
    rows = [[Q(a, 7), 0, b], [0, 1, Q(1, 2)]]
    assert kernel_basis(rows, 3) == [[Q(-7 * b, a), Q(-1, 2), Q(1)]]
    assert len(drawn) == 3 and eliminated == drawn


def test_kernel_skips_a_prime_that_divides_a_denominator(monkeypatch):
    """With 1/p in a row, p = _PRIME is never eliminated mod; the answer,
    -2p, needs two more primes."""
    drawn, eliminated = _spy(monkeypatch)
    assert kernel_basis([[Q(1, _PRIME), Q(2)]], 2) == [[Q(-2 * _PRIME), Q(1)]]
    assert drawn[0] == _PRIME and _PRIME not in eliminated
    assert eliminated == drawn[1:] and len(eliminated) == 3


def test_kernel_drops_a_prime_where_the_rank_falls(monkeypatch):
    """A prime where the rank drops has more free columns; it is dropped,
    whether it comes first or between the primes that are combined."""
    drawn, eliminated = _spy(monkeypatch)
    rows = [[1, 1, 0], [1, 1 + _PRIME, 0]]  # rank 1 mod _PRIME, 2 over Q
    assert kernel_basis(rows, 3) == [[Q(0), Q(0), Q(1)]]
    assert eliminated == drawn[:2]
    # The free column moves mod _PRIME, at the same rank.
    drawn.clear()
    eliminated.clear()
    assert kernel_basis([[_PRIME, 1]], 2) == [[Q(-1, _PRIME), Q(1)]]
    assert eliminated[0] == _PRIME and len(eliminated) == 4
    # The second prime loses rank; the other three give 40-bit entries.
    drawn.clear()
    eliminated.clear()
    second = list(itertools.islice(_primes(), 2))[1]
    a, b = 3**25, 2**40 + 15
    rows = [[1, 1, 0, 0], [1, 1 + second, 0, 0], [0, 0, a, b]]
    assert kernel_basis(rows, 4) == [[Q(0), Q(0), Q(-b, a), Q(1)]]
    assert eliminated == drawn == list(itertools.islice(_primes(), 4))


def test_kernel_certificate_rejects_a_wrong_reconstruction(monkeypatch):
    """An entry a/b + p has the image of a/b mod p = _PRIME: one prime
    reconstructs a/b, and only the certificate over Z rejects it."""
    drawn, eliminated = _spy(monkeypatch)
    x, y = Q(1, 2) + _PRIME, Q(-3, 7) + _PRIME
    assert kernel_basis([[1, 0, -x], [0, 1, -y]], 3) == [[x, y, Q(1)]]
    assert len(drawn) == 3
    # From _PRIME alone the reconstruction is (1/2, -3/7, 1).
    assert [arith._reconstruct(arith.residue(v), _PRIME) for v in (x, y)] == [(1, 2), (-3, 7)]


def test_kernel_basis_matches_the_reference_at_a_three_prime_frontier(monkeypatch):
    """The rank-deficient system at k = 5/2, bar weight 9, charge 0: 279
    columns, entries of about 34 bits, reconstructed from three primes."""
    monkeypatch.setenv("BPALG_WEIGHT_BOUND", "9")
    algebra = singular._ScalarAlgebra(Q(5, 2), BAR)
    monomials = enumerate_basis(algebra, VAC, 9, 0).monomials
    rows = singular.annihilator_rows(algebra, monomials, singular.AnnihilatorSet.default(BAR))
    dense = [[row.get(c, Q(0)) for c in range(len(monomials))] for row in rows]
    drawn, _ = _spy(monkeypatch)
    basis = kernel_basis(dense, len(monomials))
    assert len(monomials) == 279 and len(basis) == 1 and len(drawn) == 3
    assert basis == reference_kernel_basis(dense, len(monomials))


def test_rank_mod_p_matches_the_exact_rank():
    """The certificate's rank mod p against the rank of the exact kernel.

    Rank mod p is at most the rank over Q; on these small entries it is equal,
    and an entry that is a multiple of p shows the gap.
    """
    def lifted(rows):
        return [{c: x for c, x in enumerate(map(residue, row)) if x} for row in rows]

    for rows, ncols in _low_rank_cases():
        assert rank_mod_p(lifted(rows), ncols) == ncols - len(kernel_basis(rows, ncols)), (rows, ncols)
    rows = [[Q(_PRIME)]]
    assert rank_mod_p(lifted(rows), 1) == 0
    assert 1 - len(kernel_basis(rows, 1)) == 1


def _sparse_rank_case(rng):
    """A sparse integer matrix of chosen rank: independent sparse rows, their
    small combinations, duplicates, empty rows and an all-zero column."""
    ncols = rng.randint(1, 14)
    zero_col = rng.randrange(ncols)
    cols = [c for c in range(ncols) if c != zero_col]
    base = [{c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in rng.sample(cols, min(len(cols), rng.randint(1, 4)))}
            for _ in range(rng.randint(0, ncols))]
    rows = [dict(row) for row in base]
    for _ in range(rng.randint(0, 2 * ncols)):
        kind = rng.random()
        if kind < 0.15 or not base:
            rows.append({})
        elif kind < 0.35:
            rows.append(dict(rng.choice(rows)))
        else:
            combo = {}
            for row in rng.sample(base, min(len(base), 2)):
                factor = rng.randint(-2, 2)
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + factor * v
            rows.append({c: v for c, v in combo.items() if v})
    rng.shuffle(rows)
    return [[Q(row.get(c, 0)) for c in range(ncols)] for row in rows], ncols


def test_sparsest_lead_rank_matches_the_exact_rank_on_sparse_matrices():
    """rank_mod_p leads with the sparsest column; its rank equals the rank
    over Q of the dense reference elimination."""
    rng = random.Random(2030)
    seen = {"deficient": 0, "tall": 0, "duplicate": 0, "empty": 0}
    for _ in range(300):
        rows, ncols = _sparse_rank_case(rng)
        rank = ncols - len(_reference_kernel(rows, ncols))
        lifted = [{c: residue(v) for c, v in enumerate(row) if v} for row in rows]
        assert rank_mod_p(lifted, ncols) == rank, (rows, ncols)
        seen["deficient"] += rank < min(len(rows), ncols)
        seen["tall"] += len(rows) > ncols
        seen["duplicate"] += any(row and rows.count(row) > 1 for row in rows)
        seen["empty"] += any(not any(row) for row in rows)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_sparsest_lead_rank_matches_leftmost_leads_on_ladder_systems(grading):
    """On the ladder's mod-p systems, w = 4..8, the sparsest-lead rank equals
    the leftmost-lead rank of the same echelon."""
    algebra = singular._ModPAlgebra(Q(-5, 3), grading)
    ann = singular.AnnihilatorSet.default(grading)
    for weight in range(4, 9):
        monomials = enumerate_basis(algebra, VAC, weight, 0).monomials
        rows = singular.annihilator_rows(algebra, monomials, ann)
        leftmost = len(_echelon([dict(row) for row in rows], len(monomials), _PRIME))
        assert rank_mod_p([dict(row) for row in rows], len(monomials)) == leftmost, weight
        assert leftmost == len(monomials) - (weight == 4)


def _sympy_linear_roots(sympy, expr, var) -> dict:
    """Rational roots with multiplicity, read off sympy's factorization over Q."""
    roots = {}
    for factor, mult in sympy.factor_list(expr, var)[1]:
        if sympy.degree(factor, var) == 1:
            a, b = sympy.Poly(factor, var).all_coeffs()
            root = -b / a
            roots[Q(int(root.p), int(root.q))] = mult
    return roots


def test_resultant_and_rational_roots_match_sympy():
    """An independent oracle: sympy's resultant and factorization over Q."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    variables = {"x": x, "y": y}

    def to_sympy(p: Poly2):
        return sum(sympy.Rational(v.numerator, v.denominator) * x**i * y**j for (i, j), v in p.terms_sorted())

    # The Sylvester sign convention agrees on these two.
    assert to_sympy(resultant(POLY_X - POLY_Y, POLY_X + POLY_Y, "x")) == 2 * y
    assert to_sympy(resultant(POLY_X**2 + POLY_Y**2 - 2, POLY_X - POLY_Y, "y")) == 2 * x**2 - 2

    rng = random.Random(4)

    def random_poly2():
        deg = rng.randint(1, 2)
        return Poly2({(i, j): rng.randint(-3, 3) for i in range(deg + 1) for j in range(deg + 1 - i)})

    x_, y_ = POLY_X, POLY_Y
    cases = [
        # A zero pivot in the Bareiss elimination: a row swap.
        (x_**3 + y_, x_**2 + x_ * y_, "x"),
        (x_**2 * y_ + x_ + 1, x_ * y_ + 1, "x"),
        # A pivot column that is zero below the diagonal: the resultant is 0.
        (x_**2 - y_, x_**2 - y_, "x"),
    ]
    for _ in range(60):
        p, q = random_poly2(), random_poly2()
        cases += [(p, q, var) for var in ("x", "y")]
    checked = 0
    for p, q, var in cases:
        if not p or not q or p.degree_in(var) == q.degree_in(var) == 0:
            continue
        ours = resultant(p, q, var)
        want = sympy.expand(sympy.resultant(to_sympy(p), to_sympy(q), variables[var]))
        assert sympy.expand(to_sympy(ours) - want) == 0
        if not ours:
            continue
        keep = variables["y" if var == "x" else "x"]
        roots, cofactor = rational_roots(ours)
        assert roots == _sympy_linear_roots(sympy, want, keep)
        assert cofactor.degree() == ours.degree() - sum(roots.values())
        checked += 1
    assert checked >= 100

    t = variables["x"]
    for quadratic in (poly_in([-2, 0, 1]), poly_in([1, 1, 1]), poly_in([Q(1, 3), 0, 2])):
        for _ in range(10):
            p, want_roots = poly_in([rng.randint(1, 4)]), {}
            for _ in range(rng.randint(1, 4)):
                root = Q(rng.randint(-6, 6), rng.randint(1, 4))
                p = p * poly_in([-root, 1])
                want_roots[root] = want_roots.get(root, 0) + 1
            p = p * quadratic
            roots, cofactor = rational_roots(p)
            assert roots == want_roots == _sympy_linear_roots(sympy, to_sympy(p), t)
            assert cofactor.degree() == 2
            lead, cofactor_lead = quadratic.coeff_of("x", 2), cofactor.coeff_of("x", 2)
            assert not cofactor * lead - quadratic * cofactor_lead
