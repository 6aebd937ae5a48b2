import random
from fractions import Fraction as Q

import pytest

from bpalgebra import singular
from bpalgebra.arith import (
    _PRIME,
    _pivot_rows_mod_p,
    POLY_X,
    POLY_Y,
    Poly1,
    Poly2,
    binomial,
    frac,
    kernel_basis,
    rational_roots,
    resultant,
)
from bpalgebra.modes import BAR, OMEGA


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
    n = Poly1.ident("n")
    assert binomial(n, 0) == Poly1.const(1, "n")
    # n(n-1)(n-2)/6
    assert binomial(n, 3) == (n * (n - 1) * (n - 2)) * Q(1, 6)
    with pytest.raises(ValueError):
        binomial(3, -1)


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
    assert p.specialize("x", 3) == Poly1([9, -1], var="y")
    assert p.specialize("y", Q(1, 2)) == Poly1([Q(-1, 2), 0, 1], var="x")
    r = 2 * POLY_X * POLY_Y**2 + POLY_Y
    for xv, yv in ((0, 0), (Q(-1, 3), 2), (5, Q(7, 4))):
        assert r.specialize("x", xv).eval(yv) == r.eval(xv, yv) == r.specialize("y", yv).eval(xv)


def test_poly2_json_roundtrip():
    p = POLY_X**3 - Q(3, 2) * POLY_X * POLY_Y - Q(5, 8) * POLY_X
    assert Poly2.from_json(p.to_json()) == p


def test_poly1_divmod():
    p = Poly1([-1, 0, 1])  # x^2 - 1
    q, r = p.divmod_exact(Poly1([-1, 1]))
    assert q == Poly1([1, 1]) and r.is_zero()


def test_rational_roots_simple():
    roots, cof = rational_roots(Poly1([-1, 0, 1]))
    assert roots == {Q(1): 1, Q(-1): 1}
    assert cof.is_const()
    roots, cof = rational_roots(Poly1([1, 0, 1]))  # x^2 + 1
    assert roots == {}
    assert cof == Poly1([1, 0, 1])
    with pytest.raises(ValueError):
        rational_roots(Poly1([]))


def test_rational_roots_multiplicity_and_resubstitution():
    # (x - 1/3)^2 (2x + 5)
    p = Poly1([Q(1, 3) * Q(1, 3) * 5, Q(-10, 3) + Q(1, 9) * 2, Q(2) * Q(-2, 3) + 5, 2])
    p = Poly1([-1, 1]) * Poly1([-1, 1]) * Poly1([5, 2]) * Q(1, 3)
    roots, cof = rational_roots(p)
    assert roots == {Q(1): 2, Q(-5, 2): 1}
    assert cof.is_const()
    for r, mult in roots.items():
        assert p.eval(r) == 0


def test_rational_roots_boundary_quartic():
    """The quartic cutting out the boundary-line weights at level -5/3."""
    from bpalgebra.classify import projection_filter

    filt = projection_filter(Q(-5, 3))
    quartic = filt.specialize("y", Q(-1, 9))
    roots, cof = rational_roots(quartic)
    assert set(roots) == {Q(1, 9), Q(4, 9), Q(7, 9), Q(-1, 18)}
    assert cof.is_const()


def test_resultant_conventions():
    # Sylvester with the first polynomial's rows on top:
    # res_x(x - y, x + y) = det [[1, -y], [1, y]] = 2y.
    res = resultant(POLY_X - POLY_Y, POLY_X + POLY_Y, "x")
    assert res == Poly1([0, 2], var="y")
    assert resultant(POLY_X - POLY_Y, POLY_X - POLY_Y, "x").is_zero()
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
    """A sparse rational matrix with the shapes and entries that stress the mod-p pass."""
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


def test_kernel_basis_matches_reference_on_random_matrices():
    rng = random.Random(20191031)
    cases = [([], 0), ([], 4), ([[]], 0), ([[], []], 0), ([[Q(_PRIME)]], 1), ([[Q(1, _PRIME), Q(1)]], 2)]
    cases += [_random_sparse_matrix(rng) for _ in range(100 - len(cases))]
    shapes = {"tall": 0, "wide": 0}
    mod_p_rank_short = 0
    for rows, ncols in cases:
        want = _reference_kernel(rows, ncols)
        assert kernel_basis(rows, ncols) == want, (rows, ncols)
        if rows and ncols:
            shapes["tall" if len(rows) > ncols else "wide"] += 1
        mod_p_rank_short += len(_pivot_rows_mod_p(rows, ncols)) < ncols - len(want)
    assert min(shapes.values()) >= 20, shapes
    # The verification loop, not only the certificate, must be exercised.
    assert mod_p_rank_short >= 5


def test_kernel_basis_matches_reference_on_ladder_matrices(monkeypatch):
    matrices = []

    def capture(rows, ncols):
        matrices.append(([row[:] for row in rows], ncols))
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(singular, "kernel_basis", capture)
    for grading in (BAR, OMEGA):
        for weight in (4, 5, 6, 7):
            singular.find_singular(Q(-5, 3), weight, 0, grading)
    assert len(matrices) == 8
    for rows, ncols in matrices:
        assert kernel_basis(rows, ncols) == _reference_kernel(rows, ncols)


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
        return sum(sympy.Rational(v.numerator, v.denominator) * x**i * y**j for (i, j), v in p.c.items())

    def poly1_to_sympy(p: Poly1):
        t = variables[p.var]
        return sum(sympy.Rational(v.numerator, v.denominator) * t**d for d, v in enumerate(p.a))

    # The Sylvester sign convention agrees on these two.
    assert poly1_to_sympy(resultant(POLY_X - POLY_Y, POLY_X + POLY_Y, "x")) == 2 * y
    assert poly1_to_sympy(resultant(POLY_X**2 + POLY_Y**2 - 2, POLY_X - POLY_Y, "y")) == 2 * x**2 - 2

    rng = random.Random(4)

    def random_poly2():
        deg = rng.randint(1, 2)
        return Poly2({(i, j): rng.randint(-3, 3) for i in range(deg + 1) for j in range(deg + 1 - i)})

    checked = 0
    for _ in range(60):
        p, q = random_poly2(), random_poly2()
        for var in ("x", "y"):
            if not p or not q or p.degree_in(var) == q.degree_in(var) == 0:
                continue
            ours = resultant(p, q, var)
            want = sympy.expand(sympy.resultant(to_sympy(p), to_sympy(q), variables[var]))
            assert sympy.expand(poly1_to_sympy(ours) - want) == 0
            if ours.is_zero():
                continue
            keep = variables[ours.var]
            roots, cofactor = rational_roots(ours)
            assert roots == _sympy_linear_roots(sympy, want, keep)
            assert cofactor.degree() == ours.degree() - sum(roots.values())
            checked += 1
    assert checked >= 100

    t = variables["x"]
    for quadratic in (Poly1([-2, 0, 1]), Poly1([1, 1, 1]), Poly1([Q(1, 3), 0, 2])):
        for _ in range(10):
            p, want_roots = Poly1([rng.randint(1, 4)]), {}
            for _ in range(rng.randint(1, 4)):
                root = Q(rng.randint(-6, 6), rng.randint(1, 4))
                p = p * Poly1([-root, 1])
                want_roots[root] = want_roots.get(root, 0) + 1
            p = p * quadratic
            roots, cofactor = rational_roots(p)
            assert roots == want_roots == _sympy_linear_roots(sympy, poly1_to_sympy(p), t)
            assert cofactor.degree() == 2
            assert (cofactor * quadratic.a[-1] - quadratic * cofactor.a[-1]).is_zero()
