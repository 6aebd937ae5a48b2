from fractions import Fraction as Q

import pytest

from bpalgebra.arith import POLY_X, POLY_Y, Poly1, Poly2
from bpalgebra.classify import (
    IdenticalSystem,
    UnsupportedLevel,
    classify_level,
    infinite_top_certificates,
    pi0_bracket_identity,
    solve_system,
)
from bpalgebra.modes import BAR, GP, BPAlgebra
from bpalgebra.tables import RATIONAL_LEVELS, golden_classify, golden_zhu, table_state
from bpalgebra.weightspace import contragredient_weight, spectral_flow_weight
from bpalgebra.zhu import SmithAlgebra, SmithWord, h_poly, relation_line, smith_relation

from helpers import projection_filter


def fr_pairs(pairs):
    return [(Q(a), Q(b)) for a, b in pairs]


def test_solve_system_examples():
    h1 = -3 * POLY_X**2 - Q(1, 3) * POLY_X + Q(4, 3) * POLY_Y
    h1_shift = -3 * POLY_X**2 - Q(7, 3) * POLY_X + Q(4, 3) * POLY_Y - Q(2, 9)
    sols, complete = solve_system(h1, h1_shift)
    assert sols == [(Q(-1, 9), Q(0))] and complete
    h2 = -3 * POLY_X**2 - Q(10, 3) * POLY_X + Q(4, 3) * POLY_Y - Q(5, 3)
    h2_shift = -3 * POLY_X**2 - Q(34, 3) * POLY_X + Q(4, 3) * POLY_Y - Q(95, 9)
    sols, complete = solve_system(h2, h2_shift)
    assert sols == [(Q(-10, 9), Q(5, 4))] and complete
    sols, complete = solve_system(POLY_X, POLY_Y)
    assert sols == [(Q(0), Q(0))] and complete
    with pytest.raises(IdenticalSystem):
        solve_system(POLY_X + POLY_Y, POLY_X + POLY_Y)


def test_solve_system_constant_fiber_is_complete():
    """A fiber on which one polynomial is a nonzero constant has provably no root.

    The resultant is 2x^3 (constant cofactor); at x = 0 the fiber of p,
    y^3 - 2y, has irrational roots, but q = 1 there.
    """
    x, y = POLY_X, POLY_Y
    assert solve_system(x * y**4 + y**3 - 2 * y, x * y + 1) == ([], True)


def test_classify_level_5_3():
    ws = classify_level(Q(-5, 3))
    golden = golden_classify()["-5/3"]
    assert ws.finite_top == fr_pairs(golden["finite_top"])
    assert ws.infinite_top == fr_pairs(golden["infinite_top"])
    excluded = sorted({w for br in ws.branches for (w, _) in br.excluded})
    assert excluded == sorted(fr_pairs(golden["excluded"]))
    assert all(ok for _, ok in ws.identities)
    assert all(br.complete for br in ws.branches)
    by_name = {br.name: br for br in ws.branches}
    assert by_name["dim1-generic"].solutions == [(Q(-1, 9), Q(0))]
    assert by_name["dim1-to-dim2"].solutions == [(Q(-4, 9), Q(1, 3))]
    assert by_name["dim2-to-dim1"].solutions == [(Q(-7, 9), Q(2, 3))]
    assert by_name["dim2-to-dim2"].solutions == [(Q(-10, 9), Q(5, 4))]
    assert by_name["dim2-to-dim2"].admitted == []
    assert by_name["dim2-diagonal"].solutions == [(Q(-1, 3), Q(2, 3))]
    boundary = by_name["boundary-y"]
    assert (Q(-1, 18), Q(-1, 9)) in [w for w, _ in boundary.excluded]


def test_classify_level_9_4():
    ws = classify_level(Q(-9, 4))
    golden = golden_classify()["-9/4"]
    assert ws.finite_top == fr_pairs(golden["finite_top"])
    assert ws.infinite_top == fr_pairs(golden["infinite_top"])
    assert all(ok for _, ok in ws.identities)
    assert [br.name for br in ws.branches] == ["dim1-generic", "dim1-diagonal", "boundary-y"]
    assert all(br.complete for br in ws.branches)


@pytest.mark.parametrize("level", sorted(RATIONAL_LEVELS))
def test_rational_level_table_matches_golden_relation(level):
    """P and y0 derived from the singular vector give the golden word c * E^P * (Y - y0)."""
    data = RATIONAL_LEVELS[level]
    bar = BPAlgebra(level, BAR)
    singular = table_state(data.singular, bar)
    power, y0 = relation_line(smith_relation(bar, singular))
    assert golden_zhu()[data.relation]["power"] == power
    word = SmithWord.from_json(SmithAlgebra(level), golden_zhu()[data.relation]["word"])
    (key, poly), = word.terms.items()
    assert key == (0, power)
    assert poly == poly.coeff_of("y", 1) * (POLY_Y - y0)
    # P is the length of the G+(0) string: G+(0)^P s != 0 and G+(0)^(P+1) s = 0.
    for _ in range(power):
        singular = bar.apply_mode((GP, 0), singular)
    assert not singular.is_zero()
    assert bar.apply_mode((GP, 0), singular).is_zero()


def test_classify_minus_one_parabola():
    ws = classify_level(Q(-1))
    assert ws.finite_families
    assert all(ok for _, ok in ws.identities)
    h1 = h_poly(1, Q(-1))
    # h1 is exactly (k+3) (y - 3/2 x^2 + 1/2 x): its zero set is the parabola.
    assert h1 == (POLY_Y - Q(3, 2) * POLY_X**2 + Q(1, 2) * POLY_X) * 2


def test_classify_zero_families_and_corner():
    ws = classify_level(Q(0))
    assert [fam for fam, _ in ws.finite_families] == ["y = x^2 - x", "y = x^2"]
    assert all(ok for _, ok in ws.identities)
    assert ws.flags and "indecomposable" in ws.flags[0]
    assert h_poly(1, 0).subst(POLY_X, POLY_X**2 - POLY_X) == Poly2()
    assert h_poly(2, 0).subst(POLY_X, POLY_X**2) == Poly2()
    # the flagged corner is the golden one and sits on both zero loci
    assert ws.flagged_corner == (0, 0)
    assert [str(c) for c in ws.flagged_corner] == golden_classify()["0"]["flagged_corner"]
    assert h_poly(1, 0).eval(*ws.flagged_corner) == 0 and h_poly(2, 0).eval(*ws.flagged_corner) == 0


def test_unsupported_level():
    with pytest.raises(UnsupportedLevel):
        classify_level(Q(1, 2))


def test_certificates():
    certs = infinite_top_certificates(Q(-5, 3), [(Q(7, 9), Q(-1, 9))])
    assert certs[0].poly_in_i == Poly1([Q(-2, 9), -1, -1], var="i")
    assert certs[0].verdict == "no positive integer root"
    certs = infinite_top_certificates(Q(-9, 4), [(Q(0), Q(-1, 2)), (Q(1, 2), Q(-1, 2))])
    i = Poly1.ident("i")
    assert certs[0].poly_in_i == (2 * i - 1) * (4 * i - 1) * Q(-1, 8)
    assert certs[0].rational_roots == [Q(1, 4), Q(1, 2)]
    assert certs[1].poly_in_i == (2 * i + 1) * (4 * i + 1) * Q(-1, 8)
    with pytest.raises(ValueError):
        infinite_top_certificates(Q(-5, 3), [])


def test_weight_sets_closed_under_symmetries():
    for k in (Q(-5, 3), Q(-9, 4)):
        ws = classify_level(k)
        union = set(ws.finite_top) | set(ws.infinite_top)
        for (x, y) in union:
            assert contragredient_weight(x, y) in union
        # The flow orbit stays in the union wherever a finite top dimension
        # is certified by a vanishing h_i (i = 1, 2).
        for (x, y) in ws.finite_top:
            for i in (1, 2):
                if h_poly(i, k).eval(x, y) == 0:
                    assert spectral_flow_weight(x, y, i, k) in union


def test_finite_weights_pass_projection_filter():
    for k in (Q(-5, 3), Q(-9, 4)):
        filt = projection_filter(k)
        ws = classify_level(k)
        for (x, y) in ws.finite_top + ws.infinite_top:
            assert filt.eval(x, y) == 0
        # and the recorded exclusion really fails it at level -5/3
        if k == Q(-5, 3):
            assert filt.eval(Q(-10, 9), Q(5, 4)) != 0


def test_pi0_bracket_identity():
    lhs, rhs, ok = pi0_bracket_identity()
    assert ok
    assert lhs.eval(0) == Q(15, 8)
    assert lhs.eval(1) == 3 - Q(9, 2) + Q(15, 8)
