import random
from fractions import Fraction as Q

import pytest

from bpalgebra.arith import POLY_X, POLY_Y, Poly2
from bpalgebra.modes import BAR, BPAlgebra, GM, GP, J, L, OMEGA
from bpalgebra.singular import integral_level_vector
from bpalgebra.tables import golden_poly, golden_zhu, omega3_bar, omega4_bar
from bpalgebra.zhu import (
    SmithAlgebra,
    ZhuReducer,
    g_poly,
    h_closed_form,
    h_in_i,
    h_poly,
    relation_line,
    smith_relation,
    zero_mode_poly,
    zhu_reduce,
    zhu_star,
)

from helpers import check_circle_vanishes, check_zhu_multiplicativity, poly_in

LEVELS = (Q(-5, 3), Q(-9, 4), Q(3, 4))


def test_h_poly_basics():
    for k in LEVELS:
        assert h_poly(1, k) == g_poly(k)
        with pytest.raises(ValueError):
            h_poly(0, k)


def test_h_poly_matches_closed_form():
    for k in (Q(-5, 3), Q(-9, 4), Q(-1), Q(0), Q(5, 2)):
        for i in range(1, 11):
            assert h_poly(i, k) == h_closed_form(i, k)


def test_h_values_along_boundary_lines():
    # at k = -9/4
    assert h_in_i(Q(-9, 4), Q(1, 4), Q(-1, 2)) == (
        poly_in([Q(-1), 0, Q(16)]) * Q(-1, 16)
    )
    # (4i-1)(4i+1)/(-16) expanded
    i = POLY_X
    assert h_in_i(Q(-9, 4), 0, Q(-1, 2)) == (2 * i - 1) * (4 * i - 1) * Q(-1, 8)
    assert h_in_i(Q(-9, 4), Q(1, 2), Q(-1, 2)) == (2 * i + 1) * (4 * i + 1) * Q(-1, 8)
    # h_in_i agrees with pointwise h_poly evaluation
    for k, x0, y0 in ((Q(-5, 3), Q(1, 9), Q(-1, 9)), (Q(-9, 4), Q(1, 4), Q(-1, 2))):
        series = h_in_i(k, x0, y0)
        for ival in range(1, 7):
            assert series.eval(ival, 0) == h_poly(ival, k).eval(x0, y0)


def test_zero_mode_poly_identity_element():
    bar = BPAlgebra(Q(-5, 3), BAR)
    assert zero_mode_poly(bar, bar.unit(), OMEGA) == Poly2.const(1)


def test_zero_mode_projections_match_tables():
    bar = BPAlgebra(Q(-5, 3), BAR)
    assert zero_mode_poly(bar, omega4_bar(bar), OMEGA) == golden_poly("U")
    bar94 = BPAlgebra(Q(-9, 4), BAR)
    assert zero_mode_poly(bar94, omega3_bar(bar94), OMEGA) == golden_poly("V")


def test_zero_mode_poly_from_omega_convention_input():
    from bpalgebra.tables import omega4

    om = BPAlgebra(Q(-5, 3), OMEGA)
    assert zero_mode_poly(om, omega4(om), OMEGA) == golden_poly("U")


def test_zero_mode_rejects_charged_states():
    bar = BPAlgebra(Q(-5, 3), BAR)
    with pytest.raises(ValueError):
        zero_mode_poly(bar, bar.normal_form([(GP, -1)]), OMEGA)


def test_star_unit():
    bar = BPAlgebra(Q(-9, 4), BAR)
    s = bar.normal_form([(L, -2), (J, -1)])
    assert zhu_star(bar, bar.unit(), s) == s


def test_smith_generator_brackets_all_levels():
    """All six generator star-commutators reduce to the defining relations."""
    for k in LEVELS:
        bar = BPAlgebra(k, BAR)
        sm = SmithAlgebra(k)
        red = ZhuReducer(bar)
        jst = bar.normal_form([(J, -1)])
        gp = bar.normal_form([(GP, -1)])
        gm = bar.normal_form([(GM, -2)])
        om = bar.normal_form([(L, -2)])

        def comm(a, b):
            return red.reduce_state(zhu_star(bar, a, b) - zhu_star(bar, b, a))

        assert comm(jst, gp) == sm.E()
        assert comm(jst, gm) == sm.F()  # [X, [G-]] = -[G-] = F
        assert comm(jst, om).is_zero()
        assert comm(gp, gm) == sm.word(0, sm.g, 0).scaled(-1)  # [E, -F] = -g
        assert comm(gp, om).is_zero()
        assert comm(gm, om).is_zero()


def test_smith_word_normal_form_relations():
    sm = SmithAlgebra(Q(-5, 3))
    E, F, X, Y = sm.E(), sm.F(), sm.X(), sm.Y()
    assert X * E - E * X == E
    assert X * F - F * X == F.scaled(-1)
    assert E * F - F * E == sm.word(0, sm.g, 0)
    for w in (E, F, X):
        assert Y * w == w * Y


def test_smith_word_confluence_random_association():
    sm = SmithAlgebra(Q(-9, 4))
    atoms = [sm.E(), sm.F(), sm.X(), sm.Y()]
    rng = random.Random(21)

    def fold(words, order):
        words = list(words)
        for idx in order:
            merged = words[idx] * words[idx + 1]
            words[idx: idx + 2] = [merged]
        return words[0]

    for _ in range(40):
        length = rng.randint(2, 6)
        word = [rng.choice(atoms) for _ in range(length)]
        left = fold(word, [0] * (length - 1))
        order = []
        remaining = length
        while remaining > 1:
            order.append(rng.randrange(remaining - 1))
            remaining -= 1
        random_fold = fold(word, order)
        assert left == random_fold


def test_appendix_reductions():
    bar = BPAlgebra(Q(-5, 3), BAR)
    sm = SmithAlgebra(Q(-5, 3))
    red = ZhuReducer(bar)
    E2 = sm.E() * sm.E()
    cases = [
        ([(GP, -1), (GP, -3)], E2),
        ([(GP, -2), (GP, -2)], E2),
        ([(J, -1), (GP, -1), (GP, -2)], (E2 * sm.X()).scaled(-1)),
        ([(J, -2), (GP, -1), (GP, -1)], (E2 * sm.X()).scaled(-1)),
        ([(L, -2), (GP, -1), (GP, -1)], E2 * sm.Y() + E2.scaled(2)),
        ([], sm.one()),
    ]
    for word, expect in cases:
        assert red.reduce_state(bar.normal_form(word)) == expect


def test_five_term_expansion_and_relation():
    bar = BPAlgebra(Q(-5, 3), BAR)
    sm = SmithAlgebra(Q(-5, 3))
    vec = omega4_bar(bar)
    twice = bar.apply_mode((GP, 0), bar.apply_mode((GP, 0), vec))
    from bpalgebra.modes import parse_mode

    want = bar.state_from_words(
        [([parse_mode(t) for t in w], Q(c)) for w, c in golden_zhu()["gp0_squared_omega4_bar"]]
    )
    assert twice == want
    rel = smith_relation(bar, vec)
    expected = (sm.E() * sm.E() * (sm.Y() + sm.one().scaled(Q(1, 9)))).scaled(44)
    assert rel == expected
    assert str(rel) == "44*E^2*Y + 44/9*E^2"


def test_weight3_relation_engine_constant():
    bar = BPAlgebra(Q(-9, 4), BAR)
    sm = SmithAlgebra(Q(-9, 4))
    rel = smith_relation(bar, omega3_bar(bar))
    expected = (sm.E() * (sm.Y() + sm.one().scaled(Q(1, 2)))).scaled(Q(3, 4))
    assert rel == expected
    assert not rel.is_zero()


def test_relation_line_refuses_other_shapes():
    """c * E^P * (Y - y0) reads as (P, y0) and a bare c * E^P as (P, None); other shapes are refused."""
    for k, n in ((Q(0), 2), (Q(-1), 1)):
        bar = BPAlgebra(k, BAR)
        word = smith_relation(bar, integral_level_vector(bar, "+", n))
        assert word == SmithAlgebra(k).E() ** n
        assert relation_line(word) == (n, None)
    sm = SmithAlgebra(Q(-5, 3))
    line = sm.Y() + sm.one().scaled(Q(1, 9))
    assert relation_line(sm.E() * sm.E() * line) == (2, Q(-1, 9))
    for word in (sm.F() * sm.E() ** 2, sm.F() * sm.E() ** 2 * line, sm.E() * line + sm.E() ** 2 * line,
                 sm.zero(), line, sm.X() * sm.E() ** 2, sm.E() ** 2 * sm.Y() * sm.Y()):
        with pytest.raises(ValueError):
            relation_line(word)


def test_reduce_of_singular_vector_acts_as_projection():
    """Cross-route consistency of the weight-4 reduction.

    The Zhu image of the weight-4 singular vector is a *nonzero* Smith word
    in the universal algebra (its action on the generic top level must
    reproduce the projection polynomial in shifted labels); the two
    independent routes agree exactly.
    """
    bar = BPAlgebra(Q(-5, 3), BAR)
    vec = omega4_bar(bar)
    word = zhu_reduce(bar, vec)
    assert not word.is_zero()
    action = word.top_level_action(bar)
    assert set(action.terms) <= {()}
    shifted = golden_poly("U").subst(POLY_X, POLY_Y + POLY_X * Q(1, 2))
    assert action.coefficient(()) == shifted


def test_smith_relation_words_kill_admitted_top_levels():
    """The derived relation annihilates exactly the admitted eigenvalues."""
    bar = BPAlgebra(Q(-5, 3), BAR)
    rel = smith_relation(bar, omega4_bar(bar))
    action = rel.top_level_action(bar)
    # G+(0)^2 (Y + 1/9): zero on y = -1/9 tops and wherever G+(0)^2 vanishes.
    poly = action.coefficient(((GP, 0), (GP, 0)))
    assert poly == Poly2.const(44) * (POLY_Y + Q(1, 9))


def test_multiplicativity_suite():
    bar = BPAlgebra(Q(-5, 3), BAR)
    check_zhu_multiplicativity(bar, 25, seed=202)


def test_circle_products_reduce_to_zero():
    bar = BPAlgebra(Q(-9, 4), BAR)
    check_circle_vanishes(bar, 25, seed=203)


def test_star_rejects_inhomogeneous_left_factor():
    bar = BPAlgebra(Q(-5, 3), BAR)
    mixed = bar.normal_form([(J, -1)]) + bar.normal_form([(J, -2)])
    with pytest.raises(ValueError):
        zhu_star(bar, mixed, bar.unit())
