import random
from fractions import Fraction as Q

import pytest

from bpalgebra.arith import Poly2
from bpalgebra.modes import (
    BAR,
    BPAlgebra,
    GM,
    GP,
    HW,
    J,
    L,
    OMEGA,
    State,
    VAC,
    mode_str,
    parse_mode,
)
from bpalgebra.tables import omega3, omega3_bar, omega4, omega4_bar

from helpers import check_bracket_consistency, check_confluence, check_grading, check_spectral_flow_brackets

KTEST = Q(-5, 3)


@pytest.fixture(scope="module")
def bar():
    return BPAlgebra(KTEST, BAR)


@pytest.fixture(scope="module")
def om():
    return BPAlgebra(KTEST, OMEGA)


def test_mode_parsing_roundtrip():
    for text in ("J(-1)", "L(2)", "G+(-3)", "G-(0)"):
        assert mode_str(parse_mode(text)) == text
    with pytest.raises(ValueError):
        parse_mode("K(1)")


def test_bracket_table_omega(om):
    lam = om.heis_level
    br = om.bracket((J, 2), (J, -2))
    assert not br.linear and not br.j2 and br.scalar == lam * 2
    br = om.bracket((J, 0), (J, 0))
    assert br.scalar == 0 and not br.linear
    br = om.bracket((L, 3), (J, -1))
    assert br.linear == [((J, 2), Q(1))] and br.scalar == 0
    br = om.bracket((L, 2), (GP, -1))
    assert br.linear == [((GP, 1), Q(2, 2) + 1 + Q(1, 2))]
    br = om.bracket((GP, 1), (GM, 0))
    assert br.j2 == [(0, Q(3))]
    assert ((L, 0), -(KTEST + 3)) in br.linear
    assert br.scalar == (KTEST + 1) * (2 * KTEST + 3) * 0  # (m-1)m/2 at m=1


def test_bracket_virasoro_central_charges():
    k = Q(-9, 4)
    for conv, charge in ((OMEGA, -(3 * k + 1) * (2 * k + 3) / (k + 3)),
                         (BAR, -4 * (k + 1) * (2 * k + 3) / (k + 3))):
        alg = BPAlgebra(k, conv)
        br = alg.bracket((L, 2), (L, -2))
        assert br.scalar == charge * (8 - 2) / 12
        assert ((L, 0), Q(4)) in br.linear


def test_bracket_antisymmetry(bar):
    rng = random.Random(3)
    for _ in range(40):
        a = (rng.choice((J, L, GP, GM)), rng.randint(-3, 3))
        b = (rng.choice((J, L, GP, GM)), rng.randint(-3, 3))
        ab, ba = bar.bracket(a, b), bar.bracket(b, a)
        assert ab.scalar == -ba.scalar
        assert sorted(ab.linear) == sorted([(m, -c) for m, c in ba.linear])
        assert sorted(ab.j2) == sorted([(p, -c) for p, c in ba.j2])


def test_hw_base_actions(bar):
    v = bar.unit(HW)
    assert bar.apply_mode((J, 0), v) == State(HW, {(): Poly2.x()})
    assert bar.apply_mode((L, 0), v) == State(HW, {(): Poly2.y()})
    assert bar.apply_mode((GM, 0), v).is_zero()
    assert bar.apply_mode((J, 1), v).is_zero()
    assert not bar.apply_mode((GP, 0), v).is_zero()


def test_vacuum_annihilation(bar, om):
    assert bar.normal_form([(L, -1)]).is_zero()
    assert om.normal_form([(L, -1)]).is_zero()
    assert bar.normal_form([(GM, -1)]).is_zero()
    assert om.normal_form([(GM, 0)]).is_zero()
    assert bar.normal_form([]) == bar.unit()


def test_integral_family_closed_forms():
    """The two inductive expansions behind the integral-level singular family."""
    for k in (Q(7, 5), Q(-1), Q(0), Q(2), Q(13, 7)):
        alg = BPAlgebra(k, BAR)
        for n in range(1, 6):
            gp_n = alg.normal_form([(GP, -1)] * n)
            gm_n = alg.normal_form([(GM, -2)] * n)
            got = alg.apply_mode((GM, 1), gp_n)
            want = alg.normal_form(
                [(GP, -1)] * (n - 1), coeff=-n * (k - (n - 2)) * (2 * k - (n - 4))
            )
            assert got == want
            got = alg.apply_mode((GP, 2), gm_n)
            want = alg.normal_form(
                [(GM, -2)] * (n - 1),
                coeff=2 * n * (k - (n - 2)) * (k - (n - 2) + Q(n, 2)),
            )
            assert got == want
            got = alg.apply_mode((GP, 1), gm_n)
            want = alg.normal_form(
                [(J, -1)] + [(GM, -2)] * (n - 1), coeff=3 * n * (k - (n - 2))
            )
            if n >= 2:
                want = want + alg.normal_form(
                    [(GM, -3)] + [(GM, -2)] * (n - 2),
                    coeff=n * (n - 1) * (k - (n - 2)),
                )
            assert got == want


def test_convert_convention_tables(om, bar):
    """The printed weight-4 vector converts term-for-term to its rewrite."""
    assert om.convert(omega4(om), bar) == omega4_bar(bar)
    k94_om = BPAlgebra(Q(-9, 4), OMEGA)
    k94_bar = BPAlgebra(Q(-9, 4), BAR)
    assert k94_om.convert(omega3(k94_om), k94_bar) == omega3_bar(k94_bar)


def test_convert_roundtrip_random(om, bar):
    rng = random.Random(5)
    from helpers import random_state

    for _ in range(10):
        s = random_state(bar, rng, 4)
        assert om.convert(bar.convert(s, om), bar) == s
    for _ in range(10):
        s = random_state(om, rng, 4)
        assert bar.convert(om.convert(s, bar), om) == s


def test_spectral_flow_mode(bar):
    lam = bar.heis_level
    combo, scalar = bar.spectral_flow_mode((GP, 0))
    assert combo == [((GP, -1), 1)] and scalar == 0
    combo, scalar = bar.spectral_flow_mode((J, 1))
    assert combo == [((J, 1), 1)] and scalar == 0
    combo, scalar = bar.spectral_flow_mode((L, 0))
    assert combo == [((L, 0), 1), ((J, 0), -1)] and scalar == lam


def test_state_serialization_roundtrip(bar):
    s = omega4_bar(bar)
    assert State.from_json(s.to_json()) == s


def test_bracket_consistency_suite(bar):
    check_bracket_consistency(bar, 25, seed=101)


def test_grading_suite(bar):
    check_grading(bar, 25, seed=102)


def test_confluence_suite(bar, om):
    check_confluence(bar, 25, seed=103)
    check_confluence(om, 15, seed=104)


def test_spectral_flow_bracket_suite(bar):
    check_spectral_flow_brackets(bar, 25, seed=105)


def test_golden_state_serialization_format():
    """Tables ship in the canonical state JSON format and rebuild exactly."""
    from bpalgebra.tables import golden_states, table_state

    for name, data in golden_states().items():
        rebuilt = State.from_json(data)
        assert rebuilt == table_state(name)
        assert table_state(name).to_json() == data


def test_derived_integer_graded_bracket_table(bar):
    """The shifted-convention brackets derived from the printed table."""
    k = bar.k
    lam = bar.heis_level
    br = bar.bracket((J, 2), (GM, -1))
    assert br.linear == [((GM, 1), Q(-1))] and not br.j2
    br = bar.bracket((L, 2), (J, -2))
    assert br.linear == [((J, 0), Q(2))]
    assert br.scalar == -lam * 3  # -(lam) m(m+1)/2 at m = 2
    br = bar.bracket((L, 3), (GP, -1))
    assert br.linear == [((GP, 2), Q(1))]
    br = bar.bracket((L, 3), (GM, -1))
    assert br.linear == [((GM, 2), Q(4))]
    br = bar.bracket((GP, 1), (GM, -1))
    assert br.j2 == [(0, Q(3))]
    jcoeff = dict(br.linear)[(J, 0)]
    assert jcoeff == Q(3, 2) * (k + 1) * (1 + 1 - 1) - (k + 3) * Q(1, 2)
    assert dict(br.linear)[(L, 0)] == -(k + 3)
    assert br.scalar == (k + 1) * (2 * k + 3) * 0  # m(m-1)/2 at m=1 is 0
    br = bar.bracket((GP, 2), (GM, -2))
    assert br.scalar == (k + 1) * (2 * k + 3)


def _memo_case(name):
    from bpalgebra.freefield import fermionic_algebra, weyl_algebra

    if name == "bar-vac":
        alg = BPAlgebra(KTEST, BAR)
        return alg, VAC, [(GM, -2), (J, -1), (GP, -1)], [(GP, -1), (GM, -2)], alg.state_product_action
    if name == "bar-hw":
        alg = BPAlgebra(KTEST, BAR)
        return alg, HW, [(GM, -1), (L, -1), (GP, 0)], [(J, -1)], alg.state_product_action
    alg = weyl_algebra() if name == "weyl" else fermionic_algebra()
    if name == "weyl":
        return alg, VAC, [("a-", -1), ("a+", -2), ("a+", -1)], [("a+", -1), ("a-", -1)], alg.product
    return alg, VAC, [("c", -1), ("P+", -2), ("P+", -1)], [("P+", -1), ("P-", -1)], alg.product


@pytest.mark.parametrize("name", ["bar-vac", "bar-hw", "weyl", "fermionic"])
def test_returned_states_do_not_alias_memo_tables(name):
    """Mutating a returned state leaves the shared memo tables intact."""
    alg, base, word, u_word, product = _memo_case(name)
    calls = [
        lambda: alg.apply_mode(word[0], alg.normal_form(word[1:], base=base)),
        lambda: alg.normal_form(word, base=base),
        lambda: product(alg.normal_form(u_word), 0, alg.normal_form(word, base=base)),
        lambda: product(alg.normal_form(u_word), 0, alg.normal_form(word[-1:], base=base)),
    ]
    for call in calls:
        first = call()
        expected = first.copy()
        assert not expected.is_zero()
        for mono in list(first.terms):
            first.add_term(mono, 1)
        first.add_term(((word[0][0], -9),), 1)
        assert call() == expected
