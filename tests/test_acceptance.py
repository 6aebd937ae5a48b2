"""Acceptance suite: every criterion is exact rational equality, no tolerances.

Each criterion is one test that prints a single PASS line (visible with -v /
-s); two additional strict-xfail tests document, with witnesses, the two
places where the stated expectations disagree with values the engine (and
independent hand derivation) force; see notes in the individual tests.
"""

import time
from fractions import Fraction as Q

import pytest

from bpalgebra.arith import Poly1
from bpalgebra.modes import BAR, BPAlgebra, GM, GP, J, L, OMEGA, VAC
from bpalgebra.singular import (
    AnnihilatorSet,
    find_singular,
    integral_level_vector,
    scale_to_match,
    verify_singular,
)
from bpalgebra.tables import (
    golden_classify,
    golden_poly,
    golden_zhu,
    omega3,
    omega3_bar,
    omega4,
    omega4_bar,
    table_words,
)
from bpalgebra.weightspace import enumerate_basis
from bpalgebra.zhu import (
    SmithAlgebra,
    ZhuReducer,
    h_in_i,
    smith_relation,
    zero_mode_poly,
    zhu_star,
)
from bpalgebra.classify import classify_level
from bpalgebra.freefield import (
    check_embedding,
    embedding_for_level,
    push_state,
    weyl_charge_decomposition,
)

import helpers


def _report(n, text):
    print(f"CRITERION {n}: PASS -- {text}")


_RANK = {L: 0, J: 1, GP: 2, GM: 3}


def _printed_coefficients(state, table_name):
    """Coefficients in the golden table's printed monomial order."""
    _, _, words = table_words(table_name)
    out = []
    for word, _ in words:
        mono = tuple(sorted(word, key=lambda m: (_RANK[m[0]], -m[1])))
        out.append(state.coefficient(mono).const_value())
    return out


def test_criterion_1_singular_vectors():
    t0 = time.time()
    sol4 = find_singular(Q(-5, 3), 4, 0, OMEGA)
    assert sol4.dimension == 1
    rep4 = scale_to_match(sol4.vectors[0], ((L, -2), (L, -2)), Q(-62, 9))
    assert rep4 == omega4()
    coeffs = _printed_coefficients(rep4, "omega4")
    assert coeffs == [Q(-62, 9), Q(14, 3), -18, 54, -130, Q(33, 2), 13, -12, 46, -1, 1, -18]
    t4 = time.time() - t0
    t0 = time.time()
    sol3 = find_singular(Q(-9, 4), 3, 0, OMEGA)
    assert sol3.dimension == 1
    rep3 = scale_to_match(sol3.vectors[0], ((L, -3),), Q(3, 8))
    assert rep3 == omega3()
    t3 = time.time() - t0
    assert t4 < 30 and t3 < 30
    _report(1, f"weight-4 and weight-3 kernels are 1-dimensional and match the "
               f"printed tables exactly ({t4:.2f}s / {t3:.2f}s)")


def test_criterion_2_convention_rewrite():
    om = BPAlgebra(Q(-5, 3), OMEGA)
    bar = BPAlgebra(Q(-5, 3), BAR)
    converted = om.convert(omega4(om), bar)
    golden = omega4_bar(bar)
    assert converted == golden
    coeffs = _printed_coefficients(converted, "omega4_bar")
    assert coeffs == [Q(-62, 9), Q(14, 3), -18, 31, -118, Q(133, 9), Q(-8, 9),
                      Q(62, 9), -12, 46, -1, 1, -18]
    _report(2, "the mode-convention rewrite of the weight-4 vector matches the "
               "shifted table term-for-term (13 coefficients)")


def test_criterion_3_integral_levels():
    # (a) The highest-weight annihilator set gives singular iff n = k + 2.
    strict = AnnihilatorSet.default(BAR, include_gm0=True)
    for k in (-1, 0, 1, 2, 3):
        bar = BPAlgebra(k, BAR)
        for side in "+-":
            for n in range(1, 6):
                vec = integral_level_vector(bar, side, n)
                ok, _ = verify_singular(bar, vec, strict)
                assert ok == (n == k + 2), (k, side, n)
    # (b) Default (strictly-positive-modes) set: same pattern except the two
    # descendant vectors that genuinely are singular; see the xfail below.
    descendants = {(-1, "+", 2), (0, "+", 4)}
    for k in (-1, 0, 1, 2, 3):
        bar = BPAlgebra(k, BAR)
        for side in "+-":
            for n in range(1, 6):
                vec = integral_level_vector(bar, side, n)
                ok, _ = verify_singular(bar, vec)
                assert ok == (n == k + 2 or (k, side, n) in descendants), (k, side, n)
    # (c) The two inductive closed forms, n <= 5, several rational levels.
    for k in (Q(7, 5), Q(-1), Q(0), Q(3), Q(-13, 6)):
        alg = BPAlgebra(k, BAR)
        for n in range(1, 6):
            gp_n = alg.normal_form([(GP, -1)] * n)
            gm_n = alg.normal_form([(GM, -2)] * n)
            assert alg.apply_mode((GM, 1), gp_n) == alg.normal_form(
                [(GP, -1)] * (n - 1), coeff=-n * (k - (n - 2)) * (2 * k - (n - 4))
            )
            want = alg.normal_form(
                [(J, -1)] + [(GM, -2)] * (n - 1), coeff=3 * n * (k - (n - 2))
            )
            if n >= 2:
                want = want + alg.normal_form(
                    [(GM, -3)] + [(GM, -2)] * (n - 2), coeff=n * (n - 1) * (k - (n - 2))
                )
            assert alg.apply_mode((GP, 1), gm_n) == want
    _report(3, "integral-level families singular exactly at n = k+2 under the "
               "highest-weight annihilator set; induction closed forms hold for n <= 5")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated expectation: with the default annihilator set the families fail "
        "for every n != k+2; the engine proves G+(-1)^2 at k=-1 and G+(-1)^4 at "
        "k=0 are genuinely singular (the obstruction -n(k-(n-2))(2k-(n-4)) has "
        "the second factor vanishing there), so the blanket claim is false"
    ),
)
def test_criterion_3_default_set_literal_reading():
    for k in (-1, 0, 1, 2, 3):
        bar = BPAlgebra(k, BAR)
        for side in "+-":
            for n in range(1, 6):
                ok, _ = verify_singular(bar, integral_level_vector(bar, side, n))
                assert ok == (n == k + 2), (k, side, n)


def test_criterion_4_zhu_projections():
    bar = BPAlgebra(Q(-5, 3), BAR)
    assert zero_mode_poly(bar, omega4_bar(bar), OMEGA) == golden_poly("U")
    om = BPAlgebra(Q(-5, 3), OMEGA)
    assert zero_mode_poly(om, omega4(om), OMEGA) == golden_poly("U")
    bar94 = BPAlgebra(Q(-9, 4), BAR)
    assert zero_mode_poly(bar94, omega3_bar(bar94), OMEGA) == golden_poly("V")
    _report(4, "zero-mode projections reproduce U(x,y) and V(x,y) exactly")


def test_criterion_5_smith_layer():
    from bpalgebra.modes import parse_mode

    for k in (Q(-5, 3), Q(-9, 4), Q(1)):
        bar = BPAlgebra(k, BAR)
        sm = SmithAlgebra(k)
        red = ZhuReducer(bar)
        jst, gp = bar.normal_form([(J, -1)]), bar.normal_form([(GP, -1)])
        gm, om = bar.normal_form([(GM, -2)]), bar.normal_form([(L, -2)])

        def comm(a, b):
            return red.reduce_state(zhu_star(bar, a, b) - zhu_star(bar, b, a))

        assert comm(jst, gp) == sm.E()
        assert comm(jst, gm) == sm.F()
        assert comm(jst, om).is_zero()
        assert comm(gp, gm) == sm.word(0, sm.g, 0).scaled(-1)
        assert comm(gp, om).is_zero()
        assert comm(gm, om).is_zero()
    bar = BPAlgebra(Q(-5, 3), BAR)
    sm = SmithAlgebra(Q(-5, 3))
    vec = omega4_bar(bar)
    twice = bar.apply_mode((GP, 0), bar.apply_mode((GP, 0), vec))
    want = bar.state_from_words(
        [([parse_mode(t) for t in w], Q(c)) for w, c in golden_zhu()["gp0_squared_omega4_bar"]]
    )
    assert twice == want
    rel = smith_relation(bar, vec, 2)
    assert rel == (sm.E() * sm.E() * (sm.Y() + sm.one().scaled(Q(1, 9)))).scaled(44)
    bar94 = BPAlgebra(Q(-9, 4), BAR)
    sm94 = SmithAlgebra(Q(-9, 4))
    rel94 = smith_relation(bar94, omega3_bar(bar94), 1)
    c_engine = Q(3, 4)  # engine-derived constant, frozen as a golden value
    assert rel94 == (sm94.E() * (sm94.Y() + sm94.one().scaled(Q(1, 2)))).scaled(c_engine)
    assert not rel94.is_zero()
    _report(5, "six generator bracket identities at three levels, the five-term "
               "expansion, and both Smith relations (constants 44 and 3/4)")


def test_criterion_6_classification():
    for level, key in ((Q(-5, 3), "-5/3"), (Q(-9, 4), "-9/4")):
        ws = classify_level(level)
        golden = golden_classify()[key]
        assert ws.finite_top == [(Q(a), Q(b)) for a, b in golden["finite_top"]]
        assert ws.infinite_top == [(Q(a), Q(b)) for a, b in golden["infinite_top"]]
        excluded = sorted({w for br in ws.branches for (w, _) in br.excluded})
        assert excluded == sorted((Q(a), Q(b)) for a, b in golden["excluded"])
        for br in ws.branches:
            assert br.solutions or br.name == "boundary-y"
        assert all(ok for _, ok in ws.identities)
    ws1 = classify_level(Q(-1))
    assert all(ok for _, ok in ws1.identities)
    ws0 = classify_level(Q(0))
    assert all(ok for _, ok in ws0.identities)
    assert ws0.flags  # the (x=0, i=1) indecomposable corner is flagged
    _report(6, "classification sets 6+3 and 3+3 with audited branches and "
               "exclusions; the parabola at level -1; both families and the "
               "indecomposable corner at level 0")


# The six printed certificate polynomials in i.  The first one is stored here
# with constant -2/9 where the source prints +2/9: the printed value
# contradicts the source's own definition of the h-polynomials (verified two
# independent ways in test_criterion_7_paper_printed_variant below); the
# nonvanishing conclusion is unaffected.
_CERTIFICATES = [
    (Q(-5, 3), Q(1, 9), Q(-1, 9), [Q(-2, 9), 1, -1]),
    (Q(-5, 3), Q(4, 9), Q(-1, 9), [Q(1, 9), 0, -1]),
    (Q(-5, 3), Q(7, 9), Q(-1, 9), [Q(-2, 9), -1, -1]),
    (Q(-9, 4), Q(0), Q(-1, 2), [Q(-1, 8), Q(3, 4), -1]),
    (Q(-9, 4), Q(1, 2), Q(-1, 2), [Q(-1, 8), Q(-3, 4), -1]),
    (Q(-9, 4), Q(1, 4), Q(-1, 2), [Q(1, 16), 0, -1]),
]


def test_criterion_7_h_certificates():
    for k, x0, y0, coeffs in _CERTIFICATES:
        assert h_in_i(k, x0, y0) == Poly1(coeffs, var="i")
    # no positive-integer roots anywhere
    from bpalgebra.arith import rational_roots

    for k, x0, y0, _ in _CERTIFICATES:
        roots, cof = rational_roots(h_in_i(k, x0, y0))
        assert cof.is_const() or all(r <= 0 or r.denominator > 1 for r in roots)
        assert not any(r.denominator == 1 and r > 0 for r in roots)
    _report(7, "all six certificate polynomials in i reproduce exactly (one "
               "printed constant corrected from +2/9 to -2/9, see ledger) and "
               "none has a positive integer root")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated expectation: h_i at (1/9, -1/9), level -5/3, equals 2/9 + i - i^2 "
        "as printed; summing the defining polynomial g over the shifted "
        "arguments gives -2/9 + i - i^2 (also forced by the printed closed form "
        "of h_i), so the printed constant has a sign typo"
    ),
)
def test_criterion_7_paper_printed_variant():
    assert h_in_i(Q(-5, 3), Q(1, 9), Q(-1, 9)) == Poly1([Q(2, 9), 1, -1], var="i")


def test_criterion_8_free_fields():
    t0 = time.time()
    emb = embedding_for_level(Q(-5, 3))
    w = emb.algebra
    gp, gm, jimg, om = emb.images[GP], emb.images[GM], emb.images[J], emb.images["T"]
    assert w.product(gp, 2, gm) == w.unit().scaled(Q(2, 9))
    assert w.product(gp, 1, gm) == jimg.scaled(-2)
    assert w.product(gp, 0, gm) == (
        w.product(jimg, -1, jimg).scaled(3) - w.translate(jimg) - om.scaled(Q(4, 3))
    )
    assert w.product(om, 3, om) == w.unit().scaled(Q(-1, 2))  # c = -1
    rows = check_embedding(emb)
    assert all(ok for _, ok, _, _ in rows)
    dims = weyl_charge_decomposition(4)
    om_eng = BPAlgebra(Q(-5, 3), OMEGA)
    assert dims[(Q(4), Q(0))] == 12
    assert len(enumerate_basis(om_eng, VAC, 4, 0)) == 13
    assert push_state(emb, om_eng, omega4(om_eng)).is_zero()
    femb = embedding_for_level(Q(0))
    rows0 = check_embedding(femb)
    assert all(ok for _, ok, _, _ in rows0)
    assert femb.algebra.product(femb.images["T"], 3, femb.images["T"]) == (
        femb.algebra.unit().scaled(Q(-1, 2))
    )  # c_0 = -1
    bar0 = BPAlgebra(0, BAR)
    assert push_state(femb, bar0, bar0.normal_form([(GP, -1)] * 2)).is_zero()
    assert push_state(femb, bar0, bar0.normal_form([(GM, -2)] * 2)).is_zero()
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(8, f"all free-field identities, central charges -1, dimensions "
               f"12 vs 13, and all singular-vector images vanish ({elapsed:.2f}s)")


def test_criterion_9_property_suites():
    bar = BPAlgebra(Q(-5, 3), BAR)
    helpers.check_bracket_consistency(bar, 100, seed=1001)
    helpers.check_grading(bar, 100, seed=1002)
    helpers.check_confluence(bar, 100, seed=1003)
    helpers.check_spectral_flow_brackets(bar, 100, seed=1004)
    helpers.check_zhu_multiplicativity(bar, 100, seed=1005)
    _report(9, "bracket consistency, grading, normal-form confluence, flow-"
               "bracket compatibility, and reduction multiplicativity: "
               "100 randomized cases each, fixed seeds")
