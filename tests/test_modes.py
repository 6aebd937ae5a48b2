import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from bpalgebra import singular
from bpalgebra.arith import Poly2, residue
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
    _mode_key,
    mode_str,
    parse_mode,
    substitute,
)
from bpalgebra.tables import omega3, omega3_bar, omega4, omega4_bar

from helpers import (
    check_bracket_consistency,
    check_confluence,
    check_grading,
    check_spectral_flow_brackets,
    falling_binomial,
    random_mode,
    reference_mono_product,
    reference_omega_bracket,
    spectral_flow_mode,
)

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
    assert br.linear == (((J, 2), Q(1)),) and br.scalar == 0
    br = om.bracket((L, 2), (GP, -1))
    assert br.linear == (((GP, 1), Q(2, 2) + 1 + Q(1, 2)),)
    br = om.bracket((GP, 1), (GM, 0))
    assert br.j2 == ((0, Q(3)),)
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
    combo, scalar = spectral_flow_mode(bar, (GP, 0))
    assert combo == [((GP, -1), 1)] and scalar == 0
    combo, scalar = spectral_flow_mode(bar, (J, 1))
    assert combo == [((J, 1), 1)] and scalar == 0
    combo, scalar = spectral_flow_mode(bar, (L, 0))
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
    assert br.linear == (((GM, 1), Q(-1)),) and not br.j2
    br = bar.bracket((L, 2), (J, -2))
    assert br.linear == (((J, 0), Q(2)),)
    assert br.scalar == -lam * 3  # -(lam) m(m+1)/2 at m = 2
    br = bar.bracket((L, 3), (GP, -1))
    assert br.linear == (((GP, 2), Q(1)),)
    br = bar.bracket((L, 3), (GM, -1))
    assert br.linear == (((GM, 2), Q(4)),)
    br = bar.bracket((GP, 1), (GM, -1))
    assert br.j2 == ((0, Q(3)),)
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
    # apply_bracket adds into a state of its own: never the argument's.
    unit, nonzero = alg.state_type, 0
    for m in [(gen, -n - 1) for gen, n in word + u_word]:
        for head in word:
            rest = unit(base=base, terms={(): unit.lift(1)})
            out = alg.apply_bracket(alg.bracket(m, head), rest)
            assert out is not rest and out.terms is not rest.terms
            nonzero += not out.is_zero()
            out.add_term(((word[0][0], -9),), 1)
            assert rest.terms == {(): unit.lift(1)}
    assert nonzero
    if isinstance(alg, BPAlgebra):
        # Memoized brackets are frozen and hold tuples.
        pair = ((GP, 1), (GM, -1))
        first = alg.bracket(*pair)
        scalar = first.scalar
        with pytest.raises(AttributeError):
            first.scalar = Q(1)
        assert first.scalar == scalar and alg.bracket(*pair) is first
        with pytest.raises(AttributeError):
            first.linear.append(((J, 0), Q(1)))
        assert alg.bracket(*pair) is first
        assert first == BPAlgebra(alg.k, alg.convention).bracket(*pair)


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_memoized_brackets_match_a_fresh_algebra(grading):
    """bracket() answers from its memo exactly as a fresh algebra computes."""
    rng = random.Random(31)
    gens = (J, L, GP, GM)
    for level in (KTEST, Q(-9, 4), Q(-1), Q(0), Q(rng.randint(-20, 20), rng.randint(1, 9))):
        alg = BPAlgebra(level, grading)
        pairs = [((rng.choice(gens), rng.randint(-5, 5)), (rng.choice(gens), rng.randint(-5, 5)))
                 for _ in range(150)]
        first = [alg.bracket(a, b) for a, b in pairs]
        again = [alg.bracket(a, b) for a, b in pairs]
        assert all(x is y for x, y in zip(first, again))
        for (a, b), br in zip(pairs, again):
            assert br == BPAlgebra(level, grading).bracket(a, b), (level, a, b)


def _reference_bar_bracket(omega, a, b):
    """The bar bracket derived term by term from the omega engine ``omega``
    over Q: every product and every zero sum of the substitution taken, as
    the derivation stood before it skipped them."""
    linear_acc, j2_acc, scalar = {}, {}, Q(0)
    for ma, ca in substitute(a, BAR, OMEGA):
        for mb, cb in substitute(b, BAR, OMEGA):
            piece = omega.bracket(ma, mb)
            cc = ca * cb
            scalar += cc * piece.scalar
            for p, coeff in piece.j2:
                j2_acc[p] = j2_acc.get(p, Q(0)) + cc * coeff
            for md, coeff in piece.linear:
                for md2, c2 in substitute(md, OMEGA, BAR):
                    linear_acc[md2] = linear_acc.get(md2, Q(0)) + cc * coeff * c2
    return (
        tuple(sorted(((p, c) for p, c in j2_acc.items() if c), key=lambda t: t[0])),
        tuple(sorted(((md, c) for md, c in linear_acc.items() if c), key=lambda t: _mode_key(t[0]))),
        scalar,
    )


@pytest.mark.parametrize("level", [KTEST, Q(-9, 4), Q(0), Q(random.Random(21).randint(-40, 40), 7)])
def test_bar_brackets_match_the_term_by_term_derivation(level):
    """Every bar bracket of two generator modes, indices -6..6, equals the
    term-by-term derivation: the same (J^2)_p markers, linear terms in the
    same order and the same central term."""
    alg, omega = singular._ScalarAlgebra(level, BAR), singular._ScalarAlgebra(level, OMEGA)
    modes = [(gen, n) for gen in (J, L, GP, GM) for n in range(-6, 7)]
    seen = {"j2": 0, "scalar": 0}
    for a in modes:
        for b in modes:
            br = alg.bracket(a, b)
            assert (br.j2, br.linear, br.scalar) == _reference_bar_bracket(omega, a, b), (a, b)
            assert type(br.scalar) is Q and all(type(c) is Q for _, c in br.j2 + br.linear)
            seen["j2"] += bool(br.j2)
            seen["scalar"] += bool(br.scalar)
    assert min(seen.values()) >= 20, seen


_CLOSED_FORM_LEVELS = [KTEST, Q(-9, 4), Q(0), Q(random.Random(27).randint(-40, 40), 11)]


@pytest.mark.parametrize("level", _CLOSED_FORM_LEVELS)
def test_omega_brackets_match_the_table_written_case_by_case(level):
    """The omega closed forms, from the table as data, equal the printed
    relations written out case by case, for every pair with indices -6..6;
    the warm engine's brackets equal a fresh engine's."""
    alg = singular._ScalarAlgebra(level, OMEGA)
    modes = [(gen, n) for gen in (J, L, GP, GM) for n in range(-6, 7)]
    for a in modes:
        for b in modes:
            br = alg.bracket(a, b)
            j2, linear, scalar = reference_omega_bracket(alg, a, b)
            assert (br.j2, br.linear, br.scalar) == (j2, tuple(sorted(linear, key=lambda t: _mode_key(t[0]))), scalar)
            assert br == singular._ScalarAlgebra(level, OMEGA).bracket(a, b)


@pytest.mark.parametrize("grading", [BAR, OMEGA])
@pytest.mark.parametrize("level", _CLOSED_FORM_LEVELS)
def test_brackets_agree_across_the_three_rings(level, grading):
    """On random pairs with indices -6..6, the GF(p) engine's brackets are the
    residues of the Q engine's, and the Q[x,y] engine's are their constant
    lifts; the warm Q engine's equal a fresh Q engine's.  Half the pairs
    have total index 0 or 1, where the central terms live."""
    rng = random.Random(f"{level} {grading}")
    gens = (J, L, GP, GM)
    scalar, modp = singular._ScalarAlgebra(level, grading), singular._ModPAlgebra(level, grading)
    poly = BPAlgebra(level, grading)
    seen = {"j2": 0, "linear": 0, "scalar": 0}
    for _ in range(400):
        m = rng.randint(-5, 6)
        a, b = (rng.choice(gens), m), (rng.choice(gens), rng.choice([-m, 1 - m, rng.randint(-6, 6)]))
        want = scalar.bracket(a, b)
        assert want == singular._ScalarAlgebra(level, grading).bracket(a, b)
        for engine, lift, ring in ((modp, residue, int), (poly, Poly2.const, Poly2)):
            got = engine.bracket(a, b)
            assert got.j2 == tuple((p, lift(c)) for p, c in want.j2), (engine, a, b)
            assert got.linear == tuple((md, lift(c)) for md, c in want.linear), (engine, a, b)
            assert got.scalar == lift(want.scalar), (engine, a, b)
            assert all(type(c) is ring for _, c in got.j2 + got.linear + ((None, got.scalar),))
        seen["j2"] += bool(want.j2)
        seen["linear"] += bool(want.linear)
        seen["scalar"] += bool(want.scalar)
    assert min(seen.values()) >= 5, seen


def test_closed_forms_are_derived_on_the_first_bracket_miss_only():
    """Importing the CLI and constructing algebras derives no closed form; a
    bracket miss derives its own pair's form once, for every engine."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import bpalgebra.cli\n"
        "from bpalgebra import modes, singular\n"
        "derived = lambda: modes.closed_form.cache_info().currsize + modes._omega_relation.cache_info().currsize\n"
        "algebras = [modes.BPAlgebra('-5/3', g) for g in ('bar', 'omega')] + list(singular._engines(modes.Q(-5, 3), 'bar'))\n"
        "out = [derived()]\n"
        "for alg in algebras[:1] + algebras[2:]:\n"
        "    alg.bracket(('L', 1), ('G-', -2))\n"
        "    out.append(modes.closed_form.cache_info().currsize)\n"
        "algebras[1].bracket(('L', 1), ('G-', -2))\n"
        "out.append(modes.closed_form.cache_info().currsize)\n"
        "print(out)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[0, 1, 1, 1, 2]\n"), done.stderr


def _commutator_formula_case(name):
    """(algebra, product, generators, composite vacuum words u, (base, word) for w)."""
    from bpalgebra.freefield import fermionic_algebra

    if name == "bar":
        alg = BPAlgebra(KTEST, BAR)
        us = [[(J, -1), (J, -1)], [(L, -2), (J, -1)], [(GP, -1), (GM, -2)], [(J, -2), (GP, -1)]]
        ws = [(VAC, []), (VAC, [(GM, -2)]), (HW, []), (HW, [(GP, 0)])]
        return alg, alg.state_product_action, (J, L, GP, GM), us, ws
    alg = fermionic_algebra()
    # Odd and even composites, so that both Koszul signs occur.
    us = [[("P+", -1), ("P-", -1)], [("b", -1), ("c", -2)], [("P+", -2), ("b", -1), ("c", -1)]]
    ws = [(VAC, []), (VAC, [("P-", -1)]), (VAC, [("c", -1), ("P+", -2)])]
    return alg, alg.product, ("P+", "P-", "b", "c"), us, ws


@pytest.mark.parametrize("name", ["bar", "fermionic"])
def test_iterate_recursion_obeys_the_borcherds_commutator_formula(name):
    """[a_(m), u_(n)] w = sum_j C(m, j) (a_(j) u)_(m+n-j) w for a generator a
    and composite u, the bracket taken with the Koszul sign (-1)^(|a||u|).

    The modes of a are single-mode insertions, so the iterate recursion
    behind u_(n) is checked against an identity it does not encode; negative
    m gives negative upper binomial arguments and both signs."""
    alg, product, gens, us, ws = _commutator_formula_case(name)
    indices = range(-3, 3)
    nonzero = signs = 0
    for gen in gens:
        for uword in us:
            u = alg.normal_form(uword)
            odd = alg.parity(gen) and alg.monomial_parity(tuple(uword))
            signs += bool(odd)
            # a_(j) u vanishes once its weight wt(a) + wt(u) - j - 1 is negative.
            a_u = [alg.apply_mode(alg.product_mode(gen, j), u) for j in range(8)]
            assert a_u[-1].is_zero()
            for base, wword in ws:
                w = alg.normal_form(wword, base=base)
                for m in indices:
                    a_m = alg.product_mode(gen, m)
                    a_w = alg.apply_mode(a_m, w)
                    for n in indices:
                        lhs = alg.apply_mode(a_m, product(u, n, w)) - product(u, n, a_w).scaled(-1 if odd else 1)
                        rhs = alg.state_type(base=base)
                        for j, state in enumerate(a_u):
                            if not state.is_zero():
                                rhs = rhs + product(state, m + n - j, w).scaled(falling_binomial(m, j))
                        assert lhs == rhs, (gen, uword, wword, m, n)
                        nonzero += not lhs.is_zero()
    assert nonzero >= 100, nonzero
    assert bool(signs) == (name == "fermionic")  # the BP generators are even


def _suite_engine(suite, level, monkeypatch):
    """The engine whose products a suite computed, and a fresh one like it."""
    from bpalgebra import cli
    from bpalgebra.freefield import check_embedding, embedding_for_level, fermionic_algebra, weyl_algebra

    if suite == "freefield":
        emb = embedding_for_level(level)
        assert all(ok for _, ok, _, _ in check_embedding(emb))
        return emb.algebra, {"weyl": weyl_algebra, "fermionic": fermionic_algebra}[emb.algebra.name]()
    engines = []

    def record(*args):
        engines.append(BPAlgebra(*args))
        return engines[-1]

    monkeypatch.setattr(cli, "BPAlgebra", record)
    assert cli.main(["zhu", "--level", level, "--format", "json"]) == 0
    (engine,) = engines
    return engine, BPAlgebra(engine.k, engine.convention)


@pytest.mark.parametrize(
    "suite, level",
    [("zhu", "-5/3"), ("zhu", "-9/4"), ("zhu", "-1"), ("freefield", "-5/3"), ("freefield", "0")],
)
def test_iterate_recursion_matches_the_apply_mode_reference(suite, level, monkeypatch):
    """Every entry of the action memo that the suite's products leave (Zhu
    products, projections and Smith relations; the free-field OPE tables)
    equals the iterate recursion run through apply_mode on temporary states,
    on a fresh engine.  The fermionic realization has odd heads over odd
    tails, where the Koszul sign is -1."""
    engine, fresh = _suite_engine(suite, level, monkeypatch)
    memo = {}
    odd = 0
    for key, pairs in engine._action_memo.items():
        assert dict(pairs) == dict(reference_mono_product(fresh, *key, memo)), key
        umono = key[0]
        odd += bool(umono) and bool(engine.parity(umono[0][0]) and engine.monomial_parity(umono[1:]))
    assert len(engine._action_memo) >= 20, len(engine._action_memo)
    assert bool(odd) == (level == "0"), odd


def test_monomial_weight_is_memoized_per_engine():
    """Asked twice, monomial_weight equals the sum of weight on random
    monomials of each engine; the engines are asked in turn, and G+- have
    different weights in the two gradings, so a memo shared between engines
    would fail."""
    from bpalgebra.freefield import fermionic_algebra, weyl_algebra

    rng = random.Random(25)
    bp_monos = [tuple(random_mode(rng, -4, 2) for _ in range(rng.randint(0, 5))) for _ in range(300)]
    ff_monos = {
        name: [tuple((rng.choice(gens), rng.randint(-4, 2)) for _ in range(rng.randint(0, 5))) for _ in range(300)]
        for name, gens in (("weyl", ("a+", "a-")), ("fermionic", ("P+", "P-", "b", "c")))
    }
    engines = [(BPAlgebra(KTEST, BAR), bp_monos), (BPAlgebra(KTEST, OMEGA), bp_monos),
               (weyl_algebra(), ff_monos["weyl"]), (fermionic_algebra(), ff_monos["fermionic"])]
    for i in range(300):
        for alg, monos in engines:
            mono = monos[i]
            want = sum((alg.weight(m) for m in mono), Q(0))
            for _ in range(2):
                got = alg.monomial_weight(mono)
                assert got == want and type(got) is Q, (alg, mono, got, want)
    bar_eng, om_eng = engines[0][0], engines[1][0]
    assert any(bar_eng.monomial_weight(m) != om_eng.monomial_weight(m) for m in bp_monos)


def test_floor_sum_matches_math_floor():
    """The recursion's loop bounds by integer floor division equal math.floor
    of the Fraction sums, on every pair of weights in (1/2)Z from 0 to 8
    (and some thirds and negatives) and every p from -6 to 6."""
    from bpalgebra.modes import _floor_sum

    weights = [Q(i, 2) for i in range(17)] + [Q(-7, 2), Q(-1, 3), Q(5, 3), -Q(8, 3)]
    for a in weights:
        for b in weights:
            for p in range(-6, 7):
                got = _floor_sum(a, b, -p)
                assert got == math.floor(a + b - p) and type(got) is int, (a, b, p)
            assert _floor_sum(a, b, 1) == math.floor(a + b) + 1, (a, b)


def _visited_case(name):
    """(fresh algebra, its product, [(u, p, w)]) for the visited-set check."""
    from bpalgebra.freefield import expected_products, fermionic_algebra, fermionic_embedding, weyl_algebra, weyl_embedding

    if name == "bar":
        alg = BPAlgebra(KTEST, BAR)
        us = [alg.normal_form(w) for w in ([(J, -1), (J, -1)], [(L, -2)], [(GP, -1), (GM, -2)], [(J, -2), (GP, -1)])]
        ws = [alg.normal_form(w, base=b) for b, w in ((VAC, [(GM, -2)]), (HW, []), (HW, [(GP, 0), (J, -1)]))]
        return alg, alg.state_product_action, [(u, p, w) for u in us for w in ws for p in range(-2, 3)]
    # The OPE table's states, built by an engine of their own.
    emb, alg = (weyl_embedding(), weyl_algebra()) if name == "weyl" else (fermionic_embedding(), fermionic_algebra())
    return alg, alg.product, [(left, n, right) for _, left, n, right, _ in expected_products(emb)]


@pytest.mark.parametrize("name", ["bar", "weyl", "fermionic"])
def test_iterate_recursion_visits_what_the_reference_visits(name):
    """A fresh engine's action memo holds exactly the (u, p, w) entries that
    the Fraction-weight reference recursion asks for, from the same
    top-level products, and its insertion memo the same insertions: the
    loop bounds are tight, so neither sum of the recursion requests a
    product or an insertion it could skip, nor skips one it needs."""
    alg, product, cases = _visited_case(name)
    ref_alg, _, _ = _visited_case(name)
    memo = {}
    for u, p, w in cases:
        product(u, p, w)
        for umono in u.terms:
            for wmono in w.terms:
                reference_mono_product(ref_alg, umono, p, wmono, w.base, memo)
    assert len(memo) >= 50, len(memo)
    assert set(alg._action_memo) == set(memo)
    assert set(alg._insert_memo) == set(ref_alg._insert_memo)
    for key, pairs in alg._action_memo.items():
        assert dict(pairs) == dict(memo[key]), key
