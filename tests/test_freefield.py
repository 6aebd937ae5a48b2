import random
from fractions import Fraction as Q

import pytest

from bpalgebra.freefield import (
    Embedding,
    FFAlgebra,
    FFGenerator,
    FFState,
    check_embedding,
    clifford_sf_embedding_checks,
    embedding_for_level,
    fermionic_algebra,
    fermionic_embedding,
    hw_weight_of,
    push_state,
    weyl_algebra,
    weyl_charge_decomposition,
    weyl_embedding,
)
from bpalgebra.modes import BAR, BPAlgebra, GM, GP, IntState, J, OMEGA, VAC
from bpalgebra.tables import omega4
from bpalgebra.weightspace import enumerate_basis

from helpers import reference_translate


def test_weyl_mode_products():
    w = weyl_algebra()
    cubes = w.normal_form([("a-", -1)] * 3)
    assert w.apply_mode(("a+", 0), cubes) == w.normal_form([("a-", -1)] * 2, coeff=3)
    out = cubes
    for _ in range(3):
        out = w.apply_mode(("a+", 0), out)
    assert out == w.unit().scaled(6)


def test_ff_product_unit():
    w = weyl_algebra()
    s = w.normal_form([("a+", -2), ("a-", -1)])
    assert w.product(w.unit(), -1, s) == s
    assert w.product(w.unit(), 0, s).is_zero()


def test_generator_mode_commutators_random():
    """Modes of the generators satisfy the pairing table on random states."""
    rng = random.Random(31)
    for alg in (weyl_algebra(), fermionic_algebra()):
        gens = list(alg.generators)
        for _ in range(40):
            g1, g2 = rng.choice(gens), rng.choice(gens)
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            word = [(rng.choice(gens), rng.randint(-2, -1)) for _ in range(rng.randint(0, 3))]
            s = alg.normal_form(word)
            if s.is_zero():
                continue
            sign = -1 if alg.parity(g1) and alg.parity(g2) else 1
            lhs = alg.apply_mode((g1, m), alg.apply_mode((g2, n), s)) - alg.apply_mode(
                (g2, n), alg.apply_mode((g1, m), s)
            ).scaled(sign)
            pair = alg._pairing((g1, m), (g2, n))
            assert lhs == s.scaled(pair), (g1, m, g2, n, word)


@pytest.mark.parametrize("make", [weyl_algebra, fermionic_algebra])
def test_apply_bracket_is_the_supercommutator(make):
    """apply_bracket(bracket(a, b), s) == a(b s) - (-1)^{|a||b|} b(a s) on
    random states: the pairing reaches normal ordering through ``bracket``."""
    alg = make()
    rng = random.Random(f"bracket-{alg.name}")
    gens = list(alg.generators)
    nonzero = 0
    for _ in range(60):
        a = (rng.choice(gens), rng.randint(-3, 2))
        b = (rng.choice(gens), rng.randint(-3, 2))
        paired = [(g, n) for g in gens for n in range(-3, 3) if alg._pairing(a, (g, n))]
        if paired and rng.random() < 0.5:  # half the pairs with a nonzero pairing, where there is one
            b = rng.choice(paired)
        s = FFState()
        for _ in range(rng.randint(1, 3)):
            word = [(rng.choice(gens), rng.randint(-3, -1)) for _ in range(rng.randint(0, 4))]
            s = s + alg.normal_form(word, coeff=Q(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        sign = -1 if alg.parity(a[0]) and alg.parity(b[0]) else 1
        lhs = alg.apply_mode(a, alg.apply_mode(b, s)) - alg.apply_mode(b, alg.apply_mode(a, s)).scaled(sign)
        got = alg.apply_bracket(alg.bracket(a, b), s)
        assert got == lhs, (a, b, s)
        assert type(got) is FFState and all(type(c) is Q for c in got.terms.values())
        nonzero += not got.is_zero()
    assert nonzero >= 15, nonzero


def test_lemma_products_weyl():
    emb = weyl_embedding()
    w = emb.algebra
    gp, gm, jimg, om = emb.images[GP], emb.images[GM], emb.images[J], emb.images["T"]
    assert w.product(gp, 2, gm) == w.unit().scaled(Q(2, 9))
    assert w.product(gp, 1, gm) == jimg.scaled(-2)
    expected = w.product(jimg, -1, jimg).scaled(3) - w.translate(jimg) - om.scaled(Q(4, 3))
    assert w.product(gp, 0, gm) == expected


def test_weyl_embedding_full_ope_table():
    rows = check_embedding(weyl_embedding())
    assert all(ok for _, ok, _, _ in rows)
    # central charge row: T(3)T = c/2 with c = -1
    label = [r for r in rows if r[0].startswith("T(3)T")][0][0]
    assert "c=-1" in label


def test_fermionic_embedding_full_ope_table():
    rows = check_embedding(fermionic_embedding())
    assert all(ok for _, ok, _, _ in rows)
    label = [r for r in rows if r[0].startswith("T(3)T")][0][0]
    assert "c=-1" in label


def _rescaled(emb, tp, tm):
    images = dict(emb.images)
    images[GP] = images[GP].scaled(tp)
    images[GM] = images[GM].scaled(tm)
    return Embedding(emb.name, emb.k, emb.algebra, images)


def _singular_images_vanish(emb):
    if emb.k == 0:
        bar = BPAlgebra(0, BAR)
        words = ([(GP, -1)] * 2, [(GM, -2)] * 2)
        return all(push_state(emb, bar, bar.normal_form(w)).is_zero() for w in words)
    om_eng = BPAlgebra(emb.k, OMEGA)
    return push_state(emb, om_eng, omega4(om_eng)).is_zero()


@pytest.mark.parametrize("make", [weyl_embedding, fermionic_embedding])
def test_charge_rescaling_preserves_the_realization(make):
    """G+ -> t G+, G- -> G-/t keeps every OPE; scaling G+ alone breaks G+G-."""
    emb = make()
    for t in (Q(2), Q(-1, 3)):
        scaled = _rescaled(emb, t, 1 / t)
        assert all(ok for _, ok, _, _ in check_embedding(scaled)), t
        assert _singular_images_vanish(scaled), t
    broken = check_embedding(_rescaled(emb, 2, 1))
    failed = {label for label, ok, _, _ in broken if not ok}
    assert failed and all("G+" in label and "G-" in label for label in failed)


def test_fermionic_images_are_rational():
    """The source sqrt(3) normalization under G+ -> G+/sqrt(3), G- -> sqrt(3) G-."""
    emb = fermionic_embedding()
    assert FFState.ring is Q
    assert emb.images[GP].terms == {(("P+", -1), ("b", -1)): 1}
    assert emb.images[GM].terms == {(("P-", -1), ("c", -1)): -3}
    for img in emb.images.values():
        assert all(type(c) is Q for c in img.terms.values())


def test_weyl_ideal_vanishing():
    emb = weyl_embedding()
    om_eng = BPAlgebra(Q(-5, 3), OMEGA)
    assert push_state(emb, om_eng, omega4(om_eng)).is_zero()
    assert not push_state(emb, om_eng, om_eng.normal_form([(J, -1)])).is_zero()


def test_fermionic_ideal_vanishing():
    emb = fermionic_embedding()
    bar = BPAlgebra(0, BAR)
    assert push_state(emb, bar, bar.normal_form([(GP, -1)] * 2)).is_zero()
    assert push_state(emb, bar, bar.normal_form([(GM, -2)] * 2)).is_zero()
    assert not push_state(emb, bar, bar.normal_form([(J, -1)])).is_zero()


def _weyl_series(max_twice_weight):
    """prod_{n>=0} 1/((1 - z q^(n+1/2)) (1 - z^-1 q^(n+1/2))), truncated.

    Returns {(2 * weight, power of z): coefficient}.
    """
    series = {tw: {} for tw in range(max_twice_weight + 1)}
    series[0][0] = 1
    for d in range(1, max_twice_weight + 1, 2):  # q^(n+1/2) with d = 2n + 1
        for charge in (1, -1):
            # Times 1/(1 - z^charge q^(d/2)), lowest weight first.
            for tw in range(d, max_twice_weight + 1):
                for c, v in series[tw - d].items():
                    series[tw][c + charge] = series[tw].get(c + charge, 0) + v
    return {(tw, c): v for tw, row in series.items() for c, v in row.items()}


@pytest.mark.parametrize("max_weight", [0, 1, 2, 3, 4, 5, 6, Q(5, 2)])
def test_weyl_charge_decomposition_matches_the_euler_product(max_weight):
    dims = weyl_charge_decomposition(max_weight)
    want = {(Q(tw, 2), Q(c, 3)): v for (tw, c), v in _weyl_series(int(2 * max_weight)).items()}
    assert dims == want
    # Equal int and Fraction keys compare equal, so the types are checked apart.
    assert all(type(w) is Q and type(c) is Q for w, c in dims)


def test_weyl_charge_decomposition():
    dims = weyl_charge_decomposition(4)
    assert dims[(Q(4), Q(0))] == 12
    assert dims[(Q(0), Q(0))] == 1
    om_eng = BPAlgebra(Q(-5, 3), OMEGA)
    assert len(enumerate_basis(om_eng, VAC, 4, 0)) == 13


def test_sector_highest_weights():
    emb = weyl_embedding()
    assert hw_weight_of(emb, emb.algebra.normal_form([("a+", -1)])) == (Q(1, 3), Q(1, 3))
    assert hw_weight_of(emb, emb.algebra.normal_form([("a-", -1)])) == (Q(-1, 3), Q(2, 3))
    # Also on states built with int coefficients: Fractions out, no float.
    for coeff in (1, -2, Q(-2, 5)):
        got = hw_weight_of(emb, FFState(terms={(("a+", -1),): coeff}))
        assert got == (Q(1, 3), Q(1, 3)) and all(type(v) is Q for v in got), (coeff, got)


def test_clifford_symplectic_conformal_embedding():
    rows = clifford_sf_embedding_checks()
    assert all(ok for _, ok in rows)


def test_embedding_for_level():
    assert embedding_for_level(Q(-5, 3)).name == "weyl"
    assert embedding_for_level(0).name == "fermionic"
    with pytest.raises(ValueError):
        embedding_for_level(Q(-1))


def test_named_wrappers():
    emb = weyl_embedding()
    w = emb.algebra
    assert w.product(w.unit(), -1, emb.images[J]) == emb.images[J]
    om_eng = BPAlgebra(Q(-5, 3), OMEGA)
    assert push_state(emb, om_eng, omega4(om_eng)).is_zero()
    assert not push_state(emb, om_eng, om_eng.normal_form([(J, -1)])).is_zero()


@pytest.mark.parametrize("make", [weyl_embedding, fermionic_embedding])
def test_free_field_memo_tables_hold_ints(make):
    """The free-field engines compute their memo tables over Z: after the
    whole OPE table every insertion and action memo coefficient is an int,
    and so is every pairing constant; the states stay over Q."""
    emb = make()
    alg = emb.algebra
    assert all(ok for _, ok, _, _ in check_embedding(emb))
    assert alg.memo_type is IntState and alg.state_type is FFState and FFState.ring is Q
    for memo in (alg._insert_memo, alg._action_memo):
        assert len(memo) >= 50, len(memo)
        assert all(type(c) is int for pairs in memo.values() for _, c in pairs)
    assert sum(bool(c) for pairs in alg._action_memo.values() for _, c in pairs) >= 100
    gens = list(alg.generators)
    brackets = [alg.bracket((a, m), (b, -m - d)) for a in gens for b in gens for m in range(-2, 3) for d in (0, 1)]
    assert all(type(br.scalar) is int for br in brackets) and any(br.scalar for br in brackets)
    assert type(alg.base_action((gens[0], 0), VAC)) is int


def _int_states(alg):
    """States of the algebra built with int coefficients, as a user may."""
    gens = list(alg.generators)
    monos = [((gens[0], -1),), ((gens[0], -2), (gens[1], -1)), ((gens[1], -1), (gens[-1], -1))]
    return [FFState(terms={mono: c}) for mono, c in zip(monos, (1, -2, 3))] + [FFState(terms={(): 1})]


@pytest.mark.parametrize("make", [weyl_algebra, fermionic_algebra])
def test_public_free_field_results_are_fractions(make):
    """product, apply_mode, normal_form, translate and apply_bracket return
    states over Q, with Fraction coefficients only, also on states built
    with int coefficients and for int scalars."""
    alg = make()
    gens = list(alg.generators)
    states = _int_states(alg)
    results = []
    for u in states:
        for w in states:
            results += [alg.product(u, p, w) for p in range(-2, 3)]
        results += [alg.apply_mode((g, n), u) for g in gens for n in range(-2, 3)]
        results.append(alg.translate(u))
        for a in gens:
            for b in gens:
                results += [alg.apply_bracket(alg.bracket((a, m), (b, -m - 1)), u) for m in range(-2, 2)]
                results.append(alg.apply_bracket(alg.bracket((a, 1), (b, -1)), u))
    results += [alg.normal_form([(g, -1), (gens[0], -2)], coeff=c) for g in gens for c in (1, -3)]
    nonzero = [s for s in results if not s.is_zero()]
    assert len(nonzero) >= 40, len(nonzero)
    for s in results:
        assert type(s) is FFState and all(type(c) is Q for c in s.terms.values()), s


@pytest.mark.parametrize("make", [weyl_embedding, fermionic_embedding])
def test_translate_matches_the_commutator_derivation(make):
    """D as the product a_(-2) 1 equals D by [D, x_(n)] = -n x_(n-1) on the
    realization's images, their pairwise (-1)-products and random states
    with int and Fraction coefficients; D 1 = 0, and every result is over Q."""
    emb = make()
    alg = emb.algebra
    images = list(emb.images.values())
    states = images + [alg.product(u, -1, w) for u in images for w in images]
    rng = random.Random(f"translate {alg.name}")
    gens = list(alg.generators)
    for _ in range(20):
        word = [(rng.choice(gens), -rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        monos = list(alg.normal_form(word).terms) + list(alg.normal_form(word[1:]).terms)
        states.append(FFState(terms={mono: rng.choice([-2, -1, 1, 3]) for mono in monos}))
        states.append(FFState(terms={mono: Q(rng.choice([-5, -1, 2, 7]), rng.randint(1, 9)) for mono in monos}))
    assert any(type(c) is int for s in states for c in s.terms.values())
    assert alg.translate(alg.unit()).is_zero() and reference_translate(alg, alg.unit()).is_zero()
    nonzero = 0
    for s in states:
        got = alg.translate(s)
        assert got == reference_translate(alg, s), s
        assert type(got) is FFState and all(type(c) is Q for c in got.terms.values()), s
        nonzero += not got.is_zero()
    assert nonzero >= 40, nonzero


def test_integer_memo_ring_never_truncates():
    """A pairing with a non-integral value raises instead of being truncated
    into the integer memo ring; an integral Fraction is taken exactly."""
    assert IntState.lift(Q(6, 3)) == 2 and type(IntState.lift(Q(6, 3))) is int
    assert IntState.lift(-4) == -4
    for bad in (Q(1, 2), Q(-7, 3), 0.5, 2.0, "1"):
        with pytest.raises((TypeError, ValueError), match="is not an integer"):
            IntState.lift(bad)

    def algebra(value):
        def pairing(ma, mb):
            return value if ma[1] + mb[1] + 1 == 0 else 0

        return FFAlgebra("half", [FFGenerator("x", 0, Q(1, 2))], pairing)

    half = algebra(Q(1, 2))
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\) is not an integer"):
        half.apply_mode(("x", 0), half.normal_form([("x", -1)]))
    with pytest.raises(ValueError, match=r"Fraction\(1, 2\) is not an integer"):
        half.product(half.normal_form([("x", -1)]), 0, half.normal_form([("x", -1)]))
    # The same algebra with the integral Fraction 2 computes exactly.
    two = algebra(Q(2))
    got = two.apply_mode(("x", 0), two.normal_form([("x", -1)] * 3))
    assert got == two.normal_form([("x", -1)] * 2, coeff=6)
    assert all(type(c) is Q for c in got.terms.values())
    assert all(type(c) is int for pairs in two._insert_memo.values() for _, c in pairs)
