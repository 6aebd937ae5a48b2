import random
from fractions import Fraction as Q

import pytest

from bpalgebra.freefield import (
    Quad,
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
from bpalgebra.modes import BAR, BPAlgebra, GM, GP, J, OMEGA, VAC
from bpalgebra.tables import omega4
from bpalgebra.weightspace import enumerate_basis


def test_quad_arithmetic():
    s3 = Quad.ROOT3
    assert s3 * s3 == 3
    assert (1 + s3) * (1 - s3) == -2
    with pytest.raises(ValueError):
        s3.rational()
    assert (s3 * s3).rational() == 3


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


def test_clifford_symplectic_conformal_embedding():
    rows = clifford_sf_embedding_checks()
    assert all(ok for _, ok in rows)


def test_embedding_for_level():
    assert embedding_for_level(Q(-5, 3)).name == "weyl"
    assert embedding_for_level(0).name == "fermionic"
    with pytest.raises(ValueError):
        embedding_for_level(Q(-1))


def test_named_wrappers():
    from bpalgebra.freefield import check_ideal_vanishing, ff_product

    emb = weyl_embedding()
    w = emb.algebra
    assert ff_product(w, w.unit(), -1, emb.images[J]) == emb.images[J]
    om_eng = BPAlgebra(Q(-5, 3), OMEGA)
    assert check_ideal_vanishing(emb, om_eng, omega4(om_eng))
    assert not check_ideal_vanishing(emb, om_eng, om_eng.normal_form([(J, -1)]))
