import random
from fractions import Fraction as Q

import pytest

from bpalgebra.arith import POLY_X, POLY_Y
from bpalgebra.modes import BAR, BPAlgebra, GP, HW, L, OMEGA, State, VAC
from bpalgebra.weightspace import (
    basis_dimension_oracle,
    contragredient_weight,
    conjugate_weight_omega,
    enumerate_basis,
    spectral_flow_weight,
    spectral_flow_weight_inverse,
    top_action,
    top_vector,
)
from bpalgebra.zhu import h_poly


def test_vacuum_dimensions():
    om = BPAlgebra(Q(-5, 3), OMEGA)
    assert len(enumerate_basis(om, VAC, 4, 0)) == 13
    assert enumerate_basis(om, VAC, 0, 0).monomials == [()]
    bar = BPAlgebra(Q(-9, 4), BAR)
    basis3 = enumerate_basis(bar, VAC, 3, 0)
    oracle = basis_dimension_oracle(bar, VAC, 3)
    assert len(basis3) == oracle(3, 0) == 6


def _report_key(mono):
    return (len(mono), [(gen, -n) for gen, n in mono])


def test_enumeration_matches_oracle_everywhere():
    """Each list has the oracle's length and holds distinct canonical monomials
    of the cell's weight and charge, in report order: that fixes it exactly."""
    for k, conv in ((Q(-5, 3), OMEGA), (Q(-5, 3), BAR), (Q(-9, 4), BAR)):
        alg = BPAlgebra(k, conv)
        bases = [VAC] if conv == OMEGA else [VAC, HW]
        for base in bases:
            oracle = basis_dimension_oracle(alg, base, 6)
            for twice_w in range(0, 13):
                w = Q(twice_w, 2)
                for q in range(-5, 6):
                    cell = (conv, base, w, q)
                    monos = enumerate_basis(alg, base, w, q).monomials
                    assert len(monos) == oracle(w, q), cell
                    assert len(set(monos)) == len(monos), cell
                    assert monos == sorted(monos, key=_report_key), cell
                    for mono in monos:
                        assert alg.monomial_weight(mono) == w, (cell, mono)
                        assert alg.monomial_charge(mono) == q, (cell, mono)
                        assert alg.normal_form(mono, base).terms == {mono: 1}, (cell, mono)


def test_enumeration_bound_is_hard():
    alg = BPAlgebra(Q(-1), BAR)
    with pytest.raises(ValueError):
        enumerate_basis(alg, VAC, 9, 0)


def test_top_action_closed_forms_symbolic():
    """E w_i = w_{i+1}; F w_i = i h_i w_{i-1}; X w_i = (x+i) w_i; Y w_i = y w_i."""
    for k in (Q(-5, 3), Q(-9, 4), Q(2, 7)):
        alg = BPAlgebra(k, BAR)
        for i in range(0, 6):
            wi = top_vector(alg, i)
            assert top_action(alg, "E", i) == top_vector(alg, i + 1)
            assert top_action(alg, "X", i) == wi.scaled(POLY_X + i)
            assert top_action(alg, "Y", i) == wi.scaled(POLY_Y)
            want = (
                top_vector(alg, i - 1).scaled(h_poly(i, k) * i) if i else State(HW)
            )
            assert top_action(alg, "F", i) == want


def test_top_action_random_rational_points():
    rng = random.Random(9)
    for _ in range(10):
        k = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if k == -3:
            continue
        xv = Q(rng.randint(-6, 6), rng.randint(1, 4))
        yv = Q(rng.randint(-6, 6), rng.randint(1, 4))
        alg = BPAlgebra(k, BAR)
        for i in (1, 2, 3):
            res = top_action(alg, "F", i)
            mono = ((GP, 0),) * (i - 1)
            got = res.coefficient(mono).eval(xv, yv)
            assert got == i * h_poly(i, k).eval(xv, yv)


def test_contragredient_weights():
    assert contragredient_weight(0, 0) == (0, 0)
    assert contragredient_weight(Q(-1, 18), Q(-1, 9)) == (Q(1, 18), Q(-1, 6))
    x, y = Q(3, 7), Q(-2, 5)
    assert contragredient_weight(*contragredient_weight(x, y)) == (x, y)
    assert conjugate_weight_omega(x, y) == (-x, y)
    # The two symmetries agree through the change of grading labels:
    # (x, y) -> bar labels (x, y - x/2) -> flip -> omega labels.
    xb, yb = contragredient_weight(x, y - x * Q(1, 2))
    assert (xb, yb + xb * Q(1, 2)) == conjugate_weight_omega(x, y)


FLOW_IDENTITIES_5_3 = [
    # (source weight, top dimension, target weight)
    ((Q(-1, 9), Q(0)), 1, (Q(0), Q(0))),
    ((Q(-4, 9), Q(1, 3)), 1, (Q(-1, 3), Q(2, 3))),
    ((Q(-7, 9), Q(2, 3)), 2, (Q(1, 3), Q(1, 3))),
    ((Q(0), Q(0)), 1, (Q(1, 9), Q(-1, 9))),
    ((Q(-1, 3), Q(2, 3)), 2, (Q(7, 9), Q(-1, 9))),
    ((Q(1, 3), Q(1, 3)), 1, (Q(4, 9), Q(-1, 9))),
]

FLOW_IDENTITIES_9_4 = [
    ((Q(-1, 2), Q(0)), 1, (Q(0), Q(0))),
    ((Q(-1, 4), Q(-1, 4)), 1, (Q(1, 4), Q(-1, 2))),
]


@pytest.mark.parametrize("identities,k", [
    (FLOW_IDENTITIES_5_3, Q(-5, 3)),
    (FLOW_IDENTITIES_9_4, Q(-9, 4)),
])
def test_spectral_flow_orbit_identities(identities, k):
    for (x, y), i, (xh, yh) in identities:
        # The stated top dimension is consistent with the h-polynomial zero.
        assert h_poly(i, k).eval(x, y) == 0
        assert spectral_flow_weight(x, y, i, k) == (xh, yh)
        # The same map on polynomials in the weight, evaluated at (x, y).
        px, py = spectral_flow_weight(POLY_X, POLY_Y, i, k)
        assert (px.eval(x, y), py.eval(x, y)) == (xh, yh)
        assert spectral_flow_weight_inverse(xh, yh, i, k) == (x, y)


def test_spectral_flow_requires_positive_dimension():
    with pytest.raises(ValueError):
        spectral_flow_weight(0, 0, 0, Q(-5, 3))


def test_weight_bound_env_override(monkeypatch):
    alg = BPAlgebra(Q(0), BAR)
    monkeypatch.setenv("BPALG_WEIGHT_BOUND", "3")
    with pytest.raises(ValueError):
        enumerate_basis(alg, VAC, 4, 0)
    monkeypatch.setenv("BPALG_WEIGHT_BOUND", "9")
    assert enumerate_basis(alg, VAC, 9, 0).monomials
