from fractions import Fraction as Q
import gc
import random
import weakref

import pytest

from bpalgebra import singular
from bpalgebra.arith import _PRIME, NotInvertibleModP, Poly2, kernel_basis, residue
from bpalgebra.modes import BAR, BPAlgebra, GM, GP, J, L, OMEGA, ScalarState, State, VAC
from bpalgebra.singular import (
    AnnihilatorSet,
    find_singular,
    integral_level_vector,
    scale_to_match,
    verify_singular,
)
from bpalgebra.tables import omega3, omega4, omega4_bar
from bpalgebra.weightspace import enumerate_basis

from helpers import bracket_by_definition, reference_kernel_basis


def test_weight4_kernel_matches_table():
    sol = find_singular(Q(-5, 3), 4, 0, OMEGA)
    assert sol.dimension == 1
    vec = scale_to_match(sol.vectors[0], ((L, -2), (L, -2)), Q(-62, 9))
    assert vec == omega4()


def test_weight3_kernel_matches_table():
    sol = find_singular(Q(-9, 4), 3, 0, OMEGA)
    assert sol.dimension == 1
    vec = scale_to_match(sol.vectors[0], ((L, -3),), Q(3, 8))
    assert vec == omega3()


def test_weight2_kernel_empty():
    assert find_singular(Q(-5, 3), 2, 0, OMEGA).dimension == 0


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_weight8_kernel_empty(grading):
    sol = find_singular(Q(-5, 3), 8, 0, grading)
    assert sol.space_dimension == 159
    assert sol.dimension == 0


def test_bar_grading_weight4_kernel():
    sol = find_singular(Q(-5, 3), 4, 0, BAR)
    assert sol.dimension == 1
    vec = scale_to_match(sol.vectors[0], ((L, -2), (L, -2)), Q(-62, 9))
    assert vec == omega4_bar()


def test_integral_family_found_by_kernel():
    sol = find_singular(Q(0), 2, 2, BAR)
    bar = BPAlgebra(0, BAR)
    target = bar.normal_form([(GP, -1)] * 2)
    assert any(v == target for v in sol.vectors)


def test_verify_singular_witness():
    bar = BPAlgebra(Q(2, 3), BAR)
    s = bar.normal_form([(J, -1)])
    ok, witness = verify_singular(bar, s)
    assert not ok
    mode, image = witness
    assert mode == (J, 1)
    assert image == bar.unit().scaled(bar.heis_level)


def test_table2_vector_is_singular():
    bar = BPAlgebra(Q(-5, 3), BAR)
    ok, _ = verify_singular(bar, omega4_bar(bar))
    assert ok
    # The weight-4 vector is annihilated by the charge-lowering zero mode too.
    strict = AnnihilatorSet.default(BAR, include_gm0=True)
    ok, _ = verify_singular(bar, omega4_bar(bar), strict)
    assert ok


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
def test_integral_levels_strict_pattern(k):
    """With the full highest-weight annihilator set: singular iff n = k + 2."""
    bar = BPAlgebra(k, BAR)
    strict = AnnihilatorSet.default(BAR, include_gm0=True)
    for side in "+-":
        for n in range(1, 6):
            vec = integral_level_vector(bar, side, n)
            ok, _ = verify_singular(bar, vec, strict)
            assert ok == (n == k + 2), (k, side, n)


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
def test_integral_levels_default_pattern(k):
    """Default set: the n = k+2 members pass; other n fail, except the two
    descendants G+(-1)^2 at k=-1 and G+(-1)^4 at k=0, which genuinely are
    singular (they live in the submodule of the n = k+2 vector and the
    annihilation obstruction factors as -n(k-(n-2))(2k-(n-4)))."""
    bar = BPAlgebra(k, BAR)
    descendants = {(-1, "+", 2), (0, "+", 4)}
    for side in "+-":
        for n in range(1, 6):
            vec = integral_level_vector(bar, side, n)
            ok, _ = verify_singular(bar, vec)
            if side == "+":
                obstruction = -n * (k - (n - 2)) * (2 * k - (n - 4))
                assert ok == (obstruction == 0)
            expected = n == k + 2 or (k, side, n) in descendants
            assert ok == expected, (k, side, n)


def test_gm0_annihilation_reported_for_integral_family():
    """The charge-lowering zero mode also kills the n = k+2 vectors.

    Not asserted in the source material; computed here and recorded.
    """
    for k in (-1, 0, 1, 2, 3):
        bar = BPAlgebra(k, BAR)
        for side in "+-":
            vec = integral_level_vector(bar, side, k + 2)
            assert bar.apply_mode((GM, 0), vec).is_zero()


def _random_levels(count, seed):
    rng = random.Random(seed)
    levels = []
    while len(levels) < count:
        level = Q(rng.randint(-20, 20), rng.randint(1, 9))
        if level not in levels and level not in (-3, Q(-5, 3), Q(-9, 4), -1, 0):
            levels.append(level)
    return levels


def _poly2_rows(algebra, monomials, ann):
    """The sparse annihilator rows through the public Q[x,y] engine, read off by const_value()."""
    rows = []
    for mode in ann.modes:
        by_mono = {}
        for col, mono in enumerate(monomials):
            image = algebra.apply_mode(mode, State(VAC, {mono: Poly2.const(1)}))
            for mono2, coeff in image.terms.items():
                assert coeff.is_const()
                by_mono.setdefault(mono2, {})[col] = coeff.const_value()
        rows.extend(row for _, row in sorted(by_mono.items(), key=lambda t: str(t[0])))
    return rows


def _dense(rows, ncols):
    return [[row.get(c, Q(0)) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize("grading", [BAR, OMEGA])
@pytest.mark.parametrize("level", [Q(-5, 3), Q(-9, 4), Q(-1), Q(0)] + _random_levels(3, 8))
def test_scalar_rows_match_the_poly2_engine(level, grading):
    """The Q-scalar annihilator system equals the Q[x,y] engine's, entry by
    entry, and the GF(p) engine's system is its reduction mod p."""
    scalar, poly = singular._ScalarAlgebra(level, grading), BPAlgebra(level, grading)
    modp = singular._ModPAlgebra(level, grading)
    ann = AnnihilatorSet.default(grading)
    for weight in range(8):
        for charge in (-1, 0, 1) if weight <= 5 else (0,):
            monomials = enumerate_basis(poly, VAC, weight, charge).monomials
            rows = singular.annihilator_rows(scalar, monomials, ann)
            assert all(type(c) is Q and c for row in rows for c in row.values())
            assert rows == _poly2_rows(poly, monomials, ann), (weight, charge)
            modp_rows = singular.annihilator_rows(modp, monomials, ann)
            assert all(type(c) is int and 0 < c < _PRIME for row in modp_rows for c in row.values())
            assert modp_rows == [{c: residue(v) for c, v in row.items()} for row in rows], (weight, charge)


def _rows_through_apply_mode(algebra, monomials, ann):
    """The annihilator rows built column by column through apply_mode on a
    one-monomial state, in the engine's own ring."""
    unit = algebra.state_type
    rows = []
    for mode in ann.modes:
        by_mono = {}
        for col, mono in enumerate(monomials):
            for mono2, coeff in algebra.apply_mode(mode, unit(terms={mono: unit.lift(1)})).terms.items():
                by_mono.setdefault(mono2, {})[col] = coeff
        rows.extend(row for _, row in sorted(by_mono.items(), key=lambda t: str(t[0])))
    return rows


# Charge +-1 sits at half-integer omega weights.
_ROW_CASES = [(Q(-5, 3), g, Q(w, 2 if g == OMEGA else 1), c)
              for g in (BAR, OMEGA) for w in range(13 if g == OMEGA else 7) for c in (-1, 0, 1)]


@pytest.mark.parametrize("engine", [singular._ScalarAlgebra, singular._ModPAlgebra])
def test_rows_from_the_insertion_memo_match_rows_through_apply_mode(engine):
    """annihilator_rows reads the insertion memo directly; its rows equal
    those built through apply_mode on a fresh engine of the same ring."""
    nonempty = 0
    for level, grading, weight, charge in _ROW_CASES + [(Q(-9, 4), BAR, 3, 0)]:
        ann = AnnihilatorSet.default(grading)
        direct, fresh = engine(level, grading), engine(level, grading)
        monomials = enumerate_basis(direct, VAC, weight, charge).monomials
        want = _rows_through_apply_mode(fresh, monomials, ann)
        assert singular.annihilator_rows(direct, monomials, ann) == want, (level, grading, weight, charge)
        assert all(type(c) is engine.state_type.ring for row in want for c in row.values())
        nonempty += bool(want)
    assert nonempty >= 30


def _count_kernel_calls(monkeypatch):
    calls = []

    def counting(rows, ncols):
        calls.append(ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(singular, "kernel_basis", counting)
    return calls


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_full_rank_mod_p_certifies_the_empty_kernel(grading, monkeypatch):
    """At -5/3 only the rank-deficient weight-4 system reaches the exact kernel."""
    calls = _count_kernel_calls(monkeypatch)
    for weight in range(5, 9):
        assert find_singular(Q(-5, 3), weight, 0, grading).dimension == 0
    assert calls == []
    assert find_singular(Q(-5, 3), 4, 0, grading).dimension == 1
    assert calls == [13]


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_level_without_an_image_mod_p_falls_back_to_the_exact_kernel(grading, monkeypatch):
    """At k = p - 3 the central charge has denominator k + 3 = p: the mod-p
    engine refuses it, and find_singular solves the system over Q."""
    level = Q(_PRIME - 3)
    with pytest.raises(NotInvertibleModP):
        residue(BPAlgebra(level, grading).central_charge)
    calls = _count_kernel_calls(monkeypatch)
    scalar, ann = singular._ScalarAlgebra(level, grading), AnnihilatorSet.default(grading)
    for weight in (2, 3, 4):
        monomials = enumerate_basis(scalar, VAC, weight, 0).monomials
        with pytest.raises(NotInvertibleModP):
            singular.annihilator_rows(singular._ModPAlgebra(level, grading), monomials, ann)
        sol = find_singular(level, weight, 0, grading)
        assert len(calls) == weight - 1
        rows = singular.annihilator_rows(scalar, monomials, ann)
        assert all(type(c) is Q and c for row in rows for c in row.values())
        kernel = kernel_basis(_dense(rows, len(monomials)), len(monomials))
        want = [singular.normalize_monic(ScalarState(terms={m: c for m, c in zip(monomials, vec) if c}))
                for vec in kernel]
        assert sol.space_dimension == len(monomials)
        assert [{m: c.const_value() for m, c in v.terms.items()} for v in sol.vectors] == [w.terms for w in want]


@pytest.mark.parametrize("grading", [BAR, OMEGA])
@pytest.mark.parametrize("level, weight", [(Q(-9, 4), 3), (Q(-1, 2), 3), (Q(-5, 3), 4), (Q(0), 4), (Q(-12, 5), 4)])
def test_find_singular_matches_the_fraction_elimination(level, weight, grading, monkeypatch):
    """find_singular's kernel, from primes and reconstruction, equals the
    kernel of the sparse elimination over Fraction it replaced, vector for
    vector after the monic normalization."""
    calls = _count_kernel_calls(monkeypatch)
    sol = find_singular(level, weight, 0, grading)
    scalar = singular._ScalarAlgebra(level, grading)
    monomials = enumerate_basis(scalar, VAC, weight, 0).monomials
    rows = singular.annihilator_rows(scalar, monomials, AnnihilatorSet.default(grading))
    kernel = reference_kernel_basis(_dense(rows, len(monomials)), len(monomials))
    want = [singular.normalize_monic(ScalarState(terms={m: c for m, c in zip(monomials, vec) if c}))
            for vec in kernel]
    assert calls == [len(monomials)] and sol.dimension == len(want) == 1
    assert [{m: c.const_value() for m, c in v.terms.items()} for v in sol.vectors] == [w.terms for w in want]


def test_scalar_engine_keeps_its_ring():
    """Every state the scalar engine builds has Q coefficients."""
    bar, om = singular._ScalarAlgebra(Q(-5, 3), BAR), singular._ScalarAlgebra(Q(-5, 3), OMEGA)
    states = [
        bar.state_from_words([([(J, -1), (J, -1)], 1), ([(L, -2)], Q(1, 2))]),
        bar.convert(bar.normal_form([(L, -2), (GM, -2)]), om),
        bar.apply_bracket(bar.bracket((GP, 1), (GM, -2)), bar.unit()),
    ]
    for s in states:
        assert type(s) is singular.ScalarState and not s.is_zero()
        assert all(type(c) is Q for c in s.terms.values())


def test_modp_state_never_stores_a_zero_residue():
    """The GF(p) state reduces every sum and product mod p and drops zeros."""
    a, b = ((J, -1),), ((L, -2),)
    s = singular._ModPState()
    s.add_term(a, _PRIME)
    s.add_term(b, Q(_PRIME, 2))
    assert s.terms == {}
    s.add_term(a, 5)
    s.add_term(b, -1)
    assert s.terms == {a: 5, b: _PRIME - 1}
    s.add_term(a, _PRIME - 5)
    assert s.terms == {b: _PRIME - 1}
    s.add_scaled(((b, _PRIME - 1),), _PRIME - 1)  # (p - 1) + (p - 1)^2 = p(p - 1)
    assert s.terms == {}
    s.add_scaled(((a, 3), (b, 2)), _PRIME)
    s.add_scaled(((a, 2), (b, 3)), Q(1, 2))
    assert s.terms == {a: 1, b: residue(Q(3, 2))}
    t = s.scaled(-1)
    assert all(type(c) is int and 0 < c < _PRIME for c in t.terms.values())
    assert (s + t).terms == {} and (s - s).terms == {}


def _random_coefficient(ring, rng):
    value = Q(rng.choice([-1, 1]) * rng.randint(2, 40), rng.randint(1, 9))
    if ring is Poly2:
        return Poly2({(0, 0): value, (rng.randint(1, 2), rng.randint(0, 1)): rng.randint(-3, 3)})
    return residue(value) if ring is int else value


@pytest.mark.parametrize("grading", [BAR, OMEGA])
@pytest.mark.parametrize("level", [Q(-5, 3)] + _random_levels(2, 20))
def test_apply_bracket_matches_its_definition(level, grading):
    """apply_bracket adds the insertion pairs of each linear term scaled once;
    it must equal the bracket applied term by term, on all three rings, for
    every annihilator against every creation mode of weight <= 5."""
    rng = random.Random(f"{level}-{grading}")
    engines = [BPAlgebra(level, grading), singular._ScalarAlgebra(level, grading), singular._ModPAlgebra(level, grading)]
    creation = [(gen, n) for gen in (J, L, GP, GM) for n in range(-6, 0)
                if engines[0].is_creation((gen, n), VAC) and engines[0].weight((gen, n)) <= 5]
    seen_j2 = False
    for algebra in engines:
        unit = algebra.state_type
        monomials = [m for w in range(4) for c in (-1, 0, 1) for m in enumerate_basis(algebra, VAC, w, c).monomials]
        for a in AnnihilatorSet.default(grading, include_gm0=True).modes:
            for b in creation:
                br = algebra.bracket(a, b)
                seen_j2 = seen_j2 or bool(br.j2)
                for _ in range(2):
                    s = unit(terms={m: _random_coefficient(unit.ring, rng) for m in rng.sample(monomials, 4)})
                    got = algebra.apply_bracket(br, s)
                    assert got == bracket_by_definition(algebra, br, s), (algebra, a, b, s)
                    assert type(got) is unit and all(type(c) is unit.ring for c in got.terms.values())
    assert seen_j2 and len(creation) >= 17

# find_singular reuses one engine pair per (level, grading) across calls
# (singular._engines).  The cold side clears that cache before every call,
# which is the engine-per-call path it replaced.

_WARM_LEVEL = Q(-5, 3)
_OTHER_CASES = [(Q(-9, 4), 3, 0, BAR), (Q(0), 4, 0, BAR), (Q(-1, 2), 3, 0, BAR)]


def _level_cases(grading, weights):
    return [(_WARM_LEVEL, w, c, grading) for w in weights for c in ((-1, 0, 1) if w <= 4 else (0,))]


def _summary(sol):
    return sol.dimension, sol.space_dimension, [v.to_json() for v in sol.vectors]


def _cold(case):
    singular._engines.cache_clear()
    return _summary(find_singular(*case))


@pytest.fixture(scope="module")
def cold_results():
    cases = _level_cases(BAR, range(2, 8)) + _level_cases(OMEGA, range(2, 8)) + _OTHER_CASES
    return {case: _cold(case) for case in cases}


@pytest.mark.parametrize("weights", [range(2, 8), range(7, 1, -1)], ids=["ascending", "descending"])
def test_warm_engines_match_cold_engines(cold_results, weights):
    """Warm calls equal cold ones, with the levels interleaved as -5/3, -9/4
    (and 0, -1/2), -5/3 and each level's gradings back to back: an engine
    keyed without its level or its grading would answer for the wrong one."""
    order = (
        _level_cases(BAR, weights) + _level_cases(OMEGA, weights)
        + _OTHER_CASES
        + _level_cases(OMEGA, weights) + _level_cases(BAR, weights)
    )
    singular._engines.cache_clear()
    for case in order:
        assert _summary(find_singular(*case)) == cold_results[case], case
    assert singular._engines.cache_info().hits > 0


def test_only_the_latest_engine_pair_is_kept():
    singular._engines.cache_clear()
    find_singular("-5/3", 4, 0, BAR)
    find_singular(Q(-5, 3), 5, 0, BAR)
    assert singular._engines.cache_info()[:2] == (1, 1)  # "-5/3" and Q(-5, 3) share one pair
    first = weakref.ref(singular._engines(Q(-5, 3), BAR)[1])
    find_singular(Q(-9, 4), 3, 0, BAR)
    assert singular._engines.cache_info().currsize == 1
    gc.collect()
    assert first() is None


@pytest.mark.parametrize("grading", [BAR, OMEGA])
def test_refused_lift_leaves_the_engines_sound(grading):
    """At k = p - 3 the mod-p engine raises partway through its rows; the
    next call on that pair, and the next level, still equal a cold call."""
    level = Q(_PRIME - 3)
    want = [_cold((level, w, 0, grading)) for w in (2, 3)] + [_cold((_WARM_LEVEL, 4, 0, grading))]
    singular._engines.cache_clear()
    got = [_summary(find_singular(level, w, 0, grading)) for w in (2, 3)]
    assert got + [_summary(find_singular(_WARM_LEVEL, 4, 0, grading))] == want
