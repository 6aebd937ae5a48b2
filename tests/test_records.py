"""The plain record types: constructors, defaults, equality and immutability."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

from bpalgebra.arith import POLY_X, Poly1, Q
from bpalgebra.classify import BranchResult, Certificate, WeightSet
from bpalgebra.freefield import Embedding, FFGenerator, weyl_algebra
from bpalgebra.modes import BAR, GP, HW, J, L, VAC, Bracket, BPAlgebra
from bpalgebra.singular import AnnihilatorSet, SingularSolution
from bpalgebra.tables import RATIONAL_LEVELS, RationalLevel
from bpalgebra.weightspace import WeightSpaceBasis, enumerate_basis

K = Q(-5, 3)


def _namespace_records():
    """Each namespace record built as its call sites build it, with the arguments given."""
    system, sols, admitted, excluded = [POLY_X], [(Q(0), Q(0))], [(Q(0), Q(0))], [((Q(1), Q(0)), "why")]
    monomials = [((J, -2),), ((L, -2),)]
    return [
        pytest.param(BranchResult, ("boundary-y", "filter", system, sols, admitted, excluded, False), {},
                     id="BranchResult-all"),
        pytest.param(BranchResult, ("dim1-generic", "h1 = 0", system, sols, admitted), {}, id="BranchResult-required"),
        pytest.param(WeightSet, (K, admitted, admitted),
                     {"branches": [], "identities": [("id", True)], "certificates": []}, id="WeightSet-points"),
        pytest.param(WeightSet, (Q(0), [], []),
                     {"finite_families": [("y = x", "dim1")], "flags": ["f"], "flagged_corner": (Q(0), Q(0))},
                     id="WeightSet-families"),
        pytest.param(AnnihilatorSet, (list(AnnihilatorSet.default(BAR).modes),), {}, id="AnnihilatorSet"),
        pytest.param(SingularSolution, (K, Q(4), 0, BAR, 13, 1, ["v"], [(J, 1)]), {}, id="SingularSolution"),
        pytest.param(WeightSpaceBasis, (K, BAR, VAC, Q(2), 0, monomials), {}, id="WeightSpaceBasis"),
        pytest.param(Embedding, ("weyl", K, weyl_algebra(), {J: "j"}), {}, id="Embedding"),
    ]


@pytest.mark.parametrize("cls, args, kwargs", _namespace_records())
def test_namespace_records_hold_their_arguments_and_compare_field_wise(cls, args, kwargs):
    record = cls(*args, **kwargs)
    names = list(vars(record))
    for name, value in [*zip(names, args), *kwargs.items()]:
        assert getattr(record, name) is value, name
    assert record == cls(*args, **kwargs)
    assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
    with pytest.raises(TypeError):
        hash(record)
    for name in names:
        other = cls(*args, **kwargs)
        setattr(other, name, "changed")
        assert other != record, name


def test_default_lists_are_fresh():
    first, second = WeightSet(K, [], []), WeightSet(K, [], [])
    for name in ("finite_families", "branches", "certificates", "identities", "flags"):
        assert getattr(first, name) == [] and getattr(first, name) is not getattr(second, name), name
    assert first.flagged_corner is None
    first, second = BranchResult("b", "d", [], [], []), BranchResult("b", "d", [], [], [])
    assert (first.excluded, first.complete) == ([], True) and first.excluded is not second.excluded
    first, second = (SingularSolution(K, Q(4), 0, BAR, 13, 0, []) for _ in range(2))
    assert first.annihilators == [] and first.annihilators is not second.annihilators
    first.annihilators.append((J, 1))
    assert second.annihilators == []


def test_tuple_records_build_compare_and_hash():
    poly = Poly1.ident("r")
    assert Bracket() == Bracket((), (), Q(0)) == Bracket(j2=(), linear=(), scalar=Q(0))
    linear = (((GP, 0), Q(1)),)
    assert Bracket(linear=linear).linear is linear and Bracket(scalar=Q(2)).scalar == 2
    assert Bracket(linear=linear) != Bracket(linear=linear, scalar=Q(1))
    gen = FFGenerator("a+", 0, Q(1, 2))
    assert (gen.name, gen.parity, gen.conformal_weight) == ("a+", 0, Q(1, 2))
    assert gen == FFGenerator(name="a+", parity=0, conformal_weight=Q(1, 2)) != FFGenerator("a-", 0, Q(1, 2))
    assert len({gen, FFGenerator("a+", 0, Q(1, 2)), Bracket(), Bracket()}) == 2
    cert = Certificate((Q(0), Q(1)), poly, [Q(0)], "infinite")
    assert (cert.weight, cert.poly_in_i, cert.rational_roots, cert.verdict) == ((Q(0), Q(1)), poly, [Q(0)], "infinite")
    assert cert != Certificate((Q(0), Q(1)), poly, [Q(0)], "finite")
    level = RATIONAL_LEVELS[K]
    assert level == RationalLevel("omega4_bar", "U", "smith_relation_5_3")
    assert (level.singular, level.projection, level.relation) == ("omega4_bar", "U", "smith_relation_5_3")


@pytest.mark.parametrize("record, name", [(Bracket(scalar=Q(1)), "scalar"), (FFGenerator("b", 1, Q(1)), "name")],
                         ids=["Bracket", "FFGenerator"])
def test_frozen_records_refuse_assignment(record, name):
    before = getattr(record, name)
    for attr in (name, "other"):
        with pytest.raises(AttributeError):
            setattr(record, attr, Q(5))
    assert getattr(record, name) is before and not hasattr(record, "other")


@pytest.mark.parametrize("base, weight, charge, words", [
    (VAC, Q(2), 0, [["J(-2)"], ["L(-2)"], ["J(-1)", "J(-1)"]]),
    (HW, Q(1), 1, [["G+(-1)"], ["J(-1)", "G+(0)"], ["L(-1)", "G+(0)"], ["G+(0)", "G+(0)", "G-(-1)"]]),
])
def test_weight_space_basis_length_and_json(base, weight, charge, words):
    basis = enumerate_basis(BPAlgebra(K, BAR), base, weight, charge)
    assert (len(basis), basis.to_json()) == (len(words), words)
    assert (basis.k, basis.convention, basis.base, basis.weight, basis.charge) == (K, BAR, base, weight, charge)


def test_golden_tables_load_from_another_working_directory(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "from bpalgebra import tables\n"
        "loads = (tables.golden_tables, tables.golden_zhu, tables.golden_states, tables.golden_classify)\n"
        "print([len(load()) > 0 for load in loads], tables.table_state('omega4_bar').is_zero())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[True, True, True, True] False\n"), done.stderr

