import importlib.util
import json
from pathlib import Path

import pytest

from bpalgebra.cli import main

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _suites() -> dict:
    """The ten README suites, as the benchmark runs them (name -> argv)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_singular_golden_match(capsys):
    code, out, _ = run(capsys, "singular", "--level", "-5/3", "--weight", "4")
    assert code == 0
    assert "overall: PASS" in out
    assert "golden_match" in out


def test_singular_weight2_empty_kernel(capsys):
    code, out, _ = run(capsys, "singular", "--level", "-5/3", "--weight", "2")
    assert code == 0
    assert "no singular vector" in out


def test_singular_check_without_golden_is_usage_error(capsys):
    code, _, err = run(capsys, "singular", "--level", "-5/3", "--weight", "3", "--check")
    assert code == 2
    assert "golden" in err


def test_singular_json_format(capsys):
    code, out, _ = run(capsys, "singular", "--level", "-9/4", "--weight", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["kernel_dimension"] == 1
    assert data["golden_match"] is True


def test_commands_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "classify", "--level", "-9/4", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_zhu_reports(capsys):
    for level in ("-5/3", "-9/4", "-1", "0"):
        code, out, _ = run(capsys, "zhu", "--level", level)
        assert code == 0, level
        assert "overall: PASS" in out
    code, out, _ = run(capsys, "zhu", "--level", "-5/3", "--format", "json")
    data = json.loads(out)
    assert data["smith_relation"]["word"] == "44*E^2*Y + 44/9*E^2"
    assert data["projection"]["golden_match"] is True


def test_classify_reports(capsys):
    code, out, _ = run(capsys, "classify", "--level", "-5/3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["finite_top"]) == 6 and len(data["infinite_top"]) == 3
    assert data["golden_match"] is True
    code, out, _ = run(capsys, "classify", "--level", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["families"]


def test_classify_unsupported_level_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--level", "1/2")
    assert code == 2
    assert "support" in err


def test_freefield_reports(capsys):
    code, out, _ = run(capsys, "freefield", "--level", "-5/3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dim_ff_weight4_charge0"] == 12
    assert data["dim_bp_weight4_charge0"] == 13
    assert data["singular_vector_image_zero"] is True
    code, out, _ = run(capsys, "freefield", "--level", "0")
    assert code == 0
    code, _, err = run(capsys, "freefield", "--level", "-1")
    assert code == 2


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "singular", "--level", "nonsense", "--weight", "4")[0] == 2
    assert run(capsys, "singular", "--level", "-5/3", "--weight", "99")[0] == 2
    assert run(capsys, "wrongcommand")[0] == 2


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--level", "-3", "--weight", "4"], None),
        (["--level", "-5/3", "--weight", "1/3"], None),
        (["--level", "-5/3", "--weight", "abc"], None),
        (["--level", "-5/3", "--weight", "4"], "abc"),
    ],
    ids=["critical-level", "third-weight", "non-rational-weight", "non-integer-bound"],
)
def test_bad_singular_input_exits_2(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("BPALG_WEIGHT_BOUND", env)
    code, out, err = run(capsys, "singular", *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_mathematical_mismatch_exits_1(capsys, monkeypatch):
    """A golden/engine disagreement is reported as a failure, exit code 1."""
    import bpalgebra.cli as cli

    good = cli.tables.table_state("omega4")
    bad = good.copy()
    bad.add_term((("J", -4),), 1)  # corrupt one golden coefficient
    monkeypatch.setattr(cli.tables, "table_state", lambda name, algebra=None: bad)
    code = main(["singular", "--level", "-5/3", "--weight", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out


@pytest.mark.parametrize("name, argv", sorted(_suites().items()))
def test_suite_json_is_byte_identical_to_reference(capsys, name, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (_BENCH / "reference" / f"{name}.json").read_text()


def test_internal_error_exits_3(capsys, monkeypatch):
    """An uncaught exception is neither a pass nor a mathematical mismatch."""
    import bpalgebra.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "zhu", crash)
    code, out, err = run(capsys, "zhu", "--level", "-5/3")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_render_error_exits_3(capsys, monkeypatch):
    """A report that cannot be rendered is an internal error, not a mismatch."""
    import bpalgebra.cli as cli
    from fractions import Fraction

    monkeypatch.setitem(cli._COMMANDS, "zhu", lambda args: ({"x": Fraction(1, 3)}, True))
    code, out, err = run(capsys, "zhu", "--level", "-5/3", "--format", "json")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "TypeError" in err


def test_incomplete_classification_branch_exits_1(capsys, monkeypatch):
    """A branch whose elimination may miss irrational solutions fails the suite."""
    import bpalgebra.classify as classify

    solve = classify.solve_system
    monkeypatch.setattr(classify, "solve_system", lambda p, q: (solve(p, q)[0], False))
    code, out, _ = run(capsys, "classify", "--level", "-5/3", "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["status"] == "fail"
    assert data["golden_match"] is True
    assert data["incomplete_branches"] == ["dim1-generic", "dim1-to-dim2", "dim2-to-dim1", "dim2-to-dim2"]
