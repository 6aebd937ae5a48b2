import contextlib
from fractions import Fraction as Q
import importlib.util
import io
import json
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from bpalgebra.cli import HelpRequested, UsageError, main, parse_argv
from helpers import build_parser

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


def test_singular_check_looks_up_golden_before_computing(capsys, monkeypatch):
    """--check without a golden table is a usage error before any kernel is built."""
    import bpalgebra.cli as cli

    def crash(*args):
        raise RuntimeError("find_singular ran")

    monkeypatch.setattr(cli, "find_singular", crash)
    code, out, err = run(capsys, "singular", "--level", "-5/3", "--weight", "8", "--check")
    assert code == 2
    assert out == ""
    assert err == "error: no golden table for this configuration\n"


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
    for argv in (
        ["singular", "--c", "1", "--level", "-5/3", "--weight", "4"],  # --charge or --check
        ["zhu", "--level"],
        ["zhu", "--level", "-5/3", "--format", "xml"],
        ["singular", "--level", "-5/3", "--weight", "4", "--charge", "x"],
        ["singular", "--level", "-5/3", "--weight", "4", "--check=1"],
        ["--level", "-5/3", "zhu"],
        [],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


# Each command's options, as the argparse parser in helpers.py declares them.
_OPTIONS = {
    "singular": ("--level", "--weight", "--charge", "--grading", "--check", "--format"),
    "zhu": ("--level", "--format"),
    "classify": ("--level", "--format"),
    "freefield": ("--level", "--format"),
}
_VALUES = ("-5/3", "4", "-1", "abc", "json", "bar", "", "--format")
# An option with a value: separate, inline, by a unique or ambiguous prefix
# (--ch on singular), and by a shorter prefix with an inline value.
_FORMS = (
    lambda opt, value: [opt, value],
    lambda opt, value: [f"{opt}={value}"],
    lambda opt, value: [opt[:4], value],
    lambda opt, value: [f"{opt[:3]}={value}"],
)


def _argv_grid():
    """Several thousand command lines: every command with no option or one
    option in every form and value, then seeded draws of two and three; each
    of those also after valid required options, with a trailing option that
    lacks its value, and with its first option moved before the command."""
    rng = random.Random(23)
    grid = [[]]
    for command, options in _OPTIONS.items():
        pool = options + ("--help", "--bogus")
        slots = [form(opt, value) for opt in pool for form in _FORMS for value in _VALUES]
        cases = [[]] + [[slot] for slot in slots]
        cases += [rng.sample(slots, rng.choice((2, 3))) for _ in range(300)]
        for case in cases:
            tokens = [token for slot in case for token in slot]
            grid.append([command, *tokens])
            grid.append([command, "--level", "-5/3", *(["--weight", "4"] if command == "singular" else []), *tokens])
            if case:
                grid.append([command, *tokens, rng.choice(pool)])
                grid.append([*case[0], command, *tokens[len(case[0]):]])
    return grid


def _parse_with(parse, argv):
    """The parsed values, "help", or "usage error" for a refused command line."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        return "usage error" if exc.code else "help"
    except HelpRequested:
        return "help"
    except UsageError:
        return "usage error"


def test_parse_argv_matches_the_argparse_parser():
    """The table parser refuses, helps and parses exactly where argparse does.

    argparse reads every grid case alike on Python 3.10 to 3.13, so no case is
    pinned.  Outside the grid the parsers part on purpose where argparse
    versions disagree: `--level=--` (a value of "--" here and on 3.13, an
    empty list on 3.10-3.12) and `-hh` or `-h=h` (refused here)."""
    reference = build_parser().parse_args
    grid = _argv_grid()
    assert len(grid) > 3000 and len({tuple(argv) for argv in grid}) > 3000
    outcomes = {"help": 0, "usage error": 0, "parsed": 0}
    mismatches = []
    for argv in grid:
        want = _parse_with(reference, argv)
        got = _parse_with(parse_argv, argv)
        outcomes[want if isinstance(want, str) else "parsed"] += 1
        if got != want:
            mismatches.append((argv, want, got))
    assert not mismatches, mismatches[:5]
    assert min(outcomes.values()) > 100, outcomes


def test_import_and_a_bpalg_call_load_no_unused_stdlib_module():
    """Neither ``import bpalgebra`` nor a ``bpalg`` call pays for modules no report uses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import io, sys\n"
        "unused = {'argparse', 'locale', 'dataclasses', 'inspect', 'typing', 'importlib.resources'}\n"
        "import bpalgebra\n"
        "loaded = [sorted(unused & set(sys.modules))]\n"
        "from bpalgebra.cli import main\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        "code = main(['zhu', '--level', '-5/3', '--format', 'json'])\n"
        "sys.stdout = stdout\n"
        "print(code, loaded + [sorted(unused & set(sys.modules))])\n"
    )
    # -S: no site hook may load any of them on the package's behalf.
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "0 [[], []]\n"), done.stderr


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[command, "-h"] for command in _OPTIONS])
def test_help_names_every_command_and_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    for command in _OPTIONS if argv[0].startswith("-") else argv[:1]:
        assert f"bpalg {command}" in out
        for option in _OPTIONS[command]:
            assert option in out, (command, option)


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


def test_zhu_relation_without_a_line_exits_1(capsys, monkeypatch):
    """A relation with no (Y - y0) factor is a mismatch with its word as witness, not a crash."""
    import bpalgebra.cli as cli

    bad = cli.tables.table_state("omega4_bar").copy()
    bad.add_term((("G+", -1), ("G-", -3)), 1)  # the G+(0) string then ends at -12*E^3
    monkeypatch.setattr(cli.tables, "table_state", lambda name, algebra=None: bad)
    code, out, _ = run(capsys, "zhu", "--level", "-5/3", "--format", "json")
    assert code == 1
    assert json.loads(out)["smith_relation"] == {"power": None, "word": "-12*E^3", "golden_match": False}


# Outputs no benchmark suite covers, pinned in tests/reference (name -> argv).
# A name ending in .md pins the default markdown report; any other, the JSON one.
_PINNED = {
    "classify_m1": ["classify", "--level", "-1"],
    "classify_m9_4": ["classify", "--level", "-9/4"],
    "singular_m5_3_w4_check": ["singular", "--level", "-5/3", "--weight", "4", "--check"],
    "singular_m5_3_w6_bar": ["singular", "--level", "-5/3", "--weight", "6", "--grading", "bar"],
    "zhu_0": ["zhu", "--level", "0"],
    "classify_m5_3.md": ["classify", "--level", "-5/3"],
    "classify_m9_4.md": ["classify", "--level", "-9/4"],
    "zhu_m5_3.md": ["zhu", "--level", "-5/3"],
    "zhu_m9_4.md": ["zhu", "--level", "-9/4"],
    "classify_0.md": ["classify", "--level", "0"],
    "classify_m1.md": ["classify", "--level", "-1"],
}


@pytest.mark.parametrize("name, argv", sorted(_suites().items()) + list(_PINNED.items()))
def test_suite_json_is_byte_identical_to_reference(capsys, name, argv):
    markdown = name.endswith(".md")
    code, out, _ = run(capsys, *argv, *([] if markdown else ["--format", "json"]))
    assert code == 0
    reference = Path(__file__).resolve().parent / "reference" if name in _PINNED else _BENCH / "reference"
    assert out == (reference / (name if markdown else f"{name}.json")).read_text()


def test_internal_error_exits_3(capsys, monkeypatch):
    """An uncaught exception is neither a pass nor a mathematical mismatch."""
    import bpalgebra.cli as cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "zhu", cli._COMMANDS["zhu"]._replace(handler=crash))
    code, out, err = run(capsys, "zhu", "--level", "-5/3")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_render_error_exits_3(capsys, monkeypatch):
    """A report that cannot be rendered is an internal error, not a mismatch."""
    import bpalgebra.cli as cli
    from fractions import Fraction

    render = cli._COMMANDS["zhu"]._replace(handler=lambda args: ({"x": Fraction(1, 3)}, True))
    monkeypatch.setitem(cli._COMMANDS, "zhu", render)
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


ZERO_FAMILIES = [("y = x^2 - x", "dim1 family"), ("y = x^2", "dim2 family (x != 0)")]


@pytest.mark.parametrize("level, families, flags, corner", [
    ("-1", [("y = x^2", "wrong family")], [], None),
    ("0", ZERO_FAMILIES, [], None),
    ("-1", [("y = 3/2*x^2 - 1/2*x", "dim1 family")], ["an unexpected corner flag"], None),
    ("0", ZERO_FAMILIES, ["a corner flag"], (Q(1), Q(0))),
    ("0", ZERO_FAMILIES, ["a corner flag"], None),
], ids=["-1-families0-flags0", "0-families1-flags1", "-1-families2-flags2",
        "0-flag-at-corner-1-0", "0-flag-without-corner"])
def test_integral_level_golden_mismatch_exits_1(capsys, monkeypatch, level, families, flags, corner):
    """Families and the flagged corner are checked against golden/classify.json."""
    import bpalgebra.cli as cli
    from bpalgebra.classify import WeightSet

    monkeypatch.setattr(
        cli, "classify_level",
        lambda k: WeightSet(k, [], [], finite_families=families, flags=flags, flagged_corner=corner))
    code, out, _ = run(capsys, "classify", "--level", level, "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["status"] == "fail"
    assert data["golden"] == cli.tables.golden_classify()[level]


def test_integral_identity_rows_come_from_the_mode_engine(capsys, monkeypatch):
    """A wrong h_i moves each family off its true locus, and the rows computed from G-(0) w_i fail."""
    import bpalgebra.classify as classify
    from bpalgebra.arith import POLY_X

    true_h = classify.h_poly
    monkeypatch.setattr(classify, "h_poly", lambda i, k: true_h(i, k) + POLY_X)
    code, out, _ = run(capsys, "classify", "--level", "0", "--format", "json")
    rows = json.loads(out)["identities"]
    assert code == 1
    assert len(rows) == 2 and not any(row["ok"] for row in rows)
