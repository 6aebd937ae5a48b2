"""Command-line front end.

Each subcommand recomputes a verification suite from scratch and renders a
deterministic report (markdown by default, JSON with --format json).  Golden
values ship as package data; whenever a computed object has a golden
counterpart the report carries the comparison and the exit code reflects it.

Exit codes: 0 success / golden match, 1 mathematical mismatch (a bug or a
source discrepancy, printed with a witness) or an incomplete classification
branch, 2 usage error, 3 internal error (an uncaught exception; the traceback
goes to stderr).
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

# Rational option values like -5/3 must not be mistaken for flags.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")

from .arith import Q, frac
from .modes import BAR, GM, GP, J, L, OMEGA, VAC, BPAlgebra, mode_str, parse_mode
from .weightspace import enumerate_basis, weight_bound
from .singular import find_singular, scale_to_match, verify_singular
from .zhu import SmithWord, ZhuReducer, h_closed_form, h_poly, relation_line, smith_relation, zero_mode_poly, zhu_star
from .classify import UnsupportedLevel, classify_level, pi0_bracket_identity
from .freefield import (
    check_embedding,
    clifford_sf_embedding_checks,
    embedding_for_level,
    hw_weight_of,
    push_state,
    weyl_charge_decomposition,
)
from . import tables

USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(Exception):
    pass


def _parse_level(text: str) -> Fraction:
    try:
        level = frac(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad level {text!r}: {exc}") from None
    if level == -3:
        raise UsageError("level -3 is excluded (the critical level)")
    return level


def _parse_weight(text: str) -> Fraction:
    try:
        weight = frac(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad weight {text!r}: {exc}") from None
    if weight.denominator > 2:
        raise UsageError(f"bad weight {text!r}: weights are multiples of 1/2")
    bound = _weight_bound()
    if weight < 0 or weight > bound:
        raise UsageError(f"weight must lie in [0, {bound}]")
    return weight


def _weight_bound() -> int:
    """The enumeration bound; a malformed BPALG_WEIGHT_BOUND is a usage error."""
    try:
        return weight_bound()
    except ValueError:
        raise UsageError(
            f"BPALG_WEIGHT_BOUND must be an integer, not {os.environ['BPALG_WEIGHT_BOUND']!r}"
        ) from None


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------

def cmd_singular(args) -> tuple[dict, bool]:
    level = _parse_level(args.level)
    weight = _parse_weight(args.weight)
    charge = int(args.charge)
    grading = args.grading
    golden_name = tables.singular_table_name(level, weight, charge, grading)
    if args.check and golden_name is None:
        raise UsageError("no golden table for this configuration")
    sol = find_singular(level, weight, charge, grading)
    report = {
        "suite": "singular",
        "level": str(level),
        "grading": grading,
        "weight": str(weight),
        "charge": charge,
        "space_dimension": sol.space_dimension,
        "annihilators": [mode_str(m) for m in sol.annihilators],
        "kernel_dimension": sol.dimension,
    }
    ok = True
    if sol.dimension == 0:
        report["result"] = "no singular vector (empty kernel)"
        report["vectors"] = []
        return report, ok
    vectors = sol.vectors
    if golden_name is not None:
        golden = tables.table_state(golden_name)
        first = golden.monomials_sorted()[0]
        matched = []
        for vec in vectors:
            try:
                vec = scale_to_match(vec, first, golden.terms[first].const_value())
            except ValueError:
                pass
            matched.append(vec)
        vectors = matched
        match = sol.dimension == 1 and vectors[0] == golden
        report["golden"] = golden_name
        report["golden_match"] = match
        ok = ok and match
        if match:
            _, _, words = tables.table_words(golden_name)
            report["coefficients_printed_order"] = [
                [" ".join(mode_str(m) for m in word), str(coeff)] for word, coeff in words
            ]
    report["vectors"] = [vec.to_json() for vec in vectors]
    checks = []
    algebra = BPAlgebra(level, grading)
    for vec in vectors:
        verdict, witness = verify_singular(algebra, vec)
        checks.append(verdict)
        ok = ok and verdict
    report["reverified"] = checks
    return report, ok


# ---------------------------------------------------------------------------
# zhu
# ---------------------------------------------------------------------------

def cmd_zhu(args) -> tuple[dict, bool]:
    level = _parse_level(args.level)
    algebra = BPAlgebra(level, BAR)
    red = ZhuReducer(algebra)
    sm = red.smith
    rows = []

    jst = algebra.normal_form([(J, -1)])
    gp = algebra.normal_form([(GP, -1)])
    gm = algebra.normal_form([(GM, -2)])
    om = algebra.normal_form([(L, -2)])

    def commutator(a, b):
        return red.reduce_state(zhu_star(algebra, a, b) - zhu_star(algebra, b, a))

    gpoly_word = sm.word(0, sm.g, 0)
    bracket_rows = [
        ("X*E - E*X = E", commutator(jst, gp), sm.E()),
        ("X*F - F*X = -F (F = -[G-])", commutator(jst, gm), sm.F()),
        ("X*Y - Y*X = 0", commutator(jst, om), sm.zero()),
        ("E*F - F*E = g(X,Y)", commutator(gp, gm).scaled(-1), gpoly_word),
        ("E*Y - Y*E = 0", commutator(gp, om), sm.zero()),
        ("F*Y - Y*F = 0", commutator(gm, om), sm.zero()),
    ]
    ok = True
    for label, got, want in bracket_rows:
        match = got == want
        ok = ok and match
        rows.append({"identity": label, "computed": str(got), "ok": match})

    h_rows = []
    for i in range(1, 7):
        h_i = h_poly(i, level)
        match = h_i == h_closed_form(i, level)
        ok = ok and match
        h_rows.append({"i": i, "h_i": str(h_i), "closed_form_ok": match})

    report = {
        "suite": "zhu",
        "level": str(level),
        "smith_g": str(sm.g),
        "bracket_identities": rows,
        "h_polynomials": h_rows,
    }

    data = tables.RATIONAL_LEVELS.get(level)
    if data is not None:
        golden = tables.golden_zhu()
        singular = tables.table_state(data.singular, algebra)
        proj = zero_mode_poly(algebra, singular, OMEGA)
        proj_ok = proj == tables.golden_poly(data.projection)
        ok = ok and proj_ok
        report["projection"] = {
            "name": data.projection,
            "poly": str(proj),
            "golden_match": proj_ok,
        }
        relation = smith_relation(algebra, singular)
        rel_ok = relation == SmithWord.from_json(sm, golden[data.relation]["word"])
        ok = ok and rel_ok
        report["smith_relation"] = {
            # A mismatched relation may have no (P, y0) shape; its word is the witness.
            "power": relation_line(relation)[0] if rel_ok else None,
            "word": str(relation),
            "golden_match": rel_ok,
        }
        if level == Q(-5, 3):
            expansion = algebra.apply_mode((GP, 0), algebra.apply_mode((GP, 0), singular))
            want = algebra.state_from_words(
                [([parse_mode(t) for t in word], frac(c)) for word, c in golden["gp0_squared_omega4_bar"]]
            )
            exp_ok = expansion == want
            ok = ok and exp_ok
            report["five_term_expansion_match"] = exp_ok
    return report, ok


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args) -> tuple[dict, bool]:
    level = _parse_level(args.level)
    try:
        ws = classify_level(level)
    except UnsupportedLevel as exc:
        raise UsageError(str(exc)) from None
    ok = True
    golden = tables.golden_classify()[str(level)]
    report = {"suite": "classify", "level": str(level)}
    if ws.finite_top or ws.infinite_top:
        finite = [(str(a), str(b)) for a, b in ws.finite_top]
        infinite = [(str(a), str(b)) for a, b in ws.infinite_top]
        want_finite = [tuple(w) for w in golden["finite_top"]]
        want_infinite = [tuple(w) for w in golden["infinite_top"]]
        match = finite == want_finite and infinite == want_infinite
        ok = ok and match
        excluded = sorted(
            {(str(w[0]), str(w[1])) for br in ws.branches for (w, _) in br.excluded}
        )
        ok = ok and excluded == sorted(tuple(w) for w in golden["excluded"])
        report.update(
            {
                "finite_top": finite,
                "infinite_top": infinite,
                "excluded": excluded,
                "golden_match": match,
                "branches": [
                    {
                        "name": br.name,
                        "description": br.description,
                        "system": br.system,
                        "solutions": [(str(a), str(b)) for a, b in br.solutions],
                        "admitted": [(str(a), str(b)) for a, b in br.admitted],
                        "excluded": [
                            [(str(w[0]), str(w[1])), reason] for w, reason in br.excluded
                        ],
                    }
                    for br in ws.branches
                ],
                "certificates": [
                    {
                        "weight": (str(c.weight[0]), str(c.weight[1])),
                        "h_i": c.poly_in_i.format(x="i"),
                        "rational_roots": [str(r) for r in c.rational_roots],
                        "verdict": c.verdict,
                    }
                    for c in ws.certificates
                ],
            }
        )
    else:
        report["families"] = [{"family": fam, "note": note} for fam, note in ws.finite_families]
        report["flags"] = ws.flags
        corner = ws.flagged_corner and [str(c) for c in ws.flagged_corner]
        match = ([fam for fam, _ in ws.finite_families] == golden["finite_families"]
                 and corner == golden.get("flagged_corner")
                 and bool(ws.flags) == (corner is not None))
        ok = ok and match
        if not match:
            report["golden"] = golden
    incomplete = [br.name for br in ws.branches if not br.complete]
    if incomplete:
        # Irrational solutions may be missing, so the weight sets are not proven.
        ok = False
        report["incomplete_branches"] = incomplete
    identity_rows = [{"identity": label, "ok": bool(val)} for label, val in ws.identities]
    ok = ok and all(r["ok"] for r in identity_rows)
    report["identities"] = identity_rows
    if level == Q(-9, 4):
        lhs, rhs, same = pi0_bracket_identity()
        ok = ok and same
        report["zero_mode_commutator_identity"] = {
            "lhs": lhs.format(x="r"),
            "rhs": rhs.format(x="r"),
            "ok": same,
        }
    return report, ok


# ---------------------------------------------------------------------------
# freefield
# ---------------------------------------------------------------------------

def cmd_freefield(args) -> tuple[dict, bool]:
    level = _parse_level(args.level)
    try:
        emb = embedding_for_level(level)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ok = True
    rows = []
    for label, match, got, want in check_embedding(emb):
        ok = ok and match
        rows.append({"product": label, "ok": match})
    report = {
        "suite": "freefield",
        "level": str(level),
        "realization": emb.name,
        "ope_table": rows,
    }
    if level == Q(-5, 3):
        om_eng = BPAlgebra(level, OMEGA)
        image = push_state(emb, om_eng, tables.omega4(om_eng))
        vanished = image.is_zero()
        nontrivial = not push_state(emb, om_eng, om_eng.normal_form([(J, -1)])).is_zero()
        ok = ok and vanished and nontrivial
        dims = weyl_charge_decomposition(4)
        dim_ff = dims.get((Q(4), Q(0)), 0)
        dim_bp = len(enumerate_basis(om_eng, VAC, 4, 0))
        ok = ok and dim_ff == 12 and dim_bp == 13
        hw_plus = hw_weight_of(emb, emb.algebra.normal_form([("a+", -1)]))
        hw_minus = hw_weight_of(emb, emb.algebra.normal_form([("a-", -1)]))
        ok = ok and hw_plus == (Q(1, 3), Q(1, 3)) and hw_minus == (Q(-1, 3), Q(2, 3))
        report.update(
            {
                "singular_vector_image_zero": vanished,
                "non_ideal_element_survives": nontrivial,
                "dim_ff_weight4_charge0": dim_ff,
                "dim_bp_weight4_charge0": dim_bp,
                "sector_highest_weights": [
                    ["a+", [str(hw_plus[0]), str(hw_plus[1])]],
                    ["a-", [str(hw_minus[0]), str(hw_minus[1])]],
                ],
            }
        )
    elif level == 0:
        bar = BPAlgebra(level, BAR)
        img_plus = push_state(emb, bar, bar.normal_form([(GP, -1)] * 2))
        img_minus = push_state(emb, bar, bar.normal_form([(GM, -2)] * 2))
        ok = ok and img_plus.is_zero() and img_minus.is_zero()
        sf_rows = [{"check": label, "ok": match} for label, match in clifford_sf_embedding_checks()]
        ok = ok and all(r["ok"] for r in sf_rows)
        report.update(
            {
                "singular_vector_images_zero": [img_plus.is_zero(), img_minus.is_zero()],
                "conformal_embedding": sf_rows,
            }
        )
    return report, ok


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_md(report: dict, ok: bool) -> str:
    lines = [f"# {report['suite']} report (level {report['level']})", ""]

    def emit(key, value, depth=0):
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}- **{key}**:")
            for k2, v2 in value.items():
                emit(k2, v2, depth + 1)
        elif isinstance(value, list):
            if not value:
                lines.append(f"{pad}- **{key}**: []")
            elif all(isinstance(v, dict) for v in value):
                lines.append(f"{pad}- **{key}**:")
                for v in value:
                    flat = ", ".join(f"{k2}={_scalar(v2)}" for k2, v2 in v.items())
                    lines.append(f"{pad}  - {flat}")
            else:
                lines.append(f"{pad}- **{key}**: {_scalar(value)}")
        else:
            lines.append(f"{pad}- **{key}**: {_scalar(value)}")

    for key, value in report.items():
        if key in ("suite", "level"):
            continue
        emit(key, value)
    lines.append("")
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)


def _scalar(value):
    if isinstance(value, bool):
        return "ok" if value else "MISMATCH"
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Each command's handler, its help line and its options.  An option maps to
# _REQUIRED (a string it must be given), to its default (an int default makes
# it read an int, False makes it a flag that takes no value) or to its choices,
# the first of which is the default.
Command = namedtuple("Command", "handler help options")
_REQUIRED = None
_FORMATS = ("md", "json")

_COMMANDS = {
    "singular": Command(cmd_singular, "singular-vector kernels and golden tables", {
        "--level": _REQUIRED, "--weight": _REQUIRED, "--charge": 0,
        "--grading": (OMEGA, BAR), "--check": False, "--format": _FORMATS,
    }),
    "zhu": Command(cmd_zhu, "Zhu projections and Smith-algebra relations",
                   {"--level": _REQUIRED, "--format": _FORMATS}),
    "classify": Command(cmd_classify, "highest-weight classification",
                        {"--level": _REQUIRED, "--format": _FORMATS}),
    "freefield": Command(cmd_freefield, "free-field realization checks",
                         {"--level": _REQUIRED, "--format": _FORMATS}),
}

_HELP = ("-h", "--help")


class HelpRequested(Exception):
    """-h or --help was given; the exception's text is the usage to print."""


def _usage(name: str) -> str:
    parts = [f"bpalg {name}"]
    for opt, kind in _COMMANDS[name].options.items():
        if kind is False:
            parts.append(f"[{opt}]")
        elif isinstance(kind, tuple):
            parts.append(f"[{opt} {{{','.join(kind)}}}]")
        else:
            part = f"{opt} {opt[2:].upper()}"
            parts.append(part if kind is _REQUIRED else f"[{part}]")
    return " ".join(parts)


def _help_text(command=None) -> str:
    forms = "Options take --opt VALUE, --opt=VALUE or a unique prefix of --opt.\n-h or --help prints this text."
    if command is not None:
        return f"usage: {_usage(command)}\n\n{_COMMANDS[command].help}\n\n{forms}"
    rows = "\n".join(f"  {_usage(name)}\n      {cmd.help}" for name, cmd in _COMMANDS.items())
    return (
        "usage: bpalg COMMAND [options]\n\n"
        "Exact verification suites for the Bershadsky-Polyakov algebra\n\n"
        f"commands:\n{rows}\n\n{forms}"
    )


def _option(token: str, names):
    """How argparse reads ``token`` where ``names`` are the options.

    None for a value or a positional; otherwise (option, inline value or
    None), with option None for an unknown one.  A prefix shared by two
    options is a usage error.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {head} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        # -h is the one short option; the rest of the token is its inline value.
        return "-h", token[2:]
    if _NEGATIVE_RATIONAL.match(token) or " " in token:
        return None
    return None, None


def parse_argv(argv):
    """Read a `bpalg` command line as its argparse parser did.

    Returns a namespace with ``command`` and one attribute per option of the
    command.  Raises UsageError on a malformed command line and
    HelpRequested for -h or --help.
    """
    argv = list(argv)
    # Options before the command are unknown to bpalg itself.  argparse
    # reports them only after the command's own options parse, so a later
    # -h still prints help.
    unknown = None
    for i, token in enumerate(argv):
        opt = _option(token, _HELP) if token != "--" else None
        if opt is None:
            break
        if opt[0] is None:
            unknown = unknown or token
        elif opt[1] is not None:
            raise UsageError(f"argument -h/--help: ignored explicit argument {opt[1]!r}")
        else:
            raise HelpRequested(_help_text())
    else:
        raise UsageError(f"a command is required: {', '.join(_COMMANDS)}")
    command = argv[i]
    if command not in _COMMANDS:
        raise UsageError(f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    spec = _COMMANDS[command].options
    names = (*spec, *_HELP)
    rest = argv[i + 1:]
    # Every token is read as an option or not before any is consumed, so an
    # ambiguous prefix is refused wherever it stands.  From "--" on, no token
    # is an option, and "--" itself is no option's value.
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(token, names) for token in rest[:cut]] + [None] * (len(rest) - cut)
    values = {opt: kind[0] if isinstance(kind, tuple) else kind for opt, kind in spec.items()}
    given = set()
    stray = []
    j = 0
    while j < len(rest):
        token, kind = rest[j], kinds[j]
        j += 1
        if kind is None or kind[0] is None:
            stray.append(token)
            continue
        opt, value = kind
        if opt in _HELP or spec[opt] is False:
            if value is not None:
                raise UsageError(f"argument {opt}: ignored explicit argument {value!r}")
            if opt in _HELP:
                raise HelpRequested(_help_text(command))
            values[opt] = True
            continue
        if value is None:
            if j == cut or kinds[j] is not None:
                raise UsageError(f"argument {opt}: expected one argument")
            value = rest[j]
            j += 1
        kind = spec[opt]
        if isinstance(kind, int):
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {opt}: invalid int value: {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"argument {opt}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        values[opt] = value
        given.add(opt)
    missing = [opt for opt, kind in spec.items() if kind is _REQUIRED and opt not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if stray or unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(([unknown] if unknown else []) + stray)}")
    return SimpleNamespace(command=command, **{opt[2:]: value for opt, value in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        _weight_bound()
        report, ok = _COMMANDS[args.command].handler(args)
        report["status"] = "pass" if ok else "fail"
        # Rendered before printing, so a failed rendering prints no partial report.
        if args.format == "json":
            text = json.dumps(report, indent=2, sort_keys=True)
        else:
            text = _render_md(report, ok)
    except HelpRequested as exc:
        print(exc)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        # A crash must not read as a mathematical mismatch (exit code 1).
        # traceback is imported here: it adds about 2 ms to every start-up.
        import traceback

        traceback.print_exc()
        return INTERNAL_ERROR
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
