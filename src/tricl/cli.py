"""File-based command line front end.

Input files are JSON objects with the schema

    {"kind": "trinomial" | "type1",
     "blocks": [[positive ints], ...],
     "m": nonnegative int (optional, default 0),
     "theta": ["p/q" | "generic", ...] (optional)}

Subcommands accept one or more files or directories (a directory is the
batch of its *.json files); failure in one input never aborts the others.
Output goes to stdout as indented text or, with --format json (before or
after the subcommand), as one JSON object per input.  Exit codes: 0
success, 2 invalid input (a file that is not UTF-8 JSON included), 3 class
group not finitely generated where a group was demanded, 4
iteration/diagram not admitted, 5 internal cross-check mismatch, 6 input
beyond the size handled (out of memory, or an output integer longer than
`sys.get_int_max_str_digits()` digits, included).

Variety data is checked when the variety is constructed; structural errors
exit 2.  With --method formula, and in type1-classgroup, no Smith form runs:
the compulsory torsion is cross-checked against a lemma, not a cokernel.

`variety.MAX_BLOCK` (16) caps the number of relations and the block sizes
to guard against accidentally huge inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path
from typing import Iterator, Optional, Union

from .classgroup import (
    ClassGroup,
    GroupMethod,
    NotFinitelyGenerated,
    class_group_report,
    isolated_singularity_report,
    n_tilde,
    predicates,
)
from .coxring import (
    DuvalDiagram,
    IterationChain,
    duval_diagram,
    is_hyperplatonic,
    iterate_cox_rings,
    total_coordinate_space,
)
from .errors import (
    FactorialInputError,
    InvalidVarietyError,
    IterationNotAdmittedError,
    NotHyperplatonicError,
    NotRationalError,
    ResourceLimitError,
)
from .exactlinalg import IntMatrix
from .selftest import run_selftest
from .type1 import Type1Variety, adjust_type1, class_group_type1, lift_to_type2
from .variety import (
    GENERIC_THETA,
    MAX_BLOCK,
    TrinomialVariety,
    _coerce_theta,
    adjust,
    block_invariants,
    check_size,
    dimension,
    rationality_class,
    render_relations,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NOT_FINITELY_GENERATED = 3
EXIT_NOT_ADMITTED = 4
EXIT_INTERNAL_MISMATCH = 5
EXIT_RESOURCE_LIMIT = 6


class SpecError(ValueError):
    """Malformed input file; carries human-readable field context."""


def parse_spec(text: str) -> dict:
    """Parse one JSON variety description, with field-level error context.

    Returns the checked {"kind", "blocks", "m", "theta"} fields in that
    order, which the report echoes as its "input"; an empty theta is None.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError:  # int() refused an over-long integer literal
        raise SpecError(f"an integer has more than {sys.get_int_max_str_digits()} digits")
    except RecursionError:
        raise SpecError("JSON nested too deeply")
    if not isinstance(raw, dict):
        raise SpecError("top level must be a JSON object")
    unknown = set(raw) - {"kind", "blocks", "m", "theta"}
    if unknown:
        raise SpecError(f"unknown fields: {sorted(unknown)}")

    kind = raw.get("kind")
    if kind not in ("trinomial", "type1"):
        raise SpecError(f"field 'kind' must be 'trinomial' or 'type1', got {kind!r}")
    blocks = raw.get("blocks")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise SpecError("field 'blocks' must be a list of lists of integers")
    for i, block in enumerate(blocks):
        for j, entry in enumerate(block):
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
                raise SpecError(f"blocks[{i}][{j}] must be a positive integer, got {entry!r}")
    m = raw.get("m", 0)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise SpecError(f"field 'm' must be a nonnegative integer, got {m!r}")
    theta = raw.get("theta")
    if theta is not None:
        if not isinstance(theta, list) or not all(isinstance(t, str) for t in theta):
            raise SpecError("field 'theta' must be a list of strings ('p/q' or 'generic')")
        for i, t in enumerate(theta):
            try:
                _coerce_theta([t])  # the constructors' rule for one coefficient
            except InvalidVarietyError:
                raise SpecError(f"theta[{i}] is neither 'generic' nor a rational: {t!r}")

    if len(blocks) - 1 > MAX_BLOCK:
        raise SpecError(f"{len(blocks)} blocks, more than MAX_BLOCK + 1 = {MAX_BLOCK + 1}")
    if any(len(b) > MAX_BLOCK for b in blocks):
        raise SpecError(f"a block has more than MAX_BLOCK = {MAX_BLOCK} variables")

    return {"kind": kind, "blocks": blocks, "m": m, "theta": theta or None}


def group_json(group: ClassGroup) -> dict:
    if isinstance(group, NotFinitelyGenerated):
        return {"finitely_generated": False, "pretty": "not finitely generated"}
    return {
        "finitely_generated": True,
        "rank": group.rank,
        "invariant_factors": _printable(list(group.invariant_factors)),
        "pretty": str(group),
    }


def _matrix_json(matrix: IntMatrix) -> list[list[int]]:
    return [list(matrix.row(i)) for i in range(matrix.rows)]


def _triple_json(triple) -> Optional[dict]:
    if triple is None:
        return None
    return {"triple": list(triple.as_tuple()), "ade_label": triple.ade_label}


def _variety_json(variety: Union[TrinomialVariety, Type1Variety]) -> dict:
    return {
        "blocks": [list(b) for b in variety.blocks],
        "m": variety.m,
        "degenerate": variety.is_degenerate,
    }


def _adjusted_json(adjusted: TrinomialVariety, record) -> dict:
    # render_relations prints every exact coefficient.
    _printable([list(t.as_integer_ratio()) for t in adjusted.theta or () if t != GENERIC_THETA])
    return {
        **_variety_json(adjusted),
        "eliminated_blocks": list(record.eliminated),
        "permutation": list(record.permutation),
        "relations": render_relations(adjusted),
    }


def _invariants_json(adjusted: TrinomialVariety) -> dict:
    inv = block_invariants(adjusted)
    kind = rationality_class(adjusted)
    return {
        "frak_l": list(inv.frak_l),
        "pairwise_gcd": [list(row) for row in inv.pairwise_gcd],
        "frak_l_triple": inv.frak_l_small,
        "c": list(inv.c) if inv.c is not None else None,
        "dimension": dimension(adjusted),
        "n_tilde": n_tilde(adjusted) if kind.is_rational else None,
        "rationality": {"kind": kind.kind.value, "c": kind.c},
    }


def _class_group_json(adjusted: TrinomialVariety, method: GroupMethod) -> dict:
    report = class_group_report(adjusted, method)
    return {
        "method": method.value,
        "group": group_json(report.group),
        "formula": group_json(report.group) if method is not GroupMethod.SNF else None,
        "snf": group_json(report.snf) if report.snf is not None else None,
        "agree": True if method is GroupMethod.BOTH and report.snf is not None else None,
        "n_tilde": report.n_tilde,
        # dim(TCS) - dim(X) equals n_tilde by construction (README, "The rank identity").
        "rank_check": [report.n_tilde] * 2 if report.n_tilde is not None else None,
        "compulsory_torsion": group_json(report.ctors) if report.ctors else None,
    }


def _chain_json(chain: IterationChain) -> dict:
    steps = [
        {
            **_variety_json(step.variety),
            "class_group": group_json(step.class_group),
            "basic_platonic_triple": _triple_json(step.triple),
        }
        for step in chain.steps
    ]
    return {"admitted": True, "steps": steps, "patterns": list(chain.patterns)}


def _duval_json(diagram: DuvalDiagram) -> dict:
    return {
        "x_triple": _triple_json(diagram.x_triple),
        "xprime_triple": _triple_json(diagram.xprime_triple),
        "y_blocks": [list(b) for b in diagram.y.blocks],
        "yprime_blocks": [list(b) for b in diagram.yprime.blocks],
        "verified": diagram.verified,
        "p_tilde": _matrix_json(diagram.p_tilde),
        "veronese_generators": list(diagram.veronese_generators),
        "saturation_ok": diagram.saturation_ok,
    }


def _predicates_json(adjusted: TrinomialVariety) -> dict:
    result = predicates(adjusted)
    return {
        "free_abelian": result.free_abelian,
        "finite": result.finite,
        "cyclic": group_json(result.cyclic) if result.cyclic else None,
        "half_factorial": result.half_factorial,
    }


def _isolated_json(adjusted: TrinomialVariety) -> dict:
    report = isolated_singularity_report(adjusted)
    return {"isolated": report.isolated, "case": report.case.value}


def _type1_json(variety: Type1Variety) -> dict:
    adjusted = adjust_type1(variety)
    group = class_group_type1(adjusted)
    lift = lift_to_type2(adjusted)
    lift_report = class_group_report(adjust(lift)[0], GroupMethod.FORMULA)
    return {
        "adjusted": _variety_json(adjusted),
        "class_group": group_json(group),
        "lift": {
            "blocks": [list(b) for b in lift.blocks],
            "m": lift.m,
            "class_group": group_json(lift_report.group),
        },
    }


def _run_single(command: str, spec: dict, method: GroupMethod) -> dict:
    """Compute the report fragment for one parsed spec; may raise."""
    out: dict = {"input": spec}
    kind = spec["kind"]
    needed = "type1" if command == "type1-classgroup" else "trinomial"
    if kind != needed and command not in ("validate", "adjust"):
        raise SpecError(f"this subcommand needs kind '{needed}', got '{kind}'")
    family = TrinomialVariety if kind == "trinomial" else Type1Variety
    variety = family(spec["blocks"], spec["m"], spec["theta"])

    if command == "validate":
        out["valid"] = True
        return out

    if command == "adjust" and kind == "type1":
        out["adjusted"] = _variety_json(adjust_type1(variety))
        return out

    if command == "type1-classgroup":
        fragment = _type1_json(variety)
        if not fragment["class_group"]["finitely_generated"]:
            raise NotRationalError(
                "class group is not finitely generated: variety is not rational"
            )
        out.update(fragment)
        return out

    adjusted, record = adjust(variety)

    if command in ("adjust", "invariants"):
        out["adjusted"] = _adjusted_json(adjusted, record)
        if command == "invariants":
            out["invariants"] = _invariants_json(adjusted)
        return out

    if command == "classgroup":
        out["class_group"] = _class_group_json(adjusted, method)
        if not out["class_group"]["group"]["finitely_generated"]:
            raise NotRationalError(
                "class group is not finitely generated: variety is not rational"
            )
        return out

    if command == "coxring":
        # P1 is written densely, one column per variable.
        check_size("n + m", adjusted.n + adjusted.m, "P1 columns")
        cox = total_coordinate_space(adjusted)
        tcs_adjusted, tcs_record = adjust(cox.tcs)
        out["coxring"] = {
            "c": list(cox.c),
            "p1": _matrix_json(cox.p1),
            "tcs_blocks": [list(b) for b in cox.tcs.blocks],
            "n_prime": cox.n_prime,
            "r_prime": cox.r_prime,
            "tcs_adjusted": _adjusted_json(tcs_adjusted, tcs_record),
        }
        return out

    if command == "iterate":
        out["chain"] = _chain_json(iterate_cox_rings(adjusted))
        return out

    if command == "duval":
        out["duval"] = _duval_json(duval_diagram(adjusted))
        return out

    if command == "report":
        out["adjusted"] = _adjusted_json(adjusted, record)
        out["invariants"] = _invariants_json(adjusted)
        out["class_group"] = _class_group_json(adjusted, method)
        kind = rationality_class(adjusted)
        out["predicates"] = _predicates_json(adjusted) if kind.is_rational else None
        out["isolated_singularity"] = (
            _isolated_json(adjusted) if adjusted.m == 0 else None
        )
        triple = is_hyperplatonic(adjusted)
        out["hyperplatonic"] = _triple_json(triple)
        if kind.is_rational:
            try:
                out["chain"] = _chain_json(iterate_cox_rings(adjusted))
            except IterationNotAdmittedError as exc:
                out["chain"] = {"admitted": False, "reason": str(exc)}
        else:
            out["chain"] = None
        out["duval"] = _duval_json(duval_diagram(adjusted)) if triple else None
        return out

    raise SpecError(f"unknown subcommand {command!r}")


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (SpecError, InvalidVarietyError, OSError)):
        return EXIT_INVALID_INPUT
    if isinstance(exc, (NotRationalError, FactorialInputError)):
        return EXIT_NOT_FINITELY_GENERATED
    if isinstance(exc, (IterationNotAdmittedError, NotHyperplatonicError)):
        return EXIT_NOT_ADMITTED
    if isinstance(exc, (ResourceLimitError, MemoryError)):
        return EXIT_RESOURCE_LIMIT
    return EXIT_INTERNAL_MISMATCH


def _printable(data):
    """`data`, checked to hold no integer longer than the interpreter prints."""
    limit = sys.get_int_max_str_digits()
    for value in data.values() if isinstance(data, dict) else data:
        if isinstance(value, (dict, list)):
            _printable(value)
        # At most 3 limit bits is below 8^limit, so printable; a limit of 0 is none.
        elif isinstance(value, int) and 0 < 3 * limit < value.bit_length():
            if abs(value) >= 10**limit:
                raise ResourceLimitError(f"an output integer has more than {limit} digits")
    return data


def _render_text(data, pad: str = "") -> Iterator[str]:
    # Strings and integers go as they are (bool is not `int` here), the other
    # scalars and empty containers as JSON spells them.
    if isinstance(data, dict):
        items = ((f"{pad}{key}:", value) for key, value in data.items())
    else:
        items = ((f"{pad}-", value) for value in data)
    for head, value in items:
        if isinstance(value, (dict, list)) and value:
            yield head
            yield from _render_text(value, pad + "  ")
        else:
            yield f"{head} {value if type(value) in (str, int) else json.dumps(value)}"


def _collect_paths(arguments: list[str]) -> list[Path]:
    paths: list[Path] = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            paths.extend(sorted(path.glob("*.json")))
        else:
            paths.append(path)
    return paths


def _emit(report: dict, fmt: str, stream) -> None:
    try:
        text = json.dumps(report, sort_keys=True) if fmt == "json" else "\n".join(_render_text(report))
    except ValueError:  # an integer too long to print is a size limit, not a bug
        _printable(report)
        raise
    stream.write(text + "\n")


def _run_selftest(fmt: str, stream) -> int:
    results = run_selftest()
    failures = 0
    for result in results:
        if fmt == "json":
            _emit({"case": result.name, "ok": result.ok, "detail": result.detail}, fmt, stream)
        else:
            status = "ok  " if result.ok else "FAIL"
            stream.write(f"{status} {result.name}: {result.detail}\n")
        failures += 0 if result.ok else 1
    summary = f"selftest: {len(results) - failures}/{len(results)} passed\n"
    (stream if fmt == "text" else sys.stderr).write(summary)
    return EXIT_OK if failures == 0 else EXIT_INTERNAL_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first call and shared by later ones, which must not change it.
    # --format is accepted before and after the subcommand; it is left unset
    # when absent, so that a subcommand does not overwrite the main value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (identical data either way; default: text)",
    )
    parser = argparse.ArgumentParser(
        prog="tricl",
        description="Exact divisor class groups and Cox ring iteration for trinomial varieties.",
        parents=[common],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    file_commands = (
        ("validate", "check a variety description"),
        ("adjust", "bring a variety into adjusted form"),
        ("invariants", "block gcds, component counts, dimension, rationality"),
        ("classgroup", "divisor class group"),
        ("coxring", "total coordinate space data"),
        ("iterate", "iterate total coordinate spaces to a factorial variety"),
        ("duval", "surface correspondence of a hyperplatonic variety"),
        ("type1-classgroup", "class group of a Type 1 variety, with its lift"),
        ("report", "everything applicable to the input"),
    )
    for name, help_text in file_commands:
        sub = subparsers.add_parser(name, help=help_text, parents=[common])
        sub.add_argument("paths", nargs="+", metavar="PATH", help="JSON files or directories")
        if name in ("classgroup", "report"):
            sub.add_argument(
                "--method",
                choices=("formula", "snf", "both"),
                default="both",
                help="group computation route (default: both, cross-checked)",
            )

    subparsers.add_parser("selftest", help="run the golden example corpus", parents=[common])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    stream = sys.stdout
    fmt = getattr(args, "format", "text")

    if args.command == "selftest":
        return _run_selftest(fmt, stream)

    method = GroupMethod(getattr(args, "method", "both"))
    paths = _collect_paths(args.paths)
    if not paths:
        sys.stderr.write("no input files found\n")
        return EXIT_INVALID_INPUT

    worst = EXIT_OK
    ok_count = 0
    for path in paths:
        # Record every warning, not one per process: `adjust` warns per input.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            try:
                try:
                    text = path.read_text(encoding="utf-8")
                except UnicodeDecodeError as exc:
                    raise SpecError(f"not UTF-8 text: {exc.reason} at byte {exc.start}")
                spec = parse_spec(text)
                report = _run_single(args.command, spec, method)
                report["file"] = str(path)
                _emit(report, fmt, stream)
                ok_count += 1
            except Exception as exc:  # noqa: BLE001 - per-file isolation
                code = _exit_code_for(exc)
                worst = max(worst, code)
                failure = {
                    "file": str(path),
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                    "exit_code": code,
                }
                _emit(failure, fmt, sys.stderr)
        for warning in caught:
            _emit({"file": str(path), "warning": str(warning.message)}, fmt, sys.stderr)
    if len(paths) > 1:
        summary = f"{ok_count}/{len(paths)} inputs processed"
        (stream if fmt == "text" else sys.stderr).write(summary + "\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
