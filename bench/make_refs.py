"""Regenerate the stored references under refs/.

Run from the repository root on a build whose outputs are trusted:

    python3 bench/make_refs.py

It draws the report_batch pool from a fixed seed and records, for every
benchmark input, the output that later runs are checked against.  The
formula_scan references are confirmed against the Smith-normal-form route
wherever that route applies; the snf_ladder references are the closed
formulas of the adjusted input.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tricl import (  # noqa: E402
    FgAbelianGroup,
    TrinomialVariety,
    Type1Variety,
    adjust,
    adjust_type1,
    class_group_formula,
    class_group_snf,
    is_hyperplatonic,
    iterate_cox_rings,
    rationality_class,
)
from tricl.errors import IterationNotAdmittedError  # noqa: E402

import workloads  # noqa: E402

POOL_SIZE = {
    "factorial": 24,
    "case_ii": 24,
    "case_iii": 24,
    "non_rational": 24,
    "hyperplatonic": 24,
    "long_chain": 12,
    "type1": 24,
}

# Inputs that exit nonzero by design, with the subcommand each is given to.
EXIT_NONZERO = [
    ("report", '{"kind": "trinomial", "blocks": [[2], [3], [0]]}'),
    ("report", '{"kind": "trinomial", "blocks": [[2], [3]'),
    ("report", '{"kind": "trinomial", "blocks": [[2], [3], [5]], "n": 1}'),
    ("report", '{"kind": "quartic", "blocks": [[2], [3], [5]]}'),
    ("report", '{"kind": "type1", "blocks": [[2], [3]]}'),
    ("report", '{"kind": "trinomial", "blocks": [[2], [3], [5], [7]], "theta": ["1/2", "1/3"]}'),
    ("report", json.dumps({"kind": "trinomial", "blocks": [[2], [3], [5], [7], [11]],
                           "theta": ["1/2", "1/2"]})),
    ("report", json.dumps({"kind": "trinomial", "blocks": [[2]] * 18})),
    ("report", '{"kind": "trinomial", "blocks": [[2], [3], [5]], "m": -1}'),
    ("report", '{"kind": "trinomial", "blocks": [[2], [], [3]]}'),
    ("report", '{"kind": "trinomial", "blocks": [[2], [3], [5], [7]], "theta": ["abc"]}'),
    ("type1-classgroup", '{"kind": "trinomial", "blocks": [[2], [3], [5]]}'),
]


def _trinomial_stratum(adjusted: TrinomialVariety):
    if adjusted.is_degenerate:
        return None
    kind = rationality_class(adjusted)
    if not kind.is_rational:
        return "non_rational"
    if kind.is_factorial:
        return "factorial"
    if is_hyperplatonic(adjusted):
        try:
            steps = len(iterate_cox_rings(adjusted).steps)
        except IterationNotAdmittedError:
            return "long_chain"
        return "long_chain" if steps >= 3 else "hyperplatonic"
    return kind.kind.value


def _item(stratum: str, index: int, command: str, text: str, key, workdir: Path) -> dict:
    path = workdir / "input.json"
    path.write_text(text, encoding="utf-8")
    extra = ["--method", "both"] if command == "report" else []
    code, out, err = workloads.run_cli(["--format", "json", command, *extra, str(path)])
    return {
        "id": f"{stratum}-{index:02d}",
        "command": command,
        "text": text,
        "expect": workloads.cli_semantics(command, code, out, err),
        "key": key,
    }


def report_pool(workdir: Path) -> dict[str, list[dict]]:
    rng = random.Random(2018)
    pool: dict[str, list[dict]] = {name: [] for name in workloads.REPORT_SAMPLE}
    seen = set()
    while any(len(pool[s]) < POOL_SIZE[s] for s in POOL_SIZE if s != "type1"):
        blocks = [
            [rng.randint(1, 8) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
            for _ in range(rng.choice((3, 3, 4, 4, 5)))
        ]
        m = rng.choice((0, 0, 1, 2))
        if (str(blocks), m) in seen:
            continue
        seen.add((str(blocks), m))
        adjusted = adjust(TrinomialVariety(blocks, m))[0]
        stratum = _trinomial_stratum(adjusted)
        if stratum is None or len(pool[stratum]) >= POOL_SIZE[stratum]:
            continue
        text = json.dumps({"kind": "trinomial", "blocks": blocks, "m": m})
        key = [[list(b) for b in adjusted.blocks], adjusted.m]
        pool[stratum].append(_item(stratum, len(pool[stratum]), "report", text, key, workdir))
    while len(pool["type1"]) < POOL_SIZE["type1"]:
        blocks = [
            [rng.randint(1, 6) for _ in range(rng.choice((1, 1, 2)))]
            for _ in range(rng.choice((2, 3, 4)))
        ]
        if str(blocks) in seen:
            continue
        seen.add(str(blocks))
        adjusted = adjust_type1(Type1Variety(blocks))
        text = json.dumps({"kind": "type1", "blocks": blocks})
        key = ["type1", [list(b) for b in adjusted.blocks], adjusted.m]
        index = len(pool["type1"])
        pool["type1"].append(_item("type1", index, "type1-classgroup", text, key, workdir))
    for index, (command, text) in enumerate(EXIT_NONZERO):
        item = _item("exit_nonzero", index, command, text, None, workdir)
        if item["expect"]["exit"] == 0:
            raise SystemExit(f"exit_nonzero input {text} exited 0")
        pool["exit_nonzero"].append(item)
    return pool


def formula_lines() -> list[str]:
    lines = []
    for combo in workloads.enumeration():
        adjusted = adjust(TrinomialVariety(combo))[0]
        group = class_group_formula(adjusted)
        if isinstance(group, FgAbelianGroup) and not adjusted.is_degenerate:
            if not rationality_class(adjusted).is_factorial and class_group_snf(adjusted) != group:
                raise SystemExit(f"formula and SNF disagree on {combo}")
        lines.append(workloads.encode_group(group))
    return lines


def ladder_refs() -> dict[str, dict]:
    refs = {}
    for points in workloads.ladders().values():
        for label, blocks in points:
            adjusted = adjust(TrinomialVariety(blocks))[0]
            refs[label] = {
                "group": workloads.group_ref(class_group_formula(adjusted)),
                "adjusted": [[list(b) for b in adjusted.blocks], adjusted.m],
            }
    return refs


def _lines(entries) -> str:
    """A JSON object with one entry per line, so a diff names the input that moved."""
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in entries) + "\n}\n"


def main() -> None:
    refs = workloads.REFS
    refs.mkdir(exist_ok=True)
    out = refs.parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        pool = report_pool(Path(workdir))
    items = [
        (item["id"], dict(item, stratum=stratum))
        for stratum, members in pool.items()
        for item in members
    ]
    (refs / "report_batch.json").write_text(_lines(items), encoding="utf-8")
    (refs / "snf_ladder.json").write_text(_lines(ladder_refs().items()), encoding="utf-8")
    header = (
        "# class_group_formula of each adjusted multiset of workloads.enumeration(), in order:\n"
        "# nfg (not finitely generated), rank, or rank:invariant.factors\n"
    )
    lines = header + "\n".join(formula_lines()) + "\n"
    (refs / "formula_scan.txt").write_text(lines, encoding="utf-8")


if __name__ == "__main__":
    main()
