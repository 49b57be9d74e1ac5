"""Write the golden CLI outputs that `test_golden.py` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

It rewrites ``tests/golden/cli.jsonl``: one line per (input, command), holding
the exit code and the exact ``--format json`` stdout and stderr of
``tricl.cli.main``.  Trinomial inputs run ``report --method both``,
``coxring`` and ``duval``: the trinomial blocks of the selftest corpus, the
case-III chain from 3 to 17 blocks, the case-II ladders, one input with free
variables and four degenerate inputs.  Type 1 inputs run
``type1-classgroup`` and ``adjust``: the Type 1 blocks of the selftest
corpus, three degenerate inputs and a fixed seeded set with free variables.
The selftest inputs are read off ``tricl.selftest.GOLDEN_CASES``, so the
golden test fails when that table changes them.  Regenerate only when an
output is meant to change.  Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from tricl.cli import main as cli_main
from tricl.selftest import GOLDEN_CASES, _type1

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"

COMMANDS = (("report", "--method", "both"), ("coxring",), ("duval",))
TYPE1_COMMANDS = (("type1-classgroup",), ("adjust",))

_PRIMES = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# The selftest corpus: its trinomial blocks in table order without repeats,
# and its Type 1 cases by name.
_TRINOMIAL = [blocks for _, compute, blocks, _ in GOLDEN_CASES if compute is not _type1]
SELFTEST_BLOCKS = [blocks for k, blocks in enumerate(_TRINOMIAL) if blocks not in _TRINOMIAL[:k]]
SELFTEST_TYPE1 = [(name, blocks) for name, compute, blocks, _ in GOLDEN_CASES if compute is _type1]


def inputs() -> list[tuple[str, dict]]:
    """(name, input file content) for every golden input."""
    out = [(f"selftest-{k}", {"blocks": b}) for k, b in enumerate(SELFTEST_BLOCKS)]
    out += [
        (f"case_iii-{k}", {"blocks": [[2], [4], [10]] + [[p] for p in _PRIMES[: k - 3]]})
        for k in range(3, 18)
    ]
    for c in (8, 16, 32, 64):
        out.append((f"case_ii-c{c}", {"blocks": [[c], [c], [3], [5]]}))
        out.append((f"case_ii_wide-c{c}", {"blocks": [[c, 2 * c], [c], [3, 3], [5, 5]]}))
    for c in (8, 16):
        for k in (5, 6):
            out.append((f"case_ii_tail-c{c}-{k}", {"blocks": [[c], [c], [3], [5], [7], [11]][:k]}))
    out.append(("free-variables", {"blocks": [[2, 4], [2], [2, 6]], "m": 2}))
    out += [
        ("degenerate-empty", {"blocks": []}),
        ("degenerate-one", {"blocks": [[2]]}),
        ("degenerate-two", {"blocks": [[2], [3]]}),
        ("degenerate-linear", {"blocks": [[1], [1], [1]]}),
    ]
    return [(name, {"kind": "trinomial", **spec}) for name, spec in out]


def type1_inputs() -> list[tuple[str, dict]]:
    """(name, input file content) for every golden Type 1 input."""
    out = [(name, {"blocks": blocks}) for name, blocks in SELFTEST_TYPE1]
    out += [
        ("type1-degenerate-empty", {"blocks": []}),
        ("type1-degenerate-one", {"blocks": [[2]]}),
        ("type1-degenerate-linear", {"blocks": [[1], [1]]}),
    ]
    rng = random.Random(18)
    for k in range(16):
        blocks = [
            [rng.choice((1, 1, 2, 2, 3, 4, 6)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 5))
        ]
        out.append((f"type1-seeded-{k}", {"blocks": blocks, "m": rng.randint(1, 3)}))
    return [(name, {"kind": "type1", **spec}) for name, spec in out]


def run(name: str, spec: dict, command: tuple[str, ...], workdir: Path) -> dict:
    """One golden record: the CLI's exit code and output for one input.

    The input file is written as ``<workdir>/<name>.json``; its path is
    replaced by the bare file name in the output, so records do not depend
    on where they were made.
    """
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command[0], "--format", "json", str(path), *command[1:]])
    return {
        "input": name,
        "command": list(command),
        "exit_code": code,
        "stdout": out.getvalue().replace(str(path), path.name),
        "stderr": err.getvalue().replace(str(path), path.name),
    }


def records() -> list[str]:
    """Every golden record as one JSON line, in file order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for corpus, commands in ((inputs(), COMMANDS), (type1_inputs(), TYPE1_COMMANDS)):
            for name, spec in corpus:
                for command in commands:
                    record = run(name, spec, command, Path(tmp))
                    lines.append(json.dumps(record, sort_keys=True))
    return lines


def main() -> int:
    lines = records()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(lines)} records to {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
