"""The CLI's JSON output on a fixed corpus, compared line for line.

`tests/golden/cli.jsonl` was written by `tests/make_golden.py`; any change
to an output of ``report --method both``, ``coxring`` or ``duval`` on its
trinomial inputs, or of ``type1-classgroup`` or ``adjust`` on its Type 1
inputs, fails here.  A report also round-trips through its adjusted form,
the routes that take the class group by its formula run no Smith form, and
only ``coxring`` builds the matrix P1.
"""

import json
import random

import make_golden
from tricl import coxring, exactlinalg


def test_cli_output_matches_golden():
    expected = make_golden.GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = make_golden.records()
    assert len(actual) == len(expected)
    for line, (got, want) in enumerate(zip(actual, expected), start=1):
        assert got == want, f"golden line {line} differs"


def _seeded_trinomial_inputs(count):
    rng = random.Random(20261019)
    for k in range(count):
        blocks = [
            [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 6))
        ]
        yield f"seeded-{k}", {"kind": "trinomial", "blocks": blocks, "m": rng.randint(0, 2)}


def test_report_round_trips_through_its_adjusted_form(tmp_path):
    """Fed back in, `adjusted.blocks` and `m` need no permutation or
    elimination, and give the same report outside the input echo."""
    command = ("report", "--method", "both")

    def report(name, spec):
        record = make_golden.run(name, spec, command, tmp_path)
        assert record["exit_code"] == 0, name
        return json.loads(record["stdout"])

    for name, spec in make_golden.inputs() + list(_seeded_trinomial_inputs(600)):
        first = report(name, spec)
        blocks, m = first["adjusted"]["blocks"], first["adjusted"]["m"]
        second = report(f"{name}-again", {"kind": "trinomial", "blocks": blocks, "m": m})
        adjusted = second["adjusted"]
        assert adjusted["permutation"] == list(range(len(blocks))), name
        assert adjusted["eliminated_blocks"] == [] and adjusted["blocks"] == blocks, name
        for echo in ("input", "file", "adjusted"):
            del first[echo], second[echo]
        assert second == first, name


def test_formula_routes_run_no_smith_form(tmp_path, monkeypatch):
    """`classgroup` and `report` under `--method formula`, and
    `type1-classgroup`, which takes the lift's group by its formula, give the
    same records on the golden inputs when every Smith form fails."""
    formula = (("classgroup", "--method", "formula"), ("report", "--method", "formula"))
    runs = [(name, spec, command) for name, spec in make_golden.inputs() for command in formula]
    runs += [(name, spec, ("type1-classgroup",)) for name, spec in make_golden.type1_inputs()]
    expected = [make_golden.run(*run, tmp_path) for run in runs]
    assert sum(record["exit_code"] == 0 for record in expected) > len(runs) // 2

    def refuse(matrix):
        raise AssertionError("a Smith form ran")

    monkeypatch.setattr(exactlinalg, "smith_invariants", refuse)
    for run, record in zip(runs, expected):
        assert make_golden.run(*run, tmp_path) == record, run[:1] + run[2:]


def test_only_coxring_builds_p1(tmp_path, monkeypatch):
    """Every command but `coxring` gives the same records on the golden
    inputs when building P1 fails: the total coordinate space is read off
    its lemma."""
    commands = [("classgroup", "--method", m) for m in ("formula", "snf", "both")]
    commands += [("report", "--method", m) for m in ("formula", "snf", "both")]
    commands += [("iterate",), ("duval",)]
    runs = [(name, spec, command) for name, spec in make_golden.inputs() for command in commands]
    runs += [(name, spec, ("type1-classgroup",)) for name, spec in make_golden.type1_inputs()]
    expected = [make_golden.run(*run, tmp_path) for run in runs]
    assert sum(record["exit_code"] == 0 for record in expected) > len(runs) // 2

    def refuse(cox):
        raise AssertionError("P1 was built")

    monkeypatch.setattr(coxring.CoxConstruction, "p1", property(refuse))
    for run, record in zip(runs, expected):
        assert make_golden.run(*run, tmp_path) == record, run[:1] + run[2:]
