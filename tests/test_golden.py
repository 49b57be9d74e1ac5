"""The CLI's JSON output on a fixed corpus, compared line for line.

`tests/golden/cli.jsonl` was written by `tests/make_golden.py`; any change
to an output of ``report --method both``, ``coxring`` or ``duval`` on those
inputs fails here.
"""

import make_golden


def test_cli_output_matches_golden():
    expected = make_golden.GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = make_golden.records()
    assert len(actual) == len(expected)
    for line, (got, want) in enumerate(zip(actual, expected), start=1):
        assert got == want, f"golden line {line} differs"
