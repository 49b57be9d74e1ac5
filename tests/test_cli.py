"""Tests for the command line front end: parsing, reports, exit codes."""

import json
import sys
import time

import pytest

from tricl import classgroup, exactlinalg, selftest
from tricl.cli import (
    EXIT_INTERNAL_MISMATCH,
    EXIT_INVALID_INPUT,
    EXIT_NOT_ADMITTED,
    EXIT_NOT_FINITELY_GENERATED,
    EXIT_OK,
    EXIT_RESOURCE_LIMIT,
    SpecError,
    build_parser,
    main,
    parse_spec,
)
from tricl.variety import MAX_BLOCK, MAX_N_PRIME, TrinomialVariety


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseSpec:
    def test_quadric(self):
        spec = parse_spec('{"m":0,"blocks":[[2],[2],[2]],"kind":"trinomial"}')
        assert spec == {"kind": "trinomial", "blocks": [[2], [2], [2]], "m": 0, "theta": None}
        # The text report echoes the fields in this order.
        assert list(spec) == ["kind", "blocks", "m", "theta"]

    def test_type1_defaults(self):
        spec = parse_spec('{"kind":"type1","blocks":[[2],[2]]}')
        assert spec["kind"] == "type1"
        assert spec["m"] == 0 and spec["theta"] is None
        assert parse_spec('{"kind":"type1","blocks":[[2],[2]],"theta":[]}')["theta"] is None

    def test_invalid_exponent(self):
        with pytest.raises(SpecError, match=r"blocks\[0\]\[0\]"):
            parse_spec('{"kind":"trinomial","blocks":[[0]]}')

    def test_malformed_json(self):
        with pytest.raises(SpecError, match="malformed JSON"):
            parse_spec("{nope")

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            parse_spec('{"kind":"cubic","blocks":[[2]]}')

    def test_unknown_field(self):
        with pytest.raises(SpecError, match="unknown fields"):
            parse_spec('{"kind":"trinomial","blocks":[[2]],"bogus":1}')

    def test_theta_strings(self):
        spec = parse_spec(
            '{"kind":"trinomial","blocks":[[2],[2],[2],[3]],"theta":["1/2"]}'
        )
        assert spec["theta"] == ["1/2"]
        with pytest.raises(SpecError, match="theta"):
            parse_spec('{"kind":"trinomial","blocks":[[2],[2],[2],[3]],"theta":["x"]}')

    @pytest.mark.parametrize(
        "text, field",
        [
            ('[2, 2, 2]', "top level must be a JSON object"),
            ('{"kind": "trinomial", "blocks": [2, 2, 2]}', "field 'blocks'"),
            ('{"kind": "trinomial", "blocks": [[2], [2], [2]], "m": -1}', "field 'm'"),
            ('{"kind": "trinomial", "blocks": [[2], [2], [2]], "m": true}', "field 'm'"),
            ('{"kind": "trinomial", "blocks": [[2], [2], [2], [3]], "theta": [1]}', "field 'theta'"),
        ],
    )
    def test_type_errors(self, text, field):
        with pytest.raises(SpecError, match=field):
            parse_spec(text)

    def test_max_block_cap(self):
        def spec(blocks):
            return json.dumps({"kind": "trinomial", "blocks": blocks})

        with pytest.raises(SpecError, match="MAX_BLOCK"):
            parse_spec(spec([[2]] * (MAX_BLOCK + 2)))
        with pytest.raises(SpecError, match="MAX_BLOCK"):
            parse_spec(spec([[2] * (MAX_BLOCK + 1)]))
        parse_spec(spec([[2] * MAX_BLOCK] * (MAX_BLOCK + 1)))


class TestSubcommands:
    def test_classgroup_both_methods(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[2, 4], [2], [2, 6]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "classgroup", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_group"]["group"]["pretty"] == "Z^2 x Z/2"
        assert payload["class_group"]["agree"] is True

    @pytest.mark.parametrize("blocks", [[[5], [3], [2]], [[2], [1], [2]]])
    def test_classgroup_skipped_snf_is_null(self, tmp_path, capsys, blocks):
        # factorial and degenerate input: the group follows without SNF
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": blocks})
        code, out, _ = run_cli(capsys, "--format", "json", "classgroup", path)
        assert code == EXIT_OK
        payload = json.loads(out)["class_group"]
        assert payload["group"]["pretty"] == "0"
        assert payload["formula"]["pretty"] == "0"
        assert payload["snf"] is None
        assert payload["agree"] is None

    def test_format_before_or_after_the_subcommand(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[2, 4], [2], [2, 6]]}
        )
        before = run_cli(capsys, "--format", "json", "report", path)
        after = run_cli(capsys, "report", "--format", "json", path)
        assert before == after
        assert json.loads(before[1])["class_group"]["group"]["pretty"] == "Z^2 x Z/2"
        text = run_cli(capsys, "report", path)
        assert text[0] == EXIT_OK and text[1] != before[1]
        assert run_cli(capsys, "--format", "text", "report", path) == text

    def test_parser_is_built_once_and_keeps_no_options_between_calls(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]})
        code, out, _ = run_cli(capsys, "--format", "json", "classgroup", "--method", "snf", path)
        assert code == EXIT_OK
        assert json.loads(out)["class_group"]["method"] == "snf"
        code, out, _ = run_cli(capsys, "classgroup", path)
        assert code == EXIT_OK
        assert out.startswith("input:\n") and "\n  method: both\n" in out
        assert build_parser() is build_parser()

    def test_classgroup_not_finitely_generated_exits_3(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [3], [4]]}
        )
        code, _, err = run_cli(capsys, "classgroup", path)
        assert code == EXIT_NOT_FINITELY_GENERATED
        assert "not finitely generated" in err

    def test_invalid_input_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[0]]})
        code, _, err = run_cli(capsys, "validate", path)
        assert code == EXIT_INVALID_INPUT

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == EXIT_INVALID_INPUT

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "validate", str(tmp_path))
        assert code == EXIT_INVALID_INPUT
        assert out == "" and err == "no input files found\n"

    def test_validate_success(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [3], [4]]})
        code, out, err = run_cli(capsys, "--format", "json", "validate", path)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["valid"] is True

    def _assert_refused_as_input(self, capsys, path, message):
        code, _, err = run_cli(capsys, "--format", "json", "classgroup", str(path))
        assert code == EXIT_INVALID_INPUT
        failure = json.loads(err.splitlines()[0])
        assert failure["error_type"] == "SpecError" and failure["exit_code"] == 2
        assert message in failure["error"]

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        path.write_bytes(b"\xff\xfe{}")
        self._assert_refused_as_input(capsys, path, "not UTF-8")

    def test_over_long_integer_exits_2(self, tmp_path, capsys):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "v.json"
        path.write_text('{"kind": "trinomial", "blocks": [[' + digits + "]]}", encoding="utf-8")
        self._assert_refused_as_input(capsys, path, "digits")

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        depth = 10 * sys.getrecursionlimit()
        path = tmp_path / "v.json"
        path.write_text('{"blocks": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
        self._assert_refused_as_input(capsys, path, "nested too deeply")

    def test_iterate_not_admitted_exits_4(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [4], [2, 2]]}
        )
        code, _, err = run_cli(capsys, "iterate", path)
        assert code == EXIT_NOT_ADMITTED

    def test_duval_not_hyperplatonic_exits_4(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[7], [3], [2]]}
        )
        code, _, _ = run_cli(capsys, "duval", path)
        assert code == EXIT_NOT_ADMITTED

    def test_iterate_chain(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [3], [2]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "iterate", path)
        assert code == EXIT_OK
        chain = json.loads(out)["chain"]
        triples = [s["basic_platonic_triple"]["triple"] for s in chain["steps"]]
        assert triples == [[4, 3, 2], [3, 3, 2], [2, 2, 2], [1, 1, 1]]

    def test_adjust_fragment(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[3], [4], [2]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "adjust", path)
        assert code == EXIT_OK
        assert json.loads(out)["adjusted"]["blocks"] == [[4], [2], [3]]

    def test_type1_subcommand(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "type1", "blocks": [[2], [1, 1]]})
        code, out, _ = run_cli(capsys, "--format", "json", "type1-classgroup", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_group"]["pretty"] == "Z"
        assert payload["lift"]["blocks"] == [[2], [2], [1, 1]]

    def test_type1_not_finitely_generated_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "type1", "blocks": [[3], [3]]})
        code, out, err = run_cli(capsys, "--format", "json", "type1-classgroup", path)
        assert code == EXIT_NOT_FINITELY_GENERATED and out == ""
        failure = json.loads(err)
        assert failure["error"] == "class group is not finitely generated: variety is not rational"

    def test_adjust_type1(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "type1", "blocks": [[1], [2], [4, 2]]})
        code, out, _ = run_cli(capsys, "--format", "json", "adjust", path)
        assert code == EXIT_OK
        assert json.loads(out)["adjusted"] == {"blocks": [[4, 2], [2]], "m": 0, "degenerate": False}

    def test_type1_on_trinomial_command_exits_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "type1", "blocks": [[2], [2]]})
        code, _, _ = run_cli(capsys, "classgroup", path)
        assert code == EXIT_INVALID_INPUT

    def test_coxring_fragment(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "coxring", path)
        assert code == EXIT_OK
        cox = json.loads(out)["coxring"]
        assert cox["c"] == [1, 1, 2]
        assert cox["tcs_blocks"] == [[2], [1], [3, 3], [3, 3]]
        assert cox["p1"] == [[-2, 1, 0, 0], [-4, 0, 3, 3]]

    def test_coxring_of_an_affine_space_keeps_p1_unscaled(self, tmp_path, capsys):
        # Adjusted to [[4], [2]]: two blocks carry no relation, so the row is
        # not divided by gcd(L0, L1) = 2.
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[2], [4]]})
        code, out, _ = run_cli(capsys, "--format", "json", "coxring", path)
        assert code == EXIT_OK
        cox = json.loads(out)["coxring"]
        assert cox["p1"] == [[-4, 2]] and cox["c"] == [1, 1]
        assert cox["tcs_blocks"] == [[4], [2]]

    @pytest.mark.parametrize(
        "command, blocks, theta",
        [
            ("validate", [[2], [2], [2], [3]], ["1e100000000"]),
            ("classgroup", [[2], [2], [2], [3]], ["2.5E-3"]),
            # This once rendered 10^5000 in its relations and exited 5.
            ("adjust", [[6], [3], [4], [2], [5]], ["1e5000", "2"]),
        ],
    )
    def test_theta_in_exponent_notation_exits_2(self, tmp_path, capsys, command, blocks, theta):
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": blocks, "theta": theta})
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", command, path)
        assert time.perf_counter() - start < 1
        assert code == EXIT_INVALID_INPUT and out == ""
        assert json.loads(err)["error_type"] == "SpecError"

    def test_coxring_not_rational_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [3], [4]]})
        code, out, err = run_cli(capsys, "--format", "json", "coxring", path)
        assert code == EXIT_NOT_FINITELY_GENERATED and out == ""
        assert json.loads(err)["error"] == "the total coordinate space needs a rational variety"

    def test_memory_error_exits_6(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(rows):
            raise MemoryError()

        monkeypatch.setattr(exactlinalg, "_eliminate_exact", out_of_memory)
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]})
        code, _, err = run_cli(capsys, "--format", "json", "classgroup", path)
        assert code == EXIT_RESOURCE_LIMIT == 6
        failure = json.loads(err.splitlines()[0])
        assert failure["error_type"] == "MemoryError" and failure["exit_code"] == 6

    def test_oracle_mismatch_exits_5(self, tmp_path, capsys, monkeypatch):
        # The Smith route is made to disagree with the formula route.
        monkeypatch.setattr(
            classgroup, "class_group_snf", lambda variety: exactlinalg.FgAbelianGroup(7, ())
        )
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]})
        code, out, err = run_cli(capsys, "--format", "json", "report", "--method", "both", path)
        assert code == EXIT_INTERNAL_MISMATCH == 5 and out == ""
        failure = json.loads(err)
        assert failure["error_type"] == "OracleMismatchError" and failure["exit_code"] == 5
        assert failure["error"].startswith("class group mismatch for blocks ((4,), (2,), (3, 3))")

    def test_compulsory_torsion_mismatch_exits_5(self, tmp_path, capsys, monkeypatch):
        # The lemma is made to disagree with the closed form; no Smith form runs.
        monkeypatch.setattr(classgroup, "_chain", lambda factors: (7, 7))
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]})
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", "--method", "formula", path)
        assert code == EXIT_INTERNAL_MISMATCH and out == ""
        failure = json.loads(err)
        assert failure["error_type"] == "OracleMismatchError" and failure["exit_code"] == 5
        assert failure["error"] == (
            "compulsory torsion mismatch: closed form Z/3, "
            "lemma Z/7 on the TCS block gcds (2, 1, 3, 3)"
        )

    def test_largest_tcs_block_gcd_fault_exits_5(self, tmp_path, capsys, monkeypatch):
        # The TCS lemma is made to double its largest block gcd, (2, 1, 1, 1)
        # becomes (4, 1, 1, 1): the torsion of its chain stays trivial, so
        # only the chain's largest factor, 2 by the closed form, sees it.
        derive = TrinomialVariety._tcs.function

        def doubled(variety):
            tcs = derive(variety)
            top = tcs.block_gcds().index(max(tcs.block_gcds()))
            blocks = list(tcs.blocks)
            blocks[top] = [2 * e for e in blocks[top]]
            return TrinomialVariety(blocks, tcs.m)

        monkeypatch.setattr(TrinomialVariety._tcs, "function", doubled)
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 2]]})
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", "--method", "formula", path)
        assert code == EXIT_INTERNAL_MISMATCH and out == ""
        failure = json.loads(err)
        assert failure["error_type"] == "OracleMismatchError" and failure["exit_code"] == 5
        assert failure["error"] == (
            "compulsory torsion mismatch: largest factor 2 by the closed form, "
            "4 by the lemma on the TCS block gcds (4, 1, 1, 1)"
        )

    def test_rank_mismatch_under_snf_exits_5(self, tmp_path, capsys, monkeypatch):
        # Only the Smith route can miss the rank n_tilde; it is made to.
        monkeypatch.setattr(
            classgroup, "class_group_snf", lambda variety: exactlinalg.FgAbelianGroup(7, (3,))
        )
        path = write_spec(tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]})
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", "--method", "snf", path)
        assert code == EXIT_INTERNAL_MISMATCH and out == ""
        failure = json.loads(err)
        assert failure["error_type"] == "OracleMismatchError" and failure["exit_code"] == 5
        assert failure["error"] == "group rank 7 disagrees with the rank formula 1"

    def test_failing_selftest_case_exits_5(self, capsys, monkeypatch):
        # A wrong Type 1 group fails exactly the three Type 1 cases.
        monkeypatch.setattr(
            selftest, "class_group_type1", lambda variety: exactlinalg.FgAbelianGroup(5, ())
        )
        failed = [result for result in selftest.run_selftest() if not result.ok]
        assert [result.name for result in failed] == [
            "type1-plane-curve", "type1-rank-one", "type1-not-fg"
        ]
        assert failed[0].detail == "AssertionError: got Z^5, expected 0"
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_INTERNAL_MISMATCH
        assert "FAIL type1-rank-one: AssertionError: got Z^5, expected Z" in out
        assert "selftest: 15/18 passed" in out

    def test_compulsory_torsion_fault_fails_the_selftest(self, capsys, monkeypatch):
        # The lemma is fed the first TCS block gcd twice; the group cases take
        # the compulsory torsion through class_group_report and must see it.
        chain = exactlinalg._chain
        monkeypatch.setattr(classgroup, "_chain", lambda factors: chain((*factors, factors[0])))
        failed = [result for result in selftest.run_selftest() if not result.ok]
        assert [result.name for result in failed] == [
            "hypersurface-z", "hypersurface-z-x-z3", "table-row-i", "table-row-iii", "table-row-v"
        ]
        assert all(result.detail.startswith("OracleMismatchError: ") for result in failed)
        code, _, _ = run_cli(capsys, "selftest")
        assert code == EXIT_INTERNAL_MISMATCH

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_OK
        assert "18/18 passed" in out

    def test_selftest_json_writes_only_json_lines(self, capsys):
        code, out, err = run_cli(capsys, "--format", "json", "selftest")
        assert code == EXIT_OK
        results = [json.loads(line) for line in out.splitlines()]
        assert len(results) == 18 and all(result["ok"] is True for result in results)
        assert err == "selftest: 18/18 passed\n"


class TestReport:
    def test_report_round_trips(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [3, 3]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "report", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        # machine form round-trips exactly
        assert json.loads(json.dumps(payload)) == payload
        assert payload["class_group"]["group"]["pretty"] == "Z x Z/3"
        assert payload["hyperplatonic"]["ade_label"] == "E6"
        assert payload["predicates"]["free_abelian"] is False

    def test_report_non_hyperplatonic_rational(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [4], [2, 2]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "report", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["hyperplatonic"] is None
        assert payload["duval"] is None
        assert payload["chain"]["admitted"] is False

    def test_report_on_non_rational_still_succeeds(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[6], [3], [4]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "report", path)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["class_group"]["group"]["finitely_generated"] is False
        assert payload["chain"] is None

    def test_text_and_json_contain_identical_data(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[2], [2], [2]]}
        )
        code, text_out, _ = run_cli(capsys, "report", path)
        code2, json_out, _ = run_cli(capsys, "--format", "json", "report", path)
        assert code == code2 == EXIT_OK
        payload = json.loads(json_out)

        def keys(data):
            if isinstance(data, dict):
                for k, v in data.items():
                    yield k
                    yield from keys(v)
            elif isinstance(data, list):
                for v in data:
                    yield from keys(v)

        for key in keys(payload):
            assert key in text_out

    def test_hyperplatonic_report_has_chain_and_duval(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, "v.json", {"kind": "trinomial", "blocks": [[4], [2], [2]]}
        )
        code, out, _ = run_cli(capsys, "--format", "json", "report", path)
        payload = json.loads(out)
        assert payload["hyperplatonic"]["ade_label"] == "A3"
        assert payload["chain"]["patterns"] == ["(ii)"]
        assert payload["duval"]["verified"] is True


class TestBatch:
    def test_directory_batch_is_fault_tolerant(self, tmp_path, capsys):
        write_spec(tmp_path, "a.json", {"kind": "trinomial", "blocks": [[2], [2], [2]]})
        write_spec(tmp_path, "b.json", {"kind": "trinomial", "blocks": [[6], [3], [4]]})
        write_spec(tmp_path, "c.json", "not json at all")
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", str(tmp_path))
        # one good report on stdout, two failures on stderr, worst code wins
        good = [json.loads(line) for line in out.strip().splitlines()]
        assert len(good) == 1
        assert good[0]["class_group"]["group"]["pretty"] == "Z/2"
        failures = [json.loads(line) for line in err.strip().splitlines() if line.startswith("{")]
        assert {f["exit_code"] for f in failures} == {2, 3}
        assert code == EXIT_NOT_FINITELY_GENERATED

    def test_every_coefficient_reset_is_reported(self, tmp_path, capsys):
        # `adjust` reorders both inputs, so their exact coefficients are reset.
        paths = [
            write_spec(tmp_path, name, {"kind": "trinomial", "blocks": blocks, "theta": [theta]})
            for name, blocks, theta in [
                ("w1.json", [[3], [6], [4], [5]], "1/2"),
                ("w2.json", [[5], [10], [4], [3]], "3/2"),
            ]
        ]
        reset = (
            "adjustment rewires the relations; "
            "exact coefficients were reset to generic placeholders"
        )
        # Twice in one process, then where both inputs fail (not rational).
        runs = [("adjust", EXIT_OK)] * 2 + [("classgroup", EXIT_NOT_FINITELY_GENERATED)]
        for command, code in runs:
            exit_code, _, err = run_cli(capsys, "--format", "json", command, *paths)
            assert exit_code == code
            *lines, summary = err.splitlines()
            assert summary == f"{2 if code == EXIT_OK else 0}/2 inputs processed"
            records = [json.loads(line) for line in lines]
            warned = [r for r in records if "warning" in r]
            assert warned == [{"file": path, "warning": reset} for path in paths]
            assert len(records) == (2 if code == EXIT_OK else 4)

    def test_type1_coefficient_reset_is_reported(self, tmp_path, capsys):
        # The first input is in adjusted order and keeps its coefficients.
        paths = [
            write_spec(tmp_path, name, {"kind": "type1", "blocks": blocks, "theta": ["1", "1/2"]})
            for name, blocks in [("kept.json", [[5], [3], [2]]), ("reset.json", [[3], [5], [2]])]
        ]
        code, out, err = run_cli(capsys, "--format", "json", "adjust", *paths)
        assert code == EXIT_OK
        assert [json.loads(line)["adjusted"]["blocks"] for line in out.splitlines()] == [
            [[5], [3], [2]]
        ] * 2
        *lines, summary = err.splitlines()
        assert summary == "2/2 inputs processed"
        assert [json.loads(line) for line in lines] == [
            {
                "file": paths[1],
                "warning": "adjustment rewires the relations; "
                "exact coefficients were reset to generic placeholders",
            }
        ]

    def test_batch_summary_line(self, tmp_path, capsys):
        write_spec(tmp_path, "a.json", {"kind": "trinomial", "blocks": [[2], [2], [2]]})
        write_spec(tmp_path, "b.json", {"kind": "trinomial", "blocks": [[3], [2], [2]]})
        code, out, _ = run_cli(capsys, "classgroup", str(tmp_path))
        assert code == EXIT_OK
        assert "2/2 inputs processed" in out


# Case III with single-variable blocks, from 3 blocks up to the 17 that
# MAX_BLOCK admits, the six-block case II tail, and case III at
# 17 blocks of 16 variables, whose Bareiss and mod-D stages get 60 x 704
# rows, the most of any in-cap input tried.
CASE_III_PRIMES = (3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
CAP_LADDER = [
    [[2], [4], [10]] + [[p] for p in CASE_III_PRIMES[: k - 3]]
    for k in range(3, MAX_BLOCK + 2)
] + [
    [[16], [16], [3], [5], [7], [11]],
    [[2] * 16, [4] * 16, [10] * 16] + [[p] * 16 for p in CASE_III_PRIMES],
]
# Each single-variable point takes under 30 ms on a 2-vCPU host, and the
# 16-variable one ~0.2 s.  Integer elimination without a bound on entry
# growth needs over 120 s at 10 blocks, so the bound catches its return with
# room to spare on a slow host.
CAP_LADDER_BOUND_S = 2.0


def _ladder_id(blocks):
    width = f"x{len(blocks[0])}" if len(blocks[0]) > 1 else ""
    return f"{len(blocks)}-blocks-{blocks[0][0]}{width}"


# Case II with c = 2^8 ... 2^16 in two shapes, [[c], [c], [3]] and
# [[c], [c], [3], [5, 7]]: their TCS has n' = 2 + c (n_2 + ...) generators.
# A point within MAX_N_PRIME takes under 1 s on a 2-vCPU host; building the
# matrices densely took 3 s at c = 1024 and over 60 s at c = 4096.  A point
# beyond it is refused before any matrix is built.
C_LADDER = [
    blocks
    for c in (1 << e for e in range(8, 17))
    for blocks in ([[c], [c], [3]], [[c], [c], [3], [5, 7]])
]
C_LADDER_BOUND_S = 8.0
REFUSAL_BOUND_S = 0.5


class TestCapLadder:
    @pytest.mark.parametrize("blocks", CAP_LADDER, ids=_ladder_id)
    def test_formula_equals_snf_in_bounded_time(self, tmp_path, capsys, blocks):
        path = write_spec(tmp_path, "in.json", {"kind": "trinomial", "blocks": blocks})
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", "--method", "both", path)
        elapsed = time.perf_counter() - started
        assert code == EXIT_OK, err
        record = json.loads(out)["class_group"]
        assert record["agree"] is True
        assert record["snf"] == record["formula"] == record["group"]
        assert elapsed < CAP_LADDER_BOUND_S

    @pytest.mark.parametrize("blocks", C_LADDER, ids=lambda b: f"c{b[0][0]}-{len(b)}-blocks")
    def test_c_ladder_agrees_or_is_refused_fast(self, tmp_path, capsys, blocks):
        c = blocks[0][0]
        n_prime = 2 + c * sum(len(block) for block in blocks[2:])
        path = write_spec(tmp_path, "in.json", {"kind": "trinomial", "blocks": blocks})
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "classgroup", "--method", "both", path)
        elapsed = time.perf_counter() - started
        if n_prime <= MAX_N_PRIME:
            assert code == EXIT_OK, err
            record = json.loads(out)["class_group"]
            assert record["agree"] is True
            assert record["snf"] == record["formula"] == record["group"]
            assert record["group"]["invariant_factors"] == [3] * (c - 1)
            assert elapsed < C_LADDER_BOUND_S
        else:
            assert code == EXIT_RESOURCE_LIMIT, out
            assert json.loads(err.splitlines()[0])["error_type"] == "ResourceLimitError"
            assert elapsed < REFUSAL_BOUND_S

    @pytest.mark.parametrize(
        "blocks", [[[4], [2], [3, 3]], [[2], [3], [5]]], ids=("non-factorial", "factorial")
    )
    def test_coxring_refuses_n_plus_m_beyond_the_bound_fast(self, tmp_path, capsys, blocks):
        path = write_spec(tmp_path, "in.json", {"kind": "trinomial", "blocks": blocks, "m": 10**8})
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "coxring", path)
        elapsed = time.perf_counter() - started
        assert code == EXIT_RESOURCE_LIMIT, out
        assert json.loads(err.splitlines()[0])["error_type"] == "ResourceLimitError"
        assert elapsed < REFUSAL_BOUND_S

    def test_coxring_writes_p1_up_to_the_bound(self, tmp_path, capsys):
        spec = {"kind": "trinomial", "blocks": [[4], [2], [3, 3]], "m": MAX_N_PRIME - 4}
        path = write_spec(tmp_path, "in.json", spec)
        code, out, err = run_cli(capsys, "--format", "json", "coxring", path)
        assert code == EXIT_OK, err
        assert [len(row) for row in json.loads(out)["coxring"]["p1"]] == [MAX_N_PRIME] * 2


# The longest integer literal the interpreter reads, 4,300 nines by default:
# valid input, yet a count or an output integer built from it can be too long
# to print.  Such input is beyond the size handled (exit 6), never a bug (5).
NINES = int("9" * sys.get_int_max_str_digits())
WIDE_CASE_II = [[NINES], [NINES], [2] * 16]  # n' = 2 + 16 NINES
E6_BLOCKS = [[4], [2], [3, 3]]
# Case III whose factor L0 L1 L2 / 4 has about 5,460 digits.
HUGE_CASE_III = [[2 * 3**4000], [2 * 5**2666], [2 * 7**2000]]
# A plain decimal whose denominator 10^limit has one digit too many to print,
# in the adjusted relations that `adjust` and `report` write.
LONG_THETA = {
    "blocks": [[6], [3], [4], [2], [5]],
    "theta": ["1." + "0" * (sys.get_int_max_str_digits() - 1) + "1", "2"],
}


class TestIntegersTooLongToPrint:
    @pytest.mark.parametrize(
        "command, spec, message",
        [
            ("report", {"blocks": WIDE_CASE_II}, "n' >= 2^"),
            ("classgroup", {"blocks": WIDE_CASE_II}, "n' >= 2^"),
            ("coxring", {"blocks": WIDE_CASE_II}, "n' >= 2^"),
            ("coxring", {"blocks": E6_BLOCKS, "m": NINES}, "n + m >= 2^"),
            ("report", {"blocks": E6_BLOCKS, "m": NINES}, "digits"),
            ("invariants", {"blocks": E6_BLOCKS, "m": NINES}, "digits"),
            ("classgroup", {"blocks": HUGE_CASE_III}, "digits"),
            ("adjust", LONG_THETA, "digits"),
            ("report", LONG_THETA, "digits"),
        ],
        ids=[
            "report-wide-case-ii",
            "classgroup-wide-case-ii",
            "coxring-wide-case-ii",
            "coxring-huge-m",
            "report-huge-m",
            "invariants-huge-m",
            "classgroup-huge-case-iii",
            "adjust-long-theta",
            "report-long-theta",
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exits_6(self, tmp_path, capsys, command, spec, message, fmt):
        path = write_spec(tmp_path, "in.json", {"kind": "trinomial", **spec})
        method = ["--method", "formula"] if command in ("classgroup", "report") else []
        code, out, err = run_cli(capsys, "--format", fmt, command, *method, path)
        assert code == EXIT_RESOURCE_LIMIT, err
        assert out == ""
        assert "ResourceLimitError" in err and message in err

    def test_the_longest_printable_integer_is_written(self, tmp_path, capsys):
        # dimension = m + 3 = 10^(limit - 1) + 2 has exactly the digits printed.
        m = NINES // 10
        spec = {"kind": "trinomial", "blocks": E6_BLOCKS, "m": m}
        path = write_spec(tmp_path, "in.json", spec)
        code, out, err = run_cli(capsys, "--format", "json", "invariants", path)
        assert code == EXIT_OK, err
        assert json.loads(out)["invariants"]["dimension"] == m + 3

    def test_the_longest_printable_coefficient_is_written(self, tmp_path, capsys):
        digits = sys.get_int_max_str_digits()
        theta = "1." + "0" * (digits - 2) + "1"  # 10^(limit - 1) + 1 over 10^(limit - 1)
        spec = {"kind": "trinomial", "blocks": LONG_THETA["blocks"], "theta": [theta, "2"]}
        path = write_spec(tmp_path, "in.json", spec)
        code, out, err = run_cli(capsys, "--format", "json", "adjust", path)
        assert code == EXIT_OK, err
        relation = json.loads(out)["adjusted"]["relations"].splitlines()[1]
        assert relation.startswith(f"({10 ** (digits - 1) + 1}/{10 ** (digits - 1)})*")
