import argparse
import csv
import hashlib
import io
import json
import sys

import numpy as np
import pytest

from flagcka.bell import GENERATION_INPUTS, Behavior, behavior_from_strategy, behavior_to_json
from flagcka.checks import VERIFY_CHUNK, CheckReport
from flagcka import __version__, cli
from flagcka.cli import _COMMANDS, _SLICE, _emit, build_parser, main
from flagcka.protocol import PARTY_NAMES
from flagcka.strategies import N_INPUTS, OUTCOME_LABELS, NoiseParams, honest_flagged_strategy

from devices import constant_flag_strategy


def test_info_reports_constants(capsys):
    assert main(["info"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["package"] == "flagcka"
    assert doc["scenario"] == {
        "parties": list(PARTY_NAMES),
        "inputs": list(N_INPUTS),
        "outputs_per_party": len(OUTCOME_LABELS),
        "generation_inputs": list(GENERATION_INPUTS),
    }
    assert doc["scenario"]["inputs"] == [2, 3, 3]
    assert doc["constants"]["local_bound"] == 2.0
    assert doc["constants"]["quantum_maximum"] == pytest.approx(2 * np.sqrt(2))
    assert doc["constants"]["honest_conference_rate"] == 0.5
    assert doc["constants"]["honest_decoupling_entropy"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_writes_everything(tmp_path, capsys):
    out = tmp_path / "result.json"
    transcript = tmp_path / "rounds.jsonl"
    keys_dir = tmp_path / "keys"
    code = main(
        [
            "simulate",
            "--rounds", "2000",
            "--seed", "4",
            "--output", str(out),
            "--transcript", str(transcript),
            "--keys-dir", str(keys_dir),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "completed"
    lines = transcript.read_text().strip().splitlines()
    assert len(lines) == 2000
    key_files = sorted(p.name for p in keys_dir.iterdir())
    assert key_files == ["alice.key", "bob.key", "carole.key"]
    alice = (keys_dir / "alice.key").read_text().strip()
    assert alice == doc["keys"]["alice"]
    assert set(alice) <= {"0", "1"}


def test_simulate_is_seed_deterministic(capsys):
    assert main(["simulate", "--rounds", "1500", "--seed", "10"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--rounds", "1500", "--seed", "10"]) == 0
    assert capsys.readouterr().out == first


def test_simulate_abort_exit_code(capsys):
    code = main(["simulate", "--rounds", "1500", "--seed", "2", "--visibility", "0.5"])
    assert code == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["outcome"] == "aborted"
    assert doc["abort_reason"] == "BellBelowThreshold"
    assert "aborted" in captured.err


def test_simulate_tamper_aborts(capsys):
    code = main(["simulate", "--rounds", "1200", "--seed", "1", "--tamper", "flag-constant:1"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["abort_reason"] == "FlagConstant"


def test_simulate_parallel(capsys):
    code = main(["simulate", "--rounds", "1500", "--seed", "9", "--strategy", "parallel"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["strategy_kind"] == "parallel"


def test_simulate_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_rounds": 1500, "gamma": 0.2, "seed": 0}))
    code = main(["simulate", "--config", str(cfg), "--seed", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["n_rounds"] == 1500


def test_simulate_config_file_seed_applies_without_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_rounds": 1500, "seed": 77}))
    assert main(["simulate", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["simulate", "--rounds", "1500", "--seed", "77"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(["simulate", "--rounds", "1500", "--seed", "0"]) == 0
    assert capsys.readouterr().out != from_file


def test_rates_command(tmp_path, capsys):
    behavior = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.95)))
    path = tmp_path / "behavior.json"
    path.write_text(behavior_to_json(behavior))
    assert main(["rates", str(path), "--method", "vn", "--mode", "two-scores"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "von_neumann_analytic"
    assert 0.0 < doc["r_cka"] < 0.5
    assert main(["rates", str(path), "--method", "minH", "--mode", "one-score"]) == 0
    doc_floor = json.loads(capsys.readouterr().out)
    assert doc_floor["r_cka"] <= doc["r_cka"]


def test_curve_csv_and_endpoints(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--points", "11", "--format", "csv", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 11
    assert float(rows[0]["s"]) == pytest.approx(2.0)
    assert float(rows[0]["entropy_bound"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[-1]["s"]) == pytest.approx(2 * np.sqrt(2))
    assert float(rows[-1]["entropy_bound"]) == pytest.approx(1.0, abs=1e-9)


def test_curve_json_and_endpoints(capsys):
    assert main(["curve", "--points", "5", "--method", "minH", "--mode", "one-score"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["method"], doc["mode"]) == ("min_entropy_analytic", "one_score")
    points = doc["points"]
    assert len(points) == 5
    assert points[0]["s"] == pytest.approx(2.0)
    assert points[0]["entropy_bound"] == pytest.approx(0.0, abs=1e-9)
    assert points[-1]["s"] == pytest.approx(2 * np.sqrt(2))
    assert points[-1]["entropy_bound"] == pytest.approx(1.0, abs=1e-9)


def test_curve_rejects_single_point(capsys):
    assert main(["curve", "--points", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "flagcka curve: error: --points must be at least 2\n"


def test_local_bound_command(capsys):
    assert main(["local-bound"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_value"] == 2.0
    assert set(doc["maximizer"]) == {"alice", "bob", "carole"}


def test_verify_all_passes(capsys):
    assert main(["verify", "--suite", "all", "--seeds", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(r["passed"] for r in doc)
    # honest all-suite (9) plus three randomized strategies without
    # the decoupling pair (7 each)
    assert len(doc) == 9 + 3 * 7


def test_verify_csv_format(capsys):
    assert main(["verify", "--suite", "tsirelson", "--seeds", "1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, *rows = out.strip().splitlines()
    assert header == "key,value"
    assert any("weighted_tsirelson" in row for row in rows)


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "everything"])
    assert err.value.code == 1


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["rates", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def _honest_json_with_false_zeros():
    # The honest behavior, valid, with each of its zero cells written as false.
    doc = json.loads(behavior_to_json(behavior_from_strategy(honest_flagged_strategy())))
    return json.dumps({triple: {key: p if p else False for key, p in cell.items()} for triple, cell in doc.items()})


@pytest.mark.parametrize(
    "text",
    [
        '{"0,0,-1": {"0 0 0 0 0 -1": 0.25}}',
        '{"0,0,9": {"0 0 0 0 0 0": 1.0}}',
        "[1, 2]",
        pytest.param(_honest_json_with_false_zeros(), id="honest-zeros-as-false"),
    ],
)
def test_rates_rejects_behavior_keys_it_cannot_place(tmp_path, capsys, text):
    path = tmp_path / "behavior.json"
    path.write_text(text)
    assert main(["rates", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: behavior JSON" in captured.err


def _honest_table(visibility):
    return behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=visibility))).table.copy()


def _negative_entry_table():
    # The mass at x=0, y=z=2, a=0, ta=0, b=1, tb=0, c=0, tc=0, plus 0.01
    # more, moved to b=0: still normalised, but one entry is -0.01.
    table = _honest_table(0.9)
    moved = table[0, 2, 2, 0, 0, 1, 0, 0, 0] + 0.01
    table[0, 2, 2, 0, 0, 1, 0, 0, 0] -= moved
    table[0, 2, 2, 0, 0, 0, 0, 0, 0] += moved
    return table


def _unnormalised_table():
    table = _honest_table(0.9)
    table[1, 0, 0] *= 0.9
    return table


def _nan_cell_table():
    # validate must refuse the NaN itself, before binary_entropy reads it.
    table = _honest_table(0.9)
    table[0, 2, 2, 0, 0, 0, 0, 0, 0] = np.nan
    return table


@pytest.mark.parametrize(
    "table, message",
    [
        (_negative_entry_table, "entries outside [0, 1]"),
        (_unnormalised_table, "not normalized"),
        (_nan_cell_table, "entries outside [0, 1]: min nan"),
    ],
)
def test_rates_rejects_a_behavior_that_is_not_one(tmp_path, capsys, table, message):
    path = tmp_path / "behavior.json"
    path.write_text(behavior_to_json(Behavior(table())))
    assert main(["rates", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_bad_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"gamma": 2.0}))
    assert main(["simulate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"n_rounds": 1.5},
        {"n_rounds": True},
        {"seed": 2.7},
        {"seed": None},
        {"seed": [1]},
        {"n_rounds": {"rounds": 1000}},
        {"n_rounds": "1000"},
    ],
)
def test_fractional_or_boolean_config_integer_exits_one(tmp_path, capsys, doc):
    # Not a one-round run that aborts (exit 2), nor a run on a truncated seed
    # or on a string read as a number, nor a traceback on a null or a list.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config '{next(iter(doc))}' must be an integer" in captured.err


def test_boolean_config_number_exits_one(tmp_path, capsys):
    # Not a run at visibility 1 with no spot check, which completes (exit 0).
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"strategy": {"visibility": True}, "alignment_fraction": False}))
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config 'alignment_fraction' must be a number, got false" in captured.err


# A JSON integer of 401 digits: json reads it as an int that float() cannot hold.
_HUGE_INTEGER = "1" + "0" * 400


@pytest.mark.parametrize("field", ["gamma", "threshold", "alignment_fraction", "alignment_floor", "visibility"])
def test_config_integer_too_large_for_a_float_exits_one(tmp_path, capsys, field):
    # Not an OverflowError traceback: one error line that names the field.
    cfg = tmp_path / "bad.json"
    doc = f'{{"strategy": {{"visibility": {_HUGE_INTEGER}}}}}' if field == "visibility" else f'{{"{field}": {_HUGE_INTEGER}}}'
    cfg.write_text(doc)
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flagcka simulate: error: config '{field}' is an integer too large for a float\n"


def test_rates_rejects_a_behavior_integer_too_large_for_a_float(tmp_path, capsys):
    doc = json.loads(behavior_to_json(behavior_from_strategy(honest_flagged_strategy())))
    cell = doc["0,2,2"]
    key = next(key for key, p in cell.items() if p == 0)
    cell[key] = "HUGE"
    path = tmp_path / "behavior.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', _HUGE_INTEGER))
    assert main(["rates", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"flagcka rates: error: behavior JSON: probability at '0,2,2' {key!r} is an integer too large for a float\n"
    )


def test_verify_rejects_negative_seeds(capsys):
    assert main(["verify", "--seeds", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "flagcka verify: error: --seeds must be at least 0\n"


def test_rates_rejects_a_one_branch_behavior(tmp_path, capsys):
    # Every flag reads 0, so branch 1 has no weight.
    path = tmp_path / "behavior.json"
    path.write_text(behavior_to_json(behavior_from_strategy(constant_flag_strategy(0))))
    assert main(["rates", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("flagcka rates: error: branch weights must be positive, got (")
    assert captured.err.endswith(", 0.0)\n") and captured.err.count("\n") == 1


def test_simulate_refuses_rounds_it_cannot_hold(capsys):
    # 10^15 two-byte codes are beyond the address space, so the first
    # allocation fails at once, with nothing reserved.
    assert main(["simulate", "--rounds", "1000000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("flagcka simulate: error: Unable to allocate ")
    assert captured.err.count("\n") == 1


def test_simulate_with_no_generation_round_completes_with_empty_keys(tmp_path, capsys):
    # At gamma 0.9999 every one of the 2000 rounds is a test round.
    out, keys = tmp_path / "result.json", tmp_path / "keys"
    argv = ["simulate", "--rounds", "2000", "--gamma", "0.9999", "--seed", "1", "--output", str(out), "--keys-dir", str(keys)]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    doc = json.loads(out.read_text())
    assert doc["stats"]["n_gen"] == 0 and doc["keys"] == {"alice": "", "bob": "", "carole": ""}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "2dab5b0268bca17cf3b66b5889c143a6b24388d02752932a3b988b98ef7adc97"
    assert {path.name: path.read_text() for path in keys.iterdir()} == dict.fromkeys(["alice.key", "bob.key", "carole.key"], "\n")


_SUITE_NAMES = {
    "lemma": ["flag_consistency", "projection_lemma"],
    "sos": ["sos_identity_ab_t0", "sos_identity_ab_t1", "sos_identity_ac_t0", "sos_identity_ac_t1"],
    "tsirelson": ["weighted_tsirelson"],
    "decoupling": ["decoupling_t0", "decoupling_t1"],
}


@pytest.mark.parametrize("suite", ["all", "sos", "lemma", "tsirelson", "decoupling"])
def test_verify_report_order(suite, capsys):
    assert main(["verify", "--suite", suite, "--seeds", "3"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)]
    if suite == "all":
        random_block = _SUITE_NAMES["lemma"] + _SUITE_NAMES["sos"] + _SUITE_NAMES["tsirelson"]
        expected = random_block + _SUITE_NAMES["decoupling"] + 3 * random_block
        assert len(expected) == 9 + 3 * 7
    elif suite == "decoupling":
        # Decoupling runs on the honest strategy only.
        expected = _SUITE_NAMES["decoupling"]
    else:
        expected = 4 * _SUITE_NAMES[suite]
    assert names == expected


def _same_json_reports(got, want):
    # Names, order and verdicts exactly; numbers within 1e-15; the worst
    # projection-lemma pair only where the gap is not float dust.
    assert [r["name"] for r in got] == [r["name"] for r in want]
    assert [r["passed"] for r in got] == [r["passed"] for r in want]
    for g, w in zip(got, want):
        assert abs(g["residual"] - w["residual"]) <= 1e-15, w["name"]
        for key, value in w["details"].items():
            if isinstance(value, dict):
                assert all(abs(g["details"][key][k] - v) <= 1e-15 for k, v in value.items()), (w["name"], key)
            elif isinstance(value, float):
                assert abs(g["details"][key] - value) <= 1e-15, (w["name"], key)
            elif key != "worst" or w["residual"] >= 1e-15:
                assert g["details"][key] == value, (w["name"], key)


def test_verify_equals_its_two_halves(capsys):
    # The halves cut the chunks of random strategies at other places.
    n = 2 * VERIFY_CHUNK + 3

    def random_reports(seed, seeds):
        assert main(["verify", "--suite", "all", "--seeds", str(seeds), "--seed", str(seed)]) == 0
        return json.loads(capsys.readouterr().out)[9:]

    whole = random_reports(40, n)
    assert len(whole) == 7 * n
    first = VERIFY_CHUNK + 1
    _same_json_reports(random_reports(40, first) + random_reports(40 + first, n - first), whole)


def test_verify_names_each_failed_check_and_exits_two(monkeypatch, capsys):
    failing = CheckReport("sos_identity", 0.25, 1e-9, False)
    monkeypatch.setattr(cli, "run_check_suite", lambda strategy, suite: [failing])
    assert main(["verify", "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert [r["name"] for r in json.loads(captured.out)] == ["sos_identity"]
    assert captured.err == "FAIL sos_identity: residual 2.500e-01 > 1.0e-09\n"


def test_verify_names_the_seed_of_an_invalid_strategy(monkeypatch, capsys):
    import flagcka.checks as checks_module

    real = checks_module.random_projective_effects

    def spoiled(chunk):
        stacks = [stack.copy() for stack in real(chunk)]
        if 12 in chunk:
            stacks[0][list(chunk).index(12), 1, 2] *= 1 + 1e-9
        return tuple(stacks)

    monkeypatch.setattr(checks_module, "random_projective_effects", spoiled)
    assert main(["verify", "--seeds", "20", "--seed", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify: error: random strategy seed 12: effects do not sum to identity" in captured.err


def test_emit_writes_the_text_in_bounded_slices(tmp_path, monkeypatch):
    text = json.dumps({"key": "x" * (3 * _SLICE + 5)})
    _emit(text, argparse.Namespace(format="json", output=str(tmp_path / "out.json")))
    assert (tmp_path / "out.json").read_text() == text + "\n"
    sizes = []

    class Recorder(io.StringIO):
        def write(self, s):
            sizes.append(len(s))
            return super().write(s)

    monkeypatch.setattr(sys, "stdout", Recorder())
    _emit(text, argparse.Namespace(format="json", output=None))
    assert sys.stdout.getvalue() == text + "\n"
    assert max(sizes) == _SLICE and sum(sizes) == len(text) + 1


# Per command: argv lists on the defaults and with every option of the command.
_PARSES = [
    ["simulate"],
    [
        "simulate", "--seed", "3", "--output", "o.json", "--format", "csv", "--config", "c.json", "--rounds", "10",
        "--gamma", "0.3", "--threshold", "2.5", "--alignment-fraction", "0.1", "--alignment-floor", "0.2",
        "--strategy", "parallel", "--visibility", "0.9", "--backend", "collapse", "--tamper", "flag-flip:0.01",
        "--transcript", "t.jsonl", "--keys-dir", "keys",
    ],
    ["rates", "b.json"],
    ["rates", "b.json", "--method", "minH", "--mode", "one-score", "--seed", "2", "--format", "csv"],
    ["curve"],
    ["curve", "--method", "minH", "--mode", "one-score", "--points", "7", "--output", "c.csv", "--format", "csv"],
    ["local-bound"],
    ["local-bound", "--seed", "1", "--output", "lb.json", "--format", "csv"],
    ["verify"],
    ["verify", "--suite", "lemma", "--seeds", "9", "--seed", "4", "--format", "csv"],
    ["info"],
    ["info", "--seed", "8", "--output", "i.json"],
]


@pytest.mark.parametrize("argv", _PARSES, ids=" ".join)
def test_one_command_parser_parses_as_the_full_parser(argv):
    one = build_parser(argv[0]).parse_args(argv)
    assert vars(one) == vars(build_parser().parse_args(argv))
    assert one.func is _COMMANDS[argv[0]][0]


def test_simulate_seed_defaults_to_none_in_the_one_command_parser():
    assert build_parser("simulate").parse_args(["simulate"]).seed is None
    assert build_parser("verify").parse_args(["verify"]).seed == 0


def _parse_output(parser, argv, capsys):
    with pytest.raises(SystemExit) as err:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_prints_the_same_help(command, capsys):
    result = _parse_output(build_parser(command), [command, "--help"], capsys)
    assert result == _parse_output(build_parser(), [command, "--help"], capsys)
    assert result[0] == 0 and result[1].startswith(f"usage: flagcka {command} [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rounds", "many"],
        ["verify", "--suite", "everything"],
        ["curve", "--method", "exact"],
        ["rates"],
        # Reported by the top-level parser, whose usage line names every command.
        ["info", "--bogus"],
        ["local-bound", "extra"],
    ],
    ids=" ".join,
)
def test_one_command_parser_reports_the_same_usage_error(argv, capsys):
    result = _parse_output(build_parser(argv[0]), argv, capsys)
    assert result == _parse_output(build_parser(), argv, capsys)
    assert result[0] == 1 and result[1] == ""
    assert "usage: flagcka" in result[2] and "error:" in result[2]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1 and capsys.readouterr().err == result[2]


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["flagcka", "local-bound", "--format", "csv"])
    assert main() == 0
    assert "max_value,2.0" in capsys.readouterr().out.splitlines()


def test_main_builds_only_the_parser_of_the_command_it_runs(monkeypatch, capsys):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    assert main(["info"]) == 0
    assert built == ["flagcka", "flagcka info"]


def test_top_level_help_version_and_unknown_command(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    out = capsys.readouterr().out
    assert err.value.code == 0
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ") and line.split()[0] in _COMMANDS]
    assert listed == ["simulate", "rates", "curve", "local-bound", "verify", "info"]
    assert "{simulate,rates,curve,local-bound,verify,info}" in out
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0 and capsys.readouterr().out == f"flagcka {__version__}\n"
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err
