"""Tests of the benchmark itself: tracer arithmetic, output checks, smoke runs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

assert run.prepare(), "the benchmark's tests need the flagcka sources under src/"

import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(name, parent, start, end, op=0):
    return (name, parent, start, end, op)


def test_self_time_of_nested_spans():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 4.0),
        _span("c", 1, 2.0, 3.0),
        _span("d", 0, 5.0, 9.0),
        _span("c", 3, 6.0, 6.5),
    ]
    summary = tracer.summarise(spans)
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert summary["c"] == {"calls": 2, "s": 1.5, "self_s": 1.5}
    assert summary["d"] == {"calls": 1, "s": 4.0, "self_s": 3.5}
    # Properly nested spans: self times add up to the root's duration.
    assert tracer.nesting_problems(spans, "a", [0]) == []
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_nesting_check_finds_broken_trees():
    spans = [_span("a", -1, 0.0, 10.0), _span("b", 0, 1.0, 11.0), _span("a", -1, 12.0, 13.0, op=1)]
    problems = tracer.nesting_problems(spans, "a", [0, 1, 2])
    assert len(problems) == 2   # b ends after its parent; op 2 has no root
    assert any("b is not within" in p for p in problems) and any(p.startswith("op 2:") for p in problems)
    assert tracer.nesting_problems([_span("b", -1, 0.0, 1.0)], "a", [0]) == ["op 0: root spans ['b'], expected ['a']"]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", -1, 0.0, 10.0), _span("x", 0, 2.0, 6.0), _span("y", 0, 5.0, 8.0)]
    assert tracer.child_cover(spans)[0] == 6.0
    assert tracer.summarise(spans)["p"]["self_s"] == 4.0


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose second module imports a function from the first by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("__all__ = ['inner', 'outer', 'deleted']\n"
         "def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", a.__dict__)
    b.__dict__["inner"] = a.inner
    exec("def entry(x):\n    return inner(x) + outer(x)\n", b.__dict__)
    b.__dict__["outer"] = a.outer
    for module in (pkg, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return a, b


def test_tracer_rebinds_imported_names_and_restores_them(fake_package):
    a, b = fake_package
    original = a.inner
    t = tracer.Tracer()
    t.install("fakepkg", extra=[("b", "entry")])
    assert t.names == {"a.inner", "a.outer", "b.entry"}   # 'deleted' is absent, not an error
    assert b.inner is not original
    assert b.entry(1) == 2 + 4
    t.uninstall()
    assert a.inner is original and b.inner is original
    names = [(s[tracer.NAME], s[tracer.PARENT]) for s in t.spans]
    assert names == [("b.entry", -1), ("a.inner", 0), ("a.outer", 0), ("a.inner", 2)]
    assert tracer.nesting_problems(t.spans, "b.entry", [0]) == []


def _write_outputs(workdir: Path, doc, keys=None):
    (workdir / "out.json").write_text(json.dumps(doc))
    if keys is not None:
        (workdir / "keys").mkdir()
        for party, key in zip(workloads.PARTIES, keys):
            (workdir / "keys" / f"{party}.key").write_text(key + "\n")


def _case(workload, name, tmp_path):
    return next(c for c in workloads.build(workload, tmp_path, size=10) if c.name == name)


def test_checker_rejects_completed_run_with_unequal_keys(tmp_path):
    case = _case("sim_table", "flagged_v1", tmp_path)
    _write_outputs(tmp_path, {"outcome": "completed", "abort_reason": None}, keys=["0110", "0110", "0111"])
    problems, _ = workloads.check(case, 0, tmp_path)
    assert problems == [workloads.KEYS_DIFFER]
    assert not workloads.tolerated(case, problems)
    noisy = _case("sim_table", "flagged_v0.97", tmp_path)
    assert workloads.tolerated(noisy, workloads.check(noisy, 0, tmp_path)[0])


def test_checker_rejects_completed_run_with_empty_keys(tmp_path):
    noisy = _case("sim_table", "flagged_v0.97", tmp_path)
    _write_outputs(tmp_path, {"outcome": "completed", "abort_reason": None}, keys=["", "", ""])
    problems, _ = workloads.check(noisy, 0, tmp_path)
    assert problems and not workloads.tolerated(noisy, problems)


def test_checker_accepts_completed_run_with_equal_keys(tmp_path):
    case = _case("sim_table", "flagged_v1", tmp_path)
    _write_outputs(tmp_path, {"outcome": "completed", "abort_reason": None}, keys=["0110"] * 3)
    assert workloads.check(case, 0, tmp_path) == ([], {"key_bits": 4, "rounds": 10})


def test_checker_rejects_wrong_abort_reason_and_exit_code(tmp_path):
    case = _case("sim_table", "flag_flip", tmp_path)
    _write_outputs(tmp_path, {"outcome": "aborted", "abort_reason": "BellBelowThreshold"})
    assert workloads.check(case, 2, tmp_path)[0]
    _write_outputs(tmp_path, {"outcome": "aborted", "abort_reason": "FlagMismatch"})
    assert workloads.check(case, 2, tmp_path)[0] == []
    assert workloads.check(case, 0, tmp_path)[0]


def test_checker_rejects_failed_check_report(tmp_path):
    case = _case("certify", "verify", tmp_path)
    _write_outputs(tmp_path, [{"name": "sos_ab_t0", "passed": True}, {"name": "lemma", "passed": False}])
    assert workloads.check(case, 0, tmp_path)[0]
    _write_outputs(tmp_path, [{"name": "sos_ab_t0", "passed": True}])
    assert workloads.check(case, 0, tmp_path)[0] == []
    _write_outputs(tmp_path, {"reports": []})
    assert workloads.check(case, 0, tmp_path)[0]


def test_checker_rejects_wrong_constants(tmp_path):
    _write_outputs(tmp_path, {"max_value": 2.0000001})
    assert workloads.check(_case("certify", "local-bound", tmp_path), 0, tmp_path)[0]
    _write_outputs(tmp_path, {"r_cka": 0.49})
    assert workloads.check(_case("certify", "rates", tmp_path), 0, tmp_path)[0]
    _write_outputs(tmp_path, {"points": [{"s": 2.0, "entropy_bound": 0.1}, {"s": 2.8284271247461903, "entropy_bound": 1.0}]})
    assert workloads.check(_case("certify", "curve_vn", tmp_path), 0, tmp_path)[0]


def test_cases_use_only_stable_flags(tmp_path):
    for name in workloads.WORKLOADS:
        for case in workloads.build(name, tmp_path):
            assert "--jobs" not in case.argv


def test_host_speed_correction_per_invocation():
    speed = run.HostSpeed()
    # Loops at t = 0.1, 0.2, ..., 2.0; those up to 1.0 took twice the reference time.
    speed.ends = [0.1 * i for i in range(1, 21)]
    speed.times = [2 * run.REFERENCE_S] * 10 + [run.REFERENCE_S] * 10
    records = [
        {"case": "long", "start": 0.05, "seconds": 1.0, "work": 100},   # holds the ten slow loops
        {"case": "quick", "start": 1.52, "seconds": 0.01, "work": 0},   # holds none
    ]
    seconds, own = speed.corrected(records)
    assert own == 1
    assert seconds == [0.5, 0.01 / 1.5]
    metrics = run.end_to_end(records, [0.3, 0.1, 0.2], seconds)
    assert metrics["setup_s"] == 0.2
    assert metrics["work_per_s"] == 100 / sum(seconds)
    assert metrics["op_s.mean"] == statistics.median(seconds)


def test_smoke_untraced(tmp_path):
    result, lines = run.run("sim_table", 3, 0, trace=False, size=20_000, import_samples=1)
    assert result["correct"] and result["attempted"] == 5
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("  rounds_per_s ") for line in lines)


@pytest.mark.parametrize("workload, size", [("sim_collapse", 1_000), ("certify", 2)])
def test_smoke_traced(workload, size):
    result, _ = run.run(workload, 4, 0, trace=True, size=size)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    assert result["metrics"]["cli.main.self_s"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
