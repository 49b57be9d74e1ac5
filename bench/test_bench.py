"""Tests of the benchmark's own code: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tricl.classgroup  # noqa: E402
import tricl.exactlinalg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tricl import IntMatrix, TrinomialVariety, adjust  # noqa: E402


@pytest.mark.parametrize("pct, ops", [(90.0, 100), (99.0, 1000), (99.5, 2000)])
def test_tail_percentile_keeps_ten_samples_beyond(pct, ops):
    assert worker.ops_for_tail(pct) == ops
    samples = [float(i) for i in range(1, ops + 1)]
    value, beyond = worker.percentile(samples, pct)
    assert beyond == worker.MIN_BEYOND == sum(s > value for s in samples)
    assert worker.percentile(samples[:-1], pct)[1] < worker.MIN_BEYOND


def test_every_workload_has_a_tail_percentile():
    assert set(workloads.TAIL_PERCENTILE) == set(run.WORKLOADS)


def test_smoothed_percentile_averages_the_band_around_the_rank():
    uniform = [float(i) for i in range(1, 1001)]
    assert worker.smoothed_percentile(uniform, 99.0) == pytest.approx(990.0)  # ranks 985-995
    assert worker.smoothed_percentile(uniform, 90.0) == pytest.approx(900.0)  # ranks 850-950
    # Ranks 985-990 hold 10.0 and ranks 991-995 hold 20.0.
    two_slow_inputs = [1.0] * 980 + [10.0] * 10 + [20.0] * 10
    assert worker.smoothed_percentile(two_slow_inputs, 99.0) == pytest.approx(160 / 11)
    assert worker.smoothed_percentile([1.0, 2.0, 3.0], 100.0) == 3.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 3.0
        wrapped_leaf()

    def outer():
        wrapped_middle()
        clock.now += 4.0

    for function in (leaf, middle, outer):
        function.__module__ = "tricl.fake"
    wrapped_leaf = tracer.wrap(leaf)
    wrapped_middle = tracer.wrap(middle)
    tracer.wrap(outer)()

    summary = tracer.summary()
    assert summary["fake.leaf"] == {"calls": 2, "self_s": 4.0}
    assert summary["fake.middle"] == {"calls": 1, "self_s": 4.0}
    assert summary["fake.outer"] == {"calls": 1, "self_s": 4.0}


def test_self_times_of_flat_columns():
    # span 0 holds 1 and 3; span 1 holds 2
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 4.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [5.0, 2.0, 2.0, 1.0]


def test_wrapper_captures_calls_made_inside_the_package():
    matrix = IntMatrix.from_rows([[2, 4], [6, 8]])
    original = tricl.exactlinalg.smith_invariants
    with tracing.Tracer() as tracer:
        assert tricl.exactlinalg.smith_invariants is not original
        assert tricl.classgroup.cokernel is tricl.exactlinalg.cokernel
        tricl.classgroup.cokernel(matrix)
    assert tricl.exactlinalg.smith_invariants is original

    name, parent, _, _, _ = tracer.spans()
    labels = [tracer.names[i] for i in name]
    assert labels == ["exactlinalg.cokernel", "exactlinalg.smith_invariants"]
    assert parent == [-1, 0]
    assert tracer.smith["max_cells"] == 4
    assert tracer.smith["max_factor_bits_out"] == (4).bit_length()


def test_wrapper_sees_cross_module_calls_of_a_class_group():
    adjusted = adjust(TrinomialVariety([[2], [4], [6]]))[0]
    with tracing.Tracer() as tracer:
        tricl.classgroup.class_group_snf(adjusted)
    summary = tracer.summary()
    assert summary["classgroup.grading_matrix"]["calls"] == 1
    assert summary["coxring.total_coordinate_space"]["calls"] >= 1
    assert summary["exactlinalg.smith_invariants"]["calls"] == 1


class SlowWorkload:
    """Op 0 loops until aborted; op 1 returns at once."""

    def call(self, index):
        while index == 0:
            pass
        return "done"

    def check(self, index, result):
        return None if result == "done" else "wrong"


@pytest.fixture
def alarm(monkeypatch):
    monkeypatch.setattr(worker, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def test_deadline_abort_counts_as_failed_and_the_pass_continues(alarm):
    times = []
    done = worker.run_pass(SlowWorkload(), [0, 1, 1], on_op=times.append)
    assert 0.04 < times[0] < 1.0 and times[1] < 0.04
    assert done.timeouts == 1
    assert done.failures == []
    assert done.ops == 3
    assert 0.04 < done.seconds < 1.0


def test_deadline_aborts_a_cli_op_on_a_frontier_point(alarm, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ladder = workloads.build("snf_ladder", 1, tmp_path)
    frontier = ladder.frontier[0][0]
    assert ladder.items[frontier]["id"] == "case_iii-10"
    started = time.perf_counter()
    probes = worker.probe_frontier(ladder)
    assert time.perf_counter() - started < 2.0
    assert probes[0] == {"point": "case_iii-10", "status": "timeout", "ms": probes[0]["ms"]}
    assert {p["status"] for p in probes[1:8]} == {"skipped"}
    small = [i for i in ladder.ops if ladder.items[i]["id"] in ("case_iii-3", "case_ii-c8")]
    done = worker.run_pass(ladder, small)
    assert done.failures == [] and done.timeouts == 0


def test_wrong_output_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    batch = workloads.build("report_batch", 3, tmp_path)
    index = batch.ops[0]
    assert batch.check(index, batch.call(index)) is None
    batch.items[index]["expect"] = dict(batch.items[index]["expect"], exit=9)
    assert "expected" in batch.check(index, batch.call(index))


def test_seed_fixes_the_inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = workloads.build("report_batch", 5, tmp_path)
    again = workloads.build("report_batch", 5, tmp_path)
    other = workloads.build("report_batch", 6, tmp_path)
    ids = [[w.items[i]["id"] for i in w.ops] for w in (first, again, other)]
    assert ids[0] == ids[1] != ids[2]


def test_reservoir_keeps_every_latency_up_to_capacity_then_a_sample():
    reservoir = worker.Reservoir(100, random.Random(1))
    for value in range(60):
        reservoir.add(float(value))
    assert list(reservoir.sample()) == [float(v) for v in range(60)]
    for value in range(60, 10000):
        reservoir.add(float(value))
    sample = reservoir.sample()
    assert reservoir.seen == 10000 and len(sample) == 100 and len(set(sample)) == 100
    # A uniform sample of 0..9999: about as many draws from each half.
    assert 30 < sum(v < 5000 for v in sample) < 70


def test_repeat_share():
    assert worker.repeat_share(["a", "b", "a", None, "a"]) == 2 / 5


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "snf_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_reference_files_cover_every_input():
    refs = json.loads((workloads.REFS / "snf_ladder.json").read_text())
    labels = [label for points in workloads.ladders().values() for label, _ in points]
    assert sorted(refs) == sorted(labels)
    assert len(labels) == 27
    lines = (workloads.REFS / "formula_scan.txt").read_text().splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 45880
