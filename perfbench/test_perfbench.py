"""The benchmark's own tests: every workload at a tiny size.

Run them on their own, not together with ``tests/`` (the benchmark
re-imports the repro package between set-up samples):

    python3 -m pytest perfbench -q
"""

import json
import math
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

NAMES = sorted(workloads.SIZES)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", workloads.TINY_SIZES)


def _main(capsys, *args):
    code = run.main(["--seed", "3", "--seconds", "0", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def _check_report(lines, report, units):
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] >= 1
    assert list(report["metrics"]) == list(units)
    for name, unit in units.items():
        value = report["metrics"][name]["value"]
        assert report["metrics"][name]["unit"] == unit
        assert math.isfinite(value)
        assert f"{name} {value} {unit}" in lines
    assert f"ops {report['attempted']}" in lines
    assert "ops_failed 0" in lines


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_printed_with_units(tiny, capsys, name):
    code, lines, report = _main(capsys, "--workload", name, "--trace", "0")
    assert code == 0
    _check_report(lines, report, run.END_TO_END)
    for metric in run.END_TO_END:
        assert report["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_partitions_wall_time(tiny, capsys, name):
    from layertrace import LAYERS

    code, lines, report = _main(capsys, "--workload", name, "--trace", "1")
    assert code == 0
    _check_report(lines, report, run.PER_LAYER)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    total += metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["engine.events"] > 0 and metrics["alloc.calls"] > 0


def test_layers_seen_where_they_run(tiny, capsys):
    _, _, report = _main(capsys, "--workload", "repair-chaos", "--trace", "1")
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    for layer in ("faults", "journal", "integrity", "monitor"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["transfers.started"] > 0
    assert metrics["repair.chunks"] > 0

    _, _, report = _main(capsys, "--workload", "flow-mix", "--trace", "1")
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert metrics["transfers.started"] == 0
    assert metrics["traffic.self_s"] == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_digest(name):
    build, run_one = workloads.WORKLOADS[name]
    size = workloads.TINY_SIZES[name]
    first = run_one(build(5, size), workloads.Stopwatch())
    second = run_one(build(5, size), workloads.Stopwatch())
    assert first.failures == second.failures == []
    assert first.digest == second.digest


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs(name):
    build, run_one = workloads.WORKLOADS[name]
    size = workloads.TINY_SIZES[name]
    first = run_one(build(1, size), workloads.Stopwatch())
    second = run_one(build(2, size), workloads.Stopwatch())
    assert first.digest != second.digest


def test_layer_clock_partitions_time():
    from layertrace import UNATTRIBUTED, LayerClock

    ticks = iter(range(100))
    clock = LayerClock(timer=lambda: float(next(ticks)))
    clock.start()  # t=0
    clock.enter("flows")  # 1: unattributed +1
    clock.enter("alloc")  # 2: flows +1
    clock.exit()  # 3: alloc +1
    clock.enter("flows")  # 4: flows +1 (same layer: no new call)
    clock.exit()  # 5: flows +1
    clock.exit()  # 6: flows +1
    clock.stop()  # 7: unattributed +1
    assert clock.self_s["flows"] == 4.0
    assert clock.self_s["alloc"] == 1.0
    assert clock.self_s[UNATTRIBUTED] == 2.0
    assert clock.wall_s == 7.0
    assert clock.calls["flows"] == 1 and clock.calls["alloc"] == 1


def test_segments_partition_a_run(monkeypatch):
    monkeypatch.setattr(run, "SEGMENTS", 4)
    marks = [1.0, 2.0, 3.0, 4.5, 5.0, 6.0, 7.0]
    segments = run.segment_seconds(0.0, marks, 8.0)
    assert len(segments) == 4
    assert sum(segments) == pytest.approx(8.0)
    # Fewer completions than segments: every gap is its own segment.
    assert run.segment_seconds(0.0, [1.0], 3.0) == [1.0, 2.0]


def test_least_interfered_takes_each_segments_fastest():
    assert run.least_interfered([[1.0, 5.0, 2.0], [3.0, 1.0, 2.5]]) == 4.0


def test_reference_work_is_fixed():
    import calibrate

    assert calibrate.reference_work() == calibrate.reference_work()
    assert all(t > 0 for t in calibrate.sample_block(2))


def test_missing_source_tree_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "flow-mix", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
