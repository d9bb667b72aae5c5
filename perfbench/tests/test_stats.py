"""Tests of the benchmark's pure parts.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import probe  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402


def test_arrivals_are_seeded_sorted_and_near_the_rate():
    a = stats.arrival_offsets(100.0, 10.0, seed=3)
    assert a == stats.arrival_offsets(100.0, 10.0, seed=3)
    assert a != stats.arrival_offsets(100.0, 10.0, seed=4)
    assert a == sorted(a) and 0 < a[0] and a[-1] < 10.0
    assert 900 < len(a) < 1100


def test_no_arrivals_without_rate_or_time():
    assert stats.arrival_offsets(0.0, 10.0, 1) == []
    assert stats.arrival_offsets(10.0, 0.0, 1) == []


def test_latency_counts_from_due_time_not_send_time():
    # Due at 1.0, sent late at 1.5 behind a busy connection, done at 1.6.
    assert stats.due_latency(1.0, 1.6) == pytest.approx(0.6)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(15) is None
    assert stats.min_samples_for(90) == 100
    for n in (100, 250, 1000):
        assert stats.samples_beyond(n, stats.tail_percentile(n)) >= 10


def test_self_time_subtracts_nested_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "start": 5.0, "end": 6.0},
    ]
    selfs = stats.self_times(spans)
    assert selfs == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                     3: pytest.approx(1.0), 4: pytest.approx(1.0)}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 6.0},
    ]
    assert stats.self_times(spans)[1] == pytest.approx(1.0)


def test_name_validation():
    for good in ("setup_s", "service.aio.transport_s", "p99-ms", "0x"):
        assert stats.valid_name(good)
    for bad in ("", "_lead", ".lead", "has space", "a/b", "x" * 65):
        assert not stats.valid_name(bad)
    assert stats.valid_unit("1/s") and stats.valid_unit("%")
    assert not stats.valid_unit("per second")


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) > 0


def test_scaled_ms_reads_as_milliseconds_at_the_nominal_probe_speed():
    assert probe.scaled_ms(0.002, probe.NOMINAL_S) == pytest.approx(2.0)
    # Twice as slow a CPU takes twice the CPU time for the same work.
    assert probe.scaled_ms(0.004, 2 * probe.NOMINAL_S) == pytest.approx(2.0)


def test_probe_mean_trims_and_falls_back_to_the_nearest_sample():
    sampler = probe.Sampler()
    sampler.samples = [(float(t), 1.0) for t in range(10)] + [(4.5, 100.0)]
    # Eleven samples in [0, 10]: the slowest (and one fastest) are cut.
    assert sampler.mean_s(0.0, 10.0) == pytest.approx(1.0)
    assert sampler.mean_s(20.0, 30.0) == 1.0      # none inside: nearest
    with pytest.raises(ValueError):
        probe.Sampler().mean_s(0.0, 1.0)


def test_probe_unit_takes_cpu_time():
    assert 0.0 < probe.probe_s() < 1.0


def test_benchmark_json_meets_the_contract():
    doc = spec.benchmark_json()
    assert spec.problems(doc) == []
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}


def test_problems_reports_bad_names_and_bounds():
    doc = spec.benchmark_json()
    doc["end_to_end"][1] = dict(doc["end_to_end"][1], name="bad name", bound=0.5)
    found = spec.problems(doc)
    assert any("bad name" in p for p in found)
    assert any("bound" in p for p in found)
