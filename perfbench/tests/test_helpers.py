"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import harness, probes, speed  # noqa: E402


# -- the quantile rule ---------------------------------------------------


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (1, 50.0),
        (6, 50.0),
        (20, 50.0),  # p75 would have only 5 samples beyond it
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    chosen = harness.tail_percentile(n)
    assert chosen == expected
    if chosen != 50.0:
        assert harness.samples_beyond(n, chosen) >= harness.MIN_BEYOND
    higher = [p for p in harness.TAIL_LADDER if p > chosen]
    assert all(
        harness.samples_beyond(n, p) < harness.MIN_BEYOND for p in higher
    )


def test_latency_summary_reports_sample_count_and_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=250))
    summary = harness.LatencySummary.of([values])
    assert summary.n == 250
    assert summary.tail_percentile == 95.0
    assert summary.p50 == pytest.approx(np.percentile(values, 50))
    assert summary.tail == pytest.approx(np.percentile(values, 95))
    assert "n=250" in summary.describe()


def test_tail_percentile_follows_the_smallest_repetition():
    # 120 pooled samples would allow p90, but one repetition holds only
    # 60, which supports p75: the choice must not depend on how many
    # repetitions a run fitted.
    samples = [list(range(60)), list(range(60))]
    assert harness.LatencySummary.of(samples).tail_percentile == 75.0
    assert harness.LatencySummary.of(samples * 2).tail_percentile == 75.0


def test_end_to_end_takes_medians_over_repetitions():
    reps = [
        SimpleNamespace(
            wall=wall, items=10, latencies=[wall / 10] * 10, slowdown=1.0
        )
        for wall in (1.0, 3.0, 2.0)
    ]
    values, latency = harness.end_to_end([0.5, 0.1, 0.3], reps)
    assert values["setup_s"] == 0.3
    assert values["wall_s"] == 2.0
    assert values["throughput_per_s"] == 5.0
    assert latency.n == 30
    assert values["peak_rss_mb"] > 0


def test_end_to_end_divides_each_repetition_by_its_slowdown():
    # The same work measured on a machine running at half speed and at
    # full speed normalises to the same figures.
    reps = [
        SimpleNamespace(wall=4.0, items=8, latencies=[0.2, 0.4], slowdown=2.0),
        SimpleNamespace(wall=2.0, items=8, latencies=[0.1, 0.2], slowdown=1.0),
    ]
    values, latency = harness.end_to_end([1.0], reps)
    assert values["wall_s"] == 2.0
    assert values["throughput_per_s"] == 4.0
    assert latency.p50 == pytest.approx(0.15)


# -- the machine-speed reference -----------------------------------------


def test_slowdown_is_the_window_mean_over_the_nominal_slice():
    nominal, power = speed.NOMINAL_S, speed.SENSITIVITY
    samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 4 * nominal)]
    assert speed.slowdown(samples, 1.5, 3.0) == pytest.approx(3.0**power)
    assert speed.slowdown(samples, 0.0, 1.0) == pytest.approx(1.0)
    # An empty window falls back to every sample, no samples to 1.
    assert speed.slowdown(samples, 5.0, 6.0) == pytest.approx((7 / 3) ** power)
    assert speed.slowdown([], 0.0, 1.0) == 1.0


def test_probe_collects_samples_from_forked_children(tmp_path):
    speed.start(tmp_path / "speed")
    try:
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            deadline = time.process_time() + 0.2
            while time.process_time() < deadline:
                speed.reference_slice()
            os._exit(0)
        os.waitpid(child, 0)
        samples = speed.read_samples(tmp_path / "speed")
        files = sorted(path.name for path in (tmp_path / "speed").iterdir())
    finally:
        speed.stop()
    assert f"{child}.bin" in files
    assert len(samples) >= 10
    assert all(duration > 0 for _, duration in samples)
    assert not (tmp_path / "speed").exists()


# -- the self-time fold --------------------------------------------------


def _record(span_id, parent, name, duration, **attributes):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "duration": duration,
        "attributes": attributes,
    }


def _tree():
    return [
        _record(0, None, probes.MEASURE_SPAN, 12.0),
        _record(1, 0, "cell", 10.0, algorithm="TEASER", dataset="PowerCons"),
        _record(2, 1, "fit", 7.0, algorithm="TEASER"),
        _record(3, 2, "transform.sfa.fit", 4.0),
        _record(4, 3, "transform.sfa.fit", 1.0),  # nested same name
        _record(5, 2, "stats.svm.fit", 2.0),
        _record(6, 1, "predict", 1.5, algorithm="TEASER"),
    ]


def test_fold_subtracts_children_and_attributes_algorithms():
    folded = probes.fold(_tree())
    measure = probes.MEASURE_SPAN
    assert folded[(measure, "bench", "-")] == pytest.approx(2.0)
    assert folded[(measure, "core", "TEASER")] == pytest.approx(1.5)
    assert folded[(measure, "etsc", "TEASER")] == pytest.approx(1.0 + 1.5)
    assert folded[(measure, "transform", "TEASER")] == pytest.approx(4.0)
    assert folded[(measure, "stats", "TEASER")] == pytest.approx(2.0)
    # Self times add back up to the root's wall time.
    assert sum(folded.values()) == pytest.approx(12.0)


def test_layer_totals_count_nested_calls_but_not_their_time():
    totals = probes.layer_totals(_tree(), probes.MEASURE_SPAN)
    assert totals["transform.sfa.fit"]["calls"] == 2
    assert totals["transform.sfa.fit"]["seconds"] == pytest.approx(4.0)
    assert totals["fit"]["by_algorithm"]["TEASER"] == [7.0]
    assert probes.layer_totals(_tree(), probes.SETUP_SPAN) == {}


def test_groups_tie_spans_to_their_cell_or_stream():
    records = _tree() + [
        _record(7, 0, "serve.push", 0.1, stream_id="ECTS/PowerCons/3"),
        _record(8, 7, "push", 0.05),
    ]
    groups = {r["span_id"]: r["group"] for r in probes.annotate_groups(records)}
    assert groups[4] == "TEASER/PowerCons"
    assert groups[8] == "ECTS/PowerCons/3"
    assert groups[0] is None


def test_per_layer_metrics_share_and_overhead():
    values = probes.per_layer_metrics(_tree(), {}, ("TEASER",), 0.05)
    assert values["transform.sfa.fit_s"] == pytest.approx(4.0)
    assert values["transform.sfa.fit_calls"] == 2
    assert values["transform.sfa.fit_share"] == pytest.approx(4.0 / 7.0)
    assert values["etsc.TEASER.fit_s"] == pytest.approx(7.0)
    assert values["etsc.TEASER.predict_s"] == pytest.approx(1.5)
    assert values["obs.trace_overhead_frac"] == 0.05
    assert values["fleet.ticks"] == 0.0


# -- the golden compare --------------------------------------------------


def test_golden_compare_catches_a_changed_value():
    expected = harness.flatten(
        {"cells": {"ECTS/PowerCons": {"accuracy": 0.9, "f1": 0.875}}}
    )
    actual = json.loads(json.dumps(expected))
    assert harness.compare_golden("grid-mixed", expected, actual) == []
    actual["cells.ECTS/PowerCons.f1"] = 0.8750000000000001
    [mismatch] = harness.compare_golden("grid-mixed", expected, actual)
    assert mismatch.workload == "grid-mixed"
    assert mismatch.key == "cells.ECTS/PowerCons.f1"
    assert (mismatch.expected, mismatch.actual) == (0.875, 0.8750000000000001)
    assert "grid-mixed" in str(mismatch) and "0.875" in str(mismatch)


def test_golden_compare_catches_missing_keys_and_type_changes():
    expected = {"a": 1, "b[0]": 2}
    mismatches = harness.compare_golden("w", expected, {"a": 1.0, "c": 3})
    assert [m.key for m in mismatches] == ["a", "b[0]", "c"]


def test_committed_golden_file_covers_every_workload():
    from perfbench.workloads import WORKLOADS

    golden = harness.load_golden()
    for name, workload in WORKLOADS.items():
        seeds = range(getattr(workload, "seed_classes", 1))
        for seed in seeds:
            assert golden[name][workload.golden_key(seed)]


# -- metric names match BENCHMARK.json -----------------------------------


def test_metric_names_match_benchmark_json():
    from perfbench.workloads import ALGORITHMS, WORKLOADS

    spec = harness.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    reps = [
        SimpleNamespace(wall=1.0, items=1, latencies=[0.1], slowdown=1.0)
    ]
    values, _ = harness.end_to_end([1.0], reps)
    assert set(values) == set(harness.metric_units(spec, trace=False))
    layer = probes.per_layer_metrics([], {}, ALGORITHMS, 0.0)
    assert set(layer) == set(harness.metric_units(spec, trace=True))
    line = json.loads(
        harness.result_line(True, 1, 0, values, harness.metric_units(spec, False))
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    with pytest.raises(ValueError, match="missing"):
        harness.result_line(True, 1, 0, {}, harness.metric_units(spec, False))
