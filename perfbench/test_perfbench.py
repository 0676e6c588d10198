"""Tests of the benchmark itself, on small jobs.

    python3 -m pytest perfbench/test_perfbench.py -q

Exact counts repeat for a fixed seed, a support function planted off by 1e-3
fails every workload's check, the clock scales call times by the reference
kernel's speed, and the metrics a run prints are the ones BENCHMARK.json
declares.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import clock  # noqa: E402
import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from rarl import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CLASSES, FAMILIES, WORKLOADS  # noqa: E402

# Jobs small enough for a test that still converge where a check demands it.
SMALL = {
    "garnet-experiment": {
        "contamination": (2, 3000, 0.1),
        "tv": (1, 1000, 0.2),
        "chi2": (1, 10, 0.2),
        "kl": (1, 10, 0.2),
        "wasserstein": (1, 10, 0.2),
    },
    "divergence-learn": {
        "contamination": (200, 200),
        "tv": (50, 20),
        "chi2": (5, 2),
        "kl": (5, 2),
        "wasserstein": (5, 2),
    },
    "inventory-plan": {},
}
# Planning on inventory() takes seconds per family for chi2 and Wasserstein.
TEST_FAMILIES = {
    "garnet-experiment": FAMILIES,
    "divergence-learn": FAMILIES,
    "inventory-plan": ("contamination", "tv", "kl"),
}


def make(name, tmp_path, classes=None, seed=3):
    workload = WORKLOADS[name](
        seed, str(tmp_path), families=TEST_FAMILIES[name], classes=classes, sizes=SMALL[name]
    )
    workload.setup()
    return workload


def planted(cls):
    class Planted(cls):
        def support_batch(self, rows, v):
            return super().support_batch(rows, v) + 1e-3

    return Planted


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_for_a_fixed_seed(name, tmp_path):
    runs = []
    for _ in range(2):
        rnd = run.run_round(make(name, tmp_path), Tracer())
        assert not any(rnd["errors"].values())
        tracer = rnd["tracer"]
        runs.append((dict(tracer.counts), {key: stats[2] for key, stats in tracer.spans.items()}))
    assert runs[0] == runs[1]
    kinds = {key[0] for key in runs[0][0]}
    assert "rows" in kinds
    assert ("sweeps" in kinds) == (name != "divergence-learn")
    assert ({"samples", "estimates", "level"} <= kinds) == (name != "inventory-plan")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_planted_support_error_fails_every_family(name, tmp_path, monkeypatch):
    clean = make(name, tmp_path)
    outputs = run.run_round(clean)["outputs"]
    for family in clean.families:
        assert clean.check(family, outputs[family][0]) == (0, [])

    bad_classes = {family: planted(CLASSES[family]) for family in FAMILIES}
    # the harness builds its sets from the JSON config
    monkeypatch.setattr(harness, "build_uncertainty", lambda doc: bad_classes[doc["kind"]](float(doc["delta"])))
    bad = make(name, tmp_path, classes=bad_classes)
    rnd = run.run_round(bad)
    assert not any(rnd["errors"].values())
    for family in bad.families:
        failed, reasons = bad.check(family, rnd["outputs"][family][0])
        assert failed == bad.ops(family), (family, reasons)
        assert any("worst" in reason for reason in reasons), (family, reasons)


def test_metrics_match_the_declaration(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = make("divergence-learn", tmp_path)
    rounds = [run.run_round(workload), run.run_round(workload, Tracer())]
    end_to_end = run.end_to_end_metrics(rounds[:1], workload, setup_s=1.0)
    per_layer, notes = layer_metrics(workload, rounds)
    assert not notes
    assert [(k, u) for k, (_, u) in end_to_end.items()] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert [(k, u) for k, (_, u) in per_layer.items()] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert all(value > 0 for value, _ in end_to_end.values())


def test_clock_scales_call_time_by_reference_speed(monkeypatch):
    # a machine running at half the reference speed: normalised time is half the raw time
    monkeypatch.setattr(clock, "reference_seconds", lambda: 2 * clock.REFERENCE_S)
    timer = clock.Clock()
    assert timer.call(sorted, [3, 1, 2]) == [1, 2, 3]
    timer.call(time.sleep, 0.05)
    assert timer.wall >= 0.05
    assert timer.norm == pytest.approx(timer.wall / 2)


def test_sampling_times_the_reference_inside_long_calls(monkeypatch):
    passes = []

    def reference():
        passes.append(1)
        return clock.REFERENCE_S

    monkeypatch.setattr(clock, "reference_seconds", reference)
    monkeypatch.setattr(clock, "SEGMENT_S", 0.0)
    uset = CLASSES["tv"](0.2)
    rows, v = np.full((1, 3), 1 / 3), np.arange(3.0)
    original = CLASSES["tv"].__dict__["support_batch"]
    timer = clock.Clock()
    with clock.sampling(timer, [CLASSES["tv"]]):
        timer.call(lambda: [uset.support_batch(rows, v) for _ in range(3)])
    assert len(passes) == 1 + 3 + 1  # before the call, at each support solve, after the call
    assert CLASSES["tv"].__dict__["support_batch"] is original
    assert timer.norm == pytest.approx(timer.wall)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
