"""The benchmark's own tests: metric list, percentile rule, pin gate, tracer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import ftmd.resolve
import worker
from ftbench.metrics import END_TO_END, PER_LAYER, unit
from ftbench.stats import MIN_TAIL, block_medians, blocks, min_samples, percentile
from ftbench.tracing import Tracer
from ftbench.workloads import WORKLOADS, Instance

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == unit(m["name"]), m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_traced_metrics_are_the_per_layer_list():
    names = set(Tracer().layer_metrics()) | set(worker.RULE_COUNTERS)
    names |= {"cli_startup_s", "trace.instances", "trace.overhead_frac", "error_rate"}
    assert names == set(PER_LAYER)


def test_percentile_needs_ten_samples_beyond():
    assert min_samples(0.9) == 100
    assert percentile(range(1, 101), 0.9) == 90
    with pytest.raises(ValueError):
        percentile(range(1, 100), 0.9)
    assert percentile(range(1, 21), 0.5) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 20), 0.5)
    assert len(range(1, 101)) - 90 == MIN_TAIL


def test_block_medians_use_blocks_of_full_size():
    rounds = [[0.001] * 30 for _ in range(9)]  # the last 30 samples join the second block
    assert [len(b) for b in blocks(rounds, 100)] == [120, 150]
    m, per = block_medians(rounds, 100)
    assert len(per) == 2
    assert m["ops_per_s"] == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        block_medians([[0.001] * 99], 100)


def _fdim_p4() -> Instance:
    return Instance("p4", "search", {"invariant": "fdim", "n": 4,
                                     "edges": ((0, 1), (1, 2), (2, 3)), "cap": None}, fixed=True)


def test_pin_gate_trips_on_a_wrong_value():
    inst = _fdim_p4()
    right = {"value": 2, "witness": [0, 3]}  # the lexicographically first basis of P4
    good = worker.Outcomes({"p4": right}, seed=5)
    good.record(inst, worker.execute(inst))
    assert (good.attempted, good.failed) == (1, 0)
    bad = worker.Outcomes({"p4": {**right, "value": 3}}, seed=5)
    bad.record(inst, worker.execute(inst))
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "differs from pin" in bad.problems[0]


def test_witness_check_trips_without_pins():
    inst = _fdim_p4()
    g, report = worker.execute(inst)
    wrong = type(report)(value=2, witness=(0, 1), method=report.method)
    out = worker.Outcomes(None, seed=5)
    out.record(inst, (g, wrong))
    assert out.failed == 1


def test_tracer_records_layers_and_restores_the_library():
    original = ftmd.resolve.fdim
    tracer = Tracer()
    inst = _fdim_p4()
    with tracer.installed():
        assert ftmd.resolve.fdim is not original
        worker.execute(inst)
    assert ftmd.resolve.fdim is original
    m = tracer.layer_metrics()
    assert (m["graph.builds"], m["graph.masks"], m["resolve.fdim_calls"]) == (1, 1, 1)
    assert m["graph.vertices"] == 4 and m["graph.dist_cells"] == 16
