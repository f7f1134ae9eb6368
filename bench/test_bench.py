"""Tests of the benchmark itself, on a shrunken tiny workload."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import harness
import spans
from eitprobe import datagen, gn, ioutil, mesh

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SMALL = dataclasses.replace(harness.WORKLOADS["tiny"], name="tiny-small",
                            n_train=12, n_eval=2, hidden=4, pass_samples=2,
                            setups=2)
COUNTS = ("mesh.inv_elements", "mesh.gen_elements", "forward.solves",
          "gn.applies", "pdipm.newton_steps", "rbf.rounds.direct",
          "rbf.rounds.postproc", "metrics.reports", "metrics.worst_case",
          "datagen.samples", "trace.spans")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return harness.run_workload(SMALL, 3, 0.0, False,
                                tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    return [harness.run_workload(SMALL, 3, 0.0, True,
                                 tmp_path_factory.mktemp(f"traced{k}"))
            for k in range(2)]


def _declared(section):
    doc = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def test_every_metric_present_with_its_unit(untraced, traced_twice):
    assert untraced.correct, untraced.problems
    line = json.loads(untraced.result_line())
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())
    traced = traced_twice[0]
    assert traced.correct, traced.problems
    line = json.loads(traced.result_line())
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _declared("per_layer")
    assert line["attempted"] == (SMALL.n_train + (SMALL.n_eval + 1) * SMALL.pass_samples
                                 + 4 * SMALL.n_eval)


def test_untraced_run_installs_no_wrappers(untraced):
    assert {s.name for s in untraced.recorder.spans} <= {
        "bench.setup", *harness.TIMED_PHASES}
    assert not hasattr(datagen.make_sample, "__wrapped__")


def test_same_seed_repeats_quality_and_counts(traced_twice):
    a, b = traced_twice
    for name in harness.END_TO_END:
        if name.startswith(("nade.", "sd.")):
            assert a.end_to_end[name] == b.end_to_end[name], name
    for name in COUNTS + tuple(f"pdipm.stop.{r}" for r in harness.STOP_REASONS):
        assert a.per_layer[name] == b.per_layer[name], name
    assert (a.attempted, a.failed) == (b.attempted, b.failed)


def test_zero_image_is_a_failed_operation():
    inv = mesh.build_mesh(harness.TINY.geom, harness.TINY.inv_spec)
    target = datagen.TargetSpec(center=(7.0, 0.0, 0.0))
    report, failed = harness.score(inv, np.zeros(inv.n_nodes), target, "gn", "0")
    assert failed and report.worst_case
    _, failed = harness.score(inv, None, target, "gn", "0")
    assert failed
    truth = gn.element_to_nodal(
        datagen.rasterize_target(inv, target) - target.sigma_bg, inv)
    report, failed = harness.score(inv, truth, target, "gn", "0")
    assert not failed and not report.worst_case


def test_self_time_subtracts_covered_child_time():
    rec = spans.SpanRecorder()
    rec.spans = [spans.Span(0, -1, "bench.a", 0.0, 10.0),
                 spans.Span(1, 0, "gn.b", 1.0, 4.0),
                 spans.Span(2, 1, "ioutil.c", 2.0, 3.0),
                 spans.Span(3, 0, "gn.d", 6.0, 7.5)]
    assert rec.self_times().tolist() == [5.5, 2.0, 1.0, 1.5]


def test_install_wraps_each_name_where_callers_look_it_up():
    rec = spans.SpanRecorder()
    original = ioutil.canonical_json_bytes
    with spans.install("eitprobe", rec):
        assert ioutil.canonical_json_bytes is not original
        # metrics reaches the datagen function through its own globals
        from eitprobe import metrics
        assert metrics.target_probe_distance is datagen.target_probe_distance
        ioutil.hash_of({"a": 1})
    assert ioutil.canonical_json_bytes is original
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("ioutil.hash_of", -1), ("ioutil.canonical_json_bytes", 0),
                     ("ioutil.sha256_hex", 0)]
