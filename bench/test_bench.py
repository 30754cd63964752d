"""Tests of the benchmark itself: python -m pytest bench"""

import json
import re
from pathlib import Path

import pytest

import layers
import run
from tracer import Tracer
from workloads import (
    DENSE_ARENA, DENSE_FRAMES, DENSE_OBJECTS, WORKLOADS, Cli, Phase, Workload,
    derived_seed, lay_out,
)
from cloudtrack import cli
from cloudtrack.model import init_model, save_model
from cloudtrack.synth import SynthConfig, generate

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_wrapper_returns_the_result_and_records_a_span():
    tracer = Tracer()
    result = object()
    wrapped = tracer.wrap(lambda *a, **k: (result, a, k), "layer.fn")
    out = wrapped(1, key=2)
    assert out == (result, (1,), {"key": 2})
    assert out[0] is result
    assert [s.name for s in tracer.spans] == ["layer.fn"]
    assert tracer.duration(0) >= 0.0


def test_wrapper_reraises_and_closes_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("inner")

    with pytest.raises(KeyError, match="inner"):
        tracer.wrap(boom, "layer.boom")()
    assert tracer.spans[0].end >= tracer.spans[0].start > 0.0
    tracer.wrap(lambda: None, "layer.after")()
    assert tracer.spans[1].parent is None


def test_failing_observer_leaves_the_result_alone():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda: 7, "layer.fn", observe=lambda a, k, r: r.missing)
    assert wrapped() == 7
    assert tracer.observer_failures == {"layer.fn": 1}


def test_absent_names_are_skipped_and_uninstall_restores():
    import cloudtrack.association as association

    original = association.crop_frame
    with Tracer() as tracer:
        assert not tracer.install("cloudtrack.association", "no_such_layer", "x")
        assert not tracer.install("cloudtrack.no_such_module", "fn", "x")
        assert tracer.install("cloudtrack.association", "crop_frame", "cropping.crop_frame")
        assert association.crop_frame is not original
    assert association.crop_frame is original
    assert tracer.skipped == [
        "cloudtrack.association.no_such_layer", "cloudtrack.no_such_module.fn",
    ]


def test_nested_spans_know_their_parent_and_self_time():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    assert [s.parent for s in tracer.spans] == [None, 0]
    children = tracer.children()
    assert children == {0: [1]}
    assert tracer.self_time(0, children) == pytest.approx(
        tracer.duration(0) - tracer.duration(1)
    )
    assert tracer.select("inner", "outer") == [1]
    assert tracer.select("outer", "inner") == []


def test_traced_tracking_writes_the_same_bytes(tmp_path):
    seq = generate(SynthConfig(3, 4, seed=5), tmp_path / "seq").root
    weights = tmp_path / "w.bin"
    save_model(init_model(0), weights)

    def track(out):
        argv = ["track", "--seq", str(seq), "--weights", str(weights),
                "--out", str(out), "--threads", "1"]
        assert cli.run(argv) == 0
        return out.read_bytes()

    plain = track(tmp_path / "plain.csv")
    with Tracer() as tracer:
        layers.install_all(tracer)
        traced = track(tmp_path / "traced.csv")
    assert traced == plain
    assert tracer.skipped == []
    assert tracer.observer_failures == {}
    metrics = layers.layer_metrics(tracer)
    assert metrics["track.frame_samples"] == 4
    assert metrics["association.write_tracks_csv.frame_loads"] == 4
    assert metrics["affinity.cells"] == 9
    assert metrics["cropping.crop_frame.ms_per_call"] > 0.0


def test_failed_calls_and_differing_outputs_count_as_failures(tmp_path):
    calls = Cli()
    ok, _, _ = calls.call(["track", "--seq", str(tmp_path / "missing")])
    assert not ok
    assert (calls.attempted, len(calls.failures)) == (1, 1)
    ok, _, _ = calls.call(["track", "--seq", str(tmp_path / "missing")], in_child=True)
    assert not ok
    assert (calls.attempted, len(calls.failures)) == (2, 2)

    wl = Workload("dense80", 0, tmp_path)
    wl.compare(Phase(outputs={"tracks/a": b"1"}), Phase(outputs={"tracks/a": b"1"}))
    assert wl.cli.failures == []
    wl.compare(Phase(outputs={"tracks/a": b"1"}), Phase(outputs={"tracks/a": b"2"}))
    assert len(wl.cli.failures) == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert layers.tail_percentile(20) == 50.0
    assert layers.tail_percentile(360) == 95.0
    assert layers.tail_percentile(1000) == 99.0
    assert layers.tail_percentile(10000) == 99.9


def test_metric_names_are_well_formed_and_unique():
    names = [n for n, _ in run.END_TO_END] + list(layers.UNITS)
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_exactly_the_printed_metrics(tmp_path):
    wl = Workload("paper5_noisy", 0, tmp_path)
    wl.setup_train = (500, 10.0, 0.2)
    phase = Phase(
        track_calls=[(30, 0.3)],
        reports={"s": {"false_neg": 1, "false_pos": 0, "id_switches": 2, "gt_count": 10}},
        loss_tail=0.2,
    )
    printed = run.end_to_end(wl, phase, 1.0)
    assert None not in printed.values()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (n, dict(run.END_TO_END)[n]) for n in printed
    ]
    traced = set(layers.layer_metrics(Tracer())) | {n for n, _, _ in layers.OVERHEAD}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: layers.UNITS[n] for n in traced
    }
    better = {n: b for n, _, b, _ in layers.PER_LAYER} | {
        n: b for n, _, b in layers.OVERHEAD
    }
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == better


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")


def test_seeds_give_distinct_reproducible_scenes():
    assert derived_seed(1, "dense80", 0) == derived_seed(1, "dense80", 0)
    seeds = {derived_seed(s, w, k) for s in (0, 1) for w in WORKLOADS for k in (0, 1)}
    assert len(seeds) == 12


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_scene_lays_out(tmp_path, seed):
    cfg = SynthConfig(
        DENSE_OBJECTS, DENSE_FRAMES, arena=DENSE_ARENA,
        seed=derived_seed(seed, "dense80", 0),
    )
    scene, _ = lay_out(cfg, tmp_path / "dense", "dense")
    assert scene.frames == DENSE_FRAMES
    assert scene.gt_rows == DENSE_OBJECTS * DENSE_FRAMES
