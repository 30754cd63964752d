"""Where the traced run wraps the program, and the per-layer metrics.

Each trace point names the module whose code looks the function up at call
time, so replacing that module attribute times every call the layer above
makes.  Observers compute counts from the arguments and results only; they
never modify them.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

TRACK = "association.track_sequence"
TRAIN_STEP = "training.train_step"
UPDATE = "association.update_tracks"
WRITE = "association.write_tracks_csv"
LOAD_ADMITTED = "sequence_io.load_admitted_frame"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _admitted(args, kwargs, result) -> dict:
    return {
        "raw": len(_arg(args, kwargs, 0, "frame").detections),
        "kept": len(result.detections),
    }


def _cropped(args, kwargs, result) -> dict:
    frame = _arg(args, kwargs, 0, "frame")
    return {
        "scan_points": len(frame.cloud) * len(frame.detections),
        "kept_points": sum(obj.valid_count for obj in result),
    }


def _featurized(args, kwargs, result) -> dict:
    return {"points": sum(obj.valid_count for obj in _arg(args, kwargs, 0, "objs"))}


def _cells(args, kwargs, result) -> dict:
    prev, cur = _arg(args, kwargs, 0, "prev"), _arg(args, kwargs, 1, "cur")
    return {
        "cells": prev.count * cur.count,
        "capacity_cells": prev.capacity * cur.capacity,
    }


def _pair_bytes(args, kwargs, result) -> dict:
    return {"pair_bytes": result.values.nbytes}


def _gates(args, kwargs, result) -> dict:
    """Previous objects whose best current candidate a gate turned away."""
    s = np.asarray(_arg(args, kwargs, 0, "s"))
    threshold = _arg(args, kwargs, 1, "birth_threshold")
    cc = s.shape[1] - 1
    if s.shape[0] == 0 or cc == 0:
        return {"gate_rejects": 0}
    best = s[:, :cc].max(axis=1)
    passes = (best > s[:, cc]) & (best > threshold)
    return {"gate_rejects": int((~passes).sum())}


def _links(args, kwargs, result) -> dict:
    links = _arg(args, kwargs, 1, "result")
    return {
        "matches": len(links.matches),
        "births": len(links.births),
        "deaths": len(links.deaths),
    }


# (module the caller looks the name up in, attribute, span name, observer)
TRACE_POINTS = (
    ("cloudtrack.cli", "track_sequence", TRACK, None),
    ("cloudtrack.cli", "write_tracks_csv", WRITE, None),
    ("cloudtrack.cli", "load_model", "model.load_model", None),
    ("cloudtrack.cli", "evaluate", "metrics.evaluate", None),
    ("cloudtrack.cli", "train", "training.train", None),
    ("cloudtrack.association", "load_admitted_frame", LOAD_ADMITTED, None),
    ("cloudtrack.sequence_io", "load_frame", "sequence_io.load_frame", None),
    ("cloudtrack.sequence_io", "admit_detections", "sequence_io.admit_detections", _admitted),
    ("cloudtrack.association", "crop_frame", "cropping.crop_frame", _cropped),
    ("cloudtrack.association", "featurize_frame", "pointnet.featurize_frame", _featurized),
    ("cloudtrack.association", "affinity_from_features", "affinity.affinity_from_features", _cells),
    ("cloudtrack.affinity", "build_pair_tensor", "affinity.build_pair_tensor", _pair_bytes),
    ("cloudtrack.affinity", "compression_forward", "affinity.compression_forward", None),
    ("cloudtrack.affinity", "augment_and_softmax", "affinity.augment_and_softmax", None),
    ("cloudtrack.association", "score_matrix", "association.score_matrix", None),
    ("cloudtrack.association", "solve_assignment", "association.solve_assignment", _gates),
    ("cloudtrack.association", "update_tracks", UPDATE, _links),
    ("cloudtrack.training", "training_pairs", "training.training_pairs", None),
    ("cloudtrack.training", "train_step", TRAIN_STEP, None),
    ("cloudtrack.training", "mlp_forward_cached", "nets.mlp_forward_cached", None),
    ("cloudtrack.training", "mlp_backward", "nets.mlp_backward", None),
    ("cloudtrack.training", "loss_gradients", "losses.loss_gradients", None),
    ("cloudtrack.training", "loss_breakdown", "losses.loss_breakdown", None),
    ("cloudtrack.training", "augment_and_softmax", "affinity.augment_and_softmax", None),
)


def install_all(tracer: Tracer) -> None:
    for module, attr, name, observe in TRACE_POINTS:
        tracer.install(module, attr, name, observe)


# -- per-layer metrics ------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def _ms_per_call(tr: Tracer, name: str, under: str | None = TRACK) -> float:
    return 1e3 * _mean(tr.duration(i) for i in tr.select(name, under))


def _self_ms_per_call(tr: Tracer, name: str, children, under: str | None) -> float:
    return 1e3 * _mean(tr.self_time(i, children) for i in tr.select(name, under))


def _note_mean(tr: Tracer, name: str, key: str, under: str | None = TRACK) -> float:
    return _mean(tr.spans[i].notes.get(key, 0) for i in tr.select(name, under))


def _note_ratio(tr: Tracer, name: str, num: str, den: str) -> float:
    spans = [tr.spans[i].notes for i in tr.select(name, TRACK)]
    total = sum(n.get(den, 0) for n in spans)
    return sum(n.get(num, 0) for n in spans) / total if total else 0.0


def _ms_per_step(tr: Tracer, name: str) -> float:
    steps = len(tr.select(TRAIN_STEP, None))
    inside = sum(tr.duration(i) for i in tr.select(name, TRAIN_STEP))
    return 1e3 * inside / steps if steps else 0.0


def _frame_loads(tr: Tracer) -> float:
    writes = set(tr.select(WRITE, None))
    loads = [i for i in tr.select(LOAD_ADMITTED, None) if tr.spans[i].parent in writes]
    return len(loads) / len(writes) if writes else 0.0


def frame_times_ms(tr: Tracer) -> list[float]:
    """One duration per tracked frame, split at each update_tracks return."""
    out = []
    for track in tr.select(TRACK, None):
        mark = tr.spans[track].start
        for update in tr.select(UPDATE, None):
            if tr.spans[update].parent == track:
                out.append(1e3 * (tr.spans[update].end - mark))
                mark = tr.spans[update].end
    return out


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for tenths in (999, 990, 950, 900, 750):
        if n * (1000 - tenths) >= 10 * 1000:
            return tenths / 10
    return 50.0


def overhead_pct(untraced: float | None, traced: float | None) -> float:
    """How much slower the traced rate is, as a share of the untraced rate."""
    if not untraced or traced is None:
        return 0.0
    return 100.0 * (untraced - traced) / untraced


# name, unit, better, how to compute it from a tracer (and the overheads)
PER_LAYER = (
    ("sequence_io.load_frame.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "sequence_io.load_frame")),
    ("sequence_io.admit_detections.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "sequence_io.admit_detections")),
    ("sequence_io.kept_ratio", "ratio", "higher",
     lambda tr: _note_ratio(tr, "sequence_io.admit_detections", "kept", "raw")),
    ("association.write_tracks_csv.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, WRITE, None)),
    ("association.write_tracks_csv.frame_loads", "count", "lower", _frame_loads),
    ("cropping.crop_frame.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "cropping.crop_frame")),
    ("cropping.scan_points", "count", "lower",
     lambda tr: _note_mean(tr, "cropping.crop_frame", "scan_points")),
    ("cropping.kept_ratio", "ratio", "higher",
     lambda tr: _note_ratio(tr, "cropping.crop_frame", "kept_points", "scan_points")),
    ("pointnet.featurize_frame.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "pointnet.featurize_frame")),
    ("pointnet.points", "count", "lower",
     lambda tr: _note_mean(tr, "pointnet.featurize_frame", "points")),
    ("affinity.affinity_from_features.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "affinity.affinity_from_features")),
    ("affinity.affinity_from_features.self_ms_per_call", "ms", "lower",
     lambda tr: _self_ms_per_call(
         tr, "affinity.affinity_from_features", tr.children(), TRACK)),
    ("affinity.build_pair_tensor.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "affinity.build_pair_tensor")),
    ("affinity.compression_forward.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "affinity.compression_forward")),
    ("affinity.augment_and_softmax.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "affinity.augment_and_softmax")),
    ("affinity.cells", "count", "lower",
     lambda tr: _note_mean(tr, "affinity.affinity_from_features", "cells")),
    ("affinity.cell_ratio", "ratio", "higher",
     lambda tr: _note_ratio(
         tr, "affinity.affinity_from_features", "cells", "capacity_cells")),
    ("affinity.pair_bytes", "bytes", "lower",
     lambda tr: _note_mean(tr, "affinity.build_pair_tensor", "pair_bytes")),
    ("association.score_matrix.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "association.score_matrix")),
    ("association.solve_assignment.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "association.solve_assignment")),
    ("association.update_tracks.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, UPDATE)),
    ("association.matches_per_frame", "count", "higher",
     lambda tr: _note_mean(tr, UPDATE, "matches")),
    ("association.births_per_frame", "count", "lower",
     lambda tr: _note_mean(tr, UPDATE, "births")),
    ("association.deaths_per_frame", "count", "lower",
     lambda tr: _note_mean(tr, UPDATE, "deaths")),
    ("association.gate_rejects_per_frame", "count", "lower",
     lambda tr: _note_mean(tr, "association.solve_assignment", "gate_rejects")),
    ("training.training_pairs.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "training.training_pairs", None)),
    ("training.train_step.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, TRAIN_STEP, None)),
    ("training.train_step.self_ms_per_call", "ms", "lower",
     lambda tr: _self_ms_per_call(tr, TRAIN_STEP, tr.children(), None)),
    ("training.mlp_forward_cached.ms_per_step", "ms", "lower",
     lambda tr: _ms_per_step(tr, "nets.mlp_forward_cached")),
    ("training.mlp_backward.ms_per_step", "ms", "lower",
     lambda tr: _ms_per_step(tr, "nets.mlp_backward")),
    ("training.loss_gradients.ms_per_step", "ms", "lower",
     lambda tr: _ms_per_step(tr, "losses.loss_gradients")),
    ("training.loss_breakdown.ms_per_step", "ms", "lower",
     lambda tr: _ms_per_step(tr, "losses.loss_breakdown")),
    ("training.augment_and_softmax.ms_per_step", "ms", "lower",
     lambda tr: _ms_per_step(tr, "affinity.augment_and_softmax")),
    ("metrics.evaluate.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "metrics.evaluate", None)),
    ("model.load_model.ms_per_call", "ms", "lower",
     lambda tr: _ms_per_call(tr, "model.load_model", None)),
    ("track.frame_ms.p50", "ms", "lower",
     lambda tr: float(np.percentile(frame_times_ms(tr), 50)) if frame_times_ms(tr) else 0.0),
    ("track.frame_ms.tail", "ms", "lower",
     lambda tr: (float(np.percentile(times, tail_percentile(len(times))))
                 if (times := frame_times_ms(tr)) else 0.0)),
    ("track.frame_samples", "count", "higher", lambda tr: len(frame_times_ms(tr))),
)

OVERHEAD = (
    ("tracing_overhead.track_fps_pct", "%", "lower"),
    ("tracing_overhead.train_steps_pct", "%", "lower"),
)


UNITS = {name: unit for name, unit, _, _ in PER_LAYER} | {
    name: unit for name, unit, _ in OVERHEAD
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    return {name: float(fn(tr)) for name, _, _, fn in PER_LAYER}
