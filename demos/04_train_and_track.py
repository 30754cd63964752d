"""
Train the affinity network, then track a held-out scene
=======================================================

Gradient descent on the compression network and dummy score, using
labeled frame pairs from a synthetic scene.  The point-set network
stays frozen at its random initialization.  The trained model then
links detections on a scene it never saw, and the result is scored
with standard multi-object tracking metrics.
"""

import tempfile
import time
from pathlib import Path

from cloudtrack import (
    SynthConfig,
    TrainConfig,
    evaluate,
    generate,
    read_center_tracks,
    report_table,
    track_sequence,
    train,
    write_tracks_csv,
)
from cloudtrack.synth import GT_TRACKS_NAME

root = Path(tempfile.mkdtemp())

train_src = generate(
    SynthConfig(n_objects=4, n_frames=30, seed=800, events=(("leave", 12, 1), ("enter", 20))),
    root / "train",
)
eval_src = generate(
    SynthConfig(n_objects=5, n_frames=25, seed=900, events=(("leave", 9, 2), ("enter", 15))),
    root / "eval",
)

started = time.perf_counter()
model, log = train(train_src, TrainConfig(steps=300, learning_rate=1e-2, seed=0))
print(
    f"trained 300 steps in {time.perf_counter() - started:.1f}s, "
    f"loss {log[0].total:.4f} -> {log[-1].total:.4f}, "
    f"dummy score {model.dummy_score:.4f}"
)

started = time.perf_counter()
rows = track_sequence(eval_src, model)
seconds_per_frame = (time.perf_counter() - started) / eval_src.frame_count
pred_path = root / "pred.csv"
write_tracks_csv(pred_path, rows)
print(
    f"linked {len({row.track_id for row in rows})} tracks on the held-out scene "
    f"in {seconds_per_frame:.4f} s/frame"
)

report = evaluate(
    read_center_tracks(eval_src.root / GT_TRACKS_NAME),
    read_center_tracks(pred_path),
    match_radius=1.0,
)
print()
print(report_table(report))
