"""
Detector noise and the confidence gate
======================================

Real detectors produce clutter and jitter.  The ingest stage drops any
detection at confidence 0.4 or below, so low-confidence false positives
never reach the tracker.  Center jitter does reach it and degrades the
distance metric, which the evaluation makes visible.
"""

import tempfile
from pathlib import Path

from cloudtrack import (
    SynthConfig,
    TrainConfig,
    evaluate,
    generate,
    perturb,
    read_center_tracks,
    track_sequence,
    train,
    write_tracks_csv,
)
from cloudtrack.synth import GT_TRACKS_NAME

root = Path(tempfile.mkdtemp())
clean = generate(
    SynthConfig(n_objects=4, n_frames=20, seed=5, events=(("leave", 8, 0),)),
    root / "clean",
)
model, _ = train(clean, TrainConfig(steps=400, learning_rate=1e-2, seed=0))


def track_to(src, name):
    rows = track_sequence(src, model)
    path = root / f"{name}.csv"
    write_tracks_csv(path, rows)
    return path


clean_csv = track_to(clean, "clean")

# Heavy clutter, but every injected box scores 0.4 or below.  The
# confidence gate removes all of it, so the tracking output is the
# same file byte for byte.
cluttered = perturb(clean, fp_rate=0.8, conf_model=(0.0, 0.4), seed=1, out_dir=root / "fp")
fp_csv = track_to(cluttered, "fp")
print(f"output unchanged under sub-threshold clutter: "
      f"{clean_csv.read_bytes() == fp_csv.read_bytes()}")

# Center jitter survives ingestion.  Identity quality holds up at
# small sigma while the matched-distance average (MOTP) grows.
gt = read_center_tracks(clean.root / GT_TRACKS_NAME)
for sigma in (0.0, 0.05, 0.15):
    src = (
        clean
        if sigma == 0.0
        else perturb(clean, det_noise_sigma=sigma, seed=2, out_dir=root / f"j{sigma}")
    )
    report = evaluate(gt, read_center_tracks(track_to(src, f"jitter_{sigma}")))
    print(
        f"sigma={sigma:.2f}: MOTA={report.mota:.3f} MOTP={report.motp:.3f} "
        f"IDS={report.id_switches}"
    )
