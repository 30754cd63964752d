"""
Object features and pairwise affinity
=====================================

Crop each detected object out of the frame cloud, embed the crops with
the point-set network, and score every previous/current pair with the
compression network.  The head's output, the normalized pair (A1, A2),
is the input to track linking.
"""

import tempfile
from pathlib import Path

import numpy as np

from cloudtrack import (
    SynthConfig,
    augment_and_softmax,
    compression_forward,
    crop_frame,
    featurize_frame,
    generate,
    init_model,
    load_admitted_frame,
    pointnet_forward,
)

src = generate(SynthConfig(n_objects=3, n_frames=4, seed=11), Path(tempfile.mkdtemp()) / "s")
model = init_model(seed=0)

prev = load_admitted_frame(src, 0)
cur = load_admitted_frame(src, 1)

# One box-local crop per detection, a float64 (n, 3) array of at most
# CROP_POINTS = 128 points, then one 512-wide float32 feature row per
# object: a frame's features are one (objects x 512) array.  Crops of
# every size, short ones too, run through the featurizer in one batch.  A crop depends on its frame alone, so
# training and tracking featurize the same points.
prev_x = featurize_frame(crop_frame(prev), model.pointnet)
cur_x = featurize_frame(crop_frame(cur), model.pointnet)
print(f"features: {prev_x.shape[0]} objects x {prev_x.shape[1]} dims, {prev_x.dtype}")

# The feature of an object never depends on the order of its points.
rng = np.random.default_rng(3)
pts = rng.normal(size=(100, 3))
a = pointnet_forward(pts, model.pointnet)
b = pointnet_forward(pts[rng.permutation(100)], model.pointnet)
print(f"permutation changes feature bytes: {a.tobytes() != b.tobytes()}")

m = compression_forward(prev_x, cur_x, model.compression)
cp, cc = m.shape
print(f"\nraw scores M ({cp} previous x {cc} current):")
print(np.array2string(m, precision=3))

# The head's output is the pair (A1, A2).  A1 appends a leave column
# and normalizes each row; A2 appends an enter row and normalizes each
# column.  Every row of A1 and every column of A2 is a probability
# distribution.  The learned dummy score fills the extra column and row.
a1, a2 = augment_and_softmax(m, model.dummy_score)
print("\nrow-normalized A1 (last column = leave):")
print(np.array2string(a1, precision=3))
print("row sums:", np.array2string(a1.sum(axis=1), precision=6))

print("\ncolumn-normalized A2 (last row = enter):")
print(np.array2string(a2, precision=3))
print("column sums:", np.array2string(a2.sum(axis=0), precision=6))
