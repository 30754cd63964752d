"""Tracking-by-detection for 3D point-cloud sequences.

The pipeline: crop detected objects out of each frame's point cloud,
embed every crop with a shared point-set network, score all previous/
current object pairs with a learned affinity network, link frames with
an optimal gated assignment, and score the result against ground truth
with standard multi-object tracking metrics.
"""

from .affinity import (
    CompressionNet,
    augment_and_softmax,
    compression_forward,
)
from .association import (
    LiveTracks,
    TrackerConfig,
    TrackRow,
    score_matrix,
    solve_assignment,
    track_sequence,
    update_tracks,
    write_tracks_csv,
)
from .cropping import CROP_POINTS, crop_frame
from .geometry import (
    Detection,
    Frame,
    OrientedBox3,
    box_contains,
    from_box_frame,
    to_box_frame,
    yaw_normalize,
)
from .losses import (
    BatchTargets,
    GroundTruthAssignment,
    LossBreakdown,
    LossGradients,
    build_gt,
    loss_breakdown,
    loss_from_raw,
    loss_gradients,
    stack_gt,
)
from .metrics import (
    MotReport,
    evaluate,
    read_center_tracks,
    report_json,
    report_table,
)
from .model import (
    AffinityModel,
    init_model,
    load_model,
    save_model,
)
from .pointnet import (
    PointNetWeights,
    featurize_frame,
    pointnet_forward,
)
from .sequence_io import (
    SequenceSource,
    admit_detections,
    load_admitted_frame,
    load_frame,
    open_sequence,
    write_frame,
    write_sequence_meta,
)
from .synth import SynthConfig, generate, perturb
from .training import (
    TrainConfig, TrainState, reduce_pool, train, train_step, training_pairs,
    write_loss_log,
)
from .verification import LosscheckReport, fd_gradient_check, run_losscheck

__version__ = "0.1.0"

__all__ = [
    "AffinityModel",
    "CROP_POINTS",
    "CompressionNet",
    "Detection",
    "Frame",
    "GroundTruthAssignment",
    "LiveTracks",
    "LossBreakdown",
    "LossGradients",
    "LosscheckReport",
    "MotReport",
    "OrientedBox3",
    "PointNetWeights",
    "SequenceSource",
    "SynthConfig",
    "TrackRow",
    "TrackerConfig",
    "TrainConfig",
    "TrainState",
    "admit_detections",
    "augment_and_softmax",
    "box_contains",
    "build_gt",
    "compression_forward",
    "crop_frame",
    "evaluate",
    "fd_gradient_check",
    "featurize_frame",
    "from_box_frame",
    "generate",
    "init_model",
    "load_admitted_frame",
    "load_frame",
    "load_model",
    "loss_breakdown",
    "loss_from_raw",
    "loss_gradients",
    "stack_gt",
    "BatchTargets",
    "open_sequence",
    "perturb",
    "pointnet_forward",
    "read_center_tracks",
    "reduce_pool",
    "report_json",
    "report_table",
    "run_losscheck",
    "save_model",
    "score_matrix",
    "solve_assignment",
    "to_box_frame",
    "track_sequence",
    "train",
    "train_step",
    "training_pairs",
    "update_tracks",
    "write_frame",
    "write_loss_log",
    "write_sequence_meta",
    "write_tracks_csv",
    "yaw_normalize",
]
