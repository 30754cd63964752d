"""Value types that hold arrays compare and hash by identity."""

import numpy as np
import pytest

from cloudtrack.geometry import Detection, Frame, OrientedBox3
from cloudtrack.losses import GroundTruthAssignment, LossGradients, stack_gt
from cloudtrack.model import init_model
from cloudtrack.training import PairSample

# small widths keep the model makers cheap
SMALL_MODEL = dict(pointnet_widths=(3, 4, 4), compression_widths=(8, 4, 4, 4, 4, 1))


def box():
    return OrientedBox3(np.zeros(3), 1.0, 1.0, 1.0)


MAKERS = {
    "OrientedBox3": box,
    "Detection": lambda: Detection(box(), 0.9),
    "Frame": lambda: Frame(0, np.ones((2, 3)), (Detection(box(), 0.9),)),
    "GroundTruthAssignment": lambda: GroundTruthAssignment(np.eye(2)),
    "BatchTargets": lambda: stack_gt([GroundTruthAssignment(np.eye(2))]),
    "PairSample": lambda: PairSample(
        np.ones((2, 4), np.float32), np.ones((2, 4), np.float32),
        GroundTruthAssignment(np.eye(2)),
    ),
    "PointNetWeights": lambda: init_model(0, **SMALL_MODEL).pointnet,
    "CompressionNet": lambda: init_model(0, **SMALL_MODEL).compression,
    "AffinityModel": lambda: init_model(0, **SMALL_MODEL),
    "LossGradients": lambda: LossGradients(np.ones((2, 3)), np.ones((2, 3)), 0.0),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equality_and_hash_do_not_raise(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2
