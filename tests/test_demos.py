"""Every walkthrough demo runs to completion on the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_synthesize_scene.py",
    "02_features_and_affinity.py",
    "03_losses_and_gradients.py",
    "04_train_and_track.py",
    "05_noise_robustness.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["TMPDIR"] = str(tmp_path)  # the demos write their scenes to a temp dir
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
