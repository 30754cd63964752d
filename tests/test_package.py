"""The package's public names, and what importing and running it loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cloudtrack

SRC = Path(cloudtrack.__file__).resolve().parents[1]


def test_public_names_resolve_without_duplicates():
    missing = [name for name in cloudtrack.__all__ if not hasattr(cloudtrack, name)]
    assert missing == []
    assert len(set(cloudtrack.__all__)) == len(cloudtrack.__all__)


def test_the_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter imports every submodule and runs the whole
    # pipeline; scipy is a test dependency only, and importing any part of
    # it would load a second BLAS and double the resident set
    script = textwrap.dedent(
        """
        import importlib, pkgutil, sys
        import cloudtrack
        from cloudtrack import cli

        for mod in pkgutil.iter_modules(cloudtrack.__path__):
            importlib.import_module(f"cloudtrack.{mod.name}")
        seq, weights, pred = "scene", "model.bin", "tracks.csv"
        for argv in (
            ["synth", "--out", seq, "--objects", "3", "--frames", "6",
             "--seed", "2", "--points-per-object", "40", "--fn-rate", "0.1"],
            ["train", "--seq", seq, "--out", weights, "--steps", "5"],
            ["track", "--seq", seq, "--weights", weights, "--out", pred],
            ["eval", "--gt", f"{seq}/gt_tracks.csv", "--pred", pred],
        ):
            assert cli.run(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert loaded == [], loaded
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MOTA" in proc.stdout
