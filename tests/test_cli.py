import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cloudtrack import cli, verification
from cloudtrack.affinity import CompressionNet
from cloudtrack.association import TrackerConfig
from cloudtrack.cli import build_parser, run
from cloudtrack.losses import LossGradients, loss_gradients
from cloudtrack.model import init_model, save_model
from cloudtrack.pointnet import PointNetWeights
from cloudtrack.sequence_io import (
    SequenceSource,
    load_frame,
    open_sequence,
    write_detections,
    write_sequence_meta,
)


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def synth_args(out, objects=3, frames=8, seed=7, extra=()):
    return [
        "synth", "--out", str(out), "--objects", str(objects),
        "--frames", str(frames), "--seed", str(seed),
        "--points-per-object", "60", *extra,
    ]


class TestSynthCommand:
    def test_populates_directory(self, tmp_path, capsys):
        out = tmp_path / "seq"
        assert run(synth_args(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"out={out}" in captured.out
        src = open_sequence(out)
        assert src.frame_count == 8
        assert (out / "gt_tracks.csv").is_file()

    def test_missing_out_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--objects", "2"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(synth_args(a)) == 0
        assert run(synth_args(b)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_events_flags(self, tmp_path):
        out = tmp_path / "seq"
        assert run(synth_args(out, extra=["--leave", "4:1", "--enter", "6"])) == 0
        src = open_sequence(out)
        counts = [len(load_frame(src, f).detections) for f in range(8)]
        assert counts == [3, 3, 3, 3, 2, 2, 3, 3]

    def test_noise_flags_inject_unlabeled_detections(self, tmp_path):
        out = tmp_path / "seq"
        assert run(synth_args(out, extra=["--fp-rate", "0.9"])) == 0
        src = open_sequence(out)
        fps = [
            d
            for f in range(src.frame_count)
            for d in load_frame(src, f).detections
            if d.gt_id is None
        ]
        assert fps and all(d.confidence <= 0.4 for d in fps)

    def test_bad_rate_is_usage_error(self, tmp_path, capsys):
        code = run(synth_args(tmp_path / "s", extra=["--fp-rate", "1.5"]))
        assert code == 2
        assert "usage" in capsys.readouterr().err
        # numpy would reject a negative seed only after parsing, with exit 1
        assert run(synth_args(tmp_path / "n", seed=-1)) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "n").exists()

    @pytest.mark.parametrize("noise", [(), ("--fp-rate", "0.1")])
    def test_inverted_conf_range_is_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "s"
        extra = [*noise, "--conf-lo", "0.6", "--conf-hi", "0.2"]
        assert run(synth_args(out, extra=extra)) == 2
        assert "--conf-lo" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "event, message",
        [
            (("--leave", "0:0"), "leave frame 0 outside 1..19"),
            (("--leave", "5:7"), "leave object 7 does not exist"),
            (("--enter", "40"), "enter frame 40 outside 1..19"),
        ],
    )
    def test_out_of_range_event_is_usage_error(self, tmp_path, capsys, event, message):
        out = tmp_path / "s"
        assert run(synth_args(out, frames=20, extra=event)) == 2
        err = capsys.readouterr().err
        assert "usage" in err and f"synth: {message}" in err
        assert not out.exists()

    def test_arena_and_speed_flags(self, tmp_path):
        # the defaults write the same bytes as no flags at all
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(synth_args(a)) == 0
        defaults = ["--arena", "30", "30", "--speed-lo", "0.05", "--speed-hi", "0.2"]
        assert run(synth_args(b, extra=defaults)) == 0
        assert tree_bytes(a) == tree_bytes(b)
        # objects at speed zero stay where they start
        still = tmp_path / "still"
        assert run(synth_args(still, extra=["--speed-lo", "0", "--speed-hi", "0"])) == 0
        src = open_sequence(still)
        first, last = load_frame(src, 0), load_frame(src, src.frame_count - 1)
        centers = [
            np.array([d.box.center for d in frame.detections]) for frame in (first, last)
        ]
        assert np.array_equal(*centers)

    def test_crowded_layout_advice_can_be_followed(self, tmp_path, capsys):
        # nine objects over 60 frames do not fit the default arena at this
        # seed; a larger arena or slower objects make room
        crowded = ["--objects", "9", "--frames", "60", "--seed", "1", "--points-per-object", "20"]
        assert run(["synth", "--out", str(tmp_path / "c"), *crowded]) == 1
        assert "enlarge the arena or slow the objects" in capsys.readouterr().err
        assert run(["synth", "--out", str(tmp_path / "w"), *crowded, "--arena", "45", "45"]) == 0
        assert run(["synth", "--out", str(tmp_path / "s"), *crowded, "--speed-hi", "0.1"]) == 0

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (("--arena", "nan", "30"), "--arena"),
            (("--arena", "30", "inf"), "--arena"),
            (("--arena", "0", "30"), "--arena"),
            (("--speed-lo", "nan"), "--speed-lo"),
            (("--speed-hi", "inf"), "--speed-hi"),
            (("--speed-lo", "-0.1"), "--speed-lo"),
            (("--speed-lo", "0.3", "--speed-hi", "0.1"), "speed_range"),
        ],
    )
    def test_bad_arena_or_speed_is_usage_error(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "s"
        assert run(synth_args(out, extra=extra)) == 2
        err = capsys.readouterr().err
        assert "usage" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_usage_error(self, tmp_path, capsys, sigma):
        out = tmp_path / "s"
        extra = ["--det-noise-sigma", sigma, "--fp-rate", "0.5"]
        assert run(synth_args(out, extra=extra)) == 2
        assert "--det-noise-sigma" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """A synth sequence plus trained weights, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    seq = root / "seq"
    weights = root / "model.bin"
    assert run(synth_args(seq, objects=3, frames=10, seed=3)) == 0
    code = run([
        "train", "--seq", str(seq), "--out", str(weights),
        "--steps", "40", "--seed", "1", "--threads", "1",
    ])
    assert code == 0
    return seq, weights, root


class TestTrainCommand:
    def test_writes_weights_and_log(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert run(synth_args(seq, frames=6)) == 0
        weights = tmp_path / "w.bin"
        log = tmp_path / "log.csv"
        code = run([
            "train", "--seq", str(seq), "--out", str(weights),
            "--steps", "3", "--seed", "2", "--log", str(log),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "final_total=" in captured.out and captured.err == ""
        assert weights.is_file()
        lines = log.read_text().splitlines()
        assert lines[0] == "step,l_f,l_b,l_c,l_a,total"
        assert len(lines) == 4

    def test_deterministic_weights(self, tmp_path):
        seq = tmp_path / "seq"
        assert run(synth_args(seq, frames=6)) == 0
        outs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.bin"
            assert run([
                "train", "--seq", str(seq), "--out", str(path),
                "--steps", "5", "--seed", "9",
            ]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_sequence_is_runtime_error(self, tmp_path, capsys):
        code = run([
            "train", "--seq", str(tmp_path / "nope"), "--out",
            str(tmp_path / "w.bin"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_unlabeled_sequence_is_runtime_error(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        assert run(synth_args(seq, objects=4, frames=12)) == 0
        src = open_sequence(seq)
        for i in range(src.frame_count):
            write_detections(seq, i, load_frame(src, i).detections, with_gt=False)
        capsys.readouterr()
        weights = tmp_path / "w.bin"
        code = run(["train", "--seq", str(seq), "--out", str(weights), "--steps", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "gt_id" in captured.err
        assert not weights.exists()

    def test_bad_lr_is_usage_error(self, tmp_path, capsys):
        code = run([
            "train", "--seq", str(tmp_path), "--out", str(tmp_path / "w"),
            "--lr", "0",
        ])
        assert code == 2
        assert "usage" in capsys.readouterr().err
        code = run([
            "train", "--seq", str(tmp_path), "--out", str(tmp_path / "w"),
            "--seed", "-1",
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_is_usage_error(self, tmp_path, capsys, lr):
        weights = tmp_path / "w"
        code = run([
            "train", "--seq", str(tmp_path), "--out", str(weights), "--lr", lr,
        ])
        assert code == 2
        assert "--lr" in capsys.readouterr().err
        assert not weights.exists()


class TestTrackCommand:
    def test_tracks_and_reports_timing(self, tiny_pipeline, tmp_path, capsys):
        seq, weights, _ = tiny_pipeline
        out = tmp_path / "tracks.csv"
        code = run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(out), "--threads", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        frames = open_sequence(seq).frame_count
        printed = re.fullmatch(
            rf"out={re.escape(str(out))} frames={frames} tracks=(\d+) "
            r"seconds_per_frame=(\d+\.\d{6})\n",
            captured.out,
        )
        assert printed and float(printed[2]) > 0.0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,track_id,cx,cy,cz,l,w,h,yaw,conf"
        assert len(lines) > 1
        assert int(printed[1]) == len({line.split(",")[1] for line in lines[1:]})

    def test_seed_is_usage_error(self, tiny_pipeline, tmp_path, capsys):
        # a crop depends on its frame alone, so track takes no seed
        seq, weights, _ = tiny_pipeline
        out = tmp_path / "tracks.csv"
        code = run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(out), "--seed", "0",
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_row_count_equals_admitted_detections(self, tiny_pipeline, tmp_path):
        seq, weights, _ = tiny_pipeline
        out = tmp_path / "tracks.csv"
        assert run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(out), "--threads", "1",
        ]) == 0
        src = open_sequence(seq)
        admitted = sum(
            len(load_frame(src, f).detections) for f in range(src.frame_count)
        )
        assert len(out.read_text().splitlines()) - 1 == admitted

    def test_thread_count_never_changes_output(self, tiny_pipeline, tmp_path):
        seq, weights, _ = tiny_pipeline
        blobs = []
        for threads in ("1", "2", "5"):
            out = tmp_path / f"t{threads}.csv"
            assert run([
                "track", "--seq", str(seq), "--weights", str(weights),
                "--out", str(out), "--threads", threads,
            ]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_conf_threshold_one_gives_header_only(self, tiny_pipeline, tmp_path):
        seq, weights, _ = tiny_pipeline
        out = tmp_path / "tracks.csv"
        assert run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(out), "--conf-threshold", "1.0", "--threads", "1",
        ]) == 0
        assert out.read_text() == "frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n"

    def test_empty_sequence_gives_header_only(self, tmp_path):
        seq = tmp_path / "empty"
        write_sequence_meta(seq, 0)
        weights = tmp_path / "w.bin"
        save_model(init_model(seed=0), weights)
        out = tmp_path / "tracks.csv"
        assert run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(out), "--threads", "1",
        ]) == 0
        assert out.read_text() == "frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n"

    def test_bad_frame_count_names_meta_file(self, tmp_path, capsys):
        seq = tmp_path / "seq"
        seq.mkdir()
        weights = tmp_path / "w.bin"
        save_model(init_model(seed=0), weights)
        for value in ("two", "-3"):
            (seq / "sequence.meta").write_text(f"frame_count={value}\n")
            code = run([
                "track", "--seq", str(seq), "--weights", str(weights),
                "--out", str(tmp_path / "t.csv"),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert f"{seq / 'sequence.meta'}:1: bad frame_count {value!r}" in err

    @pytest.mark.parametrize("when", ["before_open", "after_open"])
    def test_missing_frame_file_is_runtime_error(
        self, tiny_pipeline, tmp_path, capsys, monkeypatch, when
    ):
        # a frame file missing when the sequence is opened, or removed
        # after open_sequence checked it: exit 1, the file named, no CSV
        seq, weights, _ = tiny_pipeline
        copy = tmp_path / "seq"
        shutil.copytree(seq, copy)
        gone = copy / "frames" / "6.xyz"
        if when == "before_open":
            gone.unlink()
        else:
            def open_then_remove(*args):
                src = open_sequence(*args)
                gone.unlink()
                return src

            monkeypatch.setattr(cli, "open_sequence", open_then_remove)
        out = tmp_path / "tracks.csv"
        code = run([
            "track", "--seq", str(copy), "--weights", str(weights), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(gone) in err
        assert not out.exists()

    def test_missing_weights_is_runtime_error(self, tiny_pipeline, tmp_path, capsys):
        seq, _, _ = tiny_pipeline
        code = run([
            "track", "--seq", str(seq), "--weights", str(tmp_path / "nope.bin"),
            "--out", str(tmp_path / "t.csv"), "--threads", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("part", ["pointnet", "compression"])
    def test_overflowing_model_is_runtime_error(
        self, tiny_pipeline, tmp_path, capsys, part
    ):
        # finite float32 weights whose featurizer or head overflows float32:
        # a runtime error (exit 1), and no tracks CSV
        seq, _, _ = tiny_pipeline
        model = init_model(0)
        if part == "pointnet":
            scale = (1e30, 1.0, 1e10)
            layers = [(W * k, b) for (W, b), k in zip(model.pointnet.layers, scale)]
            model = replace(model, pointnet=PointNetWeights(tuple(layers)))
        else:
            *layers, (w5, b5) = model.compression.layers
            net = CompressionNet((*layers, (np.full_like(w5, -3e37), b5)))
            model = replace(model, compression=net)
        save_model(model, tmp_path / "m.bin")
        out = tmp_path / "t.csv"
        code = run([
            "track", "--seq", str(seq), "--weights", str(tmp_path / "m.bin"),
            "--out", str(out), "--threads", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

class TestEvalCommand:
    def test_ground_truth_against_itself(self, tiny_pipeline, capsys):
        seq, _, _ = tiny_pipeline
        gt = seq / "gt_tracks.csv"
        assert run(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        out = capsys.readouterr().out
        assert "MOTA" in out and "Seconds/frame" not in out
        payload = json.loads(out[out.index("{"):])
        assert payload["mota"] == 1.0
        assert payload["id_switches"] == 0
        assert "seconds_per_frame" not in payload

    def test_json_mota_matches_table_mota(self, tiny_pipeline, tmp_path, capsys):
        seq, weights, _ = tiny_pipeline
        pred = tmp_path / "pred.csv"
        assert run([
            "track", "--seq", str(seq), "--weights", str(weights),
            "--out", str(pred), "--threads", "1",
        ]) == 0
        capsys.readouterr()
        gt = seq / "gt_tracks.csv"
        assert run(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        out = capsys.readouterr().out
        table_mota = float(
            next(line for line in out.splitlines() if line.startswith("MOTA")).split()[1]
        )
        payload = json.loads(out[out.index("{"):])
        assert abs(payload["mota"] - table_mota) < 1e-6

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf"])
    def test_non_finite_radius_is_usage_error(self, tiny_pipeline, capsys, radius):
        seq, _, _ = tiny_pipeline
        gt = seq / "gt_tracks.csv"
        code = run(["eval", "--gt", str(gt), "--pred", str(gt), "--radius", radius])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--radius" in captured.err

    def test_mismatched_frame_ranges_fail(self, tiny_pipeline, tmp_path, capsys):
        seq, _, _ = tiny_pipeline
        gt = seq / "gt_tracks.csv"
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n"
            "99,0,0.0,0.0,0.0,1.0,1.0,1.0,0.0,1.0\n"
        )
        assert run(["eval", "--gt", str(gt), "--pred", str(bad)]) == 1
        assert "outside" in capsys.readouterr().err


class TestLosscheckCommand:
    def test_default_run_passes(self, capsys):
        assert run(["losscheck", "--trials", "3", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        trial_lines = [s for s in out.splitlines() if s.startswith("trial ")]
        assert len(trial_lines) == 3
        assert "3/3 trials passed" in out

    def test_zero_trials_is_usage_error(self, capsys):
        assert run(["losscheck", "--trials", "0"]) == 2
        assert "usage" in capsys.readouterr().err
        assert run(["losscheck", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_corrupt_gradient_hook_fails(self, capsys, monkeypatch):
        # a fault in one analytic gradient entry must fail the check
        def corrupted(a1, a2, gt):
            grads = loss_gradients(a1, a2, gt)
            bad = grads.d_m1.copy()
            bad[0, 0] += 0.05 * (1.0 + np.abs(bad).max())
            return LossGradients(bad, grads.d_m2, grads.d_dummy)

        monkeypatch.setattr(verification, "loss_gradients", corrupted)
        assert run(["losscheck", "--trials", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestEntryPoints:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["fly"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cloudtrack.cli", "losscheck", "--trials", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1/1 trials passed" in proc.stdout

    def test_runs_share_one_parser_but_no_events(self, tmp_path, capsys, monkeypatch):
        # run builds its parser once per process; a later call must not see
        # an earlier call's --leave/--enter lists, and a usage error still
        # exits 2
        assert run(["losscheck", "--trials", "0"]) == 2

        def rebuilt():
            raise AssertionError("run rebuilt its parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        runs = (
            (["--leave", "4:1", "--enter", "6"], [3, 3, 3, 3, 2, 2, 3, 3]),
            ([], [3] * 8),
            (["--enter", "6"], [3] * 6 + [4, 4]),
        )
        for i, (extra, want) in enumerate(runs):
            out = tmp_path / str(i)
            assert run(synth_args(out, extra=extra)) == 0
            src = open_sequence(out)
            assert [len(load_frame(src, f).detections) for f in range(8)] == want
        capsys.readouterr()
        assert run(synth_args(tmp_path / "late", extra=["--leave", "9:0"])) == 2
        assert "usage" in capsys.readouterr().err
        assert not (tmp_path / "late").exists()
        assert run(["synth", "--objects", "2"]) == 2

    def test_track_defaults_match_the_configs(self):
        args = build_parser().parse_args(
            ["track", "--seq", "s", "--weights", "w.bin", "--out", "t.csv"]
        )
        assert args.birth_threshold == TrackerConfig().birth_threshold
        assert args.conf_threshold == SequenceSource("s", 0).confidence_threshold

    def test_threads_default_is_one(self, monkeypatch):
        # the environment no longer selects a thread count
        monkeypatch.setenv("PCDAN_THREADS", "3")
        parser = build_parser()
        for argv in (
            ["train", "--seq", "s", "--out", "w.bin"],
            ["track", "--seq", "s", "--weights", "w.bin", "--out", "t.csv"],
        ):
            assert parser.parse_args(argv).threads == 1
