"""Command-line interface for the tracking pipeline.

Subcommands: synth (generate a labeled sequence), train (fit the
affinity head), track (run the tracker over a sequence), eval (score
tracks against ground truth), losscheck (gradient and loss-identity
verification).  Exit codes: 0 success, 1 runtime failure, 2 usage
error.  stdout carries machine-parseable data only; diagnostics go to
stderr.  synth, train and losscheck are deterministic given --seed;
track and eval take no seed, as a crop depends on its frame alone.
train and track still accept --threads, but ignore it: the pipeline
runs on one serial path.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from .association import (
    DEFAULT_BIRTH_THRESHOLD,
    TrackerConfig,
    track_sequence,
    write_tracks_csv,
)
from .metrics import evaluate, read_center_tracks, report_json, report_table
from .model import load_model
from .sequence_io import DEFAULT_CONFIDENCE_THRESHOLD, open_sequence
from .synth import DEFAULT_ARENA, DEFAULT_SPEED_RANGE, SynthConfig, generate, perturb
from .training import TrainConfig, train
from .verification import run_losscheck


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {value}")
    return value


def _leave_event(text: str) -> tuple:
    try:
        frame, obj = text.split(":")
        return ("leave", int(frame), int(obj))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected FRAME:OBJECT, got {text!r}"
        ) from None


def _enter_event(text: str) -> tuple:
    return ("enter", int(text))


def _add_threads_flag(sub) -> None:
    sub.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="ignored; kept so existing scripts still parse (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudtrack",
        description="tracking-by-detection for 3D point-cloud sequences",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic labeled sequence")
    synth.add_argument("--out", required=True, help="output sequence directory")
    synth.add_argument("--objects", type=_positive_int, default=3)
    synth.add_argument("--frames", type=_positive_int, default=20)
    synth.add_argument("--seed", type=_nonneg_int, default=0)
    synth.add_argument("--points-per-object", type=_positive_int, default=200)
    synth.add_argument(
        "--leave", type=_leave_event, action="append", default=[],
        metavar="FRAME:OBJECT", help="remove an object from this frame on",
    )
    synth.add_argument(
        "--enter", type=_enter_event, action="append", default=[],
        metavar="FRAME", help="introduce a new object at this frame",
    )
    synth.add_argument(
        "--arena", type=_positive_float, nargs=2, default=DEFAULT_ARENA,
        metavar=("X", "Y"), help="arena half-extents in metres",
    )
    synth.add_argument(
        "--speed-lo", type=_nonneg_float, default=DEFAULT_SPEED_RANGE[0],
        help="slowest object speed, metres per frame",
    )
    synth.add_argument(
        "--speed-hi", type=_nonneg_float, default=DEFAULT_SPEED_RANGE[1],
        help="fastest object speed, metres per frame",
    )
    synth.add_argument("--det-noise-sigma", type=_nonneg_float, default=0.0)
    synth.add_argument("--fp-rate", type=_rate, default=0.0)
    synth.add_argument("--fn-rate", type=_rate, default=0.0)
    synth.add_argument("--conf-lo", type=_rate, default=0.0)
    synth.add_argument("--conf-hi", type=_rate, default=0.4)
    synth.set_defaults(func=cmd_synth)

    trn = subs.add_parser("train", help="fit the affinity head on a labeled sequence")
    trn.add_argument("--seq", required=True, help="labeled sequence directory")
    trn.add_argument("--out", required=True, help="output weights file")
    trn.add_argument("--steps", type=_nonneg_int, default=500)
    trn.add_argument("--lr", type=_positive_float, default=1e-2)
    trn.add_argument("--batch-pairs", type=_positive_int, default=4)
    trn.add_argument(
        "--seed", type=_nonneg_int, default=0, help="seeds the init and the batches"
    )
    trn.add_argument("--log", default=None, help="optional loss log CSV path")
    _add_threads_flag(trn)
    trn.set_defaults(func=cmd_train)

    trk = subs.add_parser("track", help="track a sequence with trained weights")
    trk.add_argument("--seq", required=True, help="sequence directory")
    trk.add_argument("--weights", required=True, help="model weights file")
    trk.add_argument("--out", required=True, help="output tracks CSV")
    trk.add_argument("--birth-threshold", type=_rate, default=DEFAULT_BIRTH_THRESHOLD)
    trk.add_argument(
        "--conf-threshold", type=_rate, default=DEFAULT_CONFIDENCE_THRESHOLD
    )
    _add_threads_flag(trk)
    trk.set_defaults(func=cmd_track)

    ev = subs.add_parser("eval", help="score predicted tracks against ground truth")
    ev.add_argument("--gt", required=True, help="ground-truth tracks CSV")
    ev.add_argument("--pred", required=True, help="predicted tracks CSV")
    ev.add_argument("--radius", type=_positive_float, default=1.0)
    ev.set_defaults(func=cmd_eval)

    lc = subs.add_parser("losscheck", help="gradient and loss-identity verification")
    lc.add_argument("--trials", type=_positive_int, default=20)
    lc.add_argument("--seed", type=_nonneg_int, default=0)
    lc.set_defaults(func=cmd_losscheck)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """run's parser, built once per process.

    Parsing leaves it unchanged: each call fills a fresh namespace, and
    the --leave/--enter append actions copy their default list before
    appending.
    """
    return build_parser()


def _synth_config(args) -> SynthConfig:
    return SynthConfig(
        n_objects=args.objects,
        n_frames=args.frames,
        seed=args.seed,
        points_per_object=args.points_per_object,
        speed_range=(args.speed_lo, args.speed_hi),
        arena=tuple(args.arena),
        events=tuple(args.leave) + tuple(args.enter),
    )


def cmd_synth(args) -> int:
    cfg = _synth_config(args)
    src = generate(cfg, args.out)
    if args.det_noise_sigma > 0.0 or args.fp_rate > 0.0 or args.fn_rate > 0.0:
        perturb(
            src,
            det_noise_sigma=args.det_noise_sigma,
            fp_rate=args.fp_rate,
            fn_rate=args.fn_rate,
            conf_model=(args.conf_lo, args.conf_hi),
            seed=args.seed,
        )
    print(f"out={args.out} frames={cfg.n_frames} objects={cfg.n_objects}")
    return 0


def cmd_train(args) -> int:
    src = open_sequence(args.seq)
    cfg = TrainConfig(
        steps=args.steps,
        learning_rate=args.lr,
        batch_pairs=args.batch_pairs,
        seed=args.seed,
    )
    _, log = train(src, cfg, weights_out=args.out, log_out=args.log)
    final = float(log[-1].total) if log else float("nan")
    print(f"weights={args.out} steps={cfg.steps} final_total={final!r}")
    return 0


def cmd_track(args) -> int:
    src = open_sequence(args.seq, args.conf_threshold)
    model = load_model(args.weights)
    cfg = TrackerConfig(birth_threshold=args.birth_threshold)
    started = time.perf_counter()
    rows = track_sequence(src, model, cfg)
    elapsed = time.perf_counter() - started
    per_frame = elapsed / src.frame_count if src.frame_count else 0.0
    write_tracks_csv(args.out, rows)
    print(
        f"out={args.out} frames={src.frame_count} "
        f"tracks={len({r.track_id for r in rows})} seconds_per_frame={per_frame:.6f}"
    )
    return 0


def cmd_eval(args) -> int:
    gt = read_center_tracks(args.gt)
    pred = read_center_tracks(args.pred)
    report = evaluate(gt, pred, match_radius=args.radius)
    print(report_table(report))
    print(report_json(report))
    return 0


def cmd_losscheck(args) -> int:
    report = run_losscheck(args.trials, seed=args.seed)
    for line in report.lines:
        print(line)
    return 0 if report.ok else 1


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "synth":
            if args.conf_lo > args.conf_hi:
                parser.error(
                    f"synth: --conf-lo {args.conf_lo} exceeds --conf-hi {args.conf_hi}"
                )
            # an event outside the sequence is a usage error, caught
            # before anything is written
            try:
                _synth_config(args)
            except ValueError as exc:
                parser.error(f"synth: {exc}")
    except SystemExit as exc:
        # argparse has already written the usage message to stderr
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
