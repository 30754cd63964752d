"""The benchmark's workloads: scene set-up and the timed CLI calls.

Every operation is one in-process ``cloudtrack.cli.run([...])`` call with
stdout captured and ``--threads 1``.  An operation fails on a non-zero exit
code or on a failed output check; failures are counted, never raised, so one
bad call cannot hide the others.

The tracking workloads train their model during set-up in a child process,
so the benchmark process's peak memory is that of tracking alone.

- paper5_noisy: noisy 5-object scenes with detector noise, misses and
  sub-threshold clutter, tracked with the model trained in set-up.
- dense80: one 80-object scene in a 200 m arena with clean detections,
  tracked with the same model.
- train4: repeated ``train`` calls of the model recipe; the trained weights
  then track noisy 5-object scenes.

README.md says why each workload is here and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cloudtrack import cli
from cloudtrack.synth import GT_TRACKS_NAME, SynthConfig, generate, perturb

WORKLOADS = ("paper5_noisy", "dense80", "train4")

# The tracking model is the acceptance suite's c6 recipe with its fixed seeds,
# so set-up does the same work whatever the run seed.
MODEL_SCENE = SynthConfig(
    n_objects=4, n_frames=40, seed=800, events=(("leave", 15, 1), ("enter", 25))
)
MODEL_STEPS = 500
MODEL_BATCH_PAIRS = 4
MODEL_SEED = 0

# The c6 evaluation scene recipe, laid out from the run seed.  All clutter has
# confidence at or below the 0.4 admission threshold.
PAPER5_EVENTS = (("leave", 10, 2), ("enter", 18))
PAPER5_NOISE = dict(
    det_noise_sigma=0.05, fn_rate=0.1, fp_rate=0.3, conf_model=(0.0, 0.4)
)
# Identity switches per scene vary by about 16% between layouts; pooling 20
# scenes per run keeps the per-run figure within a few percent.
NOISY_SCENES = 20

DENSE_OBJECTS = 80
DENSE_FRAMES = 20
DENSE_ARENA = (100.0, 100.0)

# train4's set-up runs one short training call first: the first training call
# in a process runs about 10% slower than later ones, and train4 times the
# calls after it.
WARMUP_STEPS = 50
# train4's set-up takes about 3 s and varies by a quarter between runs, so it
# runs three times and reports the median.  The tracking workloads' set-up
# trains the model for about 15 s: steady enough once, too long to repeat.
TRAIN4_SETUPS = 3
LOSS_TAIL_ROWS = 50
LAYOUT_TRIES = 20
THREADS = "1"

_SALT = {"paper5_noisy": 1, "dense80": 2, "train4": 3}


def derived_seed(seed: int, workload: str, index: int) -> int:
    """An independent 32-bit seed per (run seed, workload, scene index)."""
    state = np.random.SeedSequence([seed, _SALT[workload], index])
    return int(state.generate_state(1)[0])


@dataclass
class Scene:
    name: str
    root: Path
    frames: int
    gt_rows: int
    layout_tries: int


@dataclass
class Phase:
    """What one measured phase saw: timings, eval reports and output bytes."""

    track_calls: list = field(default_factory=list)   # (frames, seconds)
    train_calls: list = field(default_factory=list)   # (steps, seconds)
    reports: dict = field(default_factory=dict)       # scene name -> eval JSON
    outputs: dict = field(default_factory=dict)       # output key -> bytes
    loss_tail: float | None = None
    units: int = 0


BENCH = Path(__file__).resolve().parent
# Runs run_cli in a fresh interpreter and prints its result as JSON.
_CHILD = (
    "import json, sys; sys.path[:0] = json.loads(sys.argv[1]); "
    "from workloads import run_cli; print(json.dumps(run_cli(json.loads(sys.argv[2]))))"
)


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, captured stdout and wall seconds of one in-process call."""
    buf = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.run(argv)
        except Exception:
            # the exit code an uncaught exception gives the real CLI process
            traceback.print_exc()
            code = 1
    return code, buf.getvalue(), time.perf_counter() - started


class Cli:
    """Runs CLI commands and keeps the operation tally."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call(self, argv: list[str], in_child: bool = False) -> tuple[bool, str, float]:
        """(exit code was 0, captured stdout, wall seconds) of one call.

        in_child runs the call in a fresh interpreter, timed there the same
        way, and waits for that process to end.
        """
        self.attempted += 1
        if in_child:
            paths = [str(BENCH), str(BENCH.parent / "src")]
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, json.dumps(paths), json.dumps(argv)],
                stdout=subprocess.PIPE, text=True,
            )
            try:
                code, out, seconds = json.loads(proc.stdout)
            except ValueError:
                code, out, seconds = proc.returncode or 1, proc.stdout, 0.0
        else:
            code, out, seconds = run_cli(argv)
        if code != 0:
            self.fail(f"exit {code}: cloudtrack {' '.join(argv)}")
        return code == 0, out, seconds


def lay_out(cfg: SynthConfig, root: Path, name: str):
    """Generate cfg, moving to the next seed while the objects do not fit.

    The retries depend only on cfg.seed, so a seed always gives the same
    scene.  Returns the Scene and the opened sequence.
    """
    for attempt in range(LAYOUT_TRIES):
        try:
            src = generate(
                SynthConfig(
                    n_objects=cfg.n_objects, n_frames=cfg.n_frames,
                    seed=cfg.seed + attempt, arena=cfg.arena, events=cfg.events,
                ),
                root,
            )
        except RuntimeError:
            continue
        gt_rows = len((root / GT_TRACKS_NAME).read_text().splitlines()) - 1
        return Scene(name, root, src.frame_count, gt_rows, attempt + 1), src
    raise RuntimeError(f"{name}: no layout in {LAYOUT_TRIES} seeds from {cfg.seed}")


def loss_tail(log_path: Path) -> float:
    """Mean total loss over the last LOSS_TAIL_ROWS rows of a loss log."""
    tail = log_path.read_text().splitlines()[1:][-LOSS_TAIL_ROWS:]
    return sum(float(row.rsplit(",", 1)[1]) for row in tail) / len(tail)


class Workload:
    """Set-up plus a repeatable measured unit for one named workload."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.work = work
        self.cli = Cli()
        self.scenes: list[Scene] = []
        self.weights = work / "model.bin"
        self.setup_train: tuple | None = None   # (steps, seconds, loss tail)

    def setup(self) -> float:
        """Median seconds of set-up; train4 sets up TRAIN4_SETUPS times."""
        repeats = TRAIN4_SETUPS if self.name == "train4" else 1
        return statistics.median(self._setup_once() for _ in range(repeats))

    def _setup_once(self) -> float:
        """Build the inputs and, for tracking workloads, train the model."""
        self.scenes = []
        started = time.perf_counter()
        scenes = self.work / "scenes"
        if self.name == "dense80":
            cfg = SynthConfig(
                DENSE_OBJECTS, DENSE_FRAMES, arena=DENSE_ARENA,
                seed=derived_seed(self.seed, self.name, 0),
            )
            self.scenes = [lay_out(cfg, scenes / "dense", "dense")[0]]
        else:
            for k in range(NOISY_SCENES):
                cfg = SynthConfig(
                    5, 30, seed=derived_seed(self.seed, self.name, k),
                    events=PAPER5_EVENTS,
                )
                scene, src = lay_out(cfg, scenes / f"clean{k}", f"scene{k}")
                scene.root = scenes / f"noisy{k}"
                perturb(src, seed=cfg.seed, out_dir=scene.root, **PAPER5_NOISE)
                self.scenes.append(scene)
        generate(MODEL_SCENE, scenes / "model")
        log = self.work / "setup_loss.csv"
        if self.name == "train4":
            self._train(self.weights, log, WARMUP_STEPS)
        else:
            ok, seconds = self._train(self.weights, log, MODEL_STEPS, in_child=True)
            if ok:
                self.setup_train = (MODEL_STEPS, seconds, loss_tail(log))
        return time.perf_counter() - started

    def _train(
        self, weights: Path, log: Path, steps: int, in_child: bool = False
    ) -> tuple[bool, float]:
        ok, out, seconds = self.cli.call([
            "train", "--seq", str(self.work / "scenes" / "model"),
            "--out", str(weights), "--log", str(log),
            "--steps", str(steps), "--batch-pairs", str(MODEL_BATCH_PAIRS),
            "--seed", str(MODEL_SEED), "--threads", THREADS,
        ], in_child)
        if not ok:
            return False, seconds
        rows = len(log.read_text().splitlines()) - 1
        if not out.startswith(f"weights={weights} steps={steps} "):
            self.cli.fail(f"train printed {out!r}")
            return False, seconds
        if rows != steps or not np.isfinite(loss_tail(log)):
            self.cli.fail(f"train log {log}: {rows} rows or a non-finite loss")
            return False, seconds
        return True, seconds

    def _track_and_eval(self, scene: Scene, phase: Phase) -> None:
        out_csv = self.work / f"tracks-{scene.name}.csv"
        ok, out, seconds = self.cli.call([
            "track", "--seq", str(scene.root), "--weights", str(self.weights),
            "--out", str(out_csv), "--threads", THREADS,
        ])
        if not ok:
            return
        if not out.startswith(f"out={out_csv} frames={scene.frames} "):
            self.cli.fail(f"track on {scene.name} printed {out!r}")
            return
        phase.track_calls.append((scene.frames, seconds))
        self._same_bytes(phase, f"tracks/{scene.name}", out_csv)
        ok, out, _ = self.cli.call([
            "eval", "--gt", str(scene.root / GT_TRACKS_NAME), "--pred", str(out_csv),
        ])
        if not ok:
            return
        try:
            report = json.loads(out[out.index("{"):])
        except ValueError:
            self.cli.fail(f"eval of {out_csv} printed no JSON report")
            return
        if report.get("gt_count") != scene.gt_rows:
            self.cli.fail(
                f"eval of {out_csv}: gt_count {report.get('gt_count')} "
                f"!= {scene.gt_rows} ground-truth rows"
            )
            return
        phase.reports.setdefault(scene.name, report)

    def _same_bytes(self, phase: Phase, key: str, path: Path) -> None:
        data = path.read_bytes()
        if data != phase.outputs.setdefault(key, data):
            self.cli.fail(f"{key}: output differs from the run's first")

    def _unit(self, phase: Phase) -> None:
        """One repetition of the workload's measured work."""
        if self.name != "train4":
            for scene in self.scenes:
                self._track_and_eval(scene, phase)
            return
        log = self.work / "train4_loss.csv"
        ok, seconds = self._train(self.weights, log, MODEL_STEPS)
        if ok:
            phase.train_calls.append((MODEL_STEPS, seconds))
            self._same_bytes(phase, "weights", self.weights)
            self._same_bytes(phase, "loss_log", log)
            phase.loss_tail = loss_tail(log)

    def measure(self, budget: float, min_units: int) -> Phase:
        """Repeat the unit for budget seconds and at least min_units times.

        train4 spends three quarters of the budget training, then tracks its
        scenes once with the weights it trained.
        """
        phase = Phase()
        share = 0.75 if self.name == "train4" else 1.0
        started = time.perf_counter()
        while phase.units < min_units or time.perf_counter() - started < share * budget:
            failed = len(self.cli.failures)
            self._unit(phase)
            phase.units += 1
            if len(self.cli.failures) > failed:
                break
        if self.name == "train4":
            if phase.train_calls:
                for scene in self.scenes:
                    self._track_and_eval(scene, phase)
        elif self.setup_train is not None:
            phase.loss_tail = self.setup_train[2]
        return phase

    def compare(self, reference: Phase, other: Phase) -> None:
        """Every output of other must match reference byte for byte."""
        for key, data in other.outputs.items():
            if reference.outputs.get(key) != data:
                self.cli.fail(f"{key}: traced output differs from the untraced one")
