"""cloudtrack benchmark: times the CLI end to end and, traced, layer by layer.

    python3 bench/run.py --workload paper5_noisy --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures once untraced and once with every layer wrapped,
checks that both produce the same bytes, and reports the per-layer metrics.
``--workload all`` runs each workload in its own process, one after another.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files live under
``.bench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name, unit: every workload reports all of them (README.md says where each
# comes from on each workload)
END_TO_END = (
    ("setup_s", "s"),
    ("track_fps", "frames/s"),
    ("train_steps_per_s", "steps/s"),
    ("mota", "ratio"),
    ("id_switches", "count"),
    ("train_loss_tail", "loss"),
    ("peak_rss_mb", "MB"),
)
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "PCDAN_THREADS",
)
# NumPy asks the kernel for transparent huge pages on large arrays; whether it
# gets them depends on the machine's free memory, which made dense80's peak
# RSS jump between about 159 and 209 MB from run to run.  Off, the resident
# set counts the pages the program touches.
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment(threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "threads": int(threads),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        HUGEPAGE_VAR: os.environ.get(HUGEPAGE_VAR, "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(calls) -> float | None:
    """Median of work/seconds over (work, seconds) calls."""
    return statistics.median(n / s for n, s in calls) if calls else None


def end_to_end(workload, phase, setup_s: float) -> dict:
    reports = list(phase.reports.values())
    errors = sum(r["false_neg"] + r["false_pos"] + r["id_switches"] for r in reports)
    gt = sum(r["gt_count"] for r in reports)
    train_calls = phase.train_calls or (
        [workload.setup_train[:2]] if workload.setup_train else []
    )
    return {
        "setup_s": setup_s,
        "track_fps": rate(phase.track_calls),
        "train_steps_per_s": rate(train_calls),
        "mota": 1.0 - errors / gt if gt else None,
        "id_switches": (
            statistics.mean(r["id_switches"] for r in reports) if reports else None
        ),
        "train_loss_tail": phase.loss_tail,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_one(args) -> int:
    import layers
    from tracer import Tracer
    from workloads import THREADS, Workload

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, work)
        setup_s = wl.setup()
        print(f"workload {wl.name}  seed {wl.seed}  trace {args.trace}")
        print("environment " + json.dumps(environment(THREADS), sort_keys=True))
        print(
            f"setup {setup_s:.3f} s: {len(wl.scenes)} scene(s), layout tries "
            f"{[s.layout_tries for s in wl.scenes]}"
        )
        if args.trace == 0:
            phase = wl.measure(args.seconds, min_units=2)
            metrics = end_to_end(wl, phase, setup_s)
            _print_end_to_end(metrics, phase)
        else:
            half = args.seconds / 2.0
            plain = wl.measure(half, min_units=1)
            _print_end_to_end(end_to_end(wl, plain, setup_s), plain)
            with Tracer() as tracer:
                layers.install_all(tracer)
                traced = wl.measure(half, min_units=1)
            wl.compare(plain, traced)
            metrics = layers.layer_metrics(tracer)
            metrics["tracing_overhead.track_fps_pct"] = layers.overhead_pct(
                rate(plain.track_calls), rate(traced.track_calls))
            metrics["tracing_overhead.train_steps_pct"] = layers.overhead_pct(
                rate(plain.train_calls), rate(traced.train_calls))
            _print_layers(tracer, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in wl.cli.failures:
        print(f"FAILED {failure}")
    missing = sorted(name for name, value in metrics.items() if value is None)
    if missing:
        print(f"no value for {', '.join(missing)}")
    units = dict(END_TO_END) if args.trace == 0 else layers.UNITS
    result = {
        "correct": not wl.cli.failures and not missing,
        "attempted": wl.cli.attempted,
        "failed": len(wl.cli.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if value is not None
        },
    }
    print(json.dumps(result))
    return 1 if missing else 0


def _print_end_to_end(metrics: dict, phase) -> None:
    print(f"end-to-end ({phase.units} repetition(s), "
          f"{len(phase.track_calls)} track call(s), "
          f"{len(phase.train_calls)} train call(s)):")
    for name, unit in END_TO_END:
        value = metrics[name]
        print(f"  {name:<20} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    for kind, calls in (("track", phase.track_calls), ("train", phase.train_calls)):
        if len(calls) >= 2:
            q = statistics.quantiles([n / s for n, s in calls], n=4)
            print(f"  {kind} rate over {len(calls)} calls: p25 {q[0]:.6g}, "
                  f"p50 {q[1]:.6g}, p75 {q[2]:.6g}")


def _print_layers(tracer, metrics: dict) -> None:
    import layers

    print(f"per-layer (traced; {len(tracer.spans)} spans, "
          f"{len(tracer.installed)} names wrapped, skipped {tracer.skipped or 'none'}, "
          f"observer failures {tracer.observer_failures or 'none'}):")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:12.6g} {layers.UNITS[name]}")
    times = layers.frame_times_ms(tracer)
    if times:
        print(f"  frame tail is p{layers.tail_percentile(len(times)):g} "
              f"of {len(times)} frames")
    children = tracer.children()
    totals: dict[str, float] = {}
    for index, span in enumerate(tracer.spans):
        totals[span.name] = totals.get(span.name, 0.0) + tracer.self_time(index, children)
    print("self time by span, seconds:")
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {seconds:10.4f}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            merged["correct"] = False
            code = 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        code = code or proc.returncode
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cloudtrack").is_dir():
        print(f"error: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ[HUGEPAGE_VAR] = "0"  # before NumPy is first imported
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
