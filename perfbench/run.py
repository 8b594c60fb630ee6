#!/usr/bin/env python3
"""keytrack pipeline benchmark: end-to-end frame metrics, or a traced run.

Run every workload untraced, one process each::

    python3 perfbench/run.py

Run one workload::

    python3 perfbench/run.py --workload sparse_maps --seed 7 --seconds 10 --trace 0

With ``--trace 0`` the run measures frames with nothing wrapped and
reports the end-to-end metrics; with ``--trace 1`` it measures half its
time untraced and half traced, and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A run that
prints it exits 0, also when ``correct`` is false; a run that cannot
measure exits non-zero and prints no result.  The package is
imported from ``src/`` beside this directory, and scratch files go to
``.perfbench_work/`` there and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sparse_maps", "dense_files", "crowd_track")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: every workload, untraced)")
    parser.add_argument("--seed", type=int, default=None,
                        help="scene seed, 0 or more (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be 0 or more")
    return args


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def show(name: str, value, unit: str) -> None:
    print(f"  {name:<34} {value:>14.6g} {unit}")


def untraced_run(pipeline, scene, timings, seconds: float) -> int:
    tail = pipeline.TAIL_PERCENT
    phase = pipeline.run_phase(
        scene, pipeline.NullTracer(), seconds,
        min_frames=pipeline.min_samples(tail), full_pass=True,
    )
    for problem in phase.problems:
        print(f"failed {problem}", file=sys.stderr)
    if not phase.latencies:
        print("error: no frame completed", file=sys.stderr)
        return 1
    values = {
        "frames_per_s": phase.frames / sum(phase.latencies),
        "frame_ms_p50": statistics.median(phase.latencies) * 1e3,
        f"frame_ms_p{tail}": pipeline.nearest_rank(phase.latencies, tail) * 1e3,
        "setup_s": timings["setup_s"],
        "peak_rss_mb": pipeline.peak_rss_mb(),
        **pipeline.quality(scene, phase.first_pass),
    }
    counts = phase.counts
    print(f"  frames {phase.frames} ok of {phase.attempted} attempted; "
          f"p{tail} has {pipeline.beyond_rank(phase.frames, tail)} samples beyond it")
    for name, unit in pipeline.END_TO_END.items():
        if values[name] is not None:
            show(name, values[name], unit)
    show("ids_per_animal", values["ids_per_animal"], "ratio")
    show("failed_frame_share", phase.failed / phase.attempted, "share")
    if counts["prob_cells"]:
        show("maps.nonzero_share", counts["prob_nonzero"] / counts["prob_cells"], "share")
    if scene.workload.files:
        show("ktm_mb_per_frame", counts["ktm_bytes"] / phase.frames / 1e6, "MB")
    correct = (
        phase.failed == 0
        and None not in values.values()
        and values["track_recovery"] >= pipeline.MIN_TRACK_RECOVERY
        and values["track_rel_err"] <= pipeline.MAX_TRACK_REL_ERR
    )
    if not correct:
        print("error: output check failed", file=sys.stderr)
    emit(correct, phase.attempted, phase.failed, values, pipeline.END_TO_END)
    return 0


def traced_run(pipeline, scene, timings, seconds: float) -> int:
    untraced = pipeline.run_phase(scene, pipeline.NullTracer(), seconds / 2)
    traced, tracer, unmeasured = pipeline.traced_phase(scene, seconds / 2)
    for problem in untraced.problems + traced.problems:
        print(f"failed {problem}", file=sys.stderr)
    if not (untraced.latencies and traced.latencies):
        print("error: no frame completed", file=sys.stderr)
        return 1
    evaluated = time.perf_counter()
    ids_per_animal = pipeline.quality(scene, traced.first_pass)["ids_per_animal"]
    evaluate_s = time.perf_counter() - evaluated
    bench, missing = pipeline.kernel_microbench()
    values = {
        **pipeline.layer_metrics(traced, tracer, untraced),
        **bench,
        "simulate.generate_s": timings["generate_s"],
        "simulate.corrupt_s": timings["corrupt_s"],
        "metrics.evaluate_s": evaluate_s,
        "keysort.ids_per_animal": ids_per_animal,
    }
    print(f"  frames {untraced.frames} untraced, {traced.frames} traced")
    uncounted = [name for name in tracer.counts if name.endswith(".uncounted")]
    if unmeasured or missing or uncounted:
        print(f"  unmeasured (reported as 0): {', '.join(unmeasured + missing + uncounted)}")
    for name, unit in pipeline.PER_LAYER.items():
        show(name, values[name], unit)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    emit(failed == 0, attempted, failed, values, pipeline.PER_LAYER)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if not (SRC / "keytrack" / "__init__.py").is_file():
        print(f"error: no keytrack sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline

    workload = pipeline.WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    print(f"workload {workload.name}: {workload.animals} animals, "
          f"{workload.width}x{workload.height}, {workload.frames} frames per pass, "
          f"noise {workload.noise_px} px, dropout {workload.dropout}, seed {seed}, "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        scene, timings = pipeline.repeated_setup(workload, seed, workdir)
        run = traced_run if args.trace else untraced_run
        return run(pipeline, scene, timings, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
