"""Workloads, per-frame pipelines, output checks and metric arithmetic.

Every workload is a closed loop with one client: the next frame enters
the pipeline only after the previous one has left it, which is both how
offline batch runs and how a live camera feeding ``KeySortTracker.step``
use the package.  A pass runs the scene's frames in order with a fresh
tracker; a run repeats passes until its time is up, and track quality is
scored on the first pass only, so it does not depend on speed.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from keytrack import assembly, io, kernels, keysort, maps, metrics, simulate
from keytrack.keysort import KeySortTracker, TrackOutput
from keytrack.skeleton import Pose, SkeletonSpec

from spans import NullTracer, Target, Tracer, instrumented

SETUP_REPEATS = 7
TAIL_PERCENT = 80
TAIL_MIN_BEYOND = 10
# A decoded candidate farther than the decoder's own suppression radius
# from every encoded keypoint of its category cannot be that keypoint's peak.
CANDIDATE_TOLERANCE_PX = maps.DEFAULT_NMS_RADIUS
# Floors that only gross breakage crosses; regressions are the bounds' job.
MIN_TRACK_RECOVERY = 0.5
MAX_TRACK_REL_ERR = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    animals: int
    width: int
    height: int
    frames: int
    seed: int
    maps: bool  # frames go through the map codec and assembly
    files: bool  # detections, map stacks and tracks go through files
    margin: float = 130.0
    min_separation: float = 75.0
    velocity: tuple[float, float] = (1.0, 0.5)
    noise_px: float = 2.0
    dropout: float = 0.1

    def scenario(self, seed: int) -> simulate.ScenarioConfig:
        # walk out and back so every keypoint stays inside the image
        half = self.frames // 2
        back = (-self.velocity[0], -self.velocity[1])
        return simulate.ScenarioConfig(
            n_animals=self.animals,
            width=self.width,
            height=self.height,
            seed=seed,
            margin=self.margin,
            min_separation=self.min_separation,
            regimes=(
                simulate.RegimeSegment("walking", half, velocity=self.velocity),
                simulate.RegimeSegment("walking", self.frames - half, velocity=back),
            ),
            detection_noise=self.noise_px,
            dropout=self.dropout,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_maps",
            why="3 animals on 960x720 maps about 2% nonzero: the map codec does "
            "almost all the work, so codec changes show and tracker changes do not",
            animals=3, width=960, height=720, frames=100, seed=101,
            maps=True, files=False,
        ),
        Workload(
            name="dense_files",
            why="12 animals run as the CLI runs, through detection, map and track "
            "files: denser maps, 14x the assembly work and map-file I/O",
            animals=12, width=960, height=720, frames=50, seed=202,
            maps=True, files=True,
        ),
        Workload(
            name="crowd_track",
            why="30 animals in a 4000x4000 arena fed straight to the tracker: "
            "KeySORT, Kalman and Hungarian do the work and the codec is bypassed",
            animals=30, width=4000, height=4000, frames=300, seed=303,
            maps=False, files=False, margin=400.0, velocity=(2.0, 1.0),
        ),
    )
}


# ---------------------------------------------------------------------------
# percentiles


def nearest_rank(values: list[float], percent: int) -> float:
    """The smallest value with at least ``percent`` % of values at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = (percent * len(ordered) + 99) // 100
    return ordered[max(rank, 1) - 1]


def beyond_rank(count: int, percent: int) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - (percent * count + 99) // 100


def min_samples(percent: int, beyond: int = TAIL_MIN_BEYOND) -> int:
    """Fewest samples for which ``beyond`` of them lie past the percentile."""
    count = 1
    while beyond_rank(count, percent) < beyond:
        count += 1
    return count


# ---------------------------------------------------------------------------
# scenes and per-frame pipelines


@dataclass
class Scene:
    workload: Workload
    spec: SkeletonSpec
    truth: dict[int, list[Pose]]
    detections: dict[int, list[Pose]]
    workdir: Path
    header: io.StreamHeader

    def new_tracker(self) -> KeySortTracker:
        return KeySortTracker(self.spec, np.ones(len(self.spec.categories)))

    def detection_path(self, frame_index: int) -> Path:
        return self.workdir / f"det_{frame_index:06d}.jsonl"

    @property
    def map_path(self) -> Path:
        return self.workdir / "frame.ktm"

    @property
    def track_path(self) -> Path:
        return self.workdir / "tracks.jsonl"


@dataclass
class FrameResult:
    inputs: list[Pose]  # poses handed to the tracker
    output: TrackOutput
    encoded: Optional[list[Pose]] = None
    stack: Optional[maps.MapStack] = None
    candidates: Optional[list[maps.CandidateKeypoint]] = None
    live_before: Optional[int] = None
    live_after: Optional[int] = None


def _live(tracker) -> Optional[int]:
    tracklets = getattr(tracker, "tracklets", None)
    return None if tracklets is None else len(tracklets)


def _track(tracker, tracer, poses: list[Pose], frame_index: int) -> FrameResult:
    before = _live(tracker)
    with tracer.span("keysort.step"):
        output = tracker.step(poses, frame_index)
    return FrameResult(inputs=poses, output=output, live_before=before, live_after=_live(tracker))


def run_frame(scene: Scene, tracker, tracer, frame_index: int) -> FrameResult:
    """Push one frame through every stage of the scene's workload."""
    workload = scene.workload
    if not workload.maps:
        return _track(tracker, tracer, scene.detections[frame_index], frame_index)

    spec = scene.spec
    if workload.files:
        with tracer.span("io.load_detections"):
            _, frames, _ = io.load_detections(str(scene.detection_path(frame_index)))
        encoded = frames[frame_index]
    else:
        encoded = scene.detections[frame_index]
    with tracer.span("maps.encode"):
        stack = maps.encode(encoded, spec, workload.width, workload.height)
    if workload.files:
        with tracer.span("maps.save"):
            maps.save_maps(stack, str(scene.map_path))
        with tracer.span("maps.load"):
            stack = maps.load_maps(str(scene.map_path))
    with tracer.span("maps.decode"):
        candidates = maps.decode_candidates(stack.prob)
    with tracer.span("assembly.assemble"):
        skeletons = assembly.assemble(candidates, stack, spec)
    poses = [Pose(coords=dict(s.coords), frame_index=frame_index) for s in skeletons]
    result = _track(tracker, tracer, poses, frame_index)
    if workload.files:
        with tracer.span("io.save_tracks"):
            io.save_tracks(str(scene.track_path), scene.header, [result.output])
    result.encoded = encoded
    result.stack = stack
    result.candidates = candidates
    return result


def setup(workload: Workload, seed: int, workdir: Path) -> tuple[Scene, dict[str, float]]:
    """Build one scene: simulate, corrupt, write inputs, warm up one frame."""
    spec = io.default_skeleton()
    config = workload.scenario(seed)
    start = time.perf_counter()
    truth = simulate.generate(spec, config)
    generated = time.perf_counter()
    detections = simulate.corrupt(truth, spec, config)
    corrupted = time.perf_counter()
    header = io.StreamHeader(skeleton=spec.name, width=workload.width, height=workload.height)
    scene = Scene(workload, spec, truth.poses_by_frame(), detections, workdir, header)
    if workload.files:
        for frame_index, poses in detections.items():
            io.save_detections(str(scene.detection_path(frame_index)), header, {frame_index: poses})
    run_frame(scene, scene.new_tracker(), NullTracer(), min(detections))
    done = time.perf_counter()
    return scene, {
        "setup_s": done - start,
        "generate_s": generated - start,
        "corrupt_s": corrupted - generated,
    }


def repeated_setup(workload: Workload, seed: int, workdir: Path) -> tuple[Scene, dict[str, float]]:
    """Set up ``SETUP_REPEATS`` times; median of each timing, last scene kept."""
    samples: dict[str, list[float]] = {}
    for _ in range(SETUP_REPEATS):
        scene, timings = setup(workload, seed, workdir)
        for key, value in timings.items():
            samples.setdefault(key, []).append(value)
    return scene, {key: statistics.median(values) for key, values in samples.items()}


# ---------------------------------------------------------------------------
# output checks


def _key(pose: Pose, categories) -> tuple:
    return tuple(pose.get(c) for c in categories)


def far_candidates(
    candidates: list[maps.CandidateKeypoint],
    encoded: list[Pose],
    width: int,
    height: int,
) -> int:
    """Candidates farther than the tolerance from every encoded keypoint of their category."""
    targets: dict[str, list[tuple[float, float]]] = {}
    for pose in encoded:
        for category, xy in pose.coords.items():
            if xy is not None and 0.0 <= xy[0] < width and 0.0 <= xy[1] < height:
                targets.setdefault(category, []).append(xy)
    far = 0
    for cand in candidates:
        points = targets.get(cand.category)
        if not points:
            far += 1
            continue
        d = np.hypot(*(np.asarray(points) - (cand.x, cand.y)).T)
        far += int(d.min() > CANDIDATE_TOLERANCE_PX)
    return far


def check_frame(scene: Scene, frame_index: int, result: FrameResult, far: int) -> list[str]:
    """Problems with one frame's output; an empty list means it passed.

    ``far`` is the frame's count of decoded candidates far from every
    encoded keypoint (see :func:`far_candidates`).
    """
    problems = []
    output = result.output
    if output.frame_index != frame_index:
        problems.append(f"frame_index {output.frame_index} != {frame_index}")
    ids = [r.tracklet_id for r in output.records]
    if any(a >= b for a, b in zip(ids, ids[1:])):
        problems.append("records not sorted by unique tracklet id")
    categories = scene.spec.categories
    emitted = Counter(_key(r.observed, categories) for r in output.records)
    if emitted != Counter(_key(p, categories) for p in result.inputs):
        problems.append("records do not match the input poses one to one")
    for record in output.records:
        for xy in record.posterior.coords.values():
            if xy is not None and not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                problems.append(f"tracklet {record.tracklet_id} has a non-finite posterior")
                break
    if far:
        problems.append(f"{far} decoded candidates far from every encoded keypoint")
    return problems


# ---------------------------------------------------------------------------
# the measured loop


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_pass: list[TrackOutput] = field(default_factory=list)
    first_pass_done: bool = False
    counts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return len(self.latencies)


def _account(phase: Phase, scene: Scene, result: FrameResult, far: int, seen: set[int]) -> None:
    """Per-frame counters, taken outside the timed region."""
    counts = phase.counts
    ids = {r.tracklet_id for r in result.output.records}
    born = len(ids - seen)
    seen |= ids
    counts["poses"] += len(result.inputs)
    counts["born"] += born
    counts["imputed"] += sum(len(r.imputed) for r in result.output.records)
    if result.live_before is not None and result.live_after is not None:
        counts["ended"] += result.live_before + born - result.live_after
        counts["ended_frames"] += 1
    if result.stack is not None:
        prob = list(result.stack.prob.values())
        counts["prob_cells"] += sum(g.size for g in prob)
        counts["prob_nonzero"] += sum(int(np.count_nonzero(g)) for g in prob)
        grids = prob + list(result.stack.assoc.values())
        counts["stack_bytes"] += sum(g.nbytes for g in grids)
        counts["stack_frames"] += 1
        roots = sum(1 for c in result.candidates if c.category == scene.spec.root)
        counts["candidates"] += len(result.candidates)
        counts["far"] += far
        counts["roots"] += roots
        counts["skeletons"] += len(result.inputs)
    if scene.workload.files:
        counts["ktm_bytes"] += scene.map_path.stat().st_size


def _attempt(phase: Phase, scene: Scene, tracker, tracer, frame_index: int,
             seen: set[int], frame_fn: Callable) -> Optional[TrackOutput]:
    """Time one frame, then count and check it; ``None`` if it failed."""
    phase.attempted += 1
    began = time.perf_counter()
    try:
        result = frame_fn(scene, tracker, tracer, frame_index)
    except Exception:
        phase.failed += 1
        phase.problems.append(f"frame {frame_index}: {traceback.format_exc(limit=3)}")
        return None
    ended = time.perf_counter()
    far = 0
    if result.candidates is not None:
        far = far_candidates(
            result.candidates, result.encoded, scene.workload.width, scene.workload.height
        )
    _account(phase, scene, result, far, seen)
    problems = check_frame(scene, frame_index, result, far)
    if problems:
        phase.failed += 1
        phase.problems.append(f"frame {frame_index}: " + "; ".join(problems))
        return None
    phase.latencies.append(ended - began)
    return result.output


def run_phase(
    scene: Scene,
    tracer,
    seconds: float,
    min_frames: int = 1,
    full_pass: bool = False,
    frame_fn: Callable = run_frame,
) -> Phase:
    """Run frames until ``seconds`` have passed and ``min_frames`` completed.

    With ``full_pass`` the first pass is always finished, so the track
    quality it is scored on covers the whole scene.  A frame that raises
    or fails its check counts as failed and the run goes on.
    """
    order = sorted(scene.detections)
    phase = Phase()
    tracker = None
    seen: set[int] = set()
    position = 0
    start = time.perf_counter()
    while not (
        time.perf_counter() - start >= seconds
        and phase.frames >= min_frames
        and (phase.first_pass_done or not full_pass)
    ):
        if position == 0:
            tracker = scene.new_tracker()
            seen = set()
        frame_index = order[position]
        position = (position + 1) % len(order)
        output = _attempt(phase, scene, tracker, tracer, frame_index, seen, frame_fn)
        if output is not None and not phase.first_pass_done:
            phase.first_pass.append(output)
        if position == 0:
            phase.first_pass_done = True
    return phase


def quality(scene: Scene, outputs: list[TrackOutput]) -> dict[str, Optional[float]]:
    """Recovery, posterior error and identity count against the simulated truth."""
    scored = {out.frame_index for out in outputs}
    truth = {i: poses for i, poses in scene.truth.items() if i in scored}
    report, _ = metrics.evaluate_tracks(truth, outputs, scene.spec)
    errors = [s for s in report.relative_error.values() if s.count]
    weight = sum(s.count for s in errors)
    ids = {r.tracklet_id for out in outputs for r in out.records}
    return {
        "track_recovery": report.eta_overall,
        "track_rel_err": sum(s.mean * s.count for s in errors) / weight if weight else None,
        "ids_per_animal": len(ids) / scene.workload.animals,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run: what to wrap, and per-layer metrics


def _window_cells(shape, cx, cy, sigma, extent) -> int:
    height, width = shape
    reach = extent * sigma
    x0 = max(0, math.ceil(cx - reach))
    x1 = min(width - 1, math.floor(cx + reach))
    y0 = max(0, math.ceil(cy - reach))
    y1 = min(height - 1, math.floor(cy + reach))
    return max(0, x1 - x0 + 1) * max(0, y1 - y0 + 1)


def splat_bytes(arrays: int, grid, cx, cy, sigma, extent) -> int:
    """Bytes read plus written by a kernel that updates a window of each array."""
    return 2 * arrays * grid.itemsize * _window_cells(grid.shape, cx, cy, sigma, extent)


KERNEL_BYTES = {
    "gaussian_max": lambda args, result: splat_bytes(1, *args[:5]),
    "assoc_accumulate": lambda args, result: splat_bytes(3, args[0], *args[3:7]),
    "box_mean": lambda args, result: args[0].nbytes + result.nbytes,
    "local_max_mask": lambda args, result: args[0].nbytes + result.nbytes,
}


def _bytes_counter(name: str) -> Callable:
    def counter(tracer, args, result):
        tracer.count(f"kernels.{name}.bytes", KERNEL_BYTES[name](args, result))

    return counter


def _matches(tracer, args, result) -> None:
    rows, cols = np.shape(args[0])
    tracer.count("assignment.possible", min(rows, cols))
    tracer.count("assignment.matched", len(result))


KERNELS = ("gaussian_max", "assoc_accumulate", "box_mean", "local_max_mask")

TARGETS = [
    *(Target("kernels", k, f"kernels.{k}", _bytes_counter(k)) for k in KERNELS),
    Target("assembly", "association_penalty", "assembly.association_penalty"),
    Target("assembly", "greedy_assign", "assignment.greedy_assign", _matches),
    Target("keysort", "psi", "keysort.psi"),
    Target("keysort", "hungarian", "assignment.hungarian", _matches),
    Target("keysort", "predict", "kalman.predict"),
    Target("keysort", "update_adaptive", "kalman.update_adaptive"),
]
MODULES = {"kernels": kernels, "assembly": assembly, "keysort": keysort}

LAYERS = {
    "maps": ("maps.encode", "maps.decode", "maps.save", "maps.load"),
    "kernels": tuple(f"kernels.{k}" for k in KERNELS),
    "assembly": ("assembly.assemble", "assembly.association_penalty"),
    "assignment": ("assignment.greedy_assign", "assignment.hungarian"),
    "keysort": ("keysort.step", "keysort.psi"),
    "kalman": ("kalman.predict", "kalman.update_adaptive"),
    "io": ("io.load_detections", "io.save_tracks"),
}


def traced_phase(scene: Scene, seconds: float) -> tuple[Phase, Tracer, list[str]]:
    tracer = Tracer()
    with instrumented(tracer, TARGETS, MODULES) as unmeasured:
        phase = run_phase(scene, tracer, seconds)
    return phase, tracer, unmeasured


def kernel_microbench() -> tuple[dict[str, float], list[str]]:
    """The kernel microbenchmark's four jobs, on the kernels that actually run.

    960x720 float64 grids; 100 splats of sigma 12 px (extent 3, cutoff
    0.2) for the splat kernels, a random grid for the filters.  Returns the
    median ms of 5 timed repeats and the computed MB moved of each job, and
    the kernels that no longer exist.
    """
    width, height, splats, sigma, extent, cutoff = 960, 720, 100, 12.0, 3.0, 0.2
    rng = np.random.default_rng(7)
    xs = rng.uniform(sigma * 4, width - sigma * 4, splats)
    ys = rng.uniform(sigma * 4, height - sigma * 4, splats)
    dxs = rng.uniform(-80.0, 80.0, splats)
    dys = rng.uniform(-80.0, 80.0, splats)
    noise_grid = rng.random((height, width))

    def gaussian_job(fn):
        grid = np.zeros((height, width))
        for x, y in zip(xs, ys):
            fn(grid, x, y, sigma, extent)

    def assoc_job(fn):
        wsum, num_x, num_y = (np.zeros((height, width)) for _ in range(3))
        for x, y, dx, dy in zip(xs, ys, dxs, dys):
            fn(wsum, num_x, num_y, x, y, sigma, extent, cutoff, dx, dy)

    def splat_mb(arrays):
        return sum(splat_bytes(arrays, noise_grid, x, y, sigma, extent) for x, y in zip(xs, ys)) / 1e6

    jobs = {
        "gaussian_max": (gaussian_job, splat_mb(1)),
        "assoc_accumulate": (assoc_job, splat_mb(3)),
        "box_mean": (lambda fn: fn(noise_grid, 2), 2 * noise_grid.nbytes / 1e6),
        "local_max_mask": (lambda fn: fn(noise_grid, 0.4), (noise_grid.nbytes + noise_grid.size) / 1e6),
    }
    values: dict[str, float] = {}
    missing: list[str] = []
    for name, (job, mb) in jobs.items():
        fn = getattr(kernels, name, None)
        times = []
        if callable(fn):
            job(fn)  # warm-up
            for _ in range(5):
                start = time.perf_counter()
                job(fn)
                times.append(time.perf_counter() - start)
        else:
            missing.append(f"kernels.{name}")
        values[f"kernels.{name}.bench_ms"] = statistics.median(times) * 1e3 if times else 0.0
        values[f"kernels.{name}.bench_mb_computed"] = mb if times else 0.0
    return values, missing


def layer_metrics(phase: Phase, tracer: Tracer, untraced: Phase) -> dict[str, float]:
    """Per-frame self times, counts and ratios from one traced phase."""
    frames = max(phase.frames, 1)
    counts = phase.counts
    calls = tracer.calls
    self_ms = {name: value * 1e3 / frames for name, value in tracer.self_s.items()}

    def ms(name):
        return self_ms.get(name, 0.0)

    def per_frame(value):
        return value / frames

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "maps.encode_ms": ms("maps.encode"),
        "maps.decode_ms": ms("maps.decode"),
        "maps.save_ms": ms("maps.save"),
        "maps.load_ms": ms("maps.load"),
        "maps.stack_mb": share(counts["stack_bytes"], counts["stack_frames"]) / 1e6,
        "maps.ktm_bytes": per_frame(counts["ktm_bytes"]),
        "maps.nonzero_share": share(counts["prob_nonzero"], counts["prob_cells"]),
        "maps.candidates": per_frame(counts["candidates"]),
        "maps.candidate_precision": share(counts["candidates"] - counts["far"], counts["candidates"]),
        "assembly.assemble_ms": ms("assembly.assemble"),
        "assembly.penalty_ms": ms("assembly.association_penalty"),
        "assembly.penalty_evals": per_frame(calls["assembly.association_penalty"]),
        "assembly.kept_share": share(counts["skeletons"], counts["roots"]),
        "assignment.greedy_calls": per_frame(calls["assignment.greedy_assign"]),
        "assignment.greedy_ms": ms("assignment.greedy_assign"),
        "assignment.hungarian_calls": per_frame(calls["assignment.hungarian"]),
        "assignment.hungarian_ms": ms("assignment.hungarian"),
        "assignment.match_share": share(
            tracer.counts["assignment.matched"], tracer.counts["assignment.possible"]
        ),
        "keysort.step_ms": ms("keysort.step"),
        "keysort.step_us_per_pose": share(tracer.total_s["keysort.step"] * 1e6, counts["poses"]),
        "keysort.psi_calls": per_frame(calls["keysort.psi"]),
        "keysort.psi_ms": ms("keysort.psi"),
        "keysort.tracklets_born": per_frame(counts["born"]),
        "keysort.tracklets_ended": share(counts["ended"], counts["ended_frames"]),
        "keysort.imputed_keypoints": per_frame(counts["imputed"]),
        "kalman.predict_calls": per_frame(calls["kalman.predict"]),
        "kalman.predict_ms": ms("kalman.predict"),
        "kalman.update_calls": per_frame(calls["kalman.update_adaptive"]),
        "kalman.update_ms": ms("kalman.update_adaptive"),
        "io.load_detections_ms": ms("io.load_detections"),
        "io.save_tracks_ms": ms("io.save_tracks"),
    }
    for name in KERNELS:
        span = f"kernels.{name}"
        out[f"{span}.calls"] = per_frame(calls[span])
        out[f"{span}.ms"] = ms(span)
        out[f"{span}.mb_computed"] = per_frame(tracer.counts[f"{span}.bytes"]) / 1e6
    busy_s = sum(phase.latencies)
    for layer, spans in LAYERS.items():
        out[f"{layer}.frame_share"] = share(sum(ms(s) for s in spans) * frames, busy_s * 1e3)
    out["trace.unattributed_ms"] = (busy_s - tracer.top_level_s) * 1e3 / frames
    out["trace.overhead_share"] = (
        statistics.median(phase.latencies) / statistics.median(untraced.latencies) - 1.0
    )
    return out


END_TO_END = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p80": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "track_recovery": "share",
    "track_rel_err": "ratio",
}

PER_LAYER = {
    "maps.encode_ms": "ms/frame",
    "maps.decode_ms": "ms/frame",
    "maps.save_ms": "ms/frame",
    "maps.load_ms": "ms/frame",
    "maps.stack_mb": "MB/frame",
    "maps.ktm_bytes": "B/frame",
    "maps.nonzero_share": "share",
    "maps.candidates": "count/frame",
    "maps.candidate_precision": "share",
    **{
        f"kernels.{k}.{metric}": unit
        for k in KERNELS
        for metric, unit in (
            ("calls", "count/frame"),
            ("ms", "ms/frame"),
            ("mb_computed", "MB/frame"),
            ("bench_ms", "ms"),
            ("bench_mb_computed", "MB"),
        )
    },
    "assembly.assemble_ms": "ms/frame",
    "assembly.penalty_ms": "ms/frame",
    "assembly.penalty_evals": "count/frame",
    "assembly.kept_share": "share",
    "assignment.greedy_calls": "count/frame",
    "assignment.greedy_ms": "ms/frame",
    "assignment.hungarian_calls": "count/frame",
    "assignment.hungarian_ms": "ms/frame",
    "assignment.match_share": "share",
    "keysort.step_ms": "ms/frame",
    "keysort.step_us_per_pose": "us/pose",
    "keysort.psi_calls": "count/frame",
    "keysort.psi_ms": "ms/frame",
    "keysort.tracklets_born": "count/frame",
    "keysort.tracklets_ended": "count/frame",
    "keysort.imputed_keypoints": "count/frame",
    "keysort.ids_per_animal": "ratio",
    "kalman.predict_calls": "count/frame",
    "kalman.predict_ms": "ms/frame",
    "kalman.update_calls": "count/frame",
    "kalman.update_ms": "ms/frame",
    "io.load_detections_ms": "ms/frame",
    "io.save_tracks_ms": "ms/frame",
    **{f"{layer}.frame_share": "share" for layer in LAYERS},
    "simulate.generate_s": "s",
    "simulate.corrupt_s": "s",
    "metrics.evaluate_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_ms": "ms/frame",
}
