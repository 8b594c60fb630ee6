"""Synthetic ground truth: moving herds, detector corruption, test scenes.

Everything is bit-deterministic for a given 64-bit seed.  Animals share a
world-frame velocity schedule (so spawn separation is preserved), carry a
per-animal heading and scale applied to a fixed offset template, and get
small per-frame offset jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Optional, Sequence

import numpy as np

from .kalman import FilterBank, predict, update_adaptive
from .maps import CandidateKeypoint, EncoderParams, MapStack, encode
from .skeleton import Pair, Pose, SkeletonSpec, XY, is_valid_pose, require_valid_spec

REGIME_MODES = ("stationary", "walking", "abrupt_turn")

# parent->child offsets (animal frame, unit scale); lengths follow the
# bundled skeleton proportions so estimated betas land near their defaults
DEFAULT_TEMPLATE: dict[Pair, XY] = {
    ("withers", "tail_implant"): (-60.0, 0.0),
    ("withers", "head"): (22.0, 0.0),
    ("head", "nose"): (16.0, 0.0),
    ("withers", "left_hip"): (-39.0, 14.0),
    ("withers", "right_hip"): (-39.0, -14.0),
}


@dataclass(frozen=True)
class RegimeSegment:
    mode: str
    frames: int
    velocity: XY = (0.0, 0.0)
    process_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in REGIME_MODES:
            raise ValueError(f"unknown regime mode {self.mode!r}")
        if self.frames <= 0:
            raise ValueError("regime segment must cover at least one frame")
        if self.process_noise < 0:
            raise ValueError("process noise must be non-negative")


@dataclass
class ScenarioConfig:
    """Scene layout, motion schedule and detector corruption settings."""

    n_animals: int = 3
    width: int = 960
    height: int = 720
    seed: int = 0
    regimes: tuple[RegimeSegment, ...] = (RegimeSegment("stationary", 60),)
    template: dict[Pair, XY] = field(default_factory=lambda: dict(DEFAULT_TEMPLATE))
    scale_range: tuple[float, float] = (0.9, 1.1)
    offset_jitter: float = 0.3
    margin: float = 110.0
    min_separation: float = 90.0
    detection_noise: dict[str, float] | float = 2.0
    dropout: dict[str, float] | float = 0.0

    def __post_init__(self) -> None:
        if self.n_animals < 1:
            raise ValueError("need at least one animal")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")
        if not self.regimes:
            raise ValueError("need at least one regime segment")
        if self.scale_range[0] <= 0 or self.scale_range[0] > self.scale_range[1]:
            raise ValueError("bad scale range")

    @property
    def total_frames(self) -> int:
        return sum(segment.frames for segment in self.regimes)

    def noise_for(self, category: str) -> float:
        if isinstance(self.detection_noise, dict):
            return float(self.detection_noise.get(category, 0.0))
        return float(self.detection_noise)

    def dropout_for(self, category: str) -> float:
        if isinstance(self.dropout, dict):
            return float(self.dropout.get(category, 0.0))
        return float(self.dropout)


@dataclass
class GroundTruthFrame:
    frame_index: int
    regime: str
    poses: list[Pose]


@dataclass
class GroundTruthSequence:
    config: ScenarioConfig
    frames: list[GroundTruthFrame]

    def poses_by_frame(self) -> dict[int, list[Pose]]:
        return {frame.frame_index: frame.poses for frame in self.frames}


def _rotate(xy: XY, angle: float) -> XY:
    c = math.cos(angle)
    s = math.sin(angle)
    return (c * xy[0] - s * xy[1], s * xy[0] + c * xy[1])


def _pose_points(
    spec: SkeletonSpec,
    root_xy: XY,
    offsets: dict[Pair, XY],
) -> dict[str, XY]:
    coords: dict[str, XY] = {spec.root: root_xy}
    ordered = sorted(
        (c for c in spec.categories if c != spec.root), key=lambda c: spec.ranks[c]
    )
    for cat in ordered:
        parent = spec.parent_of[cat]
        offset = offsets[(parent, cat)]
        base = coords[parent]
        coords[cat] = (base[0] + offset[0], base[1] + offset[1])
    return {c: coords[c] for c in spec.categories}


def _template_extent(config: ScenarioConfig) -> float:
    reach = 0.0
    for offset in config.template.values():
        reach = max(reach, math.hypot(offset[0], offset[1]))
    # chains can stack (e.g. head + nose); double covers the bundled layouts
    return 2.0 * reach * config.scale_range[1]


def generate(spec: SkeletonSpec, config: ScenarioConfig) -> GroundTruthSequence:
    """Simulate ground-truth poses for every frame of the schedule."""
    require_valid_spec(spec)
    for pair in spec.tree_connections:
        if pair not in config.template:
            raise ValueError(f"template missing offset for {pair[0]}->{pair[1]}")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))

    reach = _template_extent(config)
    low_x = config.margin
    high_x = config.width - 1 - config.margin
    low_y = config.margin
    high_y = config.height - 1 - config.margin
    if low_x >= high_x or low_y >= high_y:
        raise ValueError("arena too small for the configured margin")

    headings = rng.uniform(0.0, 2.0 * math.pi, size=config.n_animals)
    scales = rng.uniform(*config.scale_range, size=config.n_animals)

    def animal_points(index: int, root_xy: XY, jitter: bool) -> dict[str, XY]:
        offsets: dict[Pair, XY] = {}
        for pair, base in config.template.items():
            scaled = (base[0] * scales[index], base[1] * scales[index])
            rotated = _rotate(scaled, headings[index])
            if jitter and config.offset_jitter > 0:
                noise = rng.normal(0.0, config.offset_jitter, size=2)
                rotated = (rotated[0] + noise[0], rotated[1] + noise[1])
            offsets[pair] = rotated
        return _pose_points(spec, root_xy, offsets)

    # spawn with keypoint-level separation between animals
    roots: list[XY] = []
    spawned_points: list[dict[str, XY]] = []
    attempts = 0
    while len(roots) < config.n_animals:
        attempts += 1
        if attempts > 2000 * config.n_animals:
            raise ValueError("arena too small to separate the requested animals")
        candidate_root = (
            float(rng.uniform(low_x, high_x)),
            float(rng.uniform(low_y, high_y)),
        )
        index = len(roots)
        points = animal_points(index, candidate_root, jitter=False)
        clear = True
        for other in spawned_points:
            for xy in points.values():
                for oxy in other.values():
                    if math.hypot(xy[0] - oxy[0], xy[1] - oxy[1]) < config.min_separation:
                        clear = False
                        break
                if not clear:
                    break
            if not clear:
                break
        if clear:
            roots.append(candidate_root)
            spawned_points.append(points)

    positions = [np.array(r, dtype=np.float64) for r in roots]
    frames: list[GroundTruthFrame] = []
    frame_index = 0
    for segment in config.regimes:
        velocity = np.array(segment.velocity, dtype=np.float64)
        for _ in range(segment.frames):
            poses: list[Pose] = []
            for index in range(config.n_animals):
                if frame_index > 0:
                    step = velocity.copy()
                    if segment.process_noise > 0:
                        step += rng.normal(0.0, segment.process_noise, size=2)
                    positions[index] = positions[index] + step
                root_xy = (float(positions[index][0]), float(positions[index][1]))
                points = animal_points(index, root_xy, jitter=True)
                poses.append(
                    Pose(
                        coords={c: points[c] for c in spec.categories},
                        frame_index=frame_index,
                    )
                )
            frames.append(
                GroundTruthFrame(frame_index=frame_index, regime=segment.mode, poses=poses)
            )
            frame_index += 1
    return GroundTruthSequence(config=config, frames=frames)


def corrupt(
    truth: GroundTruthSequence,
    spec: SkeletonSpec,
    config: Optional[ScenarioConfig] = None,
) -> dict[int, list[Pose]]:
    """Apply detector dropout and localisation noise to ground truth.

    Keypoints drop independently; survivors get iid Gaussian noise.  Poses
    that lose validity (no dominant connection left) are dropped whole.
    """
    if config is None:
        config = truth.config
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    detections: dict[int, list[Pose]] = {}
    for frame in truth.frames:
        frame_poses: list[Pose] = []
        for pose in frame.poses:
            coords: dict[str, Optional[XY]] = {}
            for cat in spec.categories:
                xy = pose.get(cat)
                # draw per-keypoint randomness unconditionally to keep the
                # stream layout stable across pose contents
                drop = rng.random()
                noise = rng.normal(0.0, 1.0, size=2)
                if xy is None:
                    coords[cat] = None
                    continue
                if drop < config.dropout_for(cat):
                    coords[cat] = None
                    continue
                sigma = config.noise_for(cat)
                coords[cat] = (xy[0] + sigma * noise[0], xy[1] + sigma * noise[1])
            candidate = Pose(coords=coords, frame_index=frame.frame_index)
            if is_valid_pose(spec, candidate):
                frame_poses.append(candidate)
        detections[frame.frame_index] = frame_poses
    return detections


# ---------------------------------------------------------------------------
# parallel-rows association scene


def two_point_skeleton() -> SkeletonSpec:
    """Minimal root-plus-mate skeleton used by the association scene."""
    pair = ("front", "back")
    return SkeletonSpec(
        name="two-point",
        categories=("front", "back"),
        root="front",
        connections=(pair,),
        dominant=(pair,),
        betas={pair: 1.0},
        reference=pair,
    )


@dataclass
class ParallelScene:
    spec: SkeletonSpec
    maps: MapStack
    truth_poses: list[Pose]
    candidates: list[CandidateKeypoint]
    front_rows: list[int]
    back_rows: list[int]
    achievable_pairs: int


def parallel_rows_scene(
    n_rows: int = 7,
    row_gap: float = 20.0,
    column_gap: float = 60.0,
    concavity: float = 1.5,
    width: int = 800,
    height: int = 600,
    params: EncoderParams = EncoderParams(),
) -> ParallelScene:
    """Rows of aligned two-keypoint animals with the end detections missing.

    The first row's front keypoint and the last row's back keypoint go
    undetected, so ``n_rows - 2`` true pairs remain achievable.  The back
    offsets bow concavely across rows, which makes the row-shifted matching
    strictly optimal in total cost while greedy matching still recovers
    every achievable true pair.
    """
    spec = two_point_skeleton()
    pair = ("front", "back")
    x0 = (width - column_gap) / 2.0
    y0 = (height - (n_rows - 1) * row_gap) / 2.0
    mid = (n_rows - 1) / 2.0

    truth_poses: list[Pose] = []
    fronts: list[XY] = []
    backs: list[XY] = []
    for row in range(n_rows):
        front = (x0, y0 + row * row_gap)
        eta = -concavity * (row - mid) ** 2
        back = (front[0] + column_gap, front[1] + eta)
        fronts.append(front)
        backs.append(back)
        truth_poses.append(Pose(coords={"front": front, "back": back}, frame_index=0))

    maps = encode(truth_poses, spec, width, height, params)

    candidates: list[CandidateKeypoint] = []
    front_rows: list[int] = []
    back_rows: list[int] = []
    for row in range(1, n_rows):  # first front undetected
        candidates.append(CandidateKeypoint("front", fronts[row][0], fronts[row][1], 1.0))
        front_rows.append(row)
    for row in range(n_rows - 1):  # last back undetected
        candidates.append(CandidateKeypoint("back", backs[row][0], backs[row][1], 1.0))
        back_rows.append(row)

    return ParallelScene(
        spec=spec,
        maps=maps,
        truth_poses=truth_poses,
        candidates=candidates,
        front_rows=front_rows,
        back_rows=back_rows,
        achievable_pairs=n_rows - 2,
    )


# ---------------------------------------------------------------------------
# one-dimensional regime-switch filter demonstration


@dataclass
class KfDemoResult:
    mode: str
    switch_at: int
    truth_pos: np.ndarray
    truth_vel: np.ndarray
    z: np.ndarray
    prior_pos: np.ndarray
    posterior_pos: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray

    def rmse(self, start: int, stop: int) -> float:
        diff = self.posterior_pos[start:stop] - self.truth_pos[start:stop]
        return float(np.sqrt(np.mean(diff * diff)))


# the mitigation factor each mode forces; None computes it from the signs
_KF_DEMO_GAMMA = {"standard": 0.0, "adaptive": None, "adaptive-unmitigated": 1.0}
KF_DEMO_MODES = tuple(_KF_DEMO_GAMMA)


def regime_switch_demo(
    mode: str = "adaptive",
    steps: int = 500,
    seed: int = 5,
    q_var: float = 1e-3,
    q_jump: float = 1e5,
    r_var: float = 1.0,
    switch_at: Optional[int] = None,
    sign_window: int = 8,
) -> KfDemoResult:
    """Track a 1-D constant-velocity target whose process noise jumps.

    The filter always assumes the pre-switch process noise, so after the
    switch its noise model is underestimated by ``q_jump``.  ``mode``
    selects the update rule: plain Kalman (mitigation factor forced to 0),
    mitigated adaptive, or unmitigated adaptive (forced to 1).  Raises
    ``ValueError`` naming the parameter unless ``steps >= 2``,
    ``1 <= switch_at <= steps - 1``, ``q_var`` and ``r_var`` are positive,
    ``q_jump`` is non-negative (all finite) and ``sign_window >= 1``.
    """
    if mode not in KF_DEMO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if switch_at is None:
        switch_at = steps // 2
    if not 1 <= switch_at <= steps - 1:
        raise ValueError(
            f"switch_at must be between 1 and steps - 1 = {steps - 1}, got {switch_at}"
        )
    for name, value in (("q_var", q_var), ("r_var", r_var)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not 0.0 <= q_jump < math.inf:
        raise ValueError(f"q_jump must be non-negative and finite, got {q_jump}")
    bank = FilterBank([r_var], (q_var, q_var), (10.0 * r_var, 10.0 * r_var), sign_window)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    truth = np.zeros((steps, 2))
    for t in range(1, steps):
        q_true = q_var * (q_jump if t >= switch_at else 1.0)
        w = rng.normal(0.0, math.sqrt(q_true), size=2)
        truth[t, 0] = truth[t - 1, 0] + truth[t - 1, 1] + w[0]
        truth[t, 1] = truth[t - 1, 1] + w[1]
    z = truth[:, 0] + rng.normal(0.0, math.sqrt(r_var), size=steps)

    bank.resize([], z[:1, None])
    rows = np.zeros(1, dtype=np.intp)
    forced = _KF_DEMO_GAMMA[mode]
    prior_pos = np.zeros(steps)
    posterior_pos = np.zeros(steps)
    alpha = np.full(steps, np.nan)
    gamma = np.full(steps, np.nan)
    prior_pos[0] = posterior_pos[0] = z[0]
    for t in range(1, steps):
        predict(bank)
        prior_pos[t] = bank.mean[0, 0, 0]
        step_alpha, step_gamma = update_adaptive(bank, rows, z[t : t + 1, None], forced)
        posterior_pos[t] = bank.mean[0, 0, 0]
        if mode != "standard":
            alpha[t] = step_alpha[0]
            gamma[t] = step_gamma[0]

    return KfDemoResult(
        mode=mode,
        switch_at=switch_at,
        truth_pos=truth[:, 0].copy(),
        truth_vel=truth[:, 1].copy(),
        z=z,
        prior_pos=prior_pos,
        posterior_pos=posterior_pos,
        alpha=alpha,
        gamma=gamma,
    )
