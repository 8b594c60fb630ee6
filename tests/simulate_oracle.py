"""Reference ground-truth simulator: one animal's pose at a time.

This is the ``generate`` that ``keytrack.simulate`` replaced with one that
turns each animal's template once and walks the skeleton's tree order into
an array, kept unchanged as the parity oracle.  It scales and rotates
every template offset anew for each pose, draws the jitter of one offset
at a time, places the keypoints by sorting the categories by rank on every
call, and checks spawn separation keypoint pair by keypoint pair.
"""

from __future__ import annotations

import math

import numpy as np

from keytrack.simulate import GroundTruthFrame, GroundTruthSequence, ScenarioConfig, _rotate
from keytrack.skeleton import Pair, Pose, SkeletonSpec, XY, require_valid_spec


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


def generate(spec: SkeletonSpec, config: ScenarioConfig) -> GroundTruthSequence:
    """Simulate ground-truth poses for every frame of the schedule."""
    require_valid_spec(spec)
    for pair in spec.tree_connections:
        if pair not in config.template:
            raise ValueError(f"template missing offset for {pair[0]}->{pair[1]}")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))

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
