"""Reference scoring: one pose, one keypoint, one map read at a time.

These are the per-sample loops that ``keytrack.metrics`` replaced with
scoring on ``(N, K, 2)`` pose arrays, kept as the parity oracle.  Each
sample is read through ``Pose.get``, each distance is a ``math.hypot``,
and each map read is its own ``quadratic_sample`` call.  The scoring
rules are the package's: a pair whose ground-truth scale is undefined or
zero has no relative error, and smoothness compares only the outputs of
adjacent frames.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

from keytrack.keysort import TrackOutput
from keytrack.maps import CandidateKeypoint, Tiles, _tiled, quadratic_sample
from keytrack.metrics import (
    FRAME_DIFF_KINDS,
    CategoryPR,
    PairingResult,
    PRReport,
    pair_skeletons,
)
from keytrack.skeleton import Pose, SkeletonSpec, skeleton_scale


def _interpolated_prob(grid: Optional[Tiles], x: float, y: float) -> float:
    """Sub-pixel map probability; positions off the grid read as 0."""
    if grid is None:
        return 0.0
    height, width = grid.height, grid.width
    if not (0.0 <= x <= width - 1 and 0.0 <= y <= height - 1):
        return 0.0
    return float(quadratic_sample(grid, x, y))


def precision_recall(
    gt_poses: Sequence[Pose],
    candidates: Sequence[CandidateKeypoint],
    gt_prob_maps: dict,
    pred_prob_maps: dict,
    cutoff: float,
) -> PRReport:
    """Two-way probability-cutoff detection counts, one map read per point."""
    gt_prob_maps = {category: _tiled(grid) for category, grid in gt_prob_maps.items()}
    pred_prob_maps = {category: _tiled(grid) for category, grid in pred_prob_maps.items()}
    categories = list(
        dict.fromkeys([*gt_prob_maps, *pred_prob_maps, *(c.category for c in candidates)])
    )
    per_category: dict[str, CategoryPR] = {}
    for category in categories:
        gt_points = [pose.get(category) for pose in gt_poses if pose.present(category)]
        cand_points = [c.xy for c in candidates if c.category == category]
        gt_hits = sum(
            1
            for xy in gt_points
            if _interpolated_prob(pred_prob_maps.get(category), xy[0], xy[1]) >= cutoff
        )
        cand_hits = sum(
            1
            for xy in cand_points
            if _interpolated_prob(gt_prob_maps.get(category), xy[0], xy[1]) >= cutoff
        )
        per_category[category] = CategoryPR(
            tp=0.5 * (gt_hits + cand_hits),
            fp=len(cand_points) - cand_hits,
            fn=len(gt_points) - gt_hits,
        )
    return PRReport(per_category=per_category, overall=sum(per_category.values(), CategoryPR()))


def recovery_samples(
    gt_poses: Sequence[Pose],
    pred_poses: Sequence[Pose],
    pairing: PairingResult,
    spec: SkeletonSpec,
) -> Iterator[tuple[str, bool]]:
    """``(category, recovered)`` per ground-truth keypoint of the skeleton, in pose order."""
    pred_of_gt = dict(pairing.pairs)
    for i, gt in enumerate(gt_poses):
        pred = pred_poses[pred_of_gt[i]] if i in pred_of_gt else None
        for cat in spec.categories:
            if gt.present(cat):
                yield cat, pred is not None and pred.present(cat)


def recovery_rate(
    samples: Iterable[tuple[str, bool]], categories: Sequence[str]
) -> tuple[dict[str, Optional[float]], Optional[float]]:
    """Fraction of ``(category, recovered)`` samples recovered, per category and overall."""
    recovered = dict.fromkeys(categories, 0)
    total = dict.fromkeys(categories, 0)
    for cat, hit in samples:
        total[cat] += 1
        recovered[cat] += hit
    eta = {cat: (recovered[cat] / total[cat] if total[cat] else None) for cat in categories}
    grand_total = sum(total.values())
    overall = sum(recovered.values()) / grand_total if grand_total else None
    return eta, overall


def relative_error(
    gt_poses: Sequence[Pose],
    pred_poses: Sequence[Pose],
    pairing: PairingResult,
    spec: SkeletonSpec,
) -> dict[str, list[float]]:
    """Keypoint errors normalised by the ground-truth skeleton scale."""
    samples: dict[str, list[float]] = {cat: [] for cat in spec.categories}
    for i, j in pairing.pairs:
        gt = gt_poses[i]
        pred = pred_poses[j]
        scale = skeleton_scale(spec, gt)
        if scale is None or scale <= 0.0:
            continue
        for cat in spec.categories:
            gt_xy = gt.get(cat)
            pred_xy = pred.get(cat)
            if gt_xy is None or pred_xy is None:
                continue
            samples[cat].append(
                math.hypot(pred_xy[0] - gt_xy[0], pred_xy[1] - gt_xy[1]) / scale
            )
    return samples


def frame_difference(
    previous: TrackOutput, current: TrackOutput
) -> dict[str, dict[str, list[float]]]:
    """Per-category keypoint displacements between two frames, per tracklet
    id present in both, separately for the observed and posterior poses."""
    result: dict[str, dict[str, list[float]]] = {kind: {} for kind in FRAME_DIFF_KINDS}
    prev_by_id = {record.tracklet_id: record for record in previous.records}
    for record in current.records:
        before = prev_by_id.get(record.tracklet_id)
        if before is None:
            continue
        for kind in FRAME_DIFF_KINDS:
            pose_before: Optional[Pose] = getattr(before, kind)
            pose_after: Optional[Pose] = getattr(record, kind)
            if pose_before is None or pose_after is None:
                continue
            for cat in pose_after.coords:
                xy_before = pose_before.get(cat)
                xy_after = pose_after.get(cat)
                if xy_before is None or xy_after is None:
                    continue
                result[kind].setdefault(cat, []).append(
                    math.hypot(xy_after[0] - xy_before[0], xy_after[1] - xy_before[1])
                )
    return result


def evaluation_rows(
    gt_frames: dict[int, list[Pose]],
    pred_frames: dict[int, list[Pose]],
    spec: SkeletonSpec,
    outputs: Sequence[TrackOutput] = (),
) -> dict[str, list[tuple]]:
    """Every sample as a row, in evaluation order, with the pairing counts.

    ``recovery`` rows are ``(frame, category, recovered)``,
    ``relative_error`` rows ``(frame, category, value)`` and
    ``frame_difference`` rows ``(frame, kind, category, value)`` for the
    outputs of adjacent frames.
    """
    rows: dict[str, list] = {"recovery": [], "relative_error": [], "frame_difference": []}
    counts = dict.fromkeys(("frames", "paired", "unpaired_gt", "unpaired_pred"), 0)
    for frame_index in sorted(gt_frames):
        gt_poses = gt_frames[frame_index]
        pred_poses = pred_frames.get(frame_index, [])
        pairing = pair_skeletons(gt_poses, pred_poses)
        counts["frames"] += 1
        counts["paired"] += len(pairing.pairs)
        counts["unpaired_gt"] += len(pairing.unpaired_gt)
        counts["unpaired_pred"] += len(pairing.unpaired_pred)
        rows["recovery"] += [
            (frame_index, cat, hit)
            for cat, hit in recovery_samples(gt_poses, pred_poses, pairing, spec)
        ]
        for cat, values in relative_error(gt_poses, pred_poses, pairing, spec).items():
            rows["relative_error"] += [(frame_index, cat, value) for value in values]
    ordered = sorted(outputs, key=lambda out: out.frame_index)
    for previous, current in zip(ordered, ordered[1:]):
        if current.frame_index != previous.frame_index + 1:
            continue
        for kind, cats in frame_difference(previous, current).items():
            for cat, values in cats.items():
                rows["frame_difference"] += [
                    (current.frame_index, kind, cat, value) for value in values
                ]
    return {**rows, "counts": counts}
