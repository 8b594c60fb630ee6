"""Evaluation: detection precision/recall, pairing, recovery and smoothness.

Metrics that cannot be computed (empty denominators, no samples) are
reported as ``None``, never silently as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assignment import hungarian
from .maps import CandidateKeypoint, quadratic_sample
from .keysort import TrackOutput, psi
from .skeleton import Pose, SkeletonSpec, skeleton_scale

log = logging.getLogger(__name__)

DEFAULT_PROB_CUTOFF = 0.5
DEFAULT_PAIR_GATE = 50.0
QUANTILE_PROBS = (0.05, 0.5, 0.95)


def _interpolated_prob(grid: Optional[np.ndarray], x: float, y: float) -> float:
    """Sub-pixel map probability; positions off the grid read as 0."""
    if grid is None:
        return 0.0
    height, width = grid.shape
    if not (0.0 <= x <= width - 1 and 0.0 <= y <= height - 1):
        return 0.0
    return float(quadratic_sample(grid, x, y))


@dataclass(frozen=True)
class CategoryPR:
    tp: float
    fp: int
    fn: int

    @property
    def precision(self) -> Optional[float]:
        denom = self.tp + self.fp
        return self.tp / denom if denom > 0 else None

    @property
    def recall(self) -> Optional[float]:
        denom = self.tp + self.fn
        return self.tp / denom if denom > 0 else None


@dataclass
class PRReport:
    per_category: dict[str, CategoryPR]
    overall: CategoryPR


def precision_recall(
    gt_poses: Sequence[Pose],
    candidates: Sequence[CandidateKeypoint],
    gt_prob_maps: dict[str, np.ndarray],
    pred_prob_maps: dict[str, np.ndarray],
    cutoff: float = DEFAULT_PROB_CUTOFF,
) -> PRReport:
    """Two-way probability-cutoff detection metrics.

    A ground-truth keypoint counts as found when the predicted map reads
    at least ``cutoff`` at its position; a candidate counts as true when
    the ground-truth map reads at least ``cutoff`` at its position.  The
    true-positive count is the average of both directions.
    """
    categories = list(gt_prob_maps.keys())
    per_category: dict[str, CategoryPR] = {}
    for category in categories:
        gt_points = [
            pose.get(category) for pose in gt_poses if pose.present(category)
        ]
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
        tp = 0.5 * (gt_hits + cand_hits)
        per_category[category] = CategoryPR(
            tp=tp,
            fp=len(cand_points) - cand_hits,
            fn=len(gt_points) - gt_hits,
        )
    overall = CategoryPR(
        tp=sum(c.tp for c in per_category.values()),
        fp=sum(c.fp for c in per_category.values()),
        fn=sum(c.fn for c in per_category.values()),
    )
    return PRReport(per_category=per_category, overall=overall)


# ---------------------------------------------------------------------------
# skeleton pairing and derived metrics


@dataclass
class PairingResult:
    pairs: list[tuple[int, int]]
    unpaired_gt: list[int]
    unpaired_pred: list[int]


def pair_skeletons(
    gt_poses: Sequence[Pose],
    pred_poses: Sequence[Pose],
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> PairingResult:
    """Optimal one-to-one pairing by mean shared-keypoint distance.

    Pairs whose mean distance exceeds ``max_distance`` (defined on the
    original image; ``coord_scale`` converts working coordinates) stay
    unpaired, as do poses sharing no categories.
    """
    if not gt_poses or not pred_poses:
        return PairingResult(
            pairs=[],
            unpaired_gt=list(range(len(gt_poses))),
            unpaired_pred=list(range(len(pred_poses))),
        )
    cost = np.empty((len(gt_poses), len(pred_poses)))
    for i, gt in enumerate(gt_poses):
        for j, pred in enumerate(pred_poses):
            distance = psi(gt, pred)
            if distance is None:
                distance = math.inf
            cost[i, j] = distance * coord_scale if math.isfinite(distance) else math.inf
    pairs = hungarian(cost, gate=max_distance)
    paired_gt = {i for i, _ in pairs}
    paired_pred = {j for _, j in pairs}
    return PairingResult(
        pairs=pairs,
        unpaired_gt=[i for i in range(len(gt_poses)) if i not in paired_gt],
        unpaired_pred=[j for j in range(len(pred_poses)) if j not in paired_pred],
    )


def recovery_rate(
    gt_poses: Sequence[Pose],
    pred_poses: Sequence[Pose],
    pairing: PairingResult,
    spec: SkeletonSpec,
) -> tuple[dict[str, Optional[float]], Optional[float]]:
    """Fraction of ground-truth keypoints recovered in paired predictions.

    Unpaired ground-truth skeletons keep their keypoints in the
    denominator.  Categories absent from the ground truth report ``None``.
    """
    recovered = {cat: 0 for cat in spec.categories}
    total = {cat: 0 for cat in spec.categories}
    pred_of_gt = {i: j for i, j in pairing.pairs}
    for i, gt in enumerate(gt_poses):
        pred = pred_poses[pred_of_gt[i]] if i in pred_of_gt else None
        for cat in spec.categories:
            if not gt.present(cat):
                continue
            total[cat] += 1
            if pred is not None and pred.present(cat):
                recovered[cat] += 1
    eta = {
        cat: (recovered[cat] / total[cat] if total[cat] else None)
        for cat in spec.categories
    }
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
        if scale is None:
            log.warning("skipping pair with undefined ground-truth scale")
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
    """Per-category keypoint displacements between consecutive frames.

    Computed per tracklet id present in both frames, separately for the
    observed and the posterior pose sets.
    """
    result: dict[str, dict[str, list[float]]] = {"observed": {}, "posterior": {}}
    prev_by_id = {record.tracklet_id: record for record in previous.records}
    for record in current.records:
        before = prev_by_id.get(record.tracklet_id)
        if before is None:
            continue
        for kind in ("observed", "posterior"):
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


def quantiles(
    samples: Sequence[float], probs: Sequence[float] = QUANTILE_PROBS
) -> Optional[dict[float, float]]:
    """Linear-interpolation quantiles; ``None`` for empty samples."""
    if len(samples) == 0:
        return None
    values = np.quantile(np.asarray(samples, dtype=np.float64), probs, method="linear")
    return {float(p): float(v) for p, v in zip(probs, values)}


# ---------------------------------------------------------------------------
# aggregate reports


@dataclass
class ErrorStats:
    mean: Optional[float]
    std: Optional[float]
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "ErrorStats":
        if not samples:
            return cls(mean=None, std=None, count=0)
        arr = np.asarray(samples, dtype=np.float64)
        return cls(mean=float(arr.mean()), std=float(arr.std()), count=int(arr.size))


@dataclass
class EvalReport:
    eta: dict[str, Optional[float]] = field(default_factory=dict)
    eta_overall: Optional[float] = None
    relative_error: dict[str, ErrorStats] = field(default_factory=dict)
    frame_diff_quantiles: dict[str, dict[str, Optional[dict[float, float]]]] = field(
        default_factory=dict
    )
    frames: int = 0
    paired: int = 0
    unpaired_gt: int = 0
    unpaired_pred: int = 0

    def to_dict(self) -> dict:
        return {
            "frames": self.frames,
            "paired_skeletons": self.paired,
            "unpaired_ground_truth": self.unpaired_gt,
            "unpaired_predictions": self.unpaired_pred,
            "recovery_rate": {**self.eta, "overall": self.eta_overall},
            "relative_error": {
                cat: {"mean": s.mean, "std": s.std, "count": s.count}
                for cat, s in self.relative_error.items()
            },
            "frame_difference_quantiles": {
                kind: {
                    cat: (None if q is None else {f"q{int(p * 100):02d}": v for p, v in q.items()})
                    for cat, q in cats.items()
                }
                for kind, cats in self.frame_diff_quantiles.items()
            },
        }


@dataclass
class EvalSeries:
    """Raw per-sample rows backing the report, for CSV export."""

    relative_error: list[dict] = field(default_factory=list)
    frame_difference: list[dict] = field(default_factory=list)
    recovery: list[dict] = field(default_factory=list)


def evaluate_poses(
    gt_frames: dict[int, list[Pose]],
    pred_frames: dict[int, list[Pose]],
    spec: SkeletonSpec,
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> tuple[EvalReport, EvalSeries]:
    """Pair and score predicted skeletons against ground truth per frame."""
    missing = sorted(set(pred_frames) - set(gt_frames))
    if missing:
        raise ValueError(f"predictions reference frames without ground truth: {missing[:5]}")

    report = EvalReport()
    series = EvalSeries()
    recovered_total = {cat: 0 for cat in spec.categories}
    gt_total = {cat: 0 for cat in spec.categories}
    error_samples: dict[str, list[float]] = {cat: [] for cat in spec.categories}

    for frame_index in sorted(gt_frames):
        gt_poses = gt_frames[frame_index]
        pred_poses = pred_frames.get(frame_index, [])
        pairing = pair_skeletons(gt_poses, pred_poses, max_distance, coord_scale)
        report.frames += 1
        report.paired += len(pairing.pairs)
        report.unpaired_gt += len(pairing.unpaired_gt)
        report.unpaired_pred += len(pairing.unpaired_pred)

        pred_of_gt = {i: j for i, j in pairing.pairs}
        for i, gt in enumerate(gt_poses):
            pred = pred_poses[pred_of_gt[i]] if i in pred_of_gt else None
            for cat in spec.categories:
                if not gt.present(cat):
                    continue
                gt_total[cat] += 1
                hit = pred is not None and pred.present(cat)
                if hit:
                    recovered_total[cat] += 1
                series.recovery.append(
                    {"frame": frame_index, "category": cat, "recovered": int(hit)}
                )
        frame_errors = relative_error(gt_poses, pred_poses, pairing, spec)
        for cat, values in frame_errors.items():
            error_samples[cat].extend(values)
            for value in values:
                series.relative_error.append(
                    {"frame": frame_index, "category": cat, "value": value}
                )

    report.eta = {
        cat: (recovered_total[cat] / gt_total[cat] if gt_total[cat] else None)
        for cat in spec.categories
    }
    grand = sum(gt_total.values())
    report.eta_overall = sum(recovered_total.values()) / grand if grand else None
    report.relative_error = {
        cat: ErrorStats.from_samples(error_samples[cat]) for cat in spec.categories
    }
    return report, series


def evaluate_tracks(
    gt_frames: dict[int, list[Pose]],
    outputs: Sequence[TrackOutput],
    spec: SkeletonSpec,
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> tuple[EvalReport, EvalSeries]:
    """Score tracker output (posterior poses) and add smoothness metrics."""
    pred_frames = {
        out.frame_index: [record.posterior for record in out.records] for out in outputs
    }
    report, series = evaluate_poses(
        gt_frames, pred_frames, spec, max_distance, coord_scale
    )

    diff_samples: dict[str, dict[str, list[float]]] = {
        "observed": {cat: [] for cat in spec.categories},
        "posterior": {cat: [] for cat in spec.categories},
    }
    ordered = sorted(outputs, key=lambda out: out.frame_index)
    for previous, current in zip(ordered, ordered[1:]):
        frame_result = frame_difference(previous, current)
        for kind, cats in frame_result.items():
            for cat, values in cats.items():
                diff_samples[kind][cat].extend(values)
                for value in values:
                    series.frame_difference.append(
                        {
                            "frame": current.frame_index,
                            "kind": kind,
                            "category": cat,
                            "value": value,
                        }
                    )
    report.frame_diff_quantiles = {
        kind: {cat: quantiles(values) for cat, values in cats.items()}
        for kind, cats in diff_samples.items()
    }
    return report, series
