"""Evaluation: detection precision/recall, pairing, recovery and smoothness.

Metrics that cannot be computed (empty denominators, no samples) are
reported as ``None``, never silently as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .assignment import hungarian
from .maps import CandidateKeypoint, Tiles, _tiled, quadratic_sample
from .keysort import TrackOutput, _psi_costs
from .skeleton import Pose, SkeletonSpec, skeleton_scale

log = logging.getLogger(__name__)

DEFAULT_PROB_CUTOFF = 0.5
DEFAULT_PAIR_GATE = 50.0
QUANTILE_PROBS = (0.05, 0.5, 0.95)
FRAME_DIFF_KINDS = ("observed", "posterior")


def _interpolated_prob(grid: Optional[Tiles], x: float, y: float) -> float:
    """Sub-pixel map probability; positions off the grid read as 0."""
    if grid is None:
        return 0.0
    height, width = grid.height, grid.width
    if not (0.0 <= x <= width - 1 and 0.0 <= y <= height - 1):
        return 0.0
    return float(quadratic_sample(grid, x, y))


@dataclass(frozen=True)
class CategoryPR:
    """Detection counts of one category; ``tp`` counts in halves."""

    tp: float = 0.0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "CategoryPR") -> "CategoryPR":
        return CategoryPR(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def precision(self) -> Optional[float]:
        denom = self.tp + self.fp
        return self.tp / denom if denom > 0 else None

    @property
    def recall(self) -> Optional[float]:
        denom = self.tp + self.fn
        return self.tp / denom if denom > 0 else None

    def to_dict(self) -> dict:
        return {**asdict(self), "precision": self.precision, "recall": self.recall}


@dataclass
class PRReport:
    """Detection counts per category and overall; frames' reports add up exactly."""

    per_category: dict[str, CategoryPR] = field(default_factory=dict)
    overall: CategoryPR = CategoryPR()

    def __add__(self, other: "PRReport") -> "PRReport":
        per_category = dict(self.per_category)
        for category, pr in other.per_category.items():
            per_category[category] = per_category.get(category, CategoryPR()) + pr
        return PRReport(per_category, self.overall + other.overall)

    def to_dict(self) -> dict:
        section = {cat: pr.to_dict() for cat, pr in sorted(self.per_category.items())}
        section["overall"] = self.overall.to_dict()
        return section


def check_prob_cutoff(cutoff: float) -> None:
    """Reject a probability cutoff that is not finite."""
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")


def precision_recall(
    gt_poses: Sequence[Pose],
    candidates: Sequence[CandidateKeypoint],
    gt_prob_maps: dict[str, Tiles | np.ndarray],
    pred_prob_maps: dict[str, Tiles | np.ndarray],
    cutoff: float = DEFAULT_PROB_CUTOFF,
) -> PRReport:
    """Two-way probability-cutoff detection metrics.

    A ground-truth keypoint counts as found when the predicted map reads
    at least ``cutoff`` at its position; a candidate counts as true when
    the ground-truth map reads at least ``cutoff`` at its position.  The
    true-positive count is the average of both directions.  Categories of
    the predicted maps or candidates that the truth maps lack are scored
    too, so each such candidate is a false positive.  Maps given as
    ``(height, width)`` arrays are tiled once.  ``cutoff`` must be finite.
    """
    check_prob_cutoff(cutoff)
    gt_prob_maps = {category: _tiled(grid) for category, grid in gt_prob_maps.items()}
    pred_prob_maps = {category: _tiled(grid) for category, grid in pred_prob_maps.items()}
    categories = list(
        dict.fromkeys([*gt_prob_maps, *pred_prob_maps, *(c.category for c in candidates)])
    )
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
    overall = sum(per_category.values(), CategoryPR())
    return PRReport(per_category=per_category, overall=overall)


# ---------------------------------------------------------------------------
# skeleton pairing and derived metrics


@dataclass
class PairingResult:
    pairs: list[tuple[int, int]]
    unpaired_gt: list[int]
    unpaired_pred: list[int]


def _pose_array(poses: Sequence[Pose], categories: Sequence[str]) -> np.ndarray:
    """(N, K, 2) coordinates over ``categories``, NaN where a keypoint is missing."""
    missing = (math.nan, math.nan)
    rows = [
        [missing if (xy := pose.coords.get(cat)) is None else xy for cat in categories]
        for pose in poses
    ]
    return np.array(rows, dtype=np.float64).reshape(len(poses), len(categories), 2)


def pair_skeletons(
    gt_poses: Sequence[Pose],
    pred_poses: Sequence[Pose],
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> PairingResult:
    """Optimal one-to-one pairing by KeySORT's mean shared-keypoint distance.

    Pairs whose mean distance exceeds ``max_distance`` (defined on the
    original image; ``coord_scale`` converts working coordinates) stay
    unpaired, as do poses sharing no categories.  ``max_distance`` must be
    positive and ``coord_scale`` positive and finite.
    """
    if not max_distance > 0:
        raise ValueError(f"max_distance must be positive, got {max_distance}")
    if not 0.0 < coord_scale < math.inf:
        raise ValueError(f"coord_scale must be positive and finite, got {coord_scale}")
    categories = list(dict.fromkeys(cat for pose in gt_poses for cat in pose.coords))
    cost = _psi_costs(
        _pose_array(gt_poses, categories), _pose_array(pred_poses, categories), coord_scale
    )
    pairs = hungarian(cost, gate=max_distance)
    paired_gt = {i for i, _ in pairs}
    paired_pred = {j for _, j in pairs}
    return PairingResult(
        pairs=pairs,
        unpaired_gt=[i for i in range(len(gt_poses)) if i not in paired_gt],
        unpaired_pred=[j for j in range(len(pred_poses)) if j not in paired_pred],
    )


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
    """Fraction of ``(category, recovered)`` samples recovered, per category and overall.

    With :func:`recovery_samples`, unpaired ground-truth skeletons keep
    their keypoints in the denominator.  Categories without samples report
    ``None``.
    """
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
    """Per-sample rows in evaluation order: the table the report is reduced from."""

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
    for frame_index in sorted(gt_frames):
        gt_poses = gt_frames[frame_index]
        pred_poses = pred_frames.get(frame_index, [])
        pairing = pair_skeletons(gt_poses, pred_poses, max_distance, coord_scale)
        report.frames += 1
        report.paired += len(pairing.pairs)
        report.unpaired_gt += len(pairing.unpaired_gt)
        report.unpaired_pred += len(pairing.unpaired_pred)
        series.recovery.extend(
            {"frame": frame_index, "category": cat, "recovered": int(hit)}
            for cat, hit in recovery_samples(gt_poses, pred_poses, pairing, spec)
        )
        for cat, values in relative_error(gt_poses, pred_poses, pairing, spec).items():
            series.relative_error.extend(
                {"frame": frame_index, "category": cat, "value": value} for value in values
            )

    report.eta, report.eta_overall = recovery_rate(
        ((row["category"], row["recovered"]) for row in series.recovery), spec.categories
    )
    errors: dict[str, list[float]] = {cat: [] for cat in spec.categories}
    for row in series.relative_error:
        errors[row["category"]].append(row["value"])
    report.relative_error = {cat: ErrorStats.from_samples(errors[cat]) for cat in spec.categories}
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

    ordered = sorted(outputs, key=lambda out: out.frame_index)
    for previous, current in zip(ordered, ordered[1:]):
        for kind, cats in frame_difference(previous, current).items():
            for cat, values in cats.items():
                series.frame_difference.extend(
                    {"frame": current.frame_index, "kind": kind, "category": cat, "value": value}
                    for value in values
                )
    # one pass in row order; a category outside the skeleton stays in the rows only
    diffs = {(kind, cat): [] for kind in FRAME_DIFF_KINDS for cat in spec.categories}
    for row in series.frame_difference:
        if (key := (row["kind"], row["category"])) in diffs:
            diffs[key].append(row["value"])
    report.frame_diff_quantiles = {
        kind: {cat: quantiles(diffs[kind, cat]) for cat in spec.categories}
        for kind in FRAME_DIFF_KINDS
    }
    return report, series
