"""Evaluation: detection precision/recall, pairing, recovery and smoothness.

Metrics that cannot be computed (empty denominators, no samples) are
reported as ``None``, never silently as zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

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


def _map_reads(grid: Optional[Tiles], xy: np.ndarray) -> np.ndarray:
    """Sub-pixel map probabilities at ``(n, 2)`` positions; a position off
    the grid, or any position without a map, reads 0."""
    reads = np.zeros(len(xy))
    if grid is not None:
        x, y = xy[:, 0], xy[:, 1]
        on_grid = (0.0 <= x) & (x <= grid.width - 1) & (0.0 <= y) & (y <= grid.height - 1)
        reads[on_grid] = quadratic_sample(grid, x[on_grid], y[on_grid])
    return reads


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
    gt = _pose_array(gt_poses, categories)
    per_category: dict[str, CategoryPR] = {}
    for code, category in enumerate(categories):
        gt_xy = gt[~np.isnan(gt[:, code, 0]), code]
        cand_xy = np.array(
            [c.xy for c in candidates if c.category == category], dtype=np.float64
        ).reshape(-1, 2)
        gt_hits = int(np.count_nonzero(_map_reads(pred_prob_maps.get(category), gt_xy) >= cutoff))
        cand_hits = int(np.count_nonzero(_map_reads(gt_prob_maps.get(category), cand_xy) >= cutoff))
        per_category[category] = CategoryPR(
            tp=0.5 * (gt_hits + cand_hits), fp=len(cand_xy) - cand_hits, fn=len(gt_xy) - gt_hits
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


def _pair_arrays(
    gt: np.ndarray, pred: np.ndarray, max_distance: float, coord_scale: float
) -> list[tuple[int, int]]:
    """Hungarian pairs of two pose arrays' rows; see :func:`pair_skeletons`."""
    if not max_distance > 0:
        raise ValueError(f"max_distance must be positive, got {max_distance}")
    if not 0.0 < coord_scale < math.inf:
        raise ValueError(f"coord_scale must be positive and finite, got {coord_scale}")
    return hungarian(_psi_costs(gt, pred, coord_scale), gate=max_distance)


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
    categories = list(dict.fromkeys(cat for pose in gt_poses for cat in pose.coords))
    pairs = _pair_arrays(
        _pose_array(gt_poses, categories),
        _pose_array(pred_poses, categories),
        max_distance,
        coord_scale,
    )
    paired_gt = {i for i, _ in pairs}
    paired_pred = {j for _, j in pairs}
    return PairingResult(
        pairs=pairs,
        unpaired_gt=[i for i in range(len(gt_poses)) if i not in paired_gt],
        unpaired_pred=[j for j in range(len(pred_poses)) if j not in paired_pred],
    )


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
        if len(samples) == 0:
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
    """Per-sample columns in evaluation order: the tables the report is reduced from.

    Each table is a dict of equal-length 1-D arrays: ``frame``, ``category``
    (an index into ``spec.categories``), ``kind`` (frame differences only,
    an index into :data:`FRAME_DIFF_KINDS`), and ``recovered`` or ``value``.
    """

    relative_error: dict[str, np.ndarray]
    frame_difference: dict[str, np.ndarray]
    recovery: dict[str, np.ndarray]


_DTYPES = dict(frame=np.int64, kind=np.int64, category=np.int64, recovered=bool, value=float)


def _rows(category: np.ndarray, **columns) -> dict[str, np.ndarray]:
    """One frame's rows of a table; a scalar column repeats along ``category``."""
    repeated = {name: np.broadcast_to(v, category.shape) for name, v in columns.items()}
    return {"category": category, **repeated}


def _columns(chunks: list[dict[str, np.ndarray]], names: Sequence[str]) -> dict[str, np.ndarray]:
    """A table's per-frame rows joined into typed columns, empty ones included."""
    return {n: np.concatenate([np.zeros(0, _DTYPES[n]), *(c[n] for c in chunks)]) for n in names}


def _score(
    gt_frames: dict[int, list[Pose]],
    pred_frames: dict[int, np.ndarray],
    spec: SkeletonSpec,
    max_distance: float,
    coord_scale: float,
) -> tuple[EvalReport, EvalSeries]:
    """Pair and score prediction arrays over ``spec.categories`` per frame."""
    missing = sorted(set(pred_frames) - set(gt_frames))
    if missing:
        raise ValueError(f"predictions reference frames without ground truth: {missing[:5]}")

    report = EvalReport(frames=len(gt_frames))
    recovery, errors = [], []  # per-frame rows of the two tables
    for frame_index, gt_poses in sorted(gt_frames.items()):
        gt = _pose_array(gt_poses, spec.categories)
        pred = pred_frames.get(frame_index, gt[:0])  # no predictions: no rows
        pairs = _pair_arrays(gt, pred, max_distance, coord_scale)
        report.paired += len(pairs)
        report.unpaired_gt += len(gt) - len(pairs)
        report.unpaired_pred += len(pred) - len(pairs)
        gt_rows, pred_rows = np.array(pairs, dtype=np.intp).reshape(-1, 2).T

        # every present truth keypoint, in pose order, recovered when its pair has it
        present = ~np.isnan(gt[..., 0])
        found = np.zeros_like(present)
        found[gt_rows] = ~np.isnan(pred[pred_rows, :, 0])
        recovery.append(_rows(np.nonzero(present)[1], frame=frame_index, recovered=found[present]))

        # category by category, in pair order; a pair without a positive truth scale has none
        scales = np.array([skeleton_scale(spec, gt_poses[i]) or 0.0 for i in gt_rows])
        scaled = scales > 0.0
        for _ in range(len(scales) - np.count_nonzero(scaled)):
            log.warning("skipping pair with undefined ground-truth scale")
        diff = pred[pred_rows[scaled]] - gt[gt_rows[scaled]]
        error = (np.hypot(diff[..., 0], diff[..., 1]) / scales[scaled, None]).T
        sampled = ~np.isnan(error)
        errors.append(_rows(np.nonzero(sampled)[0], frame=frame_index, value=error[sampled]))

    series = EvalSeries(
        relative_error=_columns(errors, ("frame", "category", "value")),
        frame_difference=_columns([], ("frame", "kind", "category", "value")),
        recovery=_columns(recovery, ("frame", "category", "recovered")),
    )
    codes, hits = series.recovery["category"], series.recovery["recovered"]
    total = np.bincount(codes, minlength=len(spec.categories))
    recovered = np.bincount(codes[hits], minlength=len(spec.categories))
    report.eta = {
        cat: int(recovered[c]) / int(total[c]) if total[c] else None
        for c, cat in enumerate(spec.categories)
    }
    report.eta_overall = int(hits.sum()) / len(hits) if len(hits) else None
    codes, values = series.relative_error["category"], series.relative_error["value"]
    report.relative_error = {
        cat: ErrorStats.from_samples(values[codes == c]) for c, cat in enumerate(spec.categories)
    }
    return report, series


def evaluate_poses(
    gt_frames: dict[int, list[Pose]],
    pred_frames: dict[int, list[Pose]],
    spec: SkeletonSpec,
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> tuple[EvalReport, EvalSeries]:
    """Pair and score predicted skeletons against ground truth per frame."""
    pred_arrays = {f: _pose_array(poses, spec.categories) for f, poses in pred_frames.items()}
    return _score(gt_frames, pred_arrays, spec, max_distance, coord_scale)


def evaluate_tracks(
    gt_frames: dict[int, list[Pose]],
    outputs: Sequence[TrackOutput],
    spec: SkeletonSpec,
    max_distance: float = DEFAULT_PAIR_GATE,
    coord_scale: float = 1.0,
) -> tuple[EvalReport, EvalSeries]:
    """Score tracker output (posterior poses) and add smoothness metrics.

    Smoothness is how far each keypoint of a tracklet moves from frame
    ``f`` to ``f + 1``, observed and posterior apart.  Outputs further
    apart are not compared: the tracker takes a gap for elapsed empty
    frames, so the move across it is not one frame's motion.
    """
    ordered = sorted(outputs, key=lambda out: out.frame_index)
    ids = [np.array([r.tracklet_id for r in out.records], dtype=np.int64) for out in ordered]
    cats = spec.categories
    poses = {
        kind: [_pose_array([getattr(r, kind) for r in out.records], cats) for out in ordered]
        for kind in FRAME_DIFF_KINDS
    }
    pred_frames = {out.frame_index: pose for out, pose in zip(ordered, poses["posterior"])}
    report, series = _score(gt_frames, pred_frames, spec, max_distance, coord_scale)

    diffs: list[dict[str, np.ndarray]] = []
    for n in range(1, len(ordered)):
        frame = ordered[n].frame_index
        if frame != ordered[n - 1].frame_index + 1:
            continue
        _, before, after = np.intersect1d(ids[n - 1], ids[n], return_indices=True)
        order = np.argsort(after)  # the later frame's record order
        for code, kind in enumerate(FRAME_DIFF_KINDS):
            step = poses[kind][n][after[order]] - poses[kind][n - 1][before[order]]
            moved = np.hypot(step[..., 0], step[..., 1]).T
            kept = ~np.isnan(moved)
            diffs.append(_rows(np.nonzero(kept)[0], frame=frame, kind=code, value=moved[kept]))
    series.frame_difference = table = _columns(diffs, ("frame", "kind", "category", "value"))
    report.frame_diff_quantiles = {
        kind: {
            cat: quantiles(table["value"][(table["kind"] == code) & (table["category"] == c)])
            for c, cat in enumerate(spec.categories)
        }
        for code, kind in enumerate(FRAME_DIFF_KINDS)
    }
    return report, series
