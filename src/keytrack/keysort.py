"""KeySORT: skeleton tracking with relative-keypoint Kalman states.

Each tracklet's filter state holds the root position plus one offset
vector per non-root category along its tree connection, followed by the
velocities of all of those quantities.  Detected poses are measured in
those same coordinates (root absolute, offsets relative to the detected
parent), and missing keypoints reduce to dropped observation rows.
Emitted prior and posterior poses convert back to absolute coordinates
by summing offsets along the tree.  Frame association matches observed
skeletons to predicted ones by mean keypoint distance, gated in pixels.

Because every measured dimension is a state dimension, each (position,
velocity) pair evolves on its own and the covariance is block-diagonal
with 2x2 blocks.  The tracker therefore holds all live tracklets' filters
in one :class:`keytrack.kalman.FilterBank` and advances them together;
the adaptive factor alpha, a ratio of traces, is the only quantity that
spans a tracklet's dimensions, and traces are sums over blocks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assignment import hungarian
from .kalman import FilterBank, predict, update_adaptive
from .skeleton import Pose, SkeletonSpec, XY, require_valid_spec

log = logging.getLogger(__name__)

# noise factors of the reference configuration: R is ``r_star`` times
# R_SCALE, the process variances are the mean of R times Q_POS_FACTOR and
# Q_VEL_FACTOR, and the initial variances are those times P0_FACTOR
R_SCALE = 1e-2
Q_POS_FACTOR = 1e-5
Q_VEL_FACTOR = 1e-7
P0_FACTOR = 1e10


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking constants; defaults follow the reference configuration."""

    gate_px: float = 25.0
    max_missed: int = 3
    maturity_age: int = 3
    impute_max_consecutive: int = 2
    impute_min_freq: float = 0.5
    freq_memory: float = 0.8
    sign_window: int = 8
    # factor mapping working coordinates to original-image pixels; the
    # association gate is defined on the original image
    coord_scale: float = 1.0

    def __post_init__(self) -> None:
        # written as "not ... > 0" so that NaN fails too
        if not self.gate_px > 0:
            raise ValueError(f"gate_px must be positive, got {self.gate_px}")
        if self.max_missed < 0 or self.maturity_age < 0:
            raise ValueError("lifecycle thresholds must be non-negative")
        if not 0.0 <= self.freq_memory < 1.0:
            raise ValueError("freq_memory must be in [0, 1)")
        if self.sign_window < 1:
            raise ValueError("sign_window must be at least 1")
        if not 0.0 < self.coord_scale < math.inf:
            raise ValueError(f"coord_scale must be positive and finite, got {self.coord_scale}")


def running_freq(previous: float, observed: bool, memory: float = 0.8) -> float:
    """Exponential running observation frequency."""
    return (1.0 - memory) * (1.0 if observed else 0.0) + memory * previous


def psi(observed: Pose, predicted: Pose) -> Optional[float]:
    """Mean distance over the categories present in the observation."""
    total = 0.0
    count = 0
    for category in observed.coords:
        obs_xy = observed.get(category)
        pred_xy = predicted.get(category)
        if obs_xy is None or pred_xy is None:
            continue
        total += math.hypot(obs_xy[0] - pred_xy[0], obs_xy[1] - pred_xy[1])
        count += 1
    if count == 0:
        return None
    return total / count


def _psi_costs(observed: np.ndarray, predicted: np.ndarray, coord_scale: float) -> np.ndarray:
    """Every :func:`psi` between two pose arrays at once, scaled to pixels.

    ``observed`` is (N, K, 2) and ``predicted`` (T, K, 2), NaN where a
    keypoint is missing.  Returns the (N, T) cost matrix, ``inf`` where a
    pair shares no category.
    """
    diff = observed[:, None] - predicted[None]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    shared = ~np.isnan(dist)
    count = shared.sum(axis=-1)
    total = np.where(shared, dist, 0.0).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = total / count * coord_scale
    return np.where(count > 0, cost, np.inf)


class TrackerModel:
    """Index bookkeeping and per-axis noise for one skeleton layout.

    Positions are held in observation order, (..., K, 2) over the skeleton's
    categories: the root in absolute coordinates and every other category
    as an offset from its tree parent, each with a velocity beside it.
    Measurements live in those same coordinates, so each (position,
    velocity) pair is a filter of its own.  Updating against absolute
    coordinates instead would couple the root with every offset, and the
    learned anti-correlation would then drag undetected offsets toward
    their old absolute positions when the animal moves, which is exactly
    the artefact relative tracking is meant to remove.

    The noise is uniform except for R: ``r_row`` holds the measurement
    variance of each observation row, and ``q_pos``, ``q_vel``, ``p0_pos``
    and ``p0_vel`` are the process and initial variances of every position
    and velocity.
    """

    def __init__(self, spec: SkeletonSpec, r_star):
        require_valid_spec(spec)
        self.spec = spec
        categories = spec.categories
        ncat = len(categories)
        self.obs_dim = 2 * ncat

        r_star = np.asarray(r_star, dtype=np.float64)
        if r_star.shape == (ncat,):
            r_star = np.repeat(r_star, 2)
        if r_star.shape != (2 * ncat,):
            raise ValueError(
                f"r_star must have {ncat} or {2 * ncat} entries, got {r_star.shape}"
            )
        if not (np.isfinite(r_star) & (r_star > 0)).all():
            raise ValueError("r_star variances must be positive and finite")

        self.r_row = r_star * R_SCALE
        sigma_bar = float(np.mean(self.r_row))
        self.q_pos = sigma_bar * Q_POS_FACTOR
        self.q_vel = sigma_bar * Q_VEL_FACTOR
        self.p0_pos = self.q_pos * P0_FACTOR
        self.p0_vel = self.q_vel * P0_FACTOR

        self._index = {cat: i for i, cat in enumerate(categories)}
        self._root = self._index[spec.root]
        # (child, parent) category indices, parents first
        self._chain = [
            (self._index[child], self._index[parent]) for parent, child in spec.tree_order
        ]
        self._children, self._parents = np.array(self._chain, dtype=np.intp).T
        # (D, 2) category indices of each dominant connection's endpoints
        self._dominant = np.array(
            [(self._index[parent], self._index[child]) for parent, child in spec.dominant],
            dtype=np.intp,
        )

    def absolute(self, offsets: np.ndarray) -> np.ndarray:
        """Absolute keypoint positions from (..., K, 2) state positions."""
        coords = offsets.copy()
        for child, parent in self._chain:
            coords[..., child, :] = coords[..., parent, :] + offsets[..., child, :]
        return coords

    def measurements(self, observed: np.ndarray) -> np.ndarray:
        """Measured state positions of (N, K, 2) observed poses.

        The root measures its absolute coordinates; every other category
        measures its offset from its tree parent, which requires both
        endpoints to be detected.  Unmeasurable entries are NaN.
        """
        rows = observed.copy()
        rows[:, self._children] -= observed[:, self._parents]
        return rows

    def birth_positions(self, observed: np.ndarray) -> np.ndarray:
        """(B, 2K) first-observation state positions of (B, K, 2) valid poses.

        Walking the tree from the root, a category's offset is its detection
        minus its parent's implied position (the root plus the offsets on the
        way) when it is detected, so it is born where it was seen even when
        its parent was not, and 0 otherwise.
        """
        detected = ~np.isnan(observed[..., 0])
        offsets = np.zeros_like(observed)
        offsets[:, self._root] = observed[:, self._root]
        implied = offsets.copy()
        for child, parent in self._chain:
            offset = np.where(detected[:, child, None], observed[:, child] - implied[:, parent], 0.0)
            offsets[:, child] = offset
            implied[:, child] = implied[:, parent] + offset
        return offsets.reshape(len(observed), self.obs_dim)

    def valid(self, observed: np.ndarray) -> np.ndarray:
        """(N,) :func:`keytrack.skeleton.is_valid_pose` of (N, K, 2) observed
        poses: the root is present, and so are both ends of some dominant
        connection."""
        present = ~np.isnan(observed[..., 0])
        return present[:, self._root] & present[:, self._dominant].all(axis=2).any(axis=1)

    def observed_array(self, poses: Sequence[Pose], frame_index: int = 0) -> np.ndarray:
        """(N, K, 2) coordinates of the skeleton's categories, NaN where absent.

        Raises ``ValueError`` naming the frame, pose and category for a
        category outside the skeleton or a non-finite coordinate.
        """
        index = self._index
        width = 2 * len(index)
        rows = []
        for n, pose in enumerate(poses):
            row = [math.nan] * width
            for category, xy in pose.coords.items():
                k = index.get(category)
                if k is None:
                    raise ValueError(
                        f"frame {frame_index} pose {n} has unknown category {category!r}"
                    )
                if xy is None:
                    continue
                x, y = float(xy[0]), float(xy[1])
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(
                        f"frame {frame_index} pose {n} keypoint {category!r} "
                        f"has a non-finite coordinate ({x}, {y})"
                    )
                row[2 * k] = x
                row[2 * k + 1] = y
            rows.append(row)
        return np.array(rows, dtype=np.float64).reshape(len(poses), len(index), 2)


@dataclass
class Tracklet:
    """Lifecycle of one tracked skeleton instance; its filter lives in the tracker."""

    tracklet_id: int
    age: int = 0
    missed: int = 0
    freq: dict[str, float] = field(default_factory=dict)
    last_seen: dict[str, Optional[int]] = field(default_factory=dict)


@dataclass
class TrackletFrameRecord:
    """Per-frame emitted state of one tracklet."""

    tracklet_id: int
    observed: Pose
    prior: Optional[Pose]
    posterior: Pose
    imputed: frozenset[str]
    alpha: Optional[float]
    gamma: Optional[float]
    psi: Optional[float]


@dataclass
class TrackOutput:
    frame_index: int
    records: list[TrackletFrameRecord] = field(default_factory=list)


class KeySortTracker:
    """Frame-by-frame tracker; tracklet ids are never reused.

    Frame indices must increase from call to call.  A gap of k frames is
    tracked as k - 1 empty frames followed by the given one: the filters
    predict once per elapsed frame, and misses count per frame.
    """

    def __init__(self, spec: SkeletonSpec, r_star, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.model = model = TrackerModel(spec, r_star)
        self.spec = model.spec
        self.tracklets: list[Tracklet] = []
        self._filters = FilterBank(
            model.r_row, (model.q_pos, model.q_vel), (model.p0_pos, model.p0_vel),
            config.sign_window,
        )
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def _validated(self, poses: Sequence[Pose], frame_index: int) -> np.ndarray:
        """Observed array of the frame's poses; raises on unusable input."""
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame {frame_index} does not follow frame {self._last_frame}: "
                "frame indices must increase"
            )
        observed = self.model.observed_array(poses, frame_index)
        invalid = np.flatnonzero(~self.model.valid(observed))
        if invalid.size:
            raise ValueError(
                f"frame {frame_index} pose {invalid[0]} is invalid "
                "(missing root or all dominant connections)"
            )
        return observed

    def step(self, poses: Sequence[Pose], frame_index: int) -> TrackOutput:
        """Advance to ``frame_index``; returns records for matched and new tracklets."""
        observed = self._validated(poses, frame_index)
        if self._last_frame is not None:
            for skipped in range(self._last_frame + 1, frame_index):
                if not self.tracklets:
                    break
                self._advance([], observed[:0], skipped)
        self._last_frame = frame_index
        return self._advance(poses, observed, frame_index)

    def _advance(
        self, poses: Sequence[Pose], observed: np.ndarray, frame_index: int
    ) -> TrackOutput:
        """One frame of predict, associate, update and lifecycle."""
        config = self.config
        categories = self.spec.categories
        debug = log.isEnabledFor(logging.DEBUG)
        filters = self._filters
        predict(filters)

        records: list[TrackletFrameRecord] = []
        matched_obs: set[int] = set()
        matched_trk: set[int] = set()
        if poses and self.tracklets:
            positions = filters.mean[..., 0].reshape(len(self.tracklets), len(categories), 2)
            priors = self.model.absolute(positions)
            cost = _psi_costs(observed, priors, config.coord_scale)
            pairs = hungarian(cost, gate=config.gate_px)
            if pairs:
                obs_rows = np.array([i for i, _ in pairs], dtype=np.intp)
                trk_rows = np.array([j for _, j in pairs], dtype=np.intp)
                z = self.model.measurements(observed[obs_rows]).reshape(len(pairs), -1)
                alpha, gamma = update_adaptive(filters, trk_rows, z)
                posteriors = self.model.absolute(
                    filters.mean[trk_rows, :, 0].reshape(len(pairs), len(categories), 2)
                ).tolist()
                prior_rows = priors[trk_rows].tolist()
                present_rows = (~np.isnan(observed[obs_rows, :, 0])).tolist()
                alpha, gamma = alpha.tolist(), gamma.tolist()
            for m, (i, j) in enumerate(pairs):
                matched_obs.add(i)
                matched_trk.add(j)
                tracklet = self.tracklets[j]
                pose = poses[i]
                tracklet.age += 1
                tracklet.missed = 0
                if debug and tracklet.age == config.maturity_age:
                    log.debug("frame %d: tracklet %d matured", frame_index, tracklet.tracklet_id)
                prior = Pose(
                    coords={c: tuple(xy) for c, xy in zip(categories, prior_rows[m])},
                    frame_index=frame_index,
                )
                emitted: dict[str, Optional[XY]] = {}
                imputed: set[str] = set()
                for cat, post_xy, present in zip(categories, posteriors[m], present_rows[m]):
                    tracklet.freq[cat] = running_freq(
                        tracklet.freq[cat], present, config.freq_memory
                    )
                    if present:
                        tracklet.last_seen[cat] = frame_index
                        emitted[cat] = tuple(post_xy)
                        continue
                    last = tracklet.last_seen[cat]
                    if (
                        last is not None
                        and frame_index - last <= config.impute_max_consecutive
                        and tracklet.freq[cat] > config.impute_min_freq
                    ):
                        emitted[cat] = prior.coords[cat]
                        imputed.add(cat)
                    else:
                        emitted[cat] = None
                records.append(
                    TrackletFrameRecord(
                        tracklet_id=tracklet.tracklet_id,
                        observed=pose,
                        prior=prior,
                        posterior=Pose(coords=emitted, frame_index=frame_index),
                        imputed=frozenset(imputed),
                        alpha=alpha[m],
                        gamma=gamma[m],
                        psi=float(cost[i, j]),
                    )
                )

        keep: list[int] = []
        survivors: list[Tracklet] = []
        for j, tracklet in enumerate(self.tracklets):
            if j in matched_trk:
                reason = None
            elif tracklet.age < config.maturity_age:
                reason = "young-miss"  # young tracklets do not survive a miss
            else:
                tracklet.missed += 1
                reason = "max-missed" if tracklet.missed > config.max_missed else None
            if reason is None:
                keep.append(j)
                survivors.append(tracklet)
            elif debug:
                log.debug(
                    "frame %d: tracklet %d terminated (%s)",
                    frame_index, tracklet.tracklet_id, reason,
                )

        born = [i for i in range(len(poses)) if i not in matched_obs]
        states = np.zeros((0, self.model.obs_dim))
        if born:  # the walk costs tens of microseconds even without poses
            states = self.model.birth_positions(observed[born])
        posteriors = self.model.absolute(states.reshape(len(born), len(categories), 2))
        for i, posterior in zip(born, posteriors.tolist()):
            pose = poses[i]
            tracklet = Tracklet(tracklet_id=self._next_id)
            self._next_id += 1
            emitted = {}
            for cat, xy in zip(categories, posterior):
                present = pose.present(cat)
                tracklet.freq[cat] = 1.0 if present else 0.0
                tracklet.last_seen[cat] = frame_index if present else None
                emitted[cat] = tuple(xy) if present else None
            if debug:
                log.debug("frame %d: tracklet %d born", frame_index, tracklet.tracklet_id)
                if config.maturity_age == 0:
                    log.debug("frame %d: tracklet %d matured", frame_index, tracklet.tracklet_id)
            records.append(
                TrackletFrameRecord(
                    tracklet_id=tracklet.tracklet_id,
                    observed=pose,
                    prior=None,
                    posterior=Pose(coords=emitted, frame_index=frame_index),
                    imputed=frozenset(),
                    alpha=None,
                    gamma=None,
                    psi=None,
                )
            )
            survivors.append(tracklet)

        if len(keep) != len(self.tracklets) or born:
            filters.resize(keep, states)
        self.tracklets = survivors
        records.sort(key=lambda record: record.tracklet_id)
        return TrackOutput(frame_index=frame_index, records=records)
