"""Reference KeySORT tracker: one dense adaptive Kalman filter per tracklet.

This is the per-tracklet tracker that ``keytrack.keysort`` replaced with a
batched per-axis filter, kept unchanged as the parity oracle.

Each tracklet's filter state holds the root position plus one offset
vector per non-root category along its tree connection, followed by the
velocities of all of those quantities.  Detected poses are measured in
those same coordinates (root absolute, offsets relative to the detected
parent), and missing keypoints reduce to dropped observation rows.
Emitted prior and posterior poses convert back to absolute coordinates
by summing offsets along the tree.  Frame association matches observed
skeletons to predicted ones by mean keypoint distance, gated in pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from keytrack.assignment import hungarian
from keytrack.skeleton import Pose, SkeletonSpec, XY, is_valid_pose, require_valid_spec
from kalman_oracle import (
    FilterModel,
    FilterState,
    initial_state,
    predict,
    update_adaptive,
)


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking constants; defaults follow the reference configuration."""

    gate_px: float = 25.0
    max_missed: int = 3
    maturity_age: int = 3
    impute_max_consecutive: int = 2
    impute_min_freq: float = 0.5
    freq_memory: float = 0.8
    r_scale: float = 1e-2
    q_pos_factor: float = 1e-5
    q_vel_factor: float = 1e-7
    p0_factor: float = 1e10
    sign_window: int = 8
    # factor mapping working coordinates to original-image pixels; the
    # association gate is defined on the original image
    coord_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.gate_px <= 0:
            raise ValueError("gate_px must be positive")
        if self.max_missed < 0 or self.maturity_age < 0:
            raise ValueError("lifecycle thresholds must be non-negative")
        if not 0.0 <= self.freq_memory < 1.0:
            raise ValueError("freq_memory must be in [0, 1)")
        if self.r_scale <= 0 or self.q_pos_factor <= 0 or self.q_vel_factor <= 0:
            raise ValueError("noise factors must be positive")
        if self.p0_factor <= 0:
            raise ValueError("p0_factor must be positive")
        if self.sign_window < 1:
            raise ValueError("sign_window must be at least 1")
        if self.coord_scale <= 0:
            raise ValueError("coord_scale must be positive")


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


class TrackerModel:
    """Filter model plus the index bookkeeping for one skeleton layout."""

    def __init__(self, spec: SkeletonSpec, r_star, config: TrackerConfig):
        require_valid_spec(spec)
        self.spec = spec
        self.config = config
        categories = spec.categories
        ncat = len(categories)
        self.non_root = tuple(c for c in categories if c != spec.root)

        # state layout: root x/y, per non-root category offset x/y, then
        # the velocities of all position dimensions in the same order
        self.pos_slot: dict[str, int] = {spec.root: 0}
        for j, cat in enumerate(self.non_root):
            self.pos_slot[cat] = 2 + 2 * j
        half = 2 * ncat
        self.state_dim = 2 * half
        self.obs_dim = 2 * ncat

        r_star = np.asarray(r_star, dtype=np.float64)
        if r_star.shape == (ncat,):
            r_star = np.repeat(r_star, 2)
        if r_star.shape != (2 * ncat,):
            raise ValueError(
                f"r_star must have {ncat} or {2 * ncat} entries, got {r_star.shape}"
            )
        if (r_star <= 0).any():
            raise ValueError("r_star variances must be positive")

        R = np.diag(r_star * config.r_scale)
        sigma_bar = float(np.mean(np.diag(R)))
        q_diag = np.concatenate(
            [
                np.full(half, sigma_bar * config.q_pos_factor),
                np.full(half, sigma_bar * config.q_vel_factor),
            ]
        )
        Q = np.diag(q_diag)
        self.P0 = Q * config.p0_factor

        phi = np.eye(self.state_dim)
        phi[:half, half:] = np.eye(half)

        # Measurements live in the state's own coordinates (root absolute,
        # everything else as an offset from its tree parent), so H selects
        # position dimensions and P stays block-diagonal.  Updating against
        # absolute coordinates instead couples the root with every offset,
        # and the learned anti-correlation then drags undetected offsets
        # toward their old absolute positions when the animal moves, which
        # is exactly the artefact relative tracking is meant to remove.
        H = np.zeros((self.obs_dim, self.state_dim))
        for i, cat in enumerate(categories):
            for axis in (0, 1):
                H[2 * i + axis, self.pos_slot[cat] + axis] = 1.0
        self.model = FilterModel(phi=phi, H=H, Q=Q, R=R)

        self._rank_order = sorted(self.non_root, key=lambda c: spec.ranks[c])

    def project(self, x: np.ndarray, frame_index: int = 0) -> Pose:
        """Full predicted pose (every category) from a state vector."""
        coords: dict[str, Optional[XY]] = {}
        root_xy = (float(x[0]), float(x[1]))
        coords[self.spec.root] = root_xy
        for cat in self._rank_order:
            parent_xy = coords[self.spec.parent_of[cat]]
            slot = self.pos_slot[cat]
            coords[cat] = (parent_xy[0] + float(x[slot]), parent_xy[1] + float(x[slot + 1]))
        ordered = {c: coords[c] for c in self.spec.categories}
        return Pose(coords=ordered, frame_index=frame_index)

    def make_observation(self, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
        """Observed-dimension vector and the observation mask for a pose.

        The root measures its absolute coordinates; every other category
        measures its offset from its tree parent, which requires both
        endpoints to be detected.  Unmeasurable rows are masked out
        (removing the H rows and R rows/columns during the update).
        """
        mask = np.zeros(self.obs_dim, dtype=bool)
        values: list[float] = []
        for i, cat in enumerate(self.spec.categories):
            xy = pose.get(cat)
            if xy is None:
                continue
            if cat == self.spec.root:
                mask[2 * i] = True
                mask[2 * i + 1] = True
                values.extend(xy)
                continue
            parent_xy = pose.get(self.spec.parent_of[cat])
            if parent_xy is None:
                continue
            mask[2 * i] = True
            mask[2 * i + 1] = True
            values.append(xy[0] - parent_xy[0])
            values.append(xy[1] - parent_xy[1])
        return np.array(values, dtype=np.float64), mask

    def init_state_vector(self, pose: Pose) -> np.ndarray:
        """First-observation state: offsets from implied parent positions.

        An observed keypoint's offset is measured from its parent's implied
        position, observed or not; offsets of unobserved keypoints and all
        velocities start at zero.
        """
        x = np.zeros(self.state_dim)
        root_xy = pose.get(self.spec.root)
        if root_xy is None:
            raise ValueError("cannot initiate a tracklet without the root keypoint")
        x[0] = root_xy[0]
        x[1] = root_xy[1]
        implied: dict[str, XY] = {self.spec.root: root_xy}
        for cat in self._rank_order:
            parent = self.spec.parent_of[cat]
            xy = pose.get(cat)
            parent_xy = implied[parent]
            if xy is not None:
                delta = (xy[0] - parent_xy[0], xy[1] - parent_xy[1])
            else:
                delta = (0.0, 0.0)
            slot = self.pos_slot[cat]
            x[slot] = delta[0]
            x[slot + 1] = delta[1]
            implied[cat] = (parent_xy[0] + delta[0], parent_xy[1] + delta[1])
        return x


def build_model(spec: SkeletonSpec, r_star, config: TrackerConfig = TrackerConfig()) -> TrackerModel:
    return TrackerModel(spec, r_star, config)


@dataclass
class Tracklet:
    """One tracked skeleton instance."""

    tracklet_id: int
    state: FilterState
    created_frame: int
    age: int = 0
    missed: int = 0
    freq: dict[str, float] = field(default_factory=dict)
    last_seen: dict[str, Optional[int]] = field(default_factory=dict)
    prior_pose: Optional[Pose] = None


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
    """Frame-by-frame tracker; tracklet ids are never reused."""

    def __init__(self, spec: SkeletonSpec, r_star, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.model = build_model(spec, r_star, config)
        self.spec = self.model.spec
        self.tracklets: list[Tracklet] = []
        self._next_id = 1

    def _initiate(self, pose: Pose, frame_index: int) -> Tracklet:
        x0 = self.model.init_state_vector(pose)
        state = initial_state(
            self.model.model, x0, self.model.P0, sign_window=self.config.sign_window
        )
        tracklet = Tracklet(
            tracklet_id=self._next_id,
            state=state,
            created_frame=frame_index,
        )
        self._next_id += 1
        for cat in self.spec.categories:
            observed = pose.present(cat)
            tracklet.freq[cat] = 1.0 if observed else 0.0
            tracklet.last_seen[cat] = frame_index if observed else None
        return tracklet

    def _posterior_record(
        self,
        tracklet: Tracklet,
        pose: Pose,
        frame_index: int,
        matched_psi: Optional[float],
    ) -> TrackletFrameRecord:
        posterior_full = self.model.project(tracklet.state.x, frame_index)
        emitted: dict[str, Optional[XY]] = {}
        imputed: set[str] = set()
        prior = tracklet.prior_pose
        for cat in self.spec.categories:
            if pose.present(cat):
                emitted[cat] = posterior_full.get(cat)
                continue
            last = tracklet.last_seen[cat]
            recent = (
                last is not None
                and frame_index - last <= self.config.impute_max_consecutive
            )
            if (
                prior is not None
                and recent
                and tracklet.freq[cat] > self.config.impute_min_freq
            ):
                emitted[cat] = prior.get(cat)
                imputed.add(cat)
            else:
                emitted[cat] = None
        return TrackletFrameRecord(
            tracklet_id=tracklet.tracklet_id,
            observed=pose,
            prior=prior,
            posterior=Pose(coords=emitted, frame_index=frame_index),
            imputed=frozenset(imputed),
            alpha=tracklet.state.last_alpha,
            gamma=tracklet.state.last_gamma,
            psi=matched_psi,
        )

    def step(self, poses: Sequence[Pose], frame_index: int) -> TrackOutput:
        """Advance one frame; returns records for matched and new tracklets."""
        for index, pose in enumerate(poses):
            for category, xy in pose.coords.items():
                if xy is not None and not (math.isfinite(xy[0]) and math.isfinite(xy[1])):
                    raise ValueError(
                        f"frame {frame_index} pose {index} keypoint {category!r} "
                        f"has a non-finite coordinate ({xy[0]}, {xy[1]})"
                    )
            if not is_valid_pose(self.spec, pose):
                raise ValueError(
                    f"frame {frame_index} pose {index} is invalid "
                    "(missing root or all dominant connections)"
                )

        for tracklet in self.tracklets:
            predict(self.model.model, tracklet.state)
            tracklet.prior_pose = self.model.project(tracklet.state.x, frame_index)

        records: list[TrackletFrameRecord] = []
        matched_obs: set[int] = set()
        matched_trk: set[int] = set()
        if poses and self.tracklets:
            cost = np.empty((len(poses), len(self.tracklets)))
            for i, pose in enumerate(poses):
                for j, tracklet in enumerate(self.tracklets):
                    distance = psi(pose, tracklet.prior_pose)
                    cost[i, j] = (
                        np.inf if distance is None else distance * self.config.coord_scale
                    )
            for i, j in hungarian(cost, gate=self.config.gate_px):
                matched_obs.add(i)
                matched_trk.add(j)
                tracklet = self.tracklets[j]
                pose = poses[i]
                z, mask = self.model.make_observation(pose)
                update_adaptive(self.model.model, tracklet.state, z, mask)
                tracklet.age += 1
                tracklet.missed = 0
                for cat in self.spec.categories:
                    observed = pose.present(cat)
                    tracklet.freq[cat] = running_freq(
                        tracklet.freq[cat], observed, self.config.freq_memory
                    )
                    if observed:
                        tracklet.last_seen[cat] = frame_index
                records.append(
                    self._posterior_record(tracklet, pose, frame_index, float(cost[i, j]))
                )

        survivors: list[Tracklet] = []
        for j, tracklet in enumerate(self.tracklets):
            if j in matched_trk:
                survivors.append(tracklet)
            elif tracklet.age < self.config.maturity_age:
                continue  # young tracklets do not survive a miss
            else:
                tracklet.missed += 1
                if tracklet.missed <= self.config.max_missed:
                    survivors.append(tracklet)

        for i, pose in enumerate(poses):
            if i in matched_obs:
                continue
            tracklet = self._initiate(pose, frame_index)
            posterior = self.model.project(tracklet.state.x, frame_index)
            emitted = {
                cat: (posterior.get(cat) if pose.present(cat) else None)
                for cat in self.spec.categories
            }
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

        self.tracklets = survivors
        records.sort(key=lambda record: record.tracklet_id)
        return TrackOutput(frame_index=frame_index, records=records)
