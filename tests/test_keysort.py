import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keysort_oracle
from keytrack.keysort import (
    KeySortTracker,
    TrackerConfig,
    TrackerModel,
    _psi_costs,
    psi,
    running_freq,
)
from keytrack.simulate import RegimeSegment, ScenarioConfig, corrupt, generate
from keytrack.skeleton import Pose, SkeletonSpec, is_valid_pose

from conftest import make_pose


def shifted(pose: Pose, dx: float, dy: float, frame_index: int = 0) -> Pose:
    coords = {
        c: (None if xy is None else (xy[0] + dx, xy[1] + dy))
        for c, xy in pose.coords.items()
    }
    return Pose(coords=coords, frame_index=frame_index)


def without(pose: Pose, *categories: str) -> Pose:
    coords = dict(pose.coords)
    for cat in categories:
        coords[cat] = None
    return Pose(coords=coords, frame_index=pose.frame_index)


@pytest.fixture()
def tracker(spec):
    return KeySortTracker(spec, np.ones(len(spec.categories)))


class TestConfigValidation:
    def test_defaults_valid(self):
        config = TrackerConfig()
        assert config.gate_px == 25.0
        assert config.max_missed == 3
        assert config.maturity_age == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gate_px": 0.0},
            {"max_missed": -1},
            {"maturity_age": -1},
            {"freq_memory": 1.0},
            {"freq_memory": -0.1},
            {"sign_window": 0},
            {"coord_scale": 0.0},
            {"gate_px": math.nan},
            {"coord_scale": math.nan},
            {"coord_scale": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrackerConfig(**kwargs)


class TestRunningFreq:
    def test_observed_blend(self):
        assert running_freq(0.5, True, 0.8) == pytest.approx(0.6)

    def test_missed_decay(self):
        assert running_freq(0.5, False, 0.8) == pytest.approx(0.4)

    def test_converges_to_rate(self):
        freq = 0.0
        for _ in range(200):
            freq = running_freq(freq, True)
        assert freq == pytest.approx(1.0, abs=1e-9)


class TestPsi:
    def test_mean_over_observed(self):
        observed = make_pose(withers=(0, 0), tail_implant=(10, 0))
        predicted = make_pose(withers=(3, 4), tail_implant=(10, 0))
        assert psi(observed, predicted) == pytest.approx(2.5)

    def test_skips_missing_on_either_side(self):
        observed = make_pose(withers=(0, 0), tail_implant=None, head=(5, 5))
        predicted = make_pose(withers=(0, 3), tail_implant=(1, 1), head=None)
        assert psi(observed, predicted) == pytest.approx(3.0)

    def test_none_when_no_shared_categories(self):
        observed = make_pose(withers=None, tail_implant=(1, 1))
        predicted = make_pose(withers=(0, 0), tail_implant=None)
        assert psi(observed, predicted) is None


class TestTrackerModel:
    """The dense 4K-state layout, kept in the oracle the tracker is checked against."""

    def test_dimensions(self, spec):
        model = keysort_oracle.build_model(spec, np.ones(6))
        assert model.state_dim == 24
        assert model.model.phi.shape == (24, 24)
        assert model.obs_dim == 12

    def test_noise_matrices(self, spec):
        model = keysort_oracle.build_model(spec, np.full(6, 2.0))
        R = model.model.R
        np.testing.assert_allclose(np.diag(R), np.full(12, 2.0 * 1e-2))
        sigma_bar = 2.0 * 1e-2
        Q = model.model.Q
        np.testing.assert_allclose(np.diag(Q)[:12], np.full(12, sigma_bar * 1e-5))
        np.testing.assert_allclose(np.diag(Q)[12:], np.full(12, sigma_bar * 1e-7))
        np.testing.assert_allclose(model.P0, Q * 1e10)

    def test_transition_is_constant_velocity(self, spec):
        phi = keysort_oracle.build_model(spec, np.ones(6)).model.phi
        np.testing.assert_array_equal(phi[:12, :12], np.eye(12))
        np.testing.assert_array_equal(phi[:12, 12:], np.eye(12))
        np.testing.assert_array_equal(phi[12:, 12:], np.eye(12))
        np.testing.assert_array_equal(phi[12:, :12], np.zeros((12, 12)))

    def test_H_selects_position_dimensions(self, spec):
        model = keysort_oracle.build_model(spec, np.ones(6))
        H = model.model.H
        assert H.shape == (12, 24)
        # each observation row reads exactly one state dimension
        assert np.all(H.sum(axis=1) == 1.0)
        assert np.all((H == 0.0) | (H == 1.0))
        assert np.all(H[:, 12:] == 0.0)
        for i, cat in enumerate(spec.categories):
            assert H[2 * i, model.pos_slot[cat]] == 1.0
            assert H[2 * i + 1, model.pos_slot[cat] + 1] == 1.0

    def test_per_coordinate_r_star(self, spec):
        r12 = np.arange(1.0, 13.0)
        model = keysort_oracle.build_model(spec, r12)
        np.testing.assert_allclose(np.diag(model.model.R), r12 * 1e-2)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_r_star_must_be_positive_and_finite(self, spec, value):
        r_star = np.ones(6)
        r_star[2] = value
        with pytest.raises(ValueError, match="r_star variances must be positive and finite"):
            TrackerModel(spec, r_star)

    def test_r_star_validation(self, spec):
        with pytest.raises(ValueError, match="entries"):
            TrackerModel(spec, np.ones(5))
        with pytest.raises(ValueError, match="positive"):
            TrackerModel(spec, np.zeros(6))

    def test_init_state_round_trip(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        x = model.init_state_vector(square_pose)
        np.testing.assert_array_equal(x[12:], np.zeros(12))
        recovered = model.project(x, frame_index=3)
        assert recovered.frame_index == 3
        for cat, xy in square_pose.coords.items():
            assert recovered.get(cat) == pytest.approx(xy)

    def test_init_offsets(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        x = model.init_state_vector(square_pose)
        assert (x[0], x[1]) == (100.0, 100.0)
        slot = model.pos_slot
        assert (x[slot["tail_implant"]], x[slot["tail_implant"] + 1]) == (-60.0, 0.0)
        assert (x[slot["head"]], x[slot["head"] + 1]) == (22.0, 0.0)
        assert (x[slot["nose"]], x[slot["nose"] + 1]) == (16.0, 0.0)
        assert (x[slot["left_hip"]], x[slot["left_hip"] + 1]) == (-39.0, 14.0)
        assert (x[slot["right_hip"]], x[slot["right_hip"] + 1]) == (-39.0, -14.0)

    def test_init_missing_keypoint_zero_offset(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        x = model.init_state_vector(without(square_pose, "nose"))
        slot = model.pos_slot["nose"]
        assert (x[slot], x[slot + 1]) == (0.0, 0.0)
        # projection then places the nose on its parent
        projected = model.project(x)
        assert projected.get("nose") == pytest.approx(projected.get("head"))

    def test_init_missing_parent_keeps_child_offset(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        x = model.init_state_vector(without(square_pose, "head"))
        assert (x[model.pos_slot["head"]], x[model.pos_slot["head"] + 1]) == (0.0, 0.0)
        # the nose is detected but its parent is not: its offset is taken
        # from the head's implied position, the withers, so it starts where
        # it was seen
        assert (x[model.pos_slot["nose"]], x[model.pos_slot["nose"] + 1]) == (38.0, 0.0)
        assert model.project(x).get("nose") == pytest.approx((138.0, 100.0))

    def test_init_requires_root(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        with pytest.raises(ValueError, match="root"):
            model.init_state_vector(without(square_pose, "withers"))

    def test_make_observation_full(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        z, mask = model.make_observation(square_pose)
        assert mask.all() and mask.shape == (12,)
        np.testing.assert_allclose(
            z,
            [100, 100, -60, 0, 22, 0, 16, 0, -39, 14, -39, -14],
        )

    def test_make_observation_masks_missing(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        z, mask = model.make_observation(without(square_pose, "nose"))
        nose_row = 2 * spec.categories.index("nose")
        assert not mask[nose_row] and not mask[nose_row + 1]
        assert mask.sum() == 10
        assert z.shape == (10,)

    def test_make_observation_needs_detected_parent(self, spec, square_pose):
        model = keysort_oracle.build_model(spec, np.ones(6))
        z, mask = model.make_observation(without(square_pose, "head"))
        head_row = 2 * spec.categories.index("head")
        nose_row = 2 * spec.categories.index("nose")
        # nose is detected, but its offset is unmeasurable without the head
        assert not mask[head_row] and not mask[nose_row]
        assert mask.sum() == 8

    def test_projection_chains_offsets(self, spec):
        model = keysort_oracle.build_model(spec, np.ones(6))
        x = np.zeros(24)
        x[0], x[1] = 50.0, 80.0
        x[model.pos_slot["head"]] = 20.0
        x[model.pos_slot["nose"]] = 15.0
        pose = model.project(x)
        assert pose.get("head") == pytest.approx((70.0, 80.0))
        assert pose.get("nose") == pytest.approx((85.0, 80.0))


def _dense_positions(dense, pose: Pose) -> np.ndarray:
    """The oracle's first-observation state positions in observation order."""
    return dense.init_state_vector(pose)[dense.model.H.argmax(axis=1)]


# root -> a -> b -> c and root -> d, listed out of rank order with the root
# in the middle, so the chain walk cannot lean on the category order
_DEEP_SPEC = SkeletonSpec(
    name="deep-chain",
    categories=("c", "a", "root", "b", "d"),
    root="root",
    connections=(("b", "c"), ("root", "a"), ("a", "b"), ("root", "d")),
    dominant=(("root", "a"), ("root", "d")),
    betas={("root", "a"): 1.0, ("root", "d"): 1.5},
    reference=("root", "a"),
)


class TestPerAxisModel:
    """The per-axis layout the tracker runs, against the dense oracle layout."""

    def test_noise_equals_dense_diagonals(self, spec):
        r_star = np.linspace(0.3, 4.1, 12)
        model = TrackerModel(spec, r_star)
        dense = keysort_oracle.build_model(spec, r_star)
        assert model.obs_dim == 12
        assert model.r_row.tolist() == np.diag(dense.model.R).tolist()
        q, p0 = np.diag(dense.model.Q), np.diag(dense.P0)
        assert set(q[:12].tolist()) == {model.q_pos}
        assert set(q[12:].tolist()) == {model.q_vel}
        assert set(p0[:12].tolist()) == {model.p0_pos}
        assert set(p0[12:].tolist()) == {model.p0_vel}

    def test_birth_positions_of_full_pose(self, spec, square_pose):
        model = TrackerModel(spec, np.ones(6))
        positions = model.birth_positions(model.observed_array([square_pose]))
        assert positions.tolist() == [[100, 100, -60, 0, 22, 0, 16, 0, -39, 14, -39, -14]]

    def test_birth_offset_is_taken_from_implied_parent(self):
        # a is missing, so its implied position is the root's: b's offset is
        # measured from there, and c's from b's detection
        model = TrackerModel(_DEEP_SPEC, np.ones(5))
        pose = make_pose(root=(10.0, 20.0), b=(30.0, 20.0), c=(35.0, 26.0), d=(0.0, 20.0))
        positions = model.birth_positions(model.observed_array([pose])).reshape(5, 2)
        offsets = dict(zip(_DEEP_SPEC.categories, positions.tolist()))
        assert offsets == {
            "root": [10.0, 20.0], "a": [0.0, 0.0], "b": [20.0, 0.0],
            "c": [5.0, 6.0], "d": [-10.0, 0.0],
        }
        dense = keysort_oracle.build_model(_DEEP_SPEC, np.ones(5))
        assert positions.reshape(-1).tolist() == _dense_positions(dense, pose).tolist()


class TestValidity:
    @pytest.mark.parametrize("skeleton", ["default", "deep"])
    def test_valid_matches_is_valid_pose(self, spec, skeleton, rng):
        spec = spec if skeleton == "default" else _DEEP_SPEC
        model = TrackerModel(spec, np.ones(len(spec.categories)))
        for share in (0.2, 0.5, 0.8):
            present = rng.random((200, len(spec.categories))) < share
            poses = [
                Pose(coords={
                    c: (float(k), 1.0) if row[k] else None
                    for k, c in enumerate(spec.categories)
                })
                for row in present
            ]
            expected = [is_valid_pose(spec, pose) for pose in poses]
            assert model.valid(model.observed_array(poses)).tolist() == expected

    def test_first_invalid_pose_named(self, tracker, square_pose):
        bad = without(square_pose, "withers")
        with pytest.raises(ValueError, match="frame 4 pose 1 is invalid"):
            tracker.step([square_pose, bad, bad], frame_index=4)


class TestTrackerStepBasics:
    def test_first_frame_record(self, tracker, square_pose):
        out = tracker.step([square_pose], frame_index=0)
        assert out.frame_index == 0
        assert len(out.records) == 1
        record = out.records[0]
        assert record.tracklet_id == 1
        assert record.prior is None
        assert record.alpha is None and record.gamma is None and record.psi is None
        assert record.imputed == frozenset()
        for cat, xy in square_pose.coords.items():
            assert record.posterior.get(cat) == pytest.approx(xy, abs=1e-3)

    def test_child_of_missing_parent_born_where_seen(self, tracker, square_pose):
        out = tracker.step([without(square_pose, "head")], frame_index=0)
        posterior = out.records[0].posterior
        assert posterior.get("nose") == pytest.approx((138.0, 100.0), abs=1e-3)
        assert posterior.get("head") is None

    def test_first_frame_posterior_restricted_to_observed(self, tracker, square_pose):
        out = tracker.step([without(square_pose, "nose")], frame_index=0)
        assert out.records[0].posterior.get("nose") is None

    def test_stationary_convergence(self, tracker, square_pose):
        for frame in range(30):
            out = tracker.step([square_pose], frame_index=frame)
        record = out.records[0]
        assert record.tracklet_id == 1
        assert record.psi == pytest.approx(0.0, abs=1e-6)
        for cat, xy in square_pose.coords.items():
            assert record.posterior.get(cat) == pytest.approx(xy, abs=1e-6)

    def test_constant_velocity_prior_tracks(self, tracker, square_pose):
        for frame in range(40):
            pose = shifted(square_pose, 3.0 * frame, 1.0 * frame, frame)
            out = tracker.step([pose], frame_index=frame)
        record = out.records[0]
        assert record.tracklet_id == 1
        assert record.psi < 0.5

    def test_psi_is_mean_prior_distance(self, tracker, square_pose):
        tracker.step([square_pose], frame_index=0)
        out = tracker.step([shifted(square_pose, 3.0, 4.0, 1)], frame_index=1)
        assert out.records[0].psi == pytest.approx(5.0, abs=1e-2)

    def test_invalid_pose_rejected(self, tracker, square_pose):
        with pytest.raises(ValueError, match="invalid"):
            tracker.step([without(square_pose, "withers")], frame_index=0)
        with pytest.raises(ValueError, match="invalid"):
            tracker.step(
                [without(square_pose, "tail_implant", "left_hip", "right_hip")],
                frame_index=0,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, tracker, square_pose, bad):
        tracker.step([square_pose], frame_index=0)
        far = shifted(square_pose, 200.0, 0.0, 1)
        nose = square_pose.coords["nose"]
        broken = Pose(coords={**square_pose.coords, "nose": (nose[0], bad)}, frame_index=1)
        with pytest.raises(ValueError, match=r"frame 1 pose 1 keypoint 'nose' has a non-finite"):
            tracker.step([far, broken], frame_index=1)

    def test_single_dominant_connection_accepted(self, tracker, square_pose):
        pose = without(square_pose, "tail_implant", "left_hip", "head", "nose")
        out = tracker.step([pose], frame_index=0)
        assert len(out.records) == 1

    def test_records_sorted_by_id(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6))
        far = shifted(square_pose, 300.0, 0.0)
        tracker.step([square_pose, far], frame_index=0)
        # present observations in the opposite order: ids stay sorted
        out = tracker.step([far, square_pose], frame_index=1)
        assert [r.tracklet_id for r in out.records] == [1, 2]
        assert out.records[0].observed.get("withers") == pytest.approx((100.0, 100.0))

    def test_two_animals_keep_ids(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6))
        a, b = square_pose, shifted(square_pose, 250.0, 0.0)
        for frame in range(10):
            out = tracker.step(
                [shifted(a, frame, 0.0, frame), shifted(b, -frame, 0.0, frame)],
                frame_index=frame,
            )
        ids = {
            round(r.observed.get("withers")[0] / 100): r.tracklet_id
            for r in out.records
        }
        assert sorted(ids.values()) == [1, 2]


class TestGating:
    def test_jump_beyond_gate_starts_new_tracklet(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6), TrackerConfig(gate_px=25.0))
        tracker.step([square_pose], frame_index=0)
        out = tracker.step([shifted(square_pose, 100.0, 0.0, 1)], frame_index=1)
        assert out.records[0].tracklet_id == 2

    def test_jump_within_gate_keeps_id(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6), TrackerConfig(gate_px=25.0))
        tracker.step([square_pose], frame_index=0)
        out = tracker.step([shifted(square_pose, 20.0, 0.0, 1)], frame_index=1)
        assert out.records[0].tracklet_id == 1

    def test_coord_scale_rescales_gate(self, spec, square_pose):
        # a 30 px jump in working coordinates is 15 px on the original image
        # when the working frame is upscaled 0.5x
        config = TrackerConfig(gate_px=25.0, coord_scale=0.5)
        tracker = KeySortTracker(spec, np.ones(6), config)
        tracker.step([square_pose], frame_index=0)
        out = tracker.step([shifted(square_pose, 30.0, 0.0, 1)], frame_index=1)
        assert out.records[0].tracklet_id == 1
        assert out.records[0].psi == pytest.approx(15.0, abs=1e-2)


class TestLifecycle:
    def test_young_tracklet_dies_on_first_miss(self, tracker, square_pose):
        tracker.step([square_pose], frame_index=0)
        tracker.step([square_pose], frame_index=1)
        assert tracker.step([], frame_index=2).records == []
        assert tracker.tracklets == []
        out = tracker.step([square_pose], frame_index=3)
        assert out.records[0].tracklet_id == 2

    def test_mature_tracklet_survives_gaps(self, tracker, square_pose):
        for frame in range(4):
            tracker.step([square_pose], frame_index=frame)
        # age is 3 now; survive up to max_missed consecutive misses
        for frame in range(4, 7):
            out = tracker.step([], frame_index=frame)
            assert out.records == []
            assert len(tracker.tracklets) == 1
        out = tracker.step([square_pose], frame_index=7)
        assert out.records[0].tracklet_id == 1

    def test_mature_tracklet_dies_past_max_missed(self, tracker, square_pose):
        for frame in range(4):
            tracker.step([square_pose], frame_index=frame)
        for frame in range(4, 8):
            tracker.step([], frame_index=frame)
        assert tracker.tracklets == []
        out = tracker.step([square_pose], frame_index=8)
        assert out.records[0].tracklet_id == 2

    def test_miss_counter_resets_on_match(self, tracker, square_pose):
        for frame in range(4):
            tracker.step([square_pose], frame_index=frame)
        tracker.step([], frame_index=4)
        tracker.step([], frame_index=5)
        tracker.step([square_pose], frame_index=6)  # resets missed to 0
        for frame in range(7, 10):
            tracker.step([], frame_index=frame)
        assert len(tracker.tracklets) == 1

    def test_ids_never_reused(self, tracker, square_pose):
        seen = []
        for cycle in range(3):
            base = cycle * 4
            out = tracker.step([square_pose], frame_index=base)
            seen.append(out.records[0].tracklet_id)
            tracker.step([square_pose], frame_index=base + 1)
            tracker.step([], frame_index=base + 2)  # young tracklet dies
            tracker.step([], frame_index=base + 3)
        assert seen == [1, 2, 3]


class TestImputation:
    def warmed_tracker(self, spec, square_pose, frames=10):
        tracker = KeySortTracker(spec, np.ones(6))
        for frame in range(frames):
            tracker.step([square_pose], frame_index=frame)
        return tracker

    def test_recent_frequent_keypoint_imputed(self, spec, square_pose):
        tracker = self.warmed_tracker(spec, square_pose)
        out = tracker.step([without(square_pose, "tail_implant")], frame_index=10)
        record = out.records[0]
        assert record.imputed == frozenset({"tail_implant"})
        assert record.posterior.get("tail_implant") == pytest.approx(
            record.prior.get("tail_implant")
        )

    def test_imputation_stops_after_recency_window(self, spec, square_pose):
        tracker = self.warmed_tracker(spec, square_pose)
        dropped = without(square_pose, "tail_implant")
        r1 = tracker.step([dropped], frame_index=10).records[0]
        r2 = tracker.step([dropped], frame_index=11).records[0]
        r3 = tracker.step([dropped], frame_index=12).records[0]
        assert "tail_implant" in r1.imputed
        assert "tail_implant" in r2.imputed
        assert r3.imputed == frozenset()
        assert r3.posterior.get("tail_implant") is None

    def test_rarely_seen_keypoint_not_imputed(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6))
        # the tail appears on the first frame only: freq decays below 0.5
        tracker.step([square_pose], frame_index=0)
        dropped = without(square_pose, "tail_implant")
        tracker.step([dropped], frame_index=1)
        tracker.step([dropped], frame_index=2)
        out = tracker.step([dropped], frame_index=3)
        record = out.records[0]
        assert record.imputed == frozenset()
        assert record.posterior.get("tail_implant") is None

    def test_observed_keypoint_never_flagged(self, spec, square_pose):
        tracker = self.warmed_tracker(spec, square_pose)
        out = tracker.step([square_pose], frame_index=10)
        assert out.records[0].imputed == frozenset()

    def test_imputation_can_be_disabled(self, spec, square_pose):
        config = TrackerConfig(impute_max_consecutive=0)
        tracker = KeySortTracker(spec, np.ones(6), config)
        for frame in range(10):
            tracker.step([square_pose], frame_index=frame)
        out = tracker.step([without(square_pose, "tail_implant")], frame_index=10)
        assert out.records[0].imputed == frozenset()
        assert out.records[0].posterior.get("tail_implant") is None


class TestShapePreservation:
    def test_prior_keeps_spine_length_through_dropout(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6))
        spine = 60.0
        for frame in range(12):
            tracker.step([shifted(square_pose, 4.0 * frame, 0.0, frame)], frame_index=frame)
        for frame in range(12, 17):
            pose = without(shifted(square_pose, 4.0 * frame, 0.0, frame), "tail_implant")
            out = tracker.step([pose], frame_index=frame)
            prior = out.records[0].prior
            w = prior.get("withers")
            t = prior.get("tail_implant")
            length = math.hypot(w[0] - t[0], w[1] - t[1])
            assert abs(length - spine) / spine < 0.05

    def test_freq_updates_on_matched_frames_only(self, spec, square_pose):
        tracker = KeySortTracker(spec, np.ones(6))
        for frame in range(5):
            tracker.step([square_pose], frame_index=frame)
        freq_before = dict(tracker.tracklets[0].freq)
        tracker.step([], frame_index=5)  # miss: frequencies must not decay
        assert tracker.tracklets[0].freq == freq_before


def _simulated_detections(spec, animals: int, seed: int, frames: int = 110):
    """Walking scene with 2 px noise and 10 % keypoint dropout."""
    arena = {3: 960, 12: 2000, 30: 4000}[animals]
    half = frames // 2
    config = ScenarioConfig(
        n_animals=animals,
        width=arena,
        height=arena,
        seed=seed,
        margin=130.0 if animals <= 12 else 400.0,
        min_separation=75.0,
        regimes=(
            RegimeSegment("walking", half, velocity=(2.0, 1.0)),
            RegimeSegment("walking", frames - half, velocity=(-2.0, -1.0)),
        ),
        detection_noise=2.0,
        dropout=0.1,
    )
    return corrupt(generate(spec, config), spec, config)


def _assert_poses_close(a, b, spec, what):
    assert (a is None) == (b is None), what
    if a is None:
        return
    for cat in spec.categories:
        xa, xb = a.get(cat), b.get(cat)
        assert (xa is None) == (xb is None), (what, cat)
        if xa is not None:
            assert abs(xa[0] - xb[0]) <= 1e-9 and abs(xa[1] - xb[1]) <= 1e-9, (what, cat, xa, xb)


class TestOracleParity:
    """The batched tracker against the per-tracklet dense-filter tracker."""

    @pytest.mark.parametrize("animals", [3, 12, 30])
    def test_matches_dense_oracle(self, spec, animals):
        ids = returned = imputed = 0
        for seed in (1, 2, 3):
            scene = self.compare(spec, _simulated_detections(spec, animals, seed))
            ids += scene[0]
            returned += scene[1]
            imputed += scene[2]
        # the scenes exercise births, deaths, misses and imputation
        assert ids > 3 * animals
        assert returned > 0
        assert imputed > 0

    def compare(self, spec, detections):
        """Step both trackers; returns (ids, returns after a miss, imputed)."""
        batched = KeySortTracker(spec, np.ones(6))
        dense = keysort_oracle.KeySortTracker(spec, np.ones(6))
        seen: dict[int, int] = {}  # tracklet id -> last frame it was matched
        returned = imputed = 0
        for frame in sorted(detections):
            got = batched.step(detections[frame], frame)
            want = dense.step(detections[frame], frame)
            assert got.frame_index == want.frame_index == frame
            assert [r.tracklet_id for r in got.records] == [r.tracklet_id for r in want.records]
            for a, b in zip(got.records, want.records):
                what = (frame, a.tracklet_id)
                assert a.imputed == b.imputed, what
                assert a.observed is b.observed, what
                _assert_poses_close(a.prior, b.prior, spec, what + ("prior",))
                _assert_poses_close(a.posterior, b.posterior, spec, what + ("posterior",))
                for name in ("alpha", "gamma", "psi"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert (x is None) == (y is None), what + (name,)
                    if x is not None:
                        assert abs(x - y) <= 1e-9, what + (name, x, y)
                returned += a.tracklet_id in seen and seen[a.tracklet_id] < frame - 1
                seen[a.tracklet_id] = frame
                imputed += len(a.imputed)
        return len(seen), returned, imputed


def _track(tracker, detections, frames):
    return [tracker.step(detections[f], f) for f in frames]


class TestFrameIndexContract:
    @pytest.mark.parametrize("second", [0, -1])
    def test_non_increasing_frame_rejected(self, tracker, square_pose, second):
        tracker.step([square_pose], frame_index=0)
        with pytest.raises(ValueError, match=rf"frame {second} does not follow frame 0"):
            tracker.step([square_pose], frame_index=second)

    def test_rejected_frame_leaves_tracker_unchanged(self, tracker, square_pose):
        tracker.step([square_pose], frame_index=5)
        with pytest.raises(ValueError):
            tracker.step([square_pose], frame_index=5)
        with pytest.raises(ValueError, match="invalid"):
            tracker.step([without(square_pose, "withers")], frame_index=9)
        # neither failed call advanced the tracker: frame 6 is one step on
        out = tracker.step([square_pose], frame_index=6)
        assert out.records[0].tracklet_id == 1

    def test_first_frame_may_start_anywhere(self, tracker, square_pose):
        assert tracker.step([square_pose], frame_index=1000).records[0].tracklet_id == 1
        assert tracker.step([square_pose], frame_index=1001).records[0].tracklet_id == 1

    def test_gap_equals_explicit_empty_frames(self, spec):
        detections = _simulated_detections(spec, 12, 4, frames=80)
        dropped = {10, 20, 21, 30, 31, 32, 50, 51, 52, 53, 54, 55, 70}
        kept = [f for f in sorted(detections) if f not in dropped]
        gapped = KeySortTracker(spec, np.ones(6))
        explicit = KeySortTracker(spec, np.ones(6))
        got = _track(gapped, detections, kept)
        want = {
            frame: explicit.step([] if frame in dropped else detections[frame], frame)
            for frame in sorted(detections)
        }
        assert got == [want[f] for f in kept]
        # the long gap outlived max_missed, so the same scene tracked without
        # gaps keeps ids that the gapped run had to replace
        ids_gapped = {r.tracklet_id for out in got for r in out.records}
        continuous = KeySortTracker(spec, np.ones(6))
        ids_continuous = {
            r.tracklet_id
            for out in _track(continuous, detections, sorted(detections))
            for r in out.records
        }
        assert len(ids_gapped) > len(ids_continuous)

    def test_gap_predicts_once_per_elapsed_frame(self, tracker, square_pose):
        for frame in range(20):
            tracker.step([shifted(square_pose, 3.0 * frame, 0.0, frame)], frame_index=frame)
        out = tracker.step([shifted(square_pose, 3.0 * 23, 0.0, 23)], frame_index=23)
        record = out.records[0]
        assert record.tracklet_id == 1
        # three frames of constant velocity: the prior lands on the pose
        assert record.psi == pytest.approx(0.0, abs=0.5)
        assert record.prior.get("withers")[0] == pytest.approx(100.0 + 69.0, abs=0.5)

    def test_gap_counts_misses_per_frame(self, tracker, square_pose):
        for frame in range(4):
            tracker.step([square_pose], frame_index=frame)
        # max_missed is 3: a gap of four empty frames ends the tracklet
        assert tracker.step([square_pose], frame_index=7).records[0].tracklet_id == 1
        assert tracker.step([square_pose], frame_index=12).records[0].tracklet_id == 2


class TestInputContract:
    @pytest.mark.parametrize("value", [(120.0, 80.0), None])
    def test_unknown_category_rejected(self, tracker, square_pose, value):
        tracker.step([square_pose], frame_index=0)
        far = shifted(square_pose, 200.0, 0.0, 1)
        extra = Pose(coords={**square_pose.coords, "horn": value}, frame_index=1)
        with pytest.raises(ValueError, match=r"frame 1 pose 1 has unknown category 'horn'"):
            tracker.step([far, extra], frame_index=1)


class TestLifecycleLog:
    def test_born_matured_and_terminated_events(self, tracker, square_pose, caplog):
        caplog.set_level(logging.DEBUG, logger="keytrack.keysort")
        far = shifted(square_pose, 300.0, 0.0)
        tracker.step([square_pose, far], frame_index=0)
        for frame in range(1, 4):
            tracker.step([shifted(square_pose, 0.0, 0.0, frame)], frame_index=frame)
        for frame in range(4, 8):
            tracker.step([], frame_index=frame)
        messages = [r.getMessage() for r in caplog.records if r.name == "keytrack.keysort"]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        assert messages == [
            "frame 0: tracklet 1 born",
            "frame 0: tracklet 2 born",
            "frame 1: tracklet 2 terminated (young-miss)",
            "frame 3: tracklet 1 matured",
            "frame 7: tracklet 1 terminated (max-missed)",
        ]

    def test_silent_above_debug(self, tracker, square_pose, caplog):
        caplog.set_level(logging.INFO, logger="keytrack.keysort")
        tracker.step([square_pose], frame_index=0)
        tracker.step([], frame_index=1)
        assert caplog.records == []


_coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
_keypoint = st.one_of(st.none(), st.tuples(_coordinate, _coordinate))


def _pose_lists(spec):
    pose = st.fixed_dictionaries({cat: _keypoint for cat in spec.categories})
    return st.lists(pose, max_size=8)


def _as_array(poses, spec):
    return np.array(
        [[pose[c] if pose[c] is not None else (np.nan, np.nan) for c in spec.categories]
         for pose in poses],
        dtype=np.float64,
    ).reshape(len(poses), len(spec.categories), 2)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), coord_scale=st.sampled_from([1.0, 0.5, 2.5]))
def test_cost_matrix_matches_psi(spec, data, coord_scale):
    observed = data.draw(_pose_lists(spec), label="observed")
    predicted = data.draw(_pose_lists(spec), label="predicted")
    cost = _psi_costs(_as_array(observed, spec), _as_array(predicted, spec), coord_scale)
    assert cost.shape == (len(observed), len(predicted))
    for i, obs in enumerate(observed):
        for j, pred in enumerate(predicted):
            expected = psi(Pose(coords=obs), Pose(coords=pred))
            if expected is None:
                assert cost[i, j] == np.inf
            else:
                assert abs(cost[i, j] - expected * coord_scale) <= 1e-9


def _rooted_pose_lists(spec):
    # the root is always detected (tracklets are born from valid poses only);
    # every other keypoint may be missing, intermediate ones included
    coordinate = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
    keypoint = st.tuples(coordinate, coordinate)
    fields = {cat: st.one_of(st.none(), keypoint) for cat in spec.categories}
    fields[spec.root] = keypoint
    return st.lists(st.fixed_dictionaries(fields), max_size=6)


@pytest.mark.parametrize("which", ["default", "deep"])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_birth_positions_match_dense_init(spec, which, data):
    layout = spec if which == "default" else _DEEP_SPEC
    r_star = np.ones(len(layout.categories))
    model = TrackerModel(layout, r_star)
    dense = keysort_oracle.build_model(layout, r_star)
    poses = [Pose(coords=coords) for coords in data.draw(_rooted_pose_lists(layout))]
    got = model.birth_positions(model.observed_array(poses))
    assert got.shape == (len(poses), 2 * len(layout.categories))
    for row, pose in zip(got, poses):
        assert row.tobytes() == _dense_positions(dense, pose).tobytes()
