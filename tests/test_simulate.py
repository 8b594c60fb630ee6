import math

import numpy as np
import pytest

from keytrack.simulate import (
    DEFAULT_TEMPLATE,
    KF_DEMO_MODES,
    ParallelScene,
    RegimeSegment,
    ScenarioConfig,
    corrupt,
    generate,
    parallel_rows_scene,
    regime_switch_demo,
    two_point_skeleton,
)
from keytrack.skeleton import (
    estimate_betas,
    is_valid_pose,
    require_valid_spec,
)
from kalman_oracle import FilterModel, initial_state, predict, update_adaptive, update_standard
import simulate_oracle


def pose_array(pose):
    return np.array([xy for xy in pose.coords.values() if xy is not None])


class TestRegimeSegment:
    def test_valid_modes(self):
        for mode in ("stationary", "walking", "abrupt_turn"):
            RegimeSegment(mode, 10)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown regime mode"):
            RegimeSegment("gallop", 10)

    def test_positive_frames(self):
        with pytest.raises(ValueError):
            RegimeSegment("walking", 0)

    def test_non_negative_noise(self):
        with pytest.raises(ValueError):
            RegimeSegment("walking", 5, process_noise=-0.1)


class TestScenarioConfig:
    def test_total_frames(self):
        config = ScenarioConfig(
            regimes=(RegimeSegment("stationary", 30), RegimeSegment("walking", 45))
        )
        assert config.total_frames == 75

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_animals=0)
        with pytest.raises(ValueError):
            ScenarioConfig(width=0)
        with pytest.raises(ValueError):
            ScenarioConfig(regimes=())
        with pytest.raises(ValueError):
            ScenarioConfig(scale_range=(1.2, 1.0))

    def test_scalar_noise_and_dropout(self):
        config = ScenarioConfig(detection_noise=1.5, dropout=0.1)
        assert config.noise_for("withers") == 1.5
        assert config.dropout_for("nose") == 0.1

    def test_dict_noise_defaults_to_zero(self):
        config = ScenarioConfig(detection_noise={"nose": 3.0}, dropout={"nose": 0.4})
        assert config.noise_for("nose") == 3.0
        assert config.noise_for("withers") == 0.0
        assert config.dropout_for("withers") == 0.0


class TestGenerate:
    def test_deterministic_per_seed(self, spec):
        config = ScenarioConfig(n_animals=3, seed=11)
        first = generate(spec, config)
        second = generate(spec, config)
        for fa, fb in zip(first.frames, second.frames):
            for pa, pb in zip(fa.poses, fb.poses):
                np.testing.assert_array_equal(pose_array(pa), pose_array(pb))

    def test_seed_changes_layout(self, spec):
        base = ScenarioConfig(n_animals=2, seed=1)
        other = ScenarioConfig(n_animals=2, seed=2)
        a = generate(spec, base).frames[0].poses[0]
        b = generate(spec, other).frames[0].poses[0]
        assert not np.allclose(pose_array(a), pose_array(b))

    def test_schedule_shape_and_labels(self, spec):
        config = ScenarioConfig(
            n_animals=2,
            seed=4,
            regimes=(
                RegimeSegment("stationary", 10),
                RegimeSegment("walking", 5, velocity=(3.0, 0.0)),
            ),
        )
        truth = generate(spec, config)
        assert len(truth.frames) == 15
        assert [f.regime for f in truth.frames[:10]] == ["stationary"] * 10
        assert [f.regime for f in truth.frames[10:]] == ["walking"] * 5
        assert all(len(f.poses) == 2 for f in truth.frames)
        assert [f.frame_index for f in truth.frames] == list(range(15))

    def test_all_poses_valid(self, spec):
        truth = generate(spec, ScenarioConfig(n_animals=4, seed=9))
        for frame in truth.frames:
            assert all(is_valid_pose(spec, p) for p in frame.poses)

    def test_stationary_without_jitter_is_static(self, spec):
        config = ScenarioConfig(n_animals=2, seed=3, offset_jitter=0.0)
        truth = generate(spec, config)
        first = truth.frames[0]
        for frame in truth.frames[1:]:
            for p0, pt in zip(first.poses, frame.poses):
                np.testing.assert_array_equal(pose_array(p0), pose_array(pt))

    def test_walking_advances_by_velocity(self, spec):
        config = ScenarioConfig(
            n_animals=2,
            seed=3,
            offset_jitter=0.0,
            regimes=(RegimeSegment("walking", 8, velocity=(2.5, -1.0)),),
        )
        truth = generate(spec, config)
        for before, after in zip(truth.frames, truth.frames[1:]):
            for p0, p1 in zip(before.poses, after.poses):
                delta = pose_array(p1) - pose_array(p0)
                np.testing.assert_allclose(delta[:, 0], 2.5, rtol=1e-12)
                np.testing.assert_allclose(delta[:, 1], -1.0, rtol=1e-12)

    def test_spawn_separation(self, spec):
        config = ScenarioConfig(n_animals=5, seed=21, offset_jitter=0.0, min_separation=90.0)
        frame0 = generate(spec, config).frames[0]
        for i, a in enumerate(frame0.poses):
            for b in frame0.poses[i + 1 :]:
                for axy in a.coords.values():
                    for bxy in b.coords.values():
                        assert math.hypot(axy[0] - bxy[0], axy[1] - bxy[1]) >= 90.0

    def test_template_must_cover_tree(self, spec):
        template = dict(DEFAULT_TEMPLATE)
        template.pop(("head", "nose"))
        with pytest.raises(ValueError, match="template missing"):
            generate(spec, ScenarioConfig(template=template))

    def test_template_proportions_recovered(self, spec):
        config = ScenarioConfig(n_animals=3, seed=13, offset_jitter=0.0)
        truth = generate(spec, config)
        poses = [p for frame in truth.frames[:20] for p in frame.poses]
        betas = estimate_betas(
            poses,
            spec,
            symmetric_pairs=[
                (("withers", "left_hip"), ("withers", "right_hip")),
            ],
        )
        expected = 60.0 / math.hypot(39.0, 14.0)
        assert betas[("withers", "left_hip")] == pytest.approx(expected, rel=1e-9)
        assert betas[("withers", "right_hip")] == pytest.approx(expected, rel=1e-9)
        assert betas[("withers", "tail_implant")] == 1.0
        # matches the bundled skeleton's configured proportion to 0.2%
        assert expected == pytest.approx(1.45, abs=0.003)

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig(n_animals=3, seed=5, dropout=0.1),
            ScenarioConfig(
                n_animals=12,
                seed=6,
                offset_jitter=0.0,
                regimes=(RegimeSegment("walking", 25, velocity=(1.5, -0.5), process_noise=0.4),),
            ),
            ScenarioConfig(
                n_animals=30,
                width=4000,
                height=4000,
                margin=400.0,
                min_separation=75.0,
                seed=7,
                dropout=0.1,
                regimes=(
                    RegimeSegment("stationary", 5),
                    RegimeSegment("walking", 20, velocity=(2.0, 1.0), process_noise=0.2),
                    RegimeSegment("abrupt_turn", 10, velocity=(-2.0, 1.0)),
                ),
            ),
            # offsets declared out of tree order, plus one the tree does not use
            ScenarioConfig(
                n_animals=3,
                seed=8,
                offset_jitter=0.5,
                template={("right_hip", "left_hip"): (0.0, 28.0), **dict(reversed(DEFAULT_TEMPLATE.items()))},
                regimes=(RegimeSegment("walking", 15, velocity=(1.0, 1.0), process_noise=0.3),),
            ),
        ],
        ids=["3-jitter", "12-walking-no-jitter", "30-arena-4000", "3-extra-offset"],
    )
    def test_generate_and_corrupt_equal_the_oracle(self, spec, config):
        truth = generate(spec, config)
        expected = simulate_oracle.generate(spec, config)
        assert truth.frames == expected.frames
        assert corrupt(truth, spec) == corrupt(expected, spec)

    def test_poses_by_frame_lookup(self, spec, quiet_scenario):
        truth = generate(spec, quiet_scenario)
        table = truth.poses_by_frame()
        assert set(table) == set(range(quiet_scenario.total_frames))
        assert table[0] is truth.frames[0].poses


class TestCorrupt:
    def test_noiseless_identity(self, spec, quiet_scenario):
        truth = generate(spec, quiet_scenario)
        detections = corrupt(truth, spec)
        for frame in truth.frames:
            observed = detections[frame.frame_index]
            assert len(observed) == len(frame.poses)
            for gt, det in zip(frame.poses, observed):
                np.testing.assert_array_equal(pose_array(gt), pose_array(det))

    def test_deterministic(self, spec):
        config = ScenarioConfig(n_animals=2, seed=8, detection_noise=2.0, dropout=0.2)
        truth = generate(spec, config)
        a = corrupt(truth, spec)
        b = corrupt(truth, spec)
        for frame_index, poses in a.items():
            assert len(poses) == len(b[frame_index])
            for pa, pb in zip(poses, b[frame_index]):
                assert pa.coords == pb.coords

    def test_noise_magnitude(self, spec):
        config = ScenarioConfig(
            n_animals=3,
            seed=5,
            offset_jitter=0.0,
            detection_noise=2.0,
            regimes=(RegimeSegment("stationary", 80),),
        )
        truth = generate(spec, config)
        detections = corrupt(truth, spec)
        residuals = []
        for frame in truth.frames:
            for gt, det in zip(frame.poses, detections[frame.frame_index]):
                for cat in spec.categories:
                    gxy, dxy = gt.get(cat), det.get(cat)
                    if gxy and dxy:
                        residuals.extend([dxy[0] - gxy[0], dxy[1] - gxy[1]])
        assert np.std(residuals) == pytest.approx(2.0, rel=0.08)
        assert np.mean(residuals) == pytest.approx(0.0, abs=0.1)

    def test_category_dropout(self, spec):
        config = ScenarioConfig(n_animals=2, seed=6, dropout={"nose": 1.0}, detection_noise=0.0)
        truth = generate(spec, config)
        detections = corrupt(truth, spec)
        for poses in detections.values():
            assert len(poses) == 2
            assert all(p.get("nose") is None for p in poses)

    def test_invalid_poses_dropped_whole(self, spec):
        config = ScenarioConfig(
            n_animals=2,
            seed=6,
            detection_noise=0.0,
            dropout={"tail_implant": 1.0, "left_hip": 1.0, "right_hip": 1.0},
        )
        truth = generate(spec, config)
        detections = corrupt(truth, spec)
        assert all(poses == [] for poses in detections.values())

    def test_dropout_rate_observed(self, spec):
        config = ScenarioConfig(
            n_animals=3,
            seed=10,
            detection_noise=0.0,
            dropout={"nose": 0.3},
            regimes=(RegimeSegment("stationary", 100),),
        )
        truth = generate(spec, config)
        detections = corrupt(truth, spec)
        total = sum(len(poses) for poses in detections.values())
        missing = sum(
            1 for poses in detections.values() for p in poses if p.get("nose") is None
        )
        assert missing / total == pytest.approx(0.3, abs=0.05)

    def test_stream_stable_under_category_dropout(self, spec, quiet_scenario):
        # dropping one category must not shift the noise applied to others
        truth = generate(spec, quiet_scenario)
        noisy_config = ScenarioConfig(
            n_animals=2, seed=99, detection_noise=2.0, dropout=0.0
        )
        clean = corrupt(truth, spec, noisy_config)
        nose_dropped = corrupt(
            truth,
            spec,
            ScenarioConfig(n_animals=2, seed=99, detection_noise=2.0, dropout={"nose": 1.0}),
        )
        for frame_index, poses in clean.items():
            for pa, pb in zip(poses, nose_dropped[frame_index]):
                assert pb.get("nose") is None
                for cat in ("withers", "tail_implant", "head", "left_hip", "right_hip"):
                    assert pa.get(cat) == pytest.approx(pb.get(cat))


class TestParallelScene:
    def test_two_point_skeleton_valid(self):
        spec = two_point_skeleton()
        require_valid_spec(spec)
        assert spec.root == "front"
        assert spec.dominant == (("front", "back"),)

    def test_default_shape(self):
        scene = parallel_rows_scene()
        assert isinstance(scene, ParallelScene)
        assert scene.achievable_pairs == 5
        assert len(scene.truth_poses) == 7
        assert scene.front_rows == [1, 2, 3, 4, 5, 6]
        assert scene.back_rows == [0, 1, 2, 3, 4, 5]
        fronts = [c for c in scene.candidates if c.category == "front"]
        backs = [c for c in scene.candidates if c.category == "back"]
        assert len(fronts) == 6 and len(backs) == 6

    def test_geometry(self):
        scene = parallel_rows_scene(n_rows=7, row_gap=20.0, column_gap=60.0, concavity=1.5)
        for row, pose in enumerate(scene.truth_poses):
            front = pose.get("front")
            back = pose.get("back")
            assert back[0] - front[0] == pytest.approx(60.0)
            assert back[1] - front[1] == pytest.approx(-1.5 * (row - 3.0) ** 2)
        ys = [pose.get("front")[1] for pose in scene.truth_poses]
        np.testing.assert_allclose(np.diff(ys), 20.0)

    def test_maps_cover_both_channels(self):
        scene = parallel_rows_scene()
        assert set(scene.maps.prob) == {"front", "back"}
        assert ("front", "back") in scene.maps.assoc
        assert scene.maps.width == 800 and scene.maps.height == 600

    def test_missing_end_detections(self):
        scene = parallel_rows_scene()
        front_truth = scene.truth_poses[0].get("front")
        back_truth = scene.truth_poses[-1].get("back")
        for cand in scene.candidates:
            assert (cand.x, cand.y) != front_truth
            assert (cand.x, cand.y) != back_truth


def dense_demo(result, mode, q_var=1e-3, r_var=1.0, sign_window=8):
    """The demo's filter loop on the dense oracle, fed the demo's observations.

    Returns prior and posterior positions, alpha and gamma per step.
    """
    model = FilterModel(
        phi=[[1.0, 1.0], [0.0, 1.0]],
        H=[[1.0, 0.0]],
        Q=np.diag([q_var, q_var]),
        R=[[r_var]],
    )
    state = initial_state(
        model, [result.z[0], 0.0], np.diag([10.0 * r_var, 10.0 * r_var]), sign_window
    )
    steps = len(result.z)
    prior = np.full(steps, result.z[0])
    posterior = prior.copy()
    alpha = np.full(steps, np.nan)
    gamma = np.full(steps, np.nan)
    for t in range(1, steps):
        predict(model, state)
        prior[t] = state.x[0]
        if mode == "standard":
            update_standard(model, state, [result.z[t]], [True])
        else:
            forced = 1.0 if mode == "adaptive-unmitigated" else None
            update_adaptive(model, state, [result.z[t]], [True], gamma_override=forced)
        posterior[t] = state.x[0]
        if state.last_alpha is not None:
            alpha[t] = state.last_alpha
        if state.last_gamma is not None:
            gamma[t] = state.last_gamma
    return prior, posterior, alpha, gamma


class TestRegimeSwitchDemo:
    @pytest.mark.parametrize("mode", KF_DEMO_MODES)
    def test_matches_dense_oracle(self, mode):
        for seed in range(1, 21):
            result = regime_switch_demo(mode=mode, steps=200, seed=seed)
            expected = dense_demo(result, mode)
            actual = (result.prior_pos, result.posterior_pos, result.alpha, result.gamma)
            for name, got, want in zip(("prior", "posterior", "alpha", "gamma"), actual, expected):
                what = f"{mode} seed {seed} {name}"
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=what)
                finite = ~np.isnan(want)
                scale = float(np.abs(want[finite]).max(initial=0.0))
                np.testing.assert_allclose(
                    got[finite], want[finite], rtol=1e-9, atol=1e-9 * scale, err_msg=what
                )

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(steps=0), "steps"),
            (dict(steps=1), "steps"),
            (dict(steps=10, switch_at=0), "switch_at"),
            (dict(steps=10, switch_at=10), "switch_at"),
            (dict(switch_at=-3), "switch_at"),
            (dict(switch_at=900), "switch_at"),
            (dict(q_var=0.0), "q_var"),
            (dict(q_var=math.nan), "q_var"),
            (dict(r_var=-1.0), "r_var"),
            (dict(r_var=math.inf), "r_var"),
            (dict(q_jump=-1.0), "q_jump"),
            (dict(sign_window=0), "sign_window"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            regime_switch_demo(**kwargs)

    def test_accepts_boundary_parameters(self):
        result = regime_switch_demo(steps=2, q_jump=0.0)
        assert result.switch_at == 1
        assert math.isfinite(result.rmse(0, 1)) and math.isfinite(result.rmse(1, 2))
        assert regime_switch_demo(steps=10, switch_at=9, sign_window=1).switch_at == 9

    def test_modes(self):
        assert set(KF_DEMO_MODES) == {"standard", "adaptive", "adaptive-unmitigated"}
        with pytest.raises(ValueError, match="unknown mode"):
            regime_switch_demo(mode="kalman")

    def test_shapes_and_defaults(self):
        result = regime_switch_demo(steps=50)
        assert result.switch_at == 25
        for arr in (result.truth_pos, result.z, result.prior_pos, result.posterior_pos):
            assert arr.shape == (50,)

    def test_deterministic(self):
        a = regime_switch_demo(steps=60, seed=3)
        b = regime_switch_demo(steps=60, seed=3)
        np.testing.assert_array_equal(a.truth_pos, b.truth_pos)
        np.testing.assert_array_equal(a.posterior_pos, b.posterior_pos)

    def test_same_world_across_modes(self):
        kwargs = dict(steps=60, seed=3)
        standard = regime_switch_demo(mode="standard", **kwargs)
        adaptive = regime_switch_demo(mode="adaptive", **kwargs)
        np.testing.assert_array_equal(standard.truth_pos, adaptive.truth_pos)
        np.testing.assert_array_equal(standard.z, adaptive.z)

    def test_alpha_reporting_by_mode(self):
        standard = regime_switch_demo(mode="standard", steps=40)
        assert np.isnan(standard.alpha).all()
        adaptive = regime_switch_demo(mode="adaptive", steps=40)
        assert np.isfinite(adaptive.alpha[1:]).all()
        assert ((adaptive.alpha[1:] > 0) & (adaptive.alpha[1:] <= 1.0)).all()
        assert ((adaptive.gamma[1:] >= 0) & (adaptive.gamma[1:] <= 1.0)).all()

    def test_unmitigated_forces_gamma_one(self):
        result = regime_switch_demo(mode="adaptive-unmitigated", steps=40)
        np.testing.assert_array_equal(result.gamma[1:], 1.0)

    def test_process_noise_jump_visible_in_truth(self):
        result = regime_switch_demo(steps=200, seed=1)
        pre = np.diff(result.truth_vel[: result.switch_at])
        post = np.diff(result.truth_vel[result.switch_at + 1 :])
        assert np.var(post) > 1e3 * np.var(pre)

    def test_rmse_slice(self):
        result = regime_switch_demo(steps=80, seed=2)
        manual = np.sqrt(
            np.mean((result.posterior_pos[10:40] - result.truth_pos[10:40]) ** 2)
        )
        assert result.rmse(10, 40) == pytest.approx(manual)
