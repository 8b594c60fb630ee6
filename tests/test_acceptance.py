"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single ``[acceptance] <label>: PASS/FAIL (...)`` line so
the run log doubles as an acceptance report.  Thresholds are asserted at the
stated tolerances; fixtures are deterministic.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from keytrack.assembly import assemble, association_penalty
from keytrack.assignment import greedy_assign, hungarian
from keytrack.keysort import KeySortTracker, TrackerConfig
from keytrack.maps import EncoderParams, decode_candidates, encode, pose_sigmas
from keytrack.metrics import (
    evaluate_poses,
    evaluate_tracks,
    pair_skeletons,
    precision_recall,
)
from keytrack.simulate import (
    RegimeSegment,
    ScenarioConfig,
    corrupt,
    generate,
    parallel_rows_scene,
    regime_switch_demo,
)
from keytrack.skeleton import Pose
from kalman_oracle import FilterModel, initial_state, predict, update_standard


def _verdict(label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {status} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. map codec round trip


def _spawn_frame(spec, n_animals: int, seed: int) -> list[Pose]:
    # crowded draws can fail placement; retry with a shifted seed
    while True:
        config = ScenarioConfig(
            n_animals=n_animals,
            seed=seed,
            width=960,
            height=720,
            regimes=(RegimeSegment("stationary", 1),),
        )
        try:
            return generate(_spawn_frame.spec, config).frames[0].poses
        except ValueError:
            seed += 7919


def test_criterion_01_codec_round_trip(spec):
    _spawn_frame.spec = spec
    start = time.perf_counter()
    params = EncoderParams()
    total = recovered = extra = 0
    for i in range(200):
        n = (i % 8) + 1
        poses = _spawn_frame(spec, n, seed=1000 + i)
        assert len(poses) == n

        # fixture precondition: animals separated beyond both floors
        sigma_max = max(pose_sigmas(poses, spec, params))
        required = max(14.0, 6.0 * sigma_max)
        for a, b in itertools.combinations(poses, 2):
            gap = min(
                math.hypot(pa[0] - pb[0], pa[1] - pb[1])
                for pa in a.coords.values()
                for pb in b.coords.values()
            )
            assert gap > required

        maps = encode(poses, spec, 960, 720, params)
        candidates = decode_candidates(maps.prob)
        built = assemble(candidates, maps, spec)
        extra += max(0, len(built) - n)
        pred = [Pose(coords=dict(sk.coords), frame_index=0) for sk in built]
        pairing = pair_skeletons(poses, pred)
        total += sum(len(p.present_categories()) for p in poses)
        for gi, pi in pairing.pairs:
            gt, pd = poses[gi], pred[pi]
            for cat in gt.present_categories():
                xy = pd.get(cat)
                if xy is None:
                    continue
                gx, gy = gt.get(cat)
                if math.hypot(xy[0] - gx, xy[1] - gy) <= 0.75:
                    recovered += 1
    elapsed = time.perf_counter() - start
    fraction = recovered / total
    _verdict(
        "codec round trip",
        fraction >= 0.99 and extra == 0 and elapsed < 60.0,
        f"recovered {recovered}/{total} ({fraction:.2%}), "
        f"extra skeletons {extra}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. assignment oracle


def _brute_force_total(costs: np.ndarray) -> float:
    rows, cols = costs.shape
    if rows > cols:
        return _brute_force_total(costs.T)
    best = math.inf
    for perm in itertools.permutations(range(cols), rows):
        best = min(best, sum(costs[i, j] for i, j in enumerate(perm)))
    return best


def test_criterion_02_assignment_oracle():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    greedy_excess = 0
    for _ in range(1000):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        costs = rng.uniform(0.0, 1.0, shape)
        pairs = hungarian(costs)
        total = sum(costs[i, j] for i, j in pairs)
        oracle = _brute_force_total(costs)
        assert len(pairs) == min(shape)
        worst_gap = max(worst_gap, abs(total - oracle))
        greedy_total = sum(costs[i, j] for i, j in greedy_assign(costs))
        assert greedy_total >= total - 1e-12
        if greedy_total > total + 1e-12:
            greedy_excess += 1
    _verdict(
        "assignment oracle",
        worst_gap <= 1e-9,
        f"1000 matrices, worst optimal-cost gap {worst_gap:.2e}, "
        f"greedy strictly worse on {greedy_excess}",
    )


# ---------------------------------------------------------------------------
# 3. greedy vs exact matching on the staggered-rows scene


def test_criterion_03_greedy_beats_hungarian_on_parallel_rows():
    scene = parallel_rows_scene()
    fronts = [c for c in scene.candidates if c.category == "front"]
    backs = [c for c in scene.candidates if c.category == "back"]
    costs = np.array(
        [
            [
                association_penalty((f.x, f.y), (b.x, b.y), scene.maps, ("front", "back"))
                for b in backs
            ]
            for f in fronts
        ]
    )
    gate = 0.05 * math.hypot(scene.maps.width, scene.maps.height)

    greedy = greedy_assign(costs, gate=gate)
    exact = hungarian(costs, gate=gate)
    greedy_correct = sum(
        1 for i, j in greedy if scene.front_rows[i] == scene.back_rows[j]
    )
    exact_correct = sum(
        1 for i, j in exact if scene.front_rows[i] == scene.back_rows[j]
    )
    exact_shifted = sum(
        1 for i, j in exact if scene.front_rows[i] == scene.back_rows[j] + 1
    )
    _verdict(
        "greedy association on staggered rows",
        greedy_correct == scene.achievable_pairs == len(greedy)
        and exact_correct == 0
        and exact_shifted == len(exact) > 0,
        f"greedy {greedy_correct}/{scene.achievable_pairs} correct, "
        f"exact {exact_correct} correct with {exact_shifted}/{len(exact)} shifted",
    )


# ---------------------------------------------------------------------------
# 4. regime-switch RMSE


def test_criterion_04_regime_switch_rmse():
    start = time.perf_counter()
    standard = regime_switch_demo(mode="standard")
    adaptive = regime_switch_demo(mode="adaptive")
    switch = standard.switch_at
    steps = len(standard.truth_pos)

    # before the switch the standard filter's noise model is the true one
    pre_ratio = adaptive.rmse(0, switch) / standard.rmse(0, switch)
    post_ratio = adaptive.rmse(switch, steps) / standard.rmse(switch, steps)
    elapsed = time.perf_counter() - start
    _verdict(
        "regime-switch RMSE",
        post_ratio <= 0.5 and pre_ratio <= 1.05 and elapsed < 5.0,
        f"post-switch ratio {post_ratio:.3f} (<=0.5), "
        f"pre-switch ratio {pre_ratio:.3f} (<=1.05), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. mitigation keeps the filter calm while the scene is quiet


def test_criterion_05_unmitigated_adaptive_variance():
    adaptive = regime_switch_demo(mode="adaptive")
    unmitigated = regime_switch_demo(mode="adaptive-unmitigated")
    switch = adaptive.switch_at
    quiet = slice(1, switch)

    var_mit = float(np.var(np.diff(adaptive.posterior_pos[quiet])))
    var_unm = float(np.var(np.diff(unmitigated.posterior_pos[quiet])))
    low_mit = int(np.sum(adaptive.alpha[quiet] < 0.1))
    low_unm = int(np.sum(unmitigated.alpha[quiet] < 0.1))
    _verdict(
        "unmitigated adaptive jitter",
        var_unm >= 2.0 * var_mit and low_unm > low_mit,
        f"posterior displacement variance x{var_unm / var_mit:.2f} (>=2), "
        f"alpha<0.1 samples {low_unm} vs {low_mit}",
    )


# ---------------------------------------------------------------------------
# 6. posterior smoothing on a stationary scene


def test_criterion_06_posterior_smoothing(spec):
    config = ScenarioConfig(
        n_animals=3,
        seed=21,
        detection_noise=2.0,
        dropout=0.0,
        regimes=(RegimeSegment("stationary", 120),),
    )
    truth = generate(spec, config)
    detections = corrupt(truth, spec)
    tracker = KeySortTracker(spec, np.full(len(spec.categories), 4.0))
    outputs = [tracker.step(detections[f], frame_index=f) for f in sorted(detections)]

    gt_frames = truth.poses_by_frame()
    track_report, _ = evaluate_tracks(gt_frames, outputs, spec)
    obs_report, _ = evaluate_poses(gt_frames, detections, spec)

    worst_diff = 0.0
    worst_err = 0.0
    for cat in spec.categories:
        q_post = track_report.frame_diff_quantiles["posterior"][cat][0.5]
        q_obs = track_report.frame_diff_quantiles["observed"][cat][0.5]
        worst_diff = max(worst_diff, q_post / q_obs)
        err_post = track_report.relative_error[cat].mean
        err_obs = obs_report.relative_error[cat].mean
        worst_err = max(worst_err, err_post / err_obs)
    _verdict(
        "posterior smoothing",
        worst_diff <= 0.5 and worst_err <= 1.1,
        f"median frame-difference ratio <= {worst_diff:.3f} (<=0.5), "
        f"relative-error ratio <= {worst_err:.3f} (<=1.1)",
    )


# ---------------------------------------------------------------------------
# 7. imputation recovers dropped keypoints without breaking its own rules


def _run_tracker(spec, detections, tracker_config):
    tracker = KeySortTracker(
        spec, np.full(len(spec.categories), 4.0), config=tracker_config
    )
    return [tracker.step(detections[f], frame_index=f) for f in sorted(detections)]


def _audit_imputation(spec, outputs, config: TrackerConfig) -> tuple[int, int]:
    """Check every imputed flag against the recency and frequency rules.

    Uses only the emitted records: per-tracklet observation flags rebuild
    the running frequency and last-seen bookkeeping.
    """
    rows: dict[int, list[tuple[int, object]]] = {}
    for out in outputs:
        for record in out.records:
            rows.setdefault(record.tracklet_id, []).append((out.frame_index, record))

    checked = violations = 0
    for history in rows.values():
        history.sort(key=lambda item: item[0])
        freq: dict[str, float] = {}
        last_seen: dict[str, int] = {}
        for position, (frame, record) in enumerate(history):
            observed = {
                cat: record.observed.get(cat) is not None for cat in spec.categories
            }
            for cat in spec.categories:
                fresh = 1.0 if observed[cat] else 0.0
                if position == 0:
                    freq[cat] = fresh
                else:
                    freq[cat] = (
                        (1.0 - config.freq_memory) * fresh
                        + config.freq_memory * freq[cat]
                    )
            for cat in record.imputed:
                checked += 1
                recent = (
                    cat in last_seen
                    and frame - last_seen[cat] <= config.impute_max_consecutive
                )
                if observed[cat] or not recent or freq[cat] <= config.impute_min_freq:
                    violations += 1
            for cat, seen in observed.items():
                if seen:
                    last_seen[cat] = frame
    return checked, violations


def test_criterion_07_imputation_recovery(spec):
    config = ScenarioConfig(
        n_animals=4,
        seed=17,
        detection_noise=2.0,
        dropout=0.15,
        regimes=(
            RegimeSegment("stationary", 60),
            RegimeSegment("walking", 60, velocity=(2.5, -1.0)),
        ),
    )
    truth = generate(spec, config)
    detections = corrupt(truth, spec)
    gt_frames = truth.poses_by_frame()

    with_imputation = _run_tracker(spec, detections, TrackerConfig())
    without = _run_tracker(spec, detections, TrackerConfig(impute_max_consecutive=0))

    eta_with = evaluate_tracks(gt_frames, with_imputation, spec)[0].eta_overall
    eta_without = evaluate_tracks(gt_frames, without, spec)[0].eta_overall

    checked, violations = _audit_imputation(spec, with_imputation, TrackerConfig())
    none_without = sum(len(r.imputed) for out in without for r in out.records)
    _verdict(
        "imputation recovery",
        eta_with >= eta_without + 0.01
        and checked > 0
        and violations == 0
        and none_without == 0,
        f"recovery {eta_with:.4f} vs {eta_without:.4f} "
        f"(+{(eta_with - eta_without) * 100:.2f}pp), "
        f"{checked} imputed flags audited, {violations} rule violations",
    )


# ---------------------------------------------------------------------------
# 8. relative tracking keeps the spine when the tail detection drops


_WALK_BASE = {
    "withers": (150.0, 200.0),
    "tail_implant": (90.0, 200.0),
    "head": (172.0, 200.0),
    "nose": (188.0, 200.0),
    "left_hip": (111.0, 214.0),
    "right_hip": (111.0, 186.0),
}
_SPINE = 60.0
_WALK_SPEED = 10.0
_DROP_FRAMES = range(30, 35)


def _walking_pose(t: int, drop_tail: bool) -> Pose:
    coords: dict[str, tuple[float, float] | None] = {
        cat: (x + _WALK_SPEED * t, y) for cat, (x, y) in _WALK_BASE.items()
    }
    if drop_tail:
        coords["tail_implant"] = None
    return Pose(coords=coords, frame_index=t)


class _AbsoluteControl:
    """Control tracker: absolute keypoint positions, random-walk motion."""

    def __init__(self, spec):
        self.spec = spec
        dim = 2 * len(spec.categories)
        self.model = FilterModel(
            phi=np.eye(dim), H=np.eye(dim), Q=np.eye(dim), R=np.eye(dim)
        )
        self.p0 = np.eye(dim) * 10.0
        self.state = None

    def step(self, pose: Pose):
        dim = self.model.phi.shape[0]
        z = np.zeros(dim)
        mask = np.zeros(dim, dtype=bool)
        for i, cat in enumerate(self.spec.categories):
            xy = pose.get(cat)
            if xy is None:
                continue
            z[2 * i], z[2 * i + 1] = xy
            mask[2 * i] = mask[2 * i + 1] = True
        if self.state is None:
            self.state = initial_state(self.model, z, self.p0)
            return None
        predict(self.model, self.state)
        prior = self.state.x.copy()
        update_standard(self.model, self.state, z[mask], mask)
        return prior

    def spine(self, x: np.ndarray) -> float:
        iw = self.spec.categories.index("withers")
        it = self.spec.categories.index("tail_implant")
        return math.hypot(x[2 * iw] - x[2 * it], x[2 * iw + 1] - x[2 * it + 1])


def test_criterion_08_relative_tracking_spine(spec):
    tracker = KeySortTracker(spec, np.ones(len(spec.categories)))
    control = _AbsoluteControl(spec)
    relative_errors: list[float] = []
    control_errors: list[float] = []
    for t in range(40):
        drop = t in _DROP_FRAMES
        pose = _walking_pose(t, drop)
        out = tracker.step([pose], frame_index=t)
        control_prior = control.step(pose)
        if not drop:
            continue
        assert len(out.records) == 1
        record = out.records[0]
        assert record.tracklet_id == 1 and record.prior is not None
        w = record.prior.get("withers")
        tail = record.prior.get("tail_implant")
        spine = math.hypot(w[0] - tail[0], w[1] - tail[1])
        relative_errors.append(abs(spine - _SPINE) / _SPINE)
        control_errors.append(abs(control.spine(control_prior) - _SPINE) / _SPINE)

    worst_relative = max(relative_errors)
    worst_control = max(control_errors)
    _verdict(
        "relative tracking under tail dropout",
        len(relative_errors) == len(_DROP_FRAMES)
        and worst_relative < 0.10
        and worst_control > 0.50,
        f"prior spine error {worst_relative:.2%} (<10%), "
        f"absolute-coordinate control {worst_control:.2%} (>50%)",
    )


# ---------------------------------------------------------------------------
# 9. lifecycle matches a hand-written state machine


class _LifecycleOracle:
    """Single-target lifecycle rules, independent of the tracker code."""

    def __init__(self, maturity_age: int, max_missed: int):
        self.maturity_age = maturity_age
        self.max_missed = max_missed
        self.track: dict[str, int] | None = None
        self.next_id = 1

    def step(self, visible: bool) -> int | None:
        if visible:
            if self.track is None:
                self.track = {"id": self.next_id, "age": 0, "missed": 0}
                self.next_id += 1
            else:
                self.track["age"] += 1
                self.track["missed"] = 0
            return self.track["id"]
        if self.track is not None:
            if self.track["age"] < self.maturity_age:
                self.track = None
            else:
                self.track["missed"] += 1
                if self.track["missed"] > self.max_missed:
                    self.track = None
        return None


def test_criterion_09_lifecycle_oracle(spec):
    rng = np.random.default_rng(909)
    config = TrackerConfig()
    mismatches = 0
    schedules = 50
    frames = 40
    for _ in range(schedules):
        visible = rng.random(frames) < rng.uniform(0.35, 0.7)
        tracker = KeySortTracker(spec, np.ones(len(spec.categories)), config=config)
        oracle = _LifecycleOracle(config.maturity_age, config.max_missed)
        for t in range(frames):
            expected = oracle.step(bool(visible[t]))
            observations = [Pose(coords=dict(_WALK_BASE), frame_index=t)] if visible[t] else []
            out = tracker.step(observations, frame_index=t)
            got = out.records[0].tracklet_id if out.records else None
            if len(out.records) > 1 or got != expected:
                mismatches += 1
    _verdict(
        "lifecycle state machine",
        mismatches == 0,
        f"{schedules} random schedules x {frames} frames, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 10. metrics are self-consistent


def test_criterion_10_metrics_self_consistency(spec):
    config = ScenarioConfig(
        n_animals=3,
        seed=33,
        detection_noise=0.0,
        dropout=0.0,
        regimes=(RegimeSegment("stationary", 10),),
    )
    truth = generate(spec, config)
    gt_frames = truth.poses_by_frame()

    report, _ = evaluate_poses(gt_frames, gt_frames, spec)
    self_ok = (
        report.eta_overall == 1.0
        and all(report.eta[cat] == 1.0 for cat in spec.categories)
        and report.unpaired_gt == 0
        and report.unpaired_pred == 0
        and all(stats.mean == 0.0 for stats in report.relative_error.values())
    )

    poses = gt_frames[0]
    maps = encode(poses, spec, 960, 720)
    candidates = decode_candidates(maps.prob)
    pr = precision_recall(poses, candidates, maps.prob, maps.prob)
    pr_ok = pr.overall.precision == 1.0 and pr.overall.recall == 1.0

    # assembled output from degraded detections: the root must recover at
    # least as often as every other category
    noisy = ScenarioConfig(
        n_animals=3,
        seed=34,
        detection_noise=1.0,
        dropout=0.2,
        regimes=(RegimeSegment("stationary", 15),),
    )
    noisy_truth = generate(spec, noisy)
    detections = corrupt(noisy_truth, spec)
    pred_frames = {}
    for frame, det_poses in detections.items():
        maps_f = encode(det_poses, spec, 960, 720)
        built = assemble(decode_candidates(maps_f.prob), maps_f, spec)
        pred_frames[frame] = [
            Pose(coords=dict(sk.coords), frame_index=frame) for sk in built
        ]
    assembled, _ = evaluate_poses(noisy_truth.poses_by_frame(), pred_frames, spec)
    eta_root = assembled.eta[spec.root]
    ordering_ok = all(
        assembled.eta[cat] is None or assembled.eta[cat] <= eta_root + 1e-12
        for cat in spec.categories
    )
    _verdict(
        "metrics self-consistency",
        self_ok and pr_ok and ordering_ok,
        f"self recovery {report.eta_overall}, PR {pr.overall.precision}/{pr.overall.recall}, "
        f"root recovery {eta_root:.3f} >= all categories {ordering_ok}",
    )
