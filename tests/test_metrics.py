import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack import metrics
from keytrack.assignment import hungarian
from keytrack.keysort import KeySortTracker, TrackletFrameRecord, TrackOutput, psi
from keytrack.maps import CandidateKeypoint
from keytrack.metrics import (
    DEFAULT_PAIR_GATE,
    FRAME_DIFF_KINDS,
    CategoryPR,
    ErrorStats,
    PRReport,
    evaluate_poses,
    evaluate_tracks,
    frame_difference,
    pair_skeletons,
    precision_recall,
    quantiles,
    recovery_rate,
    recovery_samples,
    relative_error,
)
from keytrack.simulate import RegimeSegment, ScenarioConfig, corrupt, generate
from keytrack.skeleton import Pose, skeleton_scale

from conftest import make_pose


def flat_map(shape=(20, 20), value=0.0):
    return np.full(shape, value, dtype=np.float32)


def spot_map(*spots, shape=(20, 20)):
    grid = np.zeros(shape, dtype=np.float32)
    for x, y in spots:
        grid[int(y), int(x)] = 1.0
    return grid


class TestCategoryPR:
    def test_rates(self):
        pr = CategoryPR(tp=1.5, fp=1, fn=0)
        assert pr.precision == pytest.approx(0.6)
        assert pr.recall == pytest.approx(1.0)

    def test_undefined_rates_are_none(self):
        assert CategoryPR(tp=0.0, fp=0, fn=2).precision is None
        assert CategoryPR(tp=0.0, fp=3, fn=0).recall is None


class TestPrecisionRecall:
    def test_two_way_counting(self):
        gt_poses = [make_pose(k=(5.0, 5.0)), make_pose(k=(15.0, 15.0))]
        candidates = [
            CandidateKeypoint("k", 5.0, 5.0, 1.0),
            CandidateKeypoint("k", 15.0, 15.0, 1.0),
        ]
        # predictions cover both truths; the truth map covers one candidate
        pred_maps = {"k": flat_map(value=1.0)}
        gt_maps = {"k": spot_map((5, 5))}
        report = precision_recall(gt_poses, candidates, gt_maps, pred_maps)
        pr = report.per_category["k"]
        assert pr.tp == pytest.approx(0.5 * (2 + 1))
        assert pr.fp == 1
        assert pr.fn == 0
        assert pr.precision == pytest.approx(1.5 / 2.5)
        assert pr.recall == pytest.approx(1.0)

    def test_cutoff_boundary_counts(self):
        gt_poses = [make_pose(k=(5.0, 5.0))]
        pred_maps = {"k": flat_map(value=0.5)}
        report = precision_recall(gt_poses, [], {"k": flat_map()}, pred_maps)
        assert report.per_category["k"].fn == 0

    def test_below_cutoff_misses(self):
        gt_poses = [make_pose(k=(5.0, 5.0))]
        pred_maps = {"k": flat_map(value=0.49)}
        report = precision_recall(gt_poses, [], {"k": flat_map()}, pred_maps)
        assert report.per_category["k"].fn == 1

    def test_custom_cutoff(self):
        gt_poses = [make_pose(k=(5.0, 5.0))]
        pred_maps = {"k": flat_map(value=0.3)}
        report = precision_recall(gt_poses, [], {"k": flat_map()}, pred_maps, cutoff=0.25)
        assert report.per_category["k"].fn == 0

    def test_off_grid_candidate_is_fp(self):
        candidates = [CandidateKeypoint("k", 500.0, 5.0, 1.0)]
        report = precision_recall(
            [], candidates, {"k": flat_map(value=1.0)}, {"k": flat_map(value=1.0)}
        )
        assert report.per_category["k"].fp == 1

    def test_category_missing_from_truth_maps_scores_false_positives(self):
        candidates = [CandidateKeypoint("horn", 5.0, 5.0, 1.0)]
        report = precision_recall(
            [], candidates, {"k": flat_map()}, {"k": flat_map(), "horn": flat_map(value=1.0)}
        )
        assert report.per_category["horn"] == CategoryPR(tp=0.0, fp=1, fn=0)
        assert report.per_category["k"] == CategoryPR()
        assert report.overall.fp == 1

    def test_overall_sums_categories(self):
        gt_poses = [make_pose(a=(5.0, 5.0), b=(6.0, 6.0))]
        pred_maps = {"a": flat_map(value=1.0), "b": flat_map()}
        gt_maps = {"a": flat_map(), "b": flat_map()}
        report = precision_recall(gt_poses, [], gt_maps, pred_maps)
        assert report.overall.tp == pytest.approx(0.5)
        assert report.overall.fn == 1


def _tallied_by_cli(reports):
    """The detection section as ``keytrack evaluate`` used to tally it:
    running per-category sums, then an overall row over sorted categories."""

    def row(tp, fp, fn):
        precision = tp / (tp + fp) if tp + fp > 0 else None
        recall = tp / (tp + fn) if tp + fn > 0 else None
        return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall}

    totals = {}
    for report in reports:
        for cat, pr in report.per_category.items():
            bucket = totals.setdefault(cat, [0.0, 0.0, 0.0])
            bucket[0] += pr.tp
            bucket[1] += pr.fp
            bucket[2] += pr.fn
    section = {}
    grand = [0.0, 0.0, 0.0]
    for cat, (tp, fp, fn) in sorted(totals.items()):
        section[cat] = row(tp, fp, fn)
        grand = [grand[0] + tp, grand[1] + fp, grand[2] + fn]
    section["overall"] = row(*grand)
    return section


def _frame_reports():
    counts = st.tuples(*(st.integers(0, 40) for _ in range(4)))
    per_category = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), counts)

    def report(drawn):
        prs = {
            cat: CategoryPR(tp=0.5 * (gt_hits + cand_hits), fp=fp, fn=fn)
            for cat, (gt_hits, cand_hits, fp, fn) in drawn.items()
        }
        return PRReport(prs, sum(prs.values(), CategoryPR()))

    return st.lists(per_category.map(report), max_size=6)


class TestPRReportSum:
    @settings(deadline=None, max_examples=200)
    @given(reports=_frame_reports())
    def test_sum_matches_cli_tallies(self, reports):
        total = sum(reports, PRReport())
        assert total.to_dict() == _tallied_by_cli(reports)
        assert list(total.to_dict()) == list(_tallied_by_cli(reports))

    def test_frames_add_per_category(self):
        first = PRReport({"a": CategoryPR(1.5, 1, 0)}, CategoryPR(1.5, 1, 0))
        second = PRReport({"b": CategoryPR(0.5, 0, 2)}, CategoryPR(0.5, 0, 2))
        total = first + second + first
        assert total.per_category == {"a": CategoryPR(3.0, 2, 0), "b": CategoryPR(0.5, 0, 2)}
        assert total.overall == CategoryPR(3.5, 2, 2)


_coordinate = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_keypoint = st.one_of(st.none(), st.tuples(_coordinate, _coordinate))


def _pose_lists(spec):
    # keypoints missing on either side, and categories the skeleton lacks
    categories = st.sampled_from([*spec.categories, "horn", "hoof"])
    pose = st.dictionaries(categories, _keypoint).map(lambda coords: Pose(coords=coords))
    return st.lists(pose, max_size=8)


def _scalar_psi_costs(gt_poses, pred_poses, coord_scale):
    """The pairing cost matrix, one scalar :func:`psi` per pair of poses."""
    cost = np.full((len(gt_poses), len(pred_poses)), np.inf)
    for i, gt in enumerate(gt_poses):
        for j, pred in enumerate(pred_poses):
            distance = psi(gt, pred)
            if distance is not None:
                cost[i, j] = distance * coord_scale
    return cost


@settings(deadline=None, max_examples=200)
@given(data=st.data(), coord_scale=st.sampled_from([0.5, 1.0, 2.5]))
def test_pairing_matches_scalar_psi(spec, data, coord_scale):
    gt_poses = data.draw(_pose_lists(spec), label="gt")
    pred_poses = data.draw(_pose_lists(spec), label="pred")
    expected = _scalar_psi_costs(gt_poses, pred_poses, coord_scale)
    matrices = []

    def recording_hungarian(costs, gate=None):
        matrices.append(np.asarray(costs))
        return hungarian(costs, gate)

    with mock.patch.object(metrics, "hungarian", recording_hungarian):
        result = pair_skeletons(gt_poses, pred_poses, coord_scale=coord_scale)
    (cost,) = matrices
    assert cost.shape == expected.shape
    assert np.array_equal(np.isinf(cost), np.isinf(expected))
    finite = np.isfinite(expected)
    assert np.all(np.abs(cost[finite] - expected[finite]) <= 1e-9)
    # costs, not pairs: an exact tie may resolve either way
    oracle_pairs = hungarian(expected, gate=DEFAULT_PAIR_GATE)
    assert len(result.pairs) == len(oracle_pairs)
    total = sum(expected[i, j] for i, j in result.pairs)
    assert abs(total - sum(expected[i, j] for i, j in oracle_pairs)) <= 1e-9
    assert sorted(result.unpaired_gt + [i for i, _ in result.pairs]) == [*range(len(gt_poses))]
    assert sorted(result.unpaired_pred + [j for _, j in result.pairs]) == [*range(len(pred_poses))]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pose: pair_skeletons([pose], [pose], max_distance=-1.0), "max_distance must be positive"),
        (lambda pose: pair_skeletons([pose], [pose], max_distance=0.0), "max_distance must be positive"),
        (lambda pose: pair_skeletons([pose], [pose], max_distance=math.nan), "max_distance must be positive"),
        (lambda pose: pair_skeletons([pose], [pose], coord_scale=0.0), "coord_scale must be positive and finite"),
        (lambda pose: pair_skeletons([pose], [pose], coord_scale=-1.0), "coord_scale must be positive and finite"),
        (lambda pose: pair_skeletons([pose], [pose], coord_scale=math.nan), "coord_scale must be positive and finite"),
        (lambda pose: pair_skeletons([pose], [pose], coord_scale=math.inf), "coord_scale must be positive and finite"),
        (lambda pose: precision_recall([pose], [], {}, {}, cutoff=math.nan), "cutoff must be finite"),
        (lambda pose: precision_recall([pose], [], {}, {}, cutoff=math.inf), "cutoff must be finite"),
    ],
)
def test_out_of_range_parameters_rejected(square_pose, call, message):
    with pytest.raises(ValueError, match=message):
        call(square_pose)


class TestPairing:
    def test_pairs_nearest(self, square_pose):
        near = make_pose(**{c: (x + 1.0, y) for c, (x, y) in square_pose.coords.items()})
        far = make_pose(**{c: (x + 200.0, y) for c, (x, y) in square_pose.coords.items()})
        result = pair_skeletons([square_pose, far], [far, near])
        assert sorted(result.pairs) == [(0, 1), (1, 0)]
        assert result.unpaired_gt == []
        assert result.unpaired_pred == []

    def test_gate_excludes_distant(self, square_pose):
        drifted = make_pose(
            **{c: (x + 60.0, y) for c, (x, y) in square_pose.coords.items()}
        )
        result = pair_skeletons([square_pose], [drifted], max_distance=50.0)
        assert result.pairs == []
        assert result.unpaired_gt == [0]
        assert result.unpaired_pred == [0]

    def test_gate_boundary_kept(self, square_pose):
        drifted = make_pose(
            **{c: (x + 50.0, y) for c, (x, y) in square_pose.coords.items()}
        )
        result = pair_skeletons([square_pose], [drifted], max_distance=50.0)
        assert result.pairs == [(0, 0)]

    def test_coord_scale_applies_before_gate(self, square_pose):
        drifted = make_pose(
            **{c: (x + 30.0, y) for c, (x, y) in square_pose.coords.items()}
        )
        scaled = pair_skeletons([square_pose], [drifted], max_distance=50.0, coord_scale=2.0)
        assert scaled.pairs == []
        unscaled = pair_skeletons([square_pose], [drifted], max_distance=50.0)
        assert unscaled.pairs == [(0, 0)]

    def test_no_shared_categories_stay_unpaired(self):
        gt = make_pose(withers=(5.0, 5.0))
        pred = make_pose(tail_implant=(5.0, 5.0))
        result = pair_skeletons([gt], [pred])
        assert result.pairs == []

    def test_empty_inputs(self, square_pose):
        empty_pred = pair_skeletons([square_pose], [])
        assert empty_pred.unpaired_gt == [0] and empty_pred.pairs == []
        empty_gt = pair_skeletons([], [square_pose])
        assert empty_gt.unpaired_pred == [0] and empty_gt.pairs == []


class TestRecoveryRate:
    def test_unpaired_gt_counts_in_denominator(self, spec, square_pose):
        far = make_pose(**{c: (x + 400.0, y) for c, (x, y) in square_pose.coords.items()})
        gt = [square_pose, far]
        pred = [square_pose]
        pairing = pair_skeletons(gt, pred)
        assert pairing.pairs == [(0, 0)]
        eta, overall = recovery_rate(recovery_samples(gt, pred, pairing, spec), spec.categories)
        assert overall == pytest.approx(0.5)
        assert all(v == pytest.approx(0.5) for v in eta.values())

    def test_missing_category_in_prediction(self, spec, square_pose):
        pred = make_pose(**{**dict(square_pose.coords), "nose": None})
        pairing = pair_skeletons([square_pose], [pred])
        samples = recovery_samples([square_pose], [pred], pairing, spec)
        eta, overall = recovery_rate(samples, spec.categories)
        assert eta["nose"] == 0.0
        assert eta["withers"] == 1.0
        assert overall == pytest.approx(5.0 / 6.0)

    def test_absent_category_is_none(self, spec):
        gt = make_pose(withers=(5.0, 5.0), tail_implant=(1.0, 5.0))
        pairing = pair_skeletons([gt], [gt])
        eta, overall = recovery_rate(recovery_samples([gt], [gt], pairing, spec), spec.categories)
        assert eta["nose"] is None
        assert eta["withers"] == 1.0
        assert overall == 1.0

    def test_no_ground_truth_overall_none(self, spec):
        pairing = pair_skeletons([], [])
        eta, overall = recovery_rate(recovery_samples([], [], pairing, spec), spec.categories)
        assert overall is None
        assert all(v is None for v in eta.values())


    def test_samples_per_present_keypoint_in_pose_order(self, spec, square_pose):
        gt = [make_pose(withers=(5.0, 5.0), nose=None, horn=(1.0, 1.0)), square_pose]
        pred = [make_pose(**{**dict(square_pose.coords), "nose": None})]
        pairing = pair_skeletons(gt, pred)
        assert pairing.pairs == [(1, 0)]
        samples = list(recovery_samples(gt, pred, pairing, spec))
        assert samples == [("withers", False)] + [(cat, cat != "nose") for cat in spec.categories]


class TestRelativeError:
    def test_normalised_by_gt_scale(self, spec, square_pose):
        scale = skeleton_scale(spec, square_pose)
        coords = dict(square_pose.coords)
        coords["head"] = (coords["head"][0] + 3.0, coords["head"][1])
        pred = make_pose(**coords)
        pairing = pair_skeletons([square_pose], [pred])
        samples = relative_error([square_pose], [pred], pairing, spec)
        assert samples["head"] == [pytest.approx(3.0 / scale)]
        assert samples["withers"] == [pytest.approx(0.0)]

    def test_scale_invariance(self, spec, square_pose):
        def rescale(pose, factor):
            return make_pose(
                **{c: (x * factor, y * factor) for c, (x, y) in pose.coords.items()}
            )

        perturbed = dict(square_pose.coords)
        perturbed["nose"] = (perturbed["nose"][0] + 2.0, perturbed["nose"][1] + 1.0)
        pred = make_pose(**perturbed)
        small = relative_error(
            [square_pose], [pred], pair_skeletons([square_pose], [pred]), spec
        )
        big_gt, big_pred = rescale(square_pose, 4.0), rescale(pred, 4.0)
        big = relative_error(
            [big_gt], [big_pred], pair_skeletons([big_gt], [big_pred]), spec
        )
        assert big["nose"][0] == pytest.approx(small["nose"][0], rel=1e-9)

    def test_undefined_scale_skipped(self, spec, caplog):
        gt = make_pose(withers=(5.0, 5.0), head=(9.0, 5.0))
        pairing = pair_skeletons([gt], [gt])
        with caplog.at_level(logging.WARNING, logger="keytrack.metrics"):
            samples = relative_error([gt], [gt], pairing, spec)
        assert all(not values for values in samples.values())
        assert "undefined" in caplog.text

    def test_missing_keypoints_skipped(self, spec, square_pose):
        pred = make_pose(**{**dict(square_pose.coords), "nose": None})
        pairing = pair_skeletons([square_pose], [pred])
        samples = relative_error([square_pose], [pred], pairing, spec)
        assert samples["nose"] == []


def record_for(tracklet_id, observed, posterior, prior=None):
    return TrackletFrameRecord(
        tracklet_id=tracklet_id,
        observed=observed,
        prior=prior,
        posterior=posterior,
        imputed=frozenset(),
        alpha=None,
        gamma=None,
        psi=None,
    )


class TestFrameDifference:
    def test_observed_and_posterior_tracked_separately(self):
        before = TrackOutput(
            frame_index=0,
            records=[
                record_for(
                    1,
                    make_pose(withers=(0.0, 0.0)),
                    make_pose(withers=(1.0, 0.0)),
                )
            ],
        )
        after = TrackOutput(
            frame_index=1,
            records=[
                record_for(
                    1,
                    make_pose(withers=(5.0, 0.0)),
                    make_pose(withers=(4.0, 0.0)),
                )
            ],
        )
        result = frame_difference(before, after)
        assert result["observed"]["withers"] == [pytest.approx(5.0)]
        assert result["posterior"]["withers"] == [pytest.approx(3.0)]

    def test_new_tracklet_skipped(self):
        before = TrackOutput(frame_index=0, records=[])
        after = TrackOutput(
            frame_index=1,
            records=[record_for(7, make_pose(withers=(0.0, 0.0)), make_pose(withers=(0.0, 0.0)))],
        )
        result = frame_difference(before, after)
        assert result["observed"] == {} and result["posterior"] == {}

    def test_missing_keypoint_skipped(self):
        before = TrackOutput(
            frame_index=0,
            records=[record_for(1, make_pose(withers=(0.0, 0.0), nose=None), make_pose(withers=(0.0, 0.0)))],
        )
        after = TrackOutput(
            frame_index=1,
            records=[record_for(1, make_pose(withers=(2.0, 0.0), nose=(5.0, 5.0)), make_pose(withers=(2.0, 0.0)))],
        )
        result = frame_difference(before, after)
        assert result["observed"]["withers"] == [pytest.approx(2.0)]
        assert "nose" not in result["observed"]


class TestQuantiles:
    def test_matches_numpy_oracle(self, rng):
        samples = rng.exponential(2.0, 400).tolist()
        got = quantiles(samples)
        oracle = np.quantile(samples, (0.05, 0.5, 0.95), method="linear")
        assert got[0.05] == pytest.approx(oracle[0])
        assert got[0.5] == pytest.approx(oracle[1])
        assert got[0.95] == pytest.approx(oracle[2])

    def test_empty_is_none(self):
        assert quantiles([]) is None

    def test_single_sample(self):
        got = quantiles([3.5])
        assert got == {0.05: 3.5, 0.5: 3.5, 0.95: 3.5}


class TestErrorStats:
    def test_from_samples(self):
        stats = ErrorStats.from_samples([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(np.std([1.0, 2.0, 3.0]))
        assert stats.count == 3

    def test_empty(self):
        stats = ErrorStats.from_samples([])
        assert stats.mean is None and stats.std is None and stats.count == 0


class TestEvaluatePoses:
    def test_counts_and_eta(self, spec, square_pose):
        far = make_pose(**{c: (x + 400.0, y) for c, (x, y) in square_pose.coords.items()})
        gt_frames = {0: [square_pose, far], 1: [square_pose]}
        pred_frames = {0: [square_pose], 1: [square_pose]}
        report, series = evaluate_poses(gt_frames, pred_frames, spec)
        assert report.frames == 2
        assert report.paired == 2
        assert report.unpaired_gt == 1
        assert report.eta_overall == pytest.approx(12.0 / 18.0)
        assert report.relative_error["withers"].count == 2
        assert len(series.recovery) == 18

    def test_unknown_frame_rejected(self, spec, square_pose):
        with pytest.raises(ValueError, match="without ground truth"):
            evaluate_poses({0: [square_pose]}, {1: [square_pose]}, spec)

    def test_missing_prediction_frame_counts_as_unpaired(self, spec, square_pose):
        report, _ = evaluate_poses({0: [square_pose]}, {}, spec)
        assert report.unpaired_gt == 1
        assert report.eta_overall == 0.0

    def test_report_dict_shape(self, spec, square_pose):
        report, _ = evaluate_poses({0: [square_pose]}, {0: [square_pose]}, spec)
        payload = report.to_dict()
        assert payload["paired_skeletons"] == 1
        assert payload["recovery_rate"]["overall"] == 1.0
        assert payload["relative_error"]["withers"]["count"] == 1
        assert payload["frame_difference_quantiles"] == {}


class TestEvaluateTracks:
    def test_posterior_smoothness_quantiles(self, spec, square_pose):
        outputs = []
        for frame in range(3):
            observed = make_pose(
                **{c: (x + 6.0 * frame, y) for c, (x, y) in square_pose.coords.items()}
            )
            posterior = make_pose(
                **{c: (x + 2.0 * frame, y) for c, (x, y) in square_pose.coords.items()}
            )
            outputs.append(TrackOutput(frame_index=frame, records=[record_for(1, observed, posterior)]))
        gt_frames = {
            out.frame_index: [out.records[0].posterior] for out in outputs
        }
        report, series = evaluate_tracks(gt_frames, outputs, spec)
        assert report.eta_overall == 1.0
        q_obs = report.frame_diff_quantiles["observed"]["withers"]
        q_post = report.frame_diff_quantiles["posterior"]["withers"]
        assert q_obs[0.5] == pytest.approx(6.0)
        assert q_post[0.5] == pytest.approx(2.0)
        assert any(row["kind"] == "posterior" for row in series.frame_difference)

    def test_category_outside_skeleton_left_out_of_report(self, spec, square_pose):
        horned = make_pose(**dict(square_pose.coords), horn=(1.0, 1.0))
        outputs = [
            TrackOutput(frame_index=frame, records=[record_for(1, horned, horned)])
            for frame in range(2)
        ]
        report, series = evaluate_tracks({0: [square_pose], 1: [square_pose]}, outputs, spec)
        for kind in FRAME_DIFF_KINDS:
            assert list(report.frame_diff_quantiles[kind]) == list(spec.categories)
        assert any(row["category"] == "horn" for row in series.frame_difference)

    def test_category_without_samples_is_none(self, spec, square_pose):
        outputs = [
            TrackOutput(frame_index=0, records=[record_for(1, square_pose, square_pose)])
        ]
        report, _ = evaluate_tracks({0: [square_pose]}, outputs, spec)
        assert report.frame_diff_quantiles["observed"]["withers"] is None


def test_report_reduces_series_rows(spec):
    """Each score equals a plain per-category filter over the series rows."""
    config = ScenarioConfig(
        n_animals=4, seed=7, dropout=0.2, regimes=(RegimeSegment("stationary", 12),)
    )
    truth = generate(spec, config)
    tracker = KeySortTracker(spec, np.ones(len(spec.categories)))
    detections = corrupt(truth, spec, config)
    outputs = [tracker.step(detections[f], f) for f in sorted(detections)]
    report, series = evaluate_tracks(truth.poses_by_frame(), outputs, spec)
    assert report.frames == 12 and len(series.recovery) > 0
    for cat in spec.categories:
        hits = [row["recovered"] for row in series.recovery if row["category"] == cat]
        assert report.eta[cat] == (sum(hits) / len(hits) if hits else None)
        errors = [row["value"] for row in series.relative_error if row["category"] == cat]
        assert report.relative_error[cat] == ErrorStats.from_samples(errors)
        for kind in FRAME_DIFF_KINDS:
            diffs = [
                row["value"]
                for row in series.frame_difference
                if row["kind"] == kind and row["category"] == cat
            ]
            assert report.frame_diff_quantiles[kind][cat] == quantiles(diffs)
    hits = [row["recovered"] for row in series.recovery]
    assert report.eta_overall == sum(hits) / len(hits)
