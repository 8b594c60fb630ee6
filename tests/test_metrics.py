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
    pair_skeletons,
    precision_recall,
    quantiles,
)
from keytrack.simulate import RegimeSegment, ScenarioConfig, corrupt, generate
from keytrack.skeleton import Pose, skeleton_scale

import metrics_oracle as oracle
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


_map_coordinate = st.one_of(
    st.floats(min_value=-3.0, max_value=15.0, allow_nan=False),
    st.integers(-1, 13).map(float),  # the grid edges, and one cell past them
)
_map_point = st.tuples(_map_coordinate, _map_coordinate)
_map_categories = st.sampled_from(["a", "b", "horn"])


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
    cutoff=st.one_of(st.sampled_from([-0.5, 0.0, 0.5]), st.floats(-1.0, 1.5)),
)
def test_precision_recall_matches_per_point_oracle(data, shape, seed, cutoff):
    """Points on and off the grid, a category without a truth map ("horn")
    and one without a predicted map ("b"), and cutoffs at or below 0."""
    rng = np.random.default_rng(seed)

    def sparse_map():
        return (rng.random(shape) * (rng.random(shape) < 0.6)).astype(np.float32)

    gt_maps = {"a": sparse_map(), "b": sparse_map()}
    pred_maps = {"a": sparse_map(), "horn": sparse_map()}
    keypoints = st.dictionaries(_map_categories, st.one_of(st.none(), _map_point))
    gt_poses = data.draw(st.lists(keypoints.map(lambda c: Pose(coords=c)), max_size=6))
    drawn = data.draw(st.lists(st.tuples(_map_categories, _map_point), max_size=10))
    candidates = [CandidateKeypoint(cat, x, y, 1.0) for cat, (x, y) in drawn]
    got = precision_recall(gt_poses, candidates, gt_maps, pred_maps, cutoff)
    expected = oracle.precision_recall(gt_poses, candidates, gt_maps, pred_maps, cutoff)
    assert got == expected
    assert list(got.per_category) == list(expected.per_category)


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


def _table(columns, spec):
    """A series table as row tuples in row order, with category and kind
    codes given back as names."""
    names = {"category": spec.categories, "kind": FRAME_DIFF_KINDS}
    return list(
        zip(*([names[k][c] for c in col] if k in names else col.tolist() for k, col in columns.items()))
    )


def _shifted(pose, dx, dy=0.0):
    return make_pose(**{c: (x + dx, y + dy) for c, (x, y) in pose.coords.items()})


class TestRecoveryRate:
    def test_unpaired_gt_counts_in_denominator(self, spec, square_pose):
        far = _shifted(square_pose, 400.0)
        report, _ = evaluate_poses({0: [square_pose, far]}, {0: [square_pose]}, spec)
        assert (report.paired, report.unpaired_gt) == (1, 1)
        assert report.eta_overall == pytest.approx(0.5)
        assert all(v == pytest.approx(0.5) for v in report.eta.values())

    def test_missing_category_in_prediction(self, spec, square_pose):
        pred = make_pose(**{**dict(square_pose.coords), "nose": None})
        report, _ = evaluate_poses({0: [square_pose]}, {0: [pred]}, spec)
        assert report.eta["nose"] == 0.0
        assert report.eta["withers"] == 1.0
        assert report.eta_overall == pytest.approx(5.0 / 6.0)

    def test_absent_category_is_none(self, spec):
        gt = make_pose(withers=(5.0, 5.0), tail_implant=(1.0, 5.0))
        report, _ = evaluate_poses({0: [gt]}, {0: [gt]}, spec)
        assert report.eta["nose"] is None
        assert report.eta["withers"] == 1.0
        assert report.eta_overall == 1.0

    def test_no_ground_truth_overall_none(self, spec):
        for gt_frames in ({}, {0: []}):
            report, series = evaluate_poses(gt_frames, {}, spec)
            assert report.eta_overall is None
            assert all(v is None for v in report.eta.values())
            assert _table(series.recovery, spec) == []

    def test_samples_per_present_keypoint_in_pose_order(self, spec, square_pose):
        gt = [make_pose(withers=(5.0, 5.0), nose=None, horn=(1.0, 1.0)), square_pose]
        pred = [make_pose(**{**dict(square_pose.coords), "nose": None})]
        report, series = evaluate_poses({3: gt}, {3: pred}, spec)
        assert (report.paired, report.unpaired_gt) == (1, 1)
        expected = [("withers", False)] + [(cat, cat != "nose") for cat in spec.categories]
        assert _table(series.recovery, spec) == [(3, cat, hit) for cat, hit in expected]


class TestRelativeError:
    def test_normalised_by_gt_scale(self, spec, square_pose):
        scale = skeleton_scale(spec, square_pose)
        coords = dict(square_pose.coords)
        coords["head"] = (coords["head"][0] + 3.0, coords["head"][1])
        _, series = evaluate_poses({0: [square_pose]}, {0: [make_pose(**coords)]}, spec)
        values = {cat: value for _, cat, value in _table(series.relative_error, spec)}
        assert values["head"] == pytest.approx(3.0 / scale)
        assert values["withers"] == pytest.approx(0.0)
        # one sample per category, in category order
        assert list(values) == list(spec.categories)

    def test_scale_invariance(self, spec, square_pose):
        def rescale(pose, factor):
            return make_pose(
                **{c: (x * factor, y * factor) for c, (x, y) in pose.coords.items()}
            )

        perturbed = dict(square_pose.coords)
        perturbed["nose"] = (perturbed["nose"][0] + 2.0, perturbed["nose"][1] + 1.0)
        pred = make_pose(**perturbed)
        small, _ = evaluate_poses({0: [square_pose]}, {0: [pred]}, spec)
        big, _ = evaluate_poses({0: [rescale(square_pose, 4.0)]}, {0: [rescale(pred, 4.0)]}, spec)
        assert big.relative_error["nose"].mean == pytest.approx(
            small.relative_error["nose"].mean, rel=1e-9
        )

    def test_undefined_scale_skipped(self, spec, caplog):
        gt = make_pose(withers=(5.0, 5.0), head=(9.0, 5.0))
        with caplog.at_level(logging.WARNING, logger="keytrack.metrics"):
            report, _ = evaluate_poses({0: [gt]}, {0: [gt]}, spec)
        assert report.paired == 1
        assert all(stats.count == 0 for stats in report.relative_error.values())
        assert "undefined" in caplog.text

    def test_zero_scale_skipped_with_one_warning_per_pair(self, spec, caplog):
        # every keypoint on one spot: the dominant connections have length 0
        flat = make_pose(**{cat: (100.0, 100.0) for cat in spec.categories})
        with caplog.at_level(logging.WARNING, logger="keytrack.metrics"):
            report, series = evaluate_poses({0: [flat, flat]}, {0: [flat, flat]}, spec)
        assert report.paired == 2 and report.eta_overall == 1.0
        assert _table(series.relative_error, spec) == []
        warnings = [r for r in caplog.records if "undefined" in r.getMessage()]
        assert len(warnings) == 2

    def test_missing_keypoints_skipped(self, spec, square_pose):
        pred = make_pose(**{**dict(square_pose.coords), "nose": None})
        report, _ = evaluate_poses({0: [square_pose]}, {0: [pred]}, spec)
        assert report.relative_error["nose"].count == 0
        assert report.relative_error["withers"].count == 1


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


def _smoothness(spec, *outputs):
    """Frame-difference rows of ``outputs``, scored against their own posteriors."""
    gt_frames = {out.frame_index: [r.posterior for r in out.records] for out in outputs}
    _, series = evaluate_tracks(gt_frames, outputs, spec)
    return _table(series.frame_difference, spec)


class TestFrameDifference:
    def test_observed_and_posterior_tracked_separately(self, spec, caplog):
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
        rows = _smoothness(spec, before, after)
        assert rows == [(1, "observed", "withers", 5.0), (1, "posterior", "withers", 3.0)]

    def test_new_tracklet_skipped(self, spec, caplog):
        before = TrackOutput(frame_index=0, records=[])
        after = TrackOutput(
            frame_index=1,
            records=[record_for(7, make_pose(withers=(0.0, 0.0)), make_pose(withers=(0.0, 0.0)))],
        )
        assert _smoothness(spec, before, after) == []

    def test_missing_keypoint_skipped(self, spec, caplog):
        before = TrackOutput(
            frame_index=0,
            records=[record_for(1, make_pose(withers=(0.0, 0.0), nose=None), make_pose(withers=(0.0, 0.0)))],
        )
        after = TrackOutput(
            frame_index=1,
            records=[record_for(1, make_pose(withers=(2.0, 0.0), nose=(5.0, 5.0)), make_pose(withers=(2.0, 0.0)))],
        )
        rows = _smoothness(spec, before, after)
        assert [row for row in rows if row[1] == "observed"] == [(1, "observed", "withers", 2.0)]

    def test_rows_follow_the_later_frame_record_order(self, spec, square_pose):
        # tracklet i moves i px a frame
        def output(frame, ids):
            records = [
                record_for(i, _shifted(square_pose, 100.0 * i + frame * i), _shifted(square_pose, 100.0 * i))
                for i in ids
            ]
            return TrackOutput(frame_index=frame, records=records)

        rows = _smoothness(spec, output(0, [2, 5, 9]), output(1, [9, 3, 2]))
        # category by category, then tracklets 9 and 2 in frame 1's order; 3 is new
        expected = [(1, "observed", cat, moved) for cat in spec.categories for moved in (9.0, 2.0)]
        assert [row for row in rows if row[1] == "observed"] == expected

    def test_only_adjacent_frames_are_compared(self, spec, square_pose):
        # outputs at 0, 1, 3 and 4; the tracklet moves 2 px a frame
        outputs = [
            TrackOutput(
                frame_index=frame,
                records=[record_for(1, _shifted(square_pose, 2.0 * frame), _shifted(square_pose, 2.0 * frame))],
            )
            for frame in (0, 1, 3, 4)
        ]
        rows = _smoothness(spec, *outputs)
        assert sorted({frame for frame, *_ in rows}) == [1, 4]
        assert all(value == pytest.approx(2.0) for *_, value in rows)
        gt_frames = {out.frame_index: [out.records[0].posterior] for out in outputs}
        report, _ = evaluate_tracks(gt_frames, outputs, spec)
        assert report.frame_diff_quantiles["posterior"]["withers"][0.95] == pytest.approx(2.0)


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
        assert len(series.recovery["frame"]) == 18

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
        assert "posterior" in {kind for _, kind, _, _ in _table(series.frame_difference, spec)}

    def test_category_outside_skeleton_left_out_of_report(self, spec, square_pose):
        horned = make_pose(**dict(square_pose.coords), horn=(1.0, 1.0))
        outputs = [
            TrackOutput(frame_index=frame, records=[record_for(1, horned, horned)])
            for frame in range(2)
        ]
        report, series = evaluate_tracks({0: [square_pose], 1: [square_pose]}, outputs, spec)
        for kind in FRAME_DIFF_KINDS:
            assert list(report.frame_diff_quantiles[kind]) == list(spec.categories)
        # the columns hold skeleton categories only
        rows = _table(series.frame_difference, spec)
        assert [(kind, cat) for _, kind, cat, _ in rows] == [
            (kind, cat) for kind in FRAME_DIFF_KINDS for cat in spec.categories
        ]

    def test_category_without_samples_is_none(self, spec, square_pose):
        outputs = [
            TrackOutput(frame_index=0, records=[record_for(1, square_pose, square_pose)])
        ]
        report, _ = evaluate_tracks({0: [square_pose]}, outputs, spec)
        assert report.frame_diff_quantiles["observed"]["withers"] is None


def test_report_reduces_series_rows(spec):
    """Each score equals a plain per-category filter over the series columns."""
    config = ScenarioConfig(
        n_animals=4, seed=7, dropout=0.2, regimes=(RegimeSegment("stationary", 12),)
    )
    truth = generate(spec, config)
    tracker = KeySortTracker(spec, np.ones(len(spec.categories)))
    detections = corrupt(truth, spec, config)
    outputs = [tracker.step(detections[f], f) for f in sorted(detections)]
    report, series = evaluate_tracks(truth.poses_by_frame(), outputs, spec)
    assert report.frames == 12 and len(series.recovery["frame"]) > 0
    dtypes = {"frame": np.int64, "kind": np.int64, "category": np.int64, "recovered": bool, "value": np.float64}
    for table, names in [
        (series.recovery, ["frame", "category", "recovered"]),
        (series.relative_error, ["frame", "category", "value"]),
        (series.frame_difference, ["frame", "kind", "category", "value"]),
    ]:
        assert list(table) == names
        assert all(table[name].dtype == dtypes[name] and table[name].ndim == 1 for name in names)
        assert len({len(column) for column in table.values()}) == 1
    recovery = _table(series.recovery, spec)
    errors = _table(series.relative_error, spec)
    diffs = _table(series.frame_difference, spec)
    for cat in spec.categories:
        hits = [hit for _, c, hit in recovery if c == cat]
        assert report.eta[cat] == (sum(hits) / len(hits) if hits else None)
        assert report.relative_error[cat] == ErrorStats.from_samples([v for _, c, v in errors if c == cat])
        for kind in FRAME_DIFF_KINDS:
            values = [v for _, k, c, v in diffs if k == kind and c == cat]
            assert report.frame_diff_quantiles[kind][cat] == quantiles(values)
    hits = [hit for *_, hit in recovery]
    assert report.eta_overall == sum(hits) / len(hits)


_SCENES = {3: (960, 720), 12: (960, 720), 30: (4000, 4000)}


def _within_ulps(got, expected, ulps=2):
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and bool(
        np.all(np.abs(got - expected) <= ulps * np.spacing(np.maximum(np.abs(got), np.abs(expected))))
    )


def _assert_rows_match(got, expected):
    """Equal keys and order; values within 2 ulp."""
    assert [row[:-1] for row in got] == [row[:-1] for row in expected]
    assert _within_ulps([row[-1] for row in got], [row[-1] for row in expected])


@pytest.mark.parametrize("seed", [5, 17, 29])
@pytest.mark.parametrize("animals", sorted(_SCENES))
def test_scoring_matches_per_sample_oracle(spec, animals, seed):
    width, height = _SCENES[animals]
    config = ScenarioConfig(
        n_animals=animals,
        seed=seed,
        width=width,
        height=height,
        dropout=0.25,
        regimes=(RegimeSegment("stationary", 16),),
    )
    truth = generate(spec, config)
    gt_frames = truth.poses_by_frame()
    detections = corrupt(truth, spec, config)
    tracker = KeySortTracker(spec, np.ones(len(spec.categories)))
    # frames 3, 10 and 11 have no output, so some outputs are not adjacent
    outputs = [tracker.step(detections[f], f) for f in sorted(detections) if f not in (3, 10, 11)]
    posteriors = {out.frame_index: [r.posterior for r in out.records] for out in outputs}
    for (report, series), expected in [
        (evaluate_poses(gt_frames, detections, spec), oracle.evaluation_rows(gt_frames, detections, spec)),
        (evaluate_tracks(gt_frames, outputs, spec), oracle.evaluation_rows(gt_frames, posteriors, spec, outputs)),
    ]:
        counts = expected["counts"]
        assert (report.frames, report.paired, report.unpaired_gt, report.unpaired_pred) == (
            counts["frames"], counts["paired"], counts["unpaired_gt"], counts["unpaired_pred"]
        )
        assert _table(series.recovery, spec) == expected["recovery"]
        assert len(expected["recovery"]) > 0 and not all(hit for *_, hit in expected["recovery"])
        _assert_rows_match(_table(series.relative_error, spec), expected["relative_error"])
        # the oracle lists a frame's categories in the order their first samples
        # turn up; the columns list them in skeleton order, tracklets in record order
        diffs = sorted(
            expected["frame_difference"],
            key=lambda row: (row[0], FRAME_DIFF_KINDS.index(row[1]), spec.categories.index(row[2])),
        )
        _assert_rows_match(_table(series.frame_difference, spec), diffs)
        eta, overall = oracle.recovery_rate([row[1:] for row in expected["recovery"]], spec.categories)
        assert (report.eta, report.eta_overall) == (eta, overall)
    assert len(expected["frame_difference"]) > 0
