import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack.skeleton import (
    Pose,
    SkeletonSpec,
    connection_name,
    connection_vector,
    estimate_betas,
    is_valid_pose,
    parse_connection_name,
    require_valid_spec,
    skeleton_scale,
)

from conftest import make_pose


def test_connection_name_round_trip():
    assert connection_name(("withers", "head")) == "withers->head"
    assert parse_connection_name("withers->head") == ("withers", "head")
    with pytest.raises(ValueError):
        parse_connection_name("withers-head")
    with pytest.raises(ValueError):
        parse_connection_name("->head")


def test_pose_accessors():
    pose = make_pose(withers=(1, 2), head=None)
    assert pose.get("withers") == (1.0, 2.0)
    assert pose.get("head") is None
    assert pose.get("nose") is None
    assert pose.present("withers")
    assert not pose.present("head")
    assert pose.present_categories() == ["withers"]


class TestSpecStructure:
    def test_bundled_spec_is_valid(self, spec):
        assert spec.validate() == []

    def test_tree_order_and_ranks(self, spec):
        # head->nose is declared third but is the only second-order connection
        assert spec.connections[2] == ("head", "nose")
        assert spec.tree_order == (
            ("withers", "tail_implant"),
            ("withers", "head"),
            ("withers", "left_hip"),
            ("withers", "right_hip"),
            ("head", "nose"),
        )
        assert spec.ranks == {
            "withers": 0,
            "tail_implant": 1,
            "head": 1,
            "nose": 2,
            "left_hip": 1,
            "right_hip": 1,
        }

    def test_cycle_off_the_root_is_unreachable(self):
        cyclic = SkeletonSpec(
            name="cyclic",
            categories=("a", "b", "c", "d"),
            root="a",
            connections=(("a", "b"), ("c", "d"), ("d", "c")),
            dominant=(("a", "b"),),
            betas={("a", "b"): 1.0},
            reference=("a", "b"),
        )
        assert cyclic.tree_order == (("a", "b"),)
        assert cyclic.ranks == {"a": 0, "b": 1}
        problems = cyclic.validate()
        assert "category 'c' is not reachable from the root" in problems
        assert "category 'd' is not reachable from the root" in problems

    def test_training_only_excluded_from_tree(self, spec):
        assert ("right_hip", "left_hip") in spec.connections
        assert ("right_hip", "left_hip") not in spec.tree_connections
        assert spec.parent_of["left_hip"] == "withers"

    def test_unreachable_category_flagged(self):
        bad = SkeletonSpec(
            name="bad",
            categories=("a", "b", "c"),
            root="a",
            connections=(("a", "b"),),
            dominant=(("a", "b"),),
            betas={("a", "b"): 1.0},
            reference=("a", "b"),
        )
        problems = bad.validate()
        assert any("not reachable" in p for p in problems)
        with pytest.raises(ValueError):
            require_valid_spec(bad)

    def test_second_order_dominant_rejected(self):
        bad = SkeletonSpec(
            name="bad",
            categories=("a", "b", "c"),
            root="a",
            connections=(("a", "b"), ("b", "c")),
            dominant=(("b", "c"),),
            betas={("b", "c"): 1.0},
            reference=("b", "c"),
        )
        problems = bad.validate()
        assert any("not first-order" in p for p in problems)

    def test_reference_beta_must_be_one(self):
        bad = SkeletonSpec(
            name="bad",
            categories=("a", "b"),
            root="a",
            connections=(("a", "b"),),
            dominant=(("a", "b"),),
            betas={("a", "b"): 2.0},
            reference=("a", "b"),
        )
        assert any("beta must be 1" in p for p in bad.validate())

    def test_double_parent_flagged(self):
        bad = SkeletonSpec(
            name="bad",
            categories=("a", "b", "c"),
            root="a",
            connections=(("a", "b"), ("a", "c"), ("b", "c")),
            dominant=(("a", "b"),),
            betas={("a", "b"): 1.0},
            reference=("a", "b"),
        )
        assert any("more than one parent" in p for p in bad.validate())


class TestPoseValidity:
    def test_full_pose_valid(self, spec, square_pose):
        assert is_valid_pose(spec, square_pose)

    def test_missing_root_invalid(self, spec, square_pose):
        coords = dict(square_pose.coords)
        coords["withers"] = None
        assert not is_valid_pose(spec, Pose(coords=coords))

    def test_no_dominant_connection_invalid(self, spec, square_pose):
        coords = dict(square_pose.coords)
        for cat in ("tail_implant", "left_hip", "right_hip"):
            coords[cat] = None
        # head/nose remain but no dominant connection exists
        assert not is_valid_pose(spec, Pose(coords=coords))

    def test_single_dominant_suffices(self, spec):
        pose = make_pose(withers=(0, 0), left_hip=(-39, 14))
        assert is_valid_pose(spec, pose)


class TestSkeletonScale:
    def test_hand_computed_scale(self, spec, square_pose):
        # tail length 60*1.0, hip lengths sqrt(39^2+14^2)*1.45, averaged
        hip = math.hypot(39.0, 14.0)
        expected = (60.0 + 1.45 * hip + 1.45 * hip) / 3.0
        assert skeleton_scale(spec, square_pose) == pytest.approx(expected)

    def test_scale_none_without_dominant(self, spec):
        pose = make_pose(withers=(0, 0), head=(22, 0))
        assert skeleton_scale(spec, pose) is None

    def test_scale_uses_present_subset(self, spec):
        pose = make_pose(withers=(0, 0), tail_implant=(-50, 0))
        assert skeleton_scale(spec, pose) == pytest.approx(50.0)

    @settings(deadline=None, max_examples=50)
    @given(
        angle=st.floats(0, 2 * math.pi),
        tx=st.floats(-500, 500),
        ty=st.floats(-500, 500),
    )
    def test_rigid_motion_invariance(self, spec, angle, tx, ty):
        pose = make_pose(
            withers=(100.0, 100.0),
            tail_implant=(40.0, 100.0),
            left_hip=(61.0, 114.0),
            right_hip=(61.0, 86.0),
        )
        c, s = math.cos(angle), math.sin(angle)
        moved = {}
        for cat, xy in pose.coords.items():
            x, y = xy
            moved[cat] = (c * x - s * y + tx, s * x + c * y + ty)
        base = skeleton_scale(spec, pose)
        assert skeleton_scale(spec, Pose(coords=moved)) == pytest.approx(
            base, rel=1e-9
        )


class TestBetaEstimation:
    def test_exact_proportions_recovered(self, spec):
        # tail twice as long as the hips in every sample: beta_hip = 2
        poses = []
        for k, factor in enumerate((1.0, 1.5, 0.75)):
            poses.append(
                make_pose(
                    frame_index=k,
                    withers=(0, 0),
                    tail_implant=(-10 * factor, 0),
                    left_hip=(0, 5 * factor),
                    right_hip=(0, -5 * factor),
                )
            )
        betas = estimate_betas(poses, spec)
        assert betas[("withers", "tail_implant")] == 1.0
        assert betas[("withers", "left_hip")] == pytest.approx(2.0)
        assert betas[("withers", "right_hip")] == pytest.approx(2.0)

    def test_least_squares_oracle(self, spec, rng):
        # against numpy lstsq on the same no-intercept regression
        poses = []
        for k in range(40):
            length = rng.uniform(20, 60)
            noise = rng.normal(0, 0.5)
            poses.append(
                make_pose(
                    frame_index=k,
                    withers=(0, 0),
                    tail_implant=(length + noise, 0),
                    left_hip=(0, length / 1.45),
                    right_hip=(0, -length / 1.45),
                )
            )
        betas = estimate_betas(poses, spec)
        x = np.array(
            [abs(p.coords["left_hip"][1]) for p in poses]
        )
        y = np.array([p.coords["tail_implant"][0] for p in poses])
        expected = np.linalg.lstsq(x[:, None], y, rcond=None)[0][0]
        assert betas[("withers", "left_hip")] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_pair_averaging(self, spec):
        poses = [
            make_pose(
                frame_index=k,
                withers=(0, 0),
                tail_implant=(-12.0, 0),
                left_hip=(0, 4.0),
                right_hip=(0, -6.0),
            )
            for k in range(3)
        ]
        lh, rh = ("withers", "left_hip"), ("withers", "right_hip")
        plain = estimate_betas(poses, spec)
        assert plain[lh] == pytest.approx(3.0)
        assert plain[rh] == pytest.approx(2.0)
        merged = estimate_betas(poses, spec, symmetric_pairs=[(lh, rh)])
        assert merged[lh] == merged[rh] == pytest.approx(2.5)

    def test_insufficient_samples_names_connection(self, spec):
        poses = [
            make_pose(withers=(0, 0), tail_implant=(-10, 0), left_hip=(0, 5)),
        ]
        with pytest.raises(ValueError, match="withers->left_hip"):
            estimate_betas(poses, spec)

    def test_missing_keypoints_skip_samples(self, spec):
        # hips co-occur with the tail in only two poses; still enough
        poses = [
            make_pose(withers=(0, 0), tail_implant=(-10, 0), left_hip=(0, 5), right_hip=(0, -5)),
            make_pose(withers=(0, 0), tail_implant=(-20, 0), left_hip=(0, 10), right_hip=(0, -10)),
            make_pose(withers=(0, 0), tail_implant=(-30, 0)),
        ]
        betas = estimate_betas(poses, spec)
        assert betas[("withers", "left_hip")] == pytest.approx(2.0)


def test_connection_vector(square_pose):
    assert connection_vector(square_pose, ("withers", "tail_implant")) == (-60.0, 0.0)
    assert connection_vector(square_pose, ("head", "nose")) == (16.0, 0.0)
    pose = make_pose(withers=(0, 0))
    assert connection_vector(pose, ("withers", "head")) is None
