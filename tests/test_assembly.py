import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack import assembly
from keytrack.assembly import assemble, association_penalty, predict_complement
from keytrack.keysort import KeySortTracker
from keytrack.maps import CandidateKeypoint, MapStack, decode_candidates, encode
from keytrack.simulate import (
    RegimeSegment,
    ScenarioConfig,
    corrupt,
    generate,
    two_point_skeleton,
)

import assembly_oracle
from conftest import make_pose


def constant_offset_stack(dx: float, dy: float, size: int = 32) -> MapStack:
    pair = ("a", "b")
    grids = np.zeros((4, size, size), dtype=np.float32)
    grids[0] = dx
    grids[1] = dy
    grids[2] = -dx
    grids[3] = -dy
    return MapStack(width=size, height=size, prob={}, assoc={pair: grids})


def candidates_from(poses) -> list[CandidateKeypoint]:
    out = []
    for pose in poses:
        for cat, xy in pose.coords.items():
            if xy is not None:
                out.append(CandidateKeypoint(category=cat, x=xy[0], y=xy[1], score=1.0))
    return out


class TestComplementPrediction:
    def test_constant_offset_forward_and_reverse(self):
        stack = constant_offset_stack(10.0, -4.0)
        assert predict_complement((5.0, 20.0), stack, ("a", "b")) == pytest.approx(
            (15.0, 16.0)
        )
        assert predict_complement(
            (15.0, 16.0), stack, ("a", "b"), reverse=True
        ) == pytest.approx((5.0, 20.0))

    def test_encoded_maps_point_at_counterpart(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        wx, wy = square_pose.coords["withers"]
        tx, ty = predict_complement((wx, wy), stack, ("withers", "tail_implant"))
        true_tail = square_pose.coords["tail_implant"]
        assert math.hypot(tx - true_tail[0], ty - true_tail[1]) < 0.5


class TestAssociationPenalty:
    def test_exact_agreement_is_zero(self):
        stack = constant_offset_stack(10.0, 0.0)
        penalty = association_penalty((5.0, 5.0), (15.0, 5.0), stack, ("a", "b"))
        assert penalty == pytest.approx(0.0, abs=1e-9)

    def test_mean_of_directed_disagreements(self):
        stack = constant_offset_stack(10.0, 0.0)
        # forward misses the child by 2, backward misses the parent by 2
        penalty = association_penalty((5.0, 5.0), (17.0, 5.0), stack, ("a", "b"))
        assert penalty == pytest.approx(2.0)

    def test_one_sided_disagreement_halved(self):
        pair = ("a", "b")
        grids = np.zeros((4, 32, 32), dtype=np.float32)
        grids[0] = 10.0  # forward predicts child exactly
        grids[2] = -16.0  # backward overshoots the parent by 6
        stack = MapStack(width=32, height=32, prob={}, assoc={pair: grids})
        penalty = association_penalty((5.0, 5.0), (15.0, 5.0), stack, pair)
        assert penalty == pytest.approx(3.0)


class TestAssemble:
    def test_single_animal_fully_assembled(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        skeletons = assemble(candidates_from([square_pose]), stack, spec)
        assert len(skeletons) == 1
        built = skeletons[0]
        assert set(built.coords) == set(spec.categories)
        for cat, xy in square_pose.coords.items():
            assert built.coords[cat] == pytest.approx(xy, abs=1e-6)

    def test_two_animals_no_cross_assignment(self, spec, square_pose):
        other = make_pose(
            **{c: (x + 120.0, y + 60.0) for c, (x, y) in square_pose.coords.items()}
        )
        poses = [square_pose, other]
        stack = encode(poses, spec, 360, 300)
        skeletons = assemble(candidates_from(poses), stack, spec)
        assert len(skeletons) == 2
        for pose in poses:
            wx, wy = pose.coords["withers"]
            built = min(
                skeletons,
                key=lambda s: math.hypot(
                    s.coords["withers"][0] - wx, s.coords["withers"][1] - wy
                ),
            )
            for cat, xy in pose.coords.items():
                assert built.coords[cat] == pytest.approx(xy, abs=1e-6)

    def test_assembled_poses_feed_the_tracker(self, spec, square_pose):
        """Decoded and assembled poses go to the tracker as they are."""
        other = make_pose(
            **{c: (x + 120.0, y + 60.0) for c, (x, y) in square_pose.coords.items()}
        )
        stack = encode([square_pose, other], spec, 360, 300)
        assembled = assemble(decode_candidates(stack.prob), stack, spec)
        output = KeySortTracker(spec, np.ones(len(spec.categories))).step(assembled, 0)
        assert len(assembled) == 2
        assert sorted(id(r.observed) for r in output.records) == sorted(map(id, assembled))

    def test_root_without_dominant_child_pruned(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        wx, wy = square_pose.coords["withers"]
        lone = [
            CandidateKeypoint("withers", wx, wy, 1.0),
            CandidateKeypoint("head", 122.0, 100.0, 1.0),
            CandidateKeypoint("nose", 138.0, 100.0, 1.0),
        ]
        # head is not dominant, so root + head only does not survive
        assert assemble(lone, stack, spec) == []

    def test_single_dominant_child_sufficient(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        wx, wy = square_pose.coords["withers"]
        tx, ty = square_pose.coords["tail_implant"]
        cands = [
            CandidateKeypoint("withers", wx, wy, 1.0),
            CandidateKeypoint("tail_implant", tx, ty, 1.0),
        ]
        skeletons = assemble(cands, stack, spec)
        assert len(skeletons) == 1
        assert set(skeletons[0].coords) == {"withers", "tail_implant"}

    def test_gate_rejects_distant_candidate(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        wx, wy = square_pose.coords["withers"]
        bogus_tail = CandidateKeypoint("tail_implant", 90.0, 100.0, 1.0)
        cands = [CandidateKeypoint("withers", wx, wy, 1.0), bogus_tail]
        # default gate is 0.05 * diagonal(200, 200) ~ 14.1, penalty ~ 30
        assert assemble(cands, stack, spec) == []
        relaxed = assemble(cands, stack, spec, gate_fraction=0.5)
        assert len(relaxed) == 1
        assert relaxed[0].coords["tail_implant"] == pytest.approx((90.0, 100.0))

    @pytest.mark.parametrize("gate_fraction", [0.0, -1.0, math.nan])
    def test_gate_fraction_must_be_positive(self, spec, square_pose, gate_fraction):
        stack = encode([square_pose], spec, 200, 200)
        with pytest.raises(ValueError, match="gate_fraction must be positive"):
            assemble(candidates_from([square_pose]), stack, spec, gate_fraction=gate_fraction)

    def test_gate_follows_the_map_diagonal(self, spec, square_pose):
        # the same pose on 2000x2000 maps: the gate is 0.05 * 2828 ~ 141
        stack = encode([square_pose], spec, 2000, 2000)
        wx, wy = square_pose.coords["withers"]
        cands = [
            CandidateKeypoint("withers", wx, wy, 1.0),
            CandidateKeypoint("tail_implant", 90.0, 100.0, 1.0),
        ]
        widened = assemble(cands, stack, spec)
        assert len(widened) == 1

    def test_second_order_needs_its_parent(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        cands = [
            c
            for c in candidates_from([square_pose])
            if c.category != "head"
        ]
        skeletons = assemble(cands, stack, spec)
        assert len(skeletons) == 1
        assert "head" not in skeletons[0].coords
        # nose hangs off the head, so it cannot attach either
        assert "nose" not in skeletons[0].coords

    def test_dominant_stages_share_full_root_pool(self, spec, square_pose):
        # animal B lost its tail; it must still claim its hips even though
        # animal A's root wins the only tail candidate
        other_coords = {
            c: (x + 120.0, y + 60.0) for c, (x, y) in square_pose.coords.items()
        }
        other_coords["tail_implant"] = None
        other = make_pose(**other_coords)
        stack = encode([square_pose, other], spec, 360, 300)
        skeletons = assemble(candidates_from([square_pose, other]), stack, spec)
        assert len(skeletons) == 2
        with_tail = [s for s in skeletons if "tail_implant" in s.coords]
        without = [s for s in skeletons if "tail_implant" not in s.coords]
        assert len(with_tail) == 1 and len(without) == 1
        assert without[0].coords["left_hip"] == pytest.approx(
            other.coords["left_hip"], abs=1e-6
        )

    def test_unknown_category_rejected(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        with pytest.raises(ValueError, match="not in skeleton"):
            assemble([CandidateKeypoint("horn", 10.0, 10.0, 1.0)], stack, spec)

    def test_no_candidates(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        assert assemble([], stack, spec) == []

    def test_surplus_candidates_dropped(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        cands = candidates_from([square_pose])
        cands.append(CandidateKeypoint("tail_implant", 41.0, 101.0, 0.5))
        skeletons = assemble(cands, stack, spec)
        assert len(skeletons) == 1
        assert skeletons[0].coords["tail_implant"] == pytest.approx(
            square_pose.coords["tail_implant"], abs=1e-6
        )


# ---------------------------------------------------------------------------
# the broadcast penalty matrix against the scalar definition

_coordinate = st.floats(0.0, 79.0)


@settings(deadline=None, max_examples=100)
@given(
    animals=st.lists(
        st.tuples(st.tuples(_coordinate, _coordinate), st.tuples(_coordinate, _coordinate)).filter(
            lambda p: math.dist(*p) > 1.0
        ),
        min_size=1,
        max_size=3,
    ),
    parents=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=5),
    children=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=5),
)
def test_penalty_matrix_matches_scalar_oracle(animals, parents, children):
    spec = two_point_skeleton()
    pair = spec.connections[0]
    stack = encode([make_pose(front=a, back=b) for a, b in animals], spec, 80, 80)
    got = association_penalty(parents, children, stack, pair)
    want = assembly_oracle.penalty_matrix(parents, children, stack, pair)
    assert got.shape == (len(parents), len(children))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
    grids = np.asarray(stack.assoc[pair])
    one = association_penalty(parents[0], children[0], stack, pair)
    assert one.shape == ()
    assert one == pytest.approx(
        assembly_oracle.association_penalty(parents[0], children[0], grids), abs=1e-9
    )


def test_penalty_reads_positions_in_the_grid_domain_only(spec, square_pose):
    stack = encode([square_pose], spec, 200, 200)
    with pytest.raises(ValueError, match="outside 200x200 grid domain"):
        association_penalty([(5.0, 5.0)], [(5.0, 5.0), (199.5, 5.0)], stack, spec.dominant[0])


@pytest.mark.parametrize("n_animals", [3, 12, 30])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_assemble_matches_scalar_penalty_oracle(spec, monkeypatch, n_animals, seed):
    """Skeletons and their coordinates equal those assembled from the
    per-pair penalty, decoded candidates with their near-ties included."""
    config = ScenarioConfig(
        n_animals=n_animals, seed=seed, width=1600, height=1200,
        regimes=(RegimeSegment("stationary", 1),),
    )
    poses = corrupt(generate(spec, config), spec, config)[0]
    stack = encode(poses, spec, config.width, config.height)
    candidates = decode_candidates(stack.prob)
    got = assemble(candidates, stack, spec)
    monkeypatch.setattr(assembly, "association_penalty", assembly_oracle.penalty_matrix)
    want = assemble(candidates, stack, spec)
    assert len(got) >= n_animals // 2
    assert [s.coords for s in got] == [s.coords for s in want]


def test_assemble_with_a_connection_without_tiles(spec):
    """Both endpoints have candidates but no animal has both, so the
    connection has no tiles and its offsets read as 0."""
    poses = [
        make_pose(withers=(100, 100), tail_implant=(40, 100), head=(122, 100), nose=None),
        make_pose(withers=(300, 200), tail_implant=(240, 200), head=(322, 200), nose=None),
        make_pose(withers=(200, 60), tail_implant=(140, 60), head=None, nose=(238, 60)),
    ]
    stack = encode(poses, spec, 400, 300)
    assert len(stack.assoc[("head", "nose")].tiles) == 0
    candidates = decode_candidates(stack.prob)
    skeletons = assemble(candidates, stack, spec)
    assert len(skeletons) == 3
    heads = [(c.x, c.y) for c in candidates if c.category == "head"]
    noses = [(c.x, c.y) for c in candidates if c.category == "nose"]
    matrix = association_penalty(heads, noses, stack, ("head", "nose"))
    # with no offsets each prediction is the candidate itself
    np.testing.assert_allclose(
        matrix, [[math.dist(h, n) for n in noses] for h in heads], rtol=0, atol=1e-12
    )
