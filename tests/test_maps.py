import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keytrack import kernels
from keytrack.maps import (
    DEFAULT_DETECT_THRESHOLD,
    DEFAULT_NMS_RADIUS,
    CandidateKeypoint,
    EncoderParams,
    MapStack,
    Tiles,
    _parabola_offset,
    decode_candidates,
    encode,
    kernel_sigma,
    load_maps,
    pose_sigmas,
    quadratic_sample,
    read_offset,
    save_maps,
)
from keytrack.simulate import (
    RegimeSegment,
    ScenarioConfig,
    corrupt,
    generate,
    parallel_rows_scene,
    two_point_skeleton,
)
from keytrack.skeleton import Pose

from conftest import make_pose
from kernel_oracles import (
    _assoc_accumulate_loop,
    _box_mean_loop,
    _gaussian_max_loop,
    _local_max_mask_loop,
)
from map_oracles import (
    dense_decode_candidates,
    dense_encode_assoc_maps,
    dense_encode_prob_maps,
    save_maps_v1,
    save_maps_v2,
    save_maps_v3,
)


def _grids(tile_sets):
    """One-channel tile sets as dense 2-D grids."""
    return {key: np.asarray(tiles)[0] for key, tiles in tile_sets.items()}


class TestKernelSigma:
    def test_formula(self):
        # width is theta times the mean of instance and frame scale
        assert kernel_sigma(60.0, 40.0, theta=0.2) == pytest.approx(10.0)
        assert kernel_sigma(50.0, 50.0) == pytest.approx(10.0)

    def test_equal_scales_reduce_to_theta_scale(self):
        assert kernel_sigma(35.0, 35.0, 0.2) == pytest.approx(0.2 * 35.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kernel_sigma(0.0, 10.0)
        with pytest.raises(ValueError):
            kernel_sigma(10.0, 10.0, theta=0.0)

    def test_pose_sigmas_mixed_sizes(self, spec):
        small = make_pose(withers=(50, 50), tail_implant=(20, 50))  # scale 30
        large = make_pose(withers=(200, 200), tail_implant=(140, 200))  # scale 60
        sigmas = pose_sigmas([small, large], spec, EncoderParams())
        assert sigmas[0] == pytest.approx(0.2 * (30 + 45) / 2)
        assert sigmas[1] == pytest.approx(0.2 * (60 + 45) / 2)

    def test_pose_sigmas_rejects_scaleless(self, spec):
        bad = make_pose(withers=(10, 10), head=(30, 10))
        with pytest.raises(ValueError, match="scale undefined"):
            pose_sigmas([bad], spec, EncoderParams())


class TestProbEncoding:
    def test_unit_peak_at_keypoint(self, spec, square_pose):
        maps = _grids(encode([square_pose], spec, 200, 200).prob)
        assert set(maps) == set(spec.categories)
        x, y = square_pose.coords["withers"]
        assert maps["withers"][int(y), int(x)] == pytest.approx(1.0)

    def test_gaussian_profile(self, spec, square_pose):
        maps = _grids(encode([square_pose], spec, 200, 200).prob)
        sigma = pose_sigmas([square_pose], spec, EncoderParams())[0]
        x, y = square_pose.coords["withers"]
        for d in (1, 3, 5):
            expected = math.exp(-(d * d) / (2 * sigma * sigma))
            assert maps["withers"][int(y), int(x) + d] == pytest.approx(
                expected, rel=1e-5
            )

    def test_overlapping_kernels_max_merged(self, spec):
        near = make_pose(withers=(50, 50), tail_implant=(10, 50))
        far = make_pose(withers=(56, 50), tail_implant=(96, 50))
        maps = _grids(encode([near, far], spec, 120, 100).prob)
        sigma_near, sigma_far = pose_sigmas([near, far], spec, EncoderParams())
        # midpoint keeps the larger contribution instead of their sum
        merged = maps["withers"][50, 53]
        expected = max(
            math.exp(-9 / (2 * sigma_near**2)), math.exp(-9 / (2 * sigma_far**2))
        )
        assert merged == pytest.approx(expected, rel=1e-5)
        assert merged < 1.0

    def test_off_image_keypoint_skipped_with_warning(self, spec, caplog):
        pose = make_pose(withers=(50, 50), tail_implant=(-10, 50))
        with caplog.at_level(logging.WARNING, logger="keytrack.maps"):
            maps = _grids(encode([pose], spec, 100, 100).prob)
        assert "outside" in caplog.text
        assert maps["tail_implant"].max() == 0.0
        assert maps["withers"].max() == pytest.approx(1.0)

    def test_kernel_support_truncated(self, spec, square_pose):
        params = EncoderParams(kernel_extent=3.0)
        maps = _grids(encode([square_pose], spec, 200, 200, params).prob)
        sigma = pose_sigmas([square_pose], spec, params)[0]
        x, y = square_pose.coords["withers"]
        beyond = int(math.ceil(3.0 * sigma)) + 1
        assert maps["withers"][int(y), int(x) + beyond] == 0.0

    def test_overflowing_kernel_reach_rejected(self, spec, square_pose):
        """A finite extent whose product with a sigma is inf names
        ``kernel_extent``; a huge finite reach is clipped to the grid."""
        sigma = pose_sigmas([square_pose], spec, EncoderParams())[0]
        with pytest.raises(ValueError) as error:
            encode([square_pose], spec, 200, 160, EncoderParams(kernel_extent=1e308))
        assert str(error.value) == f"kernel_extent 1e+308 times kernel sigma {sigma} is not finite"
        encode([], spec, 200, 160, EncoderParams(kernel_extent=1e308))
        huge, whole = (
            encode([square_pose], spec, 200, 160, EncoderParams(kernel_extent=extent)) for extent in (1e306, 100.0)
        )
        assert [np.asarray(t).tobytes() for t in huge.tile_sets()] == [np.asarray(t).tobytes() for t in whole.tile_sets()]

    def test_empty_frame(self, spec):
        maps = _grids(encode([], spec, 64, 48).prob)
        assert all(grid.shape == (48, 64) for grid in maps.values())
        assert all(grid.max() == 0.0 for grid in maps.values())


class TestAssocEncoding:
    def test_offset_readback_at_keypoint(self, spec, square_pose):
        stack = encode([square_pose], spec, 200, 200)
        x, y = square_pose.coords["withers"]
        pair = ("withers", "tail_implant")
        dx, dy = read_offset(stack, pair, x, y)
        assert (dx, dy) == pytest.approx((-60.0, 0.0), abs=1e-3)
        tx, ty = square_pose.coords["tail_implant"]
        rdx, rdy = read_offset(stack, pair, tx, ty, reverse=True)
        assert (rdx, rdy) == pytest.approx((60.0, 0.0), abs=1e-3)

    def test_colocated_sources_average_offsets(self, spec):
        # two animals with parent keypoints on the same pixel and equal
        # kernel widths: offsets (30,0) and (50,0) average to 40
        a = make_pose(withers=(50, 50), tail_implant=(80, 50))
        b = make_pose(withers=(50, 50), tail_implant=(100, 50))
        assoc = encode([a, b], spec, 160, 100).assoc
        grids = np.asarray(assoc[("withers", "tail_implant")])
        # equal scales (40 vs 50 differ -> use sigma-weighted expectation)
        sigmas = pose_sigmas([a, b], spec, EncoderParams())
        w = [1.0, 1.0]  # unit peaks at the exact source pixel
        expected = (w[0] * 30 + w[1] * 50) / (w[0] + w[1])
        assert grids[0][50, 50] == pytest.approx(expected, rel=1e-6)
        assert grids[1][50, 50] == pytest.approx(0.0, abs=1e-6)
        assert sigmas[0] != sigmas[1]

    def test_missing_endpoint_contributes_nothing(self, spec):
        pose = make_pose(withers=(50, 50), tail_implant=(20, 50), head=None)
        assoc = encode([pose], spec, 100, 100).assoc
        assert np.asarray(assoc[("withers", "head")]).max() == 0.0
        assert np.asarray(assoc[("withers", "head")]).min() == 0.0

    def test_cutoff_is_strict(self, spec):
        pose = make_pose(withers=(50, 50), tail_implant=(20, 50))
        params = EncoderParams(weight_cutoff=0.2, kernel_extent=10.0)
        assoc = encode([pose], spec, 100, 100, params).assoc
        sigma = pose_sigmas([pose], spec, params)[0]
        grids = np.asarray(assoc[("withers", "tail_implant")])
        # radius where the unit-peak weight crosses the cutoff
        r_cut = sigma * math.sqrt(-2.0 * math.log(0.2))
        inside = int(math.floor(r_cut))
        outside = int(math.ceil(r_cut)) + 1
        assert grids[0][50, 50 + inside] != 0.0
        assert grids[0][50, 50 + outside] == 0.0

    def test_uncovered_cells_zero(self, spec, square_pose):
        assoc = encode([square_pose], spec, 200, 200).assoc
        grids = np.asarray(assoc[("withers", "tail_implant")])
        assert grids[0][0, 0] == 0.0

    def test_training_only_connection_encoded(self, spec, square_pose):
        assoc = encode([square_pose], spec, 200, 200).assoc
        assert ("right_hip", "left_hip") in assoc
        x, y = square_pose.coords["right_hip"]
        dx, dy = read_offset(assoc, ("right_hip", "left_hip"), x, y)
        assert (dx, dy) == pytest.approx((0.0, 28.0), abs=1e-3)


class TestParabola:
    def test_symmetric_profile_centred(self):
        assert _parabola_offset(0.5, 1.0, 0.5) == 0.0

    def test_hand_worked_asymmetric(self):
        # (r - l) / (2 (2c - l - r)) = 0.2 / 2.0 = 0.1
        assert _parabola_offset(0.4, 1.0, 0.6) == pytest.approx(0.1)

    def test_degenerate_flat(self):
        assert _parabola_offset(1.0, 1.0, 1.0) == 0.0

    def test_clamped_to_half_pixel(self):
        assert _parabola_offset(0.0, 0.5, 0.99) == pytest.approx(0.5)
        assert _parabola_offset(0.99, 0.5, 0.0) == pytest.approx(-0.5)


class TestDecode:
    def test_single_keypoint_recovered_subpixel(self, spec):
        pose = make_pose(withers=(73.4, 41.7), tail_implant=(23.4, 41.7))
        maps = encode([pose], spec, 128, 96).prob
        found = [
            c for c in decode_candidates(maps) if c.category == "withers"
        ]
        assert len(found) == 1
        assert found[0].x == pytest.approx(73.4, abs=0.3)
        assert found[0].y == pytest.approx(41.7, abs=0.3)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"threshold": math.nan}, "threshold must be finite"),
            ({"threshold": math.inf}, "threshold must be finite"),
            ({"threshold": -math.inf}, "threshold must be finite"),
            ({"nms_radius": -7.0}, "nms_radius must be non-negative and finite"),
            ({"nms_radius": math.nan}, "nms_radius must be non-negative and finite"),
            ({"nms_radius": math.inf}, "nms_radius must be non-negative and finite"),
        ],
    )
    def test_out_of_range_parameters_rejected(self, kwargs, message):
        grid = np.zeros((8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match=message):
            decode_candidates({"k": grid}, **kwargs)

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    def test_non_float_map_rejected(self, dtype):
        grid = np.zeros((8, 8), dtype=dtype)
        grid[3:6, 3:6] = 1
        with pytest.raises(ValueError, match="probability map 'k' must hold floats"):
            decode_candidates({"k": grid})

    def test_negative_threshold_accepted(self):
        grid = self.blob_grid((32, 32), (10.0, 12.0, 1.0))
        found = decode_candidates({"k": grid}, threshold=-0.5)
        assert [(round(c.x), round(c.y)) for c in found] == [(10, 12)]

    def test_threshold_filters_weak_peaks(self):
        grid = np.zeros((32, 32), dtype=np.float32)
        grid[10, 10] = 0.3  # smoothed far below threshold
        assert decode_candidates({"k": grid}, threshold=0.4) == []

    @staticmethod
    def blob_grid(shape, *peaks):
        grid = np.zeros(shape, dtype=np.float32)
        for x, y, amplitude in peaks:
            bump = np.zeros(shape, dtype=np.float32)
            kernels.gaussian_max(bump, x, y, 2.0, 3.0)
            np.maximum(grid, amplitude * bump, out=grid)
        return grid

    def test_nms_keeps_higher_peak(self):
        grid = self.blob_grid((40, 40), (10, 10, 1.0), (16, 10, 0.9))
        cands = decode_candidates({"k": grid}, threshold=0.05, nms_radius=7.0)
        assert len(cands) == 1
        assert cands[0].x == pytest.approx(10, abs=0.6)

    def test_nms_radius_is_strict_inequality(self):
        # centres exactly nms_radius apart: distance^2 is not < radius^2
        grid = self.blob_grid((40, 40), (10, 10, 1.0), (17, 10, 1.0))
        cands = decode_candidates({"k": grid}, threshold=0.05, nms_radius=7.0)
        assert len(cands) == 2
        closer = self.blob_grid((40, 40), (10, 10, 1.0), (16, 10, 1.0))
        assert len(decode_candidates({"k": closer}, threshold=0.05, nms_radius=7.0)) == 1

    def test_nms_tie_prefers_lower_row_then_column(self):
        grid = self.blob_grid((40, 40), (12, 16, 1.0), (10, 28, 1.0))
        cands = decode_candidates({"k": grid}, threshold=0.05, nms_radius=30.0)
        assert len(cands) == 1
        assert (round(cands[0].y), round(cands[0].x)) == (16, 12)

    def test_border_peak_no_subpixel_shift(self):
        grid = self.blob_grid((20, 20), (0, 0, 1.0))
        cands = decode_candidates({"k": grid}, threshold=0.01)
        assert len(cands) == 1
        assert (cands[0].x, cands[0].y) == (0.0, 0.0)

    def test_plateau_has_no_strict_maximum(self):
        grid = np.zeros((20, 20), dtype=np.float32)
        grid[8:11, 8:11] = 1.0  # flat plateau survives smoothing as a tie
        assert decode_candidates({"k": grid}, threshold=0.4) == []


class TestQuadraticSample:
    def test_exact_at_integers(self, rng):
        grid = rng.random((16, 16)).astype(np.float32)
        for _ in range(20):
            col = int(rng.integers(0, 16))
            row = int(rng.integers(0, 16))
            assert quadratic_sample(grid, col, row) == pytest.approx(
                float(grid[row, col]), rel=1e-6
            )

    def test_exact_for_affine_maps(self):
        height, width = 24, 30
        cols, rows = np.meshgrid(np.arange(width), np.arange(height))
        grid = (1.5 * cols - 0.7 * rows + 3.0).astype(np.float64)
        for x, y in ((5.3, 7.9), (12.5, 11.5), (20.01, 3.7)):
            assert quadratic_sample(grid, x, y) == pytest.approx(
                1.5 * x - 0.7 * y + 3.0, rel=1e-9
            )

    def test_exact_for_quadratic_in_one_axis(self):
        width = 20
        grid = np.tile((np.arange(width) ** 2).astype(float), (5, 1))
        assert quadratic_sample(grid, 7.25, 2.0) == pytest.approx(7.25**2)

    def test_domain_enforced(self):
        grid = np.zeros((8, 8))
        with pytest.raises(ValueError):
            quadratic_sample(grid, -0.1, 3)
        with pytest.raises(ValueError):
            quadratic_sample(grid, 3, 7.5)

    def test_domain_corners_ok(self):
        grid = np.arange(64, dtype=float).reshape(8, 8)
        assert quadratic_sample(grid, 0.0, 0.0) == 0.0
        assert quadratic_sample(grid, 7.0, 7.0) == 63.0


def _one_channel_v3_file(name: bytes) -> bytes:
    """A version 3 file of one 1x1 channel named ``name``, without tiles."""
    return b"KTMB" + struct.pack("<IIIIH", 3, 1, 1, 1, len(name)) + name + struct.pack("<I", 0)


class TestSerialization:
    def test_round_trip(self, spec, square_pose, tmp_path):
        stack = encode([square_pose], spec, 48, 40)
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        loaded = load_maps(str(path))
        assert loaded.width == 48 and loaded.height == 40
        assert set(loaded.prob) == set(stack.prob)
        assert set(loaded.assoc) == set(stack.assoc)
        for cat in stack.prob:
            np.testing.assert_allclose(
                loaded.prob[cat], stack.prob[cat], rtol=0, atol=1e-6
            )
        for pair in stack.assoc:
            np.testing.assert_allclose(
                loaded.assoc[pair], stack.assoc[pair], rtol=1e-6, atol=1e-5
            )

    def test_binary_round_trip_is_exact(self, spec, square_pose, tmp_path):
        stack = encode([square_pose], spec, 32, 32)
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        loaded = load_maps(str(path))
        for cat in stack.prob:
            np.testing.assert_array_equal(loaded.prob[cat], stack.prob[cat])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ktm"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a map stack"):
            load_maps(str(path))

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("m.ktm", b"KTMB" + struct.pack("<III", 3, 1, 1), "truncated header"),
            ("m.ktm", _one_channel_v3_file(b"prob:k")[:-4] + struct.pack("<I", 1), "truncated tiles"),
            ("m.ktm", _one_channel_v3_file(b"\xffk"), "channel name is not UTF-8"),
            ("m.ktm", b"KTMB" + struct.pack("<IIII", 4, 1, 1, 0), "unsupported version 4"),
            ("m.ktm", _one_channel_v3_file(b"assoc:foo:dx_ab"), "malformed connection name: 'foo'"),
            (
                "frame_000000.ktmt",
                b"KTMT 1\n1 1 1\nprob:k\n0\n",
                "text map files (.ktmt) are no longer read; "
                "re-encode the frame from its detections with keytrack encode",
            ),
        ],
        ids=["sizes", "cell", "binary-name", "version", "binary-connection", "ktmt"],
    )
    def test_load_errors_name_the_file(self, tmp_path, name, data, message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError) as error:
            load_maps(str(path))
        assert str(error.value) == f"{path}: {message}"

    def test_truncated_binary_rejected(self, spec, square_pose, tmp_path):
        stack = encode([square_pose], spec, 32, 32)
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ValueError, match="truncated"):
            load_maps(str(path))

    @pytest.mark.parametrize("version, writer", [(1, save_maps_v1), (2, save_maps_v2)])
    def test_old_versions_rejected(self, tmp_path, version, writer):
        """A version 1 (every cell) or version 2 (boxes) file, as those
        formats' writers stored it, is rejected after the header, before
        any channel name is read."""
        path = tmp_path / "frame_000003.ktm"
        writer(_small_stack(), str(path))
        message = (
            f"{path}: .ktm version {version} is no longer read; "
            "re-encode the frame from its detections with keytrack encode"
        )
        with pytest.raises(ValueError) as error:
            load_maps(str(path))
        assert str(error.value) == message
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError) as error:
            load_maps(str(path))
        assert str(error.value) == message

    def test_binary_v3_byte_layout(self, tmp_path):
        path = tmp_path / "m.ktm"
        save_maps(_sparse_stack(), str(path))
        names = ["prob:k", "prob:z", *_CHANNEL_NAMES[1:5]]
        expected = b"KTMB" + struct.pack("<IIII", 3, 6, 5, len(names))
        for name in names:
            expected += struct.pack("<H", len(name)) + name.encode("utf-8")

        def tile(*cells):
            grid = np.zeros((16, 16), dtype="<f4")
            for row, col, value in cells:
                grid[row, col] = value
            return grid.tobytes()

        # the 6x5 grid is one tile per channel; -0.0 keeps its tile
        expected += struct.pack("<II", 1, 0)
        expected += tile((0, 1, 1.0), (1, 1, -0.0), (0, 3, 2.0), (1, 4, 3.0), (3, 0, 4.0), (4, 0, 5.0))
        expected += struct.pack("<I", 0)  # prob:z is all zero
        # the connection's tiles at flat positions (channel, 0, 0): dx_ab, dy_ab
        expected += struct.pack("<3I", 2, 0, 1) + tile((4, 5, -7.5)) + tile((2, 0, 1e-40))
        assert path.read_bytes() == expected
        self.assert_bit_equal(load_maps(str(path)), _sparse_stack())

    @staticmethod
    def assert_bit_equal(loaded: MapStack, stack: MapStack) -> None:
        assert (loaded.width, loaded.height) == (stack.width, stack.height)
        assert list(loaded.prob) == list(stack.prob)
        assert list(loaded.assoc) == list(stack.assoc)
        for (name, got), (_, want) in zip(loaded.channel_items(), stack.channel_items()):
            assert got.dtype == np.float32, name
            assert got.tobytes() == np.asarray(want, dtype=np.float32).tobytes(), name

    def test_binary_round_trip_bit_equal_on_scenes(self, spec, tmp_path):
        stacks = [encode(poses, s, w, h) for s, poses, w, h in _parity_scenes(spec)]
        for n_animals in (3, 12):
            for seed in (1, 2, 3):
                config = ScenarioConfig(
                    n_animals=n_animals, seed=seed, regimes=(RegimeSegment("stationary", 1),)
                )
                poses = corrupt(generate(spec, config), spec, config)[0]
                stacks.append(encode(poses, spec, config.width, config.height))
        path = tmp_path / "m.ktm"
        for stack in stacks:
            save_maps(stack, str(path))
            self.assert_bit_equal(load_maps(str(path)), stack)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_binary_round_trip_keeps_special_values(self, tmp_path, dtype):
        tiny = np.finfo(np.float32).smallest_subnormal
        prob = np.zeros((7, 9), dtype=dtype)
        prob[0, 0] = -0.0
        prob[1, 4] = np.nan
        prob[2, 8] = np.inf
        prob[6, 0] = -np.inf
        prob[6, 8] = tiny
        prob[3, 3:6] = [-tiny, 1e-45, -1.5]
        assoc = np.zeros((4, 7, 9), dtype=dtype)
        assoc[1] = -0.0  # every cell set, all bits of value zero
        assoc[3, 5, 2] = np.float32(3e-39)
        stack = MapStack(
            width=9, height=7, prob={"k": prob, "z": np.zeros((7, 9), dtype)}, assoc={("k", "j"): assoc}
        )
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        loaded = load_maps(str(path))
        self.assert_bit_equal(loaded, stack)
        assert np.signbit(np.asarray(loaded.prob["k"])[0, 0, 0])
        assert np.signbit(np.asarray(loaded.assoc[("k", "j")])[1]).all()

    @pytest.mark.parametrize("height, width", [(0, 3), (3, 0), (0, 0)])
    def test_binary_round_trip_empty_grid(self, tmp_path, height, width):
        stack = MapStack(
            width=width,
            height=height,
            prob={"k": np.zeros((height, width), np.float32)},
            assoc={("k", "j"): np.zeros((4, height, width), np.float32)},
        )
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        self.assert_bit_equal(load_maps(str(path)), stack)

    @staticmethod
    def v3_file(path, width, height, names, tile_sets):
        """Write a version 3 file of channel ``names`` and ``(count,
        positions, tiles)`` tile sets; ``tiles`` tiles of cells follow the
        positions, whatever the count says."""
        data = b"KTMB" + struct.pack("<IIII", 3, width, height, len(names))
        for name in names:
            data += struct.pack("<H", len(name)) + name.encode("utf-8")
        for count, positions, tiles in tile_sets:
            data += struct.pack("<I", count) + np.array(positions, dtype="<u4").tobytes()
            data += np.arange(1, 1 + tiles * 256, dtype="<f4").tobytes()
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize(
        "count, positions, tiles, message",
        [
            (1, [6], 1, "outside the 1x2x3 slot grid, repeated or out of order"),
            (2, [1, 1], 2, "outside the 1x2x3 slot grid, repeated or out of order"),
            (2, [2, 1], 2, "outside the 1x2x3 slot grid, repeated or out of order"),
            (3, [0, 1, 2], 2, "truncated tiles"),
            (2**32 - 1, [0], 1, "truncated tiles"),
        ],
    )
    def test_bad_v3_tiles_rejected(self, tmp_path, count, positions, tiles, message):
        path = self.v3_file(tmp_path / "m.ktm", 40, 20, ["prob:k"], [(count, positions, tiles)])
        with pytest.raises(ValueError, match=message) as error:
            load_maps(str(path))
        assert str(path) in str(error.value)

    def test_v3_tile_counts_checked_against_bytes_left(self, tmp_path):
        path = self.v3_file(tmp_path / "m.ktm", 40, 20, ["prob:k", "prob:z"], [(1, [5], 1)])
        with pytest.raises(ValueError, match="truncated tile count") as error:
            load_maps(str(path))
        assert str(path) in str(error.value)
        path = self.v3_file(tmp_path / "m.ktm", 40, 20, ["prob:k", "prob:z"], [])
        with pytest.raises(ValueError, match="truncated channel data"):
            load_maps(str(path))
        path = self.v3_file(tmp_path / "m.ktm", 40, 20, ["prob:k", "prob:z"], [(1, [5], 1), (0, [], 0)])
        loaded = load_maps(str(path))
        assert np.asarray(loaded.prob["k"])[0, 16, 32:35].tolist() == [1.0, 2.0, 3.0]
        assert not np.asarray(loaded.prob["z"]).any()

    @pytest.mark.parametrize(
        "names, message",
        [
            (
                ["assoc:k->j:dy_ab", "assoc:k->j:dx_ab", "assoc:k->j:dx_ba", "assoc:k->j:dy_ba"],
                "association channels for k->j out of order",
            ),
            (
                ["assoc:k->j:dx_ab", "prob:k", "assoc:k->j:dy_ab", "assoc:k->j:dx_ba", "assoc:k->j:dy_ba"],
                "association channels for k->j out of order",
            ),
            (["assoc:k->j:dx_ab", "assoc:k->j:dy_ab", "assoc:k->j:dx_ba"], "incomplete association channels"),
            (["prob:k", "prob:k"], "repeated channel name"),
            (["other:k"], "unknown channel"),
        ],
    )
    def test_v3_bad_channel_layout_rejected(self, tmp_path, names, message):
        path = self.v3_file(tmp_path / "m.ktm", 3, 2, names, [(0, [], 0)] * len(names))
        with pytest.raises(ValueError, match=message) as error:
            load_maps(str(path))
        assert str(path) in str(error.value)

    @staticmethod
    def forbid_allocation(monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated the declared block")

        monkeypatch.setattr("keytrack.maps.np.zeros", no_allocation)
        monkeypatch.setattr("keytrack.maps.np.empty", no_allocation)

    @pytest.mark.parametrize(
        "width, height, count",
        [(40000, 40000, 1), (4000, 4000, 30), (2**32 - 1, 2**32 - 1, 1), (1, 2**32 - 1, 5)],
    )
    def test_v2_huge_declared_grid_rejected_before_allocating(
        self, tmp_path, monkeypatch, width, height, count
    ):
        """A file of a few dozen bytes may not declare a multi-GB grid. The
        bound dates from the version 2 reader; the file here is version 3."""
        names = [f"prob:k{index}" for index in range(count)]
        path = self.v3_file(tmp_path / "m.ktm", width, height, names, [(0, [], 0)] * count)
        self.forbid_allocation(monkeypatch)
        with pytest.raises(ValueError, match=f"{count} channels of {width}x{height} exceed") as error:
            load_maps(str(path))
        assert str(path) in str(error.value)

    def test_v3_huge_declared_grid_rejected(self, tmp_path):
        path = self.v3_file(tmp_path / "m.ktm", 40000, 40000, ["prob:k"], [(0, [], 0)])
        with pytest.raises(ValueError, match="1 channels of 40000x40000 exceed") as error:
            load_maps(str(path))
        assert str(path) in str(error.value)

    def test_v3_declared_grid_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr("keytrack.maps._MAX_DECLARED_CELLS", 12)
        path = self.v3_file(tmp_path / "m.ktm", 3, 2, ["prob:k", "prob:j"], [(0, [], 0)] * 2)
        assert load_maps(str(path)).prob["k"].shape == (1, 2, 3)
        path = self.v3_file(tmp_path / "m.ktm", 13, 1, ["prob:k"], [(0, [], 0)])
        with pytest.raises(ValueError, match="1 channels of 13x1 exceed 12 cells"):
            load_maps(str(path))

    def test_v2_probability_memory_bounded_by_boxes(self, tmp_path):
        """A small file may declare 24 probability channels on the largest
        grid the cell cap admits; loading it allocates only the 3 tiles per
        channel it holds, not the 1 GiB grid. (Version 2 files held boxes;
        the file here is version 3.)"""
        width, height, slots = _largest_admitted_grid()
        names = [f"prob:k{index}" for index in range(24)]
        tile_sets = [(3, [index, slots // 2, slots - 1], 3) for index in range(24)]
        path = self.v3_file(tmp_path / "m.ktm", width, height, names, tile_sets)
        stack = _load_under_1mb(path)
        assert sum(tiles.nbytes for tiles in stack.tile_sets()) == 24 * 3 * (4 + 256 * 4)
        # each set's tiles hold 1, 2, ... in order; a cell of no tile reads 0
        cells = stack.prob["k1"].gather(0, np.array([0, 0, height - 1]), np.array([16, 32, width - 1]))
        assert cells.tolist() == [1.0, 0.0, 672.0]

    def test_binary_load_keeps_the_encoded_tiles(self, spec, square_pose, tmp_path):
        stack = encode([square_pose], spec, 200, 160)
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        loaded = load_maps(str(path))
        for got, want in zip(loaded.tile_sets(), stack.tile_sets()):
            assert isinstance(got, Tiles) and got.tiles.dtype == np.float32
            assert got.shape == want.shape
            assert got.positions.tobytes() == want.positions.tobytes()
            assert got.tiles.tobytes() == want.tiles.tobytes()
        assert [tiles.channels for tiles in loaded.tile_sets()] == [1] * 6 + [4] * 6

    def test_absurd_dimensions_rejected_before_allocating(self, tmp_path, monkeypatch):
        """A grid at the cell cap whose tile count the file cannot hold."""
        path = self.v3_file(tmp_path / "huge.ktm", 2**14, 2**14, ["prob:k"], [(2**20, [], 0)])
        path.write_bytes(path.read_bytes() + b"\x00" * 64)
        self.forbid_allocation(monkeypatch)
        with pytest.raises(ValueError, match="truncated tiles"):
            load_maps(str(path))


    @pytest.mark.parametrize("cut", [4, 9, 15, 19])
    def test_binary_cut_inside_header_rejected(self, tmp_path, cut):
        path = tmp_path / "m.ktm"
        save_maps(_small_stack(), str(path))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated header"):
            load_maps(str(path))

    def test_zero_height_round_trip(self, tmp_path):
        stack = MapStack(width=3, height=0, prob={"k": np.zeros((0, 3), np.float32)})
        path = tmp_path / "m.ktm"
        save_maps(stack, str(path))
        assert load_maps(str(path)).prob["k"].shape == (1, 0, 3)

# fuzzed map file readers: every input loads or raises ValueError


def _largest_admitted_grid() -> tuple[int, int, int]:
    """Width, height and 16x16 tile slots per channel of the largest grid
    the cell cap admits for 24 channels."""
    width = 4096
    height = (1 << 28) // (24 * width)
    assert 24 * width * height <= (1 << 28) < 24 * width * (height + 1)
    return width, height, -(-height // 16) * (width // 16)


def _load_under_1mb(path) -> MapStack:
    tracemalloc.start()
    try:
        stack = load_maps(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    return stack


def test_v2_association_memory_bounded_by_boxes(tmp_path):
    """A small file may declare 24 association channels on the largest grid
    the cell cap admits; loading it allocates only the 3 tiles per
    connection it holds. (Version 2 files held boxes; the file here is
    version 3.)"""
    width, height, slots = _largest_admitted_grid()
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g")]
    names = []
    for parent, child in pairs:
        names += [f"assoc:{parent}->{child}:{suffix}" for suffix in ("dx_ab", "dy_ab", "dx_ba", "dy_ba")]
    tile_sets = [(3, [index, 2 * slots + 5, 4 * slots - 1], 3) for index in range(len(pairs))]
    path = TestSerialization.v3_file(tmp_path / "m.ktm", width, height, names, tile_sets)
    stack = _load_under_1mb(path)
    assert sum(tiles.nbytes for tiles in stack.tile_sets()) == 6 * 3 * (4 + 256 * 4)
    cells = stack.assoc[("c", "d")].gather(
        np.array([2, 3, 0]), np.array([0, height - 1, 0]), np.array([5 * 16, width - 1, 32])
    )
    assert cells.tolist() == [257.0, 672.0, 1.0]


def _small_stack() -> MapStack:
    prob = np.array([[0.0, 0.5, 1.0], [0.25, -2.0, 3.5]], dtype=np.float32)
    assoc = np.arange(24, dtype=np.float32).reshape(4, 2, 3) - 7.5
    return MapStack(width=3, height=2, prob={"k": prob}, assoc={("k", "j"): assoc})


def _sparse_stack() -> MapStack:
    """A 6x5 stack whose nonzero cells form several boxes per channel."""
    prob = np.zeros((5, 6), dtype=np.float32)
    prob[0, 1] = 1.0
    prob[1, 1] = -0.0
    prob[0, 3] = 2.0
    prob[1, 4] = 3.0
    prob[3:5, 0] = [4.0, 5.0]
    assoc = np.zeros((4, 5, 6), dtype=np.float32)
    assoc[0, 4, 5] = -7.5
    assoc[1, 2, 0] = 1e-40
    return MapStack(
        width=6, height=5, prob={"k": prob, "z": np.zeros((5, 6), np.float32)}, assoc={("k", "j"): assoc}
    )


_CHANNEL_NAMES = (
    "prob:k", "assoc:k->j:dx_ab", "assoc:k->j:dy_ab", "assoc:k->j:dx_ba", "assoc:k->j:dy_ba",
    "assoc:k->j:bogus", "assoc:kj:dx_ab", "assoc:->j:dx_ab", "prob", "other:k", "",
)
_channel_name = st.one_of(
    st.sampled_from(_CHANNEL_NAMES).map(str.encode),
    st.text(max_size=6).map(str.encode),
    st.binary(max_size=6),  # not UTF-8
)
# sizes that the data can fill, and absurd ones that it cannot
_size = st.one_of(st.integers(0, 4), st.integers(5, 2**32 - 1), st.sampled_from([2**16, 2**32 - 1]))


def _cut(draw, data: bytes) -> bytes:
    """``data`` whole, or truncated at any byte."""
    cut = draw(st.none() | st.integers(0, len(data)))
    return data if cut is None else data[:cut]


# tile positions that fit small grids, overrun them, or are absurd
_corner = st.one_of(st.integers(0, 5), st.sampled_from([2**31, 2**32 - 1]))


@st.composite
def _ktm_v3_tile_set(draw, width: int, height: int) -> bytes:
    """One version 3 tile set: ascending positions inside a small grid's
    tiles (one or four channels), or those repeated or reversed, or random
    ones; a right or absurd tile count; and tile data of the right size,
    cut short or too long."""
    grid = 4 * min(-(-height // 16), 2) * min(-(-width // 16), 2)
    positions = sorted(draw(st.sets(st.integers(0, max(grid - 1, 0)), max_size=3)))
    positions = draw(
        st.sampled_from([positions, positions + positions[-1:], positions[::-1]])
        | st.lists(_corner, max_size=3)
    )
    count = draw(st.just(len(positions)) | _size)
    tiles = draw(st.just(len(positions)) | st.integers(0, 3))
    return (
        struct.pack("<I", count)
        + np.array(positions, dtype="<u4").tobytes()
        + np.arange(256 * tiles, dtype="<f4").tobytes()
    )


@st.composite
def _ktm_files(draw):
    width, height = draw(_size), draw(_size)
    # a valid channel set, so that channel data is reached, or any names
    valid = [name.encode() for name in _CHANNEL_NAMES[:5]]
    names = draw(st.sampled_from([valid, [b"prob:k"]]) | st.lists(_channel_name, max_size=6))
    count = draw(st.just(len(names)) | _size)  # wrong channel counts too
    version = draw(st.sampled_from([1, 2, 3, 4]))
    data = b"KTMB" + struct.pack("<IIII", version, width, height, count)
    for name in names:
        data += struct.pack("<H", len(name)) + name
    if version == 3:
        for _ in range(draw(st.integers(0, 3))):
            data += draw(_ktm_v3_tile_set(width, height))
    else:
        cells = min(len(names) * width * height, 512)
        data += np.arange(cells, dtype="<f4").tobytes()
    return _cut(draw, data + draw(st.binary(max_size=8)))


def _loads_or_value_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        stack = load_maps(str(path))
    except ValueError:
        return
    assert all(grid.shape == (stack.height, stack.width) for _, grid in stack.channel_items())


@settings(deadline=None, max_examples=300)
@given(data=_ktm_files())
def test_fuzzed_ktm_loads_or_raises_value_error(tmp_path_factory, data):
    _loads_or_value_error(tmp_path_factory.mktemp("fuzz") / "m.ktm", data)


@settings(deadline=None, max_examples=300)
@given(
    flip=st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
    cut=st.none() | st.integers(0, 2**16),
)
def test_damaged_map_file_loads_or_raises_value_error(tmp_path_factory, flip, cut):
    """A valid file with one byte overwritten and/or cut short at any
    byte."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ktm"
    save_maps(_small_stack(), str(path))
    data = bytearray(path.read_bytes())
    if flip is not None:
        data[flip[0] % len(data)] = flip[1]
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    _loads_or_value_error(path, bytes(data))


# Splats on a 40x50 grid (sigma 4 and extent 3 reach 12 px): clipped by each
# image border, and wholly off the grid, where ``splat_window`` is None.
_EDGE_SPLATS = {
    "left": (1.5, 20.3),
    "right": (48.6, 17.2),
    "top": (25.4, 0.7),
    "bottom": (12.9, 39.4),
    "off-left": (-30.0, 20.0),
    "off-bottom": (25.0, 60.5),
}
_FLOATS = (np.float32, np.float64)


def _splat_cases(interior_shape, interior, offset=()):
    """``(name, shape, dtype, splats)`` inputs: the interior splats, then each
    of _EDGE_SPLATS alone (sigma 4, plus ``offset``), in float32 and float64."""
    for dtype in _FLOATS:
        yield f"interior-{dtype.__name__}", interior_shape, dtype, interior
        for name, (cx, cy) in _EDGE_SPLATS.items():
            yield f"{name}-{dtype.__name__}", (40, 50), dtype, [(cx, cy, 4.0, *offset)]


class TestKernelImplementations:
    """Each numpy kernel must agree with its loop oracle in kernel_oracles.py.

    Every test runs a table of inputs; assertion messages name the case.
    """

    def test_gaussian_max_equivalence(self):
        interior = [(31.3, 24.8, 4.0), (35.1, 24.2, 3.0)]
        for name, shape, dtype, splats in _splat_cases((50, 60), interior):
            got = np.zeros(shape, dtype=dtype)
            want = np.zeros(shape, dtype=dtype)
            for cx, cy, sigma in splats:
                kernels.gaussian_max(got, cx, cy, sigma, 3.0)
                _gaussian_max_loop(want, cx, cy, sigma, 3.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6, err_msg=name)
            window = kernels.splat_window(shape, cx, cy, sigma, 3.0)
            assert (window is None) == name.startswith("off"), name
            assert got.any() == (window is not None), name

    def test_gaussian_max_returns_the_window_and_patch_it_merged(self):
        for name, shape, dtype, splats in _splat_cases((50, 60), [(31.3, 24.8, 4.0), (33.9, 26.1, 3.0)]):
            grid = np.zeros(shape, dtype=dtype)
            for cx, cy, sigma in splats:
                before = grid.copy()
                merged = kernels.gaussian_max(grid, cx, cy, sigma, 3.0)
                window = kernels.splat_window(shape, cx, cy, sigma, 3.0)
                if window is None:
                    assert merged is None and grid.tobytes() == before.tobytes(), name
                    continue
                cells, patch = merged
                y0, y1, x0, x1 = window
                assert cells == (slice(y0, y1 + 1), slice(x0, x1 + 1)), name
                assert patch.dtype == np.float64 and patch.shape == (y1 - y0 + 1, x1 - x0 + 1), name
                alone = np.zeros(shape)
                _gaussian_max_loop(alone, cx, cy, sigma, 3.0)
                np.testing.assert_allclose(patch, alone[cells], rtol=0, atol=1e-12, err_msg=name)
                # the grid is the max of what it held and the returned patch
                want = before.copy()
                want[cells] = np.maximum(before[cells], patch.astype(dtype))
                assert grid.tobytes() == want.tobytes(), name

    def test_assoc_accumulate_equivalence(self):
        interior = [(20.2, 19.7, 5.0, 12.5, -3.25), (22.0, 20.0, 4.0, -7.0, 9.0)]
        for name, shape, dtype, splats in _splat_cases((40, 40), interior, (12.5, -3.25)):
            got = [np.zeros(shape, dtype=dtype) for _ in range(3)]
            want = [np.zeros(shape, dtype=dtype) for _ in range(3)]
            for cx, cy, sigma, dx, dy in splats:
                kernels.assoc_accumulate(*got, cx, cy, sigma, 3.0, 0.2, dx, dy)
                _assoc_accumulate_loop(*want, cx, cy, sigma, 3.0, 0.2, dx, dy)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-5, err_msg=name)
            window = kernels.splat_window(shape, cx, cy, sigma, 3.0)
            assert (window is None) == name.startswith("off"), name
            assert all(g.any() == (window is not None) for g in got), name

    def test_assoc_accumulate_bit_equal_to_full_window_add(self):
        """Adding over the box of nonzero weights leaves the same bytes as
        adding the cut weight over the whole window, also for -0.0 offsets
        (a child side with dx == 0) and opposite offsets on shared cells."""
        splats = [
            (20.2, 19.7, 5.0, -0.0, 7.5),
            (21.1, 20.4, 4.0, 12.5, -3.25),
            (19.6, 21.3, 6.0, -12.5, 3.25),
            (22.0, 18.9, 3.0, -0.0, -0.0),
            (2.3, 38.1, 4.0, 5.0, -5.0),  # window clipped by the grid
            (-50.0, -50.0, 3.0, 1.0, 1.0),  # window off the grid
        ]
        for dtype in _FLOATS:
            want = [np.zeros((40, 40), dtype=dtype) for _ in range(3)]
            got = [np.zeros((40, 40), dtype=dtype) for _ in range(3)]
            cached = [np.zeros((40, 40), dtype=dtype) for _ in range(3)]
            covered = np.zeros((40, 40), dtype=int)
            for cx, cy, sigma, dx, dy in splats:
                window = kernels.splat_window((40, 40), cx, cy, sigma, 3.0)
                if window is not None:
                    y0, y1, x0, x1 = window
                    ys = np.arange(y0, y1 + 1, dtype=np.float64) - cy
                    xs = np.arange(x0, x1 + 1, dtype=np.float64) - cx
                    weight = np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma * sigma))
                    weight[weight <= 0.2] = 0.0
                    weight = weight.astype(dtype)
                    cells = (slice(y0, y1 + 1), slice(x0, x1 + 1))
                    want[0][cells] += weight
                    want[1][cells] += weight * dtype(dx)
                    want[2][cells] += weight * dtype(dy)
                    covered[cells] += weight != 0
                kernels.assoc_accumulate(*got, cx, cy, sigma, 3.0, 0.2, dx, dy)
                splat = kernels._gaussian_patch((40, 40), cx, cy, sigma, 3.0)
                cut = None if splat is None else kernels.cut_weight(*splat, 0.2, dtype)
                if cut is not None:
                    kernels.assoc_accumulate(*cached, cx, cy, sigma, 3.0, 0.2, dx, dy, cut=cut)
            assert covered.max() == 4
            for g, c, w in zip(got, cached, want):
                assert g.tobytes() == w.tobytes() and c.tobytes() == w.tobytes(), dtype

    def test_box_mean_equivalence(self, rng):
        for dtype in _FLOATS:
            grid = rng.random((45, 37)).astype(dtype)
            for radius in (2, 1, 0):
                got = kernels.box_mean(grid.copy(), radius)
                want = _box_mean_loop(grid.copy(), radius)
                assert got.dtype == want.dtype == dtype
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-6, err_msg=f"{dtype.__name__} r={radius}"
                )

    def test_box_mean_edge_replication(self):
        grid = np.zeros((10, 10), dtype=np.float32)
        grid[0, 0] = 1.0
        for fn in (kernels.box_mean, _box_mean_loop):
            out = fn(grid.copy(), 2)
            # corner window replicates the corner cell 9 times
            assert out[0, 0] == pytest.approx(9.0 / 25.0, abs=1e-6), fn.__name__

    def test_box_mean_non_finite_cell_stays_in_its_windows(self):
        grid = np.zeros((40, 60), dtype=np.float32)
        grid[2, 3] = np.nan
        grid[30, 40] = np.inf
        for fn in (kernels.box_mean, _box_mean_loop):
            name = fn.__name__
            out = fn(grid.copy(), 2)
            # rows 0..4 x cols 1..5 hold (2, 3); rows 28..32 x cols 38..42 hold (30, 40)
            assert np.isnan(out).sum() == 25, name
            assert np.isnan(out[0:5, 1:6]).all(), name
            assert np.isposinf(out[28:33, 38:43]).all(), name
            assert np.isfinite(out).sum() == out.size - 50, name

    def test_box_mean_crop_matches_full_frame_bits(self, rng):
        grid = rng.random((50, 70)).astype(np.float32)
        full = kernels.box_mean(grid, 2)
        crop = kernels.box_mean(grid[10:30, 20:45], 2)
        # cells whose whole window lies inside the crop
        assert crop[2:-2, 2:-2].tobytes() == full[12:28, 22:43].tobytes()
        # a crop at the image corner replicates the same edge cells
        corner = kernels.box_mean(grid[0:20, 0:25], 2)
        assert corner[:-2, :-2].tobytes() == full[0:18, 0:23].tobytes()

    @staticmethod
    def _crops(rng):
        """``(name, grid)`` crops of 1x1, 1xN, Nx1 and wider shapes, in
        float32 and float64, plain and with NaN, +-inf and -0.0 cells."""
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, -0.0, np.nan])
        for dtype in _FLOATS:
            for shape in ((1, 1), (1, 9), (9, 1), (2, 3), (8, 13)):
                grid = rng.random(shape).astype(dtype)
                yield f"{shape}-{dtype.__name__}", grid
                for count in (1, 3, 6):
                    marked = grid.copy().reshape(-1)
                    picks = rng.permutation(marked.size)[:count]
                    marked[picks] = specials[: picks.size]
                    yield f"{shape}-{dtype.__name__}-{count}-special", marked.reshape(shape)
                yield f"{shape}-{dtype.__name__}-negative-zeros", np.full(shape, -0.0, dtype=dtype)

    def test_box_mean_small_and_special_crops(self, rng):
        for name, grid in self._crops(rng):
            for radius in (2, 1, 0):
                with np.errstate(invalid="ignore"):  # a window holding inf and -inf is NaN
                    got = kernels.box_mean(grid.copy(), radius)
                    want = _box_mean_loop(grid.copy(), radius)
                assert got.dtype == want.dtype == grid.dtype, name
                # NaN where the loop has NaN; -0.0 and +0.0 compare equal
                np.testing.assert_array_equal(got, want, err_msg=f"{name} r={radius}")

    def test_local_max_small_and_special_crops(self, rng):
        for name, grid in self._crops(rng):
            for threshold in (0.5, -1.0):
                got = kernels.local_max_mask(grid.copy(), threshold)
                assert got.dtype == np.uint8, name
                np.testing.assert_array_equal(
                    got, _local_max_mask_loop(grid, threshold), err_msg=f"{name} t={threshold}"
                )

    def test_local_max_equivalence(self, rng):
        for dtype in _FLOATS:
            grid = rng.random((30, 30)).astype(dtype)
            np.testing.assert_array_equal(
                kernels.local_max_mask(grid, 0.5),
                _local_max_mask_loop(grid, 0.5),
                err_msg=dtype.__name__,
            )

    def test_local_max_strictness(self):
        grid = np.zeros((8, 8), dtype=np.float32)
        grid[3, 3] = grid[3, 4] = 1.0  # tied neighbours: neither is strict
        for fn in (kernels.local_max_mask, _local_max_mask_loop):
            assert fn(grid, 0.1).sum() == 0, fn.__name__


@settings(deadline=None, max_examples=30)
@given(
    x=st.floats(5, 90),
    y=st.floats(5, 58),
)
def test_decode_recovers_position_property(spec, x, y):
    pose = Pose(coords={"withers": (x, y), "tail_implant": (x - 40.0, y)})
    maps = encode([pose], spec, 140, 64).prob
    found = [c for c in decode_candidates(maps) if c.category == "withers"]
    assert len(found) == 1
    assert math.hypot(found[0].x - x, found[0].y - y) < 0.4


# ---------------------------------------------------------------------------
# region-of-interest codec against the full-frame oracles in map_oracles.py


def assert_same_candidates(got, want):
    assert got == want


_coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.05, 1.05))
_peak = st.tuples(_coordinate, _coordinate, st.floats(-1.0, 1.5), st.floats(0.6, 5.0))
_plateau = st.none() | st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 1.2)
)


@settings(deadline=None, max_examples=150)
@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    peaks=st.lists(_peak, max_size=6),
    plateau=_plateau,
    offset=st.sampled_from([0.0, -0.3]),
    dtype=st.sampled_from([np.float32, np.float64]),
    threshold=st.sampled_from([0.0, 0.05, 0.4, 0.9]),
    nms_radius=st.sampled_from([0.0, 0.5, 2.0, 7.0, 20.0]),
)
def test_roi_decode_matches_dense_oracle(
    height, width, peaks, plateau, offset, dtype, threshold, nms_radius
):
    grid = np.zeros((height, width), dtype=dtype)
    for fx, fy, amplitude, sigma in peaks:
        bump = np.zeros((height, width), dtype=dtype)
        kernels.gaussian_max(bump, fx * (width - 1), fy * (height - 1), sigma, 3.0)
        grid += dtype(amplitude) * bump
    if plateau is not None:
        fr, fc, rows, cols, value = plateau
        row = int(fr * (height - 1))
        col = int(fc * (width - 1))
        grid[row : row + rows, col : col + cols] = value
    grid += dtype(offset)  # a negative offset gives maps with negative values
    # the second map is a transposed, non-contiguous view
    prob = {"a": grid, "b": grid[::-1].T}
    got = decode_candidates(prob, threshold, nms_radius)
    want = dense_decode_candidates(prob, threshold, nms_radius)
    assert_same_candidates(got, want)


def _parity_scenes(spec):
    """Frames of the codec acceptance scenes plus ones with overlapping animals."""
    scenes = []
    for n, seed in ((1, 1000), (3, 1002), (5, 1004), (8, 1007)):
        config = ScenarioConfig(
            n_animals=n, seed=seed, regimes=(RegimeSegment("stationary", 1),)
        )
        scenes.append((spec, generate(spec, config).frames[0].poses, 960, 720))
    noisy = ScenarioConfig(
        n_animals=3, seed=34, detection_noise=1.0, dropout=0.2,
        regimes=(RegimeSegment("stationary", 3),),
    )
    for poses in corrupt(generate(spec, noisy), spec).values():
        scenes.append((spec, poses, 960, 720))
    # overlapping animals: keypoint windows of different animals intersect
    near = make_pose(withers=(50, 50), tail_implant=(10, 50), head=(70, 52))
    far = make_pose(withers=(56, 50), tail_implant=(96, 50), head=(60, 70))
    same = make_pose(withers=(50, 53), tail_implant=(12, 47), head=(71, 50))
    scenes.append((spec, [near, far, same], 120, 100))
    # an animal cut by the image border: splat windows clip at the edge
    edge = make_pose(withers=(2, 1), tail_implant=(0, 40), head=(1, 0))
    scenes.append((spec, [edge, near], 120, 100))
    rows = parallel_rows_scene(n_rows=7, row_gap=20.0)
    scenes.append((rows.spec, rows.truth_poses, 800, 600))
    return scenes


def test_roi_encode_bit_equal_to_dense_oracle(spec):
    for scene_spec, poses, width, height in _parity_scenes(spec):
        got = encode(poses, scene_spec, width, height)
        want = dense_encode_prob_maps(poses, scene_spec, width, height, EncoderParams())
        assert list(got.prob) == list(want)
        for category, grid in want.items():
            assert np.asarray(got.prob[category]).dtype == grid.dtype
            assert np.asarray(got.prob[category]).tobytes() == grid.tobytes(), category
        want_assoc = dense_encode_assoc_maps(poses, scene_spec, width, height, EncoderParams())
        assert list(got.assoc) == list(want_assoc)
        for pair, grids in want_assoc.items():
            assert np.asarray(got.assoc[pair]).dtype == grids.dtype
            assert np.asarray(got.assoc[pair]).tobytes() == grids.tobytes(), pair
        assert_same_candidates(
            decode_candidates(got.prob),
            dense_decode_candidates(want, DEFAULT_DETECT_THRESHOLD, DEFAULT_NMS_RADIUS),
        )


def test_decode_survives_nan_far_from_peak():
    grid = np.zeros((40, 60), dtype=np.float32)
    kernels.gaussian_max(grid, 45.0, 3.0, 2.0, 3.0)
    grid[2, 3] = np.nan  # 42 px from the peak
    found = decode_candidates({"k": grid})
    assert len(found) == 1
    assert (found[0].x, found[0].y) == pytest.approx((45.0, 3.0), abs=0.3)


def test_decode_survives_nan_inside_peak_crop():
    grid = np.zeros((40, 60), dtype=np.float32)
    kernels.gaussian_max(grid, 30.0, 20.0, 2.0, 3.0)
    # inside the smoothed crop and before the peak in row and column order,
    # but outside every window the peak test reads
    grid[18, 26] = np.nan
    found = decode_candidates({"k": grid})
    assert len(found) == 1
    assert (found[0].x, found[0].y) == pytest.approx((30.0, 20.0), abs=0.3)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize(
    "cells, nms_radius, expected_cols",
    [
        # hot cells 10 and 15 form separate boxes; col 12 ties with col 13,
        # whose window reaches raw col 15, five cells outside col 10's box
        ([1.0, 0.5, 0.5, 0.5, 0.5, 1.0], 0.5, []),
        # the only maximum lies two cells outside the box of col 10
        ([1.0, 0.5, 0.5, 0.5, 0.5, 0.0], 0.5, [12]),
        # boxes at cols 10 and 14 both reach the maximum at col 12; with a
        # zero NMS radius only deduplication keeps it single
        ([1.0, 0.3, 0.5, 0.3, 1.0], 0.0, [12]),
    ],
)
def test_roi_decode_box_margins(cells, nms_radius, expected_cols, transpose):
    row = np.zeros(26, dtype=np.float32)
    row[10 : 10 + len(cells)] = cells
    grid = row[None, :].T.copy() if transpose else row[None, :]
    prob = {"k": grid}
    want = dense_decode_candidates(prob, 0.5, nms_radius)
    assert [round(c.y if transpose else c.x) for c in want] == expected_cols
    assert_same_candidates(decode_candidates(prob, 0.5, nms_radius), want)


_special_cell = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf, -math.inf])
)


@settings(deadline=None, max_examples=100)
@given(
    height=st.integers(1, 140),
    width=st.integers(1, 140),
    layers=st.lists(
        st.tuples(st.lists(_peak, max_size=8), _plateau, st.lists(_special_cell, max_size=3)),
        min_size=2,
        max_size=4,
    ),
    dtype=st.sampled_from([np.float32, np.float64]),
    threshold=st.sampled_from([-0.2, 0.0, 0.4, 0.9]),
    nms_radius=st.sampled_from([0.0, 2.0, 7.0]),
)
def test_packed_strip_decode_matches_dense_oracle(
    height, width, layers, dtype, threshold, nms_radius
):
    """Several same-shape maps decoded in one call share their strips:
    partial tiles, peaks on and past every border, plateaus, non-finite
    cells and a threshold below the +0.0 of cells outside the tiles."""
    prob = {}
    for index, (peaks, plateau, specials) in enumerate(layers):
        grid = np.zeros((height, width), dtype=dtype)
        for fx, fy, amplitude, sigma in peaks:
            bump = np.zeros((height, width), dtype=dtype)
            kernels.gaussian_max(bump, fx * (width - 1), fy * (height - 1), sigma, 3.0)
            np.maximum(grid, dtype(amplitude) * bump, out=grid)
        if plateau is not None:
            fr, fc, rows, cols, value = plateau
            row = int(fr * (height - 1))
            col = int(fc * (width - 1))
            grid[row : row + rows, col : col + cols] = value
        for fr, fc, value in specials:
            grid[int(fr * (height - 1)), int(fc * (width - 1))] = value
        prob[f"k{index}"] = grid
    got = decode_candidates(prob, threshold, nms_radius)
    with np.errstate(invalid="ignore"):  # the full frame adds +inf to -inf in a window
        want = dense_decode_candidates(prob, threshold, nms_radius)
    assert_same_candidates(got, want)


def test_decode_matches_dense_oracle_on_crowded_frames(spec):
    """Twelve animals walking on 960x720 frames give crops of several
    widths; rows of two-keypoint animals 20 px apart give boxes that each
    hold a column of keypoints."""
    config = ScenarioConfig(
        n_animals=12, seed=202, margin=130.0, min_separation=75.0, dropout=0.1,
        regimes=(RegimeSegment("walking", 40, velocity=(1.0, 0.5)),),
    )
    frames = corrupt(generate(spec, config), spec, config)
    scenes = [(spec, frames[index], 960, 720) for index in sorted(frames)[::10]]
    rows = parallel_rows_scene(n_rows=7, row_gap=20.0)
    scenes.append((rows.spec, rows.truth_poses, 800, 600))
    for scene_spec, poses, width, height in scenes:
        prob = encode(poses, scene_spec, width, height).prob
        got = decode_candidates(prob)
        want = dense_decode_candidates(_grids(prob), DEFAULT_DETECT_THRESHOLD, DEFAULT_NMS_RADIUS)
        assert len(got) > 0
        assert_same_candidates(got, want)


# ---------------------------------------------------------------------------
# association tiles


def _two_point_poses(points):
    return [make_pose(front=front, back=back) for front, back in points]


@settings(deadline=None, max_examples=120)
@given(
    width=st.integers(1, 140),
    height=st.integers(1, 140),
    points=st.lists(
        st.tuples(
            st.tuples(st.floats(-5.0, 145.0), st.floats(-5.0, 145.0)),
            st.tuples(st.floats(-5.0, 145.0), st.floats(-5.0, 145.0)),
        ).filter(lambda p: math.dist(*p) > 1.0),
        min_size=1,
        max_size=4,
    ),
    weight_cutoff=st.floats(0.01, 0.95),
    kernel_extent=st.floats(0.5, 4.0),
)
def test_tiled_assoc_encode_bit_equal_to_dense_oracle(
    width, height, points, weight_cutoff, kernel_extent
):
    """Frames of any size, splats clipped at the border, any cutoff."""
    spec = two_point_skeleton()
    poses = _two_point_poses(points)
    params = EncoderParams(weight_cutoff=weight_cutoff, kernel_extent=kernel_extent)
    got = encode(poses, spec, width, height, params).assoc
    want = dense_encode_assoc_maps(poses, spec, width, height, params)
    for pair, grids in want.items():
        tiles = got[pair]
        assert np.asarray(tiles).tobytes() == grids.tobytes()
        assert np.asarray(Tiles.from_dense(grids)).tobytes() == grids.tobytes()
        # every kept tile holds a cell whose bits are not all zero
        assert (tiles.tiles.view(np.uint32) != 0).any(axis=(1, 2)).all()
        assert tiles.nbytes == tiles.positions.nbytes + tiles.tiles.nbytes
        assert (tiles.positions[1:] > tiles.positions[:-1]).all()


@settings(deadline=None, max_examples=120)
@given(
    width=st.integers(1, 140),
    height=st.integers(1, 140),
    points=st.lists(
        st.tuples(
            st.tuples(st.floats(-5.0, 145.0), st.floats(-5.0, 145.0)),
            st.tuples(st.floats(-5.0, 145.0), st.floats(-5.0, 145.0)),
        ).filter(lambda p: math.dist(*p) > 1.0),
        min_size=1,
        max_size=4,
    ),
    kernel_extent=st.floats(0.5, 4.0),
)
def test_tiled_prob_encode_bit_equal_to_dense_oracle(width, height, points, kernel_extent):
    """Frames of any size, splats clipped at the border; each channel also
    counts as the dense grid does where the benchmark counts it."""
    spec = two_point_skeleton()
    poses = _two_point_poses(points)
    params = EncoderParams(kernel_extent=kernel_extent)
    got = encode(poses, spec, width, height, params).prob
    want = dense_encode_prob_maps(poses, spec, width, height, params)
    assert list(got) == list(want)
    for category, grid in want.items():
        tiles = got[category]
        assert np.asarray(tiles).tobytes() == grid[None].tobytes()
        assert tiles.shape == (1, height, width) and tiles.size == grid.size
        assert np.count_nonzero(tiles) == np.count_nonzero(grid)
        assert tiles.nbytes == tiles.positions.nbytes + tiles.tiles.nbytes
        assert (tiles.positions[1:] > tiles.positions[:-1]).all()
        assert (tiles.tiles.view(np.uint32) != 0).any(axis=(1, 2)).all()
    assert_same_candidates(
        decode_candidates(got), dense_decode_candidates(want, DEFAULT_DETECT_THRESHOLD, DEFAULT_NMS_RADIUS)
    )


def test_encode_computes_each_gaussian_once(spec, monkeypatch):
    """One Gaussian patch per in-image keypoint: the probability splat and
    both association sides it feeds share it.  The per-splat oracles
    compute one per splat."""
    config = ScenarioConfig(
        n_animals=12, seed=202, margin=130.0, min_separation=75.0, dropout=0.1,
        regimes=(RegimeSegment("stationary", 1),),
    )
    poses = corrupt(generate(spec, config), spec, config)[0]
    keypoints = [
        xy for pose in poses for xy in map(pose.get, spec.categories)
        if xy is not None and 0 <= xy[0] < 960 and 0 <= xy[1] < 720
    ]
    sides = 2 * sum(pose.present(a) and pose.present(b) for pose in poses for a, b in spec.connections)
    calls = []
    patch = kernels._gaussian_patch
    monkeypatch.setattr(kernels, "_gaussian_patch", lambda *args: calls.append(args) or patch(*args))
    got = encode(poses, spec, 960, 720)
    assert len(calls) == len(keypoints) == 62
    assert {(cx, cy) for _, cx, cy, _, _ in calls} == set(keypoints)
    calls.clear()
    want = dense_encode_assoc_maps(poses, spec, 960, 720, EncoderParams())
    dense_encode_prob_maps(poses, spec, 960, 720, EncoderParams())
    assert len(calls) == len(keypoints) + sides == 178
    for pair, grids in want.items():
        assert np.asarray(got.assoc[pair]).tobytes() == grids.tobytes(), pair


def test_overlapping_association_splats_add_in_source_order():
    """Five animals whose front keypoints share cells: the float32 sums of
    several weights on one cell depend on the order they are added in, and
    the encoder adds them in the oracle's order."""
    fronts = [(40.0, 40.0), (41.3, 40.6), (39.2, 41.7), (40.8, 38.9), (42.1, 41.2)]
    backs = [(75.3, 52.1), (12.7, 33.9), (58.4, 5.2), (20.6, 71.8), (70.9, 70.1)]
    poses = _two_point_poses(zip(fronts, backs))
    spec = two_point_skeleton()
    params = EncoderParams()
    sigmas = pose_sigmas(poses, spec, params)
    # the cells holding a nonzero weight of at least three front splats
    covered = np.zeros((90, 90), dtype=int)
    for (cx, cy), sigma in zip(fronts, sigmas):
        cut = kernels.cut_weight(*kernels._gaussian_patch((90, 90), cx, cy, sigma, 3.0), 0.2, np.float32)
        covered[cut[0]] += cut[1] != 0
    assert covered.max() == len(fronts)
    want = dense_encode_assoc_maps(poses, spec, 90, 90, params)[spec.connections[0]]
    assert np.asarray(encode(poses, spec, 90, 90).assoc[spec.connections[0]]).tobytes() == want.tobytes()
    # the order matters on these cells: adding the splats the other way round changes bits
    reverse = dense_encode_assoc_maps(poses[::-1], spec, 90, 90, params)[spec.connections[0]]
    assert reverse[:2][:, covered >= 3].tobytes() != want[:2][:, covered >= 3].tobytes()


def test_tiled_writer_matches_dense_writer_and_formats_load_alike(spec, tmp_path):
    scenes = _parity_scenes(spec)
    for seed in (1, 2):
        config = ScenarioConfig(n_animals=12, seed=seed, regimes=(RegimeSegment("stationary", 1),))
        poses = corrupt(generate(spec, config), spec, config)[0]
        scenes.append((spec, poses, config.width, config.height))
    tiled, dense = tmp_path / "v3.ktm", tmp_path / "dense.ktm"
    for scene_spec, poses, width, height in scenes:
        stack = encode(poses, scene_spec, width, height)
        save_maps(stack, str(tiled))
        save_maps_v3(stack, str(dense))
        assert tiled.read_bytes() == dense.read_bytes()
        TestSerialization.assert_bit_equal(load_maps(str(tiled)), stack)


def test_connection_without_tiles_reads_zero_offsets(spec):
    """Candidates of both endpoints, but no animal has both: no tiles."""
    poses = [
        make_pose(withers=(100, 100), tail_implant=(40, 100), head=(122, 100), nose=None),
        make_pose(withers=(300, 200), tail_implant=(240, 200), head=None, nose=(338, 200)),
    ]
    stack = encode(poses, spec, 400, 300)
    tiles = stack.assoc[("head", "nose")]
    assert len(tiles.tiles) == 0 and len(tiles.positions) == 0
    dx, dy = read_offset(stack, ("head", "nose"), [122.0, 338.0], [100.0, 200.0])
    assert dx.tolist() == [0.0, 0.0] and dy.tolist() == [0.0, 0.0]
    assert tiles.gather(0, np.array([5]), np.array([7])).tolist() == [0.0]
