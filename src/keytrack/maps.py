"""Keypoint probability and association map codec.

Maps are stored row-major: index ``[row, col]`` corresponds to image
coordinates ``(x=col, y=row)``.  All public functions speak image
coordinates.  Probability maps carry unit-peak Gaussians per keypoint,
max-merged where they overlap.  Association maps carry, per connection,
four channels of weighted mean offsets: ``dx_ab, dy_ab, dx_ba, dy_ba``
where ``ab`` points from parent to child.

The codec only touches the regions of interest around keypoints.
Encoding writes and normalises each splat's window, never the whole
frame; a stack's probability channels share one array, as do its
association channels.  Decoding smooths and scans only crops around the
raw cells above the detection threshold: a window mean can exceed the
threshold only if some cell in the window does, so no other cell can
yield a candidate.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .skeleton import (
    Pair,
    Pose,
    SkeletonSpec,
    connection_name,
    connection_vector,
    parse_connection_name,
    skeleton_scale,
)

log = logging.getLogger(__name__)

ASSOC_CHANNELS = ("dx_ab", "dy_ab", "dx_ba", "dy_ba")

DEFAULT_THETA = 0.2
DEFAULT_WEIGHT_CUTOFF = 0.2
DEFAULT_KERNEL_EXTENT = 3.0
DEFAULT_DETECT_THRESHOLD = 0.4
DEFAULT_NMS_RADIUS = 7.0
SMOOTH_RADIUS = 2  # 5x5 mean filter


@dataclass(frozen=True)
class EncoderParams:
    """Kernel sizing and truncation constants for map encoding."""

    theta: float = DEFAULT_THETA
    weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF
    kernel_extent: float = DEFAULT_KERNEL_EXTENT

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if not 0.0 < self.weight_cutoff < 1.0:
            raise ValueError(
                f"weight_cutoff must be in (0, 1), got {self.weight_cutoff}"
            )
        if self.kernel_extent <= 0.0:
            raise ValueError(f"kernel_extent must be positive, got {self.kernel_extent}")


@dataclass
class CandidateKeypoint:
    """A decoded keypoint candidate in image coordinates."""

    category: str
    x: float
    y: float
    score: float

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class MapStack:
    """One frame's probability and association maps."""

    width: int
    height: int
    prob: dict[str, np.ndarray] = field(default_factory=dict)
    assoc: dict[Pair, np.ndarray] = field(default_factory=dict)

    def channel_items(self) -> Iterator[tuple[str, np.ndarray]]:
        for category, grid in self.prob.items():
            yield f"prob:{category}", grid
        for pair, grids in self.assoc.items():
            for idx, suffix in enumerate(ASSOC_CHANNELS):
                yield f"assoc:{connection_name(pair)}:{suffix}", grids[idx]


def kernel_sigma(scale: float, mean_scale: float, theta: float = DEFAULT_THETA) -> float:
    """Kernel width from an instance scale and the frame's mean scale."""
    if scale <= 0.0 or mean_scale <= 0.0:
        raise ValueError("skeleton scales must be positive")
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    return theta * (scale + mean_scale) / 2.0


def pose_sigmas(poses: Sequence[Pose], spec: SkeletonSpec, params: EncoderParams) -> list[float]:
    """Per-pose kernel widths; raises if any pose has no defined scale."""
    scales: list[float] = []
    for index, pose in enumerate(poses):
        scale = skeleton_scale(spec, pose)
        if scale is None:
            raise ValueError(
                f"pose {index} has no dominant connection; scale undefined"
            )
        scales.append(scale)
    mean_scale = sum(scales) / len(scales)
    return [kernel_sigma(s, mean_scale, params.theta) for s in scales]


def _in_bounds(xy: tuple[float, float], width: int, height: int) -> bool:
    return 0.0 <= xy[0] < width and 0.0 <= xy[1] < height


def encode_prob_maps(
    poses: Sequence[Pose],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams = EncoderParams(),
) -> dict[str, np.ndarray]:
    """Render unit-peak Gaussian probability maps, one per category."""
    block = np.zeros((len(spec.categories), height, width), dtype=np.float32)
    maps = dict(zip(spec.categories, block))
    if not poses:
        return maps
    sigmas = pose_sigmas(poses, spec, params)
    for index, (pose, sigma) in enumerate(zip(poses, sigmas)):
        for category in spec.categories:
            xy = pose.get(category)
            if xy is None:
                continue
            if not _in_bounds(xy, width, height):
                log.warning(
                    "pose %d keypoint %s at (%.1f, %.1f) outside %dx%d image; skipped",
                    index, category, xy[0], xy[1], width, height,
                )
                continue
            kernels.gaussian_max(
                maps[category], xy[0], xy[1], sigma, params.kernel_extent
            )
    return maps


def encode_assoc_maps(
    poses: Sequence[Pose],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams = EncoderParams(),
) -> dict[Pair, np.ndarray]:
    """Render weighted mean offset maps, four channels per connection.

    An animal contributes to a connection's channels only when both
    endpoints exist; the weights are its unit-peak keypoint Gaussian
    truncated to zero at ``weight_cutoff``.  Cells never touched stay 0.
    """
    pairs = spec.connections
    block = np.zeros((len(pairs), 4, height, width), dtype=np.float32)
    # per-connection weight sums on both endpoints: scratch, freed on return
    wsums = np.zeros((len(pairs), 2, height, width), dtype=np.float32)
    sigmas = pose_sigmas(poses, spec, params) if poses else []
    for pair, grids, wsum in zip(pairs, block, wsums):
        splats: list[tuple[int, float, float, float]] = []
        for index, (pose, sigma) in enumerate(zip(poses, sigmas)):
            a = pose.get(pair[0])
            b = pose.get(pair[1])
            if a is None or b is None:
                continue
            if not (_in_bounds(a, width, height) and _in_bounds(b, width, height)):
                log.warning(
                    "pose %d connection %s endpoint outside %dx%d image; skipped",
                    index, connection_name(pair), width, height,
                )
                continue
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            kernels.assoc_accumulate(
                wsum[0], grids[0], grids[1], a[0], a[1], sigma,
                params.kernel_extent, params.weight_cutoff, dx, dy,
            )
            kernels.assoc_accumulate(
                wsum[1], grids[2], grids[3], b[0], b[1], sigma,
                params.kernel_extent, params.weight_cutoff, -dx, -dy,
            )
            splats.append((0, a[0], a[1], sigma))
            splats.append((1, b[0], b[1], sigma))
        for side, cx, cy, sigma in splats:
            window = kernels.splat_window(
                (height, width), cx, cy, sigma, params.kernel_extent
            )
            if window is None:
                continue
            y0, y1, x0, x1 = window
            weight = wsum[side, y0 : y1 + 1, x0 : x1 + 1]
            covered = weight > 0
            for grid in grids[2 * side : 2 * side + 2]:
                cells = grid[y0 : y1 + 1, x0 : x1 + 1]
                cells[covered] /= weight[covered]
            # a cell is normalised once, even where windows overlap
            weight[covered] = 0.0
    return dict(zip(pairs, block))


def encode(
    poses: Sequence[Pose],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams = EncoderParams(),
) -> MapStack:
    """Encode one frame's poses into a full map stack."""
    return MapStack(
        width=width,
        height=height,
        prob=encode_prob_maps(poses, spec, width, height, params),
        assoc=encode_assoc_maps(poses, spec, width, height, params),
    )


# ---------------------------------------------------------------------------
# decoding


def _parabola_offset(left: float, centre: float, right: float) -> float:
    """Vertex offset of the parabola through three equispaced samples."""
    denom = 2.0 * (2.0 * centre - left - right)
    if denom <= 0.0 or not math.isfinite(denom):
        return 0.0
    offset = (right - left) / denom
    return min(0.5, max(-0.5, offset))


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` of each run of True in a 1-D mask."""
    padded = np.zeros(flags.size + 2, dtype=bool)
    padded[1:-1] = flags
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _hot_boxes(hot: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """Half-open ``(r0, r1, c0, c1)`` boxes that together cover every True
    cell: runs of rows holding one, then runs of columns inside each."""
    for r0, r1 in _runs(hot.any(axis=1)):
        for c0, c1 in _runs(hot[r0:r1].any(axis=0)):
            yield r0, r1, c0, c1


def _smoothed_maxima(
    grid: np.ndarray, threshold: float
) -> dict[tuple[int, int], tuple[float, float, float]]:
    """Strict maxima above ``threshold`` of the smoothed grid, scanned only
    around raw cells above it: ``(row, col) -> (score, dx, dy)``.

    A box of hot raw cells can hold a smoothed cell above threshold within
    ``SMOOTH_RADIUS`` of itself; testing those against their neighbours
    needs one more ring, and smoothing that ring needs ``SMOOTH_RADIUS``
    more, so a crop grown by ``2 * SMOOTH_RADIUS + 1`` reproduces the
    full-frame filter exactly where it is read.  Where a crop meets the
    image border, the kernels' edge handling acts as on the full frame;
    the cells their padding alters at other crop edges are never read.
    """
    height, width = grid.shape
    found: dict[tuple[int, int], tuple[float, float, float]] = {}

    def grow(box: tuple[int, int, int, int], by: int) -> tuple[int, int, int, int]:
        r0, r1, c0, c1 = box
        return max(r0 - by, 0), min(r1 + by, height), max(c0 - by, 0), min(c1 + by, width)

    for box in _hot_boxes(grid > threshold):
        y0, y1, x0, x1 = grow(box, 2 * SMOOTH_RADIUS + 1)
        smoothed = kernels.box_mean(grid[y0:y1, x0:x1], SMOOTH_RADIUS)
        sy0, sy1, sx0, sx1 = grow(box, SMOOTH_RADIUS + 1)
        mask = kernels.local_max_mask(
            smoothed[sy0 - y0 : sy1 - y0, sx0 - x0 : sx1 - x0], threshold
        )
        ky0, ky1, kx0, kx1 = grow(box, SMOOTH_RADIUS)
        for srow, scol in zip(*np.nonzero(mask)):
            row = int(srow) + sy0
            col = int(scol) + sx0
            if not (ky0 <= row < ky1 and kx0 <= col < kx1):
                continue
            lrow = row - y0
            lcol = col - x0
            centre = float(smoothed[lrow, lcol])
            dx = 0.0
            dy = 0.0
            if 0 < col < width - 1:
                dx = _parabola_offset(
                    float(smoothed[lrow, lcol - 1]), centre, float(smoothed[lrow, lcol + 1])
                )
            if 0 < row < height - 1:
                dy = _parabola_offset(
                    float(smoothed[lrow - 1, lcol]), centre, float(smoothed[lrow + 1, lcol])
                )
            found[(row, col)] = (centre, dx, dy)
    return found


def decode_candidates(
    prob_maps: dict[str, np.ndarray],
    threshold: float = DEFAULT_DETECT_THRESHOLD,
    nms_radius: float = DEFAULT_NMS_RADIUS,
) -> list[CandidateKeypoint]:
    """Detect candidate keypoints from probability maps.

    Each map is smoothed with a 5x5 mean filter (edge-replicated), strict
    local maxima above ``threshold`` are collected, maxima closer than
    ``nms_radius`` are reduced to the higher-scoring one (ties: lower row,
    then lower column), and positions are refined by independent one-axis
    parabola fits clamped to half a pixel.

    Only crops around the raw cells above ``threshold`` are smoothed and
    scanned: a 5x5 mean exceeds the threshold only if a cell of its window
    does, so the result equals that of filtering the whole map.
    """
    candidates: list[CandidateKeypoint] = []
    for category, grid in prob_maps.items():
        found = _smoothed_maxima(np.asarray(grid), threshold)
        kept: list[tuple[int, int]] = []
        for row, col in sorted(found, key=lambda cell: (-found[cell][0], cell)):
            if all(
                (row - krow) ** 2 + (col - kcol) ** 2 >= nms_radius ** 2
                for krow, kcol in kept
            ):
                kept.append((row, col))
        for row, col in kept:
            score, dx, dy = found[(row, col)]
            candidates.append(
                CandidateKeypoint(category=category, x=col + dx, y=row + dy, score=score)
            )
    return candidates


# ---------------------------------------------------------------------------
# sub-pixel map reads


def quadratic_sample(grid: np.ndarray, x: float, y: float) -> float:
    """Sample a map at a sub-pixel position via separable quadratic fits.

    Exact at integer positions and for affine-in-position maps away from
    the borders.  The position must lie within the sampled grid domain
    ``[0, width-1] x [0, height-1]``.
    """
    height, width = grid.shape
    if not (0.0 <= x <= width - 1 and 0.0 <= y <= height - 1):
        raise ValueError(f"position ({x}, {y}) outside {width}x{height} grid domain")
    col = int(math.floor(x + 0.5))
    row = int(math.floor(y + 0.5))
    col = min(col, width - 1)
    row = min(row, height - 1)
    tx = x - col
    ty = y - row

    def axis_fit(left: float, centre: float, right: float, t: float) -> float:
        return centre + 0.5 * (right - left) * t + 0.5 * (left - 2.0 * centre + right) * t * t

    rows = (max(row - 1, 0), row, min(row + 1, height - 1))
    cols = (max(col - 1, 0), col, min(col + 1, width - 1))
    along_x = [
        axis_fit(float(grid[r, cols[0]]), float(grid[r, cols[1]]), float(grid[r, cols[2]]), tx)
        for r in rows
    ]
    return axis_fit(along_x[0], along_x[1], along_x[2], ty)


def read_offset(
    maps: MapStack | dict[Pair, np.ndarray],
    pair: Pair,
    x: float,
    y: float,
    reverse: bool = False,
) -> tuple[float, float]:
    """Interpolate a connection's offset vector at a position.

    ``reverse=False`` reads the parent-to-child channels (valid near the
    parent keypoint); ``reverse=True`` reads child-to-parent.
    """
    assoc = maps.assoc if isinstance(maps, MapStack) else maps
    grids = assoc[pair]
    base = 2 if reverse else 0
    return (
        quadratic_sample(grids[base], x, y),
        quadratic_sample(grids[base + 1], x, y),
    )


# ---------------------------------------------------------------------------
# training-style loss evaluation


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    location: float
    association: float


def map_loss(
    predicted: MapStack,
    truth: MapStack,
    theta1: float = 0.0,
    theta2: float = 1.0,
    theta3: float = 1.0,
    assoc_scale: float = 512.0,
) -> LossBreakdown:
    """Weighted sum of location and association reconstruction errors.

    The location term is the mean squared error over all probability-map
    cells.  The association term is the squared error of the offset maps
    scaled by ``assoc_scale``, summed where the truth is nonzero and
    normalised by the count of nonzero truth cells (0 when there are none).
    """
    if predicted.width != truth.width or predicted.height != truth.height:
        raise ValueError("map stacks have mismatched dimensions")
    if list(predicted.prob) != list(truth.prob) or list(predicted.assoc) != list(truth.assoc):
        raise ValueError("map stacks have mismatched channel sets")

    loc_sq = 0.0
    loc_cells = 0
    for category, truth_grid in truth.prob.items():
        pred_grid = predicted.prob[category]
        diff = pred_grid.astype(np.float64) - truth_grid.astype(np.float64)
        loc_sq += float(np.sum(diff * diff))
        loc_cells += diff.size
    location = loc_sq / loc_cells if loc_cells else 0.0

    assoc_sq = 0.0
    assoc_cells = 0
    for pair, truth_grids in truth.assoc.items():
        pred_grids = predicted.assoc[pair]
        nz = truth_grids != 0
        if not nz.any():
            continue
        diff = (
            pred_grids.astype(np.float64)[nz] - truth_grids.astype(np.float64)[nz]
        ) / assoc_scale
        assoc_sq += float(np.sum(diff * diff))
        assoc_cells += int(nz.sum())
    association = assoc_sq / assoc_cells if assoc_cells else 0.0

    total = theta1 + theta2 * location + theta3 * association
    return LossBreakdown(total=total, location=location, association=association)


# ---------------------------------------------------------------------------
# serialization: a binary container of nonzero boxes and a text debugging format


_BINARY_MAGIC = b"KTMB"
_TEXT_MAGIC = "KTMT"
_BINARY_VERSION = 2  # version 1, which stores every cell, still loads
_TEXT_VERSION = 1
# a version 2 file need not hold the grid it declares, so the loader bounds
# it: 2**28 cells (1 GiB of float32) hold 30 channels of a 3840x2160 frame
_MAX_BOX_BLOCK_CELLS = 1 << 28


def save_maps(maps: MapStack, path: str, text: bool = False) -> None:
    if text:
        _save_text(maps, path)
    else:
        _save_binary(maps, path)


def load_maps(path: str) -> MapStack:
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic == _BINARY_MAGIC:
        return _load_binary(path)
    if magic == _TEXT_MAGIC.encode("ascii"):
        return _load_text(path)
    raise ValueError(f"{path}: not a map stack file")


def _save_binary(maps: MapStack, path: str) -> None:
    """Header and channel names, then per channel a box count, the
    ``(r0, r1, c0, c1)`` boxes as ``<u4`` and each box's cells as ``<f4``.

    The boxes are the ``_hot_boxes`` of the cells whose bits are not all
    zero, so -0.0, NaN and subnormals round-trip exactly and every cell
    outside the boxes is +0.0.
    """
    channels = list(maps.channel_items())
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<IIII", _BINARY_VERSION, maps.width, maps.height, len(channels)))
        for name, _ in channels:
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
        for _, grid in channels:
            cells = np.ascontiguousarray(grid, dtype="<f4")
            boxes = list(_hot_boxes(cells.view("<u4") != 0))
            handle.write(struct.pack("<I", len(boxes)))
            handle.write(np.array(boxes, dtype="<u4").tobytes())
            for r0, r1, c0, c1 in boxes:
                handle.write(cells[r0:r1, c0:c1].tobytes())


def _read_exact(handle: BinaryIO, size: int, path: str, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated {what}")
    return data


def _load_binary(path: str) -> MapStack:
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path}: bad magic")
        version, width, height, count = struct.unpack(
            "<IIII", _read_exact(handle, 16, path, "header")
        )
        if version not in (1, _BINARY_VERSION):
            raise ValueError(f"{path}: unsupported version {version}")
        names = []
        for _ in range(count):
            (length,) = struct.unpack("<H", _read_exact(handle, 2, path, "channel name"))
            try:
                names.append(_read_exact(handle, length, path, "channel name").decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}: channel name is not UTF-8") from None
        if version == 1:
            block = _read_dense_channels(handle, (count, height, width), path)
        else:
            block = _read_box_channels(handle.read(), (count, height, width), path)
    # a version 2 block may be far larger than the file: never copy it
    return _assemble_stack(names, block, path, gather=version == 1)


def _read_dense_channels(handle: BinaryIO, shape: tuple[int, int, int], path: str) -> np.ndarray:
    """Version 1 channel data: every cell of every channel as ``<f4``."""
    # checked before allocating, so a bad header cannot ask for more
    # memory than the file holds
    remaining = os.fstat(handle.fileno()).st_size - handle.tell()
    if remaining < 4 * math.prod(shape):
        raise ValueError(f"{path}: truncated channel data")
    block = np.empty(shape, dtype="<f4")
    if handle.readinto(block) != block.nbytes:
        raise ValueError(f"{path}: truncated channel data")
    return block.astype(np.float32, copy=False)


def _read_box_channels(data: bytes, shape: tuple[int, int, int], path: str) -> np.ndarray:
    """Version 2 channel data, as ``_save_binary`` writes it, into one
    zeroed block.  Every count is checked against the bytes left before
    it is read, and the boxes must be non-empty, inside the grid and
    disjoint in the order ``_hot_boxes`` yields them: each continues the
    previous box's rows to its right or starts below them."""
    count, height, width = shape
    if len(data) < 4 * count:  # each channel stores at least its box count
        raise ValueError(f"{path}: truncated channel data")
    if count * height * width > _MAX_BOX_BLOCK_CELLS:
        raise ValueError(
            f"{path}: {count} channels of {width}x{height} exceed "
            f"{_MAX_BOX_BLOCK_CELLS} cells"
        )
    try:
        block = np.zeros(shape, dtype=np.float32)
    except MemoryError:
        raise ValueError(f"{path}: cannot allocate {count} channels of {width}x{height}") from None
    pos = 0
    for channel in block:
        if len(data) - pos < 4:
            raise ValueError(f"{path}: truncated box count")
        (boxes,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if len(data) - pos < 16 * boxes:
            raise ValueError(f"{path}: truncated boxes")
        r0, r1, c0, c1 = (
            np.frombuffer(data, "<u4", 4 * boxes, pos).reshape(boxes, 4).T.astype(np.int64)
        )
        pos += 16 * boxes
        if not ((r0 < r1) & (r1 <= height) & (c0 < c1) & (c1 <= width)).all():
            raise ValueError(f"{path}: box empty or outside the {width}x{height} grid")
        same_rows = (r0[1:] == r0[:-1]) & (r1[1:] == r1[:-1]) & (c0[1:] >= c1[:-1])
        if not (same_rows | (r0[1:] >= r1[:-1])).all():
            raise ValueError(f"{path}: boxes overlap or are out of order")
        # in bounds, disjoint and inside an allocated block: no overflow
        areas = (r1 - r0) * (c1 - c0)
        if len(data) - pos < 4 * int(areas.sum()):
            raise ValueError(f"{path}: truncated box data")
        for top, bottom, left, right, area in zip(
            r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist(), areas.tolist()
        ):
            cells = np.frombuffer(data, "<f4", area, pos)
            channel[top:bottom, left:right] = cells.reshape(bottom - top, right - left)
            pos += 4 * area
    return block


def _save_text(maps: MapStack, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_TEXT_MAGIC} {_TEXT_VERSION}\n")
        channels = list(maps.channel_items())
        handle.write(f"{maps.width} {maps.height} {len(channels)}\n")
        for name, grid in channels:
            handle.write(name + "\n")
            np.savetxt(handle, np.asarray(grid, dtype=np.float32), fmt="%.9g")


def _load_text(path: str) -> MapStack:
    with open(path, "rb") as handle:

        def line() -> str:
            return handle.readline().decode("utf-8")

        header = line().split()
        if len(header) != 2 or header[0] != _TEXT_MAGIC:
            raise ValueError(f"{path}: bad text header")
        if int(header[1]) != _TEXT_VERSION:
            raise ValueError(f"{path}: unsupported version {header[1]}")
        width, height, count = (int(tok) for tok in line().split())
        if min(width, height, count) < 0:
            raise ValueError(f"{path}: negative size {width} x {height} x {count}")
        # each channel is a name line and ``height`` lines of ``width``
        # values, each line at least one byte per value and never empty, so
        # a header that asks for more than the file holds is rejected here
        remaining = os.fstat(handle.fileno()).st_size - handle.tell()
        if remaining < count * (1 + height * max(width, 1)):
            raise ValueError(f"{path}: truncated channel data")
        names = []
        grids = []
        for _ in range(count):
            names.append(line().strip())
            rows = [np.array(line().split(), dtype=np.float32) for _ in range(height)]
            if any(row.shape != (width,) for row in rows):
                raise ValueError(f"{path}: channel shape mismatch")
            grids.append(np.array(rows, dtype=np.float32).reshape(height, width))
    block = np.array(grids, dtype=np.float32).reshape(count, height, width)
    return _assemble_stack(names, block, path)


def _assemble_stack(
    names: list[str], block: np.ndarray, path: str, gather: bool = True
) -> MapStack:
    """A stack whose channels are views of ``block`` (channel, row, col).

    A connection's four association channels stay one view when they are
    stored consecutively in ``ASSOC_CHANNELS`` order, as ``save_maps``
    writes them; otherwise they are gathered into a new array, or with
    ``gather`` false the file is rejected.
    """
    count, height, width = block.shape
    stack = MapStack(width=width, height=height)
    assoc_parts: dict[Pair, dict[str, int]] = {}
    for index, name in enumerate(names):
        kind, _, rest = name.partition(":")
        if kind == "prob":
            stack.prob[rest] = block[index]
        elif kind == "assoc":
            conn, _, suffix = rest.rpartition(":")
            pair = parse_connection_name(conn)
            assoc_parts.setdefault(pair, {})[suffix] = index
        else:
            raise ValueError(f"{path}: unknown channel {name!r}")
    for pair, parts in assoc_parts.items():
        if set(parts) != set(ASSOC_CHANNELS):
            raise ValueError(
                f"{path}: incomplete association channels for {connection_name(pair)}"
            )
        first = parts[ASSOC_CHANNELS[0]]
        indices = [parts[suffix] for suffix in ASSOC_CHANNELS]
        if indices == list(range(first, first + len(ASSOC_CHANNELS))):
            stack.assoc[pair] = block[first : first + len(ASSOC_CHANNELS)]
        elif gather:
            stack.assoc[pair] = block[indices]
        else:
            raise ValueError(
                f"{path}: association channels for {connection_name(pair)} out of order"
            )
    return stack
