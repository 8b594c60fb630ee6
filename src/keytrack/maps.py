"""Keypoint probability and association map codec.

Maps are stored row-major: index ``[row, col]`` corresponds to image
coordinates ``(x=col, y=row)``.  All public functions speak image
coordinates.  Probability maps carry unit-peak Gaussians per keypoint,
max-merged where they overlap.  Association maps carry, per connection,
four channels of weighted mean offsets: ``dx_ab, dy_ab, dx_ba, dy_ba``
where ``ab`` points from parent to child.

Every channel is held as 16x16 tiles (:class:`Tiles`), only those holding
a nonzero cell: a stack has a one-channel tile set per probability
category and a four-channel one per connection.  Encoding computes each
in-image keypoint's Gaussian once: it is max-merged into a padded scratch
for the probability map, and its association weight, cut to the box of
its nonzero cells, is kept for the connections the keypoint ends.  Only
the tiles the windows touched are copied out.  Decoding finds boxes of
the cells above the detection threshold from the tiles, packs crops around
them from every category into strips, and smooths and scans each strip
once: a window mean can exceed the threshold only if some cell in the
window does, so no other cell can yield a candidate.  A ``.ktm`` file
(version 3) stores each tile set as it is held in memory.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from . import kernels
from .skeleton import (
    XY,
    Pair,
    Pose,
    SkeletonSpec,
    connection_name,
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
        if not 0.0 < self.kernel_extent < math.inf:
            raise ValueError(f"kernel_extent must be positive and finite, got {self.kernel_extent}")


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


TILE = 16  # side of a map tile, in cells
_TILE_SHIFT = 4
_TILE_MASK = TILE - 1


def _tile_counts(height: int, width: int) -> tuple[int, int]:
    return -(-height // TILE), -(-width // TILE)


def _nonzero_bits(cells: np.ndarray) -> np.ndarray:
    """Where the cells' bits are not all zero (so -0.0 counts, +0.0 not)."""
    return cells.view(f"u{cells.itemsize}") != 0


@dataclass
class Tiles:
    """``channels`` channels of a ``height x width`` grid, stored as 16x16
    tiles.

    ``positions`` holds, strictly ascending, where each of ``tiles`` lies
    in the slot grid, one slot per place a tile can take, of shape
    ``(channels, ceil(height / 16), ceil(width / 16))``, as a flat index:
    position ``(channel * ny + ty) * nx + tx`` holds the channel's rows
    ``16*ty`` to ``16*ty + 15`` and columns ``16*tx`` to ``16*tx + 15``.
    Every cell outside the tiles is +0.0,
    and so are the tile cells past the grid's last row or column; the
    package keeps only tiles holding a cell whose bits are not all zero.
    A ``.ktm`` file stores the two arrays as they are.

    ``np.asarray(tiles)`` gives the dense ``(channels, height, width)`` array.
    """

    channels: int
    height: int
    width: int
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint32))  # (n,) uint32
    tiles: np.ndarray = field(default_factory=lambda: np.zeros((0, TILE, TILE), np.float32))

    @classmethod
    def from_dense(cls, grids, dtype=np.float32) -> "Tiles":
        """Tiles of a ``(C, height, width)`` array, keeping every tile with
        a cell whose bits are not all zero.  ``dtype=None`` keeps the
        array's own."""
        grids = np.asarray(grids, dtype=dtype)
        channels, height, width = grids.shape
        ny, nx = _tile_counts(height, width)
        padded = np.zeros((channels, ny * TILE, nx * TILE), dtype=grids.dtype)
        padded[:, :height, :width] = grids
        blocks = padded.reshape(channels, ny, TILE, nx, TILE).transpose(0, 1, 3, 2, 4)
        kept = _nonzero_bits(blocks).any(axis=(3, 4))
        return cls(channels, height, width, _positions(np.flatnonzero(kept)), blocks[kept])

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.positions.nbytes + self.tiles.nbytes

    def _grid(self) -> tuple[int, int, int]:
        return (self.channels, *_tile_counts(self.height, self.width))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense ``(C, height, width)`` channels, for callers that want
        dense maps; the codec reads the tiles."""
        if copy is False:
            raise ValueError("tiles cannot be viewed as a dense array without a copy")
        channels, ny, nx = self._grid()
        out = np.zeros((channels, ny * TILE, nx * TILE), dtype=self.tiles.dtype)
        blocks = out.reshape(channels, ny, TILE, nx, TILE).transpose(0, 1, 3, 2, 4)
        blocks[np.unravel_index(self.positions, (channels, ny, nx))] = self.tiles
        out = out[:, : self.height, : self.width]
        return out if dtype is None else out.astype(dtype, copy=False)

    def gather(self, channels, rows, cols) -> np.ndarray:
        """Cells ``[channels, rows, cols]`` of the dense channels, the
        three integer index arrays broadcast together."""
        _, ny, nx = self._grid()
        wanted = (channels * ny + (rows >> _TILE_SHIFT)) * nx + (cols >> _TILE_SHIFT)
        if not len(self.tiles):
            return np.zeros(np.shape(wanted), dtype=self.tiles.dtype)
        # a position not held reads some tile; those cells are then set to +0.0
        index = np.minimum(np.searchsorted(self.positions, wanted), len(self.tiles) - 1)
        cells = self.tiles[index, rows & _TILE_MASK, cols & _TILE_MASK]
        cells[self.positions[index] != wanted] = 0.0
        return cells


def _positions(flat) -> np.ndarray:
    """Flat tile positions in the dtype a tile set and a ``.ktm`` file keep."""
    return np.asarray(flat, dtype=np.uint32)


def _tiled(grid: Tiles | np.ndarray) -> Tiles:
    """A probability map as a one-channel tile set of its own dtype."""
    return grid if isinstance(grid, Tiles) else Tiles.from_dense(np.asarray(grid)[None], dtype=None)


@dataclass
class MapStack:
    """One frame's maps: per probability category a one-channel
    :class:`Tiles`, and per connection its four association channels as
    a four-channel one.

    A probability map may be given as a ``(height, width)`` array and a
    connection's channels as a ``(4, height, width)`` array; they are
    stored as float32 tiles.
    """

    width: int
    height: int
    prob: dict[str, Tiles] = field(default_factory=dict)
    assoc: dict[Pair, Tiles] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for category, grid in self.prob.items():
            if not isinstance(grid, Tiles):
                self.prob[category] = Tiles.from_dense(np.asarray(grid)[None])
        for pair, grids in self.assoc.items():
            if not isinstance(grids, Tiles):
                self.assoc[pair] = Tiles.from_dense(grids)

    def channel_names(self) -> list[str]:
        return [f"prob:{category}" for category in self.prob] + [
            f"assoc:{connection_name(pair)}:{suffix}"
            for pair in self.assoc
            for suffix in ASSOC_CHANNELS
        ]

    def tile_sets(self) -> list[Tiles]:
        """Every tile set, in the order of ``channel_names``."""
        return [*self.prob.values(), *self.assoc.values()]

    def channel_items(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every channel as a dense grid."""
        grids = [grid for tiles in self.tile_sets() for grid in np.asarray(tiles)]
        return zip(self.channel_names(), grids)


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


def _scratch(height: int, width: int) -> np.ndarray:
    """A zeroed padded ``(3, 16*ny, 16*nx)`` float32 scratch: the renderers
    leave it zeroed again, so one serves every channel of a frame."""
    ny, nx = _tile_counts(height, width)
    return np.zeros((3, ny * TILE, nx * TILE), dtype=np.float32)


def _take(
    blocks: np.ndarray, planes, windows: list[tuple[slice, slice]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tiles of the scratch ``planes`` that the windows of cells reach:
    their tile rows, tile columns and cells.  The caller zeroes the windows
    in the scratch again: they hold every cell it wrote, and clearing them
    costs far less than scattering zeros into the tiles."""
    touched = np.zeros(blocks.shape[1:4:2], dtype=bool)
    for rows, cols in windows:
        touched[
            rows.start >> _TILE_SHIFT : ((rows.stop - 1) >> _TILE_SHIFT) + 1,
            cols.start >> _TILE_SHIFT : ((cols.stop - 1) >> _TILE_SHIFT) + 1,
        ] = True
    tys, txs = np.nonzero(touched)
    return tys, txs, blocks[planes, tys, :, txs, :]


# per (pose index, category) of an in-image keypoint whose window meets
# the grid: the box of nonzero cells and the float32 association weight cut
# from its Gaussian, or None when no cell passes the cutoff
_Weights = dict[tuple[int, str], Optional[tuple[tuple[slice, slice], np.ndarray]]]


def _render_prob(
    poses: Sequence[Pose],
    sigmas: Sequence[float],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams,
    scratch: np.ndarray,
) -> tuple[dict[str, Tiles], _Weights]:
    """Unit-peak Gaussian probability maps, one tile set per category, and
    the association weight cut from each in-image keypoint's Gaussian, so
    that every Gaussian is computed once.  The weights are only for
    ``_render_assoc``; a keypoint that ends no connection in the image
    has one too, which is never read."""
    ny, nx = _tile_counts(height, width)
    blocks = scratch.reshape(3, ny, TILE, nx, TILE)
    grid = scratch[0, :height, :width]
    out: dict[str, Tiles] = {}
    weights: _Weights = {}
    for category in spec.categories:
        windows = []
        for index, (pose, sigma) in enumerate(zip(poses, sigmas)):
            xy = pose.get(category)
            if xy is None:
                continue
            if not _in_bounds(xy, width, height):
                log.warning(
                    "pose %d keypoint %s at (%.1f, %.1f) outside %dx%d image; skipped",
                    index, category, xy[0], xy[1], width, height,
                )
                continue
            splat = kernels.gaussian_max(grid, xy[0], xy[1], sigma, params.kernel_extent)
            if splat is not None:
                windows.append(splat[0])
                weights[index, category] = kernels.cut_weight(*splat, params.weight_cutoff, np.float32)
        tys, txs, cells = _take(blocks, 0, windows)
        for window in windows:
            grid[window] = 0.0
        kept = _nonzero_bits(cells).any(axis=(1, 2))
        positions = _positions(tys[kept] * nx + txs[kept])
        out[category] = Tiles(1, height, width, positions, cells if kept.all() else cells[kept])
    return out, weights


def _render_assoc(
    poses: Sequence[Pose],
    sigmas: Sequence[float],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams,
    weights: _Weights,
    scratch: np.ndarray,
) -> dict[Pair, Tiles]:
    """Weighted mean offset maps, four channels per connection.

    An animal contributes to a connection's channels only when both
    endpoints exist; the weights are its unit-peak keypoint Gaussian
    truncated to zero at ``weight_cutoff``, as ``_render_prob`` cut them.
    Cells never touched stay 0.

    Each side of each connection (the parent's two channels, then the
    child's) is accumulated in one padded scratch holding the weight sum
    and the two weighted offsets, each weight added by
    ``kernels.assoc_accumulate`` over the box of its nonzero cells only.
    The tiles those boxes reach are then copied out and zeroed in the
    scratch again, and normalised; the tiles left with a nonzero cell are
    kept.
    """
    ny, nx = _tile_counts(height, width)
    grids = scratch[:, :height, :width]
    wsum, num_x, num_y = grids
    blocks = scratch.reshape(3, ny, TILE, nx, TILE)
    planes = np.arange(3)[:, None]
    out: dict[Pair, Tiles] = {}
    for pair in spec.connections:
        # per animal with both endpoints in the image: its index, both
        # keypoints, the offset from parent to child and the kernel width
        sources: list[tuple[int, XY, XY, float, float, float]] = []
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
            sources.append((index, a, b, b[0] - a[0], b[1] - a[1], sigma))
        if not sources:
            out[pair] = Tiles(len(ASSOC_CHANNELS), height, width)
            continue
        positions: list[np.ndarray] = []
        tiles: list[np.ndarray] = []
        for side in (0, 1):
            boxes = []
            for index, a, b, dx, dy, sigma in sources:
                cut = weights.get((index, pair[side]))
                if cut is None:
                    continue
                (cx, cy), sign = (a, 1.0) if side == 0 else (b, -1.0)
                kernels.assoc_accumulate(
                    wsum, num_x, num_y, cx, cy, sigma, params.kernel_extent,
                    params.weight_cutoff, sign * dx, sign * dy, cut=cut,
                )
                boxes.append(cut[0])
            tys, txs, block = _take(blocks, planes, boxes)  # (3, tiles, 16, 16)
            for rows, cols in boxes:
                grids[:, rows, cols] = 0.0
            weight, offsets = block[0], block[1:]
            # each cell a splat covered is divided once by its whole weight sum
            np.divide(offsets, weight, out=offsets, where=weight > 0)
            # by channel, then tile: the side's channels in position order
            channels, kept = np.nonzero(_nonzero_bits(offsets).any(axis=(2, 3)))
            positions.append(((2 * side + channels) * ny + tys[kept]) * nx + txs[kept])
            tiles.append(offsets[channels, kept])
        out[pair] = Tiles(
            len(ASSOC_CHANNELS), height, width, _positions(np.concatenate(positions)), np.concatenate(tiles)
        )
    return out


def encode(
    poses: Sequence[Pose],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams = EncoderParams(),
) -> MapStack:
    """Encode one frame's poses into a full map stack: unit-peak Gaussian
    probability maps, one tile set per category, and weighted mean offset
    maps, four channels per connection, rendered through one scratch."""
    sigmas = pose_sigmas(poses, spec, params) if poses else []
    # a finite extent can still overflow the kernel window's reach
    if sigmas and not math.isfinite(params.kernel_extent * max(sigmas)):
        raise ValueError(
            f"kernel_extent {params.kernel_extent} times kernel sigma {max(sigmas)} is not finite"
        )
    scratch = _scratch(height, width)
    prob, weights = _render_prob(poses, sigmas, spec, width, height, params, scratch)
    assoc = _render_assoc(poses, sigmas, spec, width, height, params, weights, scratch)
    return MapStack(width=width, height=height, prob=prob, assoc=assoc)


# ---------------------------------------------------------------------------
# decoding


def _parabola_offset(left, centre, right) -> np.ndarray:
    """Vertex offsets of the parabolas through three equispaced samples,
    elementwise in float64 and clamped to half a pixel; 0 where the
    samples do not bend down or their curvature is not finite."""
    left, centre, right = (np.asarray(v, dtype=np.float64) for v in (left, centre, right))
    with np.errstate(all="ignore"):  # the offsets of rejected samples are dropped
        denom = 2.0 * (2.0 * centre - left - right)
        bends = (denom > 0.0) & np.isfinite(denom)
        offset = np.clip((right - left) / np.where(bends, denom, 1.0), -0.5, 0.5)
    return np.where(bends, offset, 0.0)


_HALO = 2 * SMOOTH_RADIUS + 1  # raw cells a crop holds on each side of its box


def _hot_boxes(cells: np.ndarray, slots: np.ndarray, height: int, width: int, threshold: float):
    """Boxes covering every cell above ``threshold`` of same-shape
    one-channel tile sets whose tiles are ``cells``, found through
    ``slots``, the ``(sets, ny, nx)`` index of the tile each slot reads:
    arrays ``set, r0, r1, c0, c1`` of half-open boxes.

    A box is a run of tile rows holding a hot tile, by a run of tile
    columns holding one within it, narrowed to the extent of its hot
    cells.  A spare tile row after each set keeps the sets' runs apart.
    Two boxes of a set lie at least a tile apart, so no cell lies within
    ``SMOOTH_RADIUS`` of both."""
    count, ny, nx = slots.shape
    # 16 flags read as two 8-byte words and OR-ed elementwise, where any()
    # over an axis of 16 costs a reduction per row
    words = (cells > threshold).view(np.uint64)  # (tiles, 16, 2)
    rows = (words[..., 0] | words[..., 1]) != 0  # (tiles, 16)
    halves = rows.view(np.uint64)
    grid = np.zeros((count, ny + 1, nx), dtype=bool)
    grid[:, :ny] = ((halves[:, 0] | halves[:, 1]) != 0)[slots]
    g, tx = np.divmod(np.flatnonzero(grid), nx)
    if not g.size:
        return (np.zeros(0, np.intp),) * 5
    run = np.cumsum(np.r_[True, g[1:] > g[:-1] + 1]) - 1  # runs of hot tile rows
    spans = np.zeros((run[-1] + 1, nx), dtype=bool)
    spans[run, tx] = True
    starts = spans.copy()
    starts[:, 1:] &= ~spans[:, :-1]
    box = (np.cumsum(starts).reshape(spans.shape) - 1)[run, tx]
    order = np.argsort(box, kind="stable")
    first = np.flatnonzero(np.r_[True, box[order][1:] != box[order][:-1]])
    sets, ty = np.divmod(g[order], ny + 1)
    tx = tx[order]
    tile = slots[sets, ty, tx]
    lanes = words[tile]
    for half in (8, 4, 2, 1):  # OR the 16 rows down to one
        lanes = lanes[:, :half] | lanes[:, half:]
    cols = lanes.view(np.bool_).reshape(len(tile), TILE)
    rows = rows[tile]
    ty, tx = ty * TILE, tx * TILE
    r0 = np.minimum.reduceat(ty + rows.argmax(axis=1), first)
    r1 = np.maximum.reduceat(ty + TILE - rows[:, ::-1].argmax(axis=1), first)
    c0 = np.minimum.reduceat(tx + cols.argmax(axis=1), first)
    c1 = np.maximum.reduceat(tx + TILE - cols[:, ::-1].argmax(axis=1), first)
    # cells past the grid's last row or column read +0.0, hot below a
    # negative threshold: cut them off, and any box holding only them
    r1 = np.minimum(r1, height)
    c1 = np.minimum(c1, width)
    inside = (r0 < r1) & (c0 < c1)
    return sets[first][inside], r0[inside], r1[inside], c0[inside], c1[inside]


def _strip_maxima(cells, slots, height, width, threshold, boxes, span):
    """Strict maxima above ``threshold`` within ``SMOOTH_RADIUS`` of the
    ``boxes``, whose crops are ``span`` tiles wide, found in one strip:
    ``(set, row, col, centre, left, right, up, down)`` arrays, the last
    five the smoothed values of each maximum and its four neighbours.

    Each box's crop is its rows grown by ``2 * SMOOTH_RADIUS + 1`` and the
    tile columns its columns so grown reach, gathered as 16-cell tile rows;
    the crops are stacked, so the strip is ``span`` tiles wide.  Row
    indices are clipped to the image, and the columns of a crop past the
    image's right edge copy its last one, so the border replicates as the
    full-frame filter's padding does; after smoothing, every cell outside
    the image reads -inf, as past the full frame.  The seams between crops
    and the strip's own edges alter only smoothed cells more than
    ``SMOOTH_RADIUS + 1`` from every box, which no maximum test reads."""
    sets, r0, r1, c0, c1, tx0 = boxes
    ny, nx = slots.shape[1:]
    length = r1 - r0 + 2 * _HALO
    crop = np.repeat(np.arange(len(r0)), length)
    y = np.arange(crop.size) + np.repeat(r0 - _HALO - (np.cumsum(length) - length), length)
    clipped = np.clip(y, 0, height - 1)
    base = (sets[crop] * ny + (clipped >> _TILE_SHIFT)) * nx + tx0[crop]
    tiles = slots.reshape(-1)[base[:, None] + np.arange(span)]
    strip = cells[tiles, (clipped & _TILE_MASK)[:, None]].reshape(crop.size, span * TILE)
    cut = width - (nx - span) * TILE  # strip columns of the image, in a crop at its right edge
    edge = np.flatnonzero(tx0[crop] + span == nx) if cut < span * TILE else None
    if edge is not None:
        strip[edge, cut:] = strip[edge, cut - 1 : cut]
    with np.errstate(invalid="ignore"):  # +inf and -inf of two crops meet at a seam
        smoothed = kernels.box_mean(strip, SMOOTH_RADIUS)
    smoothed[y != clipped] = -np.inf
    if edge is not None:
        smoothed[edge, cut:] = -np.inf
    peaks = kernels.local_max_mask(smoothed, threshold).view(np.bool_)
    rows, cols = np.divmod(np.flatnonzero(peaks), span * TILE)
    hit = crop[rows]
    row = y[rows]
    col = tx0[hit] * TILE + cols
    near = (
        (r0[hit] - SMOOTH_RADIUS <= row) & (row < r1[hit] + SMOOTH_RADIUS)
        & (c0[hit] - SMOOTH_RADIUS <= col) & (col < c1[hit] + SMOOTH_RADIUS)
    )
    rows, cols, hit = rows[near], cols[near], hit[near]
    # a neighbour past the strip's side is read only where no fit uses it
    left = smoothed[rows, np.maximum(cols - 1, 0)]
    right = smoothed[rows, np.minimum(cols + 1, span * TILE - 1)]
    return (
        sets[hit], row[near], col[near], smoothed[rows, cols],
        left, right, smoothed[rows - 1, cols], smoothed[rows + 1, cols],
    )


def _smoothed_maxima(tile_sets: Sequence[Tiles], threshold: float) -> tuple[np.ndarray, ...]:
    """Strict maxima above ``threshold`` of one-channel maps of one shape
    and dtype, each smoothed, scanned only around raw cells above it:
    ``(set, row, col, score, dx, dy)`` arrays, one entry per cell.

    A box of hot cells can hold a smoothed cell above threshold within
    ``SMOOTH_RADIUS`` of itself; testing those against their neighbours
    needs one more ring, and smoothing that ring needs ``SMOOTH_RADIUS``
    more, so a crop grown by ``2 * SMOOTH_RADIUS + 1`` reproduces the
    full-frame filter exactly where it is read, and each cell is read for
    one box at most.  The crops of every set are smoothed and scanned
    together, in one strip per crop width in tiles, so that one wide crop
    does not widen the others."""
    height, width = tile_sets[0].height, tile_sets[0].width
    ny, nx = _tile_counts(height, width)
    dtype = tile_sets[0].tiles.dtype
    # every set's tiles, then one of +0.0 that every empty slot reads
    zero = np.zeros((1, TILE, TILE), dtype)
    cells = np.concatenate([*(tiles.tiles for tiles in tile_sets), zero])
    slots = np.full((len(tile_sets), ny * nx), len(cells) - 1, dtype=np.intp)
    start = 0
    for index, tiles in enumerate(tile_sets):
        slots[index, tiles.positions] = np.arange(start, start + len(tiles.tiles))
        start += len(tiles.tiles)
    slots = slots.reshape(len(tile_sets), ny, nx)
    # empty arrays, so that a frame with no strip concatenates too
    found = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0, dtype),) * 5]
    if ny and nx:
        sets, r0, r1, c0, c1 = _hot_boxes(cells, slots, height, width, threshold)
        tx0 = np.maximum(c0 - _HALO, 0) >> _TILE_SHIFT
        spans = ((np.minimum(c1 + _HALO, width) - 1) >> _TILE_SHIFT) + 1 - tx0
        for span in np.unique(spans).tolist():
            pick = spans == span
            boxes = (sets[pick], r0[pick], r1[pick], c0[pick], c1[pick], tx0[pick])
            found.append(_strip_maxima(cells, slots, height, width, threshold, boxes, span))
    sets, rows, cols, centre, left, right, up, down = map(np.concatenate, zip(*found))
    dx = np.where((0 < cols) & (cols < width - 1), _parabola_offset(left, centre, right), 0.0)
    dy = np.where((0 < rows) & (rows < height - 1), _parabola_offset(up, centre, down), 0.0)
    return sets, rows, cols, centre.astype(np.float64), dx, dy


def decode_candidates(
    prob_maps: dict[str, Tiles | np.ndarray],
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
    does, so the result equals that of filtering the whole map.  The
    crops of all maps of one shape and dtype are packed into strips, one
    per crop width in tiles, so a frame makes one ``box_mean`` and one
    ``local_max_mask`` call per strip.  A map given as a ``(height,
    width)`` array is tiled first, in its own dtype, which must be a
    floating one.  ``threshold`` must be finite and ``nms_radius``
    non-negative and finite.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if not 0.0 <= nms_radius < math.inf:
        raise ValueError(f"nms_radius must be non-negative and finite, got {nms_radius}")
    categories = list(prob_maps)
    tile_sets = [_tiled(prob_maps[category]) for category in categories]
    groups: dict[tuple, list[int]] = {}
    for index, tiles in enumerate(tile_sets):
        if tiles.tiles.dtype.kind != "f":  # cells outside the image read -inf
            raise ValueError(
                f"probability map {categories[index]!r} must hold floats, got {tiles.tiles.dtype}"
            )
        groups.setdefault((tiles.height, tiles.width, tiles.tiles.dtype), []).append(index)
    found: list[list[CandidateKeypoint]] = [[] for _ in categories]
    for members in groups.values():
        sets, rows, cols, scores, dx, dy = _smoothed_maxima(
            [tile_sets[index] for index in members], threshold
        )
        order = np.lexsort((cols, rows, -scores, sets))
        kept: list[list[tuple[int, int]]] = [[] for _ in members]
        for s, row, col, x, y, score in zip(
            *(values[order].tolist() for values in (sets, rows, cols, cols + dx, rows + dy, scores))
        ):
            if all(
                (row - krow) ** 2 + (col - kcol) ** 2 >= nms_radius ** 2
                for krow, kcol in kept[s]
            ):
                kept[s].append((row, col))
                found[members[s]].append(
                    CandidateKeypoint(category=categories[members[s]], x=x, y=y, score=score)
                )
    return [candidate for candidates in found for candidate in candidates]


# ---------------------------------------------------------------------------
# sub-pixel map reads


_STEPS = np.array([-1, 0, 1])


def _neighbourhoods(height: int, width: int, x, y):
    """Rows and columns of the 3x3 cells around the positions ``(x, y)``,
    edge-clamped, each ``(..., 3)``, and the positions' offsets from their
    centre cells.  Every position must lie within the grid domain
    ``[0, width-1] x [0, height-1]``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    outside = ~((0.0 <= x) & (x <= width - 1) & (0.0 <= y) & (y <= height - 1))
    if outside.any():
        x, y = np.broadcast_arrays(x, y)
        bad = outside.argmax()
        raise ValueError(
            f"position ({x.flat[bad]}, {y.flat[bad]}) outside {width}x{height} grid domain"
        )
    col = np.minimum(np.floor(x + 0.5), width - 1)
    row = np.minimum(np.floor(y + 0.5), height - 1)
    rows = np.minimum(np.maximum(row.astype(np.intp)[..., None] + _STEPS, 0), height - 1)
    cols = np.minimum(np.maximum(col.astype(np.intp)[..., None] + _STEPS, 0), width - 1)
    return rows, cols, x - col, y - row


def _quadratic_fit(cells: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Separable quadratic fits through ``(..., 3, 3)`` cells (rows, then
    columns) at offsets ``tx``, ``ty`` from the centre cell."""

    def axis_fit(left, centre, right, t):
        return centre + 0.5 * (right - left) * t + 0.5 * (left - 2.0 * centre + right) * t * t

    cells = cells.astype(np.float64)
    along_x = axis_fit(cells[..., 0], cells[..., 1], cells[..., 2], tx[..., None])
    return axis_fit(along_x[..., 0], along_x[..., 1], along_x[..., 2], ty)


def quadratic_sample(grid: Tiles | np.ndarray, x, y) -> np.ndarray:
    """Sample a probability map at sub-pixel positions via separable
    quadratic fits, reading the 3x3 cells around each through the tiles.

    Exact at integer positions and for affine-in-position maps away from
    the borders.  ``x`` and ``y`` broadcast together; every position must
    lie within the sampled grid domain ``[0, width-1] x [0, height-1]``.
    A map given as a ``(height, width)`` array is tiled first.
    """
    tiles = _tiled(grid)
    rows, cols, tx, ty = _neighbourhoods(tiles.height, tiles.width, x, y)
    return _quadratic_fit(tiles.gather(0, rows[..., :, None], cols[..., None, :]), tx, ty)


def read_offset(
    maps: MapStack | dict[Pair, Tiles],
    pair: Pair,
    x,
    y,
    reverse=False,
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate a connection's offset vectors at positions ``(x, y)``.

    Where ``reverse`` is false this reads the parent-to-child channels
    (valid near the parent keypoint), where true child-to-parent; it may
    be an array that broadcasts with the positions.  The 3x3 cells of both
    channels around every position are read in one tile gather.
    """
    assoc = maps.assoc if isinstance(maps, MapStack) else maps
    tiles = assoc[pair]
    rows, cols, tx, ty = _neighbourhoods(tiles.height, tiles.width, x, y)
    base = np.broadcast_to(2 * np.asarray(reverse, dtype=np.intp), tx.shape)
    channels = np.stack([base, base + 1])[..., None, None]
    cells = tiles.gather(channels, rows[..., :, None], cols[..., None, :])
    dx, dy = _quadratic_fit(cells, tx, ty)
    return dx, dy


# ---------------------------------------------------------------------------
# serialization: a binary container of tile sets


_BINARY_MAGIC = b"KTMB"
# version 3 stores tile sets; version 1 (every cell), version 2 (boxes of
# nonzero cells) and the dense text format are rejected with a message to
# re-encode the frame
_BINARY_VERSION = 3
_RE_ENCODE = "re-encode the frame from its detections with keytrack encode"
# a file need not hold the grid it declares, so the loader bounds it:
# 2**28 cells (1 GiB of float32) hold 30 channels of a 3840x2160 frame
_MAX_DECLARED_CELLS = 1 << 28
_TILE_BYTES = 4 * TILE * TILE


def save_maps(maps: MapStack, path: str) -> None:
    """A ``.ktm`` file of version 3: the header and channel names, then
    per tile set, in the order of ``channel_names``: a ``<u4`` tile count
    ``n``, its ``n`` positions as ``<u4`` and its ``n`` 16x16 tiles as
    ``<f4``, as the tile set holds them, so -0.0, NaN and subnormals
    round-trip exactly."""
    names = maps.channel_names()
    with open(path, "wb") as handle:
        handle.write(_BINARY_MAGIC)
        handle.write(struct.pack("<IIII", _BINARY_VERSION, maps.width, maps.height, len(names)))
        for name in names:
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
        for tiles in maps.tile_sets():
            handle.write(struct.pack("<I", len(tiles.positions)))
            handle.write(tiles.positions.astype("<u4", copy=False))
            handle.write(np.ascontiguousarray(tiles.tiles, dtype="<f4"))


def load_maps(path: str) -> MapStack:
    """A ``.ktm`` file of version 3, as ``save_maps`` writes it; every
    ``ValueError`` it raises names the file."""
    with open(path, "rb") as handle:
        try:
            magic = handle.read(4)
            if magic == _BINARY_MAGIC:
                return _load_binary(handle)
            if magic == b"KTMT":
                raise ValueError(f"text map files (.ktmt) are no longer read; {_RE_ENCODE}")
            raise ValueError("not a map stack file")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_exact(handle: BinaryIO, size: int, what: str) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise ValueError(f"truncated {what}")
    return data


def _utf8(data: bytes, what: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{what} is not UTF-8") from None


def _bytes_left(handle: BinaryIO) -> int:
    return os.fstat(handle.fileno()).st_size - handle.tell()


def _load_binary(handle: BinaryIO) -> MapStack:
    version, width, height, count = struct.unpack("<IIII", _read_exact(handle, 16, "header"))
    if version in (1, 2):
        raise ValueError(f".ktm version {version} is no longer read; {_RE_ENCODE}")
    if version != _BINARY_VERSION:
        raise ValueError(f"unsupported version {version}")
    names = []
    for _ in range(count):
        (length,) = struct.unpack("<H", _read_exact(handle, 2, "channel name"))
        names.append(_utf8(_read_exact(handle, length, "channel name"), "channel name"))
    if count * height * width > _MAX_DECLARED_CELLS:
        raise ValueError(f"{count} channels of {width}x{height} exceed {_MAX_DECLARED_CELLS} cells")
    prob, assoc = _channel_layout(names)
    for pair, indices in assoc.items():
        if indices != list(range(indices[0], indices[0] + len(ASSOC_CHANNELS))):
            raise ValueError(f"association channels for {connection_name(pair)} out of order")
    return _read_tile_sets(handle, prob, assoc, width, height)


def _read_tile_sets(
    handle: BinaryIO,
    prob: dict[str, int],
    assoc: dict[Pair, list[int]],
    width: int,
    height: int,
) -> MapStack:
    """Version 3 channel data, as ``save_maps`` writes it: each tile
    set's positions and tiles are read straight into the arrays it keeps.

    Every tile count is checked against the bytes left before anything is
    allocated, so the memory is bounded by the file, and the positions
    must be strictly ascending and inside the set's slot grid.
    """
    sets = sorted(
        [(index, category, 1) for category, index in prob.items()]
        + [(indices[0], pair, len(ASSOC_CHANNELS)) for pair, indices in assoc.items()]
    )
    remaining = _bytes_left(handle)
    if remaining < 4 * len(sets):  # each tile set stores at least its tile count
        raise ValueError("truncated channel data")
    stack = MapStack(width=width, height=height)
    for _, key, channels in sets:
        (count,) = struct.unpack("<I", _read_exact(handle, 4, "tile count"))
        remaining -= 4 + count * (4 + _TILE_BYTES)
        if remaining < 0:
            raise ValueError("truncated tiles")
        positions = np.empty(count, dtype="<u4")
        cells = np.empty((count, TILE, TILE), dtype="<f4")
        if handle.readinto(positions) != positions.nbytes or handle.readinto(cells) != cells.nbytes:
            raise ValueError("truncated tiles")
        tiles = Tiles(channels, height, width, _positions(positions), cells.astype(np.float32, copy=False))
        grid = tiles._grid()
        if count and (positions[-1] >= math.prod(grid) or (positions[1:] <= positions[:-1]).any()):
            raise ValueError(
                "tile positions outside the {}x{}x{} slot grid, repeated or out of order".format(*grid)
            )
        if channels == 1:
            stack.prob[key] = tiles
        else:
            stack.assoc[key] = tiles
    return stack


def _channel_layout(names: list[str]) -> tuple[dict[str, int], dict[Pair, list[int]]]:
    """The index among ``names`` of each probability category's channel
    and of each connection's four association channels, in
    ``ASSOC_CHANNELS`` order."""
    prob: dict[str, int] = {}
    parts: dict[Pair, dict[str, int]] = {}
    for index, name in enumerate(names):
        kind, _, rest = name.partition(":")
        if kind == "prob":
            prob[rest] = index
        elif kind == "assoc":
            conn, _, suffix = rest.rpartition(":")
            parts.setdefault(parse_connection_name(conn), {})[suffix] = index
        else:
            raise ValueError(f"unknown channel {name!r}")
    assoc: dict[Pair, list[int]] = {}
    for pair, found in parts.items():
        if set(found) != set(ASSOC_CHANNELS):
            raise ValueError(f"incomplete association channels for {connection_name(pair)}")
        assoc[pair] = [found[suffix] for suffix in ASSOC_CHANNELS]
    if len(prob) + len(ASSOC_CHANNELS) * len(assoc) != len(names):
        raise ValueError("repeated channel name")
    return prob, assoc
