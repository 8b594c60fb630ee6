"""Full-frame reference implementations of the map codec, for parity tests.

The package encodes, decodes and normalises only regions of interest and
keeps only 16x16 tiles.  These are the straightforward whole-map versions
it must reproduce exactly: the dense encoders render every splat into
full-frame arrays (the association encoder divides every cell by its
weight sum), and the dense decoder smooths and scans every cell.  The
package writes a ``.ktm`` file (version 3) from its tiles; the version 3
writer here cuts every channel into tiles and must write the same bytes.
The version 1 writer here stores every cell and the version 2 writer the
boxes of nonzero cells; the package no longer reads those formats, and
these writers make the files it must reject.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator, Sequence

import numpy as np

from keytrack import kernels
from keytrack.maps import (
    SMOOTH_RADIUS,
    CandidateKeypoint,
    EncoderParams,
    MapStack,
    _in_bounds,
    pose_sigmas,
)
from keytrack.skeleton import Pair, Pose, SkeletonSpec


def _parabola_offset(left: float, centre: float, right: float) -> float:
    """Vertex offset of the parabola through three equispaced samples."""
    denom = 2.0 * (2.0 * centre - left - right)
    if denom <= 0.0 or not math.isfinite(denom):
        return 0.0
    offset = (right - left) / denom
    return min(0.5, max(-0.5, offset))


def dense_decode_candidates(
    prob_maps: dict[str, np.ndarray], threshold: float, nms_radius: float
) -> list[CandidateKeypoint]:
    candidates: list[CandidateKeypoint] = []
    for category, grid in prob_maps.items():
        smoothed = kernels.box_mean(np.ascontiguousarray(grid), SMOOTH_RADIUS)
        mask = kernels.local_max_mask(smoothed, threshold)
        rows, cols = np.nonzero(mask)
        if rows.size == 0:
            continue
        scores = smoothed[rows, cols].astype(np.float64)
        order = np.lexsort((cols, rows, -scores))
        kept: list[tuple[int, int, float]] = []
        for idx in order:
            row = int(rows[idx])
            col = int(cols[idx])
            if all(
                (row - krow) ** 2 + (col - kcol) ** 2 >= nms_radius ** 2
                for krow, kcol, _ in kept
            ):
                kept.append((row, col, float(scores[idx])))
        height, width = smoothed.shape
        for row, col, score in kept:
            dx = 0.0
            dy = 0.0
            if 0 < col < width - 1:
                dx = _parabola_offset(
                    float(smoothed[row, col - 1]),
                    float(smoothed[row, col]),
                    float(smoothed[row, col + 1]),
                )
            if 0 < row < height - 1:
                dy = _parabola_offset(
                    float(smoothed[row - 1, col]),
                    float(smoothed[row, col]),
                    float(smoothed[row + 1, col]),
                )
            candidates.append(
                CandidateKeypoint(category=category, x=col + dx, y=row + dy, score=score)
            )
    return candidates


def dense_encode_prob_maps(
    poses: Sequence[Pose], spec: SkeletonSpec, width: int, height: int, params: EncoderParams
) -> dict[str, np.ndarray]:
    maps = {c: np.zeros((height, width), dtype=np.float32) for c in spec.categories}
    if not poses:
        return maps
    for pose, sigma in zip(poses, pose_sigmas(poses, spec, params)):
        for category in spec.categories:
            xy = pose.get(category)
            if xy is not None and _in_bounds(xy, width, height):
                kernels.gaussian_max(maps[category], xy[0], xy[1], sigma, params.kernel_extent)
    return maps


def dense_encode_assoc_maps(
    poses: Sequence[Pose], spec: SkeletonSpec, width: int, height: int, params: EncoderParams
) -> dict[Pair, np.ndarray]:
    out: dict[Pair, np.ndarray] = {}
    sigmas = pose_sigmas(poses, spec, params) if poses else []
    for pair in spec.connections:
        grids = np.zeros((4, height, width), dtype=np.float32)
        wsum_a = np.zeros((height, width), dtype=np.float32)
        wsum_b = np.zeros((height, width), dtype=np.float32)
        for pose, sigma in zip(poses, sigmas):
            a = pose.get(pair[0])
            b = pose.get(pair[1])
            if a is None or b is None:
                continue
            if not (_in_bounds(a, width, height) and _in_bounds(b, width, height)):
                continue
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            kernels.assoc_accumulate(
                wsum_a, grids[0], grids[1], a[0], a[1], sigma,
                params.kernel_extent, params.weight_cutoff, dx, dy,
            )
            kernels.assoc_accumulate(
                wsum_b, grids[2], grids[3], b[0], b[1], sigma,
                params.kernel_extent, params.weight_cutoff, -dx, -dy,
            )
        for idx, wsum in ((0, wsum_a), (1, wsum_a), (2, wsum_b), (3, wsum_b)):
            covered = wsum > 0
            grids[idx][covered] /= wsum[covered]
            grids[idx][~covered] = 0.0
        out[pair] = grids
    return out


def _write_header(handle, maps: MapStack, version: int, names: list[str]) -> None:
    handle.write(b"KTMB")
    handle.write(struct.pack("<IIII", version, maps.width, maps.height, len(names)))
    for name in names:
        encoded = name.encode("utf-8")
        handle.write(struct.pack("<H", len(encoded)))
        handle.write(encoded)


def save_maps_v1(maps: MapStack, path: str) -> None:
    """The version 1 ``.ktm`` layout: magic, version, width, height and
    channel count, the length-prefixed channel names, then every cell of
    every channel as ``<f4``."""
    channels = list(maps.channel_items())
    with open(path, "wb") as handle:
        _write_header(handle, maps, 1, [name for name, _ in channels])
        for _, grid in channels:
            handle.write(np.ascontiguousarray(grid, dtype="<f4"))


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` of each run of True in a 1-D mask."""
    padded = np.zeros(flags.size + 2, dtype=bool)
    padded[1:-1] = flags
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def hot_boxes(hot: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """Half-open ``(r0, r1, c0, c1)`` boxes that together cover every True
    cell: runs of rows holding one, then runs of columns inside each."""
    for r0, r1 in _runs(hot.any(axis=1)):
        for c0, c1 in _runs(hot[r0:r1].any(axis=0)):
            yield r0, r1, c0, c1


def save_maps_v2(maps: MapStack, path: str) -> None:
    """The version 2 ``.ktm`` layout: per channel a box count, the
    ``hot_boxes`` of all its cells whose bits are not all zero as ``<u4``,
    and each box's cells as ``<f4``."""
    channels = list(maps.channel_items())
    with open(path, "wb") as handle:
        _write_header(handle, maps, 2, [name for name, _ in channels])
        for _, grid in channels:
            cells = np.ascontiguousarray(grid, dtype="<f4")
            boxes = list(hot_boxes(cells.view("<u4") != 0))
            handle.write(struct.pack("<I", len(boxes)))
            handle.write(np.array(boxes, dtype="<u4").tobytes())
            for r0, r1, c0, c1 in boxes:
                handle.write(cells[r0:r1, c0:c1].tobytes())


def save_maps_v3(maps: MapStack, path: str) -> None:
    """The version 3 ``.ktm`` layout written from dense channels: per
    probability channel, then per connection's four channels, the count,
    flat positions (channel, tile row, tile column) and cells of the
    16x16 tiles holding a cell whose bits are not all zero."""
    channels = [grid for _, grid in maps.channel_items()]
    groups = [1] * len(maps.prob) + [4] * len(maps.assoc)
    with open(path, "wb") as handle:
        _write_header(handle, maps, 3, maps.channel_names())
        ny, nx = -(-maps.height // 16), -(-maps.width // 16)
        start = 0
        for size in groups:
            padded = np.zeros((size, ny * 16, nx * 16), dtype="<f4")
            padded[:, : maps.height, : maps.width] = channels[start : start + size]
            start += size
            tiles = padded.reshape(size, ny, 16, nx, 16).transpose(0, 1, 3, 2, 4).reshape(-1, 16, 16)
            positions = np.flatnonzero((tiles.view("<u4") != 0).any(axis=(1, 2)))
            handle.write(struct.pack("<I", len(positions)))
            handle.write(positions.astype("<u4").tobytes())
            handle.write(tiles[positions].tobytes())

