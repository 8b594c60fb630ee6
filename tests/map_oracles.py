"""Full-frame reference implementations of the map codec, for parity tests.

The package decodes and normalises only regions of interest.  These are
the straightforward whole-map versions it must reproduce exactly: the
dense decoder smooths and scans every cell, and the dense association
encoder divides every cell by its weight sum in one full-frame array per
connection, where the package keeps only 32x32 tiles.  The package writes
only the boxes of nonzero cells to a ``.ktm`` file, finding an association
channel's boxes from its tiles; the dense writer here scans every cell of
every channel and must write the same bytes.  The version 1 writer here
stores every cell, and its files must still load.  The ``.ktmt`` writer
here formats one cell at a time, and the package's must write its bytes.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from keytrack import kernels
from keytrack.maps import (
    SMOOTH_RADIUS,
    _TEXT_MAGIC,
    _TEXT_VERSION,
    CandidateKeypoint,
    EncoderParams,
    MapStack,
    _hot_boxes,
    _in_bounds,
    _parabola_offset,
    pose_sigmas,
)
from keytrack.skeleton import Pair, Pose, SkeletonSpec


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


def dense_encode(
    poses: Sequence[Pose],
    spec: SkeletonSpec,
    width: int,
    height: int,
    params: EncoderParams = EncoderParams(),
) -> MapStack:
    return MapStack(
        width=width,
        height=height,
        prob=dense_encode_prob_maps(poses, spec, width, height, params),
        assoc=dense_encode_assoc_maps(poses, spec, width, height, params),
    )


def save_maps_v1(maps: MapStack, path: str) -> None:
    """The version 1 ``.ktm`` layout: magic, version, width, height and
    channel count, the length-prefixed channel names, then every cell of
    every channel as ``<f4``."""
    channels = list(maps.channel_items())
    with open(path, "wb") as handle:
        handle.write(b"KTMB")
        handle.write(struct.pack("<IIII", 1, maps.width, maps.height, len(channels)))
        for name, _ in channels:
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<H", len(encoded)))
            handle.write(encoded)
        for _, grid in channels:
            handle.write(np.ascontiguousarray(grid, dtype="<f4"))


def save_maps_dense(maps: MapStack, path: str) -> None:
    """The version 2 ``.ktm`` layout written from dense channels: each
    channel's boxes are the ``_hot_boxes`` of all its cells whose bits are
    not all zero."""
    channels = list(maps.channel_items())
    with open(path, "wb") as handle:
        handle.write(b"KTMB")
        handle.write(struct.pack("<IIII", 2, maps.width, maps.height, len(channels)))
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


def save_text_maps_by_cell(maps: MapStack, path: str) -> None:
    """The ``.ktmt`` layout written one ``%.9g`` cell at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{_TEXT_MAGIC} {_TEXT_VERSION}\n")
        channels = list(maps.channel_items())
        handle.write(f"{maps.width} {maps.height} {len(channels)}\n")
        for name, grid in channels:
            handle.write(name + "\n")
            for row in np.asarray(grid, dtype=np.float32):
                handle.write(" ".join(f"{v:.9g}" for v in row) + "\n")
