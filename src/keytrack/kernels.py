"""Hot pixel-level kernels with numba and pure-numpy implementations.

Every kernel exists twice: a loop-style version compiled with ``@njit`` and
a vectorised numpy version.  The public names dispatch to the compiled
version unless numba is unavailable or disabled via ``KEYTRACK_NUMBA=0``
(see :mod:`keytrack._accel`).  Both paths are kept equivalent; the
benchmark in ``benchmarks/bench_kernels.py`` times them side by side.
"""

from __future__ import annotations

import math

import numpy as np

from ._accel import NUMBA_AVAILABLE, njit


# ---------------------------------------------------------------------------
# unit-peak Gaussian splat, max-merged into the target grid


def _gaussian_max_loop(grid, cx, cy, sigma, extent):
    height, width = grid.shape
    reach = extent * sigma
    x0 = max(0, int(math.ceil(cx - reach)))
    x1 = min(width - 1, int(math.floor(cx + reach)))
    y0 = max(0, int(math.ceil(cy - reach)))
    y1 = min(height - 1, int(math.floor(cy + reach)))
    inv = 1.0 / (2.0 * sigma * sigma)
    for row in range(y0, y1 + 1):
        dy = row - cy
        for col in range(x0, x1 + 1):
            dx = col - cx
            value = math.exp(-(dx * dx + dy * dy) * inv)
            if value > grid[row, col]:
                grid[row, col] = value


def splat_window(shape, cx, cy, sigma, extent):
    """Inclusive ``(y0, y1, x0, x1)`` cells a splat can touch, clipped to
    the grid; ``None`` when the window misses the grid."""
    height, width = shape
    reach = extent * sigma
    x0 = max(0, int(math.ceil(cx - reach)))
    x1 = min(width - 1, int(math.floor(cx + reach)))
    y0 = max(0, int(math.ceil(cy - reach)))
    y1 = min(height - 1, int(math.floor(cy + reach)))
    if x0 > x1 or y0 > y1:
        return None
    return y0, y1, x0, x1


def gaussian_max_numpy(grid, cx, cy, sigma, extent):
    window = splat_window(grid.shape, cx, cy, sigma, extent)
    if window is None:
        return
    y0, y1, x0, x1 = window
    ys = np.arange(y0, y1 + 1, dtype=np.float64) - cy
    xs = np.arange(x0, x1 + 1, dtype=np.float64) - cx
    sq = ys[:, None] ** 2 + xs[None, :] ** 2
    patch = np.exp(-sq / (2.0 * sigma * sigma))
    np.maximum(
        grid[y0 : y1 + 1, x0 : x1 + 1],
        patch.astype(grid.dtype),
        out=grid[y0 : y1 + 1, x0 : x1 + 1],
    )


# ---------------------------------------------------------------------------
# association accumulation: weight and weighted offsets around one keypoint


def _assoc_accumulate_loop(wsum, num_x, num_y, cx, cy, sigma, extent, cutoff, dx, dy):
    height, width = wsum.shape
    reach = extent * sigma
    x0 = max(0, int(math.ceil(cx - reach)))
    x1 = min(width - 1, int(math.floor(cx + reach)))
    y0 = max(0, int(math.ceil(cy - reach)))
    y1 = min(height - 1, int(math.floor(cy + reach)))
    inv = 1.0 / (2.0 * sigma * sigma)
    for row in range(y0, y1 + 1):
        ry = row - cy
        for col in range(x0, x1 + 1):
            rx = col - cx
            weight = math.exp(-(rx * rx + ry * ry) * inv)
            if weight > cutoff:
                wsum[row, col] += weight
                num_x[row, col] += weight * dx
                num_y[row, col] += weight * dy


def assoc_accumulate_numpy(wsum, num_x, num_y, cx, cy, sigma, extent, cutoff, dx, dy):
    window = splat_window(wsum.shape, cx, cy, sigma, extent)
    if window is None:
        return
    y0, y1, x0, x1 = window
    ys = np.arange(y0, y1 + 1, dtype=np.float64) - cy
    xs = np.arange(x0, x1 + 1, dtype=np.float64) - cx
    sq = ys[:, None] ** 2 + xs[None, :] ** 2
    weight = np.exp(-sq / (2.0 * sigma * sigma))
    weight[weight <= cutoff] = 0.0
    weight = weight.astype(wsum.dtype)
    wsum[y0 : y1 + 1, x0 : x1 + 1] += weight
    num_x[y0 : y1 + 1, x0 : x1 + 1] += weight * wsum.dtype.type(dx)
    num_y[y0 : y1 + 1, x0 : x1 + 1] += weight * wsum.dtype.type(dy)


# ---------------------------------------------------------------------------
# box mean with edge-replicated padding


def _box_mean_loop(grid, radius):
    height, width = grid.shape
    rows = np.empty((height, width), dtype=np.float64)
    out = np.empty_like(grid)
    count = (2 * radius + 1) * (2 * radius + 1)
    # separable sums over each cell's own window, in a fixed order;
    # clamping indices replicates edges
    for row in range(height):
        for col in range(width):
            acc = 0.0
            for dc in range(-radius, radius + 1):
                cc = min(max(col + dc, 0), width - 1)
                acc += float(grid[row, cc])
            rows[row, col] = acc
    for row in range(height):
        for col in range(width):
            acc = 0.0
            for dr in range(-radius, radius + 1):
                rr = min(max(row + dr, 0), height - 1)
                acc += rows[rr, col]
            out[row, col] = acc / count
    return out


def box_mean_numpy(grid, radius):
    """Mean over each cell's (2r+1)^2 window, edges replicated.

    Each window is summed on its own, in a fixed order, in float64 (no
    running sums): a non-finite cell only affects the windows containing
    it, and a crop yields the same bits as the full frame wherever the
    crop holds the whole window.
    """
    height, width = grid.shape
    padded = np.pad(grid, radius, mode="edge").astype(np.float64)
    window = 2 * radius + 1
    rows = padded[:, 0:width].copy()
    for shift in range(1, window):
        rows += padded[:, shift : shift + width]
    out = rows[0:height].copy()
    for shift in range(1, window):
        out += rows[shift : shift + height]
    out /= window * window
    return out.astype(grid.dtype)


# ---------------------------------------------------------------------------
# strict local maxima against the 8-neighbourhood


def _local_max_mask_loop(grid, threshold):
    height, width = grid.shape
    mask = np.zeros(grid.shape, dtype=np.uint8)
    for row in range(height):
        for col in range(width):
            value = grid[row, col]
            if value <= threshold:
                continue
            keep = True
            for dr in range(-1, 2):
                rr = row + dr
                if rr < 0 or rr >= height:
                    continue
                for dc in range(-1, 2):
                    if dr == 0 and dc == 0:
                        continue
                    cc = col + dc
                    if cc < 0 or cc >= width:
                        continue
                    if grid[rr, cc] >= value:
                        keep = False
                        break
                if not keep:
                    break
            if keep:
                mask[row, col] = 1
    return mask


def local_max_mask_numpy(grid, threshold):
    padded = np.pad(grid, 1, mode="constant", constant_values=-np.inf)
    centre = padded[1:-1, 1:-1]
    keep = centre > threshold
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = padded[1 + dr : padded.shape[0] - 1 + dr, 1 + dc : padded.shape[1] - 1 + dc]
            keep &= centre > neighbour
    return keep.astype(np.uint8)


if NUMBA_AVAILABLE:
    gaussian_max_numba = njit(cache=True)(_gaussian_max_loop)
    assoc_accumulate_numba = njit(cache=True)(_assoc_accumulate_loop)
    box_mean_numba = njit(cache=True)(_box_mean_loop)
    local_max_mask_numba = njit(cache=True)(_local_max_mask_loop)

    gaussian_max = gaussian_max_numba
    assoc_accumulate = assoc_accumulate_numba
    box_mean = box_mean_numba
    local_max_mask = local_max_mask_numba
else:
    gaussian_max = gaussian_max_numpy
    assoc_accumulate = assoc_accumulate_numpy
    box_mean = box_mean_numpy
    local_max_mask = local_max_mask_numpy


def implementations() -> dict[str, dict[str, object]]:
    """Both kernel variants keyed by name, for tests and the benchmark."""
    table: dict[str, dict[str, object]] = {
        "gaussian_max": {"numpy": gaussian_max_numpy, "loop": _gaussian_max_loop},
        "assoc_accumulate": {
            "numpy": assoc_accumulate_numpy,
            "loop": _assoc_accumulate_loop,
        },
        "box_mean": {"numpy": box_mean_numpy, "loop": _box_mean_loop},
        "local_max_mask": {"numpy": local_max_mask_numpy, "loop": _local_max_mask_loop},
    }
    if NUMBA_AVAILABLE:
        table["gaussian_max"]["numba"] = gaussian_max_numba
        table["assoc_accumulate"]["numba"] = assoc_accumulate_numba
        table["box_mean"]["numba"] = box_mean_numba
        table["local_max_mask"]["numba"] = local_max_mask_numba
    return table
