"""Hot pixel-level kernels, one numpy implementation each.

``tests/kernel_oracles.py`` keeps plain loop versions of every kernel as
the reference the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# unit-peak Gaussian splat, max-merged into the target grid


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


def _gaussian_patch(shape, cx, cy, sigma, extent):
    """The splat's window as a pair of slices and its float64 unit-peak
    Gaussian values; ``None`` when the window misses the grid."""
    window = splat_window(shape, cx, cy, sigma, extent)
    if window is None:
        return None
    y0, y1, x0, x1 = window
    ys = np.arange(y0, y1 + 1, dtype=np.float64) - cy
    xs = np.arange(x0, x1 + 1, dtype=np.float64) - cx
    sq = ys[:, None] ** 2 + xs[None, :] ** 2
    return (slice(y0, y1 + 1), slice(x0, x1 + 1)), np.exp(-sq / (2.0 * sigma * sigma))


def gaussian_max(grid, cx, cy, sigma, extent):
    splat = _gaussian_patch(grid.shape, cx, cy, sigma, extent)
    if splat is None:
        return
    cells, patch = splat
    np.maximum(grid[cells], patch.astype(grid.dtype), out=grid[cells])


# ---------------------------------------------------------------------------
# association accumulation: weight and weighted offsets around one keypoint


def assoc_accumulate(wsum, num_x, num_y, cx, cy, sigma, extent, cutoff, dx, dy):
    splat = _gaussian_patch(wsum.shape, cx, cy, sigma, extent)
    if splat is None:
        return
    cells, weight = splat
    weight[weight <= cutoff] = 0.0
    weight = weight.astype(wsum.dtype)
    wsum[cells] += weight
    num_x[cells] += weight * wsum.dtype.type(dx)
    num_y[cells] += weight * wsum.dtype.type(dy)


# ---------------------------------------------------------------------------
# box mean with edge-replicated padding


def box_mean(grid, radius):
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


def local_max_mask(grid, threshold):
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
