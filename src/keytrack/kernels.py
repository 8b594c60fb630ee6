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
    exponent = np.add.outer(ys * ys, xs * xs)
    # in place: sq / -d rounds to the same bits as -sq / d
    exponent /= -2.0 * sigma * sigma
    return (slice(y0, y1 + 1), slice(x0, x1 + 1)), np.exp(exponent, out=exponent)


def gaussian_max(grid, cx, cy, sigma, extent):
    """Max-merge the splat into ``grid``; returns its window, as a pair of
    slices, and the float64 patch it merged, or ``None`` when the window
    misses the grid."""
    splat = _gaussian_patch(grid.shape, cx, cy, sigma, extent)
    if splat is None:
        return None
    cells, patch = splat
    np.maximum(grid[cells], patch.astype(grid.dtype), out=grid[cells])
    return splat


# ---------------------------------------------------------------------------
# association accumulation: weight and weighted offsets around one keypoint


def cut_weight(cells, patch, cutoff, dtype):
    """The association weight of a splat's unit-peak ``patch`` over the
    window ``cells``: values at most ``cutoff`` zeroed, cut to the bounding
    box of the cells left nonzero, as ``dtype``.  Returns that box as a
    pair of slices and the weight, or ``None`` when no cell is left."""
    weight = np.where(patch <= cutoff, 0.0, patch)
    nonzero = weight != 0.0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(nonzero.any(axis=0))
    r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    y0, x0 = cells[0].start, cells[1].start
    box = (slice(y0 + r0, y0 + r1), slice(x0 + c0, x0 + c1))
    return box, weight[r0:r1, c0:c1].astype(dtype)


def assoc_accumulate(wsum, num_x, num_y, cx, cy, sigma, extent, cutoff, dx, dy, cut=None):
    """Add one splat's weight, its unit-peak Gaussian zeroed at ``cutoff``,
    to ``wsum``, and the weight times the offset ``(dx, dy)`` to ``num_x``
    and ``num_y``, over the box of its nonzero cells only: the rest of its
    window would add +0.0 to the weight sum and ±0.0 to the offsets, which
    leaves every sum's bits as they are.

    ``cut`` is this splat's weight as :func:`cut_weight` returns it for
    ``wsum``'s dtype, when the caller holds it already; the Gaussian is
    then not computed again."""
    if cut is None:
        splat = _gaussian_patch(wsum.shape, cx, cy, sigma, extent)
        if splat is None:
            return
        cut = cut_weight(*splat, cutoff, wsum.dtype)
        if cut is None:
            return
    cells, weight = cut
    wsum[cells] += weight
    num_x[cells] += weight * wsum.dtype.type(dx)
    num_y[cells] += weight * wsum.dtype.type(dy)


# ---------------------------------------------------------------------------
# box mean with edge-replicated padding, written by hand into one buffer


def box_mean(grid, radius):
    """Mean over each cell's (2r+1)^2 window, edges replicated.

    Each window is summed on its own, in a fixed order, in float64 (no
    running sums): a non-finite cell only affects the windows containing
    it, and a crop yields the same bits as the full frame wherever the
    crop holds the whole window.
    """
    height, width = grid.shape
    window = 2 * radius + 1
    # the grid in float64 with ``radius`` replicated cells on every side
    padded = np.empty((height + 2 * radius, width + 2 * radius), dtype=np.float64)
    inner = padded[radius : radius + height]
    inner[:, radius : radius + width] = grid
    inner[:, :radius] = inner[:, radius : radius + 1]
    inner[:, radius + width :] = inner[:, radius + width - 1 : radius + width]
    padded[:radius] = inner[:1]
    padded[radius + height :] = inner[-1:]
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
    """1 where a cell is above ``threshold`` and above each of its 8
    neighbours, else 0.  Cells past the grid read -inf.  A cell is compared
    with the largest neighbour, found as the max of three rows of 3-wide
    maxima; as the max of a NaN is NaN, a NaN cell or neighbour keeps
    nothing, as eight separate comparisons would."""
    height, width = grid.shape
    padded = np.full((height + 2, width + 2), -np.inf, dtype=grid.dtype)
    padded[1:-1, 1:-1] = grid
    sides = np.maximum(padded[:, :-2], padded[:, 2:])  # left and right neighbours
    across = np.maximum(sides, padded[:, 1:-1])
    largest = np.maximum(across[:-2], across[2:])
    np.maximum(largest, sides[1:-1], out=largest)
    centre = padded[1:-1, 1:-1]
    keep = centre > threshold
    keep &= centre > largest
    return keep.view(np.uint8)
