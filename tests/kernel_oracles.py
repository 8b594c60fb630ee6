"""Plain loop versions of the pixel kernels in ``keytrack.kernels``.

Each loop visits cell by cell what the numpy kernel computes on whole
windows; the tests require both to agree.
"""

from __future__ import annotations

import math

import numpy as np


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


def _local_max_mask_loop(grid, threshold):
    height, width = grid.shape
    mask = np.zeros(grid.shape, dtype=np.uint8)
    for row in range(height):
        for col in range(width):
            value = grid[row, col]
            # written as "not above", so a NaN cell is never kept and a NaN
            # neighbour keeps no cell, as in the numpy kernel
            if not value > threshold:
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
                    if not value > grid[rr, cc]:
                        keep = False
                        break
                if not keep:
                    break
            if keep:
                mask[row, col] = 1
    return mask
