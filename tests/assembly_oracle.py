"""The scalar association penalty, for parity tests.

The package computes a connection's whole penalty matrix at once: it
reads each candidate's directed prediction once, through the association
tiles, and forms the pairs by broadcasting.  These are the per-pair
definitions it must reproduce, reading the dense channels one cell at a
time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from keytrack.maps import MapStack
from keytrack.skeleton import XY, Pair


def quadratic_sample(grid: np.ndarray, x: float, y: float) -> float:
    """Separable quadratic fit through the 3x3 cells around ``(x, y)``."""
    height, width = grid.shape
    if not (0.0 <= x <= width - 1 and 0.0 <= y <= height - 1):
        raise ValueError(f"position ({x}, {y}) outside {width}x{height} grid domain")
    col = min(int(math.floor(x + 0.5)), width - 1)
    row = min(int(math.floor(y + 0.5)), height - 1)
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


def predict_complement(position: XY, grids: np.ndarray, reverse: bool = False) -> XY:
    base = 2 if reverse else 0
    dx = quadratic_sample(grids[base], position[0], position[1])
    dy = quadratic_sample(grids[base + 1], position[0], position[1])
    return (position[0] + dx, position[1] + dy)


def association_penalty(parent_xy: XY, child_xy: XY, grids: np.ndarray) -> float:
    """Mean disagreement of the two directed complement predictions, on a
    connection's dense ``(4, height, width)`` channels."""
    forward = predict_complement(parent_xy, grids)
    backward = predict_complement(child_xy, grids, reverse=True)
    d_forward = math.hypot(forward[0] - child_xy[0], forward[1] - child_xy[1])
    d_backward = math.hypot(backward[0] - parent_xy[0], backward[1] - parent_xy[1])
    return 0.5 * (d_forward + d_backward)


def penalty_matrix(
    parents: Sequence[XY], children: Sequence[XY], maps: MapStack, pair: Pair
) -> np.ndarray:
    grids = np.asarray(maps.assoc[pair])
    matrix = np.empty((len(parents), len(children)), dtype=np.float64)
    for i, parent_xy in enumerate(parents):
        for j, child_xy in enumerate(children):
            matrix[i, j] = association_penalty(tuple(parent_xy), tuple(child_xy), grids)
    return matrix
