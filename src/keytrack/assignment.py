"""Bipartite assignment: optimal (Hungarian) and greedy solvers.

Cost matrices are plain 2-D float arrays, rows by columns.  ``inf`` marks a
forbidden pair.  Gates are applied after solving: matched pairs whose cost
exceeds the gate are dropped from the result.

The optimal solver is the shortest augmenting path algorithm of Crouse ("On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016) as
scipy's ``linear_sum_assignment`` implements it, so it returns scipy's pairs,
ties included: a tall matrix is solved transposed, each row's search scans
the columns from the last one, and among equally cheap columns it takes a
free one (the last free one in scan order), else the first.

A certified shortcut comes first: when every row's minimum is strictly below
the rest of its row and the minima lie in distinct columns, matching each row
to its minimum is the unique optimum, and also the matching that algorithm
reaches (each row's first scan finds its minimum free), so it is returned
without search.  A matrix with a tied row minimum always takes the full
search, since the pairs then depend on the tie order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

Match = tuple[int, int]


def _checked(costs) -> np.ndarray:
    matrix = np.asarray(costs, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {matrix.shape}")
    if np.isnan(matrix).any():
        raise ValueError("cost matrix contains NaN")
    return matrix


def _apply_gate(matrix: np.ndarray, pairs: list[Match], gate: Optional[float]) -> list[Match]:
    if gate is None:
        return pairs
    return [(r, c) for r, c in pairs if matrix[r, c] <= gate]


def hungarian(costs, gate: Optional[float] = None) -> list[Match]:
    """Minimum-total-cost matching over the permitted (finite) pairs.

    Matches min(rows, cols) pairs when feasible; pairs forced onto
    forbidden entries are dropped, as are pairs above the gate.
    """
    matrix = _checked(costs)
    if matrix.size == 0:
        return []
    finite = np.isfinite(matrix)
    solvable = matrix.copy()
    if not finite.all():
        if finite.any():
            span = float(np.abs(matrix[finite]).sum())
        else:
            span = 0.0
        # large finite stand-in: never preferred over any all-finite matching
        solvable[~finite] = span + 1.0
    rows, cols = _min_cost_pairs(solvable)
    kept = finite[rows, cols]
    pairs = list(zip(rows[kept].tolist(), cols[kept].tolist()))
    return _apply_gate(matrix, pairs, gate)


def _min_cost_pairs(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum-cost matching of a finite matrix, by row."""
    tall = cost.shape[0] > cost.shape[1]
    wide = cost.T if tall else cost
    col_of_row = _row_minima(wide)
    if col_of_row is None:
        col_of_row = _augmenting_paths(wide)
    if tall:
        order = np.argsort(col_of_row)
        return col_of_row[order], order
    return np.arange(len(col_of_row)), col_of_row


def _row_minima(cost: np.ndarray) -> Optional[np.ndarray]:
    """Each row's minimum column when that matching is certified optimal, else ``None``.

    Certified when every row's minimum is strict and no two rows share a
    minimum column; ``cost`` has no more rows than columns.
    """
    cols = cost.argmin(axis=1)
    minima = cost[np.arange(len(cost)), cols]
    if np.count_nonzero(cost == minima[:, None]) != len(cost):
        return None
    taken = np.zeros(cost.shape[1], dtype=bool)
    taken[cols] = True
    if np.count_nonzero(taken) != len(cols):
        return None
    return cols


def _augmenting_paths(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost matching; ``cost`` is finite, rows <= cols.

    One shortest augmenting path per row, with the dual updates of Crouse's
    algorithm; the scan over the remaining columns is vectorised.  The
    remaining columns start in reverse order and a scanned one is replaced by
    the last, so ties resolve as they do in scipy.  A column's path distance
    and predecessor row are final once it is scanned, so they are kept in
    scan order beside the remaining columns and recorded when it leaves.
    """
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col_of_row = np.full(n_rows, -1, dtype=np.intp)
    row_of_col = np.full(n_cols, -1, dtype=np.intp)
    for start in range(n_rows):
        remaining = np.arange(n_cols - 1, -1, -1)
        dist = np.full(n_cols, np.inf)
        pred = np.full(n_cols, -1, dtype=np.intp)
        n_remaining = n_cols
        cols_seen, dist_seen, path = [], [], {}
        min_val = 0.0
        row = start
        while True:
            scan = remaining[:n_remaining]
            scan_dist = dist[:n_remaining]
            # same operation order as scipy, so equal costs tie as they do there
            reduced = cost[row][scan]
            reduced += min_val
            reduced -= u[row]
            reduced -= v[scan]
            better = reduced < scan_dist
            np.copyto(scan_dist, reduced, where=better)
            np.copyto(pred[:n_remaining], row, where=better)
            index = int(scan_dist.argmin())
            min_val = scan_dist.item(index)
            tied = scan_dist == min_val
            if np.count_nonzero(tied) > 1:
                tied = tied.nonzero()[0]
                free = tied[row_of_col[scan[tied]] < 0]
                if free.size:
                    index = int(free[-1])
            col = int(scan[index])
            cols_seen.append(col)
            dist_seen.append(min_val)
            path[col] = int(pred[index])
            n_remaining -= 1
            remaining[index] = remaining[n_remaining]
            dist[index] = dist[n_remaining]
            pred[index] = pred[n_remaining]
            row = int(row_of_col[col])
            if row < 0:
                break
        # the rows reached on the way are those matched to every column but the sink
        slack = min_val - np.array(dist_seen)
        u[start] += min_val
        u[row_of_col[cols_seen[:-1]]] += slack[:-1]
        v[cols_seen] -= slack
        while True:
            row = path[col]
            row_of_col[col] = row
            col_of_row[row], col = col, col_of_row[row]
            if row == start:
                break
    return col_of_row


def greedy_assign(costs, gate: Optional[float] = None) -> list[Match]:
    """Repeatedly match the globally cheapest remaining pair.

    Ties resolve to the lowest row index, then the lowest column index.
    Matching stops when either side is exhausted or only forbidden pairs
    remain; pairs above the gate are dropped afterwards.
    """
    matrix = _checked(costs)
    if matrix.size == 0:
        return []
    work = matrix.copy()
    pairs: list[Match] = []
    remaining = min(work.shape)
    for _ in range(remaining):
        flat = np.argmin(work)  # first occurrence: lowest row, then column
        row, col = np.unravel_index(flat, work.shape)
        if not np.isfinite(work[row, col]):
            break
        pairs.append((int(row), int(col)))
        work[row, :] = np.inf
        work[:, col] = np.inf
    return _apply_gate(matrix, pairs, gate)
