"""Greedy bottom-up assembly of keypoint candidates into skeletons.

Association maps predict, from each candidate, where its connected
counterpart should be; the penalty of pairing two candidates is the mean
disagreement of the two directed predictions.  Dominant connections are
matched first against the shared root pool, then the remaining connections
in the skeleton's tree order, pruning unmatched candidates after each stage.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .assignment import greedy_assign
from .maps import CandidateKeypoint, MapStack, read_offset
from .skeleton import Pair, Pose, SkeletonSpec, XY

DEFAULT_GATE_FRACTION = 0.05


def predict_complement(
    positions,
    maps: MapStack,
    pair: Pair,
    reverse=False,
) -> np.ndarray:
    """Predicted locations of the connected counterparts of candidates at
    ``positions``, an array-like of shape ``(..., 2)``; ``reverse`` is as
    in :func:`keytrack.maps.read_offset`."""
    positions = np.asarray(positions, dtype=np.float64)
    dx, dy = read_offset(maps, pair, positions[..., 0], positions[..., 1], reverse=reverse)
    return np.stack([positions[..., 0] + dx, positions[..., 1] + dy], axis=-1)


def association_penalty(
    parents,
    children,
    maps: MapStack,
    pair: Pair,
) -> np.ndarray:
    """Penalties of pairing each parent with each child: the mean
    disagreement of the two directed complement predictions.

    ``parents`` and ``children`` are positions of shape ``(..., 2)``; the
    result has shape ``parents.shape[:-1] + children.shape[:-1]`` (0-d for
    one parent and one child).  The forward prediction depends only on the
    parent and the backward one only on the child, so each is read once,
    all in one read, and the pairs are formed by broadcasting.
    """
    parents = np.asarray(parents, dtype=np.float64)
    children = np.asarray(children, dtype=np.float64)
    points = np.concatenate([parents.reshape(-1, 2), children.reshape(-1, 2)])
    split = parents.size // 2
    predicted = predict_complement(points, maps, pair, reverse=np.arange(len(points)) >= split)
    # parent-side arrays gain one axis per child axis
    expand = parents.shape[:-1] + (1,) * (children.ndim - 1) + (2,)
    forward = predicted[:split].reshape(expand)
    backward = predicted[split:].reshape(children.shape)
    parents = parents.reshape(expand)
    d_forward = np.hypot(forward[..., 0] - children[..., 0], forward[..., 1] - children[..., 1])
    d_backward = np.hypot(backward[..., 0] - parents[..., 0], backward[..., 1] - parents[..., 1])
    return 0.5 * (d_forward + d_backward)


def assemble(
    candidates: Sequence[CandidateKeypoint],
    maps: MapStack,
    spec: SkeletonSpec,
    gate_fraction: float = DEFAULT_GATE_FRACTION,
) -> list[Pose]:
    """Assemble candidates into skeletons anchored at root candidates.

    A pairing is kept when its penalty is within ``gate_fraction`` times
    the diagonal of the maps, and ``gate_fraction`` must be positive.
    Returns, as poses ready for :meth:`keytrack.KeySortTracker.step`, only
    skeletons that kept the root plus at least one dominant connection;
    a category left unmatched is absent from the pose's ``coords``.
    Training-only connections are never used.
    """
    if not gate_fraction > 0:
        raise ValueError(f"gate_fraction must be positive, got {gate_fraction}")
    gate = gate_fraction * math.hypot(maps.width, maps.height)

    by_category: dict[str, list[CandidateKeypoint]] = {c: [] for c in spec.categories}
    for cand in candidates:
        if cand.category not in by_category:
            raise ValueError(f"candidate category {cand.category!r} not in skeleton")
        by_category[cand.category].append(cand)

    def attach(pair: Pair, holders: list[dict[str, XY]]) -> list[int]:
        """Match the child candidates of ``pair`` to the ``holders`` of its
        parent; returns the indices of the holders that got one."""
        children = by_category[pair[1]]
        if not holders or not children:
            return []
        matrix = association_penalty(
            [s[pair[0]] for s in holders], [c.xy for c in children], maps, pair
        )
        matches = greedy_assign(matrix, gate=gate)
        for i, j in matches:
            holders[i][pair[1]] = children[j].xy
        return [i for i, _ in matches]

    skeletons = [{spec.root: r.xy} for r in by_category[spec.root]]
    # stage 1: dominant connections, each an independent bipartite problem
    # over the full root pool
    matched = {i for pair in spec.dominant for i in attach(pair, skeletons)}
    survivors = [skeletons[i] for i in sorted(matched)]

    # stage 2: the remaining connections in tree order, so a parent is
    # attached before its children; unmatched candidates simply drop out
    for pair in spec.tree_order:
        if pair not in spec.dominant:
            attach(pair, [s for s in survivors if pair[0] in s])

    return [Pose(coords=coords) for coords in survivors]
