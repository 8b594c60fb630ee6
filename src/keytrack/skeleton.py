"""Skeleton tree model: keypoint categories, connections, scale and proportions.

A skeleton is a tree of keypoint categories rooted at a designated root
category.  A small subset of connections is marked *dominant*; those carry
proportion weights (betas) and define the per-instance skeleton scale used
to size encoding kernels.  Connections flagged ``training_only`` may be
encoded into association maps but are never part of the tree structure and
are ignored during assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional

Pair = tuple[str, str]
XY = tuple[float, float]


def connection_name(pair: Pair) -> str:
    """Canonical string form of a connection, e.g. ``withers->head``."""
    return f"{pair[0]}->{pair[1]}"


def parse_connection_name(name: str) -> Pair:
    parent, sep, child = name.partition("->")
    if not sep or not parent or not child:
        raise ValueError(f"malformed connection name: {name!r}")
    return parent, child


@dataclass(frozen=True)
class Pose:
    """Keypoint coordinates of one animal instance in image coordinates.

    ``coords`` maps category name to an ``(x, y)`` pair or ``None`` when the
    keypoint is absent.  Categories missing from the mapping count as absent.
    """

    coords: Mapping[str, Optional[XY]]
    frame_index: int = 0

    def get(self, category: str) -> Optional[XY]:
        xy = self.coords.get(category)
        if xy is None:
            return None
        return (float(xy[0]), float(xy[1]))

    def present(self, category: str) -> bool:
        return self.coords.get(category) is not None

    def present_categories(self) -> list[str]:
        return [c for c, xy in self.coords.items() if xy is not None]


@dataclass(frozen=True)
class SkeletonSpec:
    """Declarative skeleton: categories, tree connections and proportions."""

    name: str
    categories: tuple[str, ...]
    root: str
    connections: tuple[Pair, ...]
    dominant: tuple[Pair, ...]
    betas: Mapping[Pair, float]
    reference: Pair
    training_only: frozenset[Pair] = frozenset()

    @cached_property
    def tree_connections(self) -> tuple[Pair, ...]:
        return tuple(c for c in self.connections if c not in self.training_only)

    @cached_property
    def parent_of(self) -> dict[str, str]:
        return {child: parent for parent, child in self.tree_connections}

    @cached_property
    def tree_order(self) -> tuple[Pair, ...]:
        """The one order every walk of the tree follows: the tree connections
        the root reaches, by the child's depth, then by declaration order."""
        order: list[Pair] = []
        reached, frontier = {self.root}, {self.root}
        while frontier:
            step = [p for p in self.tree_connections if p[0] in frontier and p[1] not in reached]
            frontier = {child for _, child in step}
            reached |= frontier
            order += step
        return tuple(order)

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Path length from the root, root itself at rank 0; categories the
        root does not reach are left out."""
        ranks = {self.root: 0}
        for parent, child in self.tree_order:
            ranks[child] = ranks[parent] + 1
        return ranks

    def validate(self) -> list[str]:
        """Return a list of structural violations; empty means well-formed."""
        problems: list[str] = []
        if len(set(self.categories)) != len(self.categories):
            problems.append("categories are not unique")
        if self.root not in self.categories:
            problems.append(f"root {self.root!r} is not a category")
        for parent, child in self.connections:
            for end in (parent, child):
                if end not in self.categories:
                    problems.append(
                        f"connection {connection_name((parent, child))} uses "
                        f"unknown category {end!r}"
                    )
        seen_children: set[str] = set()
        for parent, child in self.tree_connections:
            if child == self.root:
                problems.append("root has an incoming tree connection")
            if child in seen_children:
                problems.append(f"category {child!r} has more than one parent")
            seen_children.add(child)
        # every non-root category must be reachable from the root
        for cat in self.categories:
            if cat not in self.ranks:
                problems.append(f"category {cat!r} is not reachable from the root")
        for pair in self.dominant:
            if pair not in self.tree_connections:
                problems.append(
                    f"dominant connection {connection_name(pair)} is not a tree connection"
                )
            elif pair[0] != self.root:
                problems.append(
                    f"dominant connection {connection_name(pair)} is not first-order"
                )
        if self.reference not in self.dominant:
            problems.append("reference connection is not dominant")
        for pair in self.dominant:
            if pair not in self.betas:
                problems.append(f"missing beta for {connection_name(pair)}")
        for pair, beta in self.betas.items():
            if beta <= 0:
                problems.append(f"beta for {connection_name(pair)} is not positive")
        ref_beta = self.betas.get(self.reference)
        if ref_beta is not None and ref_beta != 1.0:
            problems.append("reference connection beta must be 1")
        return problems


def require_valid_spec(spec: SkeletonSpec) -> SkeletonSpec:
    problems = spec.validate()
    if problems:
        raise ValueError("invalid skeleton spec: " + "; ".join(problems))
    return spec


def connection_vector(pose: Pose, pair: Pair) -> Optional[XY]:
    """Vector from parent to child keypoint, ``None`` when either is absent."""
    a = pose.get(pair[0])
    b = pose.get(pair[1])
    if a is None or b is None:
        return None
    return (b[0] - a[0], b[1] - a[1])


def is_valid_pose(spec: SkeletonSpec, pose: Pose) -> bool:
    """Valid poses have the root and at least one dominant connection."""
    if not pose.present(spec.root):
        return False
    return any(connection_vector(pose, d) is not None for d in spec.dominant)


def skeleton_scale(spec: SkeletonSpec, pose: Pose) -> Optional[float]:
    """Beta-weighted mean length of the present dominant connections.

    Returns ``None`` when no dominant connection is present (invalid pose).
    """
    total = 0.0
    count = 0
    for pair in spec.dominant:
        u = connection_vector(pose, pair)
        if u is None:
            continue
        total += spec.betas[pair] * math.hypot(u[0], u[1])
        count += 1
    if count == 0:
        return None
    return total / count


def estimate_betas(
    poses: Iterable[Pose],
    spec: SkeletonSpec,
    reference: Optional[Pair] = None,
    symmetric_pairs: Iterable[tuple[Pair, Pair]] = (),
) -> dict[Pair, float]:
    """Estimate proportion weights from annotated poses.

    Each non-reference dominant connection d gets the no-intercept
    least-squares coefficient of ``|u_reference| = beta_d * |u_d|`` over the
    poses where both connections exist.  The reference connection itself is
    fixed at 1.  ``symmetric_pairs`` lists connection pairs (e.g. left/right
    hips) whose coefficients are replaced by their common mean.
    """
    if reference is None:
        reference = spec.reference
    if reference not in spec.dominant:
        raise ValueError(f"reference {connection_name(reference)} is not dominant")
    poses = list(poses)
    if not poses:
        raise ValueError("no annotated poses supplied")

    betas: dict[Pair, float] = {reference: 1.0}
    for pair in spec.dominant:
        if pair == reference:
            continue
        sum_xy = 0.0
        sum_xx = 0.0
        count = 0
        for pose in poses:
            u_d = connection_vector(pose, pair)
            u_ref = connection_vector(pose, reference)
            if u_d is None or u_ref is None:
                continue
            x = math.hypot(u_d[0], u_d[1])
            y = math.hypot(u_ref[0], u_ref[1])
            sum_xy += x * y
            sum_xx += x * x
            count += 1
        if count < 2:
            raise ValueError(
                f"insufficient co-occurring samples for {connection_name(pair)}"
            )
        if sum_xx == 0.0:
            raise ValueError(
                f"degenerate zero-length samples for {connection_name(pair)}"
            )
        betas[pair] = sum_xy / sum_xx

    for left, right in symmetric_pairs:
        if left in betas and right in betas:
            mean = 0.5 * (betas[left] + betas[right])
            betas[left] = mean
            betas[right] = mean
    return betas
