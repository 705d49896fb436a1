"""Follower network topology: Laplacian, components, leader mask.

Node indices are 1-based everywhere in this module, matching the on-disk
config format.  Matrices are built with integer arithmetic so structural
identities (zero row sums) hold exactly; promotion to floating point happens
where certificates are assembled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FollowerGraph:
    """Undirected follower graph plus the set of leader-connected nodes.

    ``edges`` holds the in-domain connections only; leader links are the
    separate ``leader_set``.  ``n`` may be 0 for leader-only diagnostics.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    leader_set: frozenset[int]


def _as_int(value, what: str) -> int:
    try:
        # a bool equals 0 or 1, but a flag is not a count or a node id
        exact = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        exact = None
    if exact is None or exact != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return exact


def _as_float(value, what: str):
    """A real number as a float, a real array as a float array, nested lists as lists of floats.

    Nothing is coerced: a bool (equal to 0 or 1), a string, any other
    non-number or an integer beyond the float range raises ValueError at
    any depth, naming the first bad entry.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":  # integer or float entries, none of them a bool
            return value.astype(float) if value.ndim else float(value)
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= {float}:  # a row of plain floats, checked in one pass
            return list(value)
        return [_as_float(v, f"{what}[{i}]") for i, v in enumerate(value)]
    real = isinstance(value, (int, float, np.integer, np.floating))
    if not real or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer beyond the float range") from None


def build_graph(n, edges, leader_set) -> FollowerGraph:
    """Validate and freeze a follower graph.

    Edges are unordered pairs of distinct nodes in 1..n; duplicates (in either
    orientation) and self-loops are rejected.  ``n`` and node ids must be
    integers (integral floats pass); anything else, booleans included,
    raises ValueError rather than being truncated, as does every other
    violation.  ``leader_set`` may be empty; per-component leader
    requirements are enforced by the gain-design stage, not here.
    """
    n = _as_int(n, "follower count")
    if n < 0:
        raise ValueError(f"follower count must be >= 0, got {n}")
    norm: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of nodes") from None
        i, j = _as_int(i, "edge node"), _as_int(j, "edge node")
        if i == j:
            raise ValueError(f"edge ({i},{j}) is a self-loop")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) outside 1..{n}")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise ValueError(f"edge {e} given more than once")
        seen.add(e)
        norm.append(e)
    leaders = frozenset(_as_int(v, "leader node") for v in leader_set)
    for v in leaders:
        if not (1 <= v <= n):
            raise ValueError(f"leader node {v} outside 1..{n}")
    return FollowerGraph(n=n, edges=tuple(sorted(norm)), leader_set=leaders)


def laplacian(g: FollowerGraph) -> np.ndarray:
    """Graph Laplacian: -1 at edges, node degree on the diagonal (int64)."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    i, j = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T - 1
    lap[i, j] = lap[j, i] = -1  # the edges are distinct pairs of distinct nodes
    lap[np.diag_indices(g.n)] = np.bincount(np.concatenate([i, j]), minlength=g.n)
    return lap


def connected_components(g: FollowerGraph) -> list[tuple[int, ...]]:
    """Partition 1..n by in-domain connectivity (leader links do not count).

    Components are returned sorted by their smallest node.
    """
    neighbours: list[list[int]] = [[] for _ in range(g.n + 1)]
    for (i, j) in g.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    seen: set[int] = set()
    components = []
    for start in range(1, g.n + 1):  # the first unseen node is its component's smallest
        if start in seen:
            continue
        seen.add(start)
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            fresh = [w for w in neighbours[v] if w not in seen]
            seen.update(fresh)
            stack += fresh
        components.append(tuple(sorted(members)))
    return components


def leader_mask(g: FollowerGraph) -> np.ndarray:
    """Diagonal 0/1 matrix selecting the leader-connected followers (int64)."""
    m = np.zeros((g.n, g.n), dtype=np.int64)
    v = np.array(list(g.leader_set), dtype=np.int64) - 1
    m[v, v] = 1
    return m
