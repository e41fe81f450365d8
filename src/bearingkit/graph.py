"""Directed graphs, incidence matrices, and connectivity checks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on vertices 1..n with an ordered edge list.

    Edge order is significant: it fixes the row ordering of the incidence
    and rigidity matrices, which keeps every downstream report reproducible.
    Self-loops and duplicate directed edges are rejected; an edge and its
    reverse may coexist (that is how undirected graphs are encoded).
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got {self.n}")
        edges = tuple((int(i), int(j)) for i, j in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for k, (i, j) in enumerate(edges):
            if i == j:
                raise ValueError(f"edge {k} is a self-loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {k} ({i}, {j}) references a vertex outside 1..{self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate directed edge ({i}, {j})")
            seen.add((i, j))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def tails(self) -> np.ndarray:
        """0-based tail vertex of each edge, in edge order (read-only)."""
        return _vertex_indices(i for i, _ in self.edges)

    @cached_property
    def heads(self) -> np.ndarray:
        """0-based head vertex of each edge, in edge order (read-only)."""
        return _vertex_indices(j for _, j in self.edges)

    @property
    def is_undirected(self) -> bool:
        """True when every edge appears together with its reverse."""
        edge_set = set(self.edges)
        return all((j, i) in edge_set for i, j in self.edges)


def _vertex_indices(vertices) -> np.ndarray:
    out = np.fromiter(vertices, dtype=np.intp) - 1
    out.flags.writeable = False
    return out


def incidence_matrix(g: DirectedGraph) -> np.ndarray:
    """m-by-n incidence matrix: row k has -1 at the tail and +1 at the head.

    The sign convention makes stacked edge vectors equal to the expanded
    incidence matrix applied to stacked positions.
    """
    H = np.zeros((g.m, g.n))
    for k, (i, j) in enumerate(g.edges):
        H[k, i - 1] = -1.0
        H[k, j - 1] = 1.0
    return H


def expanded_incidence(g: DirectedGraph, d: int) -> np.ndarray:
    """Kronecker product of the incidence matrix with the d-by-d identity."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return np.kron(incidence_matrix(g), np.eye(d))


def is_weakly_connected(g: DirectedGraph) -> bool:
    """True when the underlying undirected graph is connected."""
    adjacency: list[list[int]] = [[] for _ in range(g.n + 1)]
    for i, j in g.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {1}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n
