"""Directed-graph plumbing: connectivity, closed classes, mean cycles.

Graphs are dense 0/1 numpy adjacency matrices throughout; vertex count is
desk-scale (recoded block graphs), so dense is fine and keeps indexing dumb.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DomainError

__all__ = [
    "strong_components",
    "is_strongly_connected",
    "closed_classes",
    "min_mean_cycle",
    "max_mean_cycle",
]


def strong_components(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """Strongly connected components of a 0/1 adjacency matrix.

    Returns (number of components, label per vertex).
    """
    n, labels = connected_components(csr_matrix(adj), directed=True, connection="strong")
    return n, labels


def is_strongly_connected(adj: np.ndarray) -> bool:
    if adj.shape[0] == 0:
        return False
    n, _ = strong_components(adj)
    return n == 1


def closed_classes(adj: np.ndarray) -> list[np.ndarray]:
    """Closed communicating classes: SCCs with no edge leaving the class."""
    _, labels = strong_components(adj)
    out = []
    for c in np.unique(labels):
        inside = labels == c
        if not adj[np.ix_(inside, ~inside)].any():
            out.append(np.flatnonzero(inside))
    return out


def min_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Minimum mean-weight cycle of a strongly connected graph (Karp).

    ``weight[i, j]`` is read wherever ``adj[i, j] == 1``.  Returns the mean
    and a witness cycle as a vertex list (no repeated endpoint).  The mean is
    recomputed from the witness edges, so value and witness agree exactly.

    Any cycle on the optimal length-n walk of the Karp table is a
    minimum-mean cycle, so the witness is extracted by walking parents back
    from the arg-min vertex until a vertex repeats.
    """
    n = adj.shape[0]
    if n == 0:
        raise DomainError("empty graph has no cycles", name="degenerate")
    succ = [np.flatnonzero(adj[u]) for u in range(n)]
    if any(len(s) == 0 for s in succ):
        raise DomainError("graph has a vertex with no successor", name="degenerate")

    INF = np.inf
    # D[k][v]: min weight of a k-edge walk from the super-source to v.
    D = np.full((n + 1, n), INF)
    D[0, :] = 0.0  # all vertices as sources (graph is strongly connected)
    parent = np.full((n + 1, n), -1, dtype=int)
    for k in range(1, n + 1):
        for u in range(n):
            du = D[k - 1, u]
            if du == INF:
                continue
            for v in succ[u]:
                c = du + weight[u, v]
                if c < D[k, v]:
                    D[k, v] = c
                    parent[k, v] = u

    best_val = INF
    best_v = -1
    for v in range(n):
        if D[n, v] == INF:
            continue
        worst = -INF
        for k in range(n):
            if D[k, v] == INF:
                continue
            worst = max(worst, (D[n, v] - D[k, v]) / (n - k))
        if worst < best_val:
            best_val = worst
            best_v = v

    # Walk the length-n optimal path backwards until a vertex repeats.
    path = [best_v]
    k = n
    seen = {best_v: 0}
    while k > 0:
        u = int(parent[k, path[-1]])
        path.append(u)
        k -= 1
        if u in seen:
            break
        seen[u] = len(path) - 1
    cycle = path[seen[path[-1]] : -1][::-1] if path[-1] in seen else None
    if not cycle:  # pragma: no cover - length-n walk always repeats a vertex
        raise DomainError("cycle extraction failed", name="degenerate")
    total = sum(weight[cycle[i], cycle[(i + 1) % len(cycle)]] for i in range(len(cycle)))
    return total / len(cycle), cycle


def max_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Maximum mean-weight cycle; see :func:`min_mean_cycle`."""
    val, cyc = min_mean_cycle(adj, -np.asarray(weight, dtype=float))
    return -val, cyc
