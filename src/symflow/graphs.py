"""Directed-graph plumbing: connectivity, closed classes, mean cycles.

Graphs are dense 0/1 numpy adjacency matrices throughout; the largest are
recoded block graphs of 64 states (a memory-7 table on the full 2-shift) to
256 (memory 9).

Strong components come from the dense boolean transitive closure (Warshall's
n vectorised passes), with no scipy.sparse graph round trip and no size
switch: its n passes over n^2 booleans cost no more than the n GTH
elimination passes that ``measures.stationary`` runs next on the closed
class.  Equilibrium chains that charge every edge of an irreducible recoding
skip the search (see ``thermo._equilibrium``).  Extreme cycle
means are Karp's table over the edge list, n segmented minima over the E
edges: O(n E) work in n array passes, no per-edge Python loop.
"""

from __future__ import annotations

import numpy as np

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

    Returns (number of components, label per vertex).  Labels are numbered
    in the order of each component's smallest vertex, so vertex 0 is in
    component 0.
    """
    n = adj.shape[0]
    if n == 0:
        return 0, np.zeros(0, dtype=np.intp)
    reach = np.array(adj, dtype=bool)
    reach.flat[:: n + 1] = True
    for k in range(n):
        reach |= reach[:, k, None] & reach[k]
    mutual = reach & reach.T
    # A component's label is the rank of its smallest vertex.
    first = mutual.argmax(axis=1)
    roots = np.flatnonzero(first == np.arange(n))
    return len(roots), roots.searchsorted(first)


def is_strongly_connected(adj: np.ndarray) -> bool:
    n, _ = strong_components(adj)
    return n == 1


def closed_classes(adj: np.ndarray) -> list[np.ndarray]:
    """Closed communicating classes: SCCs with no edge leaving the class.

    Listed in label order, i.e. by smallest vertex.
    """
    count, labels = strong_components(adj)
    leaving = np.array(adj, dtype=bool) & (labels[:, None] != labels)
    is_open = np.zeros(count, dtype=bool)
    is_open[labels[leaving.any(axis=1)]] = True
    return [np.flatnonzero(labels == c) for c in np.flatnonzero(~is_open)]


def min_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Minimum mean-weight cycle of a strongly connected graph (Karp 1978).

    ``weight[i, j]`` is read wherever ``adj[i, j] == 1``.  Returns the mean
    and a witness cycle as a vertex list (no repeated endpoint).  The mean is
    recomputed from the witness edges, so value and witness agree exactly.

    Karp's table D_k(v), the least weight of a k-edge walk ending at v, is
    filled over the edge list sorted by (target, source), one
    ``np.minimum.reduceat`` per step; a vertex's parent is the lowest source
    attaining its minimum.  Any cycle on the optimal length-n walk is a
    minimum-mean cycle, so the witness is extracted by walking parents back
    from the arg-min vertex until a vertex repeats.
    """
    n = adj.shape[0]
    if n == 0:
        raise DomainError("empty graph has no cycles", name="degenerate")
    A = np.asarray(adj) != 0
    if not A.any(axis=1).all():
        raise DomainError("graph has a vertex with no successor", name="degenerate")
    if not A.any(axis=0).all():  # reduceat cannot hold an empty group
        raise DomainError("graph has a vertex with no predecessor", name="degenerate")
    tgt, src = np.nonzero(A.T)
    w = np.asarray(weight, dtype=float)[src, tgt]
    starts = np.searchsorted(tgt, np.arange(n))

    # D[k][v]: min weight of a k-edge walk from the super-source to v.  Every
    # vertex has a predecessor, so every entry is finite.
    D = np.empty((n + 1, n))
    D[0] = 0.0  # all vertices as sources (graph is strongly connected)
    parent = np.empty((n + 1, n), dtype=np.intp)
    for k in range(1, n + 1):
        cand = D[k - 1, src] + w
        D[k] = np.minimum.reduceat(cand, starts)
        parent[k] = np.minimum.reduceat(np.where(cand == D[k, tgt], src, n), starts)

    # Karp: lambda* = min_v max_k (D_n(v) - D_k(v)) / (n - k).
    worst = ((D[n] - D[:n]) / (n - np.arange(n))[:, None]).max(axis=0)
    best_v = int(worst.argmin())

    # Walk the length-n optimal path backwards until a vertex repeats; its
    # n + 1 vertices cannot all differ.
    path, seen = [best_v], {best_v: 0}
    for k in range(n, 0, -1):
        u = int(parent[k, path[-1]])
        if u in seen:
            cycle = path[seen[u] :][::-1]
            break
        seen[u] = len(path)
        path.append(u)
    total = float(np.asarray(weight, dtype=float)[cycle, np.roll(cycle, -1)].sum())
    return total / len(cycle), cycle


def max_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Maximum mean-weight cycle; see :func:`min_mean_cycle`."""
    val, cyc = min_mean_cycle(adj, -np.asarray(weight, dtype=float))
    return -val, cyc
