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
edges: O(n E) work in n array passes, no per-edge Python loop.  One table
holds R weight rows (``mean_cycles``), so the two ends of L_g and every
direction of a rotation set cost n passes together; the witness cycle is
read back from the table, with no parent table kept while it is filled.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "strong_components",
    "is_strongly_connected",
    "closed_classes",
    "mean_cycles",
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


def mean_cycles(adj: np.ndarray, weights) -> list[tuple[float, list[int]]]:
    """Minimum mean-weight cycle of a strongly connected graph under each of
    R weight tables (Karp 1978), from one table for all of them.

    ``weights[r][i, j]`` is read wherever ``adj[i, j] == 1``.  Returns one
    (mean, witness cycle) per table, the cycle as a vertex list (no repeated
    endpoint).  The mean is recomputed from the witness edges, so value and
    witness agree exactly.

    Karp's table D_k(v), the least weight of a k-edge walk ending at v, is
    filled for every table at once over the edge list sorted by (target,
    source), one ``np.minimum.reduceat`` per step.  Any cycle on the optimal
    length-n walk is a minimum-mean cycle, so the witness is extracted by
    walking back from the arg-min vertex until a vertex repeats; the parent
    of v at step k is the lowest source of an in-edge that attains D_k(v).
    A table holds (n + 1) R n floats; more tables than fit
    ``sft.ENUMERATION_BUDGET`` that way (and at least two) are split.
    """
    from .sft import ENUMERATION_BUDGET  # sft imports this module

    n = adj.shape[0]
    if n == 0:
        raise DomainError("empty graph has no cycles", name="degenerate")
    A = np.asarray(adj) != 0
    if not A.any(axis=1).all():
        raise DomainError("graph has a vertex with no successor", name="degenerate")
    if not A.any(axis=0).all():  # reduceat cannot hold an empty group
        raise DomainError("graph has a vertex with no predecessor", name="degenerate")
    tgt, src = np.nonzero(A.T)
    starts = np.searchsorted(tgt, np.arange(n + 1))
    rows = max(2, ENUMERATION_BUDGET // ((n + 1) * n))
    tables = np.asarray(weights, dtype=float)
    out = []
    for first in range(0, len(tables), rows):
        chunk = tables[first : first + rows]
        w = chunk[:, src, tgt]
        # D[k, r, v]: min weight of a k-edge walk from the super-source to v
        # under table r.  Every vertex has a predecessor, so every entry is
        # finite.
        D = np.empty((n + 1, len(chunk), n))
        D[0] = 0.0  # all vertices as sources (graph is strongly connected)
        for k in range(1, n + 1):
            D[k] = np.minimum.reduceat(D[k - 1][:, src] + w, starts[:n], axis=1)
        # Karp: lambda* = min_v max_k (D_n(v) - D_k(v)) / (n - k).
        worst = ((D[n] - D[:n]) / (n - np.arange(n))[:, None, None]).max(axis=0)
        for r, weight in enumerate(chunk):
            # Walk the length-n optimal path backwards until a vertex
            # repeats; its n + 1 vertices cannot all differ.
            v = int(worst[r].argmin())
            path, seen = [v], {v: 0}
            for k in range(n, 0, -1):
                lo, hi = starts[v], starts[v + 1]  # the in-edges of v
                v = int(src[lo + (D[k - 1, r, src[lo:hi]] + w[r, lo:hi] == D[k, r, v]).argmax()])
                if v in seen:
                    cycle = path[seen[v] :][::-1]
                    break
                seen[v] = len(path)
                path.append(v)
            out.append((float(weight[cycle, np.roll(cycle, -1)].sum()) / len(cycle), cycle))
    return out


def min_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Minimum mean-weight cycle of a strongly connected graph: the one-table
    :func:`mean_cycles`."""
    return mean_cycles(adj, [weight])[0]


def max_mean_cycle(adj: np.ndarray, weight: np.ndarray) -> tuple[float, list[int]]:
    """Maximum mean-weight cycle; see :func:`min_mean_cycle`."""
    val, cyc = mean_cycles(adj, [-np.asarray(weight, dtype=float)])[0]
    return -val, cyc
