from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from symflow.errors import DomainError
from symflow.graphs import (
    closed_classes,
    is_strongly_connected,
    max_mean_cycle,
    min_mean_cycle,
    strong_components,
)


def brute_force_mean_cycles(adj, weight):
    """Extreme cycle means by enumerating all simple cycles (tiny graphs)."""
    n = adj.shape[0]
    means = []
    for length in range(1, n + 1):
        for nodes in permutations(range(n), length):
            edges = [(nodes[i], nodes[(i + 1) % length]) for i in range(length)]
            if all(adj[u, v] for u, v in edges):
                means.append(sum(weight[u, v] for u, v in edges) / length)
    return (min(means), max(means)) if means else (None, None)


def test_strong_components_and_connectivity():
    adj = np.array([[1, 1], [0, 1]], dtype=np.int8)
    n, labels = strong_components(adj)
    assert n == 2
    assert not is_strongly_connected(adj)
    assert is_strongly_connected(np.array([[0, 1], [1, 0]], dtype=np.int8))
    assert not is_strongly_connected(np.zeros((0, 0), dtype=np.int8))


def test_closed_classes():
    # 0 -> 1 -> 2 with a loop on 2 and a loop on 1: only {2} is closed.
    adj = np.array([[0, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int8)
    classes = closed_classes(adj)
    assert [list(c) for c in classes] == [[2]]


def test_strong_components_match_csgraph_on_random_graphs():
    # scipy's sparse strong-components pass is the reference partition.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 71))
        adj = (rng.random((n, n)) < rng.uniform(0.0, 0.5)).astype(np.int8)
        adj[rng.random(n) < 0.2] = 0  # some vertices without successors
        count, labels = strong_components(adj)
        ref_count, ref_labels = connected_components(csr_matrix(adj), directed=True, connection="strong")
        assert count == ref_count
        assert labels.shape == (n,)
        # Same partition up to renaming: the label pairs form a bijection.
        assert len(set(zip(labels.tolist(), ref_labels.tolist()))) == count
        # Labels are numbered by each component's smallest vertex.
        firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
        assert firsts == sorted(firsts)
        assert is_strongly_connected(adj) == (n > 0 and ref_count == 1)
        ref_closed = []
        for c in range(ref_count):
            inside = ref_labels == c
            if not adj[np.ix_(inside, ~inside)].any():
                ref_closed.append(np.flatnonzero(inside).tolist())
        assert [c.tolist() for c in closed_classes(adj)] == sorted(ref_closed)


def test_mean_cycle_on_known_graph():
    # Two loops with weights 0 and 1 plus connecting edges.
    adj = np.array([[1, 1], [1, 1]], dtype=np.int8)
    weight = np.array([[0.0, 5.0], [5.0, 1.0]])
    lo, cyc_lo = min_mean_cycle(adj, weight)
    hi, cyc_hi = max_mean_cycle(adj, weight)
    assert lo == 0.0 and cyc_lo == [0]
    assert hi == 5.0 and sorted(cyc_hi) == [0, 1]


def test_mean_cycle_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(5)
    done = 0
    while done < 40:
        n = int(rng.integers(2, 6))
        adj = (rng.random((n, n)) < 0.6).astype(np.int8)
        if not is_strongly_connected(adj) or (adj.sum(axis=1) == 0).any():
            continue
        weight = np.round(rng.uniform(-3, 3, size=(n, n)), 3)
        ref_lo, ref_hi = brute_force_mean_cycles(adj, weight)
        lo, cyc_lo = min_mean_cycle(adj, weight)
        hi, cyc_hi = max_mean_cycle(adj, weight)
        assert abs(lo - ref_lo) < 1e-12
        assert abs(hi - ref_hi) < 1e-12
        # Witness cycles achieve their reported means exactly.
        for val, cyc in ((lo, cyc_lo), (hi, cyc_hi)):
            total = sum(weight[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc)))
            assert abs(total / len(cyc) - val) < 1e-12
            for i in range(len(cyc)):
                assert adj[cyc[i], cyc[(i + 1) % len(cyc)]]
        done += 1


def test_mean_cycle_rejects_dead_ends():
    adj = np.array([[0, 1], [0, 0]], dtype=np.int8)
    with pytest.raises(DomainError):
        min_mean_cycle(adj, np.zeros((2, 2)))
