from __future__ import annotations

from itertools import permutations

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from symflow.errors import DomainError
from symflow.graphs import (
    closed_classes,
    is_strongly_connected,
    max_mean_cycle,
    mean_cycles,
    min_mean_cycle,
    strong_components,
)
from symflow.sft import LocallyConstantFunction, Sft, admissible_words
from symflow.spectrum import _rotation_set
from symflow.thermo import _EdgeModel


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


def test_mean_cycle_rejects_a_vertex_without_predecessor():
    # Vertex 1 has a successor but no predecessor: the same error as a dead end.
    for adj in ([[0, 1], [0, 0]], [[1, 0], [1, 0]]):
        with pytest.raises(DomainError) as err:
            min_mean_cycle(np.array(adj, dtype=np.int8), np.zeros((2, 2)))
        assert err.value.name == "degenerate"


def test_mean_cycle_matches_simple_cycles_with_ties():
    # Integer weights make many cycles tie; the witness must still be a cycle
    # of adj whose mean is exactly the value returned.
    rng = np.random.default_rng(8)
    done = 0
    while done < 150:
        n = int(rng.integers(1, 10))
        adj = (rng.random((n, n)) < rng.uniform(0.15, 0.7)).astype(np.int8)
        if not is_strongly_connected(adj) or not adj.any(axis=1).all():
            continue
        weight = rng.integers(-2, 3, size=(n, n)).astype(float)
        means = [
            sum(weight[c[i], c[(i + 1) % len(c)]] for i in range(len(c))) / len(c)
            for c in nx.simple_cycles(nx.DiGraph(adj))
        ]
        for (val, cyc), ref in ((min_mean_cycle(adj, weight), min(means)), (max_mean_cycle(adj, weight), max(means))):
            assert abs(val - ref) < 1e-12
            assert len(set(cyc)) == len(cyc)
            assert all(adj[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc)))
            assert sum(weight[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc))) / len(cyc) == val
        done += 1


def test_mean_cycle_ties_go_to_the_lowest_source():
    # Every cycle of the complete graph has mean 0; the arg-min vertex and
    # each parent are the lowest that attain the minimum, so the witness is
    # the loop at vertex 0.
    adj = np.ones((3, 3), dtype=np.int8)
    assert min_mean_cycle(adj, np.zeros((3, 3))) == (0.0, [0])
    assert max_mean_cycle(adj, np.zeros((3, 3))) == (0.0, [0])


def _cycle_mean_lp(adj, weight, sign):
    """sign * extreme cycle mean as the LP over unit-mass circulations."""
    n = adj.shape[0]
    src, tgt = np.nonzero(adj)
    conservation = np.zeros((n + 1, len(src)))
    conservation[src, np.arange(len(src))] += 1.0
    conservation[tgt, np.arange(len(src))] -= 1.0
    conservation[n] = 1.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    res = linprog(-sign * weight[src, tgt], A_eq=conservation, b_eq=rhs, bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def test_mean_cycle_on_a_256_state_recoding():
    full2 = Sft(np.ones((2, 2), dtype=int))
    words = admissible_words(full2, 9)
    g = LocallyConstantFunction(full2, 9, dict(zip(words, np.random.default_rng(9).normal(size=len(words)))))
    model = _EdgeModel(full2, [g])
    adj, (weight,) = model.rec.sft.A, model.edges
    assert adj.shape == (256, 256)
    hi, cyc_hi = model.max_cycle((1.0,))
    lo, cyc_lo = model.min_cycle((1.0,))
    assert abs(hi - _cycle_mean_lp(adj, weight, 1.0)) < 1e-9
    assert abs(lo + _cycle_mean_lp(adj, weight, -1.0)) < 1e-9
    for val, cyc in ((hi, cyc_hi), (lo, cyc_lo)):
        assert model.cycle_sums(cyc, 0) / len(cyc) == val


def _strongly_connected_graphs(rng, count: int, most: int):
    """``count`` random strongly connected 0/1 matrices on 1..most vertices."""
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(1, most + 1))
        adj = (rng.random((n, n)) < rng.uniform(0.15, 0.7)).astype(np.int8)
        if is_strongly_connected(adj) and adj.any(axis=1).all():
            graphs.append(adj)
    return graphs


def test_mean_cycles_match_simple_cycles_with_ties():
    # Several integer tables, many tied cycles, one Karp table: each row's
    # mean is the least simple-cycle mean, and its witness a cycle of adj
    # whose mean is exactly that value.
    rng = np.random.default_rng(31)
    for adj in _strongly_connected_graphs(rng, 80, 8):
        n = len(adj)
        tables = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), n, n)).astype(float)
        cycles = list(nx.simple_cycles(nx.DiGraph(adj)))
        for weight, (val, cyc) in zip(tables, mean_cycles(adj, tables)):
            means = [sum(weight[c[i], c[(i + 1) % len(c)]] for i in range(len(c))) / len(c) for c in cycles]
            assert abs(val - min(means)) < 1e-12
            assert len(set(cyc)) == len(cyc)
            assert all(adj[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc)))
            assert sum(weight[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc))) / len(cyc) == val


def test_a_multi_row_table_equals_its_one_row_calls(monkeypatch):
    # The table of R rows runs the same float operations per row as R
    # one-row tables, so means and cycles agree exactly, also where the rows
    # are split to hold the table to the budget.
    from symflow import sft

    rng = np.random.default_rng(32)
    for i, adj in enumerate(_strongly_connected_graphs(rng, 60, 12)):
        n = len(adj)
        tables = rng.normal(size=(5, n, n)) if i % 2 else rng.integers(-2, 3, size=(5, n, n)).astype(float)
        rows = mean_cycles(adj, tables)
        assert rows == [min_mean_cycle(adj, w) for w in tables]
        assert [(-v, c) for v, c in mean_cycles(adj, -tables)] == [max_mean_cycle(adj, w) for w in tables]
        with monkeypatch.context() as m:
            m.setattr(sft, "ENUMERATION_BUDGET", 2 * (n + 1) * n)  # two rows a table
            assert mean_cycles(adj, tables) == rows
            m.setattr(sft, "ENUMERATION_BUDGET", 1)  # never fewer than two
            assert mean_cycles(adj, tables) == rows


def test_the_ends_of_l_g_are_the_one_row_calls():
    full2 = Sft(np.ones((2, 2), dtype=int))
    for memory in range(1, 8):
        words = admissible_words(full2, memory)
        for seed in range(3):
            vals = np.random.default_rng(seed).normal(size=len(words))
            g = LocallyConstantFunction(full2, memory, dict(zip(words, np.round(vals) if seed else vals)))
            model = _EdgeModel(full2, [g])
            assert model.ends == (*model.min_cycle((1.0,)), *model.max_cycle((1.0,)))


@pytest.mark.parametrize("memory", [1, 3, 6])
def test_rotation_set_from_one_table_equals_its_directions(memory):
    # Every direction's support value and cycle are those of its own
    # one-row max_cycle call.
    full2 = Sft(np.ones((2, 2), dtype=int))
    words = admissible_words(full2, memory)
    vals = np.random.default_rng(memory).normal(size=2 * len(words))
    g = LocallyConstantFunction(full2, memory, dict(zip(words, vals[: len(words)])))
    h = LocallyConstantFunction(full2, memory, dict(zip(words, vals[len(words) :])))
    model = _EdgeModel(full2, [g, h])
    rset = _rotation_set(model, 48)
    for u, support, point, word in zip(rset.directions, rset.support, rset.points, rset.words):
        val, cyc = model.max_cycle((u[0], u[1]))
        assert support == val and word == model.project(cyc)
        assert tuple(point) == (model.cycle_sums(cyc, 0) / len(cyc), model.cycle_sums(cyc, 1) / len(cyc))
