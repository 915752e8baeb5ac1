from __future__ import annotations

import numpy as np
import pytest

from symflow.measures import InvariantMeasure, MarkovComponent
from symflow.sft import Sft


@pytest.fixture(scope="session")
def full2() -> Sft:
    return Sft(np.ones((2, 2), dtype=int))


@pytest.fixture(scope="session")
def golden() -> Sft:
    return Sft([[1, 1], [1, 0]])


def bernoulli_measure(sft: Sft, p) -> InvariantMeasure:
    """Memory-1 i.i.d. measure with symbol distribution p (full shifts only)."""
    p = np.asarray(p, dtype=float)
    Q = np.tile(p, (len(p), 1))
    states = [(a,) for a in range(sft.k)]
    return InvariantMeasure.single(MarkovComponent(sft, 1, states, Q))


def binary_entropy(a: float) -> float:
    if a <= 0.0 or a >= 1.0:
        return 0.0
    return float(-a * np.log(a) - (1 - a) * np.log(1 - a))


def sign_change_bracket(f) -> tuple[float, float]:
    """[lo, hi] with f(lo) <= 0 <= f(hi), for f nondecreasing: doubles out
    from [-1, 1] on the side f points to, up to a half-width of 2^40."""
    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        if max(-lo, hi) > 2.0**40:
            raise ValueError("no sign change within 2^40 of 0")
        lo, hi = 2.0 * lo, lo
    while f(hi) < 0.0:
        if max(-lo, hi) > 2.0**40:
            raise ValueError("no sign change within 2^40 of 0")
        lo, hi = hi, 2.0 * hi
    return lo, hi


def count_karp(monkeypatch):
    """Record the size of the graph once per weight row of every Karp table.

    ``thermo`` holds its own name for ``mean_cycles``, and ``min_mean_cycle``
    and ``max_mean_cycle`` call the one in ``graphs``, so both are patched."""
    from symflow import graphs, thermo

    calls, karp = [], graphs.mean_cycles

    def spy(adj, weights):
        calls.extend([len(adj)] * len(weights))
        return karp(adj, weights)

    monkeypatch.setattr(graphs, "mean_cycles", spy)
    monkeypatch.setattr(thermo, "mean_cycles", spy)
    return calls


def count_perron_steps(monkeypatch):
    """Record the size of the matrix at every Collatz-Wielandt bracket of a
    Perron solve (``sft._balanced``): one per inverse-iteration step, plus
    the bracket of each start."""
    from symflow import sft

    steps, balanced = [], sft._balanced

    def spy(B, r):
        steps.append(len(B))
        return balanced(B, r)

    monkeypatch.setattr(sft, "_balanced", spy)
    return steps


def count_models(monkeypatch):
    """Record the recoding memory of every ``_EdgeModel`` built."""
    from symflow import thermo

    memories, init = [], thermo._EdgeModel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memories.append(self.rec.m)

    monkeypatch.setattr(thermo._EdgeModel, "__init__", spy)
    return memories


def count_solves(monkeypatch):
    """Record the coefficient tuple of every equilibrium solve of an ``_EdgeModel``."""
    return spy_solves(monkeypatch)[0]


def spy_solves(monkeypatch):
    """(coeffs, sols): the coefficient tuple of every equilibrium solve of an
    ``_EdgeModel``, recorded as the solve starts, and the ``_Solve`` of every
    solve that returns."""
    from symflow import thermo

    solved, sols, last = [], [], []
    weights, equilibrium = thermo._EdgeModel.weights, thermo._equilibrium

    def spy_weights(self, coeffs):
        last.append(tuple(map(float, coeffs)))
        return weights(self, coeffs)

    def spy_equilibrium(*args, **kwargs):
        solved.append(last[-1])
        sol = equilibrium(*args, **kwargs)
        sols.append(sol)
        return sol

    monkeypatch.setattr(thermo._EdgeModel, "weights", spy_weights)
    monkeypatch.setattr(thermo, "_equilibrium", spy_equilibrium)
    return solved, sols


def count_checks(monkeypatch):
    """Record the check names of every ``witness._witness_checks`` run.

    ``cli`` holds its own name for the routine, so both are patched."""
    from symflow import cli, witness

    runs, checks = [], witness._witness_checks

    def spy(*args, **kwargs):
        out = checks(*args, **kwargs)
        runs.append([c["check"] for c in out])
        return out

    monkeypatch.setattr(witness, "_witness_checks", spy)
    monkeypatch.setattr(cli, "_witness_checks", spy)
    return runs


def spy_tilts(monkeypatch):
    """Record every tilt of ``witness._tilt`` as a dict: the beta0 it started
    from, whether it tilted a chain, the beta it returned and the level
    h + integral u it reached (``witness._level``)."""
    from symflow import witness

    tilts, tilt = [], witness._tilt

    def spy(model, alpha, beta0=None, **kwargs):
        beta, sol = tilt(model, alpha, beta0, **kwargs)
        chain = kwargs.get("chain") is not None
        tilts.append({"beta0": beta0, "chain": chain, "beta": beta, "level": witness._level(sol)})
        return beta, sol

    monkeypatch.setattr(witness, "_tilt", spy)
    return tilts
