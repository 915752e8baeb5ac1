"""Topological pressure and equilibrium states for locally constant potentials.

This is the pressure and equilibrium layer under ``spectrum`` and
``witness``.  ``_EdgeModel`` recodes once so that every potential in play is
an exact edge function; ``_equilibrium`` turns a weighted edge matrix into
its Perron data (from ``sft._perron_right``, the one Perron solver) and the
equilibrium chain Q, its stationary vector, the edge means and the entropy.
Pressure is the log of the certified Perron root, so the variational
identity P = h + integral is available as an exact check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graphs import max_mean_cycle, min_mean_cycle
from .measures import InvariantMeasure, MarkovComponent, stationary
from .sft import LocallyConstantFunction, Sft, _perron_right, block_recode, is_irreducible

__all__ = ["PressureResult", "pressure", "verify_equilibrium"]


@dataclass
class PressureResult:
    """Pressure value with its equilibrium chain and Perron data.

    ``left``/``right`` are the Perron vectors of the weighted matrix on the
    recoded graph whose words are listed in ``states`` (the equilibrium
    component's state list); ``root`` is the Perron root lambda with
    P = log(lambda).
    """

    value: float
    equilibrium: MarkovComponent
    root: float
    left: np.ndarray
    right: np.ndarray

    def gap(self, mu: InvariantMeasure, g: LocallyConstantFunction) -> float:
        return self.value - (mu.entropy() + mu.integrate(g))


@dataclass
class _Solve:
    """Equilibrium data of one weighted edge matrix."""

    P: float
    Q: np.ndarray
    pi: np.ndarray
    means: tuple
    entropy: float
    right: np.ndarray


def _equilibrium(W: np.ndarray, mask: np.ndarray, edges, offset: float = 0.0, tol: float = 1e-12, rng=None) -> _Solve:
    """Equilibrium chain of the nonnegative weight matrix W on the edges ``mask``.

    Q(w,w') = W_{w,w'} r(w') / (lambda r(w)) with r the Perron right
    vector; ``means`` are the stationary flux averages of the edge tables in
    ``edges``, ``entropy`` the chain's entropy rate, and P = offset +
    log(lambda).
    """
    lam, right = _perron_right(W, tol=tol, rng=rng)
    Q = W * right[None, :] / (lam * right[:, None])
    Q[~mask] = 0.0
    Q /= Q.sum(axis=1, keepdims=True)  # absorb the O(tol) Perron residue
    pi = stationary(Q)
    flux = pi[:, None] * Q
    means = tuple(float((flux * E).sum()) for E in edges)
    with np.errstate(divide="ignore"):
        logQ = np.where(Q > 0, np.log(np.where(Q > 0, Q, 1.0)), 0.0)
    entropy = float(-(flux * logQ).sum())
    return _Solve(P=offset + float(np.log(lam)), Q=Q, pi=pi, means=means, entropy=entropy, right=right)


class _EdgeModel:
    """Several locally constant functions realized as exact edge weights.

    Recodes once at memory max(1, max_memory - 1); each function is then a
    function of the recoded edge, so any linear combination is an edge
    potential and both spectral (pressure/equilibrium) and combinatorial
    (mean-weight cycle) computations are exact on this one graph.
    """

    def __init__(self, sft: Sft, funcs, min_memory: int = 1):
        if not is_irreducible(sft):
            raise DomainError("pressure and spectra need an irreducible SFT", name="reducible")
        self.sft = sft
        self.funcs = list(funcs)
        memory = max(f.memory for f in self.funcs)
        self.rec = block_recode(sft, max(1, min_memory, memory - 1))
        A = self.rec.sft.A
        self.mask = A > 0
        self.edges = [np.zeros_like(A, dtype=float) for _ in self.funcs]
        for i in range(A.shape[0]):
            for j in np.flatnonzero(A[i]):
                w = self.rec.edge_word(i, int(j))
                for E, f in zip(self.edges, self.funcs):
                    E[i, j] = f(w)

    def _combined(self, coeffs) -> np.ndarray:
        E = np.zeros_like(self.edges[0])
        for c, Ek in zip(coeffs, self.edges):
            if c != 0.0:
                E = E + c * Ek
        return E

    def weights(self, coeffs) -> tuple[np.ndarray, float]:
        """(W, offset): W = e^(E - offset) on edges, offset = max E, so the
        exponentials never overflow and log lambda(e^E) = offset + log lambda(W)."""
        E = self._combined(coeffs)
        offset = float(E[self.mask].max())
        return np.where(self.mask, np.exp(np.maximum(E - offset, -700.0)), 0.0), offset

    def solve(self, coeffs, tol: float = 1e-12) -> _Solve:
        """Equilibrium of the potential sum(coeffs[k] * funcs[k])."""
        W, offset = self.weights(coeffs)
        return _equilibrium(W, self.mask, self.edges, offset, tol=tol)

    def component(self, sol: _Solve) -> MarkovComponent:
        return MarkovComponent(self.sft, self.rec.m, self.rec.words, sol.Q, sol.pi)

    def max_cycle(self, coeffs):
        """(value, recoded cycle) of the maximum mean-weight cycle."""
        return max_mean_cycle(self.rec.sft.A, self._combined(coeffs))

    def min_cycle(self, coeffs):
        return min_mean_cycle(self.rec.sft.A, self._combined(coeffs))

    def cycle_sums(self, cycle, which) -> float:
        """Sum of edge weights of funcs[which] along a recoded cycle."""
        E = self.edges[which]
        n = len(cycle)
        return float(sum(E[cycle[i], cycle[(i + 1) % n]] for i in range(n)))

    def project(self, cycle) -> tuple:
        return self.rec.project_cycle(cycle)


def pressure(sft: Sft, g: LocallyConstantFunction, tol: float = 1e-12, rng=None) -> PressureResult:
    """Topological pressure P(g) = log Perron root of the g-weighted matrix.

    The equilibrium chain is Q(w,w') = B_{w,w'} r(w') / (lambda r(w)) with
    stationary distribution proportional to l*r; it is ergodic and attains
    the variational identity h + integral g = P.
    """
    model = _EdgeModel(sft, [g])
    W, offset = model.weights((1.0,))
    sol = _equilibrium(W, model.mask, model.edges, offset, tol=tol, rng=rng)
    _, left = _perron_right(W.T, tol=tol, rng=rng)
    return PressureResult(
        value=sol.P, equilibrium=model.component(sol), root=float(np.exp(sol.P)), left=left, right=sol.right
    )


def verify_equilibrium(sft: Sft, g: LocallyConstantFunction, mu: InvariantMeasure, tol: float = 1e-12) -> float:
    """Variational gap P(g) - (h_mu + integral g dmu); >= 0 up to roundoff."""
    return pressure(sft, g, tol=tol).gap(mu, g)
