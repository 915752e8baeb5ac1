"""Suspension flows over shifts of finite type with locally constant roofs.

A suspension system is a base SFT together with a strictly positive roof
function.  Invariant measures of the flow correspond to invariant measures
of the base, with time rescaled by the roof integral: entropy transforms by
Abramov's formula and observables by the ratio of base integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .measures import InvariantMeasure
from .sft import LocallyConstantFunction, Sft, _word_levels, admissible_words, topological_entropy
from .thermo import pressure

__all__ = [
    "SuspensionSystem",
    "abramov_entropy",
    "flow_integral",
    "flow_top_entropy",
    "d_star_flow",
    "flow_mixture_weights",
]


@dataclass(frozen=True)
class SuspensionSystem:
    """Base SFT plus a strictly positive locally constant roof."""

    base: Sft
    roof: LocallyConstantFunction

    def __post_init__(self):
        if self.roof.sft != self.base:
            raise DomainError("roof is defined over a different SFT", name="roof")
        if self.roof.bounds()[0] <= 0.0:
            raise DomainError("roof must be strictly positive", name="roof")

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "roof": self.roof.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "SuspensionSystem":
        base = Sft.from_json(data["base"])
        roof = LocallyConstantFunction.from_json(base, data["roof"])
        return cls(base, roof)


def abramov_entropy(system: SuspensionSystem, mu: InvariantMeasure) -> float:
    """Entropy of the lifted flow measure: h(mu) / integral of the roof."""
    return mu.entropy() / mu.integrate(system.roof)


def flow_integral(system: SuspensionSystem, mu: InvariantMeasure, phi: LocallyConstantFunction) -> float:
    """Time average of phi along the flow: integral phi / integral roof."""
    return mu.integrate(phi) / mu.integrate(system.roof)


def flow_top_entropy(system: SuspensionSystem, tol: float = 1e-12) -> float:
    """Topological entropy of the flow: the root s* of P(-s * roof) = 0.

    P(-s*roof) is strictly decreasing with slope at most -min(roof), and the
    root lies in [h_top/max(roof), h_top/min(roof)], so bisection-grade
    bracketing is exact.
    """
    h = topological_entropy(system.base, tol=tol)
    rmin, rmax = system.roof.bounds()
    lo, hi = h / rmax, h / rmin
    if hi - lo < 1e-15:
        return lo

    def f(s: float) -> float:
        return pressure(system.base, -s * system.roof, tol=tol).value

    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:  # root sits on the bracket edge up to roundoff
        return lo
    if fhi >= 0.0:
        return hi
    return float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))


def d_star_flow(system: SuspensionSystem, mu: InvariantMeasure, nu: InvariantMeasure, N: int = 10) -> float:
    """Cylinder distance between the lifted flow measures.

    Each base cylinder [w] carries flow weight mu[w]*roof(w)/integral(roof);
    the sum runs from n = memory(roof), the first depth at which the roof is
    constant on cylinders.
    """
    roof = system.roof
    zmu = mu.integrate(roof)
    znu = nu.integrate(roof)
    a, b = mu.cylinder_tables(N), nu.cylinder_tables(N)
    levels = _word_levels(system.base, N)
    total = 0.0
    for n in range(roof.memory, N + 1):
        r = roof.values(admissible_words(system.base, n)) if n == roof.memory else r[levels[n][0]]
        total += float(np.abs(a[n] * r / zmu - b[n] * r / znu).max()) / 2.0**n
    return total


def flow_mixture_weights(system: SuspensionSystem, measures, thetas) -> list:
    """Base-mixture weights reweighted by roof integrals for the flow lift.

    The lift of sum(theta_i mu_i) equals the flow mixture with weights
    theta_i * integral(roof, mu_i) / sum_j theta_j * integral(roof, mu_j).
    """
    zs = [mu.integrate(system.roof) for mu in measures]
    raw = [t * z for t, z in zip(thetas, zs)]
    s = sum(raw)
    if s <= 0.0:
        raise DomainError("mixture has zero total roof mass", name="roof")
    return [r / s for r in raw]
