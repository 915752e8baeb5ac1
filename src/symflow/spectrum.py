"""Birkhoff spectra via Legendre duality.

The conditional entropy spectrum H(alpha) = sup{h(mu) : integral g = alpha}
is computed by tilting: solve mean(beta) = alpha where mean(beta) is the
g-average of the equilibrium state of beta*g, then H = P(beta*g) - beta*alpha.
The same machinery, with two observables or with a roof function in the
linear combination, gives the two-dimensional spectrum and the suspension
flow spectrum.

All solvers share ``thermo._EdgeModel``: one block recoding on which every
potential in play is an exact edge function, so tilted pressures, means and
mean-weight cycles come from a single weighted graph, and every tilted
equilibrium comes from the certified Perron solve in ``thermo``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .measures import MarkovComponent
from .sft import LocallyConstantFunction, Sft
from .thermo import _covariance, _EdgeModel

__all__ = [
    "BirkhoffRange",
    "SpectrumResult",
    "RotationSet",
    "birkhoff_range",
    "conditional_entropy_spectrum",
    "rotation_set_2d",
    "conditional_entropy_spectrum_2d",
    "FlowRatioRange",
    "flow_ratio_range",
    "flow_conditional_spectrum",
]

_BETA_CAP = 2.0**40


@dataclass
class BirkhoffRange:
    """Extreme Birkhoff means of g with periodic witness words."""

    lo: float
    hi: float
    argmin: tuple
    argmax: tuple


@dataclass
class SpectrumResult:
    """One point of a conditional entropy spectrum.

    ``entropy`` is H(alpha); ``beta`` the dual tilt (scalar or pair);
    ``s`` the flow entropy level for suspension queries, None otherwise.
    """

    alpha: object
    entropy: float
    beta: object
    witness: MarkovComponent
    status: str = "interior"
    s: float | None = None


def birkhoff_range(sft: Sft, g: LocallyConstantFunction) -> BirkhoffRange:
    """Extreme Birkhoff means of g, attained on periodic orbits.

    The set of Birkhoff means is the interval between the minimum and
    maximum mean-weight cycles of g on the edge-recoded graph; the witness
    words are the projected cycles.
    """
    model = _EdgeModel(sft, [g])
    lo, cyc_lo = model.min_cycle((1.0,))
    hi, cyc_hi = model.max_cycle((1.0,))
    return BirkhoffRange(lo=lo, hi=hi, argmin=model.project(cyc_lo), argmax=model.project(cyc_hi))


def _edge_tol(lo: float, hi: float) -> float:
    return 1e-9 * max(1.0, abs(lo), abs(hi))


def _expand_bracket(f, lo=-1.0, hi=1.0):
    """Grow [lo, hi] geometrically until f changes sign; f monotone up."""
    flo, fhi = f(lo), f(hi)
    while flo > 0.0:
        if lo < -_BETA_CAP:
            raise DomainError("tilt parameter diverged", name="iteration_cap")
        hi, fhi = lo, flo
        lo *= 2.0
        flo = f(lo)
    while fhi < 0.0:
        if hi > _BETA_CAP:
            raise DomainError("tilt parameter diverged", name="iteration_cap")
        lo, flo = hi, fhi
        hi *= 2.0
        fhi = f(hi)
    return lo, hi


def conditional_entropy_spectrum(sft: Sft, g: LocallyConstantFunction, alpha: float, tol: float = 1e-10) -> SpectrumResult:
    """H(alpha) = sup{h(mu) : integral g dmu = alpha}, with dual witness.

    Solves mean(beta) = alpha (the mean of the beta*g equilibrium is
    nondecreasing in beta) and evaluates H = P(beta*g) - beta*alpha.  The
    witness is the equilibrium chain itself: ergodic, fully supported, and
    attaining the supremum.
    """
    model = _EdgeModel(sft, [g])
    lo, _ = model.min_cycle((1.0,))
    hi, _ = model.max_cycle((1.0,))
    if hi - lo <= 1e-12:
        raise DomainError("degenerate observable: L_g is a single point", name="degenerate")
    edge = _edge_tol(lo, hi)
    if alpha < lo - edge or alpha > hi + edge:
        raise DomainError(f"alpha outside L_g = [{lo:.12g}, {hi:.12g}]", name="outside_range")
    if alpha <= lo + edge or alpha >= hi - edge:
        raise DomainError("boundary: spectrum not computed", name="boundary")

    def f(beta: float) -> float:
        return model.solve((beta,)).means[0] - alpha

    blo, bhi = _expand_bracket(f)
    beta = float(brentq(f, blo, bhi, xtol=1e-13, rtol=8.9e-16, maxiter=300))
    sol = model.solve((beta,))
    if abs(sol.means[0] - alpha) > max(tol, 1e-9):
        raise DomainError("tilt solve missed the target mean", name="no_convergence")
    H = sol.P - beta * alpha
    return SpectrumResult(alpha=alpha, entropy=H, beta=beta, witness=model.component(sol))


@dataclass
class RotationSet:
    """Support-function scan of the joint Birkhoff mean set of (g, h).

    ``points`` are exact mean pairs of the maximizing cycles (inner
    approximation); ``support`` the support values in each direction (outer
    approximation).  ``rank`` is the affine rank of the point cloud.
    """

    directions: np.ndarray
    support: np.ndarray
    points: np.ndarray
    words: list
    hull: np.ndarray
    rank: int

    def classify(self, point, margin: float = 1e-6) -> str:
        p = np.asarray(point, dtype=float)
        scale = max(1.0, float(np.abs(self.support).max()))
        if np.any(self.directions @ p > self.support + 1e-10 * scale):
            return "exterior"
        if self.rank < 2:
            return "boundary"
        verts = self.hull
        n = len(verts)
        for i in range(n):
            v1, v2 = verts[i], verts[(i + 1) % n]
            e = v2 - v1
            ell = float(np.hypot(*e))
            if ell == 0.0:
                continue
            d = p - v1
            if float(e[0] * d[1] - e[1] * d[0]) < margin * ell:
                return "boundary"
        return "interior"


def rotation_set_2d(sft: Sft, g: LocallyConstantFunction, h: LocallyConstantFunction, directions: int = 64) -> RotationSet:
    """Scan the rotation set of (g, h) over evenly spaced directions.

    For each unit direction u the maximum mean-weight cycle of u.(g, h)
    yields both the support value and an extreme point (the cycle's exact
    mean pair), so the true set is sandwiched between the hull of ``points``
    and the intersection of the support half-planes.
    """
    return _rotation_set(_EdgeModel(sft, [g, h]), directions)


def _rotation_set(model: _EdgeModel, directions: int) -> RotationSet:
    thetas = 2.0 * np.pi * np.arange(directions) / directions
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    support = np.empty(directions)
    points = np.empty((directions, 2))
    words = []
    for j, u in enumerate(dirs):
        val, cyc = model.max_cycle((u[0], u[1]))
        L = len(cyc)
        pt = np.array([model.cycle_sums(cyc, 0) / L, model.cycle_sums(cyc, 1) / L])
        support[j] = val
        points[j] = pt
        words.append(model.project(cyc))
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * max(1.0, svals[0] if len(svals) else 1.0)))
    if rank >= 2:
        from scipy.spatial import ConvexHull

        hull = points[ConvexHull(points).vertices]
    elif rank == 1:
        d = centered[np.argmax(np.abs(centered).sum(axis=1))]
        t = centered @ d
        hull = points[[int(np.argmin(t)), int(np.argmax(t))]]
    else:
        hull = points[:1]
    return RotationSet(directions=dirs, support=support, points=points, words=words, hull=hull, rank=rank)


def conditional_entropy_spectrum_2d(
    sft: Sft,
    g: LocallyConstantFunction,
    h: LocallyConstantFunction,
    alpha,
    tol: float = 1e-9,
    directions: int = 64,
) -> SpectrumResult:
    """Joint spectrum H(alpha) = sup{h(mu) : (int g, int h) = alpha}.

    Requires alpha strictly interior to the rotation set (inner hull with
    1e-6 clearance).  Minimizes the strictly convex dual
    D(beta) = P(beta.(g, h)) - beta.alpha by Newton's method with Armijo
    backtracking: the gradient is the equilibrium means minus alpha, the
    Hessian their asymptotic covariance (``thermo._covariance``).  Stops once
    the means are within ``tol`` of alpha and raises ``no_convergence``
    otherwise.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2,):
        raise DomainError("alpha must be a pair", name="input")
    model = _EdgeModel(sft, [g, h])
    rset = _rotation_set(model, directions)
    cls = rset.classify(alpha)
    if cls == "exterior":
        raise DomainError("exterior: alpha outside the rotation set", name="exterior")
    if rset.rank < 2:
        raise DomainError("degenerate direction: rotation set has empty interior", name="degenerate")
    if cls == "boundary":
        raise DomainError("boundary: spectrum not computed", name="boundary")

    def dual(beta: np.ndarray):
        sol = model.solve((beta[0], beta[1]))
        return sol, sol.P - float(beta @ alpha)

    beta = np.zeros(2)
    sol, D = dual(beta)
    for _ in range(80):
        grad = np.array(sol.means) - alpha
        if np.abs(grad).max() <= tol:
            return SpectrumResult(alpha=tuple(alpha), entropy=D, beta=beta, witness=model.component(sol))
        try:
            step = np.linalg.solve(_covariance(sol, model.edges), -grad)
        except np.linalg.LinAlgError:  # the chain has gone deterministic
            break
        # move beta at most tenfold a step: along a nearly flat direction
        # the iterates walk out instead of jumping past the Perron solve's range
        step *= min(1.0, 10.0 * max(1.0, np.abs(beta).max()) / np.abs(step).max())
        # Armijo on D.  Each P is certified to 1e-12, so two values of D are
        # compared with that much slack.
        t = 1.0
        while t >= 1e-10:
            try:
                cand, D_cand = dual(beta + t * step)
            except DomainError:  # the Perron solve failed out there: shorten the step
                D_cand = np.inf
            if D_cand <= D + 1e-4 * t * float(grad @ step) + 2e-12:
                break
            t *= 0.5
        else:
            break
        beta, sol, D = beta + t * step, cand, D_cand
    raise DomainError("2d tilt solve did not converge", name="no_convergence")


@dataclass
class FlowRatioRange:
    """Extreme flow averages of phi (ratios of Birkhoff sums to roof sums)."""

    lo: float
    hi: float
    argmin: tuple
    argmax: tuple


def _dinkelbach(model: _EdgeModel, sign: float) -> tuple:
    """Exact extreme ratio sum(phi)/sum(rho) over cycles, by Dinkelbach.

    With sign=+1 iterates r <- ratio(argmax cycle of phi - r*rho), which is
    strictly increasing over the finite cycle set until it fixes at the
    maximum ratio; sign=-1 gives the minimum via the minimizing cycle.
    """
    extreme = model.max_cycle if sign > 0 else model.min_cycle
    _, cyc = extreme((1.0, 0.0))
    r = model.cycle_sums(cyc, 0) / model.cycle_sums(cyc, 1)
    best = (r, cyc)
    for _ in range(10000):
        _, cyc = extreme((1.0, -r))
        cand = model.cycle_sums(cyc, 0) / model.cycle_sums(cyc, 1)
        if sign * (cand - r) <= 1e-15 * max(1.0, abs(r)):
            return best
        r = cand
        best = (r, cyc)
    raise DomainError("ratio iteration did not terminate", name="iteration_cap")


def flow_ratio_range(system, phi: LocallyConstantFunction) -> FlowRatioRange:
    """Extreme time averages of phi under the suspension flow.

    Flow averages of invariant measures are ratios integral(phi)/integral(roof);
    the extremes are attained on periodic orbits and found exactly by
    Dinkelbach iteration on the mean-weight cycle problem.
    """
    model = _EdgeModel(system.base, [phi, system.roof])
    hi, cyc_hi = _dinkelbach(model, +1.0)
    lo, cyc_lo = _dinkelbach(model, -1.0)
    return FlowRatioRange(lo=lo, hi=hi, argmin=model.project(cyc_lo), argmax=model.project(cyc_hi))


def flow_conditional_spectrum(system, phi: LocallyConstantFunction, alpha: float, tol: float = 1e-9) -> SpectrumResult:
    """Flow spectrum: sup{h(nu)/int(rho) : flow average of phi = alpha}.

    Nested Legendre solve with q = phi - alpha*rho: the inner bracket-free
    root s(beta) of P(beta*q - s*rho) = 0 exists because pressure is
    strictly decreasing in s; the outer equation G(beta) = int q = 0 has a
    single sign change because s(beta) is convex with derivative
    int(q)/int(rho).  At the solution the level s* equals the witness's
    Abramov entropy and dominates every other constrained measure.
    """
    rho = system.roof
    rng = flow_ratio_range(system, phi)
    if rng.hi - rng.lo <= 1e-10:
        raise DomainError("degenerate direction: flow ratios are constant", name="degenerate")
    edge = _edge_tol(rng.lo, rng.hi)
    if alpha < rng.lo - edge or alpha > rng.hi + edge:
        raise DomainError(f"alpha outside L_g = [{rng.lo:.12g}, {rng.hi:.12g}]", name="outside_range")
    if alpha <= rng.lo + edge or alpha >= rng.hi - edge:
        raise DomainError("boundary: spectrum not computed", name="boundary")

    model = _EdgeModel(system.base, [phi, rho])
    rmin, rmax = rho.bounds()

    def s_of(beta: float) -> float:
        # potential beta*q - s*rho = beta*phi + (-beta*alpha - s)*rho
        def P(s: float) -> float:
            return model.solve((beta, -beta * alpha - s)).P

        p0 = P(0.0)
        if p0 == 0.0:
            return 0.0
        ends = sorted((p0 / rmax, p0 / rmin))
        lo = ends[0] - 1e-9 * max(1.0, abs(ends[0]))
        hi = ends[1] + 1e-9 * max(1.0, abs(ends[1]))
        return float(brentq(P, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=300))

    def G(beta: float) -> float:
        s = s_of(beta)
        sol = model.solve((beta, -beta * alpha - s))
        return sol.means[0] - alpha * sol.means[1]

    blo, bhi = _expand_bracket(G)
    beta = float(brentq(G, blo, bhi, xtol=1e-12, rtol=8.9e-16, maxiter=300))
    s_star = s_of(beta)
    sol = model.solve((beta, -beta * alpha - s_star))
    ratio = sol.means[0] / sol.means[1]
    if abs(ratio - alpha) > max(tol, 1e-8):
        raise DomainError("flow tilt solve missed the target ratio", name="no_convergence")
    return SpectrumResult(alpha=alpha, entropy=s_star, beta=beta, witness=model.component(sol), s=s_star)
