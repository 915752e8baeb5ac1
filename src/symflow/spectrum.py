"""Birkhoff spectra via Legendre duality.

The conditional entropy spectrum H(alpha) = sup{h(mu) : integral g = alpha}
is computed by tilting: solve mean(beta) = alpha where mean(beta) is the
g-average of the equilibrium state of beta*g, then H = P(beta*g) - beta*alpha.
The slope d mean/d beta is the asymptotic variance of g, known in closed form,
so every mean tilt (``_tilt``, also used by ``witness``) is a bracketed
Newton iteration along a line base + beta*d in one model's coefficient
space, its mean read on the edge table d.edges; by default d picks the
model's first function and base is 0.  Two observables give the
two-dimensional spectrum.  The flow spectrum s(alpha) is the root of the
convex, decreasing F(s) = max{h - s*int(rho) : int(phi - alpha*rho) = 0},
F'(s) = -int(rho), and Newton on F is Dinkelbach's update s <- h/int(rho):
monotone from s = 0, one warm-started mean tilt a step, on the one [phi, rho]
model of the request along d = (1, -alpha) from base (0, -s).
``_dinkelbach`` is the one such loop, also for the flow ratio range and the
flow entropy.

All solvers share ``thermo._EdgeModel``: one block recoding on which every
potential in play is an exact edge function, so tilted pressures, means,
mean-weight cycles and the ends of L_g (``model.ends``) come from a single
weighted graph, and every tilted equilibrium comes from the certified
Perron solve in ``thermo``.  Every 1-D entry point, here and in ``witness``,
tests alpha once, by ``_check_interior`` on the ends of the model it has
built: L_g for maps and witnesses, the flow ratio range for flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, _check_count, _check_tol, _number, _numbers
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
# Failures of a trial solve that make it a bracket end of ``_tilt`` (also the
# re-pins of ``witness._path_newton``), and how many failed trials one tilt
# steps back from before it raises.
_FAILED_TRIAL = ("iteration_cap", "stationary_range", "tilt_range")
_HALVINGS = 10


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
    lo, cyc_lo, hi, cyc_hi = model.ends
    return BirkhoffRange(lo=lo, hi=hi, argmin=model.project(cyc_lo), argmax=model.project(cyc_hi))


def _check_interior(lo: float, hi: float, alpha: float, spread: float = 1e-12, what: str = "L_g") -> None:
    """Raise unless alpha lies strictly inside [lo, hi], the ends of a request's
    model, named ``what`` in the messages: NaN or an alpha that is not a real
    number (``errors._number``) is ``input``; a spread of at most
    ``spread`` (1e-12 for L_g, 1e-10 for flow ratios) ``degenerate``; beyond an
    end by more than 1e-9*max(1, |lo|, |hi|) ``outside_range`` (so is +-inf),
    and within that of an end ``boundary``."""
    if math.isnan(_number("alpha", alpha)):
        raise InputError("alpha is NaN")
    ends = f"{what} = [{lo:.12g}, {hi:.12g}]"
    if hi - lo <= spread:
        raise DomainError(f"{ends} is a single point", name="degenerate")
    edge = 1e-9 * max(1.0, abs(lo), abs(hi))
    if alpha < lo - edge or alpha > hi + edge:
        raise DomainError(f"alpha outside {ends}", name="outside_range")
    if alpha <= lo + edge or alpha >= hi - edge:
        raise DomainError(f"alpha on the boundary of {ends}: spectrum not computed", name="boundary")


def _tilt(model: _EdgeModel, alpha: float, beta0: float | None = None, base=None, d=None, chain: np.ndarray | None = None):
    """(beta, sol) with sol = model.solve(base + beta*d, chain=chain) and
    d.means = alpha, the mean of the edge table d.edges (``model._combined(d)``);
    it is nondecreasing in beta.  By default d picks the model's first function.

    Safeguarded Newton on f(beta) = mean(beta) - alpha from beta0, or from 0
    when no beta0 is given.  The slope f' is the asymptotic variance of the
    table d.edges under the chain of ``sol`` (``thermo._covariance``,
    Parry & Pollicott 1990).  Each step narrows the sign-change bracket
    [lo, hi] (both ends start infinite) and returns once f = 0, the Newton
    step is within its tolerance 1e-13 + 8.9e-16 |beta|, or the bracket is
    narrower than that.  That test comes before the safeguard, so a sign
    flip at roundoff level ends the solve instead of starting a bisection.
    A Newton step that leaves (lo, hi), or a variance that is
    not positive and finite, is replaced by the midpoint when both ends are
    finite, and otherwise by a move of max(1, |beta|) toward the root.
    Each beta is solved once.  On a model that warm-starts its Perron solves
    (``model.warm``), the next solve starts from the right vector predicted
    at the next beta, r * exp(step * d log r / d beta), the slope read from
    the same ``_covariance`` solve as the variance.

    A trial after the first that fails by a name in ``_FAILED_TRIAL``, gives
    a non-finite mean, or would start from a predicted vector with an entry
    that underflows to 0 (it is not solved) becomes a bracket end: the next
    trial moves from the last good beta toward it by half the failed step,
    and by no more than max(1, |beta|), as above.  After ``_HALVINGS`` such
    moves the next failure is raised under its own name.  |beta| beyond 2^40
    raises ``iteration_cap`` and 200 steps raise ``no_convergence``.  Every
    message gives the steps, the bracket, the last beta and |mean - alpha|.
    """
    d = (1.0,) + (0.0,) * (len(model.funcs) - 1) if d is None else d
    base = (0.0,) * len(d) if base is None else base
    E = model._combined(d)
    beta = 0.0 if beta0 is None else float(beta0)
    lo, hi, f, r0 = -np.inf, np.inf, np.nan, None
    good, halvings = None, 0  # (beta, sol, ahead) of the last solve that succeeded

    def failed(what: str, steps: int, name: str) -> DomainError:
        return DomainError(
            f"{what} after {steps} steps: bracket [{lo:.17g}, {hi:.17g}], beta {beta:.17g}, "
            f"|mean - alpha| {abs(f):.3g}",
            name=name,
        )

    def start(nxt: float):
        """The right vector predicted at nxt from the last good solve."""
        z = (nxt - good[0]) * good[2][:, 0]
        return good[1].right * np.exp(z - z.max()) if np.isfinite(z).all() else None

    for steps in range(200):
        if abs(beta) > _BETA_CAP:
            raise failed("tilt parameter diverged", steps, "iteration_cap")
        trial, name = np.nan, "iteration_cap"
        if r0 is None or (r0 > 0.0).all():  # a predicted start that underflows is not solved
            try:
                sol = model.solve([b + beta * e for b, e in zip(base, d)], chain=chain, r0=r0)
                trial, name = sum(e * m for e, m in zip(d, sol.means)) - alpha, "no_convergence"
            except DomainError as exc:
                if good is None or exc.name not in _FAILED_TRIAL:
                    raise
                name = exc.name
        if good is not None and not np.isfinite(trial):  # a bracket end: shorten the step toward good
            halvings += 1
            if halvings > _HALVINGS:
                raise failed(f"trial solve failed ({name}) {halvings} times", steps, name)
            lo, hi = (lo, beta) if beta > good[0] else (beta, hi)
            step = 0.5 * (beta - good[0])
            beta = good[0] + math.copysign(min(abs(step), max(1.0, abs(good[0]))), step)
            r0 = start(beta) if model.warm and good[2] is not None else None
            continue
        f = trial
        if f > 0.0:
            hi = beta
        elif f < 0.0:
            lo = beta
        try:
            cov, ahead = _covariance(sol, [E])
            var = float(cov[0, 0])
        except np.linalg.LinAlgError:  # the chain has gone deterministic
            var, ahead = np.nan, None
        good = (beta, sol, ahead)
        step = -f / var if 0.0 < var < np.inf else np.nan
        tol = 1e-13 + 8.9e-16 * abs(beta)
        if f == 0.0 or abs(step) <= tol or hi - lo < tol:
            return beta, sol
        nxt = beta + step
        if not lo < nxt < hi:  # also when step is nan
            if np.isfinite(lo) and np.isfinite(hi):
                nxt = 0.5 * (lo + hi)
            else:
                nxt = beta - math.copysign(max(1.0, abs(beta)), f)
        if model.warm and ahead is not None:  # the next solve starts from r predicted at nxt
            r0 = start(nxt)
        beta = nxt
    raise failed("tilt solve did not converge", 200, "no_convergence")


def conditional_entropy_spectrum(sft: Sft, g: LocallyConstantFunction, alpha: float, tol: float = 1e-10) -> SpectrumResult:
    """H(alpha) = sup{h(mu) : integral g dmu = alpha}, with dual witness.

    Solves mean(beta) = alpha by the Newton tilt ``_tilt`` (the mean of the
    beta*g equilibrium is nondecreasing in beta, with the asymptotic variance
    of g as slope) and evaluates H = P(beta*g) - beta*alpha.  The
    witness is the equilibrium chain itself: ergodic, fully supported, and
    attaining the supremum.
    """
    _check_tol(tol=tol)
    model = _EdgeModel(sft, [g])
    lo, _, hi, _ = model.ends
    _check_interior(lo, hi, alpha)
    beta, sol = _tilt(model, alpha)
    if not abs(sol.means[0] - alpha) <= max(tol, 1e-9):
        raise DomainError("tilt solve missed the target mean", name="no_convergence")
    H = sol.P - beta * alpha
    return SpectrumResult(alpha=alpha, entropy=H, beta=beta, witness=model.component(sol))


@dataclass
class RotationSet:
    """Support-function scan of the joint Birkhoff mean set of (g, h).

    ``points`` are exact mean pairs of the maximizing cycles (inner
    approximation); ``support`` the support values in each direction (outer
    approximation).  ``rank`` is the affine rank of the point cloud; at rank 2
    ``hull`` runs counterclockwise from the lexicographically smallest vertex.
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
        if not np.isfinite(p).all() or np.any(self.directions @ p > self.support + 1e-10 * scale):
            return "exterior"
        if self.rank < 2:
            return "boundary"
        # the hull runs counterclockwise, so the inside is left of every edge
        e = np.roll(self.hull, -1, axis=0) - self.hull
        d = p - self.hull
        left = e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0] >= margin * np.hypot(e[:, 0], e[:, 1])
        return "interior" if left.all() else "boundary"


def rotation_set_2d(sft: Sft, g: LocallyConstantFunction, h: LocallyConstantFunction, directions: int = 64) -> RotationSet:
    """Scan the rotation set of (g, h) over evenly spaced directions.

    For each unit direction u the maximum mean-weight cycle of u.(g, h)
    yields both the support value and an extreme point (the cycle's exact
    mean pair), so the true set is sandwiched between the hull of ``points``
    and the intersection of the support half-planes.
    """
    return _rotation_set(_EdgeModel(sft, [g, h]), directions)


def _hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices, counterclockwise from the lexicographically smallest, by
    Andrew's monotone chain (1979), after dropping each point within 1e-12*max(1, max|p|)
    of an earlier one, as qhull merges the 1-ulp twins of a cycle read at two phases."""
    tol = 1e-12 * max(1.0, float(np.abs(points).max()))
    twin = np.tril(np.abs(points[:, None] - points[None]).max(axis=2) <= tol, -1).any(axis=1)
    pts = sorted(map(tuple, points[~twin].tolist()))
    chain: list = []
    for seq in (pts, pts[::-1]):  # lower half, then upper half
        start = len(chain)
        for x, y in seq:
            while len(chain) >= start + 2:  # pop until the turn is strictly counterclockwise
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break
                chain.pop()
            chain.append((x, y))
        chain.pop()  # each half ends where the other begins
    return np.array(chain)


def _rotation_set(model: _EdgeModel, directions: int) -> RotationSet:
    _check_count("directions", directions, 1)
    thetas = 2.0 * np.pi * np.arange(directions) / directions
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    support = np.empty(directions)
    points = np.empty((directions, 2))
    words = []
    for j, (support[j], cyc) in enumerate(model.max_cycles([(u[0], u[1]) for u in dirs])):
        points[j] = model.cycle_sums(cyc, 0) / len(cyc), model.cycle_sums(cyc, 1) / len(cyc)
        words.append(model.project(cyc))
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * max(1.0, svals[0] if len(svals) else 1.0)))
    if rank >= 2:
        hull = _hull(points)
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
    _check_tol(tol=tol)
    alpha = _numbers("alpha", alpha)
    if alpha.shape != (2,) or np.isnan(alpha).any():
        raise InputError("alpha must be a pair of numbers")
    model = _EdgeModel(sft, [g, h])
    rset = _rotation_set(model, directions)
    cls = rset.classify(alpha)
    if cls == "exterior":
        raise DomainError("alpha is exterior to the rotation set", name="exterior")
    if rset.rank < 2:
        raise DomainError("the rotation set has empty interior", name="degenerate")
    if cls == "boundary":
        raise DomainError("alpha on the boundary of the rotation set: spectrum not computed", name="boundary")

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
            step = np.linalg.solve(_covariance(sol, model.edges)[0], -grad)
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


class FlowRatioRange(BirkhoffRange):
    """Extreme flow averages of phi (ratios of Birkhoff sums to roof sums)."""


def _dinkelbach(step, s: float, sign: float = 1.0) -> tuple:
    """(s, out) at a fixed point of Dinkelbach's update s <- ratio (1967).

    ``step(s)`` returns (ratio, out): the ratio of the maximiser (sign=+1) or
    minimiser (sign=-1) of numerator - s*denominator, and that optimiser.
    From an s no better than the optimum the ratio moves monotonically
    toward it, so the loop returns s and the last ``out`` once the next
    ratio improves s by at most 1e-15*max(1, |s|); 100 steps raise
    ``no_convergence`` with the last s and increment.
    """
    inc = 0.0
    for _ in range(100):
        nxt, out = step(s)
        if sign * (nxt - s) <= 1e-15 * max(1.0, abs(s)):
            return s, out
        s, inc = nxt, nxt - s
    raise DomainError(
        f"Dinkelbach iteration did not converge after 100 steps: s {s:.17g}, last increment {inc:.3g}",
        name="no_convergence",
    )


def _ratio_ends(model: _EdgeModel) -> tuple:
    """(lo, cycle_lo, hi, cycle_hi) of the cycle-sum ratio funcs[0]/funcs[1], by Dinkelbach over Karp."""

    def ends(sign: float) -> tuple:
        extreme = model.max_cycle if sign > 0 else model.min_cycle

        def step(r: float) -> tuple:
            _, cyc = extreme((1.0, -r))
            return model.cycle_sums(cyc, 0) / model.cycle_sums(cyc, 1), cyc

        return _dinkelbach(step, step(0.0)[0], sign)

    return (*ends(-1.0), *ends(+1.0))


def flow_ratio_range(system, phi: LocallyConstantFunction) -> FlowRatioRange:
    """Extreme time averages of phi under the suspension flow.

    Flow averages of invariant measures are ratios integral(phi)/integral(roof);
    the extremes are attained on periodic orbits and found exactly by
    Dinkelbach iteration on the mean-weight cycle problem (``_ratio_ends``),
    from the ratio of the extreme cycle of phi alone.
    """
    model = _EdgeModel(system.base, [phi, system.roof])
    lo, cyc_lo, hi, cyc_hi = _ratio_ends(model)
    return FlowRatioRange(lo=lo, hi=hi, argmin=model.project(cyc_lo), argmax=model.project(cyc_hi))


def flow_conditional_spectrum(system, phi: LocallyConstantFunction, alpha: float, tol: float = 1e-9) -> SpectrumResult:
    """Flow spectrum: s(alpha) = sup{h(nu)/int(rho) : flow average of phi = alpha}.

    With q = phi - alpha*rho, s(alpha) is the root of F(s) = max{h - s*int(rho)
    : int q = 0} = min over beta of P(beta*q - s*rho), on one [phi, rho] model.
    ``_dinkelbach`` steps s by Dinkelbach's update; each level is one Newton
    tilt to int q = 0 along (1, -alpha) from (0, -s), warm-started from the
    last beta.  The witness, the equilibrium at the last s, has Abramov entropy s.
    """
    _check_tol(tol=tol)
    model = _EdgeModel(system.base, [phi, system.roof])
    lo, _, hi, _ = _ratio_ends(model)
    _check_interior(lo, hi, alpha, spread=1e-10, what="the flow ratio range")
    beta = None

    def level(s: float) -> tuple:
        nonlocal beta
        beta, sol = _tilt(model, 0.0, beta, base=(0.0, -s), d=(1.0, -alpha))
        return sol.entropy / sol.means[1], sol

    s, sol = _dinkelbach(level, 0.0)
    if not abs(sol.means[0] / sol.means[1] - alpha) <= max(tol, 1e-8):
        raise DomainError("flow tilt solve missed the target ratio", name="no_convergence")
    return SpectrumResult(alpha=alpha, entropy=s, beta=beta, witness=model.component(sol), s=s)
