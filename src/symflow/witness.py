"""Constructive ergodic witnesses with prescribed averages and complexity.

Three constructions:

* ``low_entropy_mean_witness`` glues the extreme mean cycles of g into a
  single ergodic chain whose mean is pinned at alpha while its entropy is
  driven as low as requested, by shrinking the switching probabilities.
* ``intermediate_witness`` interpolates between that low-complexity chain
  and the fully supported equilibrium chain, re-tilting along the way so
  the mean stays at alpha, and bisects the path until h + integral(u) hits
  the requested level c.
* ``orthant_combination`` produces nonnegative mixture weights matching a
  vector of target ratios from candidates that straddle every orthant.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq, nnls

from .errors import DomainError, InputError
from .measures import InvariantMeasure, MarkovComponent, d_star, stationary
from .sft import LocallyConstantFunction, Sft
from .spectrum import _edge_tol, _expand_bracket, conditional_entropy_spectrum_2d
from .thermo import _EdgeModel, _equilibrium

__all__ = [
    "low_entropy_mean_witness",
    "intermediate_witness",
    "birkhoff_witness_2d",
    "orthant_combination",
]


def _least_period(word: tuple) -> tuple:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and all(word[i] == word[i % p] for i in range(n)):
            return word[:p]
    return word


def _windows(word: tuple, m: int) -> list:
    """The m-windows of the periodic extension of word, one per phase."""
    p = len(word)
    ext = word * (m // p + 2)
    return [tuple(ext[i : i + m]) for i in range(p)]


def _connector(sft: Sft, m: int, sources: list, targets: set) -> list:
    """Shortest path in the m-word graph from the source set to the target set.

    Multi-source BFS; by optimality the interior of the returned path meets
    neither set, which is what lets the glued chain stay deterministic away
    from its two junctions.
    """
    A = sft.A
    k = sft.k
    parent = {}
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        nxt = []
        for uword in frontier:
            last = uword[-1]
            for b in range(k):
                if not A[last, b]:
                    continue
                v = uword[1:] + (b,)
                if v in seen:
                    continue
                parent[v] = uword
                if v in targets:
                    path = [v]
                    while path[-1] not in sources:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    raise DomainError("cycles cannot be connected", name="disconnected")


class _TwoCycleChain:
    """Two deterministic cycles joined by shortest connectors.

    The chain follows the minus cycle, hops to the plus cycle with
    probability p at the junction where the first connector leaves, and
    hops back with probability q at the second junction.  Shared connector
    interior states split half/half.
    """

    def __init__(self, sft: Sft, m: int, wm: list, wp: list, conn1: list, conn2: list):
        self.sft = sft
        self.m = m
        states: list = []
        idx: dict = {}

        def add(s):
            if s not in idx:
                idx[s] = len(states)
                states.append(s)

        for s in wm + wp + conn1[1:-1] + conn2[1:-1]:
            add(s)
        self.states = states
        self.idx = idx
        next_m = {wm[i]: wm[(i + 1) % len(wm)] for i in range(len(wm))}
        next_p = {wp[i]: wp[(i + 1) % len(wp)] for i in range(len(wp))}
        c1_next = {conn1[t]: conn1[t + 1] for t in range(1, len(conn1) - 1)}
        c2_next = {conn2[t]: conn2[t + 1] for t in range(1, len(conn2) - 1)}
        jm, jp = conn1[0], conn2[0]
        rows = []
        for s in states:
            if s == jm:
                rows.append([(idx[next_m[s]], "1-p"), (idx[conn1[1]], "p")])
            elif s == jp:
                rows.append([(idx[next_p[s]], "1-q"), (idx[conn2[1]], "q")])
            elif s in next_m:
                rows.append([(idx[next_m[s]], "one")])
            elif s in next_p:
                rows.append([(idx[next_p[s]], "one")])
            else:
                succ = []
                if s in c1_next:
                    succ.append(idx[c1_next[s]])
                if s in c2_next and idx[c2_next[s]] not in succ:
                    succ.append(idx[c2_next[s]])
                share = 1.0 / len(succ)
                rows.append([(j, ("const", share)) for j in succ])
        self.rows = rows

    def component(self, p: float, q: float) -> MarkovComponent:
        n = len(self.states)
        Q = np.zeros((n, n))
        val = {"one": 1.0, "p": p, "1-p": 1.0 - p, "q": q, "1-q": 1.0 - q}
        for i, row in enumerate(self.rows):
            for j, kind in row:
                Q[i, j] += val[kind] if isinstance(kind, str) else kind[1]
        return MarkovComponent(self.sft, self.m, self.states, Q, stationary(Q))


def low_entropy_mean_witness(
    sft: Sft,
    g: LocallyConstantFunction,
    alpha: float,
    h_cap: float,
    tol: float = 1e-9,
) -> InvariantMeasure:
    """Ergodic measure with integral g = alpha and entropy below h_cap.

    The extreme-mean cycles of g are glued by shortest connectors at a
    window length where their window sets are disjoint; the switch-out
    probability p controls entropy, the switch-back probability q is solved
    so the mean lands exactly on alpha, and p is halved until the entropy
    cap is met.  Entropy tends to zero with p, so any positive cap is
    reachable.
    """
    model = _EdgeModel(sft, [g])
    lo, cyc_lo = model.min_cycle((1.0,))
    hi, cyc_hi = model.max_cycle((1.0,))
    if hi - lo <= 1e-12:
        raise DomainError("degenerate observable: L_g is a single point", name="degenerate")
    edge = _edge_tol(lo, hi)
    if alpha <= lo + edge or alpha >= hi - edge:
        raise DomainError(f"alpha not interior to L_g = [{lo:.12g}, {hi:.12g}]", name="not_interior")
    if h_cap <= 0.0:
        raise DomainError("h_cap below achievable floor: any branching chain has positive entropy", name="h_cap")

    wm = _least_period(model.project(cyc_lo))
    wp = _least_period(model.project(cyc_hi))
    m = max(g.memory, 2, len(wm), len(wp))
    limit = max(m, len(wm) + len(wp))  # Fine-Wilf: disjoint by p- + p+
    while m <= limit:
        Wm, Wp = _windows(wm, m), _windows(wp, m)
        if not set(Wm) & set(Wp):
            break
        m += 1
    else:
        raise DomainError("cycle windows never separate", name="degenerate")
    conn1 = _connector(sft, m, Wm, set(Wp))
    conn2 = _connector(sft, m, Wp, set(Wm))
    chain = _TwoCycleChain(sft, m, Wm, Wp, conn1, conn2)

    q_floor = 1e-16
    p = 0.5
    last = None
    while p >= 1e-300:
        def mean_at(q: float, _p=p) -> float:
            return chain.component(_p, q).integrate(g) - alpha

        f_hi = mean_at(1.0)
        f_lo = mean_at(q_floor)
        if f_hi >= 0.0 or f_lo <= 0.0:
            p *= 0.5
            continue
        q = float(brentq(mean_at, q_floor, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=300))
        comp = chain.component(p, q)
        last = comp
        if comp.entropy() <= h_cap:
            mu = InvariantMeasure.single(comp)
            if abs(mu.integrate(g) - alpha) > max(tol, 1e-9):
                raise DomainError("mean solve missed the target", name="no_convergence")
            return mu
        p *= 0.25
    achieved = last.entropy() if last is not None else float("nan")
    raise DomainError(
        f"h_cap below achievable floor: reached entropy {achieved:.6g}", name="h_cap"
    )


def _tilted_chain(model: _EdgeModel, Qt: np.ndarray, alpha: float, u_index: int | None):
    """Tilt the stochastic matrix Qt by beta*g so its mean lands on alpha.

    Returns (Q, pi, mean_g, value) where value = entropy + mean of u (or
    just the entropy when no u is supplied).  The tilted mean is
    nondecreasing in beta, so a sign-change bracket plus brentq suffices.
    Near the deterministic end of the path the spectral gap of the tilted
    matrix vanishes; ``thermo._equilibrium`` certifies its Perron root by a
    Collatz-Wielandt bracket and needs no gap.
    """
    Eg = model.edges[0]
    mask = Qt > 0.0
    off = float(Eg[mask].max())
    edges = [Eg] + ([model.edges[u_index]] if u_index is not None else [])

    def solve(beta: float):
        W = np.where(mask, Qt * np.exp(np.maximum(beta * (Eg - off), -700.0)), 0.0)
        sol = _equilibrium(W, mask, edges)
        return sol.Q, sol.pi, sol.means[0], sol.entropy + sum(sol.means[1:])

    def f(beta: float) -> float:
        return solve(beta)[2] - alpha

    blo, bhi = _expand_bracket(f)
    beta = float(brentq(f, blo, bhi, xtol=1e-13, rtol=8.9e-16, maxiter=300))
    return solve(beta)


def intermediate_witness(
    sft: Sft,
    g: LocallyConstantFunction,
    alpha: float,
    c: float,
    u: LocallyConstantFunction | None = None,
    mu0: InvariantMeasure | None = None,
    zeta: float | None = None,
    tol: float = 1e-7,
    tol_mean: float = 1e-9,
) -> InvariantMeasure:
    """Ergodic, fully supported measure with integral g = alpha and
    h + integral u = c (entropy alone when u is omitted).

    The path runs from a near-deterministic chain with mean alpha to the
    constrained equilibrium, entrywise in the transition matrices; every
    point of the path is re-tilted to keep the mean pinned, and the level
    c is located by bisection in the path parameter.  With mu0 and zeta the
    endpoints are first pulled toward mu0 as far as the requested level
    allows, so the result also lands zeta-close to mu0.
    """
    funcs = [g] + ([u] if u is not None else [])
    model = _EdgeModel(sft, funcs)
    lo, _ = model.min_cycle((1.0,) + (0.0,) * (len(funcs) - 1))
    hi, _ = model.max_cycle((1.0,) + (0.0,) * (len(funcs) - 1))
    if hi - lo <= 1e-12:
        raise DomainError("degenerate observable: L_g is a single point", name="degenerate")
    edge = _edge_tol(lo, hi)
    if alpha < lo - edge or alpha > hi + edge:
        raise DomainError(f"alpha outside L_g = [{lo:.12g}, {hi:.12g}]", name="outside_range")
    if alpha <= lo + edge or alpha >= hi - edge:
        raise DomainError("boundary: spectrum not computed", name="boundary")

    # top endpoint: maximize h + int(u) at mean alpha via the tilt u + beta*g
    def top_mean(beta: float) -> float:
        coeffs = (beta, 1.0) if u is not None else (beta,)
        return model.solve(coeffs).means[0] - alpha

    blo, bhi = _expand_bracket(top_mean)
    beta_top = float(brentq(top_mean, blo, bhi, xtol=1e-13, rtol=8.9e-16, maxiter=300))
    sol_top = model.solve((beta_top, 1.0) if u is not None else (beta_top,))
    P_top = sol_top.entropy + (sol_top.means[1] if u is not None else 0.0)
    band_tol = max(tol, 1e-9) * (1.0 + abs(c))
    if c > P_top + band_tol:
        raise DomainError(f"c outside admissible band: maximum {P_top:.12g}", name="band")
    if c >= P_top - band_tol:
        return InvariantMeasure.single(model.component(sol_top))

    if mu0 is not None:
        if zeta is None or zeta <= 0.0:
            raise InputError("mu0 requires a positive zeta")
        P_mu0 = mu0.entropy() + (mu0.integrate(u) if u is not None else 0.0)
        if c > P_mu0 + band_tol:
            raise DomainError(f"c outside admissible band: mu0 pressure is {P_mu0:.12g}", name="band")

    # low endpoint, with the cap shrunk until the tilted path starts below c
    u_index = 1 if u is not None else None
    h_cap = min(0.05, max(c / 4.0, 1e-6)) if u is None else 0.05
    need_memory = max(model.rec.m, 2)
    work = None
    Qtop = Qlow = None
    achieved_min = None
    reached = False
    for _ in range(12):
        try:
            nu_low = low_entropy_mean_witness(sft, g, alpha, h_cap).components[0]
            if work is None or nu_low.memory > work.rec.m:
                work = _EdgeModel(sft, funcs, min_memory=max(need_memory, nu_low.memory))
                Qtop = model.component(sol_top).lift(work.rec.m).dense()[1]
            Qlow = nu_low.lift(work.rec.m).dense()[1]
            missing = (Qtop > 0.0) & (Qlow == 0.0)
            Qlow = np.where(missing, 1e-9, Qlow)
            Qlow /= Qlow.sum(axis=1, keepdims=True)
            _, _, _, v0 = _tilted_chain(work, Qlow, alpha, u_index)
        except DomainError:
            if achieved_min is None:
                raise
            break  # numerical floor of the glue-and-tilt construction
        achieved_min = v0 if achieved_min is None else min(achieved_min, v0)
        if v0 <= c - band_tol:
            reached = True
            break
        h_cap *= 0.1
    if not reached:
        raise DomainError(
            f"c outside admissible band: achieved minimum {achieved_min:.12g}", name="band"
        )

    Q0, Q1 = Qlow, Qtop
    if mu0 is not None:
        Qm0 = _markovize(work, mu0)
        chosen = None
        for j in range(14, -1, -1):
            lam = 1.0 - 2.0 ** (-j) if j > 0 else 0.0
            cand0 = (1.0 - lam) * Qlow + lam * Qm0
            cand1 = (1.0 - lam) * Qtop + lam * Qm0
            _, _, _, v0 = _tilted_chain(work, cand0, alpha, u_index)
            _, _, _, v1 = _tilted_chain(work, cand1, alpha, u_index)
            if v0 <= c - band_tol and v1 >= c - band_tol:
                chosen = (cand0, cand1)
                break
        if chosen is None:
            raise DomainError("c outside admissible band for the requested mu0", name="band")
        Q0, Q1 = chosen

    def value_at(t: float):
        Qt = (1.0 - t) * Q0 + t * Q1
        return _tilted_chain(work, Qt, alpha, u_index)

    f0 = value_at(0.0)[3] - c
    f1 = value_at(1.0)[3] - c
    if f1 < 0.0:
        if abs(f1) <= 10.0 * band_tol:
            f1 = 0.0
        else:
            raise DomainError("path does not bracket the requested level", name="band")
    lo_t, hi_t = 0.0, 1.0
    best = None
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        Q, pi, mean, value = value_at(mid)
        if best is None or abs(value - c) < abs(best[3] - c):
            best = (Q, pi, mean, value)
        if abs(value - c) <= tol:
            break
        if value - c > 0.0:
            hi_t = mid
        else:
            lo_t = mid
        if hi_t - lo_t < 1e-15:
            break
    Q, pi, mean, value = best
    comp = MarkovComponent(sft, work.rec.m, work.rec.words, Q, pi)
    nu = InvariantMeasure.single(comp)
    if abs(nu.integrate(g) - alpha) > max(tol_mean, 1e-8):
        raise DomainError("witness mean check failed", name="no_convergence")
    if abs(value - c) > max(tol, 1e-5):
        raise DomainError(f"witness level check failed: reached {value:.12g}", name="no_convergence")
    if mu0 is not None:
        dist = d_star(nu, mu0)
        if dist >= zeta:
            raise DomainError(f"zeta unachievable along the path: d* = {dist:.6g}", name="zeta")
    return nu


def _markovize(model: _EdgeModel, mu: InvariantMeasure) -> np.ndarray:
    """Memory-m Markov approximation of mu on the model's recoded words.

    Conditional cylinder probabilities where mu charges the word, uniform
    rows elsewhere; preserves every integral of functions with memory at
    most m+1 and can only increase entropy.
    """
    A = model.rec.sft.A
    m = model.rec.m
    D = np.where(A > 0, 1.0, 0.0) / np.maximum(A.sum(axis=1), 1)[:, None]
    t = mu.cylinder_tables(m + 1)
    # The recoded symbols are the admissible m-words in order, so the
    # row-major edges of A are the admissible (m+1)-words in order.
    R = np.zeros(A.shape)
    R[A > 0] = t[m + 1]
    s = R.sum(axis=1)
    keep = (t[m] > 1e-300) & (s > 0.0)
    D[keep] = R[keep] / s[keep, None]
    return D


def birkhoff_witness_2d(sft: Sft, g: LocallyConstantFunction, h: LocallyConstantFunction, alpha, tol: float = 1e-9) -> InvariantMeasure:
    """Ergodic fully supported measure with (int g, int h) = alpha.

    Requires alpha interior to the rotation set; the witness is the
    two-dimensional tilted equilibrium, which is fully supported and hits
    both coordinates to solver precision.
    """
    res = conditional_entropy_spectrum_2d(sft, g, h, alpha, tol=tol)
    return InvariantMeasure.single(res.witness)


def orthant_combination(alpha, candidates) -> np.ndarray:
    """Nonnegative weights theta with sum(theta_i (p_i - alpha*q_i)) = 0.

    ``candidates`` are (p, q) pairs of d-vectors (q may be None for the map
    case q = 1); there must be exactly 2^d of them and their sign patterns
    sign(p - alpha*q) must strictly cover all 2^d orthants, which makes the
    origin an interior point of the candidate hull and the nonnegative
    least-squares residual vanish.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    d = a.size
    if len(candidates) != 2**d:
        raise InputError(f"need {2 ** d} candidates for dimension {d}, got {len(candidates)}")
    rows = []
    for p, q in candidates:
        p = np.asarray(p, dtype=float)
        q = np.ones(d) if q is None else np.asarray(q, dtype=float)
        rows.append(p - a * q)
    R = np.array(rows)
    scale = np.maximum(np.abs(R).max(axis=0), 1e-30)
    for xi in range(2**d):
        for i in range(d):
            if abs(R[xi, i]) <= 1e-13 * scale[i]:
                raise DomainError(
                    f"candidate {xi} is on the boundary in coordinate {i}", name="orthant"
                )
    patterns = {tuple(int(np.sign(x)) for x in R[xi]) for xi in range(2**d)}
    if len(patterns) < 2**d:
        from itertools import product

        for want in product((1, -1), repeat=d):
            if want not in patterns:
                raise DomainError(f"no candidate with sign pattern {want}", name="orthant")
    M = np.vstack([(R / scale).T, np.ones(2**d)])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    theta, _ = nnls(M, b)
    resid = float(np.abs(M @ theta - b).max())
    if resid > 1e-10:
        raise DomainError(f"combination residual {resid:.3g} exceeds 1e-10", name="residual")
    return theta / theta.sum()
