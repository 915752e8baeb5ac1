"""Constructive ergodic witnesses with prescribed averages and complexity.

Three constructions:

* ``low_entropy_mean_witness`` glues the extreme mean cycles of g into a
  single ergodic chain whose mean is pinned at alpha while its entropy is
  driven as low as requested, by shrinking the switching probabilities.
  The switch-back probability comes in closed form, so entropies down to
  about 1e-14 are reachable.
* ``intermediate_witness`` interpolates between that low-complexity chain
  and the fully supported equilibrium chain, re-tilting along the way so
  the mean stays at alpha, and root-finds along the path (Brent's method in
  the path parameter; each tilt a Newton iteration on the mean, warm-started
  from the last) until h + integral(u) hits the requested level c.  Its
  ends and mu0's chain are Markov projections (``measures._markovize``).
  L_g is solved once a request, on the request's own [g] or [g, u] model
  (``model.ends``), and alpha is tested once against it
  (``spectrum._check_interior``).  With mu0, both ends are
  pulled toward mu0 by a bisection from lam = 0, with no probe at j = 14.
* ``orthant_combination`` produces nonnegative mixture weights matching a
  vector of target ratios from candidates that straddle every orthant.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError, _check_tol
from .measures import InvariantMeasure, MarkovComponent, _markovize, d_star, stationary, support_is_full
from .sft import LocallyConstantFunction, Sft
from .spectrum import _brentq, _check_interior, _tilt, conditional_entropy_spectrum_2d
from .thermo import _EdgeModel

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
    interior states split half/half.  Q(p, q) = C + p*Dp + q*Dq is affine,
    so the three matrices are built once.
    """

    def __init__(self, sft: Sft, m: int, wm: list, wp: list, conn1: list, conn2: list):
        self.sft = sft
        self.m = m
        self.states = list(dict.fromkeys(wm + wp + conn1[1:-1] + conn2[1:-1]))
        idx = {s: i for i, s in enumerate(self.states)}
        n = len(self.states)
        self.C, self.Dp, self.Dq = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
        for cycle in (wm, wp):
            for i, s in enumerate(cycle):
                self.C[idx[s], idx[cycle[(i + 1) % len(cycle)]]] = 1.0
        # connector interiors: deterministic, or half/half where the two share a state
        succ: dict = {}
        for conn in (conn1, conn2):
            for s, s2 in zip(conn[1:-1], conn[2:]):
                succ.setdefault(s, set()).add(s2)
        for s, nxt in succ.items():
            for s2 in nxt:
                self.C[idx[s], idx[s2]] = 1.0 / len(nxt)
        # each junction leaves its cycle's deterministic step with probability p (resp. q)
        for D, conn in ((self.Dp, conn1), (self.Dq, conn2)):
            j = idx[conn[0]]
            D[j] = -self.C[j]
            D[j, idx[conn[1]]] = 1.0

    def component(self, p: float, q: float) -> MarkovComponent:
        return MarkovComponent(self.sft, self.m, self.states, self.C + p * self.Dp + q * self.Dq)


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
    probability p controls entropy and shrinks until the cap is met, and
    the switch-back probability q that puts the mean on alpha is a closed
    form: the mean equation is linear in x = 1/q, and p is halved while x
    lies outside (1, 1e16).  That floor of q puts the floor of the entropy
    at about 1e-14.  Alpha passes ``spectrum._check_interior``, whose
    ``outside_range`` and ``boundary`` are reported as ``not_interior``.
    The result passes ``_witness_checks``, the mean to max(tol, 1e-9).
    """
    _check_tol(tol=tol)
    model = _EdgeModel(sft, [g])
    lo, _, hi, _ = model.ends
    try:
        _check_interior(lo, hi, alpha)
    except DomainError as exc:
        if exc.name == "degenerate":
            raise
        raise DomainError(f"alpha not interior to L_g = [{lo:.12g}, {hi:.12g}]", name="not_interior") from None
    return _checked(_low_entropy(model, alpha, h_cap), g, alpha, h_cap=h_cap, mean_tol=max(tol, 1e-9))


def _low_entropy(model: _EdgeModel, alpha: float, h_cap: float) -> InvariantMeasure:
    """``low_entropy_mean_witness`` for g = model.funcs[0], whose extreme
    cycles are read from ``model.ends``, without its checks; alpha has
    passed ``_check_interior``."""
    sft, g = model.sft, model.funcs[0]
    _, cyc_lo, _, cyc_hi = model.ends
    if not h_cap > 0.0:
        raise DomainError(f"h_cap {h_cap} is not positive: any branching chain has positive entropy", name="h_cap")

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

    # Renewal-reward at j = conn1[0]: each visit to j starts a lap of the
    # minus cycle (probability 1 - p) or an excursion, whose expected (g-sum,
    # length) is affine in x = 1/q, as q only sets the laps of the plus cycle.
    # The p = 1 chain's stationary vector, scaled to 1 at j, counts the
    # expected visits of one excursion.
    r = np.array([g(w) for w in chain.states])
    j = chain.states.index(conn1[0])

    def excursion(q: float) -> np.ndarray:
        V = stationary(chain.C + chain.Dp + q * chain.Dq)
        return np.array([V @ r, V.sum()]) / V[j]

    e1 = excursion(1.0)
    slope = excursion(0.5) - e1
    lap = np.array([sum(g(w) for w in Wm), len(Wm)])
    w = np.array([1.0, -alpha])
    p = 0.5
    achieved = float("nan")
    while p >= 1e-300:
        # x solves ((1 - p) lap + p (e1 + (x - 1) slope)) . w = 0, i.e. mean alpha
        x = 1.0 - ((1.0 - p) * lap + p * e1) @ w / (p * (slope @ w))
        if not 1.0 < x < 1e16:  # q = 1/x in (1e-16, 1)
            p *= 0.5
            continue
        comp = chain.component(p, 1.0 / x)
        achieved = comp.entropy()
        if achieved <= h_cap:
            return InvariantMeasure.single(comp)
        p *= 0.25
    raise DomainError(f"h_cap below achievable floor: reached entropy {achieved:.6g}", name="h_cap")


def _tilted_chain(model: _EdgeModel, Qt: np.ndarray, alpha: float, beta0: float | None = None):
    """Tilt the stochastic matrix Qt by beta*g so its mean lands on alpha.

    Returns (Q, pi, mean_g, value, beta) where value = entropy + mean of u
    (just the entropy when the model has no u) and beta is the tilt found
    by the Newton iteration of ``spectrum._tilt`` (slope: the asymptotic
    variance of g under the tilted chain), from beta0 when given (such as
    the tilt of a nearby matrix on the same path), each step a
    ``model.solve(..., chain=Qt)`` with the model's warm start and clamp
    guard.  Near the deterministic end of the path the spectral gap of the
    tilted matrix vanishes; ``thermo._equilibrium`` certifies its Perron
    root by a Collatz-Wielandt bracket and needs no gap.
    """
    beta, sol = _tilt(model, alpha, beta0, chain=Qt)
    return sol.Q, sol.pi, sol.means[0], sol.entropy + sum(sol.means[1:]), beta


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

    The top end is the equilibrium of u + beta*g with mean alpha, found by
    the Newton tilt ``spectrum._tilt``; it is returned for a c below its
    level only within the level check's tolerance.  The path runs from a
    near-deterministic chain with mean alpha to the constrained
    equilibrium, entrywise in the transition matrices; every point of the
    path is re-tilted by the same Newton iteration to keep the mean pinned,
    starting from the tilt last solved on the path, and the level c is
    located by Brent's method (``spectrum._brentq``) in the path parameter;
    the evaluated chain closest to c is returned.
    With mu0 and zeta the endpoints are first pulled toward mu0 as far as
    the requested level allows, so the result also lands zeta-close to mu0:
    to the largest lam = 1 - 2^-j with j <= 14 whose tilted ends straddle c,
    bisected from lam = 0 (``_mu0_pull``).  A c above h + integral u of mu0
    is out of band before the top end is considered.  A non-finite c, a tol
    or tol_mean that is not finite and positive, or mu0 without a positive
    zeta, raises ``InputError`` before any model is built.  The result, top
    end or path point, passes ``_witness_checks``, the mean to
    max(tol_mean, 1e-8) and the level to max(tol, 1e-5).
    """
    _check_tol(tol=tol, tol_mean=tol_mean)
    if not np.isfinite(c):
        raise InputError(f"c must be finite, got {c}")
    if mu0 is not None and not (zeta is not None and zeta > 0.0):
        raise InputError("mu0 requires a positive zeta")
    funcs = [g] + ([u] if u is not None else [])
    model = _EdgeModel(sft, funcs)
    lo, _, hi, _ = model.ends
    _check_interior(lo, hi, alpha)

    # top endpoint: maximize h + int(u) at mean alpha via the tilt u + beta*g
    _, sol_top = _tilt(model, alpha, base=(0.0, 1.0) if u is not None else None)
    P_top = sol_top.entropy + sum(sol_top.means[1:])
    band_tol = max(tol, 1e-9) * (1.0 + abs(c))
    if c > P_top + band_tol:
        raise DomainError(f"c outside admissible band: maximum {P_top:.12g}", name="band")
    if mu0 is not None:
        P_mu0 = mu0.entropy() + (mu0.integrate(u) if u is not None else 0.0)
        if c > P_mu0 + band_tol:
            raise DomainError(f"c outside admissible band: mu0 pressure is {P_mu0:.12g}", name="band")
    request = dict(c=c, u=u, mu0=mu0, zeta=zeta, mean_tol=max(tol_mean, 1e-8), level_tol=max(tol, 1e-5))
    if c >= P_top - min(band_tol, request["level_tol"]):
        return _checked(InvariantMeasure.single(model.component(sol_top)), g, alpha, **request)

    # low endpoint, with the cap shrunk until the tilted path starts below c;
    # its memory, set by g and its extreme cycles, is the same for every cap.
    # g is funcs[0] with or without u, so ``model.ends`` holds g's extreme cycles.
    h_cap = min(0.05, max(c / 4.0, 1e-6)) if u is None else 0.05
    nu_low = _low_entropy(model, alpha, h_cap)
    work = _EdgeModel(sft, funcs, min_memory=nu_low.components[0].memory)
    Qtop = _markovize(model.component(sol_top), work.rec.m)
    achieved_min = None
    for _ in range(12):
        try:
            if achieved_min is not None:
                nu_low = _low_entropy(model, alpha, h_cap)
            Qlow = _markovize(nu_low, work.rec.m)
            Qlow = np.where((Qtop > 0.0) & (Qlow == 0.0), 1e-9, Qlow)
            Qlow /= Qlow.sum(axis=1, keepdims=True)
            # Qlow has mean alpha up to the 1e-9 fill, so its tilt is near 0.
            low = _tilted_chain(work, Qlow, alpha, 0.0)
        except DomainError:
            if achieved_min is None:
                raise
            break  # numerical floor of the glue-and-tilt construction
        achieved_min = low[3] if achieved_min is None else min(achieved_min, low[3])
        if low[3] <= c - band_tol:
            break
        h_cap *= 0.1
    if low[3] > c - band_tol:
        raise DomainError(
            f"c outside admissible band: achieved minimum {achieved_min:.12g}", name="band"
        )

    # The path's ends, tilted: end0 lies below the level by construction.
    if mu0 is None:
        Q0, Q1 = Qlow, Qtop
        end0 = low
        end1 = _tilted_chain(work, Qtop, alpha, low[4])
    else:
        _, (Q0, end0), (Q1, end1) = _mu0_pull(work, Qlow, Qtop, low, mu0, alpha, c - band_tol)

    f1 = end1[3] - c
    if f1 < -10.0 * band_tol:
        raise DomainError("path does not bracket the requested level", name="band")
    best = end1  # taken as is when it lies at most 10 band_tol below c
    if f1 > 0.0:
        # Root-find the level in the path parameter; each tilt starts from
        # the last one solved on the path.
        evals = {0.0: end0, 1.0: end1}
        last = end1

        def level(t: float) -> float:
            nonlocal last
            if t not in evals:
                evals[t] = last = _tilted_chain(work, (1.0 - t) * Q0 + t * Q1, alpha, last[4])
            return evals[t][3] - c

        _brentq(level, 0.0, 1.0, 1e-15, 8.9e-16, 300)  # a miss is caught by the level check
        best = min(evals.values(), key=lambda e: abs(e[3] - c))
    comp = MarkovComponent(sft, work.rec.m, work.rec.words, best[0], best[1])
    return _checked(InvariantMeasure.single(comp), g, alpha, **request)


def _mu0_pull(work: _EdgeModel, Qlow: np.ndarray, Qtop: np.ndarray, low: tuple, mu0: InvariantMeasure, alpha: float, level: float):
    """Pull both path ends toward mu0: the largest lam = 1 - 2^-j, j <= 14,
    whose tilted ends straddle level (end0 at most level, end1 at least).

    The ends at lam are Qlow and Qtop mixed with the Markov projection
    ``_markovize`` of mu0, each tilted to mean alpha.  The lam = 0 ends
    (``low`` itself and Qtop tilted from it) must straddle, or the level is
    out of band; then j is bisected over [0, 15), so j = 14 is reachable,
    each tilt starting from its end's tilt at the last j that straddled, and
    end1 tilted only when end0 passes.  Returns (j, (Q0, end0), (Q1, end1)).
    """
    Qm0 = _markovize(mu0, work.rec.m)

    def end(j: int, Q: np.ndarray, beta0: float | None) -> tuple:
        lam = 1.0 - 2.0 ** (-j)
        Qj = (1.0 - lam) * Q + lam * Qm0
        return Qj, _tilted_chain(work, Qj, alpha, beta0)

    lo_end, hi_end = (Qlow, low), (Qtop, _tilted_chain(work, Qtop, alpha, low[4]))
    if hi_end[1][3] < level:
        raise DomainError("c outside admissible band for the requested mu0", name="band")
    j, fail = 0, 15
    while fail - j > 1:
        mid = (j + fail) // 2
        e0 = end(mid, Qlow, lo_end[1][4])
        if e0[1][3] <= level:
            e1 = end(mid, Qtop, hi_end[1][4])
            if e1[1][3] >= level:
                j, lo_end, hi_end = mid, e0, e1
                continue
        fail = mid
    return j, lo_end, hi_end


def birkhoff_witness_2d(sft: Sft, g: LocallyConstantFunction, h: LocallyConstantFunction, alpha, tol: float = 1e-9) -> InvariantMeasure:
    """Ergodic fully supported measure with (int g, int h) = alpha.

    Requires alpha interior to the rotation set; the witness is the
    two-dimensional tilted equilibrium, which is fully supported and hits
    both coordinates to solver precision.  It passes ``_witness_checks``,
    both means to max(tol, 1e-9).
    """
    res = conditional_entropy_spectrum_2d(sft, g, h, alpha, tol=tol)
    return _checked(InvariantMeasure.single(res.witness), g, alpha, h=h, mean_tol=max(tol, 1e-9))


def _witness_checks(
    mu: InvariantMeasure, g: LocallyConstantFunction, alpha, *, h=None, c=None, u=None, mu0=None, zeta=None,
    h_cap=None, mean_tol: float, level_tol: float = 1e-5
) -> list:
    """What a witness guarantees, as records {check, value, target, tol, pass}
    recomputed from mu alone: ergodic; mean g (and mean h, given h) within
    mean_tol of alpha; given c, entropy (plus integral u) within level_tol of
    c; given h_cap, entropy cap, else full support; given mu0, d* below zeta."""
    checks = []

    def add(name, value, target, tol, ok):
        checks.append({"check": name, "value": value, "target": target, "tol": tol, "pass": bool(ok)})

    ergodic = bool(mu.ergodic)
    add("ergodic", ergodic, True, 0.0, ergodic)
    for name, f, target in [("mean g", g, alpha)] if h is None else [("mean g", g, alpha[0]), ("mean h", h, alpha[1])]:
        mean = mu.integrate(f)
        add(name, mean, target, mean_tol, abs(mean - target) <= mean_tol)
    if c is not None:
        value, label = mu.entropy(), "entropy"
        if u is not None:
            value, label = value + mu.integrate(u), "entropy plus integral u"
        add(label, value, c, level_tol, abs(value - c) <= level_tol)
    if h_cap is not None:
        value = mu.entropy()
        add("entropy cap", value, h_cap, 0.0, value <= h_cap + 1e-12)
    else:
        full = support_is_full(mu)
        add("full support", full, True, 0.0, full)
    if mu0 is not None:
        dist = d_star(mu, mu0)
        add("d* to mu0", dist, zeta, 0.0, dist < zeta)
    return checks


def _checked(mu: InvariantMeasure, g: LocallyConstantFunction, alpha, **request) -> InvariantMeasure:
    """mu, once it passes ``_witness_checks``, as the CLI's ``witness`` and
    ``verify`` check it.  A failed check raises ``zeta`` (d* to mu0), ``verify``
    (ergodic, full support, entropy cap) or ``no_convergence`` (mean, level)."""
    for rec in _witness_checks(mu, g, alpha, **request):
        if not rec["pass"]:
            names = {"d* to mu0": "zeta", "ergodic": "verify", "full support": "verify", "entropy cap": "verify"}
            msg = f"witness check '{rec['check']}' failed: {rec['value']:.12g} against {rec['target']:.12g}"
            raise DomainError(msg, name=names.get(rec["check"], "no_convergence"))
    return mu


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
    from scipy.optimize import nnls

    theta, _ = nnls(M, b)
    resid = float(np.abs(M @ theta - b).max())
    if not resid <= 1e-10:
        raise DomainError(f"combination residual {resid:.3g} exceeds 1e-10", name="residual")
    return theta / theta.sum()
