"""Topological pressure and equilibrium states for locally constant potentials.

This is the pressure and equilibrium layer under ``spectrum`` and
``witness``.  ``_EdgeModel`` recodes once so that every potential in play is
an exact edge function; ``_equilibrium`` turns a weighted edge matrix into
its Perron data (from ``sft._perron_right``, the one Perron solver) and the
equilibrium chain Q, its stationary vector, the edge means and the entropy.
The stationary vector of a chain of at least ``_INVERSE_MIN_STATES`` states
that charges every edge comes from three shifted inverse-iteration steps
(``measures._stationary_inverse``), checked by their residual and
convergence, with GTH elimination (``measures._gth``) as the fall-back;
smaller chains run GTH, and each ``_Solve`` records which of "inverse" and
"gth" found its vector.  Pressure is the log of the certified Perron root,
so the variational identity P = h + integral is available as an exact check.

Edge weights are e^(E - max E), with every exponent clamped at -700, times
the chain being tilted, if any.  ``_EdgeModel.solve`` is the one caller of
``_equilibrium``, for ``pressure``, the spectra and the witness tilts; when
the clamp fires it checks P against lambda* <= P <= lambda* + h_top,
lambda* the maximum cycle mean of the edge potential, and raises
``DomainError("tilt_range")`` outside it: the clamp can lift a light edge
enough to invent a heavy cycle.

Root-finders walk the tilt in small steps, so on a recoding of at least
``_WARM_START_MIN_STATES`` states ``_EdgeModel.solve`` warm-starts each
Perron solve instead of running a dense ``eig``: from the vector its caller
predicts (``spectrum._tilt`` extrapolates along the tilt), else from the
right vector of the model's previous solve.  A solve at coefficient 0 with
no chain, such as the first of every 1-D spectrum tilt, has the recoded
adjacency as its matrix, and starts from that matrix's right vector in
closed form (``_EdgeModel.parry``).  Smaller recodings, and any other first
solve, start cold.  A warm start that
stalls falls back to the cold start, and each ``_Solve`` records which of
"cold", "warm" and "fallback" found its root.

``_EdgeModel.ends`` holds the ends of L_g, the Birkhoff range of the model's
first function, and their cycles: one Karp table, of two weight rows, per
model.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, _check_tol
from .graphs import max_mean_cycle, mean_cycles, min_mean_cycle
from .measures import InvariantMeasure, MarkovComponent, _entropy_rate, _gth, _stationary_inverse, stationary
from .sft import (
    LocallyConstantFunction,
    Sft,
    _perron_right,
    _require_irreducible,
    admissible_words,
    block_recode,
    topological_entropy,
)

__all__ = ["PressureResult", "pressure", "verify_equilibrium"]

# Smallest recoding on which ``_EdgeModel.solve`` warm-starts its Perron
# solves.  Mean time of one ``_perron_right`` call along a path of 41 close
# tilts, cold (dense eig) against warm (from the previous tilt's vector), on
# a 2-core Xeon with numpy 2.4.6 and one BLAS thread: 3 states 55 vs 175 us,
# 8 states 78 vs 181 us, 13 states 118 vs 215 us, 16 states 163 vs 211 us,
# 21 states 211 vs 187 us, 32 states 598 vs 225 us, 64 states 1.93 vs 0.40 ms;
# the two cross between 16 and 21 states.
_WARM_START_MIN_STATES = 20

# Smallest chain whose stationary vector ``_equilibrium`` finds by shifted
# inverse iteration rather than GTH.  One stationary solve on the equilibrium
# chain of a random table tilted by 0.7 (median of three min-of-15 timings, on
# the same host), GTH vs inverse iteration: 2 states 27 vs 56 us, 3 states
# 29 vs 44 us, 4 states 61 vs 67 us, 5 states 50 vs 54 us, 8 states 83 vs
# 60 us, 16 states 180 vs 58 us, 64 states 779 vs 143 us; the two cross
# between 5 and 8 states.  With inverse iteration at every size, spectrum-grid
# op_p50_s read 7 % above GTH's in 9 of 12 alternating pairs.
_INVERSE_MIN_STATES = 6


@dataclass
class PressureResult:
    """Pressure value with its equilibrium chain and Perron data.

    ``left``/``right`` are the Perron vectors of the weighted matrix on the
    recoded graph whose words are listed in ``states`` (the equilibrium
    component's state list); ``root`` is the Perron root lambda with
    P = log(lambda), read as ``inf``, without a warning, once P exceeds the
    double range (about 709.78).  ``left`` is solved on first access (a
    second certified Perron solve, on the transposed matrix, with the
    ``tol`` and ``rng`` given to :func:`pressure`) and kept.
    """

    value: float
    equilibrium: MarkovComponent
    root: float
    right: np.ndarray
    _left_solve: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def left(self) -> np.ndarray:
        return self._left_solve()[1]

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
    start: str  # how the Perron root was found: "cold", "warm" or "fallback"
    pi_from: str  # how pi was found: "inverse" (shifted inverse iteration) or "gth"


def _equilibrium(
    W: np.ndarray, mask: np.ndarray, edges, offset: float = 0.0, tol: float = 1e-12, rng=None, r0=None
) -> _Solve:
    """Equilibrium chain of the nonnegative weight matrix W on the edges ``mask``.

    Q(w,w') = W_{w,w'} r(w') / (lambda r(w)) with r the Perron right
    vector (warm-started from ``r0`` when given); ``means`` are the
    stationary flux averages of the edge tables in ``edges``, ``entropy``
    the chain's entropy rate, and P = offset + log(lambda).  pi comes from
    ``_stationary_inverse`` when Q charges every edge, has at least
    ``_INVERSE_MIN_STATES`` states and passes that step's residual and
    convergence checks, and from GTH otherwise.  A row of Q that underflows
    to 0, where r spans more than the double range, raises
    ``stationary_range``.
    """
    lam, right, start = _perron_right(W, tol=tol, rng=rng, r0=r0)
    Q = W * right[None, :] / (lam * right[:, None])
    Q[~mask] = 0.0
    rows = Q.sum(axis=1, keepdims=True)
    if not (rows > 0.0).all():  # r spans more than the double range
        msg = "equilibrium chain out of floating-point range: a row underflowed to 0"
        raise DomainError(msg, name="stationary_range")
    Q /= rows  # absorb the O(tol) Perron residue
    # The mask is the edge set of an irreducible recoding, so a Q that charges
    # all of it needs no closed-class search.  Entries that underflowed to 0
    # at an extreme tilt can leave transient states: ``stationary`` finds the
    # closed class then.
    pi, pi_from = None, "gth"
    if not (Q[mask] > 0.0).all():
        pi = stationary(Q)
    elif len(Q) >= _INVERSE_MIN_STATES:
        pi, pi_from = _stationary_inverse(Q), "inverse"
    if pi is None:
        pi, pi_from = _gth(Q.copy()), "gth"
    flux = pi[:, None] * Q
    means = tuple(float((flux * E).sum()) for E in edges)
    return _Solve(
        P=offset + float(np.log(lam)), Q=Q, pi=pi, means=means, entropy=_entropy_rate(pi, Q), right=right,
        start=start, pi_from=pi_from,
    )


def _covariance(sol: _Solve, edges) -> tuple:
    """(cov, ahead): the asymptotic covariance matrix of the edge tables under
    the chain of ``sol``, and the slopes of its log right Perron vector.

    This is the Hessian of P in the tilt coefficients (Parry & Pollicott
    1990).  With flux F = pi_i Q_ij, C_k = E_k - sum F E_k (the flux mean, as in
    ``_equilibrium``) and the fundamental matrix Z = (I - Q + 1 pi)^-1 (Kemeny &
    Snell 1960), entry (a, b) is sum F C_a C_b plus the lag terms (F C_a summed
    into each state) . Z (Q C_b summed over each row), and a and b swapped.

    Column k of Z (Q C_k summed over each row), the ``ahead`` term, solves
    (I - Q) h = sum_j Q_ij C_ij with pi . h = 0: it is d log r / d coeff_k, the
    slope of the log right Perron vector along the table k.  Both come from
    the one solve, so every caller gets both.

    The tables need not be the model's functions.  Entry (a, b) is also the
    derivative of the equilibrium mean of table a as the potential moves
    along table b (Ruelle 1978), and the entropy moves by -cov(phi, b) for the
    potential phi solved; so ``witness._path_newton`` reads the derivatives
    of its mean and level, along the tilt and along a path of chains, from
    one call.
    """
    Q, pi = sol.Q, sol.pi
    flux = pi[:, None] * Q
    C = [E - (flux * E).sum() for E in edges]
    into = np.array([(flux * c).sum(axis=0) for c in C])
    ahead = np.linalg.solve(np.eye(len(pi)) - Q + pi[None, :], np.array([(Q * c).sum(axis=1) for c in C]).T)
    lag = into @ ahead
    cov = np.array([[float((flux * a * b).sum()) for b in C] for a in C]) + lag + lag.T
    return cov, ahead


class _EdgeModel:
    """Several locally constant functions realized as exact edge weights.

    Recodes once at memory max(1, max_memory - 1); each function is then a
    function of the recoded edge, so any linear combination is an edge
    potential and both spectral (pressure/equilibrium) and combinatorial
    (mean-weight cycle) computations are exact on this one graph.
    """

    def __init__(self, sft: Sft, funcs, min_memory: int = 1):
        _require_irreducible(sft)
        self.sft = sft
        self.funcs = list(funcs)
        memory = max(f.memory for f in self.funcs)
        self.rec = block_recode(sft, max(1, min_memory, memory - 1))
        A = self.rec.sft.A
        self.mask = A > 0
        words = admissible_words(sft, self.rec.m + 1)  # the row-major edges of A, in order
        self.edges = [np.zeros_like(A, dtype=float) for _ in self.funcs]
        for E, f in zip(self.edges, self.funcs):
            E[self.mask] = f.values(words)
        self.warm = len(A) >= _WARM_START_MIN_STATES  # whether solves skip the dense eig
        self._last: _Solve | None = None

    def _combined(self, coeffs) -> np.ndarray:
        E = np.zeros_like(self.edges[0])
        for c, Ek in zip(coeffs, self.edges):
            if c != 0.0:
                E = E + c * Ek
        return E

    def weights(self, coeffs) -> tuple[np.ndarray, float, bool]:
        """(W, offset, clamped): W = e^(E - offset) on edges, offset = max E,
        so the exponentials never overflow and log lambda(e^E) = offset +
        log lambda(W).  Exponents below -700 are raised to -700 (``clamped``
        says whether any edge was), so W has no entry that underflows."""
        E = self._combined(coeffs)
        offset = float(E[self.mask].max())
        shifted = E - offset
        clamped = bool((shifted[self.mask] < -700.0).any())
        return np.where(self.mask, np.exp(np.clip(shifted, -700.0, 0.0)), 0.0), offset, clamped

    def check_bracket(self, E: np.ndarray, P: float) -> None:
        """Raise ``DomainError("tilt_range")`` unless lambda* <= P <= lambda* +
        h_top within 1e-9 max(1, |P|), where lambda* is the maximum cycle mean
        of the edge potential E.  Every invariant measure has entropy in
        [0, h_top] and mean at most lambda*, and the cycle's periodic measure
        attains lambda*.  ``solve`` checks a P solved from clamped weights."""
        lam, h = max_mean_cycle(self.rec.sft.A, E)[0], topological_entropy(self.sft)
        slack = 1e-9 * max(1.0, abs(P))
        if not lam - slack <= P <= lam + h + slack:
            raise DomainError(
                f"pressure {P:.17g} is outside [{lam:.17g}, {lam + h:.17g}]: the tilt's edge "
                "weights span more than e^700, and clamping them changed the answer",
                name="tilt_range",
            )

    def solve(self, coeffs, tol: float = 1e-12, rng=None, chain: np.ndarray | None = None, r0=None) -> _Solve:
        """Equilibrium of the potential sum(coeffs[k] * funcs[k]), or of
        ``chain`` (positive on every edge) tilted by it: weights chain * e^potential.

        On a recoding of at least ``_WARM_START_MIN_STATES`` states (``warm``)
        the Perron solve is warm-started, since root-finders move the
        coefficients in small steps: from ``r0`` when given, else from the
        closed-form ``parry`` vector at coefficient 0 with no chain and no
        ``rng``, else from the right vector of the model's last solve."""
        W, offset, clamped = self.weights(coeffs)
        W = W if chain is None else chain * W
        if not self.warm:
            r0 = None
        elif r0 is None and chain is None and rng is None and not any(coeffs):
            r0 = self.parry
        elif r0 is None and self._last is not None:
            r0 = self._last.right
        sol = _equilibrium(W, self.mask, self.edges, offset, tol=tol, rng=rng, r0=r0)
        if clamped:  # the edge potential of chain * e^E is E + log chain
            log_chain = 0.0 if chain is None else np.log(np.where(self.mask, chain, 1.0))
            self.check_bracket(self._combined(coeffs) + log_chain, sol.P)
        self._last = sol
        return sol

    @cached_property
    def parry(self) -> np.ndarray:
        """Right Perron vector of the recoded adjacency (sum 1): the base
        SFT's, read at each word's last symbol, since the successors of a
        word are its shifts by the successors of that symbol."""
        right = _perron_right(self.sft.A)[1][[w[-1] for w in self.rec.words]]
        return right / right.sum()

    def component(self, sol: _Solve) -> MarkovComponent:
        return MarkovComponent(self.sft, self.rec.m, self.rec.words, sol.Q, sol.pi)

    def max_cycle(self, coeffs):
        """(value, recoded cycle) of the maximum mean-weight cycle."""
        return max_mean_cycle(self.rec.sft.A, self._combined(coeffs))

    def max_cycles(self, rows) -> list:
        """``max_cycle`` of every coefficient tuple in ``rows``, from one Karp table."""
        return [(-v, cyc) for v, cyc in mean_cycles(self.rec.sft.A, [-self._combined(c) for c in rows])]

    def min_cycle(self, coeffs):
        return min_mean_cycle(self.rec.sft.A, self._combined(coeffs))

    @cached_property
    def ends(self) -> tuple:
        """(lo, cycle_lo, hi, cycle_hi): the extreme cycle means of funcs[0]
        (the ends of L_g) and their recoded cycles, from one Karp table."""
        E = self._combined((1.0,))
        (lo, cyc_lo), (neg_hi, cyc_hi) = mean_cycles(self.rec.sft.A, [E, -E])
        return lo, cyc_lo, -neg_hi, cyc_hi

    def cycle_sums(self, cycle, which) -> float:
        """Sum of edge weights of funcs[which] along a recoded cycle."""
        return float(self.edges[which][cycle, np.roll(cycle, -1)].sum())

    def project(self, cycle) -> tuple:
        return self.rec.project_cycle(cycle)


def pressure(sft: Sft, g: LocallyConstantFunction, tol: float = 1e-12, rng=None) -> PressureResult:
    """Topological pressure P(g) = log Perron root of the g-weighted matrix.

    The equilibrium chain is Q(w,w') = B_{w,w'} r(w') / (lambda r(w)) with
    stationary distribution proportional to l*r; it is ergodic and attains
    the variational identity h + integral g = P.
    """
    _check_tol(tol=tol)
    model = _EdgeModel(sft, [g])
    sol = model.solve((1.0,), tol=tol, rng=rng)
    with np.errstate(over="ignore"):  # a root beyond the double range reads inf
        root = float(np.exp(sol.P))
    return PressureResult(
        value=sol.P,
        equilibrium=model.component(sol),
        root=root,
        right=sol.right,
        _left_solve=lambda: _perron_right(model.weights((1.0,))[0].T, tol=tol, rng=rng),
    )


def verify_equilibrium(sft: Sft, g: LocallyConstantFunction, mu: InvariantMeasure, tol: float = 1e-12) -> float:
    """Variational gap P(g) - (h_mu + integral g dmu); >= 0 up to roundoff."""
    return pressure(sft, g, tol=tol).gap(mu, g)
