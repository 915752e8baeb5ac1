"""Finite-memory Markov measures on an SFT and convex mixtures of them.

A component is a stationary Markov chain whose states are admissible
m-words; a measure is a finite convex combination of components.  Entropy,
integrals of locally constant functions, and cylinder probabilities are all
exact finite sums here, which is what makes the desk-scale certificates in
the rest of the package possible.  Cylinder probabilities come as whole
tables over the admissible words of each length (``cylinder_tables``),
which every d* computation reads; ``cylinder_prob`` is the per-word
reference.  The chain a measure induces on the admissible m-words is read
off the same tables: t_{m+1} on each recoded edge over its sum on the
edges leaving the same m-word (``_markovize``, ``MarkovComponent.dense``
and ``MarkovComponent.lift``).
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .errors import DomainError, InputError, _check_count, _number, _numbers
from .sft import ENUMERATION_BUDGET, LocallyConstantFunction, Sft, _extend, _word_levels, admissible_words, block_recode

__all__ = [
    "MarkovComponent",
    "InvariantMeasure",
    "stationary",
    "d_star",
    "periodic_orbit_measure",
    "support_is_full",
    "random_markov_component",
]

_STAT_TOL = 1e-12


def stationary(Q: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Uses GTH elimination (no subtractions, so small entries keep relative
    accuracy).  The support graph ``Q > 0`` must have exactly one closed
    class (``graphs.closed_classes``, a dense closure search); with several
    the stationary vector is not unique and we refuse rather than pick one.
    GTH runs on that class, and transient states get mass 0.  A vector
    whose masses span more than the double range raises
    ``DomainError("stationary_range")`` without floating-point warnings.
    ``thermo._equilibrium`` skips the closed-class search whenever its chain
    charges every edge of an irreducible recoding, since that support is one
    closed class by construction: it tries ``_stationary_inverse`` first and
    runs the GTH step only when that step's checks fail.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    classes = graphs.closed_classes(Q > 0)
    if len(classes) != 1:
        raise DomainError(
            f"non-unique stationary distribution: support has {len(classes)} closed classes",
            name="non_unique_stationary",
        )
    cls = classes[0]
    if len(cls) == n:
        return _gth(Q.copy())
    out = np.zeros(n)
    out[cls] = _gth(Q[np.ix_(cls, cls)])
    return out


def _gth(T: np.ndarray) -> np.ndarray:
    """Stationary vector of the irreducible row-stochastic T by GTH
    elimination; T is overwritten.  Raises ``DomainError("stationary_range")``,
    without floating-point warnings, when the masses span more than the
    double range."""
    m = T.shape[0]
    pi = np.zeros(m)
    pi[0] = 1.0
    # Masses beyond the double range (or a row to fold that underflowed to
    # 0) give inf/NaN below; the check after the loops names that failure.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # GTH elimination phase: fold state s into the smaller chain.  The
        # column is rescaled after the rank-one update so back-substitution
        # reads the divided entries.
        for s in range(m - 1, 0, -1):
            scale = T[s, :s].sum()
            T[s, :s] /= scale
            T[:s, :s] += T[:s, s, None] * T[s, :s]
            T[:s, s] /= scale
        for j in range(1, m):
            pi[j] = pi[:j] @ T[:j, j]
        pi /= pi.sum()
    # Every state of an irreducible class has positive mass; an entry that
    # is not finite and positive means the masses span more than the
    # double range.
    if not (np.all(np.isfinite(pi)) and np.all(pi > 0.0)):
        raise DomainError(
            "stationary vector out of floating-point range on its closed class",
            name="stationary_range",
        )
    return pi


def _stationary_inverse(Q: np.ndarray) -> np.ndarray | None:
    """Stationary vector of the irreducible row-stochastic Q by shifted
    inverse iteration, or None when the steps fail their checks (callers
    then run ``_gth``).

    Three steps x <- (sigma I - Q^T)^-1 x, sigma = 1 + 1e-10, from the
    uniform vector, each one LAPACK solve.  For sigma > 1 the inverse is a
    nonnegative Neumann series, and a step scales the part of x along an
    eigenvalue lambda != 1 of Q by (sigma - 1) / (sigma - lambda).  The
    diagonal sigma - Q_jj is summed as (sigma - 1) + sum_{k != j} Q_jk, the
    off-diagonal row sum that GTH also uses, so a state that rarely leaves
    (Q_jj near 1) loses no digits to cancellation.  The third iterate x is
    returned when all of these hold:

    - x is positive: masses beyond the double range underflow to 0 and fail;
    - the Collatz-Wielandt ratios r_j = (Q^T x)_j / x_j lie within 1e-13 of
      each other.  They average to 1 under x, so every |r_j - 1| is at most
      that spread: an entrywise-relative residual;
    - the third step moved no entry by more than 1e-12 relative, and the
      second by no more than 1e-6.  The first step leaves about
      (sigma - 1) / (1 - lambda_2) of the start's error, so the second bound
      puts 1 - lambda_2 above about 1e-4, and rounding in the solve,
      amplified by about 1 / (1 - lambda_2), stays near 1e-12.  A nearly
      decomposable chain (1 - lambda_2 near or below sigma - 1) moves by
      (1 - lambda_2) / (sigma - lambda_2) of its error a step, or by the
      solve's rounding divided by sigma - 1, and fails here.

    These are residual and convergence checks; they do not certify pi
    entrywise, and ``_gth`` keeps that claim.  GTH has no subtractions, so
    O'Cinneide's entrywise perturbation bounds (1993) apply to it.  A
    residual reaches pi only through the mean first-passage times m_ij:
    with e = x - pi and res = xQ - x, e_j / pi_j = sum_{i != j} res_i m_ij
    (Cho & Meyer 2000), so a ratio spread delta bounds e_j / pi_j by delta
    times the mean time to reach j from x, which no step here computes.
    """
    n = Q.shape[0]
    M = -Q.T
    M.flat[:: n + 1] = 0.0
    M.flat[:: n + 1] = 1e-10 - M.sum(axis=0)
    steps = [np.full(n, 1.0 / n)]
    # An iterate with zero, negative or NaN entries fails the checks below.
    with np.errstate(all="ignore"):
        try:
            for _ in range(3):
                x = np.linalg.solve(M, steps[-1])
                steps.append(x / x.sum())
        except np.linalg.LinAlgError:
            return None
        _, x1, x2, x = steps
        ratios = Q.T @ x / x
        if (
            (x > 0.0).all()
            and ratios.max() - ratios.min() <= 1e-13
            and (np.abs(x - x2) <= 1e-12 * x).all()
            and (np.abs(x2 - x1) <= 1e-6 * x2).all()
        ):
            return x
    return None


def _entropy_rate(pi: np.ndarray, Q) -> float:
    """Entropy rate -sum_ij pi_i Q_ij log Q_ij of a chain with stationary vector pi."""
    Q = np.asarray(Q, dtype=float)
    return float(-(pi[:, None] * Q * np.log(np.where(Q > 0, Q, 1.0))).sum())


def _quotient(mu, m: int, budget: int = ENUMERATION_BUDGET) -> tuple:
    """(t_m, parent, suffix, q): the chain mu induces on the admissible
    m-words, as edges.  Edge e, the e-th admissible (m+1)-word, runs from
    m-word parent[e] to m-word suffix[e] (``_word_levels``); q[e] is
    t_{m+1}[e] over the sum of t_{m+1} on the edges leaving parent[e], and
    0 where that sum is 0.  Dividing by the children's sum rather than by
    t_m[parent[e]] keeps every charged row stochastic to rounding even when
    the word's mass is subnormal."""
    t = mu.cylinder_tables(m + 1, budget)
    parent, _, suffix = _word_levels(mu.sft, m + 1, budget)[m + 1]
    total = np.bincount(parent, weights=t[m + 1], minlength=t[m].size)[parent]
    return t[m], parent, suffix, np.divide(t[m + 1], total, out=np.zeros(parent.size), where=total > 0)


def _markovize(mu, m: int) -> np.ndarray:
    """Memory-m Markov projection of mu, dense over all admissible m-words.

    Words with a charged extension get their :func:`_quotient` rows, the
    others a uniform row over their successors, which changes nothing mu
    can see.  It preserves every integral of memory at most m+1 and can
    only raise entropy.  The n^2 entries are held to ``ENUMERATION_BUDGET``
    before they are allocated.
    """
    t, parent, suffix, q = _quotient(mu, m)
    n = t.size
    if n * n > ENUMERATION_BUDGET:
        msg = f"enumeration too large: a dense matrix on {n} {m}-words exceeds the budget of {ENUMERATION_BUDGET}"
        raise DomainError(msg, name="enumeration_too_large")
    deg = np.bincount(parent, minlength=n)
    stuck = np.flatnonzero(deg == 0)
    if stuck.size:
        word = admissible_words(mu.sft, m)[stuck[0]]
        raise DomainError(f"word {word} has no admissible extension; trim the SFT first", name="degenerate_sft")
    charged = np.bincount(parent, weights=q, minlength=n) > 0
    Q = np.zeros((n, n))
    Q[parent, suffix] = np.where(charged[parent], q, 1.0 / deg[parent])
    return Q


def _integrate(mu, g: LocallyConstantFunction) -> float:
    """Integral of g: the depth-m cylinder table of mu times g's values on
    the admissible m-words (m = g.memory), added up in word order.  The
    ``integrate`` of every measure class that has ``cylinder_tables``."""
    return float(sum(mu.cylinder_tables(g.memory)[g.memory] * g.values(admissible_words(mu.sft, g.memory))))


def _check_stochastic(Q: np.ndarray) -> None:
    """``InputError`` unless Q is nonnegative with rows that sum to 1 within 1e-9."""
    if not (Q >= 0).all():
        raise InputError("Q has negative or NaN entries")
    if not np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-9:
        raise InputError("Q rows must sum to 1")


def _check_stationary(Q: np.ndarray, pi) -> np.ndarray:
    """pi, clipped at 0 and renormalised, once it is a vector over the states of
    the stochastic Q with entries at least -1e-12 that sums to 1 within 1e-9 and
    is stationary for Q within ``_STAT_TOL``; ``InputError`` otherwise."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (len(Q),) or not (pi >= -1e-12).all():
        raise InputError("pi must be a nonnegative vector over the states")
    pi = np.clip(pi, 0.0, None)
    if not abs(pi.sum() - 1.0) <= 1e-9:
        raise InputError("pi must sum to 1")
    pi = pi / pi.sum()
    if not np.abs(pi @ Q - pi).sum() <= _STAT_TOL:
        raise InputError("pi is not stationary for Q")
    return pi


class MarkovComponent:
    """Stationary Markov chain on a subset of the admissible m-words.

    Parameters
    ----------
    sft : ambient Sft
    memory : window length m of the states
    states : list of admissible m-words carrying the chain
    Q : row-stochastic transition matrix over ``states``; positive entries
        only along recoded edges (overlap in m-1 symbols, joined word
        admissible)
    pi : stationary vector for Q (computed via :func:`stationary` if None)
    """

    def __init__(self, sft: Sft, memory: int, states, Q, pi=None):
        _check_count("memory", memory, 1)
        states = [tuple(w) for w in states]
        Q = np.asarray(Q, dtype=float)
        n = len(states)
        if Q.shape != (n, n):
            raise InputError(f"Q must be {n}x{n} to match the state list")
        if len(set(states)) != n or n == 0:
            raise InputError("states must be distinct and non-empty")
        S = np.array([w if len(w) == memory else (-1,) * memory for w in states], dtype=np.int64).reshape(n, memory)
        fits = ((S >= 0) & (S < sft.k)).all(axis=1)  # a word of the wrong length reads as -1s
        S[~fits] = 0
        fits &= (sft.A[S[:, :-1], S[:, 1:]] > 0).all(axis=1)
        if not fits.all():
            raise InputError(f"state {states[int(np.argmin(fits))]} is not an admissible {memory}-word")
        _check_stochastic(Q)
        index = {w: i for i, w in enumerate(states)}
        i, j = np.nonzero(Q > 0)
        edge = (S[i, 1:] == S[j, :-1]).all(axis=1) & (sft.A[S[i, -1], S[j, -1]] > 0)
        if not edge.all():
            e = int(np.argmin(edge))
            raise InputError(f"Q charges a non-edge {states[i[e]]} -> {states[j[e]]}")
        pi = _check_stationary(Q, stationary(Q) if pi is None else pi)
        self.sft = sft
        self.memory = memory
        self.states = states
        self.index = index
        self.Q = Q
        self.pi = pi

    @property
    def ergodic(self) -> bool:
        """True when the charged states form one strongly connected piece."""
        charged = np.flatnonzero(self.pi > 0)
        sub = (self.Q[np.ix_(charged, charged)] > 0).astype(np.int8)
        return graphs.is_strongly_connected(sub) if len(charged) else False

    def entropy(self) -> float:
        return _entropy_rate(self.pi, self.Q)

    def lift(self, memory: int, budget: int = ENUMERATION_BUDGET) -> "MarkovComponent":
        """Equivalent chain on longer windows (memory >= current memory): the
        charged words in sorted order, their :func:`_quotient` edges and
        their cylinder table.  ``budget`` holds each word level up to memory + 1."""
        m, m2 = self.memory, memory
        if m2 < m:
            raise InputError("can only lift to larger memory")
        if m2 == m:
            return self
        t, parent, suffix, q = _quotient(self, m2, budget)
        keep = t > 0
        while True:  # drop words left with no charged edge inside the set (masses near 2^-1074)
            e = keep[parent] & keep[suffix] & (q > 0)
            live = np.bincount(parent[e], minlength=t.size) > 0
            if (live == keep).all():
                break
            keep = live
        idx = np.flatnonzero(keep)
        at = np.full(t.size, -1)
        at[idx] = np.arange(idx.size)
        Q2 = np.zeros((idx.size, idx.size))
        Q2[at[parent[e]], at[suffix[e]]] = q[e]
        Q2 /= Q2.sum(axis=1, keepdims=True)
        cols, row = [], idx  # the kept words, read back symbol by symbol from the word levels
        for level_parent, level_last, _ in _word_levels(self.sft, m2, budget)[m2:0:-1]:
            cols.append(level_last[row])
            row = level_parent[row]
        words = [tuple(w) for w in np.stack(cols[::-1], axis=1).tolist()]
        return MarkovComponent(self.sft, m2, words, Q2, t[idx] / t[idx].sum())

    def cylinder_prob(self, word) -> float:
        word = tuple(word)
        n, m = len(word), self.memory
        if n == 0:
            return 1.0
        if n < m:
            return float(sum(p for w, p in zip(self.states, self.pi) if w[:n] == word))
        i = self.index.get(word[:m])
        if i is None:
            return 0.0
        p = self.pi[i]
        for j in range(1, n - m + 1):
            if p == 0.0:
                return 0.0
            nxt = self.index.get(word[j : j + m])
            if nxt is None:
                return 0.0
            p *= self.Q[i, nxt]
            i = nxt
        return float(p)

    def cylinder_tables(self, N: int, budget: int = ENUMERATION_BUDGET) -> list:
        """[None, t_1, ..., t_N] with t_ell[i] the measure of the i-th word of
        ``admissible_words(sft, ell)``, equal (==) to :meth:`cylinder_prob`.

        Up to the memory m a table sums pi over each state's ell-prefix in
        state order; a longer word is its prefix's entry times the Q factor
        of its last (m+1)-window.  Words are found by their positions in
        ``_word_levels``, not by base-k codes, so nothing grows with k^ell.
        """
        k, m, levels = self.sft.k, self.memory, _word_levels(self.sft, N, budget)
        states = np.asarray(self.states, dtype=np.int64)
        at = np.zeros(len(states), dtype=np.int64)  # each state's ell-prefix in level ell
        out = [None]
        for ell in range(1, N + 1):
            parent, last, suffix = levels[ell]
            if ell <= m:
                at = _extend(levels[ell], k, at, states[:, ell - 1])
                out.append(np.bincount(at, weights=self.pi, minlength=parent.size))
                continue
            if ell == m + 1:  # the state, if any, at each m-word; then the window factors
                state = np.full(levels[m][0].size, -1)
                state[at] = np.arange(len(states))
                i, j = state[parent], state[suffix]
                factor = np.where((i >= 0) & (j >= 0), self.Q[i, j], 0.0)
                window = np.arange(parent.size)
            else:  # the parent window's m-suffix followed by the last symbol
                window = _extend(levels[m + 1], k, levels[m + 1][2][window[parent]], last)
            out.append(out[-1][parent] * factor[window])
        return out

    integrate = _integrate

    def sample_path(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Stationary sample of the ambient symbol sequence."""
        out = np.empty(steps, dtype=np.int64)
        i = rng.choice(len(self.states), p=self.pi)
        for t in range(steps):
            out[t] = self.states[i][0]
            i = rng.choice(len(self.states), p=self.Q[i])
        return out

    def dense(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(words, :func:`_markovize`, pi) over *all* admissible m-words, for serialization."""
        m = self.memory
        Q = _markovize(self, m)
        return admissible_words(self.sft, m), Q, self.cylinder_tables(m)[m]


class InvariantMeasure:
    """Finite convex combination of Markov components on one SFT."""

    def __init__(self, components, weights):
        components = list(components)
        weights = np.asarray(weights, dtype=float)
        if len(components) == 0 or weights.shape != (len(components),):
            raise InputError("need one weight per component")
        if not (weights >= -1e-12).all():
            raise InputError("weights must be nonnegative")
        weights = np.clip(weights, 0.0, None)
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise InputError("weights must sum to 1")
        weights = weights / weights.sum()
        sft = components[0].sft
        if any(c.sft != sft for c in components):
            raise InputError("components live on different SFTs")
        self.sft = sft
        self.components = components
        self.weights = weights

    @classmethod
    def single(cls, component: MarkovComponent) -> "InvariantMeasure":
        return cls([component], [1.0])

    @classmethod
    def mix(cls, pairs) -> "InvariantMeasure":
        """Convex combination of measures: pairs of (weight, InvariantMeasure)."""
        comps, wts = [], []
        for theta, mu in pairs:
            for w, c in zip(mu.weights, mu.components):
                comps.append(c)
                wts.append(theta * w)
        return cls(comps, wts)

    @property
    def ergodic(self) -> bool:
        live = [c for w, c in zip(self.weights, self.components) if w > 0]
        return len(live) == 1 and live[0].ergodic

    def entropy(self) -> float:
        return float(sum(w * c.entropy() for w, c in zip(self.weights, self.components)))

    integrate = _integrate

    def cylinder_prob(self, word) -> float:
        return float(sum(w * c.cylinder_prob(word) for w, c in zip(self.weights, self.components)))

    def cylinder_tables(self, N: int, budget: int = ENUMERATION_BUDGET) -> list:
        """The weighted sum of the components' :meth:`MarkovComponent.cylinder_tables`."""
        tables = [c.cylinder_tables(N, budget) for c in self.components]
        return [None] + [sum(w * t[ell] for w, t in zip(self.weights, tables)) for ell in range(1, N + 1)]

    def to_json(self) -> dict:
        out = []
        for w, c in zip(self.weights, self.components):
            _, Q, pi = c.dense()
            out.append(
                {"weight": float(w), "memory": c.memory, "Q": Q.tolist(), "pi": pi.tolist()}
            )
        return {"components": out}

    @classmethod
    def from_json(cls, sft: Sft, doc: dict) -> "InvariantMeasure":
        if not isinstance(doc, dict) or "components" not in doc or not doc["components"]:
            raise InputError("measure document needs a non-empty 'components' list")
        comps, weights = [], []
        for entry in doc["components"]:
            try:
                m, Q, pi, weight = entry["memory"], entry["Q"], entry["pi"], entry["weight"]
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad measure component: {exc}") from exc
            _check_count("memory", m, 1)
            Q, pi = _numbers("Q entry", Q), _numbers("pi entry", pi)
            weights.append(_number("weight", weight))
            words = admissible_words(sft, m)
            if Q.shape != (len(words), len(words)) or pi.shape != (len(words),):
                raise InputError(
                    f"component matrices must be indexed by the {len(words)} admissible {m}-words in lexicographic order"
                )
            comps.append(MarkovComponent(sft, m, words, Q, pi))
        return cls(comps, weights)


def periodic_orbit_measure(sft: Sft, word) -> InvariantMeasure:
    """Uniform measure on the periodic orbit of word^infinity."""
    word = tuple(word)
    if not word or not sft.is_admissible(word):
        raise InputError(f"word {word} is not admissible")
    if not sft.A[word[-1], word[0]]:
        raise DomainError(f"word {word} does not close up (last->first edge missing)", name="not_closable")
    m = len(word)
    rotations = []
    for j in range(m):
        r = word[j:] + word[:j]
        if r in rotations:
            break
        rotations.append(r)
    p = len(rotations)  # least period
    Q = np.zeros((p, p))
    for j in range(p):
        Q[j, (j + 1) % p] = 1.0
    pi = np.full(p, 1.0 / p)
    return InvariantMeasure.single(MarkovComponent(sft, m, rotations, Q, pi))


def d_star(mu, nu, N: int = 10, budget: int = ENUMERATION_BUDGET) -> float:
    """Cylinder metric sum_{n=1..N} 2^-n max_{|w|=n} |mu[w] - nu[w]|.

    Accepts anything exposing ``sft`` and ``cylinder_tables`` (measures,
    components, word-level pushforwards); the maxima run over the
    admissible n-words, whose enumeration is held to ``budget``.
    """
    if mu.sft != nu.sft:
        raise InputError("measures live on different SFTs")
    _check_count("depth", N, 1)
    a, b = mu.cylinder_tables(N, budget), nu.cylinder_tables(N, budget)
    return sum(2.0**-n * float(np.abs(a[n] - b[n]).max()) for n in range(1, N + 1))


def support_is_full(mu: InvariantMeasure) -> bool:
    """Does the measure charge every allowed edge of the ambient SFT?"""
    return bool((mu.cylinder_tables(2)[2] > 0).all())


def random_markov_component(
    sft: Sft, memory: int, rng: np.random.Generator, concentration: float = 1.0
) -> MarkovComponent:
    """Random fully supported memory-m chain (Dirichlet rows on recoded edges).

    The ambient SFT must be irreducible, so the result is ergodic with full
    support; used by the sampling-style property checks and certificates.
    """
    rec = block_recode(sft, memory)
    Q = np.zeros(rec.sft.A.shape)
    for i, w in enumerate(rec.words):
        succ = rec.sft.successors(i)
        if not succ.size:
            raise DomainError(f"word {w} has no admissible extension; trim the SFT first", name="degenerate_sft")
        row = rng.gamma(concentration, 1.0, size=succ.size)
        Q[i, succ] = row / row.sum()
    return MarkovComponent(sft, memory, rec.words, Q)
