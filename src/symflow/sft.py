"""Subshifts of finite type and locally constant observables.

An SFT is the set of bi-infinite symbol sequences over {0, ..., k-1} whose
consecutive pairs are allowed by a 0/1 transition matrix A.  Everything
downstream (pressure, spectra, horseshoes) reduces to finite linear algebra
on A or on a block recoding of it, so this module also carries the one
Perron solver of the package (a dense ``eig`` start refined by shifted
inverse iteration until a Collatz-Wielandt bracket certifies the root) and
the word enumeration with its budget guard.
"""

from __future__ import annotations

import numpy as np

from . import graphs
from .errors import DomainError, InputError

__all__ = [
    "Sft",
    "LocallyConstantFunction",
    "BlockRecoding",
    "validate_and_trim",
    "is_irreducible",
    "topological_entropy",
    "admissible_words",
    "block_recode",
    "perron_root",
    "ENUMERATION_BUDGET",
]

ENUMERATION_BUDGET = 2**24
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

Word = tuple  # words are plain tuples of ints throughout


class Sft:
    """Subshift of finite type with transition matrix ``A``.

    A sequence x is admissible when ``A[x_n, x_{n+1}] == 1`` for every n.
    Instances are immutable in spirit; ``A`` is kept read-only and word
    enumerations are cached on the instance.
    """

    def __init__(self, A):
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise InputError("transition matrix must be square and non-empty")
        if not np.isin(A, (0, 1)).all():
            raise InputError("transition matrix entries must be 0 or 1")
        self.A = A.astype(np.int8)
        self.A.setflags(write=False)
        self._word_cache: dict[int, list[Word]] = {}
        self._levels: list = []

    @property
    def k(self) -> int:
        return self.A.shape[0]

    def successors(self, a: int) -> np.ndarray:
        return np.flatnonzero(self.A[a])

    def is_admissible(self, word) -> bool:
        word = tuple(word)
        if not all(0 <= a < self.k for a in word):
            return False
        return all(self.A[word[i], word[i + 1]] for i in range(len(word) - 1))

    def __eq__(self, other):
        return isinstance(other, Sft) and self.A.shape == other.A.shape and (self.A == other.A).all()

    def __hash__(self):
        return hash((self.k, self.A.tobytes()))

    def __repr__(self):
        return f"Sft(k={self.k}, edges={int(self.A.sum())})"

    def to_json(self) -> dict:
        return {"k": self.k, "A": self.A.astype(int).tolist()}

    @classmethod
    def from_json(cls, doc: dict) -> "Sft":
        if not isinstance(doc, dict) or "A" not in doc:
            raise InputError("SFT document must be an object with an 'A' matrix")
        sft = cls(doc["A"])
        if "k" in doc and int(doc["k"]) != sft.k:
            raise InputError(f"declared k={doc['k']} does not match A of size {sft.k}")
        return sft


def validate_and_trim(sft: Sft) -> tuple[Sft, np.ndarray]:
    """Remove symbols that no bi-infinite sequence can visit.

    Iterates dropping symbols with no successor or no predecessor until a
    fixpoint and returns the trimmed SFT plus the kept symbol indices.
    """
    A = sft.A.astype(int)
    keep = np.arange(sft.k)
    while True:
        alive = (A.sum(axis=1) > 0) & (A.sum(axis=0) > 0)
        if alive.all():
            break
        A = A[np.ix_(alive, alive)]
        keep = keep[alive]
        if A.size == 0:
            raise DomainError("degenerate SFT: every symbol is stranded", name="degenerate_sft")
    return Sft(A), keep


def is_irreducible(sft: Sft) -> bool:
    """True when the transition graph is strongly connected (and has edges)."""
    if sft.A.sum(axis=1).min() < 1 or sft.A.sum(axis=0).min() < 1:
        return False
    return graphs.is_strongly_connected(sft.A)


def _require_irreducible(sft: Sft):
    if not is_irreducible(sft):
        raise DomainError("transition matrix is reducible; trim or restrict first", name="reducible")


def _perron_right(B, tol: float = 1e-12, maxiter: int = 10**6, rng=None):
    """Perron root and positive right vector (sum 1) of an irreducible
    nonnegative matrix, certified by a Collatz-Wielandt bracket.

    1. Start from the dense ``eig`` vector (``rng`` scales it entrywise).
    2. Unless that vector already certifies, take n power steps on B + cI
       with c = eps * (eig's root): every entry becomes positive and takes
       its scale from its successors, not from the noise or exact zeros
       ``eig`` returns for entries far below the largest.
    3. Run inverse iteration on the balanced matrix diag(r)^-1 B diag(r)
       with shift sigma = hi + min(hi - lo, 1e-6 * hi) > lambda, folding
       each solution (floored at eps times its maximum) into r.

    lo and hi are the extreme row sums of the balanced matrix, i.e. the
    Collatz-Wielandt ratios (Br)_i / r_i, so lo <= lambda <= hi; the sums
    have no cancellation, so the bracket is exact to a few ulps however
    small the entries of r.  The root comes back once hi - lo <= tol * lo.
    Near the root the shift is hi + (hi - lo) and the bracket shrinks
    quadratically; the 1e-6 cap lets entries that start orders of
    magnitude too large fall by a factor up to 1e-6 per step.  If for
    three steps neither the relative width halves nor an entry of r moves
    by a factor 2, the bracket has stalled and ``iteration_cap`` is raised
    with it.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if not (B > 0).any():
        raise DomainError("matrix has no positive entries", name="degenerate")
    vals, vecs = np.linalg.eig(B)
    i = int(np.argmax(vals.real))
    r = np.abs(np.real(vecs[:, i]))
    if rng is not None:
        r = r * rng.uniform(0.5, 1.5, size=n)
    balanced, lo, hi = _balanced(B, r)
    if not hi - lo <= tol * lo:
        c = _EPS * max(float(vals.real[i]), 0.0)
        for _ in range(n):
            r = B @ r + c * r
            r /= r.max()
        r = np.maximum(r, _TINY)
        balanced, lo, hi = _balanced(B, r)
    best, stalled = np.inf, 0
    for _ in range(maxiter + 1):
        if hi - lo <= tol * lo:
            return 0.5 * (lo + hi), r / r.sum()
        width = (hi - lo) / lo if lo > 0.0 else np.inf
        if stalled >= 3:
            break
        sigma = hi + min(hi - lo, 1e-6 * hi)
        x = np.linalg.solve(sigma * np.eye(n) - balanced, np.ones(n))
        if not np.isfinite(x).all() or x.max() <= 0.0:
            break
        x = np.maximum(x / x.max(), _EPS)
        stalled = 0 if (width <= 0.5 * best or x.min() < 0.5) else stalled + 1
        best = min(best, width)
        r = r * x
        r /= r.max()
        balanced, lo, hi = _balanced(B, r)
    raise DomainError(
        f"Perron bracket stalled at [{lo:.17g}, {hi:.17g}], wider than tol = {tol:.3g} relative",
        name="iteration_cap",
    )


def _balanced(B: np.ndarray, r: np.ndarray):
    """diag(r)^-1 B diag(r) and its extreme row sums, the Collatz-Wielandt
    bounds lo <= lambda <= hi for a positive r (NaN where r has zeros)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        balanced = B * r[None, :] / r[:, None]
    ratios = balanced.sum(axis=1)
    return balanced, float(ratios.min()), float(ratios.max())


def perron_root(B, tol: float = 1e-12, maxiter: int = 10**6, rng=None):
    """Perron root and positive right/left eigenvectors of an irreducible
    nonnegative matrix.

    Each vector comes from ``_perron_right`` (on B and on its transpose): a
    dense ``eig`` start, n power steps on B + cI, then shifted inverse
    iteration on the balanced matrix until the Collatz-Wielandt bracket
    certifies the root to relative error <= tol.  Vectors are normalised to
    sum 1.

    Parameters
    ----------
    B : array_like, nonnegative, irreducible
    tol : relative tolerance on the root (width of the certified bracket)
    maxiter : cap on inverse-iteration steps
    rng : optional numpy Generator; randomises the starting vector (used to
        check that results do not depend on initialisation)
    """
    lam, right = _perron_right(B, tol=tol, maxiter=maxiter, rng=rng)
    _, left = _perron_right(np.asarray(B, dtype=float).T, tol=tol, maxiter=maxiter, rng=rng)
    return lam, right, left


def topological_entropy(sft: Sft, tol: float = 1e-12) -> float:
    """log of the Perron root of A; requires an irreducible SFT."""
    _require_irreducible(sft)
    lam, _ = _perron_right(sft.A, tol=tol)
    return float(np.log(lam))


def _word_levels(sft: Sft, N: int, budget: int = ENUMERATION_BUDGET) -> list:
    """The admissible words of lengths 1..N in the order of
    :func:`admissible_words`.  Entry ell (entry 0 is None) is (parent, last,
    suffix): word i of length ell is word parent[i] of length ell - 1 plus
    symbol last[i], and its (ell-1)-suffix is word suffix[i].  The key
    parent[i]*k + last[i] ascends with i and stays below k times the size
    of level ell - 1.  Each level built is held to ``budget``; the levels
    are cached on the SFT while the deepest has at most 2^18 words.
    """
    k, levels = sft.k, list(sft._levels) or [None]
    deg = sft.A.sum(axis=1)
    first = np.cumsum(deg) - deg  # row-major position of each row's first edge
    succ = np.nonzero(sft.A)[1]
    while len(levels) <= N:
        count = deg[levels[-1][1]] if len(levels) > 1 else np.ones(k, dtype=np.int64)
        if count.sum() > budget:
            msg = f"enumeration too large: {count.sum()} words of length {len(levels)} exceed the budget of {budget}"
            raise DomainError(msg, name="enumeration_too_large")
        if len(levels) == 1:
            levels.append((np.zeros(k, dtype=np.int64), np.arange(k), np.zeros(k, dtype=np.int64)))
            continue
        _, prev_last, prev_suffix = levels[-1]
        parent = np.repeat(np.arange(prev_last.size), count)
        last = succ[np.repeat(first[prev_last] - np.cumsum(count) + count, count) + np.arange(parent.size)]
        suffix = _extend(levels[-1], k, prev_suffix[parent], last)
        levels.append((parent, last, suffix))
    if len(levels) > len(sft._levels) and levels[-1][0].size <= 2**18:
        sft._levels[:] = levels
    return levels


def _extend(level, k: int, index, symbol) -> np.ndarray:
    """Positions in ``level`` of the admissible words index[i] of the level before + (symbol[i],)."""
    parent, last, _ = level
    return np.searchsorted(parent * k + last, index * k + symbol)


def admissible_words(sft: Sft, n: int, budget: int = ENUMERATION_BUDGET) -> list[Word]:
    """All admissible words of length n in lexicographic order."""
    if n < 1:
        raise InputError("word length must be >= 1")
    if n in sft._word_cache:
        return sft._word_cache[n]
    words = [()]
    for parent, last, _ in _word_levels(sft, n, budget)[1 : n + 1]:
        words = [words[p] + (a,) for p, a in zip(parent.tolist(), last.tolist())]
    if len(words) <= 2**18:
        sft._word_cache[n] = words
    return words


class BlockRecoding:
    """Recoding of an SFT onto its admissible m-words.

    ``sft`` is the recoded system, ``words[i]`` the m-word behind symbol i,
    and ``index`` the inverse map.  Edges i -> j exist exactly when the two
    words overlap in m-1 symbols and the joined (m+1)-word is admissible,
    so entropy is preserved.
    """

    def __init__(self, base: Sft, m: int, budget: int = ENUMERATION_BUDGET):
        words = admissible_words(base, m, budget=budget)
        index = {w: i for i, w in enumerate(words)}
        # Each admissible (m+1)-word is the edge from its m-prefix to its m-suffix.
        parent, _, suffix = _word_levels(base, m + 1, budget=budget)[m + 1]
        A = np.zeros((len(words), len(words)), dtype=np.int8)
        A[parent, suffix] = 1
        self.base = base
        self.m = m
        self.words = words
        self.index = index
        self.sft = Sft(A)

    def project_cycle(self, cycle: list[int]) -> Word:
        """Ambient periodic word read off a cycle of recoded symbols."""
        return tuple(self.words[i][0] for i in cycle)


def block_recode(sft: Sft, m: int, budget: int = ENUMERATION_BUDGET) -> BlockRecoding:
    if m < 1:
        raise InputError("block length must be >= 1")
    return BlockRecoding(sft, m, budget=budget)


def _word_key(word: Word, k: int) -> str:
    if k <= 10:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)


def _parse_word_key(key: str) -> Word:
    if "," in key:
        return tuple(int(p) for p in key.split(","))
    return tuple(int(ch) for ch in key)


class LocallyConstantFunction:
    """Observable depending on finitely many coordinates:
    g(x) = table[(x_0, ..., x_{m-1})].

    The table must cover exactly the admissible m-words.  Arithmetic lifts
    operands to a common memory, so potentials like beta*g - s*rho can be
    assembled without bookkeeping at the call sites.
    """

    def __init__(self, sft: Sft, memory: int, table: dict):
        if memory < 1:
            raise InputError("memory must be >= 1")
        words = admissible_words(sft, memory)
        table = {tuple(w): float(v) for w, v in table.items()}
        missing = [w for w in words if w not in table]
        if missing:
            raise InputError(f"table missing {len(missing)} admissible {memory}-words, e.g. {missing[0]}")
        extra = set(table) - set(words)
        if extra:
            raise InputError(f"table has {len(extra)} entries off the admissible set, e.g. {sorted(extra)[0]}")
        self.sft = sft
        self.memory = memory
        self.table = table

    @classmethod
    def from_callable(cls, sft: Sft, memory: int, fn) -> "LocallyConstantFunction":
        return cls(sft, memory, {w: fn(w) for w in admissible_words(sft, memory)})

    @classmethod
    def constant(cls, sft: Sft, value: float) -> "LocallyConstantFunction":
        return cls(sft, 1, {(a,): value for a in range(sft.k)})

    @classmethod
    def indicator(cls, sft: Sft, word) -> "LocallyConstantFunction":
        """Indicator of the cylinder [word]."""
        word = tuple(word)
        if not sft.is_admissible(word) or not word:
            raise InputError(f"cylinder word {word} is not admissible")
        m = len(word)
        return cls.from_callable(sft, m, lambda w: 1.0 if w == word else 0.0)

    def __call__(self, word) -> float:
        w = tuple(word[: self.memory])
        try:
            return self.table[w]
        except KeyError:
            raise InputError(f"word {w} is not admissible") from None

    def lift(self, memory: int) -> "LocallyConstantFunction":
        if memory < self.memory:
            raise InputError("can only lift to larger memory")
        if memory == self.memory:
            return self
        return LocallyConstantFunction.from_callable(self.sft, memory, self.__call__)

    def _binary(self, other, op):
        if not isinstance(other, LocallyConstantFunction):
            raise InputError("operands must both be locally constant functions")
        if other.sft != self.sft:
            raise InputError("operands live on different SFTs")
        m = max(self.memory, other.memory)
        a, b = self.lift(m), other.lift(m)
        return LocallyConstantFunction(self.sft, m, {w: op(a.table[w], b.table[w]) for w in a.table})

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __mul__(self, scalar):
        s = float(scalar)
        return LocallyConstantFunction(self.sft, self.memory, {w: s * v for w, v in self.table.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def bounds(self) -> tuple[float, float]:
        vals = list(self.table.values())
        return min(vals), max(vals)

    def values(self, words) -> np.ndarray:
        return np.array([self(w) for w in words])

    def to_json(self) -> dict:
        keys = sorted(self.table)
        return {"memory": self.memory, "table": {_word_key(w, self.sft.k): self.table[w] for w in keys}}

    @classmethod
    def from_json(cls, sft: Sft, doc: dict) -> "LocallyConstantFunction":
        if not isinstance(doc, dict) or "memory" not in doc or "table" not in doc:
            raise InputError("function document needs 'memory' and 'table'")
        table = {_parse_word_key(key): float(v) for key, v in doc["table"].items()}
        return cls(sft, int(doc["memory"]), table)
