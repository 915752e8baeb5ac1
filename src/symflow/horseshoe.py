"""Constructive multi-horseshoe packs.

Given ergodic targets mu_1..mu_K, an entropy slack eta and a distance
budget zeta, the factory fixes an anchor symbol a* and a block length n and
collects the anchored closable n-words whose periodic empirical measure is
zeta/2-close to each target.  Free concatenation of each collection G_i is
a transitive horseshoe Lambda_i inside the ambient shift with entropy
exactly log|G_i|/n, which the construction drives above h(mu_i) - eta/2.

Measures supported on the horseshoes are word-level chains; their
push-forwards to the ambient shift (phase-averaged over the block) are what
the certificates compare against the convex family spanned by the targets.
At realistic block lengths the word alphabets run into the hundreds of
thousands, so the certificate machinery never materialises anything
quadratic in the alphabet: level tables are batched through sparse
occurrence counts, and spectral quantities are taken on the word graph
collapsed to its (suffix, prefix) classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.optimize import brentq

from .errors import DomainError, InputError
from .measures import InvariantMeasure, d_star
from .sft import (
    LocallyConstantFunction,
    Sft,
    _parse_word_key,
    _perron_right,
    _word_key,
    admissible_words,
)
from .suspension import SuspensionSystem, abramov_entropy, d_star_flow, flow_integral, flow_mixture_weights

__all__ = [
    "HorseshoePack",
    "WordProcessMeasure",
    "build_multi_horseshoe",
    "certify_pack",
    "lift_pack_to_flow",
]

_DSTAR_DEPTH = 10

# The factory streams candidate words in fixed-size chunks, so its budget
# counts rows ever materialised rather than rows held at once and can sit
# well above the word-list enumeration budget used elsewhere.
_BUILD_ROW_BUDGET = 1 << 27
_CHUNK_ROWS = 1 << 20


def _powers(k: int, ell: int) -> np.ndarray:
    return k ** np.arange(ell - 1, -1, -1, dtype=np.int64)


def _encode(word, k: int) -> int:
    code = 0
    for a in word:
        code = code * k + int(a)
    return code


def _measure_tables(sft: Sft, mu, N: int) -> list:
    """tables[ell][code] = mu[cylinder], dense over all k^ell codes."""
    tables = [None]
    for ell in range(1, N + 1):
        t = np.zeros(sft.k**ell)
        for w in admissible_words(sft, ell):
            t[_encode(w, sft.k)] = mu.cylinder_prob(w)
        tables.append(t)
    return tables


def _d_tables(ta: list, tb: list, N: int) -> float:
    return sum(float(np.abs(ta[ell] - tb[ell]).max()) / 2.0**ell for ell in range(1, N + 1))


class _TableEngine:
    """Batched push-forward tables for one fixed word alphabet.

    Holds the word block as an int8 array and serves, per cylinder depth, a
    sparse matrix of non-crossing window counts plus one-hot suffix/prefix
    encodings, so that the ambient level table of any word-Bernoulli weight
    vector (or a whole batch of them) is a couple of sparse mat-mats instead
    of a per-measure sweep over the block.
    """

    def __init__(self, sft: Sft, arr: np.ndarray):
        self.sft = sft
        self.arr = np.ascontiguousarray(arr, dtype=np.int8)
        self.num, self.n = self.arr.shape
        self._suf: dict = {}
        self._pre: dict = {}

    def suffix_codes(self, a: int) -> np.ndarray:
        if a not in self._suf:
            self._suf[a] = self.arr[:, self.n - a :].astype(np.int64) @ _powers(self.sft.k, a)
        return self._suf[a]

    def prefix_codes(self, b: int) -> np.ndarray:
        if b not in self._pre:
            self._pre[b] = self.arr[:, :b].astype(np.int64) @ _powers(self.sft.k, b)
        return self._pre[b]

    def _onehot(self, codes: np.ndarray, size: int) -> sparse.csr_matrix:
        data = np.ones(self.num)
        indptr = np.arange(self.num + 1)
        return sparse.csr_matrix((data, codes, indptr), shape=(self.num, size))

    def count_matrix(self, ell: int) -> sparse.csr_matrix:
        """(num, k^ell) occurrence counts of the non-crossing windows."""
        k = self.sft.k
        phases = self.n - ell + 1
        size = k**ell
        pw = _powers(k, ell)
        cols = np.empty(self.num * phases, dtype=np.int64)
        chunk = max(1, (1 << 24) // max(1, phases * ell))
        for s in range(0, self.num, chunk):
            block = self.arr[s : s + chunk]
            w = sliding_window_view(block, ell, axis=1).astype(np.int64)
            cols[s * phases : (s + block.shape[0]) * phases] = (w @ pw).reshape(-1)
        data = np.ones(self.num * phases)
        indptr = np.arange(self.num + 1, dtype=np.int64) * phases
        C = sparse.csr_matrix((data, cols, indptr), shape=(self.num, size))
        C.sum_duplicates()
        return C

    def level(self, ell: int) -> "_LevelSlice":
        if ell > self.n + 1:
            raise InputError(f"cylinder depth {ell} exceeds block length {self.n} + 1")
        return _LevelSlice(self, ell)


class _LevelSlice:
    """All depth-ell table machinery, built once and shared by a batch."""

    def __init__(self, engine: _TableEngine, ell: int):
        self.engine = engine
        self.ell = ell
        self.size = engine.sft.k**ell
        self.C = engine.count_matrix(ell) if ell <= engine.n else None
        self._suf_oh = {}
        self._pre_oh = {}
        k = engine.sft.k
        for a in range(1, ell):
            b = ell - a
            self._suf_oh[a] = engine._onehot(engine.suffix_codes(a), k**a)
            self._pre_oh[b] = engine._onehot(engine.prefix_codes(b), k**b)

    def bernoulli(self, TH: np.ndarray) -> np.ndarray:
        """Level tables for rows of word weights: (S, num) -> (S, k^ell)."""
        TH = np.atleast_2d(np.asarray(TH, dtype=float))
        S = TH.shape[0]
        if self.C is not None:
            acc = np.asarray((self.C.T @ TH.T).T)
        else:
            acc = np.zeros((S, self.size))
        for a in range(1, self.ell):
            b = self.ell - a
            su = np.asarray((self._suf_oh[a].T @ TH.T).T)
            pr = np.asarray((self._pre_oh[b].T @ TH.T).T)
            acc += np.einsum("si,sj->sij", su, pr).reshape(S, self.size)
        return acc / self.engine.n

    def perm_mix(self, specs: list) -> np.ndarray:
        """Level tables for (eps, perm) word chains with uniform marginal."""
        e = self.engine
        k = e.sft.k
        pi = np.full(e.num, 1.0 / e.num)
        if self.C is not None:
            base = np.asarray(self.C.T @ pi).reshape(-1)
        else:
            base = np.zeros(self.size)
        indep = np.zeros(self.size)
        parts = []
        for a in range(1, self.ell):
            b = self.ell - a
            su = np.asarray(self._suf_oh[a].T @ pi).reshape(-1)
            pr = np.asarray(self._pre_oh[b].T @ pi).reshape(-1)
            indep += np.outer(su, pr).reshape(-1)
            parts.append((e.suffix_codes(a), e.prefix_codes(b), k**b))
        out = np.empty((len(specs), self.size))
        for idx, (eps, perm) in enumerate(specs):
            pair = np.zeros(self.size)
            for suf, pre, shift in parts:
                pair += np.bincount(suf * shift + pre[perm], weights=pi, minlength=self.size)
            out[idx] = (base + (1.0 - eps) * indep + eps * pair) / e.n
        return out


class WordProcessMeasure:
    """Stationary word-concatenation process pushed to the ambient shift.

    ``words`` is the alphabet of n-blocks; the word sequence is drawn from a
    stationary chain given by ``kind``:

    * ``("bernoulli", weights)`` - i.i.d. words,
    * ``("perm_mix", eps, perm)`` - uniform words, transition
      (1-eps)*uniform + eps*permutation (doubly stochastic),
    * ``("markov", pi, Q)`` - an explicit small chain.

    Ambient cylinder probabilities are phase averages over the n positions
    of the block and are served from per-depth tables, so membership in the
    d* metric is cheap.  Depth is limited to n+1 (a pattern never spans
    more than two blocks).
    """

    def __init__(self, sft: Sft, words, kind: tuple):
        self.sft = sft
        self.words = list(words)
        self.n = len(self.words[0])
        self.kind = kind
        self._engine = _TableEngine(sft, np.asarray(self.words, dtype=np.int8))
        self._tables: dict = {}
        num = len(self.words)
        tag = kind[0]
        if tag == "bernoulli":
            self._pi = np.asarray(kind[1], dtype=float)
        elif tag == "perm_mix":
            self._pi = np.full(num, 1.0 / num)
        elif tag == "markov":
            if num > 4096:
                raise InputError("markov word chains are limited to small alphabets")
            self._pi = np.asarray(kind[1], dtype=float)
        else:
            raise InputError(f"unknown word process kind {tag!r}")

    def _markov_level(self, slc: _LevelSlice) -> np.ndarray:
        # Pair-weighted crossing terms; the word count is capped so the
        # num^2 flattening stays materialisable.
        e = self._engine
        k = self.sft.k
        Q = np.asarray(self.kind[2], dtype=float)
        if slc.C is not None:
            acc = np.asarray(slc.C.T @ self._pi).reshape(-1)
        else:
            acc = np.zeros(slc.size)
        for a in range(1, slc.ell):
            b = slc.ell - a
            shift = k**b
            flat = (e.suffix_codes(a)[:, None] * shift + e.prefix_codes(b)[None, :]).ravel()
            acc += np.bincount(flat, weights=(self._pi[:, None] * Q).ravel(), minlength=slc.size)
        return acc / e.n

    def _level_table(self, ell: int) -> np.ndarray:
        if ell in self._tables:
            return self._tables[ell]
        slc = self._engine.level(ell)
        tag = self.kind[0]
        if tag == "bernoulli":
            t = slc.bernoulli(self._pi[None, :])[0]
        elif tag == "perm_mix":
            t = slc.perm_mix([(self.kind[1], self.kind[2])])[0]
        else:
            t = self._markov_level(slc)
        self._tables[ell] = t
        return t

    def tables(self, N: int) -> list:
        return [None] + [self._level_table(ell) for ell in range(1, N + 1)]

    def cylinder_prob(self, word) -> float:
        if len(word) == 0:
            return 1.0
        return float(self._level_table(len(word))[_encode(word, self.sft.k)])

    def entropy(self) -> float:
        """Ambient entropy rate: word-chain entropy divided by block length."""
        tag = self.kind[0]
        if tag == "bernoulli":
            p = self._pi[self._pi > 0]
            h = float(-(p * np.log(p)).sum())
        elif tag == "perm_mix":
            eps = self.kind[1]
            num = len(self.words)
            a = (1.0 - eps) / num
            b = a + eps
            h = -(num - 1) * a * np.log(a) - b * np.log(b) if eps > 0 else np.log(num)
            h = float(h)
        else:
            Q = self.kind[2]
            with np.errstate(divide="ignore"):
                lq = np.where(Q > 0, np.log(np.where(Q > 0, Q, 1.0)), 0.0)
            h = float(-(self._pi[:, None] * Q * lq).sum())
        return h / self.n

    def integrate(self, f) -> float:
        t = self._level_table(f.memory)
        total = 0.0
        for w in admissible_words(self.sft, f.memory):
            total += t[_encode(w, self.sft.k)] * f(w)
        return float(total)

    def sample_path(self, num_words: int, rng) -> np.ndarray:
        """Concatenation of num_words sampled blocks, as a symbol array."""
        tag = self.kind[0]
        num = len(self.words)
        if tag == "bernoulli":
            idx = rng.choice(num, size=num_words, p=self._pi)
        elif tag == "perm_mix":
            eps, perm = self.kind[1], self.kind[2]
            idx = np.empty(num_words, dtype=np.int64)
            idx[0] = rng.integers(num)
            for t in range(1, num_words):
                if rng.random() < eps:
                    idx[t] = perm[idx[t - 1]]
                else:
                    idx[t] = rng.integers(num)
        else:
            Q = self.kind[2]
            idx = np.empty(num_words, dtype=np.int64)
            idx[0] = rng.choice(num, p=self._pi)
            for t in range(1, num_words):
                idx[t] = rng.choice(num, p=Q[idx[t - 1]])
        return self._engine.arr[idx].reshape(-1).astype(np.int64)


@dataclass
class HorseshoePack:
    """An anchored multi-horseshoe certificate candidate.

    ``word_sets[i]`` spans the horseshoe for target ``measures[i]``; all
    words share the anchor first symbol and can be freely concatenated.
    """

    sft: Sft
    n: int
    anchor: int
    eta: float
    zeta: float
    word_sets: list
    measures: list
    meta: dict = field(default_factory=dict)

    @property
    def union_words(self) -> list:
        out = []
        for ws in self.word_sets:
            out.extend(ws)
        return out

    def entropies(self) -> list:
        return [float(np.log(len(ws))) / self.n for ws in self.word_sets]

    def uniform_lift(self, i: int) -> WordProcessMeasure:
        ws = self.word_sets[i]
        return WordProcessMeasure(self.sft, ws, ("bernoulli", np.full(len(ws), 1.0 / len(ws))))

    def mixture_lift(self, theta) -> WordProcessMeasure:
        """Word-Bernoulli matching the target mixture sum(theta_i mu_i)."""
        weights = []
        for t, ws in zip(theta, self.word_sets):
            weights.extend([t / len(ws)] * len(ws))
        return WordProcessMeasure(self.sft, self.union_words, ("bernoulli", np.asarray(weights)))

    def to_json(self) -> dict:
        return {
            "sft": self.sft.to_json(),
            "n": self.n,
            "anchor": self.anchor,
            "eta": self.eta,
            "zeta": self.zeta,
            "word_sets": [[_word_key(w, self.sft.k) for w in ws] for ws in self.word_sets],
            "measures": [mu.to_json() for mu in self.measures],
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, data: dict) -> "HorseshoePack":
        sft = Sft.from_json(data["sft"])
        word_sets = [[_parse_word_key(wk) for wk in ws] for ws in data["word_sets"]]
        measures = [InvariantMeasure.from_json(sft, d) for d in data["measures"]]
        return cls(
            sft=sft,
            n=int(data["n"]),
            anchor=int(data["anchor"]),
            eta=float(data["eta"]),
            zeta=float(data["zeta"]),
            word_sets=word_sets,
            measures=measures,
            meta=dict(data.get("meta", {})),
        )


def _classify(sft: Sft, W: np.ndarray, tables: list, zeta: float, N: int = _DSTAR_DEPTH) -> np.ndarray:
    """Mask of rows of W whose cyclic empirical measure is zeta/2-close.

    Levels are processed in order with running partial sums of the d*
    series; a word is rejected as soon as the partial sum reaches zeta/2
    and accepted as soon as even all-ones deeper deviations cannot lift it
    there.
    """
    num, n = W.shape
    k = sft.k
    half = zeta / 2.0
    partial = np.zeros(num)
    status = np.zeros(num, dtype=np.int8)  # 0 undecided, 1 in, -1 out
    pad = np.concatenate([W, W[:, : N - 1]], axis=1)
    for ell in range(1, N + 1):
        live = np.flatnonzero(status == 0)
        if live.size == 0:
            break
        t = tables[ell]
        size = k**ell
        chunk = max(1, (1 << 20) // size)
        pw = _powers(k, ell)
        windows = sliding_window_view(pad, ell, axis=1)[:, :n, :]
        for start in range(0, live.size, chunk):
            rows = live[start : start + chunk]
            codes = windows[rows] @ pw
            flat = (np.arange(rows.size)[:, None] * size + codes).ravel()
            emp = np.bincount(flat, minlength=rows.size * size).reshape(rows.size, size) / n
            dev = np.abs(emp - t[None, :]).max(axis=1)
            partial[rows] += dev / 2.0**ell
        rem = 2.0**-ell - 2.0**-N
        status[(status == 0) & (partial >= half)] = -1
        status[(status == 0) & (partial + rem < half)] = 1
    return status == 1


def _anchored_word_chunks(sft: Sft, n: int, anchor: int, chunk: int = _CHUNK_ROWS, budget: int = _BUILD_ROW_BUDGET):
    """Yield closable admissible n-words starting at ``anchor`` in chunks.

    Depth-first over prefix blocks, splitting any block that would outgrow
    the chunk size, so lexicographic order is preserved while memory stays
    bounded; the budget counts candidate rows ever materialised.
    """
    k = sft.k
    syms = np.arange(k, dtype=np.int8)
    spent = 0
    stack = [np.full((1, 1), anchor, dtype=np.int8)]
    while stack:
        arr = stack.pop()
        while arr.shape[0] and arr.shape[1] < n:
            if arr.shape[0] > 1 and arr.shape[0] * k > chunk:
                mid = arr.shape[0] // 2
                stack.append(arr[mid:])
                arr = arr[:mid]
                continue
            spent += arr.shape[0] * k
            if spent > budget:
                raise DomainError(
                    f"enumeration of anchored {n}-words exceeds the budget",
                    name="enumeration_too_large",
                )
            ext = np.repeat(arr, k, axis=0)
            s = np.tile(syms, arr.shape[0])
            keep = sft.A[ext[:, -1].astype(np.int64), s] > 0
            arr = np.concatenate([ext[keep], s[keep, None]], axis=1)
        if arr.shape[0]:
            out = arr[sft.A[arr[:, -1].astype(np.int64), anchor] > 0]
            if out.shape[0]:
                yield out


def build_multi_horseshoe(sft: Sft, measures, eta: float, zeta: float, n_max: int, seed=None) -> HorseshoePack:
    """Search block lengths up to n_max for a valid anchored pack.

    For each n and anchor, the candidate set is the anchored closable
    n-words, streamed in chunks; each target keeps those within zeta/2 in
    d*.  The pack is accepted once every count satisfies
    log|G_i|/n > h(mu_i) - eta/2, which leaves the certificate margin at
    least eta/2.
    """
    measures = list(measures)
    if not measures:
        raise InputError("need at least one target measure")
    if eta <= 0.0 or zeta <= 0.0:
        raise InputError("eta and zeta must be positive")
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            if d_star(measures[i], measures[j]) < zeta:
                raise DomainError(
                    f"targets {i} and {j} are closer than zeta in d*", name="targets"
                )
    tables = [_measure_tables(sft, mu, _DSTAR_DEPTH) for mu in measures]
    hs = [mu.entropy() for mu in measures]
    K = len(measures)
    best = None  # (deficit, n, anchor)
    exhausted = False
    n_start = max(_DSTAR_DEPTH, 2)
    for n in range(n_start, n_max + 1):
        for anchor in range(sft.k):
            accepted = [[] for _ in range(K)]
            counts = [0] * K
            try:
                for cand in _anchored_word_chunks(sft, n, anchor):
                    masks = [_classify(sft, cand, t, zeta) for t in tables]
                    for i in range(K):
                        for j in range(i + 1, K):
                            if bool((masks[i] & masks[j]).any()):
                                raise DomainError("word sets overlap", name="targets")
                    for i, mask in enumerate(masks):
                        if mask.any():
                            accepted[i].append(cand[mask])
                            counts[i] += int(mask.sum())
            except DomainError as exc:
                if exc.name != "enumeration_too_large":
                    raise
                exhausted = True
                break
            deficit = -np.inf
            ok = True
            for i in range(K):
                need = hs[i] - eta / 2.0
                have = np.log(counts[i]) / n if counts[i] > 0 else -np.inf
                deficit = max(deficit, need - have)
                if not have > need:
                    ok = False
            if best is None or deficit < best[0]:
                best = (deficit, n, anchor)
            if not ok:
                continue
            sets = [
                [tuple(int(a) for a in row) for row in np.concatenate(accepted[i], axis=0)]
                for i in range(K)
            ]
            return HorseshoePack(
                sft=sft,
                n=n,
                anchor=anchor,
                eta=eta,
                zeta=zeta,
                word_sets=sets,
                measures=measures,
                meta={"seed": seed, "n_max": n_max},
            )
        if exhausted:
            break
    if best is None:
        raise DomainError("no anchored closable words below the budget", name="smb_depth")
    raise DomainError(
        "SMB depth insufficient: increase n_max "
        f"(best deficit {best[0]:.6g} at n={best[1]}, anchor={best[2]})",
        name="smb_depth",
    )


def _simplex_grid(K: int, res: int) -> np.ndarray:
    """Barycentric grid with denominator res over K vertices."""
    if K == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], res, K)
    return np.asarray(out, dtype=float) / res


def _sample_weights(union_size: int, seed: int, index: int) -> np.ndarray:
    """Dirichlet(1,..,1) word weights from a counter-derived seed."""
    g = np.random.default_rng([seed, index])
    w = g.standard_exponential(union_size)
    return w / w.sum()


def _sample_perm_spec(union_size: int, seed: int, index: int) -> tuple:
    g = np.random.default_rng([seed, index])
    eps = float(g.uniform(0.0, 0.5))
    perm = g.permutation(union_size)
    return eps, perm


def certify_pack(pack: HorseshoePack, samples: int, seed: int) -> dict:
    """Re-derive the pack's certificate from scratch.

    Conditions 1 and 2 are exact: the horseshoes are full shifts on
    disjoint word alphabets, and their entropies are recomputed through the
    Perron root of the word graph divided by the block length.  Condition 3
    is a statistical certificate: a theta-grid of target mixtures is
    matched by constructed lifts, and seeded random word-level chains
    (Dirichlet Bernoulli weights alternating with permutation mixtures,
    each sample's generator seeded by its counter index) are matched back
    to the grid; the Hausdorff estimate is reported at the full and at half
    the sample count.
    """
    K = len(pack.word_sets)
    N = min(_DSTAR_DEPTH, pack.n + 1)
    counts = [len(ws) for ws in pack.word_sets]
    union = pack.union_words
    numU = len(union)
    disjoint = len(set(union)) == len(union)

    # Free concatenation makes each word graph complete: the all-ones
    # count x count matrix has Perron root exactly count.
    entropies = [float(np.log(c)) / pack.n for c in counts]
    target_h = [mu.entropy() for mu in pack.measures]
    margins = [e - (h - pack.eta) for e, h in zip(entropies, target_h)]

    target_tables = [_measure_tables(pack.sft, mu, N) for mu in pack.measures]
    grid = _simplex_grid(K, 40 if K == 2 else 8)
    G = grid.shape[0]

    engine = _TableEngine(pack.sft, np.asarray(union, dtype=np.int8))
    starts = np.concatenate([[0], np.cumsum(counts)])
    TH_unif = np.zeros((K, numU))
    for i in range(K):
        TH_unif[i, starts[i] : starts[i + 1]] = 1.0 / counts[i]
    # A matched lift spreads each theta_i uniformly over G_i.
    TH_match = grid @ TH_unif

    bern_idx = [s for s in range(samples) if s % 2 == 0]
    perm_idx = [s for s in range(samples) if s % 2 == 1]
    block = 64

    push = np.zeros(K)
    D_gm = np.zeros(G)  # d(grid theta, matched lift theta), per theta
    D_gs = np.zeros((G, samples))  # d(grid theta, sampled chain)
    for ell in range(1, N + 1):
        slc = engine.level(ell)
        weight = 2.0**-ell
        t_target = np.stack([target_tables[i][ell] for i in range(K)])
        t_unif = slc.bernoulli(TH_unif)
        push += np.abs(t_unif - t_target).max(axis=1) * weight
        t_grid = grid @ t_target
        t_match = slc.bernoulli(TH_match)
        D_gm += np.abs(t_grid - t_match).max(axis=1) * weight
        t_samp = np.empty((samples, slc.size))
        for lo in range(0, len(bern_idx), block):
            rows = bern_idx[lo : lo + block]
            TH = np.stack([_sample_weights(numU, seed, s) for s in rows])
            t_samp[rows] = slc.bernoulli(TH)
        for lo in range(0, len(perm_idx), block):
            rows = perm_idx[lo : lo + block]
            specs = [_sample_perm_spec(numU, seed, s) for s in rows]
            t_samp[rows] = slc.perm_mix(specs)
        for lo in range(0, samples, block):
            seg = t_samp[lo : lo + block]
            D_gs[:, lo : lo + block] += (
                np.abs(t_grid[:, None, :] - seg[None, :, :]).max(axis=2) * weight
            )

    def hausdorff(count: int) -> float:
        sub = D_gs[:, :count]
        cover = float(np.minimum(D_gm, sub.min(axis=1)).max()) if count else float(D_gm.max())
        spread = float(sub.min(axis=0).max()) if count else 0.0
        return max(cover, spread)

    est = hausdorff(samples)
    est_half = hausdorff(max(1, samples // 2))
    push_dist = [float(p) for p in push]

    cond1 = {
        "alphabet_sizes": counts,
        "transitive": all(c >= 1 for c in counts),
        "disjoint": bool(disjoint),
    }
    cond2 = {
        "horseshoe_entropies": entropies,
        "count_entropies": [float(np.log(c)) / pack.n for c in counts],
        "target_entropies": target_h,
        "margins": margins,
        "all_positive": bool(all(m > 0.0 for m in margins)),
    }
    cond3 = {
        "kind": "statistical certificate",
        "samples": samples,
        "seed": seed,
        "depth": N,
        "push_distances": push_dist,
        "hausdorff_estimate": est,
        "hausdorff_estimate_half": est_half,
        "zeta": pack.zeta,
        "pass": bool(est < pack.zeta and all(d < pack.zeta for d in push_dist)),
    }
    ok = bool(cond1["transitive"] and cond1["disjoint"] and cond2["all_positive"] and cond3["pass"])
    return {"condition1": cond1, "condition2": cond2, "condition3": cond3, "pass": ok}


def _word_roof_root(system: SuspensionSystem, words) -> float:
    """Bowen root for the free concatenation of ``words`` under the roof.

    The weighted word matrix B(s)[w,w'] = exp(-s * R(w,w')) uses the roof
    summed over the n block positions (the last windows cross into w').
    B(s) factors through the words' (suffix, prefix) classes of length
    m - 1, so its nonzero spectrum lives on a k^(m-1) x k^(m-1) matrix and
    the root of log(Perron(B(s))) = 0 never touches a word-by-word matrix.
    """
    roof = system.roof
    m = roof.memory
    arr = np.asarray(words, dtype=np.int64)
    num, n = arr.shape
    k = system.base.k

    vals = np.zeros(k**m)
    for w in admissible_words(system.base, m):
        vals[_encode(w, k)] = roof(w)
    pw = _powers(k, m)
    windows = sliding_window_view(arr, m, axis=1)
    base = vals[windows @ pw].sum(axis=1)
    b0 = float(base.min())
    rmin, rmax = roof.bounds()
    lo, hi = np.log(num) / (n * rmax), np.log(num) / (n * rmin)

    if m == 1:
        def f(s: float) -> float:
            shifted = np.exp(-s * (base - b0))
            return float(np.log(shifted.sum())) - s * b0
    else:
        suf = arr[:, n - (m - 1) :] @ _powers(k, m - 1)
        pre = arr[:, : m - 1] @ _powers(k, m - 1)
        su_classes = np.unique(suf)
        pr_classes = np.unique(pre)
        Ks, Kp = len(su_classes), len(pr_classes)
        cross = np.zeros((Ks, Kp))
        digits = _powers(k, m - 1)
        for iu, cu in enumerate(su_classes):
            wu = [(int(cu) // int(d)) % k for d in digits]
            for iv, cv in enumerate(pr_classes):
                wv = [(int(cv) // int(d)) % k for d in digits]
                junction = wu + wv
                cross[iu, iv] = sum(roof(junction[t : t + m]) for t in range(m - 1))
        # Bin each word by (prefix class, suffix class); the collapsed
        # product is M[u,v] * G[v,u'] with G the class-binned exponentials.
        combo = np.searchsorted(pr_classes, pre) * Ks + np.searchsorted(su_classes, suf)

        def f(s: float) -> float:
            wts = np.exp(-s * (base - b0))
            Gm = np.bincount(combo, weights=wts, minlength=Kp * Ks).reshape(Kp, Ks)
            M = np.exp(-s * cross)
            lam, _ = _perron_right(M @ Gm)
            return float(np.log(lam)) - s * b0

    if hi - lo < 1e-15:
        return lo
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:
        return lo
    if fhi >= 0.0:
        return hi
    return float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200))


def lift_pack_to_flow(system: SuspensionSystem, pack: HorseshoePack, mixtures: int = 50, seed: int = 0) -> dict:
    """Transport the pack's certificate to the suspension flow.

    Horseshoe flow entropies are Bowen roots on the word graphs, target
    entropies follow Abramov, and the entropy margins are re-expressed with
    eta divided by each target's roof integral (so a constant roof scales
    all margins by the same factor).  The mixture reweighting identity is
    checked on seeded random mixtures and several probe observables.
    """
    if system.base != pack.sft:
        raise InputError("pack and suspension live over different SFTs")
    K = len(pack.word_sets)
    N = min(_DSTAR_DEPTH, pack.n + 1)
    roof = system.roof
    roof_ints = [mu.integrate(roof) for mu in pack.measures]
    flow_target_h = [abramov_entropy(system, mu) for mu in pack.measures]
    flow_horseshoe_h = [_word_roof_root(system, ws) for ws in pack.word_sets]
    margins = [
        s - (h - pack.eta / z) for s, h, z in zip(flow_horseshoe_h, flow_target_h, roof_ints)
    ]

    flow_dist = []
    for i in range(K):
        flow_dist.append(d_star_flow(system, pack.uniform_lift(i), pack.measures[i], N=N))

    rng = np.random.default_rng(seed)
    probes = [roof]
    for a in range(pack.sft.k):
        probes.append(LocallyConstantFunction.indicator(pack.sft, (a,)))
    worst = 0.0
    for _ in range(mixtures):
        theta = rng.dirichlet(np.ones(K))
        mix = InvariantMeasure.mix(list(zip(theta, pack.measures)))
        flow_theta = flow_mixture_weights(system, pack.measures, theta)
        for phi in probes:
            lhs = flow_integral(system, mix, phi)
            rhs = sum(t * flow_integral(system, mu, phi) for t, mu in zip(flow_theta, pack.measures))
            worst = max(worst, abs(lhs - rhs))

    return {
        "flow_horseshoe_entropies": flow_horseshoe_h,
        "flow_target_entropies": flow_target_h,
        "roof_integrals": roof_ints,
        "margins": margins,
        "all_margins_positive": bool(all(m > 0.0 for m in margins)),
        "flow_push_distances": flow_dist,
        "reweighting": {
            "mixtures": mixtures,
            "seed": seed,
            "max_identity_gap": worst,
            "pass": bool(worst <= 1e-10),
        },
        "pass": bool(all(m > 0.0 for m in margins) and worst <= 1e-10),
    }
