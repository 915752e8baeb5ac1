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
quadratic in the alphabet:

* every level table up to the d* depth N is a marginal of three depth-N
  histograms per word weight vector (in-word windows, suffixes, prefixes)
  and, for word chains, of N-1 joint (suffix, prefix) histograms with k^N
  bins each; the certificate draws each random chain once and reads all
  its depths from one set of statistics;
* the factory classifies each candidate chunk against all targets at once,
  extending window codes level by level for the rows still undecided;
* spectral quantities are taken on the word graph collapsed to its
  (suffix, prefix) classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.optimize import brentq

from .errors import DomainError, InputError
from .measures import InvariantMeasure, _integrate, d_star
from .sft import (
    ENUMERATION_BUDGET,
    LocallyConstantFunction,
    Sft,
    _parse_word_key,
    _perron_right,
    _word_key,
    _word_levels,
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


def _admissible_codes(sft: Sft, N: int, budget: int = ENUMERATION_BUDGET) -> list:
    """[None, c_1, ..., c_N], c_ell the base-k codes of ``admissible_words(sft, ell)``."""
    codes = [np.zeros(1, dtype=np.int64)]
    for parent, last, _ in _word_levels(sft, N, budget)[1 : N + 1]:
        codes.append(codes[-1][parent] * sft.k + last)
    return [None] + codes[1:]


def _measure_tables(sft: Sft, mu, N: int) -> list:
    """tables[ell][code] = mu[cylinder], dense over all k^ell codes."""
    codes, tables = _admissible_codes(sft, N), mu.cylinder_tables(N)
    return [None] + [np.bincount(codes[ell], weights=tables[ell], minlength=sft.k**ell) for ell in range(1, N + 1)]


class _TableEngine:
    """Level tables of word-concatenation chains from depth-N statistics.

    The phase-averaged ambient table at depth ell <= N counts the length-ell
    windows inside a word plus those crossing into the next word.  All of
    them are marginals of three histograms per word weight vector theta:

    * ``H = theta . C_N``, the windows of length N inside the word;
    * ``S = theta . onehot(suffix_{N-1})``;
    * ``P = theta . onehot(prefix_{N-1})``.

    An in-word window of length ell is a prefix of an H window or sits at
    an offset 0..N-1-ell inside the suffix.  A crossing window is a suffix
    of length a followed by a prefix of length ell-a of the next word: for
    i.i.d. words that is the product of S and P marginals, and for a chain
    it is a marginal of the joint histogram J_a of (suffix_a, prefix_{N-a}
    of the successor), so the N-1 joints of k^N bins serve every depth.
    H, S and P of a whole block of weight vectors are one product with a
    stacked sparse operator.  Every table method returns a list indexed by
    ell = 1..N (entry 0 is None) of (batch, k^ell) arrays.
    """

    def __init__(self, sft: Sft, arr: np.ndarray, N: int):
        arr = np.ascontiguousarray(arr, dtype=np.int8)
        self.num, self.n = arr.shape
        if not 1 <= N <= self.n + 1:
            raise InputError(f"cylinder depth {N} exceeds block length {self.n} + 1")
        k = self.k = sft.k
        self.N = N
        m = N - 1
        self.suf = arr[:, self.n - m :].astype(np.int64) @ _powers(k, m)
        self.pre = arr[:, :m].astype(np.int64) @ _powers(k, m)
        # Rows of the stacked operator: H codes (when a length-N window fits
        # inside a word), then S codes, then P codes.
        codes = []
        if N <= self.n:
            code = arr[:, :N].astype(np.int64) @ _powers(k, N)
            codes.append(code)
            for p in range(N, self.n):
                code = code % k**m * k + arr[:, p]
                codes.append(code)
        self._h = k**N if codes else 0
        codes.append(self.suf + self._h)
        codes.append(self.pre + self._h + k**m)
        rows = np.stack(codes, axis=1)
        indptr = np.arange(self.num + 1, dtype=np.int64) * rows.shape[1]
        op = sparse.csc_matrix(
            (np.ones(rows.size), rows.ravel(), indptr), shape=(self._h + 2 * k**m, self.num)
        ).tocsr()
        op.sum_duplicates()
        self._op = op
        self._uniform = None

    def stats(self, W: np.ndarray) -> tuple:
        """(H, S, P) for the weight columns of W (num, B); H is None when N > n."""
        Y = np.ascontiguousarray((self._op @ np.ascontiguousarray(W, dtype=float)).T)
        h, km = self._h, self.k ** (self.N - 1)
        return (Y[:, :h] if h else None), Y[:, h : h + km], Y[:, h + km :]

    def _inword(self, H, S) -> list:
        k, N, m = self.k, self.N, self.N - 1
        B = S.shape[0]
        out = [None] + [np.zeros((B, k**ell)) for ell in range(1, N + 1)]
        if H is not None:
            cur = H
            for ell in range(N, 0, -1):
                out[ell] += cur
                cur = cur.reshape(B, -1, k).sum(axis=2)
        for ell in range(1, m + 1):
            for j in range(m - ell + 1):
                out[ell] += S.reshape(B, k**j, k**ell, -1).sum(axis=(1, 3))
        return out

    def _cross_indep(self, S, P) -> list:
        k, N, m = self.k, self.N, self.N - 1
        B = S.shape[0]
        su = [None] + [S.reshape(B, -1, k**a).sum(axis=1) for a in range(1, m + 1)]
        pr = [None] + [P.reshape(B, k**b, -1).sum(axis=2) for b in range(1, m + 1)]
        out = [None, np.zeros((B, k))]
        for ell in range(2, N + 1):
            out.append(sum((su[a][:, :, None] * pr[ell - a][:, None, :]).reshape(B, -1) for a in range(1, ell)))
        return out

    def _cross_joint(self, J: np.ndarray) -> list:
        """Crossing terms from joints J (B, N-1, k^N) of (suffix_a, prefix_{N-a})."""
        k, N = self.k, self.N
        B = J.shape[0]
        out = [None, np.zeros((B, k))]
        for ell in range(2, N + 1):
            out.append(
                sum(J[:, a - 1].reshape(B, k**a, k ** (ell - a), -1).sum(axis=3).reshape(B, -1) for a in range(1, ell))
            )
        return out

    def bernoulli_tables(self, H, S, P) -> list:
        inw, cross = self._inword(H, S), self._cross_indep(S, P)
        return [None] + [(inw[ell] + cross[ell]) / self.n for ell in range(1, self.N + 1)]

    def bernoulli(self, W: np.ndarray) -> list:
        """Tables of i.i.d. words drawn with the weight columns of W (num, B)."""
        return self.bernoulli_tables(*self.stats(W))

    def perm_mix(self, specs: list) -> list:
        """Tables of (eps, perm) word chains with uniform marginal."""
        k, N = self.k, self.N
        if self._uniform is None:
            H, S, P = self.stats(np.full((self.num, 1), 1.0 / self.num))
            # Joint a-1 holds (suffix_a, prefix_{N-a}) in flat bin
            # (a-1)*k^N + suffix_a*k^(N-a) + prefix_{N-a}, and prefix_{N-a}
            # is prefix_{N-1} // k^(a-1).
            a = np.arange(1, N, dtype=np.int64)[:, None]
            suf = (self.suf[None, :] % k**a) * k ** (N - a) + (a - 1) * k**N
            self._uniform = (self._inword(H, S), self._cross_indep(S, P), suf, k ** (a - 1))
        inw, indep, suf, div = self._uniform
        J = np.stack(
            [np.bincount((suf + self.pre[perm] // div).ravel(), minlength=(N - 1) * k**N) for _, perm in specs]
        ).reshape(len(specs), N - 1, -1) / self.num
        pair = self._cross_joint(J)
        eps = np.array([e for e, _ in specs])[:, None]
        return [None] + [(inw[ell] + (1.0 - eps) * indep[ell] + eps * pair[ell]) / self.n for ell in range(1, N + 1)]

    def markov(self, pi: np.ndarray, Q: np.ndarray) -> list:
        """Tables of the word chain with stationary vector pi and transitions Q."""
        k, N = self.k, self.N
        PQ = pi[:, None] * Q
        J = np.empty((1, N - 1, k**N))
        for a in range(1, N):
            b = N - a
            su = _onehot(self.suf % k**a, k**a).T
            pr = _onehot(self.pre // k ** (a - 1), k**b)
            # Bin the smaller side first so the intermediate stays num x k^min(a, b).
            J[0, a - 1] = np.asarray(su @ (PQ @ pr) if b <= a else (su @ PQ) @ pr).reshape(-1)
        H, S, _ = self.stats(pi[:, None])
        inw, cross = self._inword(H, S), self._cross_joint(J)
        return [None] + [(inw[ell] + cross[ell]) / self.n for ell in range(1, N + 1)]


def _onehot(codes: np.ndarray, size: int) -> sparse.csr_matrix:
    num = codes.shape[0]
    return sparse.csr_matrix((np.ones(num), codes, np.arange(num + 1)), shape=(num, size))


class WordProcessMeasure:
    """Stationary word-concatenation process pushed to the ambient shift.

    ``words`` is the alphabet of n-blocks; the word sequence is drawn from a
    stationary chain given by ``kind``:

    * ``("bernoulli", weights)`` - i.i.d. words,
    * ``("perm_mix", eps, perm)`` - uniform words, transition
      (1-eps)*uniform + eps*permutation (doubly stochastic),
    * ``("markov", pi, Q)`` - an explicit small chain.

    Ambient cylinder probabilities are phase averages over the n positions
    of the block and are served from per-depth tables, all depths up to the
    d* depth built at once, so membership in the d* metric is cheap.  Depth
    is limited to n+1 (a pattern never spans more than two blocks).
    """

    def __init__(self, sft: Sft, words, kind: tuple):
        self.sft = sft
        self.words = list(words)
        self.n = len(self.words[0])
        self.kind = kind
        self._arr = np.asarray(self.words, dtype=np.int8)
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

    def _level_table(self, ell: int) -> np.ndarray:
        if ell in self._tables:
            return self._tables[ell]
        depth = max(ell, min(self.n + 1, _DSTAR_DEPTH))
        engine = _TableEngine(self.sft, self._arr, depth)
        tag = self.kind[0]
        if tag == "bernoulli":
            t = engine.bernoulli(self._pi[:, None])
        elif tag == "perm_mix":
            t = engine.perm_mix([(self.kind[1], self.kind[2])])
        else:
            t = engine.markov(self._pi, np.asarray(self.kind[2], dtype=float))
        for d in range(1, depth + 1):
            self._tables.setdefault(d, t[d][0])
        return self._tables[ell]

    def cylinder_tables(self, N: int, budget: int = ENUMERATION_BUDGET) -> list:
        """As :meth:`MarkovComponent.cylinder_tables`: tables over the admissible words."""
        codes = _admissible_codes(self.sft, N, budget)
        return [None] + [self._level_table(ell)[codes[ell]] for ell in range(1, N + 1)]

    def cylinder_prob(self, word) -> float:
        if len(word) == 0:
            return 1.0
        return float(self._level_table(len(word))[np.asarray(word, dtype=np.int64) @ _powers(self.sft.k, len(word))])

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

    integrate = _integrate

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
        return self._arr[idx].reshape(-1).astype(np.int64)


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


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """Number of True entries in each row of a 2-D boolean array."""
    return np.einsum("ij->i", mask.view(np.int8), dtype=np.int8 if mask.shape[1] < 128 else np.int32)


def _classify(sft: Sft, W: np.ndarray, tables: list, zeta: float, N: int = _DSTAR_DEPTH) -> np.ndarray:
    """Masks (targets, rows) of rows of W whose cyclic empirical measure is
    zeta/2-close to each target's tables.

    Levels are processed in order with running partial sums of the d*
    series; a word is rejected for a target as soon as its partial sum
    reaches zeta/2 and accepted as soon as even all-ones deeper deviations
    cannot lift it there.  Each level's empirical histogram is built once
    for the rows still undecided under some target, from window codes that
    extend the previous level's codes by one symbol; levels with few codes
    are counted code by code, deeper ones by one bincount per row block.
    """
    num, n = W.shape
    k = sft.k
    half = zeta / 2.0
    accepted = np.zeros((len(tables), num), dtype=bool)
    live = np.arange(num)
    # Partial sums and undecided flags of the live rows.  A row decided
    # under one target keeps accumulating there while another target still
    # needs it, which is harmless: only undecided entries are ever tested.
    partial = np.zeros((len(tables), num))
    undecided = np.ones((len(tables), num), dtype=bool)
    codes, pad = W, None
    dtype = next(t for t in (np.int16, np.int32, np.int64) if k**N <= np.iinfo(t).max)
    for ell in range(1, N + 1):
        size = k**ell
        if ell > 1:
            if pad is None:
                pad = np.concatenate([codes, codes[:, : N - 1]], axis=1)
                codes = pad[:, :n].astype(dtype)
            codes = codes * k + pad[:, ell - 1 : ell - 1 + n]
        if size <= n:
            emps = [(0, np.stack([_row_counts(codes == c) for c in range(size)]) / n)]
        else:
            chunk = max(1, (1 << 20) // size)
            emps = []
            for start in range(0, live.size, chunk):
                c = codes[start : start + chunk].astype(np.int64)
                rows = c.shape[0]
                flat = (c * rows + np.arange(rows)[:, None]).ravel()
                emps.append((start, np.bincount(flat, minlength=size * rows).reshape(size, rows) / n))
        for i, t in enumerate(tables):
            for start, emp in emps:
                dev = np.abs(emp - t[ell][:, None]).max(axis=0)
                partial[i, start : start + dev.size] += dev / 2.0**ell
        rem = 2.0**-ell - 2.0**-N
        ok = undecided & (partial + rem < half)
        for i in np.flatnonzero(ok.any(axis=1)):
            accepted[i, live[ok[i]]] = True
        undecided &= ~ok & (partial < half)
        keep = undecided.any(axis=0)
        if not keep.any():
            break
        live, partial, undecided, codes = live[keep], partial[:, keep], undecided[:, keep], codes[keep]
        if pad is not None:
            pad = pad[keep]
    return accepted


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
                    masks = _classify(sft, cand, tables, zeta)
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
            sets = [list(map(tuple, np.concatenate(accepted[i], axis=0).tolist())) for i in range(K)]
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

    engine = _TableEngine(pack.sft, np.asarray(union, dtype=np.int8), N)
    starts = np.concatenate([[0], np.cumsum(counts)])
    TH_unif = np.zeros((numU, K))
    for i in range(K):
        TH_unif[starts[i] : starts[i + 1], i] = 1.0 / counts[i]
    # Tables of all depths side by side; d* is a weighted sum of per-depth
    # maxima over the segments.
    offsets = np.cumsum([0] + [pack.sft.k**ell for ell in range(1, N)])
    weights = 2.0 ** -np.arange(1, N + 1)

    def flat(tables: list) -> np.ndarray:
        return np.concatenate(tables[1:], axis=-1)

    def dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(np.abs(a - b), offsets, axis=1) @ weights

    t_target = np.stack([flat(t) for t in target_tables])
    t_grid = grid @ t_target
    H, S, P = engine.stats(TH_unif)
    push = dist(flat(engine.bernoulli_tables(H, S, P)), t_target)
    # A matched lift spreads each theta_i uniformly over G_i, so its
    # statistics are the grid mixtures of the uniform lifts' statistics.
    t_match = engine.bernoulli_tables(None if H is None else grid @ H, grid @ S, grid @ P)
    D_gm = dist(t_grid, flat(t_match))  # d(grid theta, matched lift theta), per theta

    # Each sample is drawn once and its tables at every depth come from one
    # set of statistics: Dirichlet Bernoulli weights at even indices,
    # permutation mixtures at odd ones.
    block = 64
    D_gs = np.zeros((G, samples))  # d(grid theta, sampled chain)
    for lo in range(0, samples, block):
        hi = min(samples, lo + block)
        t_samp = np.empty((hi - lo, t_grid.shape[1]))
        bern, perm = np.arange(lo, hi, 2), np.arange(lo + 1, hi, 2)
        if bern.size:
            TH = np.stack([_sample_weights(numU, seed, int(s)) for s in bern])
            t_samp[bern - lo] = flat(engine.bernoulli(TH.T))
        if perm.size:
            t_samp[perm - lo] = flat(engine.perm_mix([_sample_perm_spec(numU, seed, int(s)) for s in perm]))
        for s in range(lo, hi):
            D_gs[:, s] = dist(t_grid, t_samp[s - lo])

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
    vals[_admissible_codes(system.base, m)[m]] = roof.values(admissible_words(system.base, m))
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
