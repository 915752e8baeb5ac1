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
  and of the N-1 joint (suffix_a, prefix_{N-a}) histograms of consecutive
  words, k^N bins each; the crossing tables are marginals of the running
  sums of the joints, and a permutation chain counts its joints as integers
  from a few histograms of wider windows of the (suffix, prefix) pair code;
* the certificate draws each random chain once, reads all its depths from
  one set of statistics, and evaluates the full-depth distance between a
  grid mixture and a sample only where a shallow-depth lower bound leaves
  the pair a candidate for a row or column minimum;
* the factory classifies one necklace per rotation class against all
  targets at once (the periodic measure is the same for every rotation),
  extending window codes level by level for the rows still undecided; the
  necklaces of each block length come from prenecklaces kept from the
  previous length, and a pack's words are one int8 array per set;
* spectral quantities are taken on the word graph collapsed to its
  (suffix, prefix) classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InputError, _check_count, _check_tol, _number
from .measures import InvariantMeasure, _entropy_rate, _integrate, d_star
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
from .spectrum import _brentq
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

    The in-word windows of length ell are the length-ell prefixes of the H
    windows plus the windows inside the suffix; the one at offset j sums S
    over its last N-1-j-ell digits and then its first j, a grouping that
    keeps the tables bitwise those of summing each window on its own.  A
    crossing window of length ell is the first ell digits of the window
    (suffix_a, prefix_{N-a}) of some a < ell, so with J_a the joint
    histogram of that pair its table is the ell-digit marginal of the
    running sum J_1 + ... + J_{ell-1} (:meth:`_crossing`).  For i.i.d. words
    J_a = su_a (x) pr_{N-a}, the outer product of the suffix and prefix
    marginals; a chain counts it from the word pairs (:meth:`_perm_joints`,
    :meth:`markov`).  H, S and P of a whole block of weight vectors are one
    product with a stacked sparse operator.  Every table method returns a
    list indexed by ell = 1..N (entry 0 is None) of (batch, k^ell) arrays.
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
        from scipy import sparse  # loaded by the horseshoe engine only
        op = sparse.csc_matrix(
            (np.ones(rows.size), rows.ravel(), indptr), shape=(self._h + 2 * k**m, self.num)
        ).tocsr()
        op.sum_duplicates()
        self._op = op
        self._uniform = None
        self._windows = None

    def stats(self, W: np.ndarray) -> tuple:
        """(H, S, P) for the weight columns of W (num, B); H is None when N > n."""
        Y = np.ascontiguousarray((self._op @ np.ascontiguousarray(W, dtype=float)).T)
        h, km = self._h, self.k ** (self.N - 1)
        return (Y[:, :h] if h else None), Y[:, h : h + km], Y[:, h + km :]

    def _inword(self, H, S) -> list:
        """In-word tables from H and S (see the class docstring)."""
        k, N, m = self.k, self.N, self.N - 1
        B = len(S)
        out = [None] * (N + 1)
        out[N] = np.zeros((B, k**N)) if H is None else H
        for ell in range(m, 0, -1):
            out[ell] = _drop_last(out[ell + 1], k)
        # Y[r] is S with its last r digits summed out; the suffix window at
        # offset j of length ell sums the first j digits of Y[m - j - ell].
        Y = [S] + [S.reshape(B, -1, k**r).sum(axis=2) for r in range(1, m)]
        for ell in range(1, m + 1):
            for j in range(m - ell + 1):
                out[ell] = out[ell] + Y[m - j - ell].reshape(B, k**j, k**ell).sum(axis=1)
        return out

    def _crossing(self, joints, B: int) -> list:
        """Crossing tables from the joints J_a (B, k^N), a = 1..N-1, of
        (suffix_a, prefix_{N-a}) in flat bin suffix_a * k^(N-a) + prefix_{N-a}."""
        out = [None, np.zeros((B, self.k))]
        run = None
        for ell, J in zip(range(2, self.N + 1), joints):
            run = J if run is None else run + J
            cur = run
            for _ in range(self.N - ell):
                cur = _drop_last(cur, self.k)
            out.append(cur)
        return out

    def _independent(self, H, S, P) -> tuple:
        """(in-word, crossing) tables of i.i.d. words with statistics H, S, P."""
        k, N, B = self.k, self.N, len(S)
        su = [None] + [S.reshape(B, -1, k**a).sum(axis=1) for a in range(1, N)]
        pr = [None] + [P.reshape(B, k**b, -1).sum(axis=2) for b in range(1, N)]
        joints = ((su[a][:, :, None] * pr[N - a][:, None, :]).reshape(B, -1) for a in range(1, N))
        return self._inword(H, S), self._crossing(joints, B)

    def bernoulli_tables(self, H, S, P) -> list:
        inw, cross = self._independent(H, S, P)
        return [None] + [(inw[ell] + cross[ell]) / self.n for ell in range(1, self.N + 1)]

    def bernoulli(self, W: np.ndarray) -> list:
        """Tables of i.i.d. words drawn with the weight columns of W (num, B)."""
        return self.bernoulli_tables(*self.stats(W))

    def _perm_joints(self, perms: list):
        """Integer joints J_1..J_{N-1} (B, k^N) of (suffix_a, prefix_{N-a}[perm]).

        With m = N-1 and c = suffix_m * k^m + prefix_m[perm], J_a is the
        histogram of the N base-k digits of c from position m-a on, so w
        consecutive joints are marginals of one histogram of a window of
        N+w-1 digits.  Rule: w is the largest count in 1..m whose window has
        at most as many bins as there are words (1 when none has), and the
        m joints are split into ceil(m / w) windows as evenly as possible.
        A window's histogram then costs about one pass over the words, and
        one window holds every joint once the words number at least the
        k^(2m) codes of c.  A window's code is a suffix part, tabulated once,
        plus the permuted prefixes, gathered once per permutation, divided
        by the window's power of k.
        """
        k, N, m, B = self.k, self.N, self.N - 1, len(perms)
        if self._windows is None:
            wmax = 1
            while wmax < m and k ** (N + wmax) <= self.num:
                wmax += 1
            count = -(-m // wmax)
            w = -(-m // count)
            self._windows = []
            for a0 in range(1, N, w):
                width = min(w, N - a0)
                hi = (self.suf % k ** (a0 + width - 1)) * k ** (N - a0)
                self._windows.append((width, hi, k ** (a0 - 1)))
        hists = [np.empty((B, k ** (N + width - 1)), dtype=np.int64) for width, _, _ in self._windows]
        for i, perm in enumerate(perms):
            pre = self.pre[perm]
            for h, (_, hi, div) in zip(hists, self._windows):
                h[i] = np.bincount((pre if div == 1 else pre // div) + hi, minlength=h.shape[1])
        for h, (width, _, _) in zip(hists, self._windows):
            # J_{a0+j} drops the last j and the first width-1-j digits.
            for j in range(width):
                yield h.reshape(B, k ** (width - 1 - j), k**N).sum(axis=1)
                if j + 1 < width:
                    h = _drop_last(h, k)

    def perm_mix(self, specs: list) -> list:
        """Tables of (eps, perm) word chains with uniform marginal."""
        if self._uniform is None:
            self._uniform = self._independent(*self.stats(np.full((self.num, 1), 1.0 / self.num)))
        inw, indep = self._uniform
        pair = self._crossing(self._perm_joints([perm for _, perm in specs]), len(specs))
        eps = np.array([e for e, _ in specs])[:, None]
        return [None] + [
            (inw[ell] + (1.0 - eps) * indep[ell] + eps * (pair[ell] / self.num)) / self.n for ell in range(1, self.N + 1)
        ]

    def markov(self, pi: np.ndarray, Q: np.ndarray) -> list:
        """Tables of the word chain with stationary vector pi and transitions Q."""
        k, N = self.k, self.N
        PQ = pi[:, None] * Q

        def joints():
            for a in range(1, N):
                b = N - a
                su = _onehot(self.suf % k**a, k**a).T
                pr = _onehot(self.pre // k ** (a - 1), k**b)
                # Bin the smaller side first so the intermediate stays num x k^min(a, b).
                yield np.asarray(su @ (PQ @ pr) if b <= a else (su @ PQ) @ pr).reshape(1, -1)

        H, S, _ = self.stats(pi[:, None])
        inw, cross = self._inword(H, S), self._crossing(joints(), 1)
        return [None] + [(inw[ell] + cross[ell]) / self.n for ell in range(1, N + 1)]


def _drop_last(x: np.ndarray, k: int) -> np.ndarray:
    """Sum out the last base-k digit of the codes that index the columns of x."""
    out = x[:, 0::k]
    for i in range(1, k):
        out = out + x[:, i::k]
    return out


def _onehot(codes: np.ndarray, size: int):
    from scipy import sparse
    num = codes.shape[0]
    return sparse.csr_matrix((np.ones(num), codes, np.arange(num + 1)), shape=(num, size))


class WordProcessMeasure:
    """Stationary word-concatenation process pushed to the ambient shift.

    ``words`` is the alphabet of n-blocks, a list of words or a (num, n)
    integer array; the word sequence is drawn from a stationary chain given
    by ``kind``:

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
        self.words = words if isinstance(words, np.ndarray) else list(words)
        self._arr = np.asarray(self.words, dtype=np.int8)
        num, self.n = self._arr.shape
        self.kind = kind
        self._tables: dict = {}
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
            num = len(self._arr)
            a = (1.0 - eps) / num
            b = a + eps
            if eps == 0:
                h = float(np.log(num))
            else:  # at eps = 1 the chain is the permutation, and a = 0
                h = float(-b * np.log(b) - ((num - 1) * a * np.log(a) if a > 0 else 0.0))
        else:
            h = _entropy_rate(self._pi, self.kind[2])
        return h / self.n

    integrate = _integrate

    def sample_path(self, num_words: int, rng) -> np.ndarray:
        """Concatenation of num_words sampled blocks, as a symbol array."""
        tag = self.kind[0]
        num = len(self._arr)
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
    ``word_sets`` holds tuples of ints and is what ``to_json`` writes;
    :attr:`word_arrays` holds the same sets as int8 arrays, which the table
    engine, the lifts and the flow roots read.  The build hands the arrays
    over with the pack; a pack made otherwise (``from_json``) converts its
    word sets on first use.
    """

    sft: Sft
    n: int
    anchor: int
    eta: float
    zeta: float
    word_sets: list
    measures: list
    meta: dict = field(default_factory=dict)
    _arrays: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def word_arrays(self) -> list:
        """``word_sets[i]`` as one (count, n) int8 array, rows in the same order."""
        if self._arrays is None:
            self._arrays = [np.asarray(ws, dtype=np.int8).reshape(len(ws), self.n) for ws in self.word_sets]
        return self._arrays

    @property
    def union_words(self) -> list:
        out = []
        for ws in self.word_sets:
            out.extend(ws)
        return out

    def entropies(self) -> list:
        return [float(np.log(len(ws))) / self.n for ws in self.word_sets]

    def uniform_lift(self, i: int) -> WordProcessMeasure:
        arr = self.word_arrays[i]
        return WordProcessMeasure(self.sft, arr, ("bernoulli", np.full(len(arr), 1.0 / len(arr))))

    def mixture_lift(self, theta) -> WordProcessMeasure:
        """Word-Bernoulli matching the target mixture sum(theta_i mu_i)."""
        weights = []
        for t, ws in zip(theta, self.word_sets):
            weights.extend([t / len(ws)] * len(ws))
        return WordProcessMeasure(self.sft, np.concatenate(self.word_arrays), ("bernoulli", np.asarray(weights)))

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
        if not isinstance(data, dict):
            raise InputError("pack document must be an object")
        if missing := sorted({"sft", "n", "anchor", "eta", "zeta", "word_sets", "measures"} - set(data)):
            raise InputError(f"missing pack keys {missing}")
        word_sets, measures, meta = data["word_sets"], data["measures"], data.get("meta", {})
        if not (isinstance(word_sets, list) and all(isinstance(ws, list) for ws in word_sets)
                and isinstance(measures, list) and isinstance(meta, dict)):
            raise InputError("pack word_sets must be a list of lists, measures a list and meta an object")
        sft = Sft.from_json(data["sft"])
        _check_count("n", data["n"], 1)
        _check_count("anchor", data["anchor"], 0)
        eta, zeta = _number("eta", data["eta"]), _number("zeta", data["zeta"])
        _check_tol(eta=eta, zeta=zeta)
        word_sets = [[_parse_word_key(wk, sft.k) for wk in ws] for ws in word_sets]
        measures = [InvariantMeasure.from_json(sft, d) for d in measures]
        return cls(
            sft=sft,
            n=data["n"],
            anchor=data["anchor"],
            eta=eta,
            zeta=zeta,
            word_sets=word_sets,
            measures=measures,
            meta=dict(meta),
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


class _Prenecklaces:
    """The prenecklaces of one length that start at ``anchor``, grown a
    symbol at a time.

    Rows grow by the prenecklace rule of Fredricksen, Kessler and
    Maiorana: a row w with Lyndon-prefix length p takes the symbol s at
    position i only if s >= w[i-p], keeping p when equal and setting p = i+1
    when larger; at length n the necklaces are the rows with p | n.  The
    walker keeps one level, as int8 rows with their periods in blocks in
    lexicographic order, so a walk to n after a walk to n - 1 extends one
    level (Cattell et al. 2000, J. Algorithms 37).  A block of at most
    _CHUNK_ROWS // k rows is extended at a time.  ``spent`` counts the rows
    ever materialised, the sum of the level sizes from length 2 on, which is
    what a walk from length 1 costs; the budget is charged against it, so it
    fires at the same length however the walk is split.  A walker that
    raised is not walked again.
    """

    def __init__(self, sft: Sft, anchor: int):
        self.sft, self.anchor = sft, anchor
        self.length = 1
        self.level = [(np.full((1, 1), anchor, dtype=np.int8), np.ones(1, dtype=np.int32))]
        self.spent = 0

    def necklaces(self, n: int):
        """Grow the level to length n (at least the current length) and yield
        (words, periods) of its closable necklaces, one chunk per block."""
        A = self.sft.A > 0
        step = max(1, _CHUNK_ROWS // self.sft.k)
        syms = np.arange(self.sft.k, dtype=np.int8)
        while self.length < n:
            i = self.length
            old, self.level = self.level[::-1], []
            while old:
                words, periods = old.pop()  # released once extended
                for lo in range(0, len(words), step):
                    arr, p = words[lo : lo + step], periods[lo : lo + step]
                    ref = arr[np.arange(len(arr)), i - p]
                    rows, s = np.nonzero(A[arr[:, -1]] & (syms >= ref[:, None]))
                    self.spent += rows.size
                    if self.spent > _BUILD_ROW_BUDGET:
                        raise DomainError(
                            f"enumeration of anchored {n}-words exceeds the budget",
                            name="enumeration_too_large",
                        )
                    if rows.size:
                        grown = np.empty((rows.size, i + 1), dtype=np.int8)
                        grown[:, :i] = arr[rows]
                        grown[:, i] = s
                        self.level.append((grown, np.where(s == ref[rows], p[rows], i + 1)))
            self.length = i + 1
        for words, periods in self.level:
            keep = (n % periods == 0) & A[words[:, -1], self.anchor]
            if keep.any():
                yield words[keep], periods[keep]


def _necklace_chunks(sft: Sft, n: int, anchor: int):
    """Yield (words, periods): the closable admissible n-words that start at
    ``anchor`` and are least among their rotations, one per rotation class,
    in lexicographic order: a fresh :class:`_Prenecklaces` walked to n."""
    return _Prenecklaces(sft, anchor).necklaces(n)


def _anchored_rotations(classes: list, anchor: int) -> np.ndarray:
    """Sorted rotations, starting at ``anchor``, of (words, periods) classes."""
    W = np.concatenate([w for w, _ in classes])
    per = np.concatenate([p for _, p in classes])
    n = W.shape[1]
    r, j = np.nonzero((W == anchor) & (np.arange(n) < per[:, None]))
    rot = sliding_window_view(np.concatenate([W, W], axis=1), n, axis=1)[r, j]
    return rot[np.lexsort(rot.T[::-1])]


def build_multi_horseshoe(sft: Sft, measures, eta: float, zeta: float, n_max: int, seed=None) -> HorseshoePack:
    """Search block lengths up to n_max for a valid anchored pack.

    For each n, the rotation classes of closable n-words are classified
    once, by their necklaces; each target keeps the classes within zeta/2
    in d*, and counts at anchor a the rotations that start with a.  The
    pack is accepted once every count satisfies
    log|G_i|/n > h(mu_i) - eta/2, which leaves the certificate margin at
    least eta/2.  Each anchor's necklaces come from one
    :class:`_Prenecklaces` walker that moves one level per n.
    """
    measures = list(measures)
    if not measures:
        raise InputError("need at least one target measure")
    _check_tol(eta=eta, zeta=zeta)
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            if d_star(measures[i], measures[j]) < zeta:
                raise DomainError(
                    f"targets {i} and {j} are closer than zeta in d*", name="targets"
                )
    n_start = max(_DSTAR_DEPTH, 2)
    if n_max < n_start:
        raise DomainError(f"n_max={n_max} is below the minimum block length {n_start}", name="smb_depth")
    tables = [_measure_tables(sft, mu, _DSTAR_DEPTH) for mu in measures]
    hs = [mu.entropy() for mu in measures]
    K = len(measures)
    best = None  # (deficit, n, anchor)
    exhausted = False
    walkers = [_Prenecklaces(sft, anchor) for anchor in range(sft.k)]
    for n in range(n_start, n_max + 1):
        # A necklace starts with its least symbol, so by anchor a every class
        # through a is classified; counts[i, a] counts rotations starting at a.
        accepted = [[] for _ in range(K)]
        counts = np.zeros((K, sft.k), dtype=np.int64)
        for anchor in range(sft.k):
            try:
                for cand, per in walkers[anchor].necklaces(n):
                    masks = _classify(sft, cand, tables, zeta)
                    for i in range(K):
                        for j in range(i + 1, K):
                            if bool((masks[i] & masks[j]).any()):
                                raise DomainError("word sets overlap", name="targets")
                    for i, mask in enumerate(masks):
                        if mask.any():
                            words, periods = cand[mask], per[mask]
                            accepted[i].append((words, periods))
                            counts[i] += np.bincount(words[np.arange(n) < periods[:, None]], minlength=sft.k)
            except DomainError as exc:
                if exc.name != "enumeration_too_large":
                    raise
                exhausted = True
                break
            deficit = -np.inf
            ok = True
            for i in range(K):
                need = hs[i] - eta / 2.0
                have = np.log(counts[i, anchor]) / n if counts[i, anchor] > 0 else -np.inf
                deficit = max(deficit, need - have)
                if not have > need:
                    ok = False
            if best is None or deficit < best[0]:
                best = (deficit, n, anchor)
            if not ok:
                continue
            arrays = [_anchored_rotations(classes, anchor) for classes in accepted]
            pack = HorseshoePack(
                sft=sft,
                n=n,
                anchor=anchor,
                eta=eta,
                zeta=zeta,
                word_sets=[list(map(tuple, arr.tolist())) for arr in arrays],
                measures=measures,
                meta={"seed": seed, "n_max": n_max},
            )
            pack._arrays = arrays
            return pack
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
    """Barycentric grid with denominator res over K vertices, in lexicographic
    order: stars and bars, the K - 1 bars at each increasing choice of
    positions among res + K - 1."""
    bars = np.array(list(combinations(range(res + K - 1), K - 1)), dtype=np.int64)
    walls = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, res + K - 1))
    return (np.diff(walls, axis=1) - 1) / res


# Depths whose maxima bound every (grid, sample) distance from below, and
# the element count of one temporary difference array.  Depth 5 reads 62 of
# the 2,046 table columns at N = 10 and was the fastest of depths 4..8 on
# the k = 2 packs of criterion 8 and of the benchmark.
_BOUND_DEPTH = 5
_PAIR_CHUNK = 1 << 16


def _deep_maxima(t_grid, t_samp, s, g, offsets, L: int) -> np.ndarray:
    """Per-depth maxima of |t_samp[s] - t_grid[g]| at the depths past L, for the pairs (s, g)."""
    cut = offsets[L]
    out = np.empty((len(s), len(offsets) - L))
    step = max(1, _PAIR_CHUNK // (t_grid.shape[1] - cut))
    for lo in range(0, len(s), step):
        diff = np.abs(t_samp[s[lo : lo + step], cut:] - t_grid[g[lo : lo + step], cut:])
        out[lo : lo + step] = np.maximum.reduceat(diff, offsets[L:] - cut, axis=1)
    return out


def _nearest_pairs(t_grid, t_samp, row, offsets, weights) -> np.ndarray:
    """Exact min over g of d*(grid g, sample s), for each sample s of t_samp.

    ``row`` is lowered in place to min(row[g], d*(g, s) over these samples).
    A pair's distance is its per-depth maxima summed as the (G, N) @ weights
    product of its sample, as an all-pairs loop would sum them.  The sum
    over the depths up to _BOUND_DEPTH bounds it from below; the remaining
    depths are evaluated first for each sample's pair of least bound and
    then only for the pairs whose bound does not exceed their row's or
    column's least evaluated distance.  Both sums have at most N nonnegative
    terms, so a bound is within a factor 1 + 2N*eps of the distance it
    bounds, and that factor is the pruning margin.
    """
    b, G, N = len(t_samp), len(t_grid), len(weights)
    L = min(_BOUND_DEPTH, N)
    cut = offsets[L] if L < N else t_grid.shape[1]
    M = np.zeros((b, G, N))
    step = max(1, _PAIR_CHUNK // (G * cut))
    for lo in range(0, b, step):
        diff = np.abs(t_samp[lo : lo + step, None, :cut] - t_grid[None, :, :cut])
        M[lo : lo + step, :, :L] = np.maximum.reduceat(diff, offsets[:L], axis=2)
    bound = M[:, :, :L] @ weights[:L]
    D = np.full((b, G), np.inf)

    def evaluate(s, g):
        if L < N:
            M[s, g, L:] = _deep_maxima(t_grid, t_samp, s, g, offsets, L)
        D[s, g] = (M @ weights)[s, g]
        np.minimum(row, D.min(axis=0), out=row)

    evaluate(np.arange(b), bound.argmin(axis=1))
    margin = 1.0 + 2 * N * np.finfo(float).eps
    near = (bound <= row * margin) | (bound <= D.min(axis=1, keepdims=True) * margin)
    evaluate(*np.nonzero(near & np.isinf(D)))
    return D.min(axis=1)


def _hausdorff(t_grid, d_match, blocks, samples: int, offsets, weights) -> tuple:
    """Hausdorff estimates over all samples and over the first max(1, samples // 2).

    ``blocks`` yields the sample tables in sample order.  An estimate is the
    larger of the cover max_g min(d_match[g], min_s d*(g, s)) and the
    spread max_s min_g d*(g, s); every minimum is exact (:func:`_nearest_pairs`).
    """
    half = max(1, samples // 2)
    row, cols, seen = np.array(d_match, dtype=float), np.empty(samples), 0
    for t in blocks:
        cuts = [0, len(t)]
        if seen < half < seen + len(t):
            cuts.insert(1, half - seen)
        for a, b in zip(cuts, cuts[1:]):
            cols[seen + a : seen + b] = _nearest_pairs(t_grid, t[a:b], row, offsets, weights)
            if seen + b == half:
                row_half = row.copy()
        seen += len(t)
    return (
        max(float(row.max()), float(cols.max())),
        max(float(row_half.max()), float(cols[:half].max())),
    )


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
    disjoint word alphabets, and their entropies are recomputed as
    log(count) / n for block length n: free concatenation makes each word
    graph complete, so its Perron root is the word count.  Condition 3 is
    a statistical certificate: a theta-grid of target mixtures is
    matched by constructed lifts, and seeded random word-level chains
    (Dirichlet Bernoulli weights alternating with permutation mixtures,
    each sample's generator seeded by its counter index) are matched back
    to the grid; the Hausdorff estimate is reported at the full and at half
    the sample count.  The tables of a block of samples come from the
    table engine (windowed integer joints for the permutation mixtures,
    one crossing routine for all kinds), and the distance minima behind
    both estimates are exact although most (grid, sample) pairs are only
    bounded from below at the shallow depths (:func:`_nearest_pairs`).
    The engine reads the union of the pack's :attr:`HorseshoePack.word_arrays`.
    ``samples`` must be an integer >= 1 and ``seed`` an integer >= 0.
    """
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
    K = len(pack.word_sets)
    N = min(_DSTAR_DEPTH, pack.n + 1)
    counts = [len(ws) for ws in pack.word_sets]
    numU = sum(counts)
    disjoint = len(set().union(*pack.word_sets)) == numU

    entropies = [float(np.log(c)) / pack.n for c in counts]
    target_h = [mu.entropy() for mu in pack.measures]
    margins = [e - (h - pack.eta) for e, h in zip(entropies, target_h)]

    target_tables = [_measure_tables(pack.sft, mu, N) for mu in pack.measures]
    grid = _simplex_grid(K, 40 if K == 2 else 8)
    G = grid.shape[0]

    engine = _TableEngine(pack.sft, np.concatenate(pack.word_arrays), N)
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
    block = 32

    def sample_tables():
        for lo in range(0, samples, block):
            hi = min(samples, lo + block)
            t_samp = np.empty((hi - lo, t_grid.shape[1]))
            bern, perm = np.arange(lo, hi, 2), np.arange(lo + 1, hi, 2)
            if bern.size:
                TH = np.stack([_sample_weights(numU, seed, int(s)) for s in bern], axis=1)
                t_samp[bern - lo] = flat(engine.bernoulli(TH))
            if perm.size:
                t_samp[perm - lo] = flat(engine.perm_mix([_sample_perm_spec(numU, seed, int(s)) for s in perm]))
            yield t_samp

    est, est_half = _hausdorff(t_grid, D_gm, sample_tables(), samples, offsets, weights)
    push_dist = [float(p) for p in push]

    cond1 = {
        "alphabet_sizes": counts,
        "transitive": all(c >= 1 for c in counts),
        "disjoint": bool(disjoint),
    }
    cond2 = {
        "horseshoe_entropies": entropies,
        "count_entropies": entropies,
        "target_entropies": target_h,
        "margins": margins,
        "all_positive": bool(all(m > 0.0 for m in margins)),
    }
    cond3 = {
        "kind": "statistical certificate",
        "samples": int(samples),
        "seed": int(seed),
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
    """Bowen root for the free concatenation of ``words`` (a list of words or
    a (num, n) integer array) under the roof.

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

    codes = _admissible_codes(system.base, m)[m]
    vals = np.zeros(k**m)
    vals[codes] = roof.values(admissible_words(system.base, m))
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
        # The junction's window at offset t takes the last m - 1 - t digits
        # of the suffix and the first t + 1 of the prefix; the roof is summed
        # over the offsets in order.
        cross = 0.0
        for t in range(m - 1):
            window = su_classes[:, None] % k ** (m - 1 - t) * k ** (t + 1) + pr_classes[None, :] // k ** (m - 2 - t)
            if not np.isin(window, codes).all():
                raise InputError("the words do not concatenate freely: a junction window is not admissible")
            cross = cross + vals[window]
        # Bin each word by (prefix class, suffix class); the collapsed
        # product is M[u,v] * G[v,u'] with G the class-binned exponentials.
        combo = np.searchsorted(pr_classes, pre) * Ks + np.searchsorted(su_classes, suf)

        def f(s: float) -> float:
            wts = np.exp(-s * (base - b0))
            Gm = np.bincount(combo, weights=wts, minlength=Kp * Ks).reshape(Kp, Ks)
            M = np.exp(-s * cross)
            lam, _, _ = _perron_right(M @ Gm)
            return float(np.log(lam)) - s * b0

    if hi - lo < 1e-15:
        return lo
    known: dict = {}  # the bracket test's f(lo) and f(hi) serve Brent's first step

    def f_known(s: float) -> float:
        if s not in known:
            known[s] = f(s)
        return known[s]

    if f_known(lo) <= 0.0:
        return lo
    if f_known(hi) >= 0.0:
        return hi
    root, converged = _brentq(f_known, lo, hi, 1e-14, 8.9e-16, 200)
    if not converged:
        msg = f"Bowen root did not converge in [{lo:.17g}, {hi:.17g}]: last s {root:.17g}"
        raise DomainError(msg, name="no_convergence")
    return root


def lift_pack_to_flow(system: SuspensionSystem, pack: HorseshoePack, mixtures: int = 50, seed: int = 0) -> dict:
    """Transport the pack's certificate to the suspension flow.

    Horseshoe flow entropies are Bowen roots on the word graphs, target
    entropies follow Abramov, and the entropy margins are re-expressed with
    eta divided by each target's roof integral (so a constant roof scales
    all margins by the same factor).  The mixture reweighting identity is
    checked on seeded random mixtures and several probe observables: the
    left side is the flow integral of the mixed measure, the right side the
    flow-reweighted sum of the targets' flow integrals.  Those target
    integrals are computed once per call and each mixture's roof integral
    once per mixture; the flow roots and lifts read the pack's word arrays.
    ``mixtures`` must be an integer >= 1 and ``seed`` an integer >= 0.
    """
    _check_count("mixtures", mixtures, 1)
    _check_count("seed", seed, 0)
    if system.base != pack.sft:
        raise InputError("pack and suspension live over different SFTs")
    K = len(pack.word_sets)
    N = min(_DSTAR_DEPTH, pack.n + 1)
    roof = system.roof
    roof_ints = [mu.integrate(roof) for mu in pack.measures]
    flow_target_h = [abramov_entropy(system, mu) for mu in pack.measures]
    flow_horseshoe_h = [_word_roof_root(system, arr) for arr in pack.word_arrays]
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
    target_flow = [[flow_integral(system, mu, phi) for mu in pack.measures] for phi in probes]
    worst = 0.0
    for _ in range(mixtures):
        theta = rng.dirichlet(np.ones(K))
        mix = InvariantMeasure.mix(list(zip(theta, pack.measures)))
        flow_theta = flow_mixture_weights(system, pack.measures, theta)
        mix_roof = mix.integrate(roof)
        for phi, flows in zip(probes, target_flow):
            lhs = mix.integrate(phi) / mix_roof
            rhs = sum(t * f for t, f in zip(flow_theta, flows))
            worst = max(worst, abs(lhs - rhs))

    return {
        "flow_horseshoe_entropies": flow_horseshoe_h,
        "flow_target_entropies": flow_target_h,
        "roof_integrals": roof_ints,
        "margins": margins,
        "all_margins_positive": bool(all(m > 0.0 for m in margins)),
        "flow_push_distances": flow_dist,
        "reweighting": {
            "mixtures": int(mixtures),
            "seed": int(seed),
            "max_identity_gap": worst,
            "pass": bool(worst <= 1e-10),
        },
        "pass": bool(all(m > 0.0 for m in margins) and worst <= 1e-10),
    }
