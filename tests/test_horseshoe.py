from __future__ import annotations

import hashlib
import math
import json

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import bernoulli_measure
from symflow import horseshoe
from symflow.errors import DomainError, InputError
from symflow.horseshoe import (
    _DSTAR_DEPTH,
    HorseshoePack,
    WordProcessMeasure,
    _classify,
    _measure_tables,
    _necklace_chunks,
    _simplex_grid,
    _word_roof_root,
    build_multi_horseshoe,
    certify_pack,
    lift_pack_to_flow,
)
from symflow.measures import InvariantMeasure, MarkovComponent, _entropy_rate, d_star, periodic_orbit_measure, random_markov_component
from symflow.sft import LocallyConstantFunction, Sft, admissible_words
from symflow.suspension import SuspensionSystem


@pytest.fixture(scope="module")
def small_pack():
    full2 = Sft([[1, 1], [1, 1]])
    targets = [bernoulli_measure(full2, [0.75, 0.25]), bernoulli_measure(full2, [0.25, 0.75])]
    return build_multi_horseshoe(full2, targets, eta=0.5, zeta=0.4, n_max=16, seed=0)


def test_build_accepts_small_targets(small_pack):
    pack = small_pack
    assert pack.n == 10 and pack.anchor == 0
    counts = [len(ws) for ws in pack.word_sets]
    assert counts == [189, 91]
    union = pack.union_words
    assert len(set(union)) == len(union)
    A = pack.sft.A
    for ws in pack.word_sets:
        for w in ws:
            assert len(w) == pack.n and w[0] == pack.anchor
            assert all(A[w[i], w[i + 1]] for i in range(pack.n - 1))
            assert A[w[-1], pack.anchor]  # closable back to the anchor
    for e, mu in zip(pack.entropies(), pack.measures):
        assert e > mu.entropy() - pack.eta / 2


def test_random_concatenations_are_admissible(small_pack):
    pack = small_pack
    arr = np.array(pack.union_words, dtype=np.int64)
    rng = np.random.default_rng(0)
    seq = arr[rng.integers(0, arr.shape[0], size=10_001)].reshape(-1)
    assert np.all(pack.sft.A[seq[:-1], seq[1:]] > 0)


def test_uniform_lift_is_zeta_close(small_pack):
    pack = small_pack
    for i in range(len(pack.word_sets)):
        assert d_star(pack.uniform_lift(i), pack.measures[i]) <= pack.zeta


def test_mixture_lift_tracks_target_mixtures(small_pack):
    pack = small_pack
    for theta in ((0.5, 0.5), (0.2, 0.8), (1.0, 0.0)):
        mix = InvariantMeasure.mix(list(zip(theta, pack.measures)))
        assert d_star(pack.mixture_lift(theta), mix) <= pack.zeta


def test_sampled_orbit_pushforward_trials(small_pack):
    pack = small_pack
    lift = pack.uniform_lift(0)
    target = pack.measures[0]
    depth = 5
    for seed in (0, 1, 2):
        path = lift.sample_path(3000, np.random.default_rng(seed))
        dist = 0.0
        for ell in range(1, depth + 1):
            windows = np.lib.stride_tricks.sliding_window_view(path, ell)
            codes = windows @ (2 ** np.arange(ell - 1, -1, -1))
            freq = np.bincount(codes, minlength=2**ell) / len(codes)
            worst = max(
                abs(freq[int("".join(map(str, w)), 2)] - target.cylinder_prob(w))
                for w in admissible_words(pack.sft, ell)
            )
            dist += worst / 2.0**ell
        assert dist + 2.0**-depth < pack.zeta


def test_certify_small_pack(small_pack):
    pack = small_pack
    rep = certify_pack(pack, samples=24, seed=0)
    assert rep["pass"] is True
    c1, c2, c3 = rep["condition1"], rep["condition2"], rep["condition3"]
    assert c1["disjoint"] and c1["transitive"]
    assert c1["alphabet_sizes"] == [189, 91]
    assert c2["all_positive"]
    # Dual routes to the horseshoe entropy: direct count vs Perron root of
    # the free word graph.
    gaps = np.abs(np.array(c2["horseshoe_entropies"]) - np.array(c2["count_entropies"]))
    assert gaps.max() < 1e-12
    assert max(c3["push_distances"]) <= pack.zeta
    assert c3["hausdorff_estimate"] <= pack.zeta
    assert c3["pass"]


def test_certify_is_deterministic(small_pack):
    a = certify_pack(small_pack, samples=16, seed=3)
    b = certify_pack(small_pack, samples=16, seed=3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = certify_pack(small_pack, samples=16, seed=4)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_single_word_pack_fails_condition2(small_pack):
    full2 = small_pack.sft
    mu = bernoulli_measure(full2, [0.8, 0.2])
    word = (0,) * 6
    pack = HorseshoePack(
        sft=full2,
        n=6,
        anchor=0,
        eta=0.15,
        zeta=0.5,
        word_sets=[[word]],
        measures=[mu],
    )
    rep = certify_pack(pack, samples=8, seed=0)
    assert not rep["condition2"]["all_positive"]
    assert rep["pass"] is False


def test_build_rejects_close_targets():
    full2 = Sft([[1, 1], [1, 1]])
    a = bernoulli_measure(full2, [0.55, 0.45])
    b = bernoulli_measure(full2, [0.45, 0.55])
    with pytest.raises(DomainError) as e:
        build_multi_horseshoe(full2, [a, b], eta=0.3, zeta=0.4, n_max=12, seed=0)
    assert e.value.name == "targets"


def test_build_input_validation():
    full2 = Sft([[1, 1], [1, 1]])
    with pytest.raises(InputError):
        build_multi_horseshoe(full2, [], eta=0.3, zeta=0.3, n_max=8)
    mu = bernoulli_measure(full2, [0.75, 0.25])
    with pytest.raises(InputError):
        build_multi_horseshoe(full2, [mu], eta=0.0, zeta=0.3, n_max=8)


def test_build_reports_depth_exhaustion():
    full2 = Sft([[1, 1], [1, 1]])
    targets = [bernoulli_measure(full2, [0.75, 0.25]), bernoulli_measure(full2, [0.25, 0.75])]
    with pytest.raises(DomainError) as e:
        build_multi_horseshoe(full2, targets, eta=0.5, zeta=0.4, n_max=6, seed=0)
    assert e.value.name == "smb_depth"
    assert str(e.value) == "n_max=6 is below the minimum block length 10"


SHIFTS = {
    "full2": [[1, 1], [1, 1]],
    "golden": [[1, 1], [1, 0]],
    "full3": [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    "cycle3": [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    "gap3": [[0, 1, 1], [1, 0, 1], [1, 1, 1]],
}


def brute_necklaces(sft: Sft, n: int, anchor: int) -> tuple:
    """(words, periods) of the anchored closable n-words that are least among
    their rotations, found by comparing base-k codes with every rotation."""
    k = sft.k
    codes, last = np.array([anchor], dtype=np.int64), np.array([anchor])
    for _ in range(n - 1):
        rows, s = np.nonzero(sft.A[last] > 0)
        codes, last = codes[rows] * k + s, s
    codes = codes[sft.A[last, anchor] > 0]
    rots = np.stack([(codes % k ** (n - j)) * k**j + codes // k ** (n - j) for j in range(1, n + 1)])
    least = (codes <= rots).all(axis=0)
    periods = 1 + np.argmax(rots[:, least] == codes[least], axis=0)
    words = codes[least, None] // k ** np.arange(n - 1, -1, -1) % k
    return words, periods


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("shift", sorted(SHIFTS))
def test_necklace_chunks_match_least_rotation_filter(shift, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(horseshoe, "_CHUNK_ROWS", chunk)
    sft = Sft(SHIFTS[shift])
    for n in range(1, 14):
        for anchor in range(sft.k):
            words, periods = brute_necklaces(sft, n, anchor)
            chunks = list(_necklace_chunks(sft, n, anchor))
            got_words = np.concatenate([w for w, _ in chunks]) if chunks else np.zeros((0, n), dtype=np.int8)
            got_periods = np.concatenate([p for _, p in chunks]) if chunks else np.zeros(0, dtype=int)
            assert got_words.dtype == np.int8
            assert np.array_equal(got_words, words), (n, anchor)
            assert np.array_equal(got_periods, periods), (n, anchor)


@pytest.mark.parametrize("shift", sorted(SHIFTS))
def test_walker_across_lengths_matches_fresh_walks(shift, monkeypatch):
    # One walker per anchor, moved a level at a time, yields the chunks of a
    # walk from length 1 and has spent the rows that walk materialises.
    monkeypatch.setattr(horseshoe, "_CHUNK_ROWS", 64)
    sft = Sft(SHIFTS[shift])
    for anchor in range(sft.k):
        walker = horseshoe._Prenecklaces(sft, anchor)
        for n in range(1, 14):
            got = list(walker.necklaces(n))
            fresh = horseshoe._Prenecklaces(sft, anchor)
            want = list(fresh.necklaces(n))
            assert len(got) == len(want), (n, anchor)
            for (gw, gp), (ww, wp) in zip(got, want):
                assert gw.dtype == np.int8 and np.array_equal(gw, ww) and np.array_equal(gp, wp), (n, anchor)
            assert walker.spent == fresh.spent, (n, anchor)


def test_build_budget_fires_where_fresh_walks_do(monkeypatch):
    # With a row budget that the full-2 shift's anchor-0 walk exceeds at
    # n = 12, the build stops there as it does when each n walks from length 1.
    sft = Sft(SHIFTS["full2"])
    targets = _build_targets(sft, ("flip", 0.1))
    walker = horseshoe._Prenecklaces(sft, 0)
    list(walker.necklaces(11))
    monkeypatch.setattr(horseshoe, "_BUILD_ROW_BUDGET", walker.spent + 1)
    shapes = []

    def spy(sft, W, *args, **kwargs):
        shapes.append(W.shape)
        return _classify(sft, W, *args, **kwargs)

    monkeypatch.setattr(horseshoe, "_classify", spy)

    def build() -> tuple:
        shapes.clear()
        with pytest.raises(DomainError) as exc:
            build_multi_horseshoe(sft, targets, eta=0.05, zeta=0.1, n_max=14)
        assert exc.value.name == "smb_depth"
        return str(exc.value), list(shapes)

    got = build()
    assert max(n for _, n in got[1]) == 11

    class FreshWalks:
        def __init__(self, sft, anchor):
            self.sft, self.anchor = sft, anchor

        def necklaces(self, n):
            return type(walker)(self.sft, self.anchor).necklaces(n)

    monkeypatch.setattr(horseshoe, "_Prenecklaces", FreshWalks)
    assert build() == got


def _anchored_words(sft: Sft, n: int, anchor: int) -> np.ndarray:
    """Every closable admissible n-word starting at anchor, in lexicographic order."""
    words = np.full((1, 1), anchor, dtype=np.int8)
    for _ in range(n - 1):
        rows, s = np.nonzero(sft.A[words[:, -1]] > 0)
        words = np.concatenate([words[rows], s[:, None].astype(np.int8)], axis=1)
    return words[sft.A[words[:, -1], anchor] > 0]


def reference_build(sft: Sft, measures, eta: float, zeta: float, n_max: int) -> tuple:
    """(n, anchor, word sets) of the search that classifies every anchored
    closable word, for every n and every anchor."""
    tables = [_measure_tables(sft, mu, _DSTAR_DEPTH) for mu in measures]
    best = None
    for n in range(_DSTAR_DEPTH, n_max + 1):
        for anchor in range(sft.k):
            words = _anchored_words(sft, n, anchor)
            masks = _classify(sft, words, tables, zeta)
            deficit, ok = -np.inf, True
            for mask, mu in zip(masks, measures):
                count = int(mask.sum())
                need = mu.entropy() - eta / 2.0
                have = np.log(count) / n if count > 0 else -np.inf
                deficit, ok = max(deficit, need - have), ok and have > need
            if best is None or deficit < best[0]:
                best = (deficit, n, anchor)
            if ok:
                return n, anchor, [list(map(tuple, words[m].tolist())) for m in masks]
    raise DomainError(
        "SMB depth insufficient: increase n_max "
        f"(best deficit {best[0]:.6g} at n={best[1]}, anchor={best[2]})",
        name="smb_depth",
    )


def _build_targets(sft: Sft, spec: tuple) -> list:
    """Two seeded random memory-1 chains, or one chain that flips symbol with
    probability 1 - eps, whose accepted words include the periodic (01)^(n/2)."""
    if spec[0] == "flip":
        eps = spec[1]
        Q = np.array([[eps, 1.0 - eps], [1.0 - eps, eps]])
        return [InvariantMeasure.single(MarkovComponent(sft, 1, [(0,), (1,)], Q))]
    rng = np.random.default_rng(spec[1])
    return [InvariantMeasure.single(random_markov_component(sft, 1, rng, spec[2])) for _ in range(2)]


# (shift, targets, eta, zeta, n_max, expected outcome)
BUILD_CASES = [
    ("golden", ("markov", 0, 2.0), 0.1, 0.2, 20, (15, 0)),
    ("golden", ("markov", 4, 2.0), 0.1, 0.2, 13, "smb_depth"),
    ("full3", ("markov", 7, 0.5), 0.3, 0.3, 11, (11, 1)),
    ("full3", ("markov", 3, 0.5), 0.3, 0.2, 11, (10, 2)),
    ("full3", ("markov", 7, 0.5), 0.1, 0.3, 11, "smb_depth"),
    ("full2", ("flip", 0.05), 0.2, 0.1, 14, (14, 0)),
    ("full2", ("flip", 0.1), 0.05, 0.1, 14, "smb_depth"),
]


@pytest.mark.parametrize("chunk", [None, 16])
@pytest.mark.parametrize("case", BUILD_CASES, ids=lambda c: f"{c[0]}-{c[1][0]}{c[1][1]}-eta{c[2]}")
def test_build_matches_every_word_search(case, chunk, monkeypatch):
    shift, spec, eta, zeta, n_max, outcome = case
    if chunk is not None:
        monkeypatch.setattr(horseshoe, "_CHUNK_ROWS", chunk)
    sft = Sft(SHIFTS[shift])
    targets = _build_targets(sft, spec)
    if outcome == "smb_depth":
        with pytest.raises(DomainError) as want:
            reference_build(sft, targets, eta, zeta, n_max)
        with pytest.raises(DomainError) as got:
            build_multi_horseshoe(sft, targets, eta=eta, zeta=zeta, n_max=n_max)
        assert got.value.name == "smb_depth"
        assert str(got.value) == str(want.value)
        return
    n, anchor, sets = reference_build(sft, targets, eta, zeta, n_max)
    assert (n, anchor) == outcome
    pack = build_multi_horseshoe(sft, targets, eta=eta, zeta=zeta, n_max=n_max)
    assert (pack.n, pack.anchor) == (n, anchor)
    assert pack.word_sets == sets


def test_build_classifies_each_rotation_class_once(monkeypatch):
    # The benchmark's horseshoe build: full2, n = 10..19.  Every binary
    # necklace of those lengths is classified once, except 1^19: the search
    # settles on anchor 0 at n = 19.
    rows = []

    def spy(sft, W, *args, **kwargs):
        rows.append(W.shape[0])
        return _classify(sft, W, *args, **kwargs)

    monkeypatch.setattr(horseshoe, "_classify", spy)
    full2 = Sft(SHIFTS["full2"])
    targets = [bernoulli_measure(full2, [0.8, 0.2]), bernoulli_measure(full2, [0.2, 0.8])]
    pack = build_multi_horseshoe(full2, targets, eta=0.15, zeta=0.22, n_max=40)

    def necklaces(n: int) -> int:  # binary necklaces of length n
        phi = [sum(np.gcd(i, d) == 1 for i in range(1, d + 1)) for d in range(n + 1)]
        return sum(phi[d] * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n

    assert (pack.n, pack.anchor) == (19, 0)
    assert sum(rows) == sum(necklaces(n) for n in range(10, 20)) - 1 == 58_679
    text = repr([[tuple(int(a) for a in w) for w in ws] for ws in pack.word_sets])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ec8311682304f154655d71b627b335db62f0170da78da4f3d24158a5131fabaa"


def test_word_process_tables_are_probabilities(small_pack):
    pack = small_pack
    lifts = [
        pack.uniform_lift(0),
        pack.mixture_lift((0.3, 0.7)),
        WordProcessMeasure(
            pack.sft,
            pack.word_sets[1],
            ("perm_mix", 0.25, np.roll(np.arange(91), 7)),
        ),
    ]
    for wp in lifts:
        for ell in range(1, 7):
            total = sum(wp.cylinder_prob(w) for w in admissible_words(pack.sft, ell))
            assert abs(total - 1.0) < 1e-9


def test_word_process_tables_match_sampled_paths(small_pack):
    pack = small_pack
    wp = pack.mixture_lift((0.4, 0.6))
    path = wp.sample_path(20_000, np.random.default_rng(5))
    for ell in (1, 2, 3):
        windows = np.lib.stride_tricks.sliding_window_view(path, ell)
        codes = windows @ (2 ** np.arange(ell - 1, -1, -1))
        freq = np.bincount(codes, minlength=2**ell) / len(codes)
        for w in admissible_words(pack.sft, ell):
            p = wp.cylinder_prob(w)
            sigma = max(np.sqrt(p * (1 - p) / len(codes)), 1e-9)
            assert abs(freq[int("".join(map(str, w)), 2)] - p) < 6 * sigma


def dense_flow_root(system: SuspensionSystem, words) -> float:
    """Dumb reference: Bowen root on the dense word-pair junction matrix."""
    words = [tuple(w) for w in words]
    n = len(words[0])
    m = system.roof.memory
    num = len(words)
    R = np.zeros((num, num))
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            uv = u + v
            R[i, j] = sum(system.roof(uv[t : t + m]) for t in range(n))

    def f(s: float) -> float:
        return float(np.log(np.abs(np.linalg.eigvals(np.exp(-s * R))).max()))

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    return float(brentq(f, lo, hi, xtol=1e-13))


@pytest.mark.parametrize("K, res", [(1, 40), (2, 40), (3, 8), (4, 8), (5, 3)])
def test_simplex_grid_lists_every_point_in_lexicographic_order(K, res):
    import itertools

    want = [p for p in itertools.product(range(res + 1), repeat=K) if sum(p) == res]
    grid = _simplex_grid(K, res)
    assert np.array_equal(grid, np.array(want, dtype=float) / res)


def test_word_roof_root_matches_dense_oracle():
    full2 = Sft([[1, 1], [1, 1]])
    words = [(0,) + w for w in admissible_words(full2, 3)]  # anchored 4-blocks
    roofs = [
        LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}),
        LocallyConstantFunction(full2, 2, {(0, 0): 1.0, (0, 1): 1.4, (1, 0): 2.2, (1, 1): 0.7}),
        LocallyConstantFunction.constant(full2, 2.0),
    ]
    for m in (3, 4):  # junction windows that reach two and three digits into each word
        table = np.random.default_rng(m).uniform(0.5, 2.0, size=2**m)
        roofs.append(LocallyConstantFunction(full2, m, dict(zip(admissible_words(full2, m), table))))
    for roof in roofs:
        system = SuspensionSystem(full2, roof)
        got = _word_roof_root(system, words)
        want = dense_flow_root(system, words)
        assert abs(got - want) < 1e-11


def test_word_roof_root_refuses_words_that_do_not_concatenate():
    # On the golden shift 1 cannot follow 1, so (0, 1) followed by (1, 0)
    # has an inadmissible junction window under a memory-2 roof.
    golden = Sft([[1, 1], [1, 0]])
    roof = LocallyConstantFunction(golden, 2, {(0, 0): 1.0, (0, 1): 1.4, (1, 0): 2.2})
    with pytest.raises(InputError):
        _word_roof_root(SuspensionSystem(golden, roof), [(0, 1), (1, 0)])


def test_word_roof_root_names_a_missed_root(monkeypatch):
    from symflow import horseshoe, spectrum

    full2 = Sft([[1, 1], [1, 1]])
    words = [(0,) + w for w in admissible_words(full2, 3)]
    roof = LocallyConstantFunction(full2, 2, {(0, 0): 1.0, (0, 1): 1.4, (1, 0): 2.2, (1, 1): 0.7})
    system = SuspensionSystem(full2, roof)

    def two_steps(f, a, b, xtol, rtol, maxiter):
        return spectrum._brentq(f, a, b, xtol, rtol, 2)

    monkeypatch.setattr(horseshoe, "_brentq", two_steps)
    with pytest.raises(DomainError) as e:
        _word_roof_root(system, words)
    assert e.value.name == "no_convergence"
    assert "Bowen root did not converge in [" in str(e.value) and "last s " in str(e.value)


def test_word_roof_root_solves_each_bracket_end_once(monkeypatch):
    # The bracket test's f(lo) and f(hi) are Brent's first two evaluations:
    # 7 Perron solves instead of 9, and the root to the last bit.
    from symflow import horseshoe

    full2 = Sft([[1, 1], [1, 1]])
    words = [(0,) + w for w in admissible_words(full2, 3)]
    roof = LocallyConstantFunction(full2, 2, {(0, 0): 1.0, (0, 1): 1.4, (1, 0): 2.2, (1, 1): 0.7})
    perron, calls = horseshoe._perron_right, []

    def counted(*args, **kwargs):
        calls.append(None)
        return perron(*args, **kwargs)

    monkeypatch.setattr(horseshoe, "_perron_right", counted)
    root = _word_roof_root(SuspensionSystem(full2, roof), words)
    assert len(calls) == 7
    assert root == float.fromhex("0x1.901321e8309abp-2")  # recorded without the memo


def test_word_roof_root_constant_roof_scaling(small_pack):
    pack = small_pack
    words = pack.word_sets[1]
    base = float(np.log(len(words))) / pack.n
    one = SuspensionSystem(pack.sft, LocallyConstantFunction.constant(pack.sft, 1.0))
    two = SuspensionSystem(pack.sft, LocallyConstantFunction.constant(pack.sft, 2.0))
    assert abs(_word_roof_root(one, words) - base) < 1e-12
    assert abs(_word_roof_root(two, words) - base / 2) < 1e-12


def test_lift_pack_to_flow(small_pack):
    pack = small_pack
    roof = LocallyConstantFunction(pack.sft, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(pack.sft, roof)
    rep = lift_pack_to_flow(system, pack, mixtures=20, seed=0)
    assert rep["pass"] and rep["all_margins_positive"]
    assert rep["reweighting"]["max_identity_gap"] <= 1e-10
    for s, h, z, m in zip(
        rep["flow_horseshoe_entropies"],
        rep["flow_target_entropies"],
        rep["roof_integrals"],
        rep["margins"],
    ):
        assert abs(m - (s - (h - pack.eta / z))) < 1e-14
    # Against an independent dense recomputation of the flow entropies.
    for s, ws in zip(rep["flow_horseshoe_entropies"], pack.word_sets):
        assert abs(s - dense_flow_root(system, ws)) < 1e-10
    with pytest.raises(InputError):
        lift_pack_to_flow(SuspensionSystem(Sft([[1, 1], [1, 0]]), LocallyConstantFunction.constant(Sft([[1, 1], [1, 0]]), 1.0)), pack)


def test_pack_json_round_trip(small_pack):
    pack = small_pack
    doc = json.loads(json.dumps(pack.to_json()))
    again = HorseshoePack.from_json(doc)
    assert again.n == pack.n and again.anchor == pack.anchor
    assert again.word_sets == pack.word_sets
    assert again.eta == pack.eta and again.zeta == pack.zeta
    for mu, nu in zip(pack.measures, again.measures):
        assert d_star(mu, nu) == 0.0
    a = certify_pack(pack, samples=8, seed=1)
    b = certify_pack(again, samples=8, seed=1)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_pack_word_arrays_match_word_sets(small_pack):
    # The build hands its sorted rotations over as the arrays; a pack read
    # from JSON converts its word sets on first use.
    again = HorseshoePack.from_json(json.loads(json.dumps(small_pack.to_json())))
    assert small_pack._arrays is not None and again._arrays is None
    for pack in (small_pack, again):
        assert len(pack.word_arrays) == len(pack.word_sets)
        for arr, ws in zip(pack.word_arrays, pack.word_sets):
            assert arr.dtype == np.int8 and arr.shape == (len(ws), pack.n)
            assert np.array_equal(arr, np.asarray(ws, dtype=np.int8))
    assert again.word_arrays is again.word_arrays


def test_lift_small_pack_reproduces_recorded_report(small_pack):
    # Recorded before the lift cached its target integrals; pinned to 2 ulp.
    roof = LocallyConstantFunction(small_pack.sft, 1, {(0,): 1.0, (1,): 2.0})
    rep = lift_pack_to_flow(SuspensionSystem(small_pack.sft, roof), small_pack, mixtures=20, seed=0)
    recorded = {
        "flow_horseshoe_entropies": ["0x1.9ac31593475c0p-2", "0x1.17562be5bca8ep-2"],
        "flow_target_entropies": ["0x1.ccaa3a31b187dp-2", "0x1.490be06ca3610p-2"],
        "roof_integrals": ["0x1.4000000000000p+0", "0x1.c000000000000p+0"],
        "margins": ["0x1.67b274fb2f6ddp-2", "0x1.e5b9293b57220p-3"],
        "flow_push_distances": ["0x1.72d17fa42eb6fp-4", "0x1.8d4ca9d277a4ep-4"],
        "max_identity_gap": ["0x1.0000000000000p-52"],
    }
    got = {**rep, "max_identity_gap": rep["reweighting"]["max_identity_gap"]}
    for key, hexes in recorded.items():
        values = np.atleast_1d(got[key])
        assert len(values) == len(hexes), key
        for value, want in zip(values, map(float.fromhex, hexes)):
            assert abs(float(value) - want) <= 2 * math.ulp(want), (key, float(value).hex())
    assert rep["reweighting"] == {"mixtures": 20, "seed": 0, "max_identity_gap": got["max_identity_gap"], "pass": True}
    assert (rep["all_margins_positive"], rep["pass"]) == (True, True)


def test_lift_builds_each_target_table_once_per_use(monkeypatch):
    # On the bench pack: each target's flow integral under each probe once
    # per call, each mixture's roof integral once per mixture.
    full2 = Sft(SHIFTS["full2"])
    targets = [bernoulli_measure(full2, [0.8, 0.2]), bernoulli_measure(full2, [0.2, 0.8])]
    pack = build_multi_horseshoe(full2, targets, eta=0.15, zeta=0.22, n_max=40, seed=0)
    system = SuspensionSystem(full2, LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}))
    builds = []
    tables = MarkovComponent.cylinder_tables

    def count(self, *args, **kwargs):
        builds.append(args)
        return tables(self, *args, **kwargs)

    monkeypatch.setattr(MarkovComponent, "cylinder_tables", count)
    rep = lift_pack_to_flow(system, pack, mixtures=50, seed=0)
    assert rep["pass"]
    assert len(builds) <= 520


def brute_level_tables(k: int, words, pair_weight, depth: int) -> list:
    """Dumb reference: phase-averaged window counts over every word pair.

    ``pair_weight[i, j]`` is the stationary probability of word i followed
    by word j; a window of length <= n + 1 starting inside the first word
    lies inside the concatenation of the pair.
    """
    n = len(words[0])
    tables = [None] + [np.zeros(k**ell) for ell in range(1, depth + 1)]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            p = pair_weight[i, j]
            if p == 0.0:
                continue
            uv = tuple(u) + tuple(v)
            for ell in range(1, depth + 1):
                for phase in range(n):
                    code = 0
                    for a in uv[phase : phase + ell]:
                        code = code * k + a
                    tables[ell][code] += p / n
    return tables


@pytest.mark.parametrize("k, n, num", [(2, 5, 14), (3, 4, 17), (2, 12, 9)])
def test_level_tables_match_word_pair_oracle(k, n, num):
    # n < 10 puts the statistics at depth n + 1, where no window of that
    # length fits inside one word; n = 12 serves depths 11..13 from deeper
    # statistics than the default d* depth.
    sft = Sft(np.ones((k, k), dtype=int))
    rng = np.random.default_rng(7 * k + n)
    words = [tuple(int(a) for a in rng.integers(0, k, n)) for _ in range(num)]
    theta = rng.dirichlet(np.ones(num))
    eps, perm = 0.3, rng.permutation(num)
    Q = rng.random((num, num)) * (rng.random((num, num)) < 0.6)
    Q[np.arange(num), rng.permutation(num)] += 0.5  # irreducible-ish and no empty rows
    Q /= Q.sum(axis=1, keepdims=True)
    w, v = np.linalg.eig(Q.T)
    pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
    pi /= pi.sum()
    P_perm = np.full((num, num), (1.0 - eps) / num**2)
    P_perm[np.arange(num), perm] += eps / num
    cases = [
        (("bernoulli", theta), np.outer(theta, theta)),
        (("perm_mix", eps, perm), P_perm),
        (("markov", pi, Q), pi[:, None] * Q),
    ]
    for kind, pair_weight in cases:
        want = brute_level_tables(k, words, pair_weight, n + 1)
        wp = WordProcessMeasure(sft, words, kind)
        for ell in range(1, n + 2):
            got = wp.cylinder_tables(ell)[ell]
            assert np.abs(got - want[ell]).max() < 1e-13, (kind[0], ell)
        with pytest.raises(InputError):
            wp.cylinder_prob((0,) * (n + 2))


def _closable_walks(sft: Sft, n: int, count: int, rng) -> list:
    out = []
    while len(out) < count:
        w = [int(rng.integers(sft.k))]
        for _ in range(n - 1):
            w.append(int(rng.choice(np.flatnonzero(sft.A[w[-1]]))))
        if sft.A[w[-1], w[0]]:
            out.append(tuple(w))
    return out


@pytest.mark.parametrize("shift", ["full2", "golden"])
def test_classify_matches_periodic_orbit_d_star(shift):
    sft = Sft([[1, 1], [1, 1]]) if shift == "full2" else Sft([[1, 1], [1, 0]])
    rng = np.random.default_rng(11)
    targets = [InvariantMeasure.single(random_markov_component(sft, 2, rng)) for _ in range(2)]
    zeta = 0.3
    words = _closable_walks(sft, 13, 30, rng)
    tables = [_measure_tables(sft, mu, 10) for mu in targets]
    masks = _classify(sft, np.asarray(words, dtype=np.int8), tables, zeta)
    assert masks.shape == (2, len(words))
    decided = 0
    for j, w in enumerate(words):
        orbit = periodic_orbit_measure(sft, w)
        for i, mu in enumerate(targets):
            d = d_star(orbit, mu, N=10)
            if abs(d - zeta / 2) < 1e-12:
                continue
            assert bool(masks[i, j]) == (d < zeta / 2), (w, i, d)
            decided += 1
    assert decided > 0 and masks.any() and not masks.all()


def test_certify_small_pack_reproduces_recorded_certificate(small_pack):
    # Recorded from the per-level table engine that preceded the depth-N
    # statistics; both engines compute the same tables up to rounding.
    rep = certify_pack(small_pack, samples=24, seed=0)
    c2, c3 = rep["condition2"], rep["condition3"]
    recorded = {
        "horseshoe_entropies": [0.5241747015059642, 0.451085950651685],
        "count_entropies": [0.5241747015059642, 0.451085950651685],
        "target_entropies": [0.5623351446188083, 0.5623351446188083],
        "margins": [0.46183955688715594, 0.3887508060328767],
        "push_distances": [0.08689291485369657, 0.11155697632744783],
        "hausdorff_estimate": 0.11155697632744783,
        "hausdorff_estimate_half": 0.11155697632744783,
    }
    got = {**c2, **c3}
    for key, want in recorded.items():
        assert np.abs(np.asarray(got[key]) - np.asarray(want)).max() <= 1e-12, key
    assert rep["condition1"] == {"alphabet_sizes": [189, 91], "transitive": True, "disjoint": True}
    assert (c2["all_positive"], c3["pass"], rep["pass"]) == (True, True, True)
    assert (c3["samples"], c3["seed"], c3["depth"], c3["zeta"]) == (24, 0, 10, 0.4)


def test_certify_and_lift_check_their_arguments(small_pack, monkeypatch):
    system = SuspensionSystem(small_pack.sft, LocallyConstantFunction(small_pack.sft, 1, {(0,): 1.0, (1,): 2.0}))
    rep = certify_pack(small_pack, samples=np.int64(2), seed=np.int64(0))
    assert json.loads(json.dumps(rep))["condition3"]["samples"] == 2

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("_measure_tables", "_TableEngine", "abramov_entropy", "_word_roof_root"):
        monkeypatch.setattr(horseshoe, name, no_work)
    for samples, seed in [(0, 0), (-3, 0), (2.5, 0), (True, 0), (4, -1), (4, 1.0), (4, None)]:
        with pytest.raises(InputError):
            certify_pack(small_pack, samples=samples, seed=seed)
    for mixtures, seed in [(0, 0), (-2, 0), (1.5, 0), (False, 0), (3, -1)]:
        with pytest.raises(InputError):
            lift_pack_to_flow(system, small_pack, mixtures=mixtures, seed=seed)


@pytest.mark.parametrize("k, N", [(2, 2), (2, 5), (2, 10), (3, 2), (3, 5), (3, 10)])
def test_windowed_joints_match_pair_bincounts(k, N):
    # Joint J_a of a permutation chain counts (suffix_a of a word, prefix_{N-a}
    # of its successor).  Word counts run from a handful to beyond 4 k^N, and
    # to k^(2(N-1)) where that stays small, where one window holds every joint.
    m, n = N - 1, N + 1
    sft = Sft(np.ones((k, k), dtype=int))
    rng = np.random.default_rng(100 * k + N)
    nums = {5, 2 * k**N + 1, 4 * k**N + 3}
    if k ** (2 * m) + 7 <= 300_000:
        nums.add(k ** (2 * m) + 7)
    for num in sorted(nums):
        arr = rng.integers(0, k, (num, n), dtype=np.int8)
        engine = horseshoe._TableEngine(sft, arr, N)
        perms = [rng.permutation(num) for _ in range(3)]
        got = list(engine._perm_joints(perms))
        assert len(got) == m
        assert (len(engine._windows) == 1) == (m <= 1 or num >= k ** (2 * m)), (num, len(engine._windows))
        for a in range(1, N):
            suffix = arr[:, n - a :].astype(np.int64) @ k ** np.arange(a - 1, -1, -1)
            prefix = arr[:, : N - a].astype(np.int64) @ k ** np.arange(N - a - 1, -1, -1)
            for i, perm in enumerate(perms):
                want = np.bincount(suffix * k ** (N - a) + prefix[perm], minlength=k**N)
                assert got[a - 1].dtype == np.int64
                assert np.array_equal(got[a - 1][i], want), (num, a, i)


def _all_pairs(t_grid, T, offsets, weights) -> np.ndarray:
    """D[g, s]: every (grid, sample) distance at full depth, one sample at a time."""
    return np.stack([np.maximum.reduceat(np.abs(t_grid - t), offsets, axis=1) @ weights for t in T], axis=1)


def _all_pairs_hausdorff(t_grid, d_match, T, offsets, weights) -> tuple:
    """Both estimates from every (grid, sample) distance."""
    samples = len(T)
    D = _all_pairs(t_grid, T, offsets, weights)

    def estimate(count):
        sub = D[:, :count]
        return max(float(np.minimum(d_match, sub.min(axis=1)).max()), float(sub.min(axis=0).max()))

    return estimate(samples), estimate(max(1, samples // 2))


def test_pruned_distances_match_all_pairs_on_the_small_pack(small_pack, monkeypatch):
    seen, deep = {}, []
    hausdorff, deep_maxima = horseshoe._hausdorff, horseshoe._deep_maxima

    def spy_hausdorff(t_grid, d_match, blocks, samples, offsets, weights):
        blocks = [b.copy() for b in blocks]
        seen.update(t_grid=t_grid, d_match=d_match, T=np.concatenate(blocks), offsets=offsets, weights=weights)
        return hausdorff(t_grid, d_match, iter(blocks), samples, offsets, weights)

    def spy_deep(t_grid, t_samp, s, g, offsets, L):
        deep.append(len(s))
        return deep_maxima(t_grid, t_samp, s, g, offsets, L)

    monkeypatch.setattr(horseshoe, "_hausdorff", spy_hausdorff)
    monkeypatch.setattr(horseshoe, "_deep_maxima", spy_deep)
    samples = 200
    c3 = certify_pack(small_pack, samples=samples, seed=5)["condition3"]
    want = _all_pairs_hausdorff(seen["t_grid"], seen["d_match"], seen["T"], seen["offsets"], seen["weights"])
    assert (c3["hausdorff_estimate"], c3["hausdorff_estimate_half"]) == want
    assert sum(deep) < 0.1 * len(seen["t_grid"]) * samples, sum(deep)


@pytest.mark.parametrize("N, samples", [(10, 1), (10, 37), (10, 150), (4, 29)])
def test_pruned_distances_match_all_pairs_on_random_tables(N, samples):
    rng = np.random.default_rng(N * 1000 + samples)
    offsets = np.cumsum([0] + [2**ell for ell in range(1, N)])
    weights = 2.0 ** -np.arange(1, N + 1)
    width = int(offsets[-1]) + 2**N
    G = 41
    centers = rng.random((5, width))
    t_grid = centers[rng.integers(0, 5, G)] + 0.05 * rng.random((G, width))
    T = centers[rng.integers(0, 5, samples)] + rng.choice([0.01, 0.1, 0.5], (samples, 1)) * rng.random((samples, width))
    d_match = 0.3 * rng.random(G)
    cuts = np.unique(np.concatenate([[0, samples], rng.integers(0, samples, 4)]))
    blocks = (T[a:b] for a, b in zip(cuts, cuts[1:]))
    got = horseshoe._hausdorff(t_grid, d_match, blocks, samples, offsets, weights)
    assert got == _all_pairs_hausdorff(t_grid, d_match, T, offsets, weights)


@pytest.mark.parametrize("incumbent", [0.0, 0.02, np.inf])
def test_nearest_pairs_give_every_row_and_column_minimum(incumbent):
    # Grid rows form two clusters that differ at the shallow depths.  The
    # samples sit near cluster B, whose rows agree at the shallow depths and
    # differ at the deep ones, so a sample's least bound rarely marks its
    # nearest row; cluster A's rows are minimised by pairs no column needs.
    N, G, S = 10, 41, 60
    rng = np.random.default_rng(29)
    offsets = np.cumsum([0] + [2**ell for ell in range(1, N)])
    weights = 2.0 ** -np.arange(1, N + 1)
    width, cut = int(offsets[-1]) + 2**N, int(offsets[horseshoe._BOUND_DEPTH])
    in_b = rng.random(G) < 0.7
    t_grid = rng.random((G, width))
    t_grid[:, :cut] = np.where(in_b[:, None], 0.5, 0.1) + 1e-4 * rng.random((G, cut))
    T = np.empty((S, width))
    T[:, :cut] = 0.5 + 1e-4 * rng.random((S, cut))
    T[:, cut:] = t_grid[rng.choice(np.flatnonzero(in_b), S), cut:] + 0.1 * rng.random((S, width - cut))
    D = _all_pairs(t_grid, T, offsets, weights)
    row = np.full(G, incumbent)
    cols = horseshoe._nearest_pairs(t_grid, T, row, offsets, weights)
    assert np.array_equal(cols, D.min(axis=0))
    assert np.array_equal(row, np.minimum(incumbent, D.min(axis=1)))


def test_bench_certificate_is_pinned():
    # The bench's criterion-8 pack at zeta 0.22, certified with 500 samples
    # at seed 0.  Its floats are pinned to 2 ulp, so that a change to the
    # table engine or to the distance stage cannot move them unnoticed.
    full2 = Sft(np.ones((2, 2), dtype=int))
    targets = [bernoulli_measure(full2, [0.8, 0.2]), bernoulli_measure(full2, [0.2, 0.8])]
    pack = build_multi_horseshoe(full2, targets, eta=0.15, zeta=0.22, n_max=40, seed=0)
    assert (pack.n, [len(ws) for ws in pack.word_sets]) == (19, [10299, 3324])
    rep = certify_pack(pack, samples=500, seed=0)
    c3 = rep["condition3"]
    recorded = {
        "push_distances": ["0x1.bea15c3dbf547p-5", "0x1.ff07de1528df3p-5"],
        "hausdorff_estimate": ["0x1.ff07de1528df3p-5"],
        "hausdorff_estimate_half": ["0x1.ff07de1528df3p-5"],
    }
    for key, hexes in recorded.items():
        for got, want in zip(np.atleast_1d(c3[key]), map(float.fromhex, hexes)):
            assert abs(float(got) - want) <= 2 * math.ulp(want), (key, float(got).hex())
    assert (c3["pass"], rep["pass"]) == (True, True)


def test_certificate_sample_stream_is_pinned():
    eps, perm = horseshoe._sample_perm_spec(13623, 0, 1)
    digest = hashlib.sha256(np.float64(eps).tobytes() + perm.astype("<i8").tobytes()).hexdigest()
    assert digest == "ee42b9a1cf2db40b287e7273f1fb104808fd2e07cf0046df15f4265d394afa21"
    weights = horseshoe._sample_weights(13623, 0, 0)
    digest = hashlib.sha256(weights.astype("<f8").tobytes()).hexdigest()
    assert digest == "28e1741268a2fd8007263b5223367ef8653bb54e1e3618a69bd7421ea94f90c4"


@pytest.mark.parametrize("eta, zeta", [(float("nan"), 0.3), (0.3, float("nan")), (-1.0, 0.3), (0.3, 0.0)])
def test_build_refuses_a_nan_or_nonpositive_budget(eta, zeta):
    # NaN is refused with the name of a nonpositive value, before any search.
    full2 = Sft([[1, 1], [1, 1]])
    with pytest.raises(InputError):
        build_multi_horseshoe(full2, [bernoulli_measure(full2, [0.75, 0.25])], eta=eta, zeta=zeta, n_max=12)


def test_word_process_entropy_of_each_kind():
    # Each kind's entropy is the entropy rate of its dense word chain over the
    # block length, and the closed form where one exists.
    n, sft = 3, Sft(np.ones((2, 2), dtype=int))
    words = admissible_words(sft, n)
    num = len(words)
    rng = np.random.default_rng(11)
    theta = rng.dirichlet(np.ones(num))
    perm = rng.permutation(num)
    Q = rng.random((num, num)) + np.eye(num)
    Q /= Q.sum(axis=1, keepdims=True)
    w, v = np.linalg.eig(Q.T)
    pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
    pi /= pi.sum()

    wp = WordProcessMeasure(sft, words, ("bernoulli", theta))
    closed = -(theta * np.log(theta)).sum() / n
    assert abs(wp.entropy() - closed) < 1e-15
    assert abs(wp.entropy() - _entropy_rate(theta, np.tile(theta, (num, 1))) / n) < 1e-15
    uniform = np.full(num, 1.0 / num)
    a, b = 0.7 / num, 0.7 / num + 0.3  # the off- and on-permutation entries at eps = 0.3
    for eps, closed in ((0.0, np.log(num)), (0.3, -(num - 1) * a * np.log(a) - b * np.log(b)), (1.0, 0.0)):
        dense = (1.0 - eps) * np.full((num, num), 1.0 / num)
        dense[np.arange(num), perm] += eps
        wp = WordProcessMeasure(sft, words, ("perm_mix", eps, perm))
        assert abs(wp.entropy() - closed / n) < 1e-15, eps
        assert abs(wp.entropy() - _entropy_rate(uniform, dense) / n) < 1e-15, eps
    wp = WordProcessMeasure(sft, words, ("markov", pi, Q))
    assert abs(wp.entropy() - _entropy_rate(pi, Q) / n) < 1e-15
    assert abs(wp.entropy() + (pi[:, None] * Q * np.log(Q)).sum() / n) < 1e-14


@pytest.mark.parametrize("key", ["sft", "n", "anchor", "eta", "zeta", "word_sets", "measures"])
def test_a_pack_document_missing_a_key_is_an_input_error(small_pack, key):
    doc = small_pack.to_json()
    del doc[key]
    with pytest.raises(InputError, match=f"missing pack keys \\['{key}'\\]"):
        HorseshoePack.from_json(doc)


@pytest.mark.parametrize("part", [{"word_sets": "01"}, {"word_sets": [5]}, {"measures": {}}, {"meta": "x"}])
def test_pack_word_sets_measures_and_meta_must_be_of_their_types(small_pack, part):
    with pytest.raises(InputError):
        HorseshoePack.from_json({**small_pack.to_json(), **part})


@pytest.mark.parametrize("budget", [{"eta": float("inf")}, {"zeta": float("inf")}, {"eta": float("nan")}])
def test_build_refuses_a_budget_that_is_not_finite_and_positive(small_pack, budget):
    # the rule HorseshoePack.from_json applies, so a built pack always reads back
    args = {"eta": 0.5, "zeta": 0.4, **budget}
    with pytest.raises(InputError, match="must be finite and positive"):
        build_multi_horseshoe(small_pack.sft, small_pack.measures, n_max=16, seed=0, **args)
