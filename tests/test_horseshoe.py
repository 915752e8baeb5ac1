from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import bernoulli_measure
from symflow.errors import DomainError, InputError
from symflow.horseshoe import (
    HorseshoePack,
    WordProcessMeasure,
    _classify,
    _measure_tables,
    _word_roof_root,
    build_multi_horseshoe,
    certify_pack,
    lift_pack_to_flow,
)
from symflow.measures import InvariantMeasure, d_star, periodic_orbit_measure, random_markov_component
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


def test_word_roof_root_matches_dense_oracle():
    full2 = Sft([[1, 1], [1, 1]])
    words = [(0,) + w for w in admissible_words(full2, 3)]  # anchored 4-blocks
    roofs = [
        LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}),
        LocallyConstantFunction(full2, 2, {(0, 0): 1.0, (0, 1): 1.4, (1, 0): 2.2, (1, 1): 0.7}),
        LocallyConstantFunction.constant(full2, 2.0),
    ]
    for roof in roofs:
        system = SuspensionSystem(full2, roof)
        got = _word_roof_root(system, words)
        want = dense_flow_root(system, words)
        assert abs(got - want) < 1e-11


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
