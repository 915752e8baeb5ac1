from __future__ import annotations

import numpy as np
import pytest

from conftest import bernoulli_measure
from symflow.errors import DomainError, InputError
from symflow.measures import (
    InvariantMeasure,
    MarkovComponent,
    d_star,
    periodic_orbit_measure,
    random_markov_component,
    stationary,
    support_is_full,
)
from symflow.sft import LocallyConstantFunction, Sft, admissible_words


def parry_measure(golden: Sft) -> InvariantMeasure:
    """Measure of maximal entropy on the golden-mean shift (closed form)."""
    phi = (1 + np.sqrt(5)) / 2
    Q = np.array([[1 / phi, 1 / phi**2], [1.0, 0.0]])
    return InvariantMeasure.single(MarkovComponent(golden, 1, [(0,), (1,)], Q))


def test_stationary_known_chains():
    assert np.allclose(stationary(np.array([[0.5, 0.5], [0.5, 0.5]])), [0.5, 0.5])
    assert np.allclose(stationary(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.5, 0.5])
    pi = stationary(np.array([[0.9, 0.1], [0.5, 0.5]]))
    assert np.abs(pi - np.array([5 / 6, 1 / 6])).max() < 1e-14


def test_stationary_matches_eigensolver_on_random_chains():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        Q = rng.gamma(0.6, 1.0, size=(n, n))
        Q /= Q.sum(axis=1, keepdims=True)
        pi = stationary(Q)
        vals, vecs = np.linalg.eig(Q.T)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        ref = np.real(vecs[:, idx])
        ref = ref / ref.sum()
        assert np.abs(pi - ref).max() < 1e-10
        assert np.abs(pi @ Q - pi).sum() < 1e-12


def test_stationary_puts_no_mass_on_transient_states():
    # State 2 leaks into the closed class {0, 1} and is never re-entered.
    pi = stationary(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]))
    assert pi[2] == 0.0
    assert np.abs(pi[:2] - 0.5).max() < 1e-15
    # The transient state need not be the last one.
    pi = stationary(np.array([[0.2, 0.5, 0.3], [0.0, 0.1, 0.9], [0.0, 0.6, 0.4]]))
    assert pi[0] == 0.0
    assert np.abs(pi[1:] - [0.4, 0.6]).max() < 1e-15


def test_stationary_refuses_multiple_closed_classes():
    with pytest.raises(DomainError):
        stationary(np.eye(2))


def test_component_validation(full2):
    states = [(0,), (1,)]
    with pytest.raises(InputError):
        MarkovComponent(full2, 1, states, [[0.5, 0.6], [0.5, 0.5]])  # bad row sum
    with pytest.raises(InputError):
        MarkovComponent(full2, 1, states, [[1.0, 0.0], [0.0, 1.0]], pi=[0.7, 0.2])
    golden = Sft([[1, 1], [1, 0]])
    with pytest.raises(InputError):
        # Charges the forbidden edge 1 -> 1.
        MarkovComponent(golden, 1, states, [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize(
    "memory, states, Q, message",
    [
        (1, [(0,), (1, 0)], [[0.5, 0.5], [1.0, 0.0]], r"state \(1, 0\) is not an admissible 1-word"),
        (1, [(0,), (2,)], [[0.5, 0.5], [1.0, 0.0]], r"state \(2,\) is not an admissible 1-word"),
        (2, [(0, 1), (1, 1)], [[0.0, 1.0], [0.0, 1.0]], r"state \(1, 1\) is not an admissible 2-word"),
        (2, [(0, 0), (0, 1), (1, 0)], [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]],
         r"Q charges a non-edge \(1, 0\) -> \(1, 0\)"),
    ],
    ids=["wrong_length", "symbol_out_of_range", "forbidden_word", "charged_non_edge"],
)
def test_component_validation_names_the_first_offender(golden, memory, states, Q, message):
    with pytest.raises(InputError, match=message):
        MarkovComponent(golden, memory, states, Q)


def test_entropy_closed_forms(full2):
    assert abs(bernoulli_measure(full2, [0.5, 0.5]).entropy() - np.log(2)) < 1e-15
    b2 = bernoulli_measure(full2, [0.8, 0.2])
    expect = -(0.2 * np.log(0.2) + 0.8 * np.log(0.8))
    assert abs(b2.entropy() - expect) < 1e-15
    assert abs(expect - 0.5004024) < 5e-8
    fixed = periodic_orbit_measure(full2, (0,))
    assert fixed.entropy() == 0.0


def test_integrate_examples(full2):
    g1 = LocallyConstantFunction.indicator(full2, (1,))
    g01 = LocallyConstantFunction.indicator(full2, (0, 1))
    c = LocallyConstantFunction.constant(full2, 3.25)
    for p in (0.2, 0.5, 0.9):
        mu = bernoulli_measure(full2, [1 - p, p])
        assert abs(mu.integrate(g1) - p) < 1e-14
        assert abs(mu.integrate(c) - 3.25) < 1e-14
    half = bernoulli_measure(full2, [0.5, 0.5])
    assert abs(half.integrate(g01) - 0.25) < 1e-14


def test_cylinder_probabilities(full2):
    half = bernoulli_measure(full2, [0.5, 0.5])
    assert abs(half.cylinder_prob((0, 1, 1)) - 1 / 8) < 1e-15
    b = bernoulli_measure(full2, [0.8, 0.2])
    assert abs(b.cylinder_prob((1, 0)) - 0.16) < 1e-15
    golden = Sft([[1, 1], [1, 0]])
    assert parry_measure(golden).cylinder_prob((1, 1)) == 0.0
    # Normalization at each depth.
    for n in range(1, 6):
        total = sum(b.cylinder_prob(w) for w in admissible_words(full2, n))
        assert abs(total - 1.0) < 1e-12


def test_cylinder_prob_marginalizes_short_words(full2):
    comp = random_markov_component(full2, 3, np.random.default_rng(0))
    mu = InvariantMeasure.single(comp)
    for n in (1, 2):
        for w in admissible_words(full2, n):
            total = sum(
                mu.cylinder_prob(w2) for w2 in admissible_words(full2, 3) if w2[:n] == w
            )
            assert abs(mu.cylinder_prob(w) - total) < 1e-14


def test_lift_preserves_the_measure(golden):
    comp = random_markov_component(golden, 1, np.random.default_rng(1))
    lifted = comp.lift(3)
    assert abs(comp.entropy() - lifted.entropy()) < 1e-12
    g = LocallyConstantFunction.from_callable(golden, 2, lambda w: float(w[0] * 2 - w[1]))
    assert abs(comp.integrate(g) - lifted.integrate(g)) < 1e-12
    for w in admissible_words(golden, 4):
        assert abs(comp.cylinder_prob(w) - lifted.cylinder_prob(w)) < 1e-14


def test_d_star_metric_properties(full2):
    b2 = bernoulli_measure(full2, [0.8, 0.2])
    b8 = bernoulli_measure(full2, [0.2, 0.8])
    assert d_star(b2, b2) == 0.0
    # Level-1 contribution alone: max symbol gap 0.6, halved.
    assert abs(d_star(b2, b8, N=1) - 0.3) < 1e-15
    assert d_star(b2, b8) > 0.3
    assert abs(d_star(b2, b8) - d_star(b8, b2)) < 1e-15
    rng = np.random.default_rng(9)
    comps = [
        InvariantMeasure.single(random_markov_component(full2, 2, rng)) for _ in range(3)
    ]
    a, b, c = comps
    assert d_star(a, c) <= d_star(a, b) + d_star(b, c) + 1e-14


def test_d_star_zero_iff_same_cylinders(full2):
    half = bernoulli_measure(full2, [0.5, 0.5])
    # The same measure assembled as a redundant mixture of two copies.
    comp = half.components[0]
    split = InvariantMeasure([comp, comp], [0.3, 0.7])
    assert d_star(half, split) == 0.0
    other = bernoulli_measure(full2, [0.5 - 1e-6, 0.5 + 1e-6])
    assert d_star(half, other) > 0.0


def test_periodic_orbit_measures(full2):
    g1 = LocallyConstantFunction.indicator(full2, (1,))
    m0 = periodic_orbit_measure(full2, (0,))
    assert m0.entropy() == 0.0 and m0.integrate(g1) == 0.0
    m01 = periodic_orbit_measure(full2, (0, 1))
    assert abs(m01.integrate(g1) - 0.5) < 1e-15
    m001 = periodic_orbit_measure(full2, (0, 0, 1))
    assert abs(m001.integrate(g1) - 1 / 3) < 1e-15
    # The doubled word has least period 2, not 4.
    m0101 = periodic_orbit_measure(full2, (0, 1, 0, 1))
    assert len(m0101.components[0].states) == 2


def test_periodic_orbit_requires_closable_word():
    golden = Sft([[1, 1], [1, 0]])
    with pytest.raises(DomainError):
        periodic_orbit_measure(golden, (1,))  # 11 is forbidden


def test_support_flags(full2, golden):
    assert support_is_full(bernoulli_measure(full2, [0.5, 0.5]))
    assert not support_is_full(periodic_orbit_measure(full2, (0,)))
    assert support_is_full(parry_measure(golden))


def test_ergodic_flags(full2):
    comp = random_markov_component(full2, 2, np.random.default_rng(4))
    assert comp.ergodic
    # Two disjoint loops with explicit stationary vector: not ergodic.
    frozen = MarkovComponent(full2, 1, [(0,), (1,)], np.eye(2), pi=[0.5, 0.5])
    assert not frozen.ergodic
    mix = InvariantMeasure.mix(
        [(0.5, bernoulli_measure(full2, [0.3, 0.7])), (0.5, bernoulli_measure(full2, [0.7, 0.3]))]
    )
    assert not mix.ergodic


def test_affinity_of_entropy_and_integrals(full2):
    rng = np.random.default_rng(12)
    mu = InvariantMeasure.single(random_markov_component(full2, 1, rng))
    nu = InvariantMeasure.single(random_markov_component(full2, 2, rng))
    g = LocallyConstantFunction.indicator(full2, (1, 0))
    for theta in np.linspace(0.0, 1.0, 11):
        mix = InvariantMeasure.mix([(theta, mu), (1 - theta, nu)])
        expect_h = theta * mu.entropy() + (1 - theta) * nu.entropy()
        expect_g = theta * mu.integrate(g) + (1 - theta) * nu.integrate(g)
        assert abs(mix.entropy() - expect_h) < 1e-14
        assert abs(mix.integrate(g) - expect_g) < 1e-14


def test_empirical_frequencies_match_cylinder_probs(full2):
    comp = random_markov_component(full2, 1, np.random.default_rng(21))
    rng = np.random.default_rng(42)
    steps = 40_000
    path = comp.sample_path(steps, rng)
    windows = steps - 1
    for w in admissible_words(full2, 2):
        hits = int(((path[:-1] == w[0]) & (path[1:] == w[1])).sum())
        p = comp.cylinder_prob(w)
        sigma = np.sqrt(p * (1 - p) / windows)
        assert abs(hits / windows - p) <= 3 * sigma


def test_measure_json_round_trip(golden):
    rng = np.random.default_rng(8)
    mu = InvariantMeasure.mix(
        [
            (0.4, InvariantMeasure.single(random_markov_component(golden, 1, rng))),
            (0.6, InvariantMeasure.single(random_markov_component(golden, 2, rng))),
        ]
    )
    doc = mu.to_json()
    again = InvariantMeasure.from_json(golden, doc)
    assert abs(mu.entropy() - again.entropy()) < 1e-12
    for w in admissible_words(golden, 3):
        assert abs(mu.cylinder_prob(w) - again.cylinder_prob(w)) < 1e-12


def test_measure_json_validation(golden):
    with pytest.raises(InputError):
        InvariantMeasure.from_json(golden, {"components": []})
    with pytest.raises(InputError):
        InvariantMeasure.from_json(
            golden, {"components": [{"weight": 1.0, "memory": 1, "Q": [[1.0]], "pi": [1.0]}]}
        )


def test_random_component_is_stochastic_and_full(golden):
    comp = random_markov_component(golden, 2, np.random.default_rng(6))
    assert np.abs(comp.Q.sum(axis=1) - 1.0).max() < 1e-12
    assert comp.ergodic
    assert support_is_full(InvariantMeasure.single(comp))


def _cycle_with_chord(k: int) -> Sft:
    A = np.zeros((k, k), dtype=int)
    A[np.arange(k), (np.arange(k) + 1) % k] = 1
    A[0, 2] = 1
    return Sft(A)


@pytest.mark.parametrize("shift", ["full2", "golden", "three"])
def test_cylinder_tables_equal_cylinder_prob(shift):
    from symflow.horseshoe import WordProcessMeasure

    sft = {
        "full2": Sft(np.ones((2, 2), dtype=int)),
        "golden": Sft([[1, 1], [1, 0]]),
        "three": Sft([[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
    }[shift]
    rng = np.random.default_rng(17)
    comps = [random_markov_component(sft, m, rng, concentration=0.5) for m in (1, 2, 3) for _ in range(2)]
    mix = InvariantMeasure(comps, rng.dirichlet(np.ones(len(comps))))
    # Orbits of period 5 and 11: memory below and above the depth.
    orbits = []
    for n in (5, 11):
        closable = [w for w in admissible_words(sft, n) if sft.A[w[-1], w[0]]]
        orbits.append(periodic_orbit_measure(sft, closable[len(closable) // 2]))
    words = [w for w in admissible_words(sft, 9) if w[0] == 0 and sft.A[w[-1], 0]][:40]
    wp = WordProcessMeasure(sft, words, ("bernoulli", rng.dirichlet(np.ones(len(words)))))
    gs = [LocallyConstantFunction(sft, m, dict(zip(admissible_words(sft, m), rng.normal(size=len(admissible_words(sft, m))))))
          for m in (1, 3, 5)]
    for mu in comps + orbits + [mix, wp]:
        tables = mu.cylinder_tables(8)
        for ell in range(1, 9):
            want = [mu.cylinder_prob(w) for w in admissible_words(sft, ell)]
            assert tables[ell].tolist() == want, ell
        for g in gs:  # integrate against the per-word sum
            terms = [mu.cylinder_prob(w) * g(w) for w in admissible_words(sft, g.memory)]
            assert abs(mu.integrate(g) - sum(terms)) <= 4 * np.finfo(float).eps * sum(map(abs, terms))


def _d_star_per_word(mu, nu, N):
    want = 0.0
    for n in range(1, N + 1):
        dev = max(abs(mu.cylinder_prob(w) - nu.cylinder_prob(w)) for w in admissible_words(mu.sft, n))
        want += 2.0**-n * dev
    return want


@pytest.mark.parametrize("k, N, m", [(8, 10, 9), (7, 25, 9), (80, 12, 10)])
def test_d_star_on_sparse_large_alphabet(k, N, m):
    # k^10 codes exceed the enumeration budget, the admissible 10-words do
    # not; the memory-m chain has k^(m+1) windows too but few admissible
    # ones.  7^25 and 80^10 overflow int64.
    sft = _cycle_with_chord(k)
    rng = np.random.default_rng(5)
    mu = InvariantMeasure.single(random_markov_component(sft, 2, rng))
    parts = [(0.4, mu)] + [(0.3, InvariantMeasure.single(random_markov_component(sft, j, rng))) for j in (1, m)]
    nu = InvariantMeasure.mix(parts)
    assert sft.k**10 > 2**24 > len(admissible_words(sft, 10))
    assert d_star(mu, nu, N=N) == _d_star_per_word(mu, nu, N) > 0.0


def test_d_star_of_a_long_orbit_on_a_sparse_shift():
    # Period 22 = 8 + 7 + 7 around the 8-cycle and its chord: the orbit's
    # memory is 22, and 8^22 overflows int64.
    sft = _cycle_with_chord(8)
    word = tuple(range(8)) + 2 * ((0,) + tuple(range(2, 8)))
    mu = periodic_orbit_measure(sft, word)
    nu = InvariantMeasure.single(random_markov_component(sft, 3, np.random.default_rng(9)))
    assert mu.components[0].memory == 22
    assert d_star(mu, nu, N=22) == _d_star_per_word(mu, nu, 22) > 0.0
