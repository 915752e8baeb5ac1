from __future__ import annotations

import numpy as np
import pytest

from conftest import bernoulli_measure
from symflow.errors import DomainError, InputError
from symflow.measures import (
    InvariantMeasure,
    _gth,
    _stationary_inverse,
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


def test_gth_matches_stationary_on_irreducible_chains():
    # On an irreducible chain the closed-class search finds the whole state
    # space, so the GTH step alone must give the same bits.
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        support = rng.random((n, n)) < rng.uniform(0.0, 0.6)
        order = rng.permutation(n)
        support[order, np.roll(order, -1)] = True  # a Hamiltonian cycle
        weights = np.exp(rng.uniform(0.0, 12.0) * rng.normal(size=(n, n)))
        Q = np.where(support, weights, 0.0)
        Q /= Q.sum(axis=1, keepdims=True)
        assert np.array_equal(_gth(Q.copy()), stationary(Q))
    # Both name a vector beyond the double range the same way (pi_2 ~ 1e-400).
    e = 1e-200
    Q = np.array([[1.0 - e, e, 0.0], [1.0 - e, 0.0, e], [1.0, 0.0, 0.0]])
    for solve in (stationary, lambda Q: _gth(Q.copy())):
        with pytest.raises(DomainError) as err:
            solve(Q)
        assert err.value.name == "stationary_range"


def _skewed_chain(rng, n: int) -> np.ndarray:
    """Random irreducible chain on n states with weights e^(c z), c uniform
    on [0, 12] and z standard normal, as in the test above."""
    support = rng.random((n, n)) < rng.uniform(0.0, 0.6)
    order = rng.permutation(n)
    support[order, np.roll(order, -1)] = True  # a Hamiltonian cycle
    weights = np.exp(rng.uniform(0.0, 12.0) * rng.normal(size=(n, n)))
    Q = np.where(support, weights, 0.0)
    return Q / Q.sum(axis=1, keepdims=True)


def test_stationary_inverse_agrees_with_gth_or_declines():
    # The inverse-iteration step returns pi within 1e-12 entrywise-relative of
    # GTH, or None (GTH then runs); a vector beyond the double range is None.
    rng = np.random.default_rng(12)
    taken = 0
    for _ in range(300):
        Q = _skewed_chain(rng, int(rng.integers(2, 129)))
        x = _stationary_inverse(Q)
        try:
            ref = _gth(Q.copy())
        except DomainError:
            assert x is None
            continue
        if x is not None:
            taken += 1
            assert (np.abs(x - ref) <= 1e-12 * ref).all()
    assert taken >= 100
    e = 1e-200
    assert _stationary_inverse(np.array([[1.0 - e, e, 0.0], [1.0 - e, 0.0, e], [1.0, 0.0, 0.0]])) is None


@pytest.mark.parametrize("coupling", [1e-10, 1e-14, 1e-20])
def test_stationary_inverse_on_a_nearly_decomposable_chain(coupling):
    # Two blocks, 5 and 9 states, joined by one edge each way.  Inverse
    # iteration moves their mass balance by about coupling / 1e-10 a step,
    # and their Collatz-Wielandt ratios stay within about the coupling of 1
    # at any balance, so the ratio check alone would pass a wrong balance.
    rng = np.random.default_rng(1)
    Q = np.zeros((14, 14))
    Q[:5, :5] = rng.random((5, 5)) + 0.1
    Q[5:, 5:] = rng.random((9, 9)) + 0.1
    Q[0, 5], Q[5, 0] = coupling, 3.0 * coupling
    Q /= Q.sum(axis=1, keepdims=True)
    x = _stationary_inverse(Q)
    ref = _gth(Q.copy())
    assert x is None or (np.abs(x - ref) <= 1e-12 * ref).all()


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


def _lift_by_dict_walk(comp: MarkovComponent, m2: int) -> tuple:
    """(states, Q, pi) of the lift as the dict walk before the edge
    quotient: grow the charged windows along Q > 0, then read each lifted
    row off the row of its last m-window."""
    m = comp.memory
    level = {w: p for w, p in zip(comp.states, comp.pi) if p > 0}
    for _ in range(m2 - m):
        nxt = {}
        for u, p in level.items():
            i = comp.index[u[-m:]]
            for j in np.flatnonzero(comp.Q[i] > 0):
                nxt[u + comp.states[j][-1:]] = p * comp.Q[i, j]
        level = nxt
    states = sorted(level)
    index = {w: i for i, w in enumerate(states)}
    Q = np.zeros((len(states), len(states)))
    for w, i in index.items():
        a = comp.index[w[-m:]]
        for b in np.flatnonzero(comp.Q[a] > 0):
            Q[i, index[w[1:] + comp.states[b][-1:]]] = comp.Q[a, b]
    pi = np.array([level[w] for w in states])
    return states, Q, pi / pi.sum()


def test_lift_matches_the_dict_walk(full2, golden):
    from symflow.thermo import pressure
    from symflow.witness import low_entropy_mean_witness

    full3 = Sft(np.ones((3, 3), dtype=int))
    rng = np.random.default_rng(20)
    comps = [random_markov_component(sft, int(rng.integers(1, 4)), rng) for sft in (full2, golden, full3) for _ in range(3)]
    comps.append(periodic_orbit_measure(full2, (0, 0, 1, 0, 1)).components[0])
    comps.append(periodic_orbit_measure(full3, (0, 2, 1, 2)).components[0])
    g = LocallyConstantFunction(full2, 2, {w: float(w[0] + w[0] * w[1]) for w in admissible_words(full2, 2)})
    comps.append(low_entropy_mean_witness(full2, g, 0.7, 0.01).components[0])
    h = LocallyConstantFunction.from_callable(golden, 3, lambda w: float(w[0] - 2 * w[2]))
    comps.append(pressure(golden, h).equilibrium)
    for comp in comps:
        for m2 in range(comp.memory + 1, comp.memory + 4):
            states, Q, pi = _lift_by_dict_walk(comp, m2)
            lifted = comp.lift(m2)
            assert lifted.memory == m2 and lifted.states == states
            assert np.abs(lifted.Q - Q).max() <= 1e-15
            assert np.abs(lifted.pi - pi).max() <= 1e-15


def test_entropy_rate_matches_the_row_sum_spelling(full2, golden):
    # MarkovComponent.entropy used to sum each row's Q log Q and then weight
    # the rows by pi.
    rng = np.random.default_rng(21)
    for sft in (full2, golden):
        for m in (1, 2, 3):
            comp = random_markov_component(sft, m, rng, concentration=0.3)
            Q = comp.Q
            rows = np.where(Q > 0, Q * np.log(np.where(Q > 0, Q, 1.0)), 0.0).sum(axis=1)
            assert abs(comp.entropy() + comp.pi @ rows) <= 1e-15


def test_to_json_names_a_word_without_extension():
    sft = Sft([[1, 1], [0, 0]])  # symbol 1 has no successor
    mu = InvariantMeasure.single(MarkovComponent(sft, 1, [(0,)], np.array([[1.0]])))
    with pytest.raises(DomainError) as e:
        mu.to_json()
    assert e.value.name == "degenerate_sft"


def test_to_json_refuses_a_dense_matrix_over_the_budget_before_allocating(full2):
    import tracemalloc

    # 8,192 admissible 13-words: 2^26 matrix entries, over the 2^24 budget.
    mu = periodic_orbit_measure(full2, (0,) * 12 + (1,))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as e:
            mu.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.name == "enumeration_too_large"
    assert peak < 2**26  # the matrix alone would take 2^29 bytes


@pytest.mark.parametrize("eps", [1e-320, 5e-324])
def test_subnormal_states_round_trip_and_lift(eps):
    # At eps = 1e-320 states 1 and 2 carry about 3e-320 each: their
    # (m+1)-word masses round to a few thousand units of 2^-1074, so a row
    # read as t_{m+1} / t_m would miss 1 by about 1e-4.  At eps = 2^-1074
    # some lifted words keep a unit of mass while all their extensions
    # round to 0, and lift drops them.
    full3 = Sft(np.ones((3, 3), dtype=int))
    Q = np.array([[1.0, eps, eps], [1 / 3] * 3, [1 / 3] * 3])
    comp = MarkovComponent(full3, 1, [(0,), (1,), (2,)], Q)
    assert 0.0 < comp.pi[1] < 1e-318
    back = InvariantMeasure.from_json(full3, InvariantMeasure.single(comp).to_json()).components[0]
    assert np.abs(back.Q.sum(axis=1) - 1.0).max() <= 1e-15
    for m2 in (2, 3):
        lifted = comp.lift(m2)
        assert np.abs(lifted.Q.sum(axis=1) - 1.0).max() <= 1e-15
        for a, b in zip(comp.cylinder_tables(4)[1:], lifted.cylinder_tables(4)[1:]):
            assert np.abs(a - b).max() <= 1e-15


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


def test_nan_entries_fail_measure_validation(full2):
    # A NaN fails every check written as `not err <= bound`: rows, signs,
    # stationarity and weights.
    states = [(0,), (1,)]
    nan = float("nan")
    with pytest.raises(InputError):
        MarkovComponent(full2, 1, states, [[0.5, nan], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(InputError):
        MarkovComponent(full2, 1, states, [[0.5, 0.5], [0.5, 0.5]], [nan, 0.5])
    comp = MarkovComponent(full2, 1, states, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InputError):
        InvariantMeasure([comp, comp], [nan, 1.0])
