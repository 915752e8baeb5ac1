from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import bernoulli_measure, binary_entropy
from symflow.errors import DomainError
from symflow.measures import InvariantMeasure, periodic_orbit_measure, random_markov_component
from symflow.sft import LocallyConstantFunction, Sft, admissible_words, topological_entropy
from symflow.thermo import _covariance, _EdgeModel, pressure, verify_equilibrium


def test_pressure_of_zero_is_entropy(full2, golden):
    for sft in (full2, golden):
        zero = LocallyConstantFunction.constant(sft, 0.0)
        assert abs(pressure(sft, zero).value - topological_entropy(sft)) < 1e-12


def test_constant_potential_shifts_pressure(full2, golden):
    for sft in (full2, golden):
        h = topological_entropy(sft)
        for c in (-1.5, 0.25, 2.0):
            g = LocallyConstantFunction.constant(sft, c)
            assert abs(pressure(sft, g).value - (h + c)) < 1e-12


def test_bernoulli_pressure_closed_form(full2):
    g1 = LocallyConstantFunction.indicator(full2, (1,))
    for beta in (-2.0, -1.0, 0.0, 1.0, 2.0):
        res = pressure(full2, beta * g1)
        assert abs(res.value - np.log(1 + np.exp(beta))) < 1e-12
        p = np.exp(beta) / (1 + np.exp(beta))
        eq = InvariantMeasure.single(res.equilibrium)
        ref = bernoulli_measure(full2, [1 - p, p])
        for w in admissible_words(full2, 3):
            assert abs(eq.cylinder_prob(w) - ref.cylinder_prob(w)) < 1e-10


def test_golden_mean_pressure_closed_form(golden):
    # Weighted matrix [[1, e^b], [1, 0]] (potential read on the source symbol)
    # has Perron root (1 + sqrt(1 + 4 e^b)) / 2.
    g1 = LocallyConstantFunction.indicator(golden, (1,))
    for beta in (-1.0, 0.0, 0.7):
        expect = np.log((1 + np.sqrt(1 + 4 * np.exp(beta))) / 2)
        assert abs(pressure(golden, beta * g1).value - expect) < 1e-12


def test_memory2_pressure_matches_dense_eigensolver(full2, golden):
    rng = np.random.default_rng(5)
    for sft in (full2, golden):
        words = admissible_words(sft, 2)
        table = {w: float(rng.normal()) for w in words}
        g = LocallyConstantFunction(sft, 2, table)
        # Independent route: dense eigenvalues of the weighted symbol matrix.
        k = sft.k
        W = np.zeros((k, k))
        for (a, b), v in table.items():
            W[a, b] = np.exp(v)
        expect = np.log(np.abs(np.linalg.eigvals(W)).max())
        assert abs(pressure(sft, g).value - expect) < 1e-10


def test_variational_gap_nonnegative_and_tight(full2):
    g = LocallyConstantFunction.indicator(full2, (1, 1))
    res = pressure(full2, g)
    eq = InvariantMeasure.single(res.equilibrium)
    assert abs(res.gap(eq, g)) < 1e-10
    rng = np.random.default_rng(17)
    for _ in range(30):
        mu = InvariantMeasure.single(random_markov_component(full2, int(rng.integers(1, 3)), rng))
        assert verify_equilibrium(full2, g, mu) >= -1e-9


def test_variational_gap_at_large_tilt(full2):
    # 100*g spans hundreds of nats: the weighted matrix and its Perron
    # vectors range over dozens of orders of magnitude.
    rng = np.random.default_rng(0)
    g = 100.0 * LocallyConstantFunction(full2, 3, {w: float(rng.normal()) for w in admissible_words(full2, 3)})
    res = pressure(full2, g)
    eq = InvariantMeasure.single(res.equilibrium)
    assert abs(res.gap(eq, g)) <= 1e-9


@pytest.mark.parametrize("seed", [8, 17])
def test_stationary_out_of_double_range_is_named(full2, seed):
    # The Perron solve certifies, but the equilibrium's stationary masses
    # span more than the double range (at seed 17, l.r is about 1e-349):
    # GTH back-substitution yields inf/NaN or zero entries.
    # The error names the failure; numpy prints no overflow or invalid-value
    # warnings before it.
    rng = np.random.default_rng(seed)
    g = 100.0 * LocallyConstantFunction(full2, 3, {w: float(rng.normal()) for w in admissible_words(full2, 3)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError) as e:
            pressure(full2, g)
    assert e.value.name == "stationary_range"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_left_perron_vector_of_weighted_matrix(full2, golden):
    rng = np.random.default_rng(23)
    for sft in (full2, golden):
        for memory in (2, 3):
            table = {w: float(rng.normal()) for w in admissible_words(sft, memory)}
            res = pressure(sft, LocallyConstantFunction(sft, memory, table))
            # Weighted matrix on the recoded states, built from the table:
            # the edge state u -> state v reads g on the word u + v[-1:].
            states = res.equilibrium.states
            W = np.zeros((len(states), len(states)))
            for i, u in enumerate(states):
                for j, v in enumerate(states):
                    if u[1:] == v[:-1] and sft.is_admissible(u + v[-1:]):
                        W[i, j] = np.exp(table[u + v[-1:]])
            left = res.left
            assert (left > 0).all()
            assert abs(left.sum() - 1.0) < 1e-14
            assert np.abs(left @ W / left - res.root).max() <= 1e-12 * res.root
            assert res.left is left  # solved once, then kept


def test_gap_at_fixed_point_orbit(full2):
    zero = LocallyConstantFunction.constant(full2, 0.0)
    delta = periodic_orbit_measure(full2, (0,))
    assert abs(verify_equilibrium(full2, zero, delta) - np.log(2)) < 1e-12


def test_equilibrium_unique_across_seeds(golden):
    g1 = LocallyConstantFunction.indicator(golden, (1,))
    base = pressure(golden, 0.8 * g1).equilibrium
    for seed in range(5):
        other = pressure(golden, 0.8 * g1, rng=np.random.default_rng(seed)).equilibrium
        assert np.abs(base.Q - other.Q).max() < 1e-8


def test_pressure_is_convex_in_beta(full2):
    g = LocallyConstantFunction.indicator(full2, (0, 1))
    betas = np.linspace(-3.0, 3.0, 25)
    vals = np.array([pressure(full2, float(b) * g).value for b in betas])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert second.min() >= -1e-8


def test_pressure_derivative_is_equilibrium_average(golden):
    g = LocallyConstantFunction.indicator(golden, (0,))
    h = 1e-5
    for beta in (-1.0, 0.0, 1.3):
        res = pressure(golden, beta * g)
        eq = InvariantMeasure.single(res.equilibrium)
        fd = (pressure(golden, (beta + h) * g).value - pressure(golden, (beta - h) * g).value) / (2 * h)
        assert abs(eq.integrate(g) - fd) < 1e-6


def test_pressure_requires_irreducible_sft():
    reducible = Sft([[1, 1], [0, 1]])
    zero = LocallyConstantFunction.constant(reducible, 0.0)
    with pytest.raises(DomainError):
        pressure(reducible, zero)


def test_binary_entropy_helper_consistency(full2):
    # H(alpha) = P at the dual parameter minus the linear term; quick sanity
    # link between the pressure route and the Bernoulli entropy formula.
    g1 = LocallyConstantFunction.indicator(full2, (1,))
    alpha = 0.3
    beta = np.log(alpha / (1 - alpha))
    res = pressure(full2, beta * g1)
    assert abs((res.value - beta * alpha) - binary_entropy(alpha)) < 1e-12


@pytest.mark.parametrize("name", ["full2", "golden"])
@pytest.mark.parametrize("memory", [1, 2, 3])
def test_covariance_is_the_jacobian_of_the_means(name, memory, request):
    """The analytic Hessian of P against central differences of the means."""
    sft = request.getfixturevalue(name)
    words = admissible_words(sft, memory)
    vals = np.random.default_rng(memory).normal(size=2 * len(words))
    g = LocallyConstantFunction(sft, memory, dict(zip(words, vals[: len(words)])))
    h = LocallyConstantFunction(sft, memory, dict(zip(words, vals[len(words) :])))
    model = _EdgeModel(sft, [g, h])
    beta = np.array([0.7, -0.4])
    H = _covariance(model.solve(tuple(beta)), model.edges)
    step = 1e-5
    J = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = step
        J[:, k] = (np.array(model.solve(tuple(beta + e)).means) - np.array(model.solve(tuple(beta - e)).means)) / (2 * step)
    assert np.abs(H - J).max() <= 1e-6 * np.abs(H).max()


@pytest.mark.parametrize("name", ["full2", "golden"])
@pytest.mark.parametrize("memory, min_memory", [(1, 1), (2, 1), (3, 1), (2, 3)])
def test_edge_tables_read_the_edge_words(name, memory, min_memory, request):
    """Edge (i, j) of the recoding carries f of the word i followed by j's last symbol."""
    sft = request.getfixturevalue(name)
    words = admissible_words(sft, memory)
    g = LocallyConstantFunction(sft, memory, dict(zip(words, np.random.default_rng(memory).normal(size=len(words)))))
    model = _EdgeModel(sft, [g], min_memory=min_memory)
    (E,) = model.edges
    rec = model.rec
    for i, j in zip(*np.nonzero(model.mask)):
        assert E[i, j] == g(rec.words[i] + rec.words[j][-1:])
    assert (E[~model.mask] == 0.0).all()


def test_pressure_of_a_large_negative_constant(golden):
    """The non-edges of the weight matrix are never exponentiated (no overflow warning)."""
    res = pressure(golden, LocallyConstantFunction.constant(golden, -1000.0))
    assert abs(res.value - (-1000.0 + np.log((1 + np.sqrt(5)) / 2))) < 1e-12
