from __future__ import annotations

import numpy as np
import pytest

from conftest import bernoulli_measure, binary_entropy
from symflow.errors import DomainError
from symflow.measures import InvariantMeasure, periodic_orbit_measure, random_markov_component
from symflow.sft import LocallyConstantFunction, Sft, admissible_words, topological_entropy
from symflow.thermo import pressure, verify_equilibrium


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
