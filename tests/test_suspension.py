from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bernoulli_measure, count_solves
from symflow.errors import DomainError
from symflow.measures import InvariantMeasure, random_markov_component
from symflow.sft import LocallyConstantFunction, Sft, admissible_words, topological_entropy
from symflow.suspension import (
    SuspensionSystem,
    abramov_entropy,
    d_star_flow,
    flow_integral,
    flow_mixture_weights,
    flow_top_entropy,
)


def golden_two_roof(golden: Sft) -> SuspensionSystem:
    roof = LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0})
    return SuspensionSystem(golden, roof)


def test_roof_validation(full2, golden):
    with pytest.raises(DomainError):
        SuspensionSystem(full2, LocallyConstantFunction.constant(full2, 0.0))
    with pytest.raises(DomainError):
        SuspensionSystem(full2, LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): -0.5}))
    with pytest.raises(DomainError):
        SuspensionSystem(golden, LocallyConstantFunction.constant(full2, 1.0))


def test_abramov_on_parry_measure(golden):
    system = golden_two_roof(golden)
    phi = (1 + np.sqrt(5)) / 2
    from symflow.thermo import pressure

    parry = InvariantMeasure.single(
        pressure(golden, LocallyConstantFunction.constant(golden, 0.0)).equilibrium
    )
    pi1 = parry.cylinder_prob((1,))
    expect = np.log(phi) / (1 + pi1)
    assert abs(abramov_entropy(system, parry) - expect) < 1e-12


def test_flow_integral_examples(full2):
    # phi = c and roof = r constants: time average c / r.
    roof = LocallyConstantFunction.constant(full2, 3.0)
    system = SuspensionSystem(full2, roof)
    mu = bernoulli_measure(full2, [0.6, 0.4])
    c = LocallyConstantFunction.constant(full2, 1.2)
    assert abs(flow_integral(system, mu, c) - 0.4) < 1e-14
    # The roof itself always has flow average 1.
    assert abs(flow_integral(system, mu, roof) - 1.0) < 1e-14
    # Indicator of [1] over roof 2 under Bernoulli(p): p / 2.
    two = SuspensionSystem(full2, LocallyConstantFunction.constant(full2, 2.0))
    g1 = LocallyConstantFunction.indicator(full2, (1,))
    for p in (0.2, 0.5, 0.9):
        b = bernoulli_measure(full2, [1 - p, p])
        assert abs(flow_integral(two, b, g1) - p / 2) < 1e-14


def test_constant_roof_rescales_everything(full2):
    two = SuspensionSystem(full2, LocallyConstantFunction.constant(full2, 2.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        mu = InvariantMeasure.single(random_markov_component(full2, 2, rng))
        assert abs(abramov_entropy(two, mu) - mu.entropy() / 2) < 1e-12
    assert abs(flow_top_entropy(two) - np.log(2) / 2) < 1e-12
    assert abs(flow_top_entropy(two) - 0.3465736) < 5e-8


def test_flow_top_entropy_closed_forms(full2, golden):
    # Roof (1, 2) on the full 2-shift: with x = e^{-s} the weighted matrix
    # has both rows (x, x^2), hence Perron root x + x^2, and the pressure
    # equation P(-s*roof) = 0 becomes x + x^2 = 1, so s* = log(golden ratio).
    two_roof = LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0})
    expect = np.log((1 + np.sqrt(5)) / 2)
    assert abs(flow_top_entropy(SuspensionSystem(full2, two_roof)) - expect) < 1e-10
    # Same roof on the golden-mean shift: Perron root 1 for [[x, x], [x^2, 0]]
    # forces 1 - x - x^3 = 0; solve the cubic independently.
    roots = np.roots([1.0, 0.0, 1.0, -1.0])
    x = float(roots[np.isclose(roots.imag, 0.0) & (roots.real > 0)].real[0])
    assert abs(flow_top_entropy(golden_two_roof(golden)) + np.log(x)) < 1e-10


def test_flow_top_entropy_dominates_lifted_measures(golden):
    system = golden_two_roof(golden)
    top = flow_top_entropy(system)
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = InvariantMeasure.single(random_markov_component(golden, int(rng.integers(1, 3)), rng))
        assert top - abramov_entropy(system, mu) >= -1e-9


def test_flow_top_entropy_variational_attained(golden):
    # The equilibrium of -s* roof at the root attains the supremum.
    from symflow.thermo import pressure

    system = golden_two_roof(golden)
    s = flow_top_entropy(system)
    eq = InvariantMeasure.single(pressure(golden, -s * system.roof).equilibrium)
    assert abs(abramov_entropy(system, eq) - s) < 1e-10


def test_d_star_flow_basic(full2):
    two = SuspensionSystem(full2, LocallyConstantFunction.constant(full2, 2.0))
    mu = bernoulli_measure(full2, [0.8, 0.2])
    nu = bernoulli_measure(full2, [0.2, 0.8])
    assert d_star_flow(two, mu, mu) == 0.0
    d = d_star_flow(two, mu, nu)
    assert abs(d - d_star_flow(two, nu, mu)) < 1e-15
    # Constant roof cancels in the normalized weights, so the flow distance
    # equals the base distance.
    from symflow.measures import d_star

    assert abs(d - d_star(mu, nu)) < 1e-15


def test_d_star_flow_starts_at_roof_memory(golden):
    roof = LocallyConstantFunction(golden, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.5})
    system = SuspensionSystem(golden, roof)
    rng = np.random.default_rng(11)
    mu = InvariantMeasure.single(random_markov_component(golden, 1, rng))
    nu = InvariantMeasure.single(random_markov_component(golden, 1, rng))
    # Independent recomputation straight from the definition.
    from symflow.sft import admissible_words

    zmu, znu = mu.integrate(roof), nu.integrate(roof)
    total = 0.0
    for n in range(2, 11):
        worst = max(
            abs(mu.cylinder_prob(w) * roof(w) / zmu - nu.cylinder_prob(w) * roof(w) / znu)
            for w in admissible_words(golden, n)
        )
        total += worst / 2.0**n
    assert abs(d_star_flow(system, mu, nu) - total) < 1e-15


def test_mixture_reweighting_identity(golden):
    system = golden_two_roof(golden)
    rng = np.random.default_rng(23)
    for _ in range(20):
        mu = InvariantMeasure.single(random_markov_component(golden, 1, rng))
        nu = InvariantMeasure.single(random_markov_component(golden, 2, rng))
        t = float(rng.uniform(0.05, 0.95))
        mix = InvariantMeasure.mix([(t, mu), (1 - t, nu)])
        w = flow_mixture_weights(system, [mu, nu], [t, 1 - t])
        assert abs(sum(w) - 1.0) < 1e-12
        # Lifted entropy of the base mixture equals the flow mixture of
        # lifted entropies with the reweighted coefficients.
        lhs = abramov_entropy(system, mix)
        rhs = w[0] * abramov_entropy(system, mu) + w[1] * abramov_entropy(system, nu)
        assert abs(lhs - rhs) < 1e-10
        # Same identity for flow averages of an observable.
        phi = LocallyConstantFunction.indicator(golden, (0, 1))
        lhs_i = flow_integral(system, mix, phi)
        rhs_i = w[0] * flow_integral(system, mu, phi) + w[1] * flow_integral(system, nu, phi)
        assert abs(lhs_i - rhs_i) < 1e-10


def test_system_json_round_trip(golden):
    system = golden_two_roof(golden)
    again = SuspensionSystem.from_json(system.to_json())
    assert again.base == golden
    words = [(0,), (1,)]
    assert np.array_equal(again.roof.values(words), system.roof.values(words))
    assert abs(flow_top_entropy(again) - flow_top_entropy(system)) < 1e-14


def test_flow_entropy_reduces_to_map_when_roof_is_one(full2, golden):
    for sft in (full2, golden):
        one = SuspensionSystem(sft, LocallyConstantFunction.constant(sft, 1.0))
        assert abs(flow_top_entropy(one) - topological_entropy(sft)) < 1e-12


@pytest.mark.parametrize("A", [np.ones((2, 2), dtype=int), [[1, 1], [1, 0]], np.ones((3, 3), dtype=int)])
def test_flow_top_entropy_is_the_pressure_root(A, monkeypatch):
    from symflow.thermo import pressure

    sft = Sft(A)
    h = topological_entropy(sft)
    solved = count_solves(monkeypatch)
    for memory in (1, 2, 3):
        for seed in range(3):
            words = admissible_words(sft, memory)
            values = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(words))
            roof = LocallyConstantFunction(sft, memory, dict(zip(words, values)))
            solved.clear()
            s = flow_top_entropy(SuspensionSystem(sft, roof))
            assert len(solved) <= 8
            assert abs(pressure(sft, -s * roof).value) <= 1e-12
            assert h / values.max() <= s <= h / values.min()


def test_flow_top_entropy_of_a_zero_entropy_base_is_plus_zero():
    # The one periodic orbit has entropy 0 (read as -0.0 off its
    # deterministic chain); the level returned is the s = 0 that was solved.
    cycle = Sft([[0, 1], [1, 0]])
    s = flow_top_entropy(SuspensionSystem(cycle, LocallyConstantFunction(cycle, 1, {(0,): 1.0, (1,): 3.0})))
    assert s == 0.0 and math.copysign(1.0, s) == 1.0
