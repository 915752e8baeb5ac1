from __future__ import annotations

import numpy as np
import pytest

from conftest import binary_entropy
from symflow.errors import DomainError, InputError
from symflow.measures import InvariantMeasure, d_star, support_is_full
from symflow.sft import LocallyConstantFunction, Sft
from symflow.spectrum import conditional_entropy_spectrum
from symflow.witness import (
    _connector,
    birkhoff_witness_2d,
    intermediate_witness,
    low_entropy_mean_witness,
    orthant_combination,
)


def ind1(sft: Sft) -> LocallyConstantFunction:
    return LocallyConstantFunction.indicator(sft, (1,))


def test_connector_shortest_path():
    cycle4 = Sft(np.roll(np.eye(4, dtype=int), 1, axis=1))
    assert _connector(cycle4, 1, [(0,)], {(3,)}) == [(0,), (1,), (2,), (3,)]
    # Multi-source: the path starts at the source nearest the targets.
    assert _connector(cycle4, 2, [(0, 1), (1, 2)], {(3, 0)}) == [(1, 2), (2, 3), (3, 0)]


def test_connector_disconnected():
    two_loops = Sft([[1, 0], [0, 1]])
    with pytest.raises(DomainError):
        _connector(two_loops, 1, [(0,)], {(1,)})


def test_low_entropy_witness_basic(full2):
    g = ind1(full2)
    for alpha, cap in ((0.5, 0.05), (0.3, 0.02)):
        mu = low_entropy_mean_witness(full2, g, alpha, cap)
        assert mu.ergodic
        assert abs(mu.integrate(g) - alpha) < 1e-9
        assert 0.0 < mu.entropy() <= cap


def test_low_entropy_witness_golden(golden):
    g = ind1(golden)
    mu = low_entropy_mean_witness(golden, g, 0.25, 0.01)
    assert mu.ergodic
    assert abs(mu.integrate(g) - 0.25) < 1e-9
    assert mu.entropy() <= 0.01


def test_low_entropy_witness_rejects_boundary(full2):
    g = ind1(full2)
    with pytest.raises(DomainError) as e:
        low_entropy_mean_witness(full2, g, 0.0, 0.05)
    assert e.value.name == "not_interior"
    with pytest.raises(DomainError):
        low_entropy_mean_witness(full2, g, 0.5, 0.0)  # nonpositive cap


def test_intermediate_witness_named_point(full2):
    g = ind1(full2)
    alpha = 0.3
    c = 0.5 * binary_entropy(alpha)
    nu = intermediate_witness(full2, g, alpha, c)
    assert abs(nu.integrate(g) - alpha) < 1e-8
    assert abs(nu.entropy() - c) < 1e-6
    assert abs(c - 0.3054321) < 1e-7
    assert nu.ergodic and support_is_full(nu)


def test_intermediate_witness_full_level_is_spectrum_witness(full2):
    g = ind1(full2)
    alpha = 0.4
    H = conditional_entropy_spectrum(full2, g, alpha).entropy
    nu = intermediate_witness(full2, g, alpha, H)
    assert abs(nu.entropy() - H) < 1e-6
    assert abs(nu.integrate(g) - alpha) < 1e-8


def test_intermediate_witness_rejects_unreachable_levels(full2):
    g = ind1(full2)
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, g, 0.3, 0.0)
    assert e.value.name == "band"
    assert "achieved minimum" in str(e.value)
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, g, 0.3, 2.0)
    assert e.value.name == "band"


def test_intermediate_witness_grid(full2, golden):
    for sft, alphas in ((full2, (0.2, 0.3, 0.4)), (golden, (0.15, 0.25))):
        g = ind1(sft)
        for alpha in alphas:
            H = conditional_entropy_spectrum(sft, g, alpha).entropy
            for frac in (0.25, 0.5, 0.75):
                nu = intermediate_witness(sft, g, alpha, frac * H)
                assert abs(nu.integrate(g) - alpha) < 1e-8
                assert abs(nu.entropy() - frac * H) < 1e-5
                assert nu.ergodic and support_is_full(nu)


def test_intermediate_witness_with_linear_term(full2):
    g = ind1(full2)
    u = LocallyConstantFunction.indicator(full2, (0, 1))
    alpha = 0.35
    # Admissible top value of h + int(u) at the constrained equilibrium.
    from symflow.spectrum import _EdgeModel, _expand_bracket
    from scipy.optimize import brentq

    model = _EdgeModel(full2, [g, u])
    f = lambda b: model.solve((b, 1.0)).means[0] - alpha
    blo, bhi = _expand_bracket(f)
    beta = brentq(f, blo, bhi, xtol=1e-13)
    top = model.solve((beta, 1.0))
    P_top = top.entropy + top.means[1]
    c = 0.6 * P_top
    nu = intermediate_witness(full2, g, alpha, c, u=u)
    assert abs(nu.integrate(g) - alpha) < 1e-8
    assert abs(nu.entropy() + nu.integrate(u) - c) < 1e-5


def test_intermediate_witness_near_mu0(full2):
    g = ind1(full2)
    alpha = 0.3
    H = binary_entropy(alpha)
    mu0 = intermediate_witness(full2, g, alpha, 0.6 * H)
    nu = intermediate_witness(full2, g, alpha, 0.5 * H, mu0=mu0, zeta=0.25)
    assert abs(nu.integrate(g) - alpha) < 1e-8
    assert abs(nu.entropy() - 0.5 * H) < 1e-5
    assert d_star(nu, mu0) < 0.25
    with pytest.raises(InputError):
        intermediate_witness(full2, g, alpha, 0.5 * H, mu0=mu0)  # zeta missing


def test_level_functional_is_affine_on_mixtures(full2):
    # The targeted level h + int(u) is affine in the measure, which is what
    # the bisection along the path relies on.
    g = ind1(full2)
    u = LocallyConstantFunction.indicator(full2, (0, 0))
    a = intermediate_witness(full2, g, 0.3, 0.2)
    b = intermediate_witness(full2, g, 0.3, 0.5)
    va = a.entropy() + a.integrate(u)
    vb = b.entropy() + b.integrate(u)
    for theta in np.linspace(0.0, 1.0, 7):
        mix = InvariantMeasure.mix([(theta, a), (1 - theta, b)])
        assert abs((mix.entropy() + mix.integrate(u)) - (theta * va + (1 - theta) * vb)) < 1e-12


def test_birkhoff_witness_2d(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    for alpha in [(0.5, 0.25), (0.4, 0.2), (0.45, 0.3)]:
        nu = birkhoff_witness_2d(full2, g, h, alpha)
        assert abs(nu.integrate(g) - alpha[0]) < 1e-5
        assert abs(nu.integrate(h) - alpha[1]) < 1e-5
        assert nu.ergodic and support_is_full(nu)


def test_orthant_combination_1d():
    w = orthant_combination(0.5, [(np.array([0.2]), None), (np.array([0.8]), None)])
    assert np.abs(w - np.array([0.5, 0.5])).max() < 1e-12
    w = orthant_combination(0.3, [(np.array([0.2]), None), (np.array([0.8]), None)])
    assert np.abs(w - np.array([5 / 6, 1 / 6])).max() < 1e-12


def test_orthant_combination_2d_mixture_hits_target(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    alpha = np.array([0.45, 0.22])
    delta = 0.05
    measures, cands = [], []
    for sx in (+1, -1):
        for sy in (+1, -1):
            target = (alpha[0] + sx * delta, alpha[1] + sy * delta)
            nu = birkhoff_witness_2d(full2, g, h, target, tol=1e-11)
            measures.append(nu)
            cands.append((np.array([nu.integrate(g), nu.integrate(h)]), None))
    w = orthant_combination(alpha, cands)
    mix = InvariantMeasure.mix(list(zip(w, measures)))
    assert abs(mix.integrate(g) - alpha[0]) < 1e-10
    assert abs(mix.integrate(h) - alpha[1]) < 1e-10


def test_orthant_combination_validation():
    with pytest.raises(InputError):
        orthant_combination(0.5, [(np.array([0.2]), None)])
    with pytest.raises(DomainError) as e:
        orthant_combination(0.5, [(np.array([0.5]), None), (np.array([0.8]), None)])
    assert e.value.name == "orthant"
    with pytest.raises(DomainError):
        orthant_combination(0.5, [(np.array([0.6]), None), (np.array([0.8]), None)])


def test_orthant_combination_with_roof_weights():
    # Flow-style candidates (p, q): the combination zeroes p - alpha*q.
    alpha = np.array([0.2])
    cands = [
        (np.array([0.1]), np.array([1.0])),
        (np.array([0.5]), np.array([1.5])),
    ]
    w = orthant_combination(alpha, cands)
    resid = sum(wi * (p - alpha * q) for wi, (p, q) in zip(w, cands))
    assert np.abs(resid).max() < 1e-12
