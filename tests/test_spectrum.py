from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import bisect, minimize

from conftest import bernoulli_measure, binary_entropy
from symflow.errors import DomainError
from symflow.measures import InvariantMeasure, periodic_orbit_measure, support_is_full
from symflow.sft import LocallyConstantFunction, Sft, admissible_words
from symflow.spectrum import (
    birkhoff_range,
    conditional_entropy_spectrum,
    conditional_entropy_spectrum_2d,
    flow_conditional_spectrum,
    flow_ratio_range,
    rotation_set_2d,
)
from symflow.suspension import SuspensionSystem, abramov_entropy, flow_integral
from symflow.thermo import pressure


def ind1(sft: Sft) -> LocallyConstantFunction:
    return LocallyConstantFunction.indicator(sft, (1,))


def golden_H(alpha: float) -> float:
    """Closed form on the golden-mean shift for g = 1_[1].

    Memory-1 chains [[1-p, p], [1, 0]] have mean p/(1+p) and entropy
    H_bin(p)/(1+p); eliminating p at mean alpha gives the spectrum.
    """
    p = alpha / (1 - alpha)
    return (1 - alpha) * binary_entropy(p)


def brute_golden_H(alpha: float) -> float:
    """Grid-free brute force over the same one-parameter family.

    Solves mean(p) = alpha by bisection on the monotone mean map and
    evaluates the chain entropy directly, with no duality anywhere.
    """
    p = bisect(lambda p: p / (1 + p) - alpha, 1e-12, 1 - 1e-12, xtol=1e-14)
    pi0 = 1 / (1 + p)
    return pi0 * binary_entropy(p)


def test_birkhoff_range_full_shift(full2):
    r = birkhoff_range(full2, ind1(full2))
    assert (r.lo, r.hi) == (0.0, 1.0)
    assert set(r.argmin) == {0} and set(r.argmax) == {1}


def test_birkhoff_range_golden(golden):
    r = birkhoff_range(golden, ind1(golden))
    assert r.lo == 0.0 and abs(r.hi - 0.5) < 1e-15
    assert sorted(r.argmax) == [0, 1]
    # The witness words really attain the extremes.
    lo_orbit = periodic_orbit_measure(golden, r.argmin)
    hi_orbit = periodic_orbit_measure(golden, r.argmax)
    assert abs(lo_orbit.integrate(ind1(golden)) - r.lo) < 1e-15
    assert abs(hi_orbit.integrate(ind1(golden)) - r.hi) < 1e-15


def test_full_shift_spectrum_is_binary_entropy(full2):
    g = ind1(full2)
    for alpha in np.arange(0.1, 0.95, 0.1):
        res = conditional_entropy_spectrum(full2, g, float(alpha))
        assert abs(res.entropy - binary_entropy(alpha)) < 1e-10
        beta_expect = np.log(alpha / (1 - alpha))
        assert abs(res.beta - beta_expect) < 1e-8
        mu = InvariantMeasure.single(res.witness)
        assert abs(mu.integrate(g) - alpha) < 1e-9
        assert abs(mu.entropy() - res.entropy) < 1e-9
        assert mu.ergodic and support_is_full(mu)


def test_full_shift_spectrum_named_points(full2):
    g = ind1(full2)
    res = conditional_entropy_spectrum(full2, g, 0.3)
    assert abs(res.entropy - 0.6108643) < 5e-8
    assert abs(res.beta - np.log(3 / 7)) < 1e-9
    ref = bernoulli_measure(full2, [0.7, 0.3])
    mu = InvariantMeasure.single(res.witness)
    from symflow.measures import d_star

    assert d_star(mu, ref) < 1e-8
    mid = conditional_entropy_spectrum(full2, g, 0.5)
    assert abs(mid.entropy - np.log(2)) < 1e-12
    assert abs(mid.beta) < 1e-8


def test_golden_spectrum_matches_closed_form_and_brute_force(golden):
    g = ind1(golden)
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.45):
        res = conditional_entropy_spectrum(golden, g, alpha)
        assert abs(res.entropy - golden_H(alpha)) < 1e-10
        assert abs(res.entropy - brute_golden_H(alpha)) < 1e-5


@pytest.mark.parametrize("c, eps", [(-0.3, 1e-4), (-0.3, 1e-6), (0.5, 1e-6)])
def test_golden_spectrum_near_the_top_of_L_g(golden, c, eps):
    # At alpha = hi - eps*|L_g| the dual tilt beta lies between 10 and 230
    # and the tilted matrix has almost no spectral gap.
    g = ind1(golden) + c * LocallyConstantFunction.indicator(golden, (1, 0, 1))
    r = birkhoff_range(golden, g)
    alpha = r.hi - eps * (r.hi - r.lo)
    res = conditional_entropy_spectrum(golden, g, alpha)
    mu = InvariantMeasure.single(res.witness)
    assert abs(mu.integrate(g) - alpha) <= 1e-9
    assert abs(mu.entropy() - res.entropy) <= 1e-8


def test_spectrum_domain_errors(full2):
    g = ind1(full2)
    with pytest.raises(DomainError) as e:
        conditional_entropy_spectrum(full2, g, 1.5)
    assert "outside L_g" in str(e.value)
    with pytest.raises(DomainError) as e:
        conditional_entropy_spectrum(full2, g, 1.0)
    assert "boundary" in str(e.value)
    with pytest.raises(DomainError):
        conditional_entropy_spectrum(full2, LocallyConstantFunction.constant(full2, 0.7), 0.7)


def test_spectrum_concavity(full2):
    g = ind1(full2)
    alphas = np.linspace(0.15, 0.85, 15)
    vals = np.array([conditional_entropy_spectrum(full2, g, float(a)).entropy for a in alphas])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert second.max() <= 1e-9  # concave
    betas = np.array([conditional_entropy_spectrum(full2, g, float(a)).beta for a in alphas])
    assert np.all(np.diff(betas) > -1e-10)  # dual parameter monotone in alpha


def test_rotation_set_contains_known_points(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    rset = rotation_set_2d(full2, g, h, directions=64)
    assert rset.rank == 2
    for pt in [(0.5, 0.25), (0.0, 0.0), (1.0, 1.0)]:
        assert rset.classify(pt) != "exterior"
    # Extreme cycle means are honest members: each support value is attained.
    attained = rset.points @ rset.directions.T
    assert np.abs(np.diag(attained) - rset.support).max() < 1e-12


def hull_area(hull: np.ndarray) -> float:
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def test_rotation_set_refines_with_directions(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    coarse = rotation_set_2d(full2, g, h, directions=64)
    fine = rotation_set_2d(full2, g, h, directions=256)
    assert hull_area(fine.hull) >= hull_area(coarse.hull) - 1e-12


def test_2d_spectrum_at_the_maximal_measure(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    res = conditional_entropy_spectrum_2d(full2, g, h, (0.5, 0.25))
    assert abs(res.entropy - np.log(2)) < 1e-9
    assert np.abs(np.asarray(res.beta)).max() < 1e-6
    mu = InvariantMeasure.single(res.witness)
    assert abs(mu.integrate(g) - 0.5) < 1e-8
    assert abs(mu.integrate(h) - 0.25) < 1e-8


def brute_2d_full_shift(alpha: tuple) -> float:
    """Constrained maximization over memory-2 chains on the full 2-shift.

    States 00,01,10,11; variable x[s] = P(next symbol 1 | state s).  The
    stationary vector comes from a dense eigensolve, the constraints read
    off the marginals, and SLSQP does the maximization from several starts.
    """

    def unpack(x):
        Q = np.zeros((4, 4))
        for s in range(4):
            b = s % 2
            Q[s, 2 * b] = 1 - x[s]
            Q[s, 2 * b + 1] = x[s]
        vals, vecs = np.linalg.eig(Q.T)
        pi = np.real(vecs[:, np.argmin(np.abs(vals - 1))])
        pi = np.abs(pi) / np.abs(pi).sum()
        return Q, pi

    def entropy(x):
        _, pi = unpack(x)
        hb = -(x * np.log(x) + (1 - x) * np.log(1 - x))
        return float(pi @ hb)

    def mean_g(x):
        _, pi = unpack(x)
        return float(pi[2] + pi[3])  # first symbol is 1

    def mean_h(x):
        _, pi = unpack(x)
        return float(pi[3])  # word 11

    best = -np.inf
    for seed in range(4):
        x0 = np.random.default_rng(seed).uniform(0.2, 0.8, size=4)
        res = minimize(
            lambda x: -entropy(x),
            x0,
            method="SLSQP",
            bounds=[(1e-9, 1 - 1e-9)] * 4,
            constraints=[
                {"type": "eq", "fun": lambda x: mean_g(x) - alpha[0]},
                {"type": "eq", "fun": lambda x: mean_h(x) - alpha[1]},
            ],
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.success and -res.fun > best:
            best = -res.fun
    return best


def test_2d_spectrum_matches_brute_force(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    res = conditional_entropy_spectrum_2d(full2, g, h, (0.4, 0.2))
    assert abs(res.entropy - brute_2d_full_shift((0.4, 0.2))) < 1e-5
    mu = InvariantMeasure.single(res.witness)
    assert abs(mu.integrate(g) - 0.4) < 1e-8
    assert abs(mu.integrate(h) - 0.2) < 1e-8
    assert mu.ergodic and support_is_full(mu)


@pytest.mark.parametrize(
    "name, memory, seed, alpha",
    [
        ("full2", 2, 0, (0.11543076041188143, 0.20622786643066085)),
        ("full3", 2, 4, (-1.6246239873447692, 0.8061148636473741)),
        ("golden", 3, 5, (-0.1790544323729675, 0.2673313821115145)),
    ],
)
def test_2d_spectrum_near_the_edge_of_the_rotation_set(name, memory, seed, alpha, request):
    """Interior points where a finite-difference Newton with a Nelder-Mead
    fallback stopped with no_convergence; Newton on the dual solves them."""
    sft = Sft(np.ones((3, 3), dtype=int)) if name == "full3" else request.getfixturevalue(name)
    words = admissible_words(sft, memory)
    vals = np.random.default_rng(seed).normal(size=2 * len(words))
    g = LocallyConstantFunction(sft, memory, dict(zip(words, vals[: len(words)])))
    h = LocallyConstantFunction(sft, memory, dict(zip(words, vals[len(words) :])))
    res = conditional_entropy_spectrum_2d(sft, g, h, alpha)
    comp = res.witness
    assert max(abs(comp.integrate(g) - alpha[0]), abs(comp.integrate(h) - alpha[1])) <= 1e-9
    b0, b1 = res.beta
    P = pressure(sft, g * b0 + h * b1).value
    assert abs(P - (b0 * alpha[0] + b1 * alpha[1]) - res.entropy) <= 1e-9


def test_2d_degenerate_pair(full2):
    g = ind1(full2)
    h = LocallyConstantFunction.constant(full2, 1.0) + (-1.0) * g
    with pytest.raises(DomainError) as e:
        conditional_entropy_spectrum_2d(full2, g, h, (0.9, 0.9))
    assert "exterior" in str(e.value)
    with pytest.raises(DomainError) as e:
        conditional_entropy_spectrum_2d(full2, g, h, (0.5, 0.5))
    assert e.value.name in ("degenerate", "boundary")


def test_flow_ratio_range(full2, golden):
    roof = LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(full2, roof)
    r = flow_ratio_range(system, ind1(full2))
    # Fixed points: orbit 0 has ratio 0, orbit 1 has ratio 1/2.
    assert abs(r.lo - 0.0) < 1e-15 and abs(r.hi - 0.5) < 1e-15
    lo_m = periodic_orbit_measure(full2, r.argmin)
    hi_m = periodic_orbit_measure(full2, r.argmax)
    assert abs(flow_integral(system, lo_m, ind1(full2)) - r.lo) < 1e-14
    assert abs(flow_integral(system, hi_m, ind1(full2)) - r.hi) < 1e-14


def test_flow_spectrum_reduces_to_map_for_unit_roof(golden):
    one = SuspensionSystem(golden, LocallyConstantFunction.constant(golden, 1.0))
    g = ind1(golden)
    for alpha in (0.15, 0.3, 0.42):
        fres = flow_conditional_spectrum(one, g, alpha)
        mres = conditional_entropy_spectrum(golden, g, alpha)
        assert abs(fres.entropy - mres.entropy) < 1e-9


def test_flow_spectrum_constant_roof_two(full2):
    two = SuspensionSystem(full2, LocallyConstantFunction.constant(full2, 2.0))
    res = flow_conditional_spectrum(two, ind1(full2), 0.15)
    # Flow average 0.15 under roof 2 pins the map average at 0.3 and halves
    # the entropy.
    assert abs(res.entropy - binary_entropy(0.3) / 2) < 1e-9
    assert abs(res.entropy - 0.3054321) < 1e-7
    assert res.s == res.entropy


def brute_flow_golden(alpha: float) -> float:
    """One-parameter brute force for roof (1,2), phi = 1_[1] on golden-mean.

    Chains [[1-p, p], [1, 0]] have flow average p/(1+2p) and flow entropy
    H_bin(p)/(1+2p); bisection on the monotone average solves the constraint.
    """
    p = bisect(lambda p: p / (1 + 2 * p) - alpha, 1e-12, 1 - 1e-12, xtol=1e-14)
    return binary_entropy(p) / (1 + 2 * p)


def test_flow_spectrum_golden_nonconstant_roof(golden):
    roof = LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(golden, roof)
    g = ind1(golden)
    for alpha in (0.1, 0.2, 0.3):
        res = flow_conditional_spectrum(system, g, alpha)
        assert abs(res.entropy - brute_flow_golden(alpha)) < 1e-5
        mu = InvariantMeasure.single(res.witness)
        assert abs(flow_integral(system, mu, g) - alpha) < 1e-8
        assert abs(abramov_entropy(system, mu) - res.s) < 1e-8


def test_flow_spectrum_concavity_and_errors(golden):
    roof = LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(golden, roof)
    g = ind1(golden)
    alphas = np.linspace(0.05, 0.3, 9)
    vals = np.array([flow_conditional_spectrum(system, g, float(a)).entropy for a in alphas])
    second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert second.max() <= 1e-7
    with pytest.raises(DomainError):
        flow_conditional_spectrum(system, g, 0.9)
    with pytest.raises(DomainError):
        flow_conditional_spectrum(system, LocallyConstantFunction.constant(golden, 2.0), 2.0)
