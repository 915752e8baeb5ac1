from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import bisect, minimize

from conftest import bernoulli_measure, binary_entropy, count_karp, count_models, count_solves, sign_change_bracket, spy_solves
from symflow.errors import DomainError, InputError
from symflow.measures import InvariantMeasure, periodic_orbit_measure, support_is_full
from symflow.sft import LocallyConstantFunction, Sft, admissible_words
from symflow.spectrum import (
    BirkhoffRange,
    FlowRatioRange,
    _check_interior,
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


def test_check_interior_names_each_case():
    # One test for every 1-D entry point: NaN is input, +-inf outside_range,
    # and the degenerate spread is 1e-12 unless the caller passes another.
    with pytest.raises(InputError):
        _check_interior(0.0, 1.0, float("nan"))
    cases = [
        ((0.0, 1.0, np.inf), "outside_range"),
        ((0.0, 1.0, -np.inf), "outside_range"),
        ((0.0, 1.0, 1.0 + 2e-9), "outside_range"),
        ((0.0, 1.0, 1.0 + 0.5e-9), "boundary"),
        ((0.0, 1.0, 0.5e-9), "boundary"),
        ((0.0, 1e-12, 0.5e-12), "degenerate"),
        ((0.0, 5e-11, 2.5e-11), "boundary"),
    ]
    for args, name in cases:
        with pytest.raises(DomainError) as e:
            _check_interior(*args)
        assert e.value.name == name, args
    with pytest.raises(DomainError) as e:
        _check_interior(0.0, 5e-11, 2.5e-11, spread=1e-10)
    assert e.value.name == "degenerate"
    _check_interior(-3.0, 4.0, 0.25)
    _check_interior(1e12, 1e12 + 1e4, 1e12 + 5e3)  # the edge tolerance scales with the ends


def test_spectrum_refuses_a_nan_alpha(full2, golden):
    with pytest.raises(InputError):
        conditional_entropy_spectrum(full2, ind1(full2), float("nan"))
    with pytest.raises(DomainError) as e:
        conditional_entropy_spectrum(full2, ind1(full2), np.inf)
    assert e.value.name == "outside_range"
    system = SuspensionSystem(golden, LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0}))
    with pytest.raises(InputError):
        flow_conditional_spectrum(system, ind1(golden), float("nan"))
    with pytest.raises(DomainError) as e:
        flow_conditional_spectrum(system, ind1(golden), -np.inf)
    assert e.value.name == "outside_range"


def test_2d_spectrum_refuses_a_nan_coordinate(full2):
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    for alpha in ((float("nan"), 0.3), (0.5, float("nan")), (0.5,)):
        with pytest.raises(DomainError) as e:
            conditional_entropy_spectrum_2d(full2, ind1(full2), h, alpha)
        assert e.value.name == "input", alpha


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


def test_flow_spectrum_degenerate_ratios(golden):
    # phi = 2 roof: every flow average is 2, so the ratio range is a point.
    roof = LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(golden, roof)
    r = flow_ratio_range(system, 2.0 * roof)
    assert r.lo == r.hi == 2.0
    with pytest.raises(DomainError) as e:
        flow_conditional_spectrum(system, 2.0 * roof, 2.0)
    assert e.value.name == "degenerate"


def test_flow_ratio_range_is_a_birkhoff_range(golden):
    # The subclass keeps its own name in repr and compares only to its own kind.
    system = SuspensionSystem(golden, LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0}))
    r = flow_ratio_range(system, ind1(golden))
    assert isinstance(r, BirkhoffRange) and FlowRatioRange.__doc__ != BirkhoffRange.__doc__
    fields = dict(lo=r.lo, hi=r.hi, argmin=r.argmin, argmax=r.argmax)
    assert repr(r) == "FlowRatioRange(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert r == FlowRatioRange(**fields)
    assert r != BirkhoffRange(**fields)


def test_flow_spectrum_model_and_karp_counts(golden, monkeypatch):
    # One [phi, roof] model at memory 1 serves the ratio range and every
    # tilt; the interior check adds no Karp call.
    system = SuspensionSystem(golden, LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0}))
    models, karp = count_models(monkeypatch), count_karp(monkeypatch)
    flow_conditional_spectrum(system, ind1(golden), 0.16)
    assert models == [1]
    assert len(karp) == 4


def test_each_tilt_is_solved_once(full2, golden, monkeypatch):
    # The callers re-read the solve at the root, and the flow spectrum its
    # last level; none of those may run the Perron solve again.
    solved = count_solves(monkeypatch)
    g = LocallyConstantFunction(full2, 3, dict(zip(admissible_words(full2, 3), np.random.default_rng(3).normal(size=8))))
    rng = birkhoff_range(full2, g)
    res = conditional_entropy_spectrum(full2, g, rng.lo + 0.3 * (rng.hi - rng.lo))
    assert 3 <= len(solved) <= 5 and len(set(solved)) == len(solved)
    assert (res.beta,) in solved

    solved.clear()
    system = SuspensionSystem(golden, LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0}))
    res = flow_conditional_spectrum(system, ind1(golden), 0.2)
    assert 5 < len(solved) <= 12 and len(set(solved)) == len(solved)
    assert (res.beta, -res.s - res.beta * 0.2) in solved  # (0, -s) + beta * (1, -alpha)


def _memory7_table(full2, seed: int) -> LocallyConstantFunction:
    words = admissible_words(full2, 7)
    return LocallyConstantFunction(full2, 7, dict(zip(words, np.random.default_rng(seed).normal(size=len(words)))))


def test_a_64_state_spectrum_point_makes_one_eig_call(full2, golden, monkeypatch):
    # The first solve of a path starts from eig; every later one is warm-started
    # from the vector before it.  Below the size crossover every solve is cold.
    from symflow import sft as sft_module
    from symflow import thermo

    eig, equilibrium = sft_module.np.linalg.eig, thermo._equilibrium
    calls, starts = [], []

    def spy_eig(B):
        calls.append(B.shape)
        return eig(B)

    def spy_equilibrium(*args, **kwargs):
        sol = equilibrium(*args, **kwargs)
        starts.append(sol.start)
        return sol

    monkeypatch.setattr(sft_module.np.linalg, "eig", spy_eig)
    monkeypatch.setattr(thermo, "_equilibrium", spy_equilibrium)
    g = _memory7_table(full2, 7)
    rng = birkhoff_range(full2, g)
    conditional_entropy_spectrum(full2, g, rng.lo + 0.4 * (rng.hi - rng.lo))
    assert calls == [(64, 64)]
    assert starts[0] == "cold" and 3 <= len(starts) <= 5 and set(starts[1:]) == {"warm"}

    calls.clear()
    starts.clear()
    g = ind1(golden) + (-0.3) * LocallyConstantFunction.indicator(golden, (1, 0, 1))
    conditional_entropy_spectrum(golden, g, 0.3)
    assert len(calls) == len(starts) > 5 and set(starts) == {"cold"}


def test_a_64_state_interior_point_finds_every_pi_by_inverse_iteration(full2, monkeypatch):
    # The interior of L_g is well mixed: no solve needs the GTH fall-back.
    _, sols = spy_solves(monkeypatch)
    g = _memory7_table(full2, 7)
    rng = birkhoff_range(full2, g)
    conditional_entropy_spectrum(full2, g, rng.lo + 0.4 * (rng.hi - rng.lo))
    assert sols and {len(sol.pi) for sol in sols} == {64}
    assert {sol.pi_from for sol in sols} == {"inverse"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_spectrum_agrees_with_cold_pressure(full2, seed):
    # pressure() always starts cold; at the tilt the warm path returns, its P
    # and equilibrium mean must agree with the spectrum point.
    g = _memory7_table(full2, seed)
    rng = birkhoff_range(full2, g)
    for s in (0.2, 0.5, 0.8):
        alpha = rng.lo + s * (rng.hi - rng.lo)
        res = conditional_entropy_spectrum(full2, g, alpha)
        cold = pressure(full2, g * res.beta)
        assert abs(cold.value - (res.entropy + res.beta * alpha)) <= 1e-12 * max(1.0, abs(cold.value))
        assert abs(cold.equilibrium.integrate(g) - alpha) <= 1e-9


def test_interior_grid_solve_budget(full2, monkeypatch):
    # The Newton tilt's slope is the asymptotic variance, so the 39 interior
    # points of a 41-point grid on a 64-state recoding take at most 300
    # equilibrium solves together.
    solved = count_solves(monkeypatch)
    g = _memory7_table(full2, 7)
    rng = birkhoff_range(full2, g)
    for s in np.linspace(0.0, 1.0, 41)[1:-1]:
        conditional_entropy_spectrum(full2, g, rng.lo + s * (rng.hi - rng.lo))
    assert len(solved) <= 300


_SHIFTS = {
    "full2": np.ones((2, 2), dtype=int),
    "golden": [[1, 1], [1, 0]],
    "full3": np.ones((3, 3), dtype=int),
}
# Points where the Perron solve itself stalls at large tilt (ROADMAP item 1):
# the oracle fails there too.
_PERRON_STALLS = {("full3", 3, 0, "top", 1e-5), ("full3", 3, 0, "top", 1e-6)}


@pytest.mark.parametrize(
    "where",
    [(side, frac) for side in ("bottom", "top") for frac in (1e-2, 1e-4, 1e-5, 1e-6)]
    + [("bottom", 0.25), ("bottom", 0.5), ("bottom", 0.75)],
    ids=lambda where: f"{where[0]}-{where[1]:g}",
)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize("shift", sorted(_SHIFTS))
def test_newton_tilt_matches_a_brentq_oracle(shift, memory, seed, where):
    # Near each end of L_g and inside it, the Newton tilt must land where
    # brentq over a doubled bracket lands on the same mean equation.
    from scipy.optimize import brentq

    from symflow.spectrum import _EdgeModel

    sft = Sft(_SHIFTS[shift])
    words = admissible_words(sft, memory)
    g = LocallyConstantFunction(sft, memory, dict(zip(words, np.random.default_rng(seed).normal(size=len(words)))))
    rng = birkhoff_range(sft, g)
    side, frac = where
    alpha = rng.lo + frac * (rng.hi - rng.lo) if side == "bottom" else rng.hi - frac * (rng.hi - rng.lo)
    if (shift, memory, seed, side, frac) in _PERRON_STALLS:
        with pytest.raises(DomainError) as e:
            conditional_entropy_spectrum(sft, g, alpha)
        assert e.value.name == "iteration_cap"
        return
    res = conditional_entropy_spectrum(sft, g, alpha)
    model = _EdgeModel(sft, [g])

    def f(b: float) -> float:
        return model.solve((b,)).means[0] - alpha

    beta = brentq(f, *sign_change_bracket(f), xtol=1e-13, rtol=8.9e-16, maxiter=300)
    H = model.solve((beta,)).P - beta * alpha
    assert abs(res.entropy - H) <= 1e-12
    assert abs(res.beta - beta) <= 1e-10 * max(1.0, abs(beta))


def test_unreachable_tilt_names_its_bracket(full2):
    # 1_[1] has means in [0, 1], so the mean 1.5 is never reached: the tilt
    # runs up to the cap, and the error says where it stopped.
    import re

    from symflow.spectrum import _EdgeModel, _tilt

    model = _EdgeModel(full2, [ind1(full2)])
    with pytest.raises(DomainError) as e:
        _tilt(model, 1.5)
    assert e.value.name == "iteration_cap"
    found = re.search(r"after (\d+) steps: bracket \[(\S+), (\S+)\], beta (\S+), \|mean - alpha\| (\S+)", str(e.value))
    assert found is not None, str(e.value)
    lo, hi, beta, miss = (float(x) for x in found.groups()[1:])
    assert int(found.group(1)) >= 1
    assert 0.0 < lo < beta and hi == np.inf and abs(beta) > 2.0**40
    assert miss == pytest.approx(0.5, abs=1e-3)


def test_dinkelbach_names_its_last_level():
    # A ratio that keeps rising never settles: 100 steps, then the error
    # gives the last s and increment.
    from symflow.spectrum import _dinkelbach

    with pytest.raises(DomainError) as e:
        _dinkelbach(lambda s: (s + 0.5, None), 0.0)
    assert e.value.name == "no_convergence"
    assert "after 100 steps: s 50, last increment 0.5" in str(e.value)
    # The minimising direction stops where the ratio no longer falls.
    assert _dinkelbach(lambda s: (max(s - 1.0, -3.0), s), 0.0, -1.0) == (-3.0, -3.0)


@pytest.mark.parametrize("frac", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize("shift", sorted(_SHIFTS))
def test_flow_spectrum_matches_a_dual_oracle(shift, memory, frac, monkeypatch):
    # s(alpha) is the root of F(s) = min over beta of P(beta*q - s*rho), with
    # q = phi - alpha*rho.  The oracle takes that minimum with Brent's
    # minimiser and the root with brentq, sharing nothing with the Newton
    # tilt or the Dinkelbach loop, and the solver stays within 40 solves.
    from scipy.optimize import brentq, minimize_scalar

    from symflow.sft import topological_entropy
    from symflow.spectrum import _EdgeModel

    sft = Sft(_SHIFTS[shift])
    rng = np.random.default_rng(memory)
    words = admissible_words(sft, memory)
    phi = LocallyConstantFunction(sft, memory, dict(zip(words, rng.normal(size=len(words)))))
    roof = LocallyConstantFunction(sft, 1, dict(zip(admissible_words(sft, 1), rng.uniform(0.5, 2.0, size=sft.k))))
    system = SuspensionSystem(sft, roof)
    r = flow_ratio_range(system, phi)
    alpha = r.lo + frac * (r.hi - r.lo)
    solved = count_solves(monkeypatch)
    res = flow_conditional_spectrum(system, phi, alpha)
    assert len(solved) <= 40

    model = _EdgeModel(sft, [phi - alpha * roof, roof])

    def F(s: float) -> float:
        return minimize_scalar(lambda b: model.solve((b, -s)).P, method="brent").fun

    s_ref = brentq(F, 0.0, topological_entropy(sft) / roof.bounds()[0], xtol=1e-15, rtol=8.9e-16)
    assert abs(res.s - s_ref) <= 1e-12
    assert res.entropy == res.s


def _seeded_bracketed_functions(count: int):
    """(f, a, b) with a sign change on [a, b]: polynomials, steps smoothed
    by tanh or atan, exponentials and odd roots, drawn from default_rng(0)."""
    import math

    rng = np.random.default_rng(0)
    shapes = [
        lambda c, x: c[0] * (x - c[1]) + c[2] * (x - c[1]) ** 3,
        lambda c, x: math.tanh(c[0] * (x - 0.3 * c[1])) * abs(c[3]) + 1e-3 * c[4],
        lambda c, x: math.exp(c[0] * x) - math.exp(0.5 * c[1]),
        lambda c, x: (x - 0.2 * c[1]) ** 3,
        lambda c, x: math.copysign(abs(x - 0.3 * c[1]) ** 0.3, x - 0.3 * c[1]),
        lambda c, x: np.float64(math.atan(50.0 * (x - 0.3 * c[1]))),
        lambda c, x: (x - 0.3 * c[1]) * (x - 0.1 * c[2]) * (x + 2.5),
    ]
    out = []
    while len(out) < count:
        shape = shapes[len(out) % len(shapes)]
        c = rng.normal(size=6)
        a, b = -1.0 - abs(c[5]), 1.0 + abs(c[4])
        if rng.random() < 0.5:
            a, b = b, a
        f = lambda x, c=c, shape=shape: shape(c, x)  # noqa: E731
        if np.sign(f(a)) * np.sign(f(b)) < 0:
            out.append((f, a, b))
    return out


@pytest.mark.parametrize("xtol, rtol", [(1e-15, 8.9e-16), (1e-14, 8.9e-16)])
def test_brentq_port_matches_scipy_step_for_step(xtol, rtol):
    from scipy.optimize import brentq

    from symflow.spectrum import _brentq

    for f, a, b in _seeded_bracketed_functions(2100):
        for maxiter in (300, 4):
            seen_scipy, seen_port = [], []
            want, info = brentq(
                lambda x: seen_scipy.append(x) or f(x), a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                full_output=True, disp=False,
            )
            got, converged = _brentq(lambda x: seen_port.append(x) or f(x), a, b, xtol, rtol, maxiter)
            assert got == want and seen_port == seen_scipy, (a, b, maxiter)
            assert converged == info.converged


def test_brentq_port_ends_and_bad_bracket():
    from scipy.optimize import brentq

    from symflow.spectrum import _brentq

    f = lambda x: x * (x - 1.0)  # noqa: E731
    for a, b in ((0.0, 0.5), (0.5, 1.0), (1.0, 3.0), (-2.0, 0.0)):
        assert _brentq(f, a, b, 1e-15, 8.9e-16, 100) == (brentq(f, a, b, xtol=1e-15, rtol=8.9e-16), True)
    with pytest.raises(ValueError):
        _brentq(f, 2.0, 3.0, 1e-15, 8.9e-16, 100)
    # f of order 1e-200: the inverse quadratic step's denominator underflows
    # to 0, and the port bisects there as the C code does with its inf/nan.
    tiny = lambda x: 1e-200 * ((x - 0.3) ** 3 + 0.1 * (x - 0.3))  # noqa: E731
    seen_scipy, seen_port = [], []
    want = brentq(lambda x: seen_scipy.append(x) or tiny(x), 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    assert _brentq(lambda x: seen_port.append(x) or tiny(x), 0.0, 1.0, 1e-15, 8.9e-16, 100) == (want, True)
    assert seen_port == seen_scipy
    root, converged = _brentq(lambda x: x**3 - 2.0, 0.0, 4.0, 1e-15, 8.9e-16, 3)
    assert not converged
    assert root == brentq(lambda x: x**3 - 2.0, 0.0, 4.0, xtol=1e-15, rtol=8.9e-16, maxiter=3, disp=False)


@pytest.mark.parametrize("shift", ["full2", "golden", "full3", "full4"])
def test_rotation_set_hull_matches_qhull(shift):
    from dataclasses import replace

    from scipy.spatial import ConvexHull

    from symflow.spectrum import _EdgeModel, _rotation_set

    sft = Sft(np.ones((4, 4), dtype=int) if shift == "full4" else _SHIFTS[shift])
    compared = 0
    for memory in (1, 2, 3):
        words = admissible_words(sft, memory)
        for seed in range(10):
            vals = np.random.default_rng(seed).normal(size=2 * len(words))
            g = LocallyConstantFunction(sft, memory, dict(zip(words, vals[: len(words)])))
            h = LocallyConstantFunction(sft, memory, dict(zip(words, vals[len(words) :])))
            model = _EdgeModel(sft, [g, h])
            for directions in (16, 64, 256):
                rset = _rotation_set(model, directions)
                if rset.rank < 2:
                    continue
                compared += 1
                want = rset.points[ConvexHull(rset.points).vertices]
                hull = rset.hull
                assert len(hull) == len(want)
                assert all(np.abs(hull - v).max(axis=1).min() <= 1e-12 for v in want)
                x, y = hull[:, 0], hull[:, 1]
                assert float(x @ np.roll(y, -1) - y @ np.roll(x, -1)) > 0.0
                assert tuple(hull[0]) == min(map(tuple, hull))
                qhull = replace(rset, hull=want)
                lo, hi = rset.points.min(axis=0), rset.points.max(axis=0)
                pad = 0.1 * (hi - lo)
                probes = np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(400, 2))
                for p in np.vstack([probes, rset.points]):
                    assert rset.classify(p) == qhull.classify(p)
    assert compared >= 20


def test_hull_drops_collinear_points_and_twins():
    from scipy.spatial import ConvexHull

    from symflow.spectrum import _hull

    # a 3 x 3 grid: the edge midpoints are collinear, and two corners have 1-ulp twins
    grid = [(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
    points = np.array(grid + [(2.0, np.nextafter(2.0, 3.0)), (np.nextafter(0.0, -1.0), 0.0)])
    hull = _hull(points)
    assert hull.tolist() == [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    assert len(ConvexHull(points).vertices) == 4


def test_rotation_set_low_rank_hulls(full2):
    g = ind1(full2)
    line = rotation_set_2d(full2, g, 2.0 * g, directions=16)
    assert line.rank == 1
    assert sorted(map(tuple, line.hull)) == [(0.0, 0.0), (1.0, 2.0)]
    assert line.classify((0.5, 1.0)) == "boundary"
    const = LocallyConstantFunction.constant(full2, 0.25)
    dot = rotation_set_2d(full2, const, const, directions=16)
    assert dot.rank == 0
    assert dot.hull.shape == (1, 2) and tuple(dot.hull[0]) == (0.25, 0.25)


@pytest.mark.parametrize("directions", [0, -5, 2.5, True])
def test_directions_must_be_a_count_of_at_least_one(full2, directions):
    # 0 once gave rank 0 after "Mean of empty slice"; -5 a ValueError from numpy
    g, h = ind1(full2), LocallyConstantFunction.indicator(full2, (1, 1))
    with pytest.raises(InputError, match="directions must be an integer >= 1"):
        rotation_set_2d(full2, g, h, directions=directions)
    with pytest.raises(InputError, match="directions must be an integer >= 1"):
        conditional_entropy_spectrum_2d(full2, g, h, (0.5, 0.25), directions=directions)


def test_a_non_finite_point_is_exterior(full2):
    # (0.5, inf) once met 0 * inf in the support test: a RuntimeWarning
    rset = rotation_set_2d(full2, ind1(full2), LocallyConstantFunction.indicator(full2, (1, 1)), directions=16)
    for point in [(0.5, np.inf), (-np.inf, 0.25), (np.nan, 0.25)]:
        assert rset.classify(point) == "exterior"
