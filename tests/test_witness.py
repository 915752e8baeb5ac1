from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    bernoulli_measure, binary_entropy, count_checks, count_karp, count_models, count_solves, sign_change_bracket, spy_tilts,
)
import symflow.thermo as thermo
import symflow.witness as witness
from symflow.errors import DomainError, InputError
from symflow.measures import InvariantMeasure, MarkovComponent, d_star, support_is_full
from symflow.sft import LocallyConstantFunction, Sft, admissible_words
from symflow.spectrum import _EdgeModel, birkhoff_range, conditional_entropy_spectrum
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


@pytest.mark.parametrize("alpha, cap", [(0.9, 1e-8), (0.3, 1e-12), (0.5, 1e-12)])
def test_low_entropy_witness_small_caps(full2, alpha, cap):
    # The switch-back probability comes in closed form, so caps far below the
    # old root-finder's reach still land on the mean.
    g = ind1(full2)
    mu = low_entropy_mean_witness(full2, g, alpha, cap)
    assert mu.ergodic
    assert abs(mu.integrate(g) - alpha) <= 1e-14
    assert mu.entropy() <= cap


def test_low_entropy_witness_entropy_floor(full2):
    # Near the plus end the switch-back probability would have to drop
    # below 1e-16 to reach entropy 1e-14.
    with pytest.raises(DomainError) as e:
        low_entropy_mean_witness(full2, ind1(full2), 0.9, 1e-14)
    assert e.value.name == "h_cap"


@pytest.mark.parametrize("alpha", [0.2, 0.8])
def test_low_entropy_witness_shared_connector_state(alpha):
    # Both connectors run through the corridor state (1, 3), which the chain
    # leaves half and half: the excursion from the minus cycle is random
    # even before the plus cycle is reached.
    corridor = Sft([[1, 1, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0]])
    g = LocallyConstantFunction(corridor, 1, {(0,): 0.0, (1,): 0.5, (2,): 1.0, (3,): 0.5})
    mu = low_entropy_mean_witness(corridor, g, alpha, 1e-9)
    assert (1, 3) in mu.components[0].states
    assert mu.ergodic
    assert abs(mu.integrate(g) - alpha) <= 1e-14
    assert mu.entropy() <= 1e-9


def test_low_entropy_witness_builds_few_components(full2, monkeypatch):
    # One chain per tried switch-out probability p, with no solve in q.
    built = []
    init = MarkovComponent.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MarkovComponent, "__init__", counted)
    low_entropy_mean_witness(full2, ind1(full2), 0.3, 1e-8)
    assert 0 < len(built) <= 20


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
    from scipy.optimize import brentq

    model = _EdgeModel(full2, [g, u])
    f = lambda b: model.solve((b, 1.0)).means[0] - alpha
    blo, bhi = sign_change_bracket(f)
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


def test_intermediate_witness_solve_budget(full2, golden, monkeypatch):
    # Root-finding in the path parameter with warm-started tilts: at most 200
    # equilibrium solves per witness.
    for sft, alpha in ((full2, 0.3), (full2, 0.4), (golden, 0.25)):
        g = ind1(sft)
        H = conditional_entropy_spectrum(sft, g, alpha).entropy
        with monkeypatch.context() as m:
            calls = count_solves(m)
            for frac in (0.25, 0.5, 0.75):
                calls.clear()
                nu = intermediate_witness(sft, g, alpha, frac * H)
                assert abs(nu.entropy() - frac * H) < 1e-5
                assert 0 < len(calls) <= 200, (sft.k, alpha, frac, len(calls))


def test_intermediate_witness_snaps_to_the_top_end(full2, monkeypatch):
    # When the top end of the path lies less than 10 band_tol below c it is
    # the witness, and no root-finding runs on the same-sign bracket.
    g = ind1(full2)
    mu0 = InvariantMeasure.single(MarkovComponent(full2, 1, [(0,), (1,)], np.array([[0.7, 0.3], [0.6, 0.4]])))
    pull, ends = witness._mu0_pull, []
    log = spy_tilts(monkeypatch)

    def spied(*args):
        out = pull(*args)
        ends.append((witness._level(out[1][2]), witness._level(out[2][2]), len(log)))  # end0, end1, tilts so far
        return out

    monkeypatch.setattr(witness, "_mu0_pull", spied)
    intermediate_witness(full2, g, 0.3, 0.5, mu0=mu0, zeta=0.5)
    ((v0, v1, _),) = ends
    c = (v1 + 0.5e-7) / (1.0 - 0.5e-7)  # v1 = c - band_tol / 2
    assert v0 <= c - 1e-7 * (1.0 + c)
    log.clear()
    ends.clear()
    nu = intermediate_witness(full2, g, 0.3, c, mu0=mu0, zeta=0.5)
    ((_, _, tilts),) = ends
    assert len(log) == tilts
    assert abs(nu.entropy() - v1) < 1e-12


def test_intermediate_witness_solves_l_g_once(full2, golden, monkeypatch):
    # A request without u has one [g] model: the interior check and the
    # glued cycles of the low end read the same Karp pair, however often
    # the low end is rebuilt.
    for sft, alpha in ((full2, 0.3), (golden, 0.25)):
        g = ind1(sft)
        c = 0.5 * conditional_entropy_spectrum(sft, g, alpha).entropy
        with monkeypatch.context() as m:
            karp = count_karp(m)
            nu = intermediate_witness(sft, g, alpha, c)
        assert abs(nu.entropy() - c) < 1e-5
        assert len(karp) == 2, karp


def _memory6_table(full2, seed: int) -> LocallyConstantFunction:
    words = admissible_words(full2, 6)
    return LocallyConstantFunction(full2, 6, dict(zip(words, np.random.default_rng(seed).normal(size=len(words)))))


def test_witness_paths_warm_start_on_large_recodings(full2, monkeypatch):
    # The top tilt (32 states) and every chain tilt of the work recoding (64
    # states) go through _EdgeModel.solve.  The top tilt starts at beta = 0
    # from the Parry vector, so its path is all warm; the work model's first
    # chain tilt is its one cold Perron start, every later solve warm.
    g = _memory6_table(full2, 0)
    rng = birkhoff_range(full2, g)
    alpha = rng.lo + 0.4 * (rng.hi - rng.lo)
    c = 0.5 * conditional_entropy_spectrum(full2, g, alpha).entropy
    solve, starts = thermo._EdgeModel.solve, {}

    def spy(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        starts.setdefault(id(self), []).append(sol.start)
        return sol

    monkeypatch.setattr(thermo._EdgeModel, "solve", spy)
    nu = intermediate_witness(full2, g, alpha, c)
    assert len(starts) == 2
    top, work = starts.values()
    assert set(top) == {"warm"}, top
    assert work[0] == "cold" and len(work) > 1 and set(work[1:]) == {"warm"}, work
    assert abs(nu.integrate(g) - alpha) < 1e-8
    assert abs(nu.entropy() - c) < 1e-5


def test_a_recoding_too_large_to_store_is_named(full2):
    # The maximum cycle of this table has period 15, so the work recoding
    # would have 2^15 states and a 2^30-entry matrix: refused before it is
    # allocated.
    g = _memory6_table(full2, 5)
    rng = birkhoff_range(full2, g)
    alpha = rng.lo + 0.4 * (rng.hi - rng.lo)
    c = 0.5 * conditional_entropy_spectrum(full2, g, alpha).entropy
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, g, alpha, c)
    assert e.value.name == "enumeration_too_large"


def test_tilted_chain_warm_start(full2, monkeypatch):
    # A tilt started from the solved tilt of a nearby matrix lands on the same
    # mean in fewer equilibrium solves than one started from [-1, 1].
    g = ind1(full2)
    model = _EdgeModel(full2, [g])
    Q = model.solve((0.7,)).Q
    near = 0.999 * Q + 0.001 * model.solve((-0.2,)).Q
    calls = count_solves(monkeypatch)
    beta, _ = witness._tilt(model, 0.4, chain=Q)
    cold = len(calls)
    calls.clear()
    beta_near, sol = witness._tilt(model, 0.4, beta, chain=near)
    mean = sol.means[0]
    assert abs(mean - 0.4) < 1e-12
    assert abs(beta_near - beta) < 1e-2
    assert len(calls) < cold


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("frac", [1e-4, 0.05, 0.3, 0.7, 0.95, 1.0 - 1e-4])
def test_tilted_chain_matches_the_spectrum(k, frac):
    # Tilting the uniform chain on a full shift is tilting the potential
    # itself, so the two tilt paths must agree.
    sft = Sft(np.ones((k, k), dtype=int))
    g = ind1(sft)
    model = _EdgeModel(sft, [g])
    uniform = model.mask / model.mask.sum(axis=1, keepdims=True)
    alpha = frac  # L_g = [0, 1]
    spec = conditional_entropy_spectrum(sft, g, alpha)
    beta, sol = witness._tilt(model, alpha, chain=uniform)
    mean, value = sol.means[0], witness._level(sol)
    assert abs(beta - spec.beta) <= 1e-10 * max(1.0, abs(beta))
    assert abs(value - spec.entropy) <= 1e-12
    assert abs(mean - alpha) <= 1e-12


def test_level_functional_is_affine_on_mixtures(full2):
    # The targeted level h + int(u) is affine in the measure, which is what
    # the root-finding along the path relies on.
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


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("shift, alpha", [("full2", 0.3), ("full2", 0.4), ("golden", 0.25)])
def test_intermediate_witness_newton_solve_budget(full2, golden, monkeypatch, shift, alpha, frac):
    # Each tilt on the path is a Newton iteration whose slope is the
    # asymptotic variance, so a witness without mu0 takes at most 40
    # equilibrium solves.
    sft = {"full2": full2, "golden": golden}[shift]
    g = ind1(sft)
    H = conditional_entropy_spectrum(sft, g, alpha).entropy
    calls = count_solves(monkeypatch)
    nu = intermediate_witness(sft, g, alpha, frac * H)
    assert abs(nu.entropy() - frac * H) < 1e-5
    assert 0 < len(calls) <= 40


def _scan_mu0_pull(work, Qlow, Qtop, mu0, alpha, level):
    """The 15-step scan the bisection replaced: j from 14 down to 0, both
    ends tilted at every step from their tilts at the step before."""
    Qm0 = witness._markovize(mu0, work.rec.m)
    beta0 = beta1 = None
    for j in range(14, -1, -1):
        lam = 1.0 - 2.0 ** (-j) if j > 0 else 0.0
        beta0, end0 = witness._tilt(work, alpha, beta0, chain=(1.0 - lam) * Qlow + lam * Qm0)
        beta1, end1 = witness._tilt(work, alpha, beta1, chain=(1.0 - lam) * Qtop + lam * Qm0)
        if witness._level(end0) <= level and witness._level(end1) >= level:
            return j
    return None


def test_mu0_pull_finds_the_scanned_lambda(full2, monkeypatch):
    # The bisection lands on the largest j the scan from j = 14 down finds,
    # and refuses the level where the scan does, wherever the scan itself
    # runs through.
    g = ind1(full2)
    pull = witness._mu0_pull
    seen = []

    def spy(work, low, top, mu0, alpha, level):
        seen.append([(work, low[0], top[0], mu0, alpha, level), None])  # None: refused as out of band
        out = pull(work, low, top, mu0, alpha, level)
        seen[-1][1] = out[0]
        return out

    monkeypatch.setattr(witness, "_mu0_pull", spy)
    rng = np.random.default_rng(15)
    for _ in range(24):
        a, b = rng.uniform(0.005, 0.3, size=2)
        mu0 = InvariantMeasure.single(MarkovComponent(full2, 1, [(0,), (1,)], np.array([[1 - a, a], [b, 1 - b]])))
        alpha = rng.uniform(0.2, 0.4)
        c = rng.uniform(0.3, 0.95) * binary_entropy(alpha)
        try:
            intermediate_witness(full2, g, alpha, c, mu0=mu0, zeta=0.3)
        except DomainError:
            pass
    compared, js = 0, set()
    for args, j in seen:
        try:
            want = _scan_mu0_pull(*args)
        except DomainError:
            continue
        assert j == want, (args[4:], j, want)
        compared += 1
        js.add(j)
    assert compared >= 10 and len(js) >= 4, (compared, js)


@pytest.mark.parametrize("p, alpha, c", [(0.5, 0.2, 0.2), (0.8, 0.3, 0.4)])
def test_mu0_pull_refuses_zeta_where_the_scan_hit_the_cap(full2, p, alpha, c):
    # The scan ran down to lam = 0 and re-tilted the low end there from its
    # tilt at lam = 1/2, which ran into a NaN Perron bracket (iteration_cap).
    # The bisection takes the low end as already tilted and returns the
    # honest refusal.
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, ind1(full2), alpha, c, mu0=bernoulli_measure(full2, [1.0 - p, p]), zeta=0.1)
    assert e.value.name == "zeta"


def test_mu0_band_comes_before_the_top_end(full2):
    # mu0 has entropy 0.2 H, so c = H is out of band for it; the top end,
    # at d* 0.148 from mu0, was returned without that check.
    g = ind1(full2)
    H = conditional_entropy_spectrum(full2, g, 0.3).entropy
    mu0 = intermediate_witness(full2, g, 0.3, 0.2 * H)
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, g, 0.3, H, mu0=mu0, zeta=0.01)
    assert e.value.name == "band"


def test_a_top_end_witness_meets_zeta(full2):
    # The fair coin has entropy log 2 > H(0.3), so c = H(0.3) passes its band
    # check and returns the top end, Bernoulli(0.3), only within zeta of it.
    g, mu0 = ind1(full2), bernoulli_measure(full2, [0.5, 0.5])
    H = conditional_entropy_spectrum(full2, g, 0.3).entropy
    with pytest.raises(DomainError) as e:
        intermediate_witness(full2, g, 0.3, H, mu0=mu0, zeta=0.01)
    assert e.value.name == "zeta"
    nu = intermediate_witness(full2, g, 0.3, H, mu0=mu0, zeta=0.5)
    assert abs(nu.entropy() - binary_entropy(0.3)) < 1e-9 and d_star(nu, mu0) < 0.5


def test_intermediate_witness_refuses_a_nan_tol(full2):
    # A NaN tol switched the final checks off: c = 5 > log 2 returned the top end.
    with pytest.raises(InputError):
        intermediate_witness(full2, ind1(full2), 0.3, 5.0, tol=float("nan"))


def test_mu0_witness_solve_budget(full2, monkeypatch):
    # The nine mu0 requests of the witness benchmark: at most 400 equilibrium
    # solves together (1,082 for the 15-step scan, 442 with a cold probe at
    # j = 14), with the same outcomes.
    g = ind1(full2)
    mu0 = bernoulli_measure(full2, [0.7, 0.3])
    calls = count_solves(monkeypatch)
    ok = []
    for alpha in (0.26, 0.30, 0.34):
        for c in (0.3, 0.4, 0.5):
            try:
                nu = intermediate_witness(full2, g, alpha, c, mu0=mu0, zeta=0.1)
            except DomainError as e:
                assert e.name == "zeta", (alpha, c, e.name)
                continue
            assert abs(nu.integrate(g) - alpha) < 1e-8 and abs(nu.entropy() - c) < 1e-5
            assert d_star(nu, mu0) < 0.1
            ok.append((alpha, c))
    assert ok == [(0.30, 0.4), (0.30, 0.5), (0.34, 0.5)]
    assert len(calls) <= 400, len(calls)


def test_mu0_pull_starts_every_tilt_warm(full2, monkeypatch):
    # The nine mu0 requests of the witness benchmark: the pull starts from
    # the lam = 0 ends, so every chain tilt starts from a tilt already
    # solved (a cold probe of both ends at j = 14 made 18 cold tilts).
    g = ind1(full2)
    mu0 = bernoulli_measure(full2, [0.7, 0.3])
    tilts = spy_tilts(monkeypatch)
    for alpha in (0.26, 0.30, 0.34):
        for c in (0.3, 0.4, 0.5):
            try:
                intermediate_witness(full2, g, alpha, c, mu0=mu0, zeta=0.1)
            except DomainError as e:
                assert e.name == "zeta", (alpha, c, e.name)
    starts = [t["beta0"] for t in tilts if t["chain"]]  # the top end's tilt has no chain
    assert starts and None not in starts


def test_low_entropy_witness_interior_names(full2):
    # The shared interior check runs first; outside_range and boundary are
    # reported under the name this function documents, not_interior.
    g = ind1(full2)
    for alpha in (-0.5, 1e-12, 1.0, np.inf, -np.inf):
        with pytest.raises(DomainError) as e:
            low_entropy_mean_witness(full2, g, alpha, 0.05)
        assert e.value.name == "not_interior", alpha
    with pytest.raises(InputError):
        low_entropy_mean_witness(full2, g, np.nan, 0.05)
    with pytest.raises(DomainError) as e:
        low_entropy_mean_witness(full2, LocallyConstantFunction.constant(full2, 0.5), 0.5, 0.05)
    assert e.value.name == "degenerate"


def test_low_entropy_witness_refuses_a_nan_cap(full2, monkeypatch):
    # A NaN cap is named at once, before any glued chain is built.
    monkeypatch.setattr(witness, "_TwoCycleChain", None)
    with pytest.raises(DomainError) as e:
        low_entropy_mean_witness(full2, ind1(full2), 0.3, np.nan)
    assert e.value.name == "h_cap"


@pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
def test_intermediate_witness_refuses_a_non_finite_level(full2, c):
    with pytest.raises(InputError):
        intermediate_witness(full2, ind1(full2), 0.3, c)


def test_intermediate_witness_interior_names(full2):
    g = ind1(full2)
    with pytest.raises(InputError):
        intermediate_witness(full2, g, np.nan, 0.3)
    for alpha, name in ((np.inf, "outside_range"), (-0.5, "outside_range"), (0.0, "boundary")):
        with pytest.raises(DomainError) as e:
            intermediate_witness(full2, g, alpha, 0.3)
        assert e.value.name == name, alpha


def test_mu0_witness_refuses_a_nan_zeta(full2):
    mu0 = bernoulli_measure(full2, [0.7, 0.3])
    for zeta in (np.nan, None, 0.0):
        with pytest.raises(InputError):
            intermediate_witness(full2, ind1(full2), 0.3, 0.3, mu0=mu0, zeta=zeta)


def test_u_witness_reads_g_cycles_from_its_own_model(full2, monkeypatch):
    # A request with u builds its [g, u] model and the path's model, and
    # reads L_g from the first: 2 models and one Karp pair (3 and 4 before
    # the g-only model for the low end was dropped).
    g, u = ind1(full2), LocallyConstantFunction.indicator(full2, (0, 0))
    models, karp = count_models(monkeypatch), count_karp(monkeypatch)
    nu = intermediate_witness(full2, g, 0.3, 0.75, u=u)
    assert abs(nu.integrate(g) - 0.3) < 1e-8
    assert abs(nu.entropy() + nu.integrate(u) - 0.75) < 1e-5
    assert models == [1, 2]
    assert len(karp) == 2


@pytest.mark.parametrize("use_mu0", [False, True])
def test_witness_model_counts_without_u(full2, monkeypatch, use_mu0):
    # The request's [g] model and the path's recoding at the low end's memory.
    g = ind1(full2)
    mu0 = bernoulli_measure(full2, [0.7, 0.3]) if use_mu0 else None
    models = count_models(monkeypatch)
    intermediate_witness(full2, g, 0.3, 0.4, mu0=mu0, zeta=0.5 if use_mu0 else None)
    assert models == [1, 2]


def test_every_witness_call_runs_the_checks_once(full2, monkeypatch):
    # The top end, a path point, a low-entropy witness and a 2-D witness
    # each pass one run of the routine verify runs.
    g, h = ind1(full2), LocallyConstantFunction.indicator(full2, (1, 1))
    H = conditional_entropy_spectrum(full2, g, 0.3).entropy
    mu0 = bernoulli_measure(full2, [0.7, 0.3])
    runs = count_checks(monkeypatch)
    intermediate_witness(full2, g, 0.3, H)
    intermediate_witness(full2, g, 0.3, 0.4, mu0=mu0, zeta=0.5)
    low_entropy_mean_witness(full2, g, 0.3, 0.05)
    birkhoff_witness_2d(full2, g, h, (0.5, 0.3))
    assert runs == [
        ["ergodic", "mean g", "entropy", "full support"],
        ["ergodic", "mean g", "entropy", "full support", "d* to mu0"],
        ["ergodic", "mean g", "entropy cap"],
        ["ergodic", "mean g", "mean h", "full support"],
    ]


@pytest.mark.parametrize("sign", [1, -1])
def test_a_top_end_witness_meets_the_level(full2, sign):
    # With u = 200, the top end is taken for c within 1e-7 (1 + |c|) of its
    # level, wider than the level check's 1e-5: at 0.9 of that band the top
    # end misses c by 1.8e-5.  The call refuses it, or returns a witness
    # that meets the level.
    g, u = ind1(full2), 200.0 * LocallyConstantFunction.constant(full2, 1.0)
    top = conditional_entropy_spectrum(full2, g, 0.3).entropy + 200.0
    c = (top + sign * 0.9e-7) / (1.0 - sign * 0.9e-7)
    try:
        nu = intermediate_witness(full2, g, 0.3, c, u=u)
    except DomainError as e:
        assert e.name == "no_convergence"
    else:
        assert abs(nu.entropy() + nu.integrate(u) - c) <= 1e-5


def _golden_g3(golden: Sft) -> LocallyConstantFunction:
    """The witness benchmark's golden table, 1_[1] + 0.5 1_[11] - 0.3 1_[101]."""
    return LocallyConstantFunction.from_callable(
        golden, 3, lambda w: (w[0] == 1) + 0.5 * (w[:2] == (1, 1)) - 0.3 * (w == (1, 0, 1))
    )


@pytest.mark.parametrize(
    "shift, alpha, c",
    [  # the first two seed-0 requests of the benchmark's full2 (g = 1_[1]) and golden (g3) families
        ("full2", 0.5821770123928727, 0.24592084316617221),
        ("full2", 0.22458411436171682, 0.1118118556022891),
        ("golden", 0.19923087341106333, 0.19927677279351436),
        ("golden", 0.27941408651573435, 0.36876066283742964),
    ],
)
def test_a_path_witness_is_one_newton_iteration(full2, golden, monkeypatch, shift, alpha, c):
    # Brent's method in the path parameter, each point a Newton tilt back to
    # mean alpha, took 24-36 solves a full2 request and 31-39 a golden one.
    # One Newton iteration on (beta, t), its Jacobian from the covariance
    # solve, takes fewer than the least of those and meets both targets to
    # roundoff.
    sft = {"full2": full2, "golden": golden}[shift]
    g = ind1(sft) if shift == "full2" else _golden_g3(sft)
    calls = count_solves(monkeypatch)
    nu = intermediate_witness(sft, g, alpha, c)
    assert len(calls) < {"full2": 24, "golden": 31}[shift], len(calls)
    assert abs(nu.integrate(g) - alpha) <= 1e-12 and abs(nu.entropy() - c) <= 1e-12


def _sweep_request(s: int) -> tuple:
    """(sft, g, u, alpha, c): the first request of table s of the seeded witness
    sweep.  rng = default_rng(1000 + s) draws a memory-(1 + s % 3) table of
    normals on [full2, golden, full3][s % 3], then, when s % 4 == 3, a memory-1
    u of 0.3 normals; alpha = lo + U(0.05, 0.95) |L_g| and c = U(0.05, 0.95)
    H(alpha), or U(-0.5, 0.9) H(alpha) with u."""
    rng = np.random.default_rng(1000 + s)
    sft = [Sft(np.ones((2, 2), dtype=int)), Sft([[1, 1], [1, 0]]), Sft(np.ones((3, 3), dtype=int))][s % 3]
    words = admissible_words(sft, 1 + s % 3)
    g = LocallyConstantFunction(sft, 1 + s % 3, dict(zip(words, rng.normal(size=len(words)))))
    u = None
    if s % 4 == 3:
        u = LocallyConstantFunction(sft, 1, dict(zip(admissible_words(sft, 1), 0.3 * rng.normal(size=sft.k))))
    lg = birkhoff_range(sft, g)
    alpha = lg.lo + rng.uniform(0.05, 0.95) * (lg.hi - lg.lo)
    H = conditional_entropy_spectrum(sft, g, alpha).entropy
    c = (rng.uniform(0.05, 0.95) if u is None else rng.uniform(-0.5, 0.9)) * H
    return sft, g, u, alpha, c


@pytest.mark.parametrize("s", range(12))
def test_sweep_witnesses_meet_mean_and_level_to_roundoff(s):
    # Both residuals are driven to 1e-13 before the loop stops; the witness
    # meets them to 1e-12.  The u requests of tables 7 and 11 ask for a level
    # below the lowest the glued path reaches, and are refused as before.
    sft, g, u, alpha, c = _sweep_request(s)
    if s in (7, 11):
        with pytest.raises(DomainError) as e:
            intermediate_witness(sft, g, alpha, c, u=u)
        assert e.value.name == "band"
        return
    nu = intermediate_witness(sft, g, alpha, c, u=u)
    lg = birkhoff_range(sft, g)
    level = nu.entropy() + (nu.integrate(u) if u is not None else 0.0)
    assert abs(nu.integrate(g) - alpha) <= 1e-12 * max(1.0, abs(lg.lo), abs(lg.hi))
    assert abs(level - c) <= 1e-12 * (1.0 + abs(c))


def test_a_tilt_from_deep_in_the_tail_steps_back_and_solves(full2):
    # The glued low end of (alpha, c) = (0.2, 0.2) on 4 states, re-tilted
    # from beta0 = -0.498: its mean there is 5e-5 with a tiny variance, the
    # Newton step went to beta = 852, whose Perron bracket is NaN, and
    # iteration_cap ended the tilt.  That trial is a bracket end now, and the
    # tilt lands on the answer from beta0 = 0.
    g = ind1(full2)
    nu_low = witness._low_entropy(_EdgeModel(full2, [g]), 0.2, 0.05)
    work = _EdgeModel(full2, [g], min_memory=nu_low.components[0].memory)
    Qlow = witness._markovize(nu_low, work.rec.m)
    Qlow = np.where(work.mask & (Qlow == 0.0), 1e-9, Qlow)
    Qlow /= Qlow.sum(axis=1, keepdims=True)
    want, _ = witness._tilt(work, 0.2, 0.0, chain=Qlow)
    beta, sol = witness._tilt(work, 0.2, -0.498, chain=Qlow)
    mean = sol.means[0]
    assert len(Qlow) == 4
    assert abs(mean - 0.2) <= 1e-12 and abs(beta - want) <= 1e-9
