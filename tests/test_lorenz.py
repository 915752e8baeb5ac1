from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from symflow.errors import DomainError, InputError
from symflow.lorenz import (
    LorenzModel,
    empirical_statistics,
    simulate_return_map,
    validate_lorenz,
)

EXAMPLE = LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))


def by_name(report: dict) -> dict:
    return {e["constraint"]: e for e in report["entries"]}


def test_example_model_passes_all_constraints():
    report = validate_lorenz(EXAMPLE)
    assert report["pass"]
    entries = by_name(report)
    assert all(e["pass"] for e in entries.values())
    expansion = entries["expansion f'(x)>sqrt(2)"]
    assert abs(expansion["value"] - 1.482) < 1e-12  # min at |x|=1: c*gamma
    assert expansion["value"] > 1.48 > np.sqrt(2)
    fiber = entries["fiber contraction sup|dH/dy|<1"]
    assert abs(fiber["value"] - 0.25) < 1e-9


def test_weak_expansion_fails_exactly_the_derivative_constraint():
    weak = LorenzModel(c=1.5, gamma=0.8, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
    report = validate_lorenz(weak)
    assert not report["pass"]
    failing = [e["constraint"] for e in report["entries"] if not e["pass"]]
    assert failing == ["expansion f'(x)>sqrt(2)"]
    assert abs(by_name(report)["expansion f'(x)>sqrt(2)"]["value"] - 1.2) < 1e-12


def test_bad_lambda_ordering_fails():
    bad = LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-1.0, -3.0, 2.0))
    report = validate_lorenz(bad)
    assert not report["pass"]
    assert not by_name(report)["lambda ordering l1<l2<0<l3"]["pass"]


def test_lambda_sum_constraints():
    bad = LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-1.5, -1.0, 2.0))
    report = validate_lorenz(bad)
    entry = by_name(report)["lambda sum l1+l3<0"]
    assert not entry["pass"] and abs(entry["value"] - 0.5) < 1e-12


def test_one_sided_limits_extrapolate():
    entries = by_name(validate_lorenz(EXAMPLE))
    assert abs(entries["limit f(0+)=-1"]["value"] + 1.0) < 1e-6
    assert abs(entries["limit f(0-)=+1"]["value"] - 1.0) < 1e-6


@pytest.mark.parametrize(
    "c, gamma, lim_pos",
    [(1.9, 0.78, -1.0), (1.5, 0.8, -1.0), (1.9, -0.5, math.inf), (-1.9, -0.5, -math.inf), (0.0, -0.5, -1.0), (1.5, 0.0, 0.5)],
)
def test_one_sided_limits_are_in_closed_form(c, gamma, lim_pos):
    # f(0+) = lim c*x^gamma - 1 and f(0-) = -f(0+).  With gamma < 0, f runs off
    # to infinity at 0, where extrapolating f(+-10^-k) read the limits as -+1.
    entries = by_name(validate_lorenz(LorenzModel(c=c, gamma=gamma, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))))
    pos, neg = entries["limit f(0+)=-1"], entries["limit f(0-)=+1"]
    assert pos["value"] == lim_pos and neg["value"] == -lim_pos
    passes = lim_pos == -1.0
    assert pos["pass"] == neg["pass"] == passes
    if passes:
        assert pos["margin"] == neg["margin"] == 1e-6
    else:
        assert pos["margin"] == neg["margin"] == 1e-6 - abs(lim_pos + 1.0)


def test_skew_product_x_track_ignores_y():
    a = simulate_return_map(EXAMPLE, 0.6, 0.3, 1000)
    b = simulate_return_map(EXAMPLE, 0.6, -0.8, 1000)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.itinerary, b.itinerary)
    assert a.itinerary[0] == 1 and set(a.itinerary) <= {0, 1}


def test_fiber_contraction_along_orbits():
    a = simulate_return_map(EXAMPLE, 0.6, 0.3, 1000)
    b = simulate_return_map(EXAMPLE, 0.6, 0.30001, 1000)
    gap = np.abs(a.ys - b.ys)
    sup = 0.25  # |dH/dy| = |b|
    assert np.all(gap[1:] <= sup * gap[:-1] + 1e-15)
    assert gap[-1] < gap[0]


def test_orbit_stays_in_section():
    traj = simulate_return_map(EXAMPLE, 0.37, -0.9, 1000)
    assert np.abs(traj.xs).max() <= 1.0 + 1e-12
    assert np.abs(traj.ys).max() <= 1.0 + 1e-12
    assert len(traj) == 1001 and not traj.halted


def test_simulation_input_checks():
    with pytest.raises(DomainError):
        simulate_return_map(EXAMPLE, 0.0, 0.5, 10)
    with pytest.raises(InputError):
        simulate_return_map(EXAMPLE, 1.5, 0.0, 10)
    with pytest.raises(InputError):
        simulate_return_map(EXAMPLE, 0.5, 0.0, -1)


def test_n_must_be_a_non_negative_integer():
    for bad in (2.5, True, "3", None):
        with pytest.raises(InputError):
            simulate_return_map(EXAMPLE, 0.5, 0.0, bad)
    assert len(simulate_return_map(EXAMPLE, 0.5, 0.0, np.int64(5))) == 6
    assert len(simulate_return_map(EXAMPLE, 0.5, 0.0, 0)) == 1


@pytest.mark.parametrize("bad", ["0.3", None, [0.1], True])
def test_a_start_point_that_is_not_a_real_number_is_an_input_error(bad):
    for x0, y0 in ((bad, 0.1), (0.3, bad)):
        with pytest.raises(InputError):
            simulate_return_map(EXAMPLE, x0, y0, 5)
    assert len(simulate_return_map(EXAMPLE, np.float32(0.3), np.int64(0), 5)) == 6


@pytest.mark.parametrize(
    "model",
    [
        LorenzModel(c=10.0, gamma=2.0, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0)),  # escapes
        LorenzModel(c=math.nan, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0)),
        LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=math.nan, lambdas=(-3.0, -1.0, 2.0)),
        LorenzModel(c=1.9, gamma=-2000.0, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0)),  # pow overflows
    ],
)
def test_leaving_the_square_fails_at_the_first_step(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="at step 1$") as err:
            simulate_return_map(model, 0.5, 0.0, 10**6)
    assert err.value.name == "containment"


@pytest.mark.parametrize("model", [EXAMPLE, LorenzModel(c=1.5, gamma=0.8, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))])
@pytest.mark.parametrize("x0, y0", [(0.3, 0.1), (-0.71, -0.6)])
def test_orbit_is_the_model_map_bit_for_bit(model, x0, y0):
    traj = simulate_return_map(model, x0, y0, 10**4)
    assert len(traj) == 10**4 + 1 and not traj.halted
    # model.f one point at a time: numpy's vectorised power may differ from
    # its scalar (libm) power in the last bit on some hosts.
    assert np.array_equal(traj.xs[1:], [model.f(x) for x in traj.xs[:-1]])
    assert np.array_equal(traj.ys[1:], model.H(traj.xs[:-1], traj.ys[:-1]))
    assert np.array_equal(traj.itinerary, traj.xs > 0)


def test_empirical_statistics_needs_a_positive_derivative():
    model = LorenzModel(c=1.0, gamma=-0.01, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
    traj = simulate_return_map(model, 0.5, 0.1, 50)
    with pytest.raises(DomainError) as err:
        empirical_statistics(traj, lambda x, y: x)
    assert err.value.name == "expansion"


def test_validate_grid_must_be_an_integer():
    for bad in (2, 100.5, True):
        with pytest.raises(InputError):
            validate_lorenz(EXAMPLE, grid=bad)


def test_empirical_statistics():
    traj = simulate_return_map(EXAMPLE, 0.6, 0.3, 2000)
    stats = empirical_statistics(traj, lambda x, y: x)
    assert abs(stats.mean - traj.xs.mean()) < 1e-14
    assert abs(stats.running[-1] - stats.mean) < 1e-14
    assert len(stats.running) == len(traj)
    lo = np.log(EXAMPLE.c * EXAMPLE.gamma)
    hi = np.log(EXAMPLE.df(1e-16))
    assert lo - 1e-12 <= stats.exponent <= hi
    # Scalar (non-vectorized) observables take the slow path.
    s2 = empirical_statistics(traj, lambda x, y: float(x))
    assert abs(s2.mean - stats.mean) < 1e-14


def test_model_json_round_trip():
    doc = EXAMPLE.to_json()
    assert doc == {
        "f": {"c": 1.9, "gamma": 0.78},
        "H": {"a": -0.5, "b": -0.25},
        "lambda": [-3.0, -1.0, 2.0],
    }
    again = LorenzModel.from_json(doc)
    assert again == EXAMPLE
    with pytest.raises(InputError):
        LorenzModel.from_json({**doc, "extra": 1})
    with pytest.raises(InputError):
        LorenzModel.from_json({"f": {"c": 1.9}, "H": doc["H"], "lambda": doc["lambda"]})
    with pytest.raises(InputError):
        LorenzModel.from_json({"f": doc["f"], "H": doc["H"], "lambda": [-1.0, 2.0]})
    for key, part, bad in (("c", "f", math.nan), ("b", "H", math.inf), ("gamma", "f", "0.78")):
        with pytest.raises(InputError, match=f"parameter {key} "):
            LorenzModel.from_json({**doc, part: {**doc[part], key: bad}})
    with pytest.raises(InputError, match=r"lambda\[2\]"):
        LorenzModel.from_json({**doc, "lambda": [-3.0, -1.0, -math.inf]})


@pytest.mark.parametrize(
    "a, b",
    [(-0.5, 0.25), (-0.5, 1.0), (-0.2, 1.5), (0.3, 0.25), (-0.1, 0.6), (-0.5, -1.25), (0.1, -0.05)],
)
def test_h_entries_match_brute_force_grid(a, b):
    model = LorenzModel(c=1.9, gamma=0.78, a=a, b=b, lambdas=(-3.0, -1.0, 2.0))
    xs = np.linspace(0.02, 1.0, 50)
    ys = np.linspace(-1.0, 1.0, 41)
    pos, neg = model.H(xs[:, None], ys[None, :]), model.H(-xs[:, None], ys[None, :])
    dy = max(np.abs(np.diff(side, axis=1) / np.diff(ys)).max() for side in (pos, neg))
    dx = max(np.abs(np.diff(side, axis=0) / np.diff(s * xs)[:, None]).max() for side, s in ((pos, 1), (neg, -1)))
    want = {
        "sign H<0 on x>0": (pos.max(), -pos.max()),
        "sign H>0 on x<0": (neg.min(), neg.min()),
        "fiber contraction sup|dH/dy|<1": (dy, 1.0 - dy),
        "section control sup|dH/dx|<1": (dx, 1.0 - dx),
    }
    entries = by_name(validate_lorenz(model, grid=200))
    for name, (value, margin) in want.items():
        e = entries[name]
        assert abs(e["value"] - value) <= 1e-12 and abs(e["margin"] - margin) <= 1e-12, name
        assert e["pass"] == (margin > 0.0), name


def reference_orbit(model, x0, y0, n):
    """The orbit one scalar step at a time, containment tested at every step:
    (xs, ys, halted), or the ``containment`` error of the first bad step."""
    c, gamma, a, b = float(model.c), float(model.gamma), float(model.a), float(model.b)
    x, y = float(x0), float(y0)
    xs, ys = [x], [y]
    halted = False
    for k in range(1, n + 1):
        s = 1.0 if x > 0.0 else -1.0
        try:
            x, y = s * (c * abs(x) ** gamma - 1.0), a * s + b * y
        except OverflowError:
            x = math.inf
        if not (abs(x) <= 1.0 + 1e-12 and abs(y) <= 1.0 + 1e-12):
            raise DomainError(f"trajectory left the section square at step {k}", name="containment")
        xs.append(x)
        ys.append(y)
        if abs(x) <= 1e-15:
            halted = True
            break
    return np.array(xs), np.array(ys), halted


def _outcome(run):
    try:
        return run()
    except DomainError as err:
        return type(err).__name__, err.name, str(err)


def _sweep_cases():
    rng = np.random.default_rng(20260)
    lambdas = (-3.0, -1.0, 2.0)
    weak = LorenzModel(c=1.5, gamma=0.8, a=-0.5, b=-0.25, lambdas=lambdas)
    cases = [
        (model, x0, y0, n)
        for model in (EXAMPLE, weak)
        for x0, y0 in ((0.3, 0.1), (-0.71, -0.6), (1.0, -1.0))
        for n in (0, 1, 2, 16, 17, 3000)
    ]
    cases += [
        # c*x**gamma = 1 exactly: the orbit halts on the singular line at
        # step 1, at x = +0.0 from the right and at x = -0.0 from the left
        (LorenzModel(c=2.0, gamma=1.0, a=-0.5, b=-0.25, lambdas=lambdas), 0.5, 0.0, 10),
        (LorenzModel(c=2.0, gamma=1.0, a=-0.5, b=-0.25, lambdas=lambdas), -0.5, 0.3, 10),
        # NaN at step 2: 1.0**nan is 1.0 and 0.5**nan is nan
        (LorenzModel(c=1.5, gamma=math.nan, a=-0.5, b=-0.25, lambdas=lambdas), 1.0, 0.0, 50),
        (LorenzModel(c=1.5, gamma=math.nan, a=-0.5, b=-0.25, lambdas=lambdas), -1.0, 0.0, 50),
        (LorenzModel(c=1.9, gamma=0.78, a=math.nan, b=-0.25, lambdas=lambdas), 0.5, 0.0, 50),
        # pow overflows at step 2: x_1 = c - 1 is about 1e-11 and x_1**-30 > 1e308
        (LorenzModel(c=1.0 + 1e-11, gamma=-30.0, a=-0.5, b=-0.25, lambdas=lambdas), 1.0, 0.0, 50),
        (LorenzModel(c=1.9, gamma=-2000.0, a=-0.5, b=-0.25, lambdas=lambdas), 0.5, 0.0, 50),
    ]
    # a = 0 and b = 1.5: |y| grows by 1.5 a step and leaves the square near
    # step m, on both sides of the chunk ends at steps 16, 48, 112 and 240
    for m in (14, 15, 16, 17, 46, 47, 48, 49, 111, 112, 113, 239, 240, 241):
        cases.append((LorenzModel(c=1.9, gamma=0.78, a=0.0, b=1.5, lambdas=lambdas), 0.3, 1.5**-m, 500))
    while len(cases) < 600:
        model = LorenzModel(
            c=rng.uniform(-0.5, 3.0),
            gamma=float(rng.choice([rng.uniform(-1.0, 3.0), rng.uniform(0.3, 1.2), rng.integers(-3, 4)])),
            a=rng.uniform(-1.2, 1.2),
            b=rng.uniform(-1.3, 1.3),
            lambdas=lambdas,
        )
        x0, y0 = rng.uniform(-1.0, 1.0, size=2)
        cases.append((model, float(x0), float(y0), int(rng.choice([0, 1, 2, 15, 16, 17, 48, 49, 113, 400]))))
    return cases


def test_orbits_match_the_one_step_reference_bit_for_bit():
    kinds = {"orbit": 0, "halted": 0, "containment": 0}
    steps = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, x0, y0, n in _sweep_cases():
            want = _outcome(lambda: reference_orbit(model, x0, y0, n))
            got = _outcome(lambda: simulate_return_map(model, x0, y0, n))
            case = (model, x0, y0, n)
            if isinstance(want[0], str):
                assert got == want, case
                kinds["containment"] += 1
                steps.add(int(want[2].rsplit(" ", 1)[1]))
                continue
            xs, ys, halted = want
            assert not isinstance(got, tuple), (case, got)
            # tobytes: the sign of a zero counts
            assert got.xs.tobytes() == xs.tobytes() and got.ys.tobytes() == ys.tobytes(), case
            assert got.itinerary.dtype == np.dtype(int), case
            assert got.itinerary.tobytes() == (xs > 0).astype(int).tobytes(), case
            assert got.halted == halted and len(got) == len(xs), case
            kinds["halted" if halted else "orbit"] += 1
    assert min(kinds.values()) >= 2, kinds
    assert {1, 2, 16, 17, 48, 49, 113, 241} <= steps, sorted(steps)


@pytest.mark.parametrize(
    "model",
    [
        LorenzModel(c=math.nan, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0)),
        LorenzModel(c=10.0, gamma=2.0, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0)),
    ],
)
def test_an_orbit_that_leaves_the_square_stops_soon_after(model):
    # containment is tested once per chunk of steps: an orbit that has left
    # stops at the end of that chunk, not after n steps
    start = time.perf_counter()
    with pytest.raises(DomainError, match="at step 1$") as err:
        simulate_return_map(model, 0.5, 0.0, 10**7)
    assert time.perf_counter() - start < 1.0
    assert err.value.name == "containment"
