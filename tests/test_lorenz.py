from __future__ import annotations

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
