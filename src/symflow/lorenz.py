"""Geometric Lorenz return-map model: validation, simulation, statistics.

The model is the Poincare return map P(x,y) = (f(x), H(x,y)) on the square
section [-1,1]^2 minus the singular line x = 0, with the parametric family

    f(x) = sign(x) * (c*|x|^gamma - 1),     H(x,y) = a*sign(x) + b*y,

plus the three singularity exponents (lambda1, lambda2, lambda3).  The
validator certifies the defining inequalities with worst-case margins: the
constraints on the nonlinear f on a symmetric grid, those on the affine H
in closed form.  Failures are report entries, never exceptions.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, InputError, _check_count, _number

__all__ = [
    "LorenzModel",
    "Trajectory",
    "EmpiricalStatistics",
    "validate_lorenz",
    "simulate_return_map",
    "empirical_statistics",
]

_LINE_TOL = 1e-15
_BOX = 1.0 + 1e-12  # containment slack of the section square


@dataclass(frozen=True)
class LorenzModel:
    """Parametric geometric Lorenz return-map model."""

    c: float
    gamma: float
    a: float
    b: float
    lambdas: tuple

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * (self.c * np.abs(x) ** self.gamma - 1.0)

    def df(self, x):
        x = np.asarray(x, dtype=float)
        return self.c * self.gamma * np.abs(x) ** (self.gamma - 1.0)

    def H(self, x, y):
        x = np.asarray(x, dtype=float)
        return self.a * np.sign(x) + self.b * np.asarray(y, dtype=float)

    def to_json(self) -> dict:
        return {
            "f": {"c": self.c, "gamma": self.gamma},
            "H": {"a": self.a, "b": self.b},
            "lambda": list(self.lambdas),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LorenzModel":
        if not isinstance(data, dict):
            raise InputError("model document must be an object with 'f', 'H' and 'lambda'")
        keys = {"f", "H", "lambda"}
        for what, bad in (("unknown", set(data) - keys), ("missing", keys - set(data))):
            if bad:
                raise InputError(f"{what} model keys {sorted(bad)}")
        fpart, hpart = data["f"], data["H"]
        if not (isinstance(fpart, dict) and isinstance(hpart, dict)):
            raise InputError("model keys 'f' and 'H' must be objects")
        if set(fpart) != {"c", "gamma"} or set(hpart) != {"a", "b"}:
            raise InputError("model f needs keys c,gamma and H needs keys a,b")
        lam = data["lambda"]
        if not isinstance(lam, (list, tuple)) or len(lam) != 3:
            raise InputError("model key 'lambda' must be a list of three entries")
        for key, v in (*fpart.items(), *hpart.items(), *((f"lambda[{i}]", v) for i, v in enumerate(lam))):
            if not math.isfinite(_number(f"model parameter {key}", v)):
                raise InputError(f"model parameter {key} must be a finite number, got {v!r}")
        return cls(
            c=float(fpart["c"]),
            gamma=float(fpart["gamma"]),
            a=float(hpart["a"]),
            b=float(hpart["b"]),
            lambdas=tuple(float(v) for v in lam),
        )


def validate_lorenz(model: LorenzModel, grid: int = 10**4) -> dict:
    """Check every defining constraint; report margins.

    The range and expansion of f are checked on a grid of ``grid`` points
    per half-axis, staying one spacing away from the singular line; the
    one-sided limits of f at 0 are in closed form, +-inf included.  The
    sign, fiber and section constraints on H are exact: max H on x > 0 is
    a + |b|, min H on x < 0 is -a - |b|, sup|dH/dy| = |b| and sup|dH/dx|
    = 0.  Positive margin means the constraint holds; a failed constraint
    is a report entry, never an exception.  Errors: ``input`` (InputError)
    when ``grid`` is not an integer of at least 3.
    """
    if not isinstance(grid, numbers.Integral) or isinstance(grid, bool) or grid < 3:
        raise InputError(f"grid density must be an integer of at least 3, got {grid!r}")
    l1, l2, l3 = model.lambdas
    entries = []

    def entry(name, margin, value=None):
        e = {"constraint": name, "margin": float(margin), "pass": bool(margin > 0.0)}
        if value is not None:
            e["value"] = float(value)
        entries.append(e)

    entry("lambda ordering l1<l2<0<l3", min(l2 - l1, 0.0 - l2, l3 - 0.0))
    entry("lambda sum l1+l3<0", -(l1 + l3), value=l1 + l3)
    entry("lambda sum l2+l3>0", l2 + l3, value=l2 + l3)

    # f(0+) = L - 1 and f(0-) = 1 - L with L the limit of c*x^gamma as x
    # falls to 0: x^gamma tends to 0, 1 or inf as gamma is positive, zero or
    # negative, and c*x^gamma is 0 throughout when c = 0.
    power = 0.0 if model.gamma > 0.0 else 1.0 if model.gamma == 0.0 else math.inf
    L = 0.0 if model.c == 0.0 else model.c * power
    lim_pos, lim_neg = L - 1.0, 1.0 - L
    lim_tol = 1e-6
    entry("limit f(0+)=-1", lim_tol - abs(lim_pos + 1.0), value=lim_pos)
    entry("limit f(0-)=+1", lim_tol - abs(lim_neg - 1.0), value=lim_neg)

    xs_half = np.linspace(1.0 / grid, 1.0, grid)
    xs = np.concatenate([-xs_half[::-1], xs_half])
    fx = model.f(xs)
    entry("range f(x)<1", float(1.0 - fx.max()), value=fx.max())
    entry("range f(x)>-1", float(fx.min() + 1.0), value=fx.min())
    dfx = model.df(xs)
    entry("expansion f'(x)>sqrt(2)", float(dfx.min() - np.sqrt(2.0)), value=dfx.min())

    # On each side of the singular line H = a*sign(x) + b*y is constant in
    # x and affine in y, so its extremes over y in [-1, 1] and its slopes
    # are exact.
    h_pos_max = model.a + abs(model.b)
    h_neg_min = -model.a - abs(model.b)
    entry("sign H<0 on x>0", -h_pos_max, value=h_pos_max)
    entry("sign H>0 on x<0", h_neg_min, value=h_neg_min)
    entry("fiber contraction sup|dH/dy|<1", 1.0 - abs(model.b), value=abs(model.b))
    entry("section control sup|dH/dx|<1", 1.0, value=0.0)

    return {
        "model": model.to_json(),
        "grid": int(grid),
        "entries": entries,
        "pass": bool(all(e["pass"] for e in entries)),
    }


@dataclass
class Trajectory:
    """Orbit of the return map, including the initial point."""

    model: LorenzModel
    xs: np.ndarray
    ys: np.ndarray
    itinerary: np.ndarray
    halted: bool

    def __len__(self) -> int:
        return len(self.xs)


def simulate_return_map(model: LorenzModel, x0: float, y0: float, n: int) -> Trajectory:
    """Deterministic n-step orbit of P, halting early near the singular line.

    The orbit is a scalar recurrence over Python floats, the same IEEE
    operations as ``model.f`` and ``model.H`` at one point (``**`` is libm
    ``pow``, as numpy's scalar power is).  The itinerary codes s_k = 1 where
    x_k > 0 and 0 otherwise.  The orbit is stored as two float64 buffers,
    16 bytes a step, that become ``xs`` and ``ys`` without a copy.
    Containment is tested once per chunk of steps (16, 32, 64, ...), so an
    orbit that leaves the square runs at most one chunk past the step that
    left it.  Errors: ``input`` (InputError) when x0 or y0 is not a real
    number (``errors._number``); ``on_line`` (DomainError) when x0 is within
    1e-15 of the singular line; ``input`` when (x0, y0) is outside the
    section square or n is not a non-negative integer; ``containment``
    (DomainError) at the first step that leaves the square by more than
    1e-12, overflows or is NaN.
    """
    x, y = _number("x0", x0), _number("y0", y0)
    if abs(x) <= _LINE_TOL:
        raise DomainError("initial point lies on the singular line", name="on_line")
    if not (abs(x) <= 1.0 and abs(y) <= 1.0):
        raise InputError("initial point outside the section square")
    _check_count("n", n, 0)
    n = int(n)
    c, gamma, a, b = float(model.c), float(model.gamma), float(model.a), float(model.b)
    xs, ys = array("d", [x]), array("d", [y])
    x_append, y_append, lo, hi, inf = xs.append, ys.append, -_LINE_TOL, _LINE_TOL, math.inf
    halted = False
    done, chunk = 0, 16
    while done < n and not halted:
        # One branch a step: s*(c*|x|**gamma - 1) and a*s + b*y with
        # s = +-1, where multiplying by s is exact.  The negative branch
        # negates t - 1 rather than computing 1 - t, which is +0.0 where
        # the map gives -0.0 (at t = 1).
        for _ in repeat(None, min(chunk, n - done)):
            try:
                if x > 0.0:
                    x = c * x**gamma - 1.0
                    y = a + b * y
                else:
                    x = -(c * (-x) ** gamma - 1.0)
                    y = b * y - a
            except OverflowError:  # |x|**gamma beyond the double range
                x = inf
            x_append(x)
            y_append(y)
            if x <= hi and x >= lo:
                halted = True
                break
        _check_contained(xs, ys, done + 1)
        done = len(xs) - 1
        chunk *= 2
    xs = np.frombuffer(xs)
    ys = np.frombuffer(ys)
    itinerary = (xs > 0).astype(int)
    return Trajectory(model=model, xs=xs, ys=ys, itinerary=itinerary, halted=halted)


def _check_contained(xs: array, ys: array, start: int) -> None:
    """Raise ``containment`` at the first step from ``start`` on outside the square.

    The numpy views of the buffers die with this call, so the buffers can
    grow again afterwards.
    """
    x, y = np.frombuffer(xs)[start:], np.frombuffer(ys)[start:]
    # min and max carry a NaN, which fails every comparison
    if not (-_BOX <= x.min() and x.max() <= _BOX and -_BOX <= y.min() and y.max() <= _BOX):
        k = start + int(((np.abs(x) <= _BOX) & (np.abs(y) <= _BOX)).argmin())
        raise DomainError(f"trajectory left the section square at step {k}", name="containment")


@dataclass
class EmpiricalStatistics:
    """Birkhoff statistics of one orbit.

    ``exponent`` is the average of log f' along the consumed points - a
    crude expansion proxy, not an entropy computation.
    """

    mean: float
    running: np.ndarray
    exponent: float


def empirical_statistics(traj: Trajectory, G) -> EmpiricalStatistics:
    """Mean and Cesaro curve of G over the orbit, plus the expansion proxy.

    Errors: ``input`` (InputError) for an orbit of fewer than 2 points;
    ``expansion`` (DomainError) when f' is not positive at some consumed
    point, so that log f' is undefined (a model with gamma <= 0 or c <= 0).
    """
    if len(traj) < 2:
        raise InputError("trajectory must have at least 2 points")
    try:
        vals = np.asarray(G(traj.xs, traj.ys), dtype=float)
        if vals.shape != traj.xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(G(x, y)) for x, y in zip(traj.xs, traj.ys)])
    running = np.cumsum(vals) / np.arange(1, len(vals) + 1)
    dfx = traj.model.df(traj.xs[:-1])
    if not (dfx > 0.0).all():
        raise DomainError("log f' needs f' > 0 along the orbit", name="expansion")
    exponent = float(np.log(dfx).mean())
    return EmpiricalStatistics(mean=float(vals.mean()), running=running, exponent=exponent)
