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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

__all__ = [
    "LorenzModel",
    "Trajectory",
    "EmpiricalStatistics",
    "validate_lorenz",
    "simulate_return_map",
    "empirical_statistics",
]

_LINE_TOL = 1e-15


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
        extra = set(data) - {"f", "H", "lambda"}
        if extra:
            raise InputError(f"unknown model keys {sorted(extra)}")
        fpart, hpart = data["f"], data["H"]
        if set(fpart) != {"c", "gamma"} or set(hpart) != {"a", "b"}:
            raise InputError("model f needs keys c,gamma and H needs keys a,b")
        lam = data["lambda"]
        if len(lam) != 3:
            raise InputError("lambda must have three entries")
        return cls(
            c=float(fpart["c"]),
            gamma=float(fpart["gamma"]),
            a=float(hpart["a"]),
            b=float(hpart["b"]),
            lambdas=tuple(float(v) for v in lam),
        )


def _aitken_limit(values: np.ndarray) -> float:
    """Iterated Aitken delta-squared extrapolation, row by row.

    Each pass maps the whole sequence to its delta-squared transform (exact
    for a geometric tail); iteration stops once the tail is flat at roundoff
    or a denominator vanishes.
    """
    v = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.abs(v).max()))
    while len(v) >= 3:
        d1 = v[1:-1] - v[:-2]
        d2 = v[2:] - v[1:-1]
        denom = d2 - d1
        if np.abs(d2).max() < 1e-13 * scale or np.abs(denom).min() < 1e-300:
            return float(v[-1])
        v = v[2:] - d2 * d2 / denom
    return float(v[-1])


def validate_lorenz(model: LorenzModel, grid: int = 10**4) -> dict:
    """Check every defining constraint; report margins.

    The range and expansion of f are checked on a grid of ``grid`` points
    per half-axis, staying one spacing away from the singular line;
    one-sided limits of f are extrapolated from x = +-10^-k, k = 4..8.  The
    sign, fiber and section constraints on H are exact: max H on x > 0 is
    a + |b|, min H on x < 0 is -a - |b|, sup|dH/dy| = |b| and sup|dH/dx|
    = 0.  Positive margin means the constraint holds.
    """
    if grid < 3:
        raise InputError("grid density must be at least 3")
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

    ks = np.arange(4, 9)
    lim_pos = _aitken_limit(model.f(10.0 ** (-ks.astype(float))))
    lim_neg = _aitken_limit(model.f(-(10.0 ** (-ks.astype(float)))))
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

    The itinerary codes s_k = 1 where x_k > 0 and 0 otherwise; the orbit is
    checked to stay inside the section square.
    """
    if abs(x0) <= _LINE_TOL:
        raise DomainError("initial point lies on the singular line", name="on_line")
    if not (abs(x0) <= 1.0 and abs(y0) <= 1.0):
        raise InputError("initial point outside the section square")
    if n < 0:
        raise InputError("n must be nonnegative")
    xs = [float(x0)]
    ys = [float(y0)]
    halted = False
    for _ in range(n):
        x, y = xs[-1], ys[-1]
        xn = float(model.f(x))
        yn = float(model.H(x, y))
        xs.append(xn)
        ys.append(yn)
        if abs(xn) <= _LINE_TOL:
            halted = True
            break
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if np.abs(xs).max() > 1.0 + 1e-12 or np.abs(ys).max() > 1.0 + 1e-12:
        raise DomainError("trajectory left the section square", name="containment")
    itinerary = (xs > 0).astype(int)
    return Trajectory(model=model, xs=xs, ys=ys, itinerary=itinerary, halted=halted)


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
    """Mean and Cesaro curve of G over the orbit, plus the expansion proxy."""
    if len(traj) < 2:
        raise InputError("trajectory must have at least 2 points")
    try:
        vals = np.asarray(G(traj.xs, traj.ys), dtype=float)
        if vals.shape != traj.xs.shape:
            raise ValueError
    except Exception:
        vals = np.array([float(G(x, y)) for x, y in zip(traj.xs, traj.ys)])
    running = np.cumsum(vals) / np.arange(1, len(vals) + 1)
    exponent = float(np.log(traj.model.df(traj.xs[:-1])).mean())
    return EmpiricalStatistics(mean=float(vals.mean()), running=running, exponent=exponent)
