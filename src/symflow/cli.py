"""Batch front end: parse system definitions, dispatch, emit artifacts.

One subcommand per operation family.  All artifacts are written atomically
(temporary sibling file plus rename) and embed the tool version and a hash
of the fully resolved job configuration, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 malformed input, 2 domain
errors; stderr carries ``error: <name>: <message>`` with the structured
error name.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .errors import DomainError, InputError, SymflowError, _check_tol
from .horseshoe import HorseshoePack, _check_count, build_multi_horseshoe, certify_pack, lift_pack_to_flow
from .jsonio import config_hash, csv_text, read_json, write_csv, write_json
from .lorenz import LorenzModel, simulate_return_map, validate_lorenz
from .measures import InvariantMeasure, d_star, support_is_full
from .sft import LocallyConstantFunction, Sft, topological_entropy
from .spectrum import (
    conditional_entropy_spectrum,
    conditional_entropy_spectrum_2d,
    flow_conditional_spectrum,
    rotation_set_2d,
)
from .suspension import SuspensionSystem, abramov_entropy, flow_integral, flow_top_entropy
from .thermo import pressure
from .witness import birkhoff_witness_2d, intermediate_witness, low_entropy_mean_witness

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the input-error channel."""

    def error(self, message):
        raise InputError(message, name="usage")


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _meta(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "config_hash": config_hash(_config_dict(args)),
    }


def _load_sft(path: str) -> Sft:
    return Sft.from_json(read_json(path))


def _load_fn(sft: Sft, path: str) -> LocallyConstantFunction:
    return LocallyConstantFunction.from_json(sft, read_json(path))


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise InputError("grid needs at least one point")
    return np.linspace(lo, hi, count)


def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("expected a comma-separated pair")
    return (float(parts[0]), float(parts[1]))


def _emit_csv(out, header, rows, comments) -> None:
    if out:
        write_csv(out, header, rows, comments)
    else:
        sys.stdout.write(csv_text(header, rows, comments))


def _run_grid(fn, payloads, jobs: int) -> list:
    if jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


# ---------------------------------------------------------------- commands


def _cmd_entropy(args) -> None:
    sft = _load_sft(args.sft)
    value = topological_entropy(sft)
    print(f"{value:.7f}")
    if args.out:
        write_json(args.out, {"entropy": value, "meta": _meta(args)})


def _pressure_point(payload):
    sft, g, beta, tol = payload
    res = pressure(sft, g * beta, tol=tol)
    return (beta, res.value, res.equilibrium.integrate(g), res.equilibrium.entropy())


def _cmd_pressure(args) -> None:
    _check_tol(tol=args.tol)
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    if args.beta_grid is not None:
        betas = _parse_grid(args.beta_grid)
        payloads = [(sft, g, float(b), args.tol) for b in betas]
        rows = _run_grid(_pressure_point, payloads, args.jobs)
        comments = [f"symflow {__version__} config={config_hash(_config_dict(args))}"]
        _emit_csv(args.out, ["beta", "P", "mean", "entropy"], rows, comments)
        return
    beta = 1.0 if args.beta is None else args.beta
    res = pressure(sft, g * beta, tol=args.tol)
    print(f"{res.value:.12g}")
    if args.out:
        write_json(
            args.out,
            {
                "beta": beta,
                "pressure": res.value,
                "mean": res.equilibrium.integrate(g),
                "entropy": res.equilibrium.entropy(),
                "meta": _meta(args),
            },
        )


def _spectrum_point(payload):
    sft, g, alpha, tol = payload
    try:
        res = conditional_entropy_spectrum(sft, g, alpha, tol=tol)
    except DomainError as exc:
        return (alpha, None, None, None, None, exc.name)
    comp = res.witness
    return (alpha, res.entropy, res.beta, comp.entropy(), comp.integrate(g), res.status)


def _cmd_spectrum(args) -> None:
    _check_tol(tol=args.tol)
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    if args.alpha_grid is not None:
        alphas = _parse_grid(args.alpha_grid)
        payloads = [(sft, g, float(a), args.tol) for a in alphas]
        rows = _run_grid(_spectrum_point, payloads, args.jobs)
        comments = [f"symflow {__version__} config={config_hash(_config_dict(args))}"]
        _emit_csv(
            args.out,
            ["alpha", "H", "beta", "witness_entropy", "witness_mean", "status"],
            rows,
            comments,
        )
        return
    if args.alpha is None:
        raise InputError("either --alpha or --alpha-grid is required")
    res = conditional_entropy_spectrum(sft, g, args.alpha, tol=args.tol)
    print(f"{res.entropy:.12g}")
    if args.out:
        comp = res.witness
        write_json(
            args.out,
            {
                "alpha": res.alpha,
                "entropy": res.entropy,
                "beta": res.beta,
                "witness_entropy": comp.entropy(),
                "witness_mean": comp.integrate(g),
                "status": res.status,
                "meta": _meta(args),
            },
        )


def _cmd_spectrum2d(args) -> None:
    _check_tol(tol=args.tol)
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    h = _load_fn(sft, args.h)
    alpha = _parse_pair(args.alpha)
    res = conditional_entropy_spectrum_2d(sft, g, h, alpha, tol=args.tol, directions=args.directions)
    comp = res.witness
    doc = {
        "alpha": list(res.alpha),
        "entropy": res.entropy,
        "beta": list(np.asarray(res.beta, dtype=float)),
        "witness_mean": [comp.integrate(g), comp.integrate(h)],
        "witness_entropy": comp.entropy(),
        "status": res.status,
        "meta": _meta(args),
    }
    print(f"{res.entropy:.12g}")
    if args.out:
        write_json(args.out, doc)


def _cmd_rotation_set(args) -> None:
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    h = _load_fn(sft, args.h)
    rset = rotation_set_2d(sft, g, h, directions=args.directions)
    doc = {
        "rank": rset.rank,
        "directions": rset.directions,
        "support": rset.support,
        "points": rset.points,
        "hull": rset.hull,
        "words": [list(w) for w in rset.words],
        "meta": _meta(args),
    }
    print(f"rank {rset.rank}, {len(rset.hull)} hull vertices")
    if args.out:
        write_json(args.out, doc)


def _cmd_flow_entropy(args) -> None:
    _check_tol(tol=args.tol)
    system = SuspensionSystem.from_json(read_json(args.system))
    value = flow_top_entropy(system, tol=args.tol)
    print(f"{value:.12g}")
    if args.out:
        write_json(args.out, {"flow_entropy": value, "meta": _meta(args)})


def _cmd_flow_spectrum(args) -> None:
    _check_tol(tol=args.tol)
    system = SuspensionSystem.from_json(read_json(args.system))
    phi = LocallyConstantFunction.from_json(system.base, read_json(args.phi))
    res = flow_conditional_spectrum(system, phi, args.alpha, tol=args.tol)
    mu = InvariantMeasure.single(res.witness)
    doc = {
        "alpha": res.alpha,
        "s": res.s,
        "beta": res.beta,
        "witness_ratio": flow_integral(system, mu, phi),
        "witness_flow_entropy": abramov_entropy(system, mu),
        "status": res.status,
        "meta": _meta(args),
    }
    print(f"{res.s:.12g}")
    if args.out:
        write_json(args.out, doc)


def _load_targets(sft: Sft, path: str) -> list:
    doc = read_json(path)
    if isinstance(doc, dict) and "targets" in doc:
        doc = doc["targets"]
    if not isinstance(doc, list) or not doc:
        raise InputError("targets file must hold a non-empty list of measures")
    return [InvariantMeasure.from_json(sft, d) for d in doc]


def _cmd_horseshoe(args) -> None:
    if args.n_max < 2:
        raise InputError("n-max must be at least 2")
    sft = _load_sft(args.sft)
    targets = _load_targets(sft, args.targets)
    pack = build_multi_horseshoe(sft, targets, args.eta, args.zeta, args.n_max, seed=args.seed)
    write_json(args.out, {"pack": pack.to_json(), "meta": _meta(args)})
    sizes = ",".join(str(len(ws)) for ws in pack.word_sets)
    print(f"n={pack.n} anchor={pack.anchor} sizes={sizes}")


def _cmd_certify(args) -> None:
    # certify_pack and lift_pack_to_flow check their counts too; checking
    # here first fails a bad --mixtures before the certificate is computed.
    _check_count("samples", args.samples, 1)
    if args.system:
        _check_count("mixtures", args.mixtures, 1)
    doc = read_json(args.pack)
    if "pack" not in doc:
        raise InputError("pack file must hold a 'pack' object")
    pack = HorseshoePack.from_json(doc["pack"])
    report = certify_pack(pack, args.samples, args.seed)
    flow_report = None
    if args.system:
        system = SuspensionSystem.from_json(read_json(args.system))
        flow_report = lift_pack_to_flow(system, pack, mixtures=args.mixtures, seed=args.seed)
    out_doc = {"report": report, "flow": flow_report, "meta": _meta(args)}
    if args.out:
        write_json(args.out, out_doc)
    verdict = "PASS" if report["pass"] and (flow_report is None or flow_report["pass"]) else "FAIL"
    print(f"certificate: {verdict}")


# kind -> (required keys, optional keys) of a witness request
_WITNESS_KEYS = {
    "intermediate": ({"kind", "sft", "g", "alpha", "c"}, {"u", "mu0", "zeta", "tol", "tol_mean"}),
    "birkhoff_2d": ({"kind", "sft", "g", "h", "alpha"}, {"tol"}),
    "low_entropy_mean": ({"kind", "sft", "g", "alpha", "h_cap"}, {"tol"}),
}


def _witness_checks(sft: Sft, mu: InvariantMeasure, req: dict, nums: dict) -> list:
    """Recompute the request's guarantees from the serialized measure alone;
    ``nums`` holds the request's number fields (:func:`_parse_witness_request`)."""
    checks = []

    def add(name, value, target, tol, ok):
        checks.append(
            {"check": name, "value": value, "target": target, "tol": tol, "pass": bool(ok)}
        )

    kind = req["kind"]
    g = LocallyConstantFunction.from_json(sft, req["g"])
    add("ergodic", bool(mu.ergodic), True, 0.0, mu.ergodic)
    if kind == "birkhoff_2d":
        h = LocallyConstantFunction.from_json(sft, req["h"])
        a0, a1 = nums["alpha"]
        mg, mh = mu.integrate(g), mu.integrate(h)
        add("mean g", mg, a0, 1e-5, abs(mg - a0) <= 1e-5)
        add("mean h", mh, a1, 1e-5, abs(mh - a1) <= 1e-5)
        full = support_is_full(mu)
        add("full support", bool(full), True, 0.0, full)
    elif kind == "intermediate":
        alpha, c = nums["alpha"], nums["c"]
        mg = mu.integrate(g)
        add("mean g", mg, alpha, 1e-6, abs(mg - alpha) <= 1e-6)
        value = mu.entropy()
        label = "entropy"
        if req.get("u") is not None:
            value += mu.integrate(LocallyConstantFunction.from_json(sft, req["u"]))
            label = "entropy plus integral u"
        add(label, value, c, 1e-5, abs(value - c) <= 1e-5)
        full = support_is_full(mu)
        add("full support", bool(full), True, 0.0, full)
        if req.get("mu0") is not None:
            mu0 = InvariantMeasure.from_json(sft, req["mu0"])
            zeta = nums["zeta"]
            dist = d_star(mu, mu0)
            add("d* to mu0", dist, zeta, 0.0, dist < zeta)
    elif kind == "low_entropy_mean":
        alpha, h_cap = nums["alpha"], nums["h_cap"]
        mg = mu.integrate(g)
        add("mean g", mg, alpha, 1e-6, abs(mg - alpha) <= 1e-6)
        value = mu.entropy()
        add("entropy cap", value, h_cap, 0.0, value <= h_cap + 1e-12)
    else:
        raise InputError(f"unknown witness kind {kind!r}")
    return checks


def _number(name: str, value) -> float:
    """The float of a JSON number; InputError for a string, null, bool or other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def _parse_witness_request(req) -> tuple:
    """(kind, sft, nums) of a witness request; nums maps each number field
    present to its float (birkhoff_2d's alpha to a pair of them)."""
    if not isinstance(req, dict) or "kind" not in req:
        raise InputError("request must be an object with a 'kind' field")
    kind = req["kind"]
    if kind not in _WITNESS_KEYS:
        raise InputError(f"unknown witness kind {kind!r}")
    required, optional = _WITNESS_KEYS[kind]
    extra = set(req) - required - optional
    if extra:
        raise InputError(f"unknown request keys {sorted(extra)}")
    missing = required - set(req)
    if missing:
        raise InputError(f"missing request keys {sorted(missing)}")
    nums = {t: _number(t, req[t]) for t in ("c", "tol", "tol_mean", "zeta", "h_cap") if t in req}
    a = req["alpha"]  # required by every kind
    if kind != "birkhoff_2d":
        nums["alpha"] = _number("alpha", a)
    elif isinstance(a, (list, tuple)) and len(a) == 2:
        nums["alpha"] = (_number("alpha", a[0]), _number("alpha", a[1]))
    else:
        raise InputError("birkhoff_2d alpha must be a pair")
    _check_tol(**{t: nums[t] for t in ("tol", "tol_mean") if t in nums})
    for tname in ("zeta", "h_cap"):
        if tname in nums and not (nums[tname] > 0):
            raise InputError(f"{tname} must be positive")
    if req.get("mu0") is not None and "zeta" not in nums:  # verify reads zeta with mu0
        raise InputError("mu0 requires a positive zeta")
    return kind, Sft.from_json(req["sft"]), nums


def _cmd_witness(args) -> None:
    req = read_json(args.request)
    kind, sft, nums = _parse_witness_request(req)
    g = LocallyConstantFunction.from_json(sft, req["g"])
    if kind == "intermediate":
        u = None if req.get("u") is None else LocallyConstantFunction.from_json(sft, req["u"])
        mu0 = None if req.get("mu0") is None else InvariantMeasure.from_json(sft, req["mu0"])
        mu = intermediate_witness(
            sft,
            g,
            nums["alpha"],
            nums["c"],
            u=u,
            mu0=mu0,
            zeta=nums.get("zeta"),
            tol=nums.get("tol", 1e-7),
            tol_mean=nums.get("tol_mean", 1e-9),
        )
    elif kind == "birkhoff_2d":
        h = LocallyConstantFunction.from_json(sft, req["h"])
        mu = birkhoff_witness_2d(sft, g, h, nums["alpha"], tol=nums.get("tol", 1e-9))
    else:
        mu = low_entropy_mean_witness(sft, g, nums["alpha"], nums["h_cap"], tol=nums.get("tol", 1e-9))
    checks = _witness_checks(sft, mu, req, nums)
    write_json(
        args.out,
        {
            "sft": sft.to_json(),
            "measure": mu.to_json(),
            "request": req,
            "checks": checks,
            "meta": _meta(args),
        },
    )
    for c in checks:
        print(("pass " if c["pass"] else "FAIL ") + c["check"])
    if not all(c["pass"] for c in checks):
        raise DomainError("witness failed its own verification", name="verify")


def _cmd_verify(args) -> None:
    doc = read_json(args.measure)
    for key in ("sft", "measure", "request"):
        if key not in doc:
            raise InputError(f"measure file lacks the '{key}' field")
    kind, sft, nums = _parse_witness_request(doc["request"])
    mu = InvariantMeasure.from_json(sft, doc["measure"])
    checks = _witness_checks(sft, mu, doc["request"], nums)
    ok = all(c["pass"] for c in checks)
    if args.out:
        write_json(args.out, {"checks": checks, "pass": ok, "meta": _meta(args)})
    for c in checks:
        print(("pass " if c["pass"] else "FAIL ") + c["check"])
    if not ok:
        raise DomainError("verification failed", name="verify")


def _cmd_lorenz_validate(args) -> None:
    model = LorenzModel.from_json(read_json(args.model))
    report = validate_lorenz(model, grid=args.grid)
    for e in report["entries"]:
        mark = "pass" if e["pass"] else "FAIL"
        print(f"{mark} {e['constraint']} margin={e['margin']:.6g}")
    print("overall: " + ("pass" if report["pass"] else "FAIL"))
    if args.out:
        write_json(args.out, {"report": report, "meta": _meta(args)})


def _cmd_lorenz_simulate(args) -> None:
    if args.n < 1:
        raise InputError("n must be at least 1")
    model = LorenzModel.from_json(read_json(args.model))
    traj = simulate_return_map(model, args.x0, args.y0, args.n)
    rows = [
        (k, traj.xs[k], traj.ys[k], int(traj.itinerary[k]))
        for k in range(len(traj))
    ]
    comments = [
        f"symflow {__version__} config={config_hash(_config_dict(args))}",
        f"halted={str(traj.halted).lower()}",
    ]
    _emit_csv(args.out, ["step", "x", "y", "s"], rows, comments)
    print(f"{len(traj)} points halted={str(traj.halted).lower()}")


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symflow", description=__doc__)
    parser.add_argument("--version", action="version", version=f"symflow {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("entropy", help="topological entropy of an SFT")
    p.add_argument("--sft", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("pressure", help="topological pressure and equilibrium data")
    p.add_argument("--sft", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-grid")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("spectrum", help="conditional entropy spectrum H(alpha)")
    p.add_argument("--sft", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-grid")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("spectrum2d", help="joint spectrum for a pair of observables")
    p.add_argument("--sft", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--alpha", required=True, help="pair a1,a2")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum2d)

    p = sub.add_parser("rotation-set", help="joint Birkhoff mean set of (g, h)")
    p.add_argument("--sft", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rotation_set)

    p = sub.add_parser("flow-entropy", help="topological entropy of a suspension flow")
    p.add_argument("--system", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flow_entropy)

    p = sub.add_parser("flow-spectrum", help="conditional spectrum of a flow observable")
    p.add_argument("--system", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flow_spectrum)

    p = sub.add_parser("horseshoe", help="build a multi-horseshoe word pack")
    p.add_argument("--sft", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_horseshoe)

    p = sub.add_parser("certify", help="check a pack against its definition")
    p.add_argument("--pack", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--system", help="optional suspension system for the flow lift")
    p.add_argument("--mixtures", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("witness", help="construct a measure from a witness request")
    p.add_argument("--request", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="re-verify a serialized witness measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lorenz-validate", help="check a Lorenz return-map model")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=10**4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lorenz_validate)

    p = sub.add_parser("lorenz-simulate", help="iterate the return map, emit a CSV orbit")
    p.add_argument("--model", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lorenz_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process (parsing leaves it unchanged)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not hasattr(args, "func"):
            raise InputError("a command is required (see --help)", name="usage")
        args.func(args)
    except InputError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 2
    except SymflowError as exc:  # base-class fallback, same channel
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
