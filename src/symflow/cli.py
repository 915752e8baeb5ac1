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
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, InputError, SymflowError, _check_count, _check_tol, _number, _numbers, _text_number
from .horseshoe import HorseshoePack, build_multi_horseshoe, certify_pack, lift_pack_to_flow
from .jsonio import config_hash, csv_text, read_json, write_csv, write_json
from .lorenz import LorenzModel, simulate_return_map, validate_lorenz
from .measures import InvariantMeasure
from .sft import ENUMERATION_BUDGET, LocallyConstantFunction, Sft, topological_entropy
from .spectrum import (
    conditional_entropy_spectrum,
    conditional_entropy_spectrum_2d,
    flow_conditional_spectrum,
    rotation_set_2d,
)
from .suspension import SuspensionSystem, abramov_entropy, flow_integral, flow_top_entropy
from .thermo import pressure
from .witness import _witness_checks, birkhoff_witness_2d, intermediate_witness, low_entropy_mean_witness

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
    """The points of ``lo:hi:count``: finite ends and an integer count in 1..ENUMERATION_BUDGET."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("grid must be lo:hi:count")
    lo, hi, count = (_text_number(f"grid {part}", p) for part, p in zip(("lo", "hi", "count"), parts))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError(f"grid ends must be finite, got {text!r}")
    if not (1 <= count <= ENUMERATION_BUDGET and count.is_integer()):
        raise InputError(f"grid count must be an integer in 1..{ENUMERATION_BUDGET}, got {parts[2]!r}")
    return np.linspace(lo, hi, int(count))


def _parse_pair(name: str, text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{name} must be a comma-separated pair")
    return tuple(_text_number(f"{name} entry", p) for p in parts)


def _emit(args, doc: dict, headline: str) -> None:
    """Print the headline and, with ``--out``, write doc followed by the run's meta."""
    print(headline)
    if args.out:
        write_json(args.out, {**doc, "meta": _meta(args)})


def _emit_csv(args, header, rows, *comments) -> None:
    comments = [f"symflow {__version__} config={config_hash(_config_dict(args))}", *comments]
    if args.out:
        write_csv(args.out, header, rows, comments)
    else:
        sys.stdout.write(csv_text(header, rows, comments))


def _run_grid(fn, payloads, jobs: int) -> list:
    """fn over the payloads, in at most ``jobs`` processes and no more than
    there are payloads or cores (a pool starts all its workers at once)."""
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))
    return [fn(p) for p in payloads]


# ---------------------------------------------------------------- commands


def _cmd_entropy(args) -> None:
    value = topological_entropy(_load_sft(args.sft))
    _emit(args, {"entropy": value}, f"{value:.7f}")


def _pressure_row(payload) -> tuple:
    sft, g, beta, tol = payload
    res = pressure(sft, g * beta, tol=tol)
    return (beta, res.value, res.equilibrium.integrate(g), res.equilibrium.entropy())


def _spectrum_row(payload) -> tuple:
    sft, g, alpha, tol = payload
    res = conditional_entropy_spectrum(sft, g, alpha, tol=tol)
    return (alpha, res.entropy, res.beta, res.witness.entropy(), res.witness.integrate(g), res.status)


def _spectrum_grid_row(payload) -> tuple:
    """A spectrum grid row; a point that raises a domain error keeps its name as status."""
    try:
        return _spectrum_row(payload)
    except DomainError as exc:
        return (payload[2], None, None, None, None, exc.name)


# command -> (row of a point, row of a grid point, JSON names of a row, CSV header)
_SCANS = {
    "pressure": (_pressure_row, _pressure_row, ["beta", "pressure", "mean", "entropy"], ["beta", "P", "mean", "entropy"]),
    "spectrum": (
        _spectrum_row,
        _spectrum_grid_row,
        ["alpha", "entropy", "beta", "witness_entropy", "witness_mean", "status"],
        ["alpha", "H", "beta", "witness_entropy", "witness_mean", "status"],
    ),
}


def _scan(args, point, grid) -> None:
    """A grid is a CSV of rows; a single point is the same row as JSON,
    headed by its second field."""
    row, grid_row, names, header = _SCANS[args.command]
    _check_count("jobs", args.jobs, 1)
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    if grid is not None:
        payloads = [(sft, g, float(x), args.tol) for x in _parse_grid(grid)]
        _emit_csv(args, header, _run_grid(grid_row, payloads, args.jobs))
    else:
        doc = dict(zip(names, row((sft, g, point, args.tol))))
        _emit(args, doc, f"{doc[names[1]]:.12g}")


def _cmd_pressure(args) -> None:
    _scan(args, 1.0 if args.beta is None else args.beta, args.beta_grid)


def _cmd_spectrum(args) -> None:
    if args.alpha is None and args.alpha_grid is None:
        raise InputError("either --alpha or --alpha-grid is required")
    _scan(args, args.alpha, args.alpha_grid)


def _cmd_spectrum2d(args) -> None:
    sft = _load_sft(args.sft)
    g = _load_fn(sft, args.g)
    h = _load_fn(sft, args.h)
    alpha = _parse_pair("alpha", args.alpha)
    res = conditional_entropy_spectrum_2d(sft, g, h, alpha, tol=args.tol, directions=args.directions)
    comp = res.witness
    doc = {
        "alpha": list(res.alpha),
        "entropy": res.entropy,
        "beta": list(np.asarray(res.beta, dtype=float)),
        "witness_mean": [comp.integrate(g), comp.integrate(h)],
        "witness_entropy": comp.entropy(),
        "status": res.status,
    }
    _emit(args, doc, f"{res.entropy:.12g}")


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
    }
    _emit(args, doc, f"rank {rset.rank}, {len(rset.hull)} hull vertices")


def _cmd_flow_entropy(args) -> None:
    value = flow_top_entropy(SuspensionSystem.from_json(read_json(args.system)), tol=args.tol)
    _emit(args, {"flow_entropy": value}, f"{value:.12g}")


def _cmd_flow_spectrum(args) -> None:
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
    }
    _emit(args, doc, f"{res.s:.12g}")


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
    sizes = ",".join(str(len(arr)) for arr in pack.word_arrays)
    _emit(args, {"pack": pack.to_json()}, f"n={pack.n} anchor={pack.anchor} sizes={sizes}")


def _cmd_certify(args) -> None:
    # certify_pack and lift_pack_to_flow check their counts too; checking
    # here first fails a bad --mixtures before the certificate is computed.
    _check_count("samples", args.samples, 1)
    if args.system:
        _check_count("mixtures", args.mixtures, 1)
    doc = read_json(args.pack)
    if not isinstance(doc, dict) or "pack" not in doc:
        raise InputError("pack file must hold a 'pack' object")
    pack = HorseshoePack.from_json(doc["pack"])
    report = certify_pack(pack, args.samples, args.seed)
    flow_report = None
    if args.system:
        system = SuspensionSystem.from_json(read_json(args.system))
        flow_report = lift_pack_to_flow(system, pack, mixtures=args.mixtures, seed=args.seed)
    verdict = "PASS" if report["pass"] and (flow_report is None or flow_report["pass"]) else "FAIL"
    _emit(args, {"report": report, "flow": flow_report}, f"certificate: {verdict}")


# kind -> (required keys besides kind, sft, g and alpha, optional keys, name of
# the library call in this module, mean tolerance of its checks) of a witness
# request.  Every key but kind and sft is a keyword of the call, whose own
# defaults stand for absent ones.  The call is looked up by name when the
# request runs, so a rebinding of the module's name (a tracer's, a test's spy)
# reaches it.
_WITNESS_KINDS = {
    "intermediate": ({"c"}, {"u", "mu0", "zeta", "tol", "tol_mean"}, "intermediate_witness", 1e-6),
    "birkhoff_2d": ({"h"}, {"tol"}, "birkhoff_witness_2d", 1e-5),
    "low_entropy_mean": ({"h_cap"}, {"tol"}, "low_entropy_mean_witness", 1e-6),
}


def _parse_witness_request(req) -> tuple:
    """(kind, sft, fields) of a witness request: fields maps g, h and u to
    functions, mu0 to a measure (an optional u or mu0 may be null), alpha to
    a float (birkhoff_2d: a pair of them) and each other number to its float."""
    if not isinstance(req, dict) or "kind" not in req:
        raise InputError("request must be an object with a 'kind' field")
    kind = req["kind"]
    if kind not in _WITNESS_KINDS:
        raise InputError(f"unknown witness kind {kind!r}")
    own, optional, _, _ = _WITNESS_KINDS[kind]
    required = {"kind", "sft", "g", "alpha"} | own
    if extra := set(req) - required - optional:
        raise InputError(f"unknown request keys {sorted(extra)}")
    if missing := required - set(req):
        raise InputError(f"missing request keys {sorted(missing)}")
    fields = {t: _number(t, req[t]) for t in ("c", "tol", "tol_mean", "zeta", "h_cap") if t in req}
    alpha = _numbers("alpha", req["alpha"])  # a pair for the two functions g and h
    if alpha.shape != ((2,) if "h" in own else ()):
        raise InputError(f"{kind} alpha must be {'a pair' if 'h' in own else 'a number'}")
    fields["alpha"] = tuple(alpha.tolist()) if alpha.ndim else float(alpha)
    _check_tol(**{t: fields[t] for t in ("tol", "tol_mean") if t in fields})
    for tname in ("zeta", "h_cap"):
        if tname in fields and not (fields[tname] > 0):
            raise InputError(f"{tname} must be positive")
    if req.get("mu0") is not None and "zeta" not in fields:  # verify reads zeta with mu0
        raise InputError("mu0 requires a positive zeta")
    sft = Sft.from_json(req["sft"])
    for key in ("g", "h", "u", "mu0"):
        if key in req:
            read = InvariantMeasure.from_json if key == "mu0" else LocallyConstantFunction.from_json
            fields[key] = None if key in optional and req[key] is None else read(sft, req[key])
    return kind, sft, fields


def _checks(mu: InvariantMeasure, kind: str, fields: dict) -> list:
    """``witness._witness_checks`` of a parsed request at the CLI's fixed tolerances."""
    wants = {key: value for key, value in fields.items() if key not in ("tol", "tol_mean")}
    return _witness_checks(mu, **wants, mean_tol=_WITNESS_KINDS[kind][3])


def _check_lines(checks: list) -> str:
    return "\n".join(("pass " if c["pass"] else "FAIL ") + c["check"] for c in checks)


def _cmd_witness(args) -> None:
    req = read_json(args.request)
    kind, sft, fields = _parse_witness_request(req)
    mu = globals()[_WITNESS_KINDS[kind][2]](sft, **fields)
    checks = _checks(mu, kind, fields)
    doc = {"sft": sft.to_json(), "measure": mu.to_json(), "request": req, "checks": checks}
    _emit(args, doc, _check_lines(checks))
    if not all(c["pass"] for c in checks):
        raise DomainError("witness failed its own verification", name="verify")


def _cmd_verify(args) -> None:
    doc = read_json(args.measure)
    for key in ("sft", "measure", "request"):
        if key not in doc:
            raise InputError(f"measure file lacks the '{key}' field")
    kind, sft, fields = _parse_witness_request(doc["request"])
    mu = InvariantMeasure.from_json(sft, doc["measure"])
    checks = _checks(mu, kind, fields)
    ok = all(c["pass"] for c in checks)
    _emit(args, {"checks": checks, "pass": ok}, _check_lines(checks))
    if not ok:
        raise DomainError("verification failed", name="verify")


def _cmd_lorenz_validate(args) -> None:
    report = validate_lorenz(LorenzModel.from_json(read_json(args.model)), grid=args.grid)
    lines = [f"{'pass' if e['pass'] else 'FAIL'} {e['constraint']} margin={e['margin']:.6g}" for e in report["entries"]]
    _emit(args, {"report": report}, "\n".join(lines + ["overall: " + ("pass" if report["pass"] else "FAIL")]))


def _cmd_lorenz_simulate(args) -> None:
    if args.n < 1:
        raise InputError("n must be at least 1")
    model = LorenzModel.from_json(read_json(args.model))
    traj = simulate_return_map(model, args.x0, args.y0, args.n)
    rows = zip(range(len(traj)), traj.xs.tolist(), traj.ys.tolist(), traj.itinerary.tolist())
    _emit_csv(args, ["step", "x", "y", "s"], rows, f"halted={str(traj.halted).lower()}")
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
    except SymflowError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
