"""The public API and the CLI only grow: names and flags present today stay."""

from __future__ import annotations

import argparse
import copy
import inspect

import numpy as np
import pytest

import symflow
from symflow.cli import build_parser

API = {
    "__version__", "SymflowError", "InputError", "DomainError",
    "Sft", "LocallyConstantFunction", "admissible_words", "block_recode", "perron_root",
    "topological_entropy", "validate_and_trim", "is_irreducible",
    "InvariantMeasure", "MarkovComponent", "d_star", "periodic_orbit_measure",
    "random_markov_component", "stationary", "support_is_full",
    "PressureResult", "pressure", "verify_equilibrium",
    "SuspensionSystem", "abramov_entropy", "d_star_flow", "flow_integral",
    "flow_mixture_weights", "flow_top_entropy",
    "BirkhoffRange", "FlowRatioRange", "RotationSet", "SpectrumResult", "birkhoff_range",
    "conditional_entropy_spectrum", "conditional_entropy_spectrum_2d",
    "flow_conditional_spectrum", "flow_ratio_range", "rotation_set_2d",
    "birkhoff_witness_2d", "intermediate_witness", "low_entropy_mean_witness", "orthant_combination",
    "HorseshoePack", "WordProcessMeasure", "build_multi_horseshoe", "certify_pack", "lift_pack_to_flow",
    "EmpiricalStatistics", "LorenzModel", "Trajectory", "empirical_statistics",
    "simulate_return_map", "validate_lorenz",
}

COMMANDS = {
    "entropy": {"--sft", "--out"},
    "pressure": {"--sft", "--g", "--beta", "--beta-grid", "--tol", "--jobs", "--out"},
    "spectrum": {"--sft", "--g", "--alpha", "--alpha-grid", "--tol", "--jobs", "--out"},
    "spectrum2d": {"--sft", "--g", "--h", "--alpha", "--tol", "--directions", "--out"},
    "rotation-set": {"--sft", "--g", "--h", "--directions", "--out"},
    "flow-entropy": {"--system", "--tol", "--out"},
    "flow-spectrum": {"--system", "--phi", "--alpha", "--tol", "--out"},
    "horseshoe": {"--sft", "--targets", "--eta", "--zeta", "--n-max", "--seed", "--out"},
    "certify": {"--pack", "--samples", "--seed", "--system", "--mixtures", "--out"},
    "witness": {"--request", "--out"},
    "verify": {"--measure", "--out"},
    "lorenz-validate": {"--model", "--grid", "--out"},
    "lorenz-simulate": {"--model", "--x0", "--y0", "--n", "--out"},
}


def _flags(parser: argparse.ArgumentParser) -> set:
    return {opt for action in parser._actions for opt in action.option_strings}


def test_public_names_are_kept():
    assert API <= set(symflow.__all__)
    assert all(hasattr(symflow, name) for name in API)


def test_cli_commands_and_flags_are_kept():
    parser = build_parser()
    assert "--version" in _flags(parser)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(COMMANDS) <= set(sub.choices)
    for name, flags in COMMANDS.items():
        assert flags <= _flags(sub.choices[name]), name


def _tol_calls() -> dict:
    """A valid call of every public callable that takes a tol, by name."""
    full2 = symflow.Sft(np.ones((2, 2), dtype=int))
    g = symflow.LocallyConstantFunction.indicator(full2, (1,))
    h = symflow.LocallyConstantFunction.indicator(full2, (1, 1))
    system = symflow.SuspensionSystem(full2, symflow.LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}))
    mu = symflow.InvariantMeasure.single(symflow.pressure(full2, g).equilibrium)
    return {
        "perron_root": lambda **kw: symflow.perron_root(full2.A, **kw),
        "topological_entropy": lambda **kw: symflow.topological_entropy(full2, **kw),
        "pressure": lambda **kw: symflow.pressure(full2, g, **kw),
        "verify_equilibrium": lambda **kw: symflow.verify_equilibrium(full2, g, mu, **kw),
        "flow_top_entropy": lambda **kw: symflow.flow_top_entropy(system, **kw),
        "conditional_entropy_spectrum": lambda **kw: symflow.conditional_entropy_spectrum(full2, g, 0.3, **kw),
        "conditional_entropy_spectrum_2d": lambda **kw: symflow.conditional_entropy_spectrum_2d(full2, g, h, (0.5, 0.3), **kw),
        "flow_conditional_spectrum": lambda **kw: symflow.flow_conditional_spectrum(system, g, 0.3, **kw),
        "birkhoff_witness_2d": lambda **kw: symflow.birkhoff_witness_2d(full2, g, h, (0.5, 0.3), **kw),
        "intermediate_witness": lambda **kw: symflow.intermediate_witness(full2, g, 0.3, 0.5, **kw),
        "low_entropy_mean_witness": lambda **kw: symflow.low_entropy_mean_witness(full2, g, 0.3, 0.1, **kw),
    }


def _tol_params(obj) -> list:
    try:
        params = inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return []
    return [p for p in params if p == "tol" or p.startswith("tol_")]


def test_every_public_tol_is_checked():
    # Every public callable that takes a tol is listed in _tol_calls, runs
    # there with its defaults, and refuses a tol that is not finite and
    # positive with InputError.
    takes_tol = {name: _tol_params(getattr(symflow, name)) for name in symflow.__all__}
    takes_tol = {name: params for name, params in takes_tol.items() if params}
    calls = _tol_calls()
    assert set(takes_tol) == set(calls)
    for name, params in takes_tol.items():
        calls[name]()
        for param in params:
            for bad in (float("nan"), float("inf"), 0.0, -1.0):
                with pytest.raises(symflow.InputError):
                    calls[name](**{param: bad})


_TOL_ARGUMENTS = [(name, p) for name in symflow.__all__ for p in _tol_params(getattr(symflow, name))]
_TARGET_ARGUMENTS = [
    ("conditional_entropy_spectrum", "alpha"), ("flow_conditional_spectrum", "alpha"),
    ("intermediate_witness", "alpha"), ("intermediate_witness", "c"),
    ("low_entropy_mean_witness", "alpha"), ("low_entropy_mean_witness", "h_cap"),
]
_COUNT_ARGUMENTS = [
    ("admissible_words", "n"), ("block_recode", "m"), ("LocallyConstantFunction", "memory"),
    ("MarkovComponent", "memory"), ("d_star", "N"), ("rotation_set_2d", "directions"),
]


def _argument_calls() -> dict:
    """(call, good value) by (public name, argument): a valid call that takes
    the argument's value, for every tol of _tol_calls, target and count."""
    full2 = symflow.Sft(np.ones((2, 2), dtype=int))
    g = symflow.LocallyConstantFunction.indicator(full2, (1,))
    h = symflow.LocallyConstantFunction.indicator(full2, (1, 1))
    system = symflow.SuspensionSystem(full2, symflow.LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}))
    mu = symflow.InvariantMeasure.single(symflow.pressure(full2, g).equilibrium)
    tol_calls = _tol_calls()
    calls = {(name, p): (lambda v, f=tol_calls[name], p=p: f(**{p: v}), 1e-6) for name, p in _TOL_ARGUMENTS}
    calls.update({
        ("conditional_entropy_spectrum", "alpha"): (lambda v: symflow.conditional_entropy_spectrum(full2, g, v), 0.3),
        ("flow_conditional_spectrum", "alpha"): (lambda v: symflow.flow_conditional_spectrum(system, g, v), 0.3),
        ("intermediate_witness", "alpha"): (lambda v: symflow.intermediate_witness(full2, g, v, 0.5), 0.3),
        ("intermediate_witness", "c"): (lambda v: symflow.intermediate_witness(full2, g, 0.3, v), 0.5),
        ("low_entropy_mean_witness", "alpha"): (lambda v: symflow.low_entropy_mean_witness(full2, g, v, 0.1), 0.3),
        ("low_entropy_mean_witness", "h_cap"): (lambda v: symflow.low_entropy_mean_witness(full2, g, 0.3, v), 0.1),
        ("admissible_words", "n"): (lambda v: symflow.admissible_words(full2, v), 2),
        ("block_recode", "m"): (lambda v: symflow.block_recode(full2, v), 2),
        ("LocallyConstantFunction", "memory"): (lambda v: symflow.LocallyConstantFunction(full2, v, {(0,): 0.0, (1,): 1.0}), 1),
        ("MarkovComponent", "memory"): (lambda v: symflow.MarkovComponent(full2, v, [(0,), (1,)], np.full((2, 2), 0.5)), 1),
        ("d_star", "N"): (lambda v: symflow.d_star(mu, mu, N=v), 3),
        ("rotation_set_2d", "directions"): (lambda v: symflow.rotation_set_2d(full2, g, h, directions=v), 8),
    })
    return calls


@pytest.mark.parametrize("name, arg", _TOL_ARGUMENTS + _TARGET_ARGUMENTS + _COUNT_ARGUMENTS)
def test_numbers_and_counts_of_library_calls_are_input_errors(name, arg):
    # A tol or target is a real number and a count an integer, numpy scalars
    # included; a string, None, bool or list (or a float count) is InputError,
    # never a TypeError.  The tol cases are every tol of the public API, so a
    # new one fails here until _tol_calls has a call for it.
    call, good = _argument_calls()[name, arg]
    if (name, arg) in _COUNT_ARGUMENTS:
        call(np.int64(good))
        bads = [good + 0.5, str(good), True, None]
    else:
        call(np.float32(good))
        bads = [str(good), None, True, [good]]
    for bad in bads:
        with pytest.raises(symflow.InputError):
            call(bad)


def _json_docs() -> dict:
    """A valid document of every public class with a from_json, by name: the
    reader, the document and the paths in it at which a number belongs."""
    full2 = symflow.Sft(np.ones((2, 2), dtype=int))
    g = symflow.LocallyConstantFunction.indicator(full2, (1,))
    mu = symflow.InvariantMeasure.single(symflow.pressure(full2, g).equilibrium)
    system = symflow.SuspensionSystem(full2, symflow.LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0}))
    pack = symflow.HorseshoePack(full2, 2, 0, 0.5, 0.5, [[(0, 0), (0, 1)]], [mu])
    model = symflow.LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
    component = ("components", 0)
    return {
        "Sft": (symflow.Sft.from_json, full2.to_json(), [("k",), ("A", 0, 1)]),
        "LocallyConstantFunction": (
            lambda doc: symflow.LocallyConstantFunction.from_json(full2, doc),
            g.to_json(),
            [("memory",), ("table", "1")],
        ),
        "InvariantMeasure": (
            lambda doc: symflow.InvariantMeasure.from_json(full2, doc),
            mu.to_json(),
            [(*component, "weight"), (*component, "memory"), (*component, "Q", 0, 0), (*component, "pi", 1)],
        ),
        "SuspensionSystem": (
            symflow.SuspensionSystem.from_json,
            system.to_json(),
            [("base", "k"), ("base", "A", 1, 0), ("roof", "memory"), ("roof", "table", "0")],
        ),
        "HorseshoePack": (
            symflow.HorseshoePack.from_json,
            pack.to_json(),
            [("n",), ("anchor",), ("eta",), ("zeta",), ("sft", "k"), ("measures", 0, *component, "weight")],
        ),
        "LorenzModel": (
            symflow.LorenzModel.from_json,
            model.to_json(),
            [("f", "c"), ("f", "gamma"), ("H", "a"), ("H", "b"), ("lambda", 2)],
        ),
    }


def test_every_public_from_json_refuses_a_non_number():
    # Every public class with a from_json is listed in _json_docs, reads its
    # document there, and refuses a string, a NaN, a bool or a list at each
    # place where a number belongs with InputError.
    readers = {name for name in symflow.__all__ if hasattr(getattr(symflow, name), "from_json")}
    docs = _json_docs()
    assert readers == set(docs)
    for name, (read, doc, paths) in docs.items():
        read(doc)
        for *head, last in paths:
            for bad in ("x", float("nan"), True, [1.0]):
                broken = copy.deepcopy(doc)
                part = broken
                for key in head:
                    part = part[key]
                part[last] = bad
                with pytest.raises(symflow.InputError):
                    read(broken)
