"""The public API and the CLI only grow: names and flags present today stay."""

from __future__ import annotations

import argparse

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
