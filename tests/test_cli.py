from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bernoulli_measure, binary_entropy, count_checks
import symflow
from symflow.cli import build_parser, main
from symflow.lorenz import LorenzModel
from symflow.sft import LocallyConstantFunction, Sft
from symflow.spectrum import conditional_entropy_spectrum
from symflow.suspension import SuspensionSystem


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input documents shared by the command tests, written once."""
    d = tmp_path_factory.mktemp("cli")
    full2 = Sft(np.ones((2, 2), dtype=int))
    golden = Sft(np.array([[1, 1], [1, 0]]))
    g = LocallyConstantFunction.indicator(full2, (1,))
    h = LocallyConstantFunction.indicator(full2, (1, 1))
    roof = LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0})
    system = SuspensionSystem(full2, roof)
    model = LorenzModel(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
    weak = LorenzModel(c=1.5, gamma=0.8, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
    targets = [
        bernoulli_measure(full2, [0.75, 0.25]).to_json(),
        bernoulli_measure(full2, [0.25, 0.75]).to_json(),
    ]
    docs = {
        "full2": full2.to_json(),
        "golden": golden.to_json(),
        "g": g.to_json(),
        "h": h.to_json(),
        "u00": LocallyConstantFunction.indicator(full2, (0, 0)).to_json(),
        "system": system.to_json(),
        "model": model.to_json(),
        "weak_model": weak.to_json(),
        "targets": targets,
        "bern_half": bernoulli_measure(full2, [0.5, 0.5]).to_json(),
    }
    paths = {}
    for name, doc in docs.items():
        p = d / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = p
    paths["dir"] = d
    return paths


def test_no_command_is_usage_error(files):
    code, out, err = run_cli()
    assert code == 1
    assert err.startswith("error: usage:")


def test_one_parser_serves_many_calls(files):
    """A usage error and then valid calls in one process behave as fresh processes do."""
    calls = [
        ("spectrum", "--sft", files["full2"], "--bogus"),
        ("entropy", "--sft", files["golden"]),
        ("spectrum", "--sft", files["full2"], "--g", files["g"], "--alpha", "0.3"),
        ("spectrum", "--sft", files["full2"], "--g", files["g"]),
        ("entropy", "--sft", files["full2"]),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    for argv in calls:
        argv = [str(a) for a in argv]
        fresh = subprocess.run([sys.executable, "-m", "symflow.cli", *argv], capture_output=True, text=True, env=env)
        assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_bad_grid_and_missing_alpha(files):
    code, _, err = run_cli(
        "pressure", "--sft", files["full2"], "--g", files["g"], "--beta-grid", "0:1"
    )
    assert code == 1 and "error:" in err
    code, _, err = run_cli("spectrum", "--sft", files["full2"], "--g", files["g"])
    assert code == 1
    assert "--alpha" in err


def test_entropy_command(files, tmp_path):
    code, out, _ = run_cli("entropy", "--sft", files["golden"])
    assert code == 0
    assert out.strip() == "0.4812118"
    outfile = tmp_path / "h.json"
    code, out, _ = run_cli("entropy", "--sft", files["full2"], "--out", outfile)
    assert code == 0 and out.strip() == "0.6931472"
    doc = json.loads(outfile.read_text())
    assert abs(doc["entropy"] - math.log(2.0)) < 1e-12
    assert set(doc["meta"]) == {"version", "command", "config_hash"}
    assert doc["meta"]["command"] == "entropy"


def test_pressure_single(files, tmp_path):
    outfile = tmp_path / "p.json"
    code, out, _ = run_cli(
        "pressure", "--sft", files["full2"], "--g", files["g"], "--beta", "1.0",
        "--out", outfile,
    )
    assert code == 0
    want = math.log(1.0 + math.e)
    assert out.strip() == f"{want:.12g}"
    doc = json.loads(outfile.read_text())
    assert abs(doc["pressure"] - want) < 1e-10
    p = math.e / (1.0 + math.e)
    assert abs(doc["mean"] - p) < 1e-10
    assert abs(doc["entropy"] - binary_entropy(p)) < 1e-10


def test_pressure_grid_csv(files, tmp_path):
    outfile = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        "pressure", "--sft", files["full2"], "--g", files["g"],
        "--beta-grid=-2:2:5", "--out", outfile,
    )
    assert code == 0
    comments, header, rows = read_csv(outfile)
    assert comments and comments[0].startswith("# symflow ")
    assert "config=" in comments[0]
    assert header == ["beta", "P", "mean", "entropy"]
    assert len(rows) == 5
    for row in rows:
        beta = float(row[0])
        assert abs(float(row[1]) - math.log(1.0 + math.exp(beta))) < 1e-10
    assert [float(r[0]) for r in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_pressure_grid_parallel_rows_match(files, tmp_path):
    for command, grid in (("pressure", "--beta-grid=-1:1:7"), ("spectrum", "--alpha-grid=0:1:7")):
        serial, parallel = tmp_path / f"{command}-s.csv", tmp_path / f"{command}-p.csv"
        for path, jobs in ((serial, "1"), (parallel, "2")):
            code, _, _ = run_cli(
                command, "--sft", files["full2"], "--g", files["g"],
                grid, "--jobs", jobs, "--out", path,
            )
            assert code == 0
        # Comments embed the config hash (which covers --jobs); the data must agree.
        assert read_csv(serial)[1:] == read_csv(parallel)[1:]


def test_spectrum_single(files, tmp_path):
    outfile = tmp_path / "spec.json"
    code, out, _ = run_cli(
        "spectrum", "--sft", files["full2"], "--g", files["g"], "--alpha", "0.3",
        "--out", outfile,
    )
    assert code == 0
    want = binary_entropy(0.3)
    assert out.strip() == f"{want:.12g}"
    doc = json.loads(outfile.read_text())
    assert abs(doc["entropy"] - want) < 1e-8
    assert abs(doc["beta"] - math.log(3.0 / 7.0)) < 1e-6
    assert abs(doc["witness_mean"] - 0.3) < 1e-8
    assert abs(doc["witness_entropy"] - want) < 1e-8
    assert doc["status"] == "interior"


def test_spectrum_alpha_outside_range(files):
    code, _, err = run_cli(
        "spectrum", "--sft", files["full2"], "--g", files["g"], "--alpha", "1.5"
    )
    assert code == 2
    assert err.startswith("error: outside_range:")


def test_spectrum_grid_keeps_error_rows(files, tmp_path):
    outfile = tmp_path / "sgrid.csv"
    code, _, _ = run_cli(
        "spectrum", "--sft", files["full2"], "--g", files["g"],
        "--alpha-grid", "0:1:3", "--out", outfile,
    )
    assert code == 0
    _, header, rows = read_csv(outfile)
    assert header == ["alpha", "H", "beta", "witness_entropy", "witness_mean", "status"]
    assert len(rows) == 3
    assert rows[0][-1] == "boundary" and rows[0][1] == ""
    assert rows[2][-1] == "boundary" and rows[2][1] == ""
    assert rows[1][-1] == "interior"
    assert abs(float(rows[1][1]) - math.log(2.0)) < 1e-10


def test_spectrum2d_command(files, tmp_path):
    outfile = tmp_path / "s2.json"
    code, out, _ = run_cli(
        "spectrum2d", "--sft", files["full2"], "--g", files["g"], "--h", files["h"],
        "--alpha", "0.5,0.25", "--out", outfile,
    )
    assert code == 0
    assert abs(float(out.strip()) - math.log(2.0)) < 1e-9
    doc = json.loads(outfile.read_text())
    assert abs(doc["witness_mean"][0] - 0.5) < 1e-8
    assert abs(doc["witness_mean"][1] - 0.25) < 1e-8
    assert doc["status"] == "interior"
    assert len(doc["beta"]) == 2


def test_rotation_set_command(files, tmp_path):
    outfile = tmp_path / "rot.json"
    code, out, _ = run_cli(
        "rotation-set", "--sft", files["full2"], "--g", files["g"], "--h", files["h"],
        "--directions", "32", "--out", outfile,
    )
    assert code == 0
    assert out.startswith("rank 2, ")
    doc = json.loads(outfile.read_text())
    assert doc["rank"] == 2
    assert len(doc["hull"]) >= 3
    assert len(doc["directions"]) == 32
    assert doc["words"] and all(isinstance(w, list) for w in doc["words"])


def test_flow_entropy_command(files):
    code, out, _ = run_cli("flow-entropy", "--system", files["system"])
    assert code == 0
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert abs(float(out.strip()) - math.log(phi)) < 1e-8


def test_flow_spectrum_command(files, tmp_path):
    outfile = tmp_path / "fs.json"
    code, out, _ = run_cli(
        "flow-spectrum", "--system", files["system"], "--phi", files["g"],
        "--alpha", "0.25", "--out", outfile,
    )
    assert code == 0
    # ratio p/(1+p) = 1/4 forces p = 1/3 among product measures, which are
    # optimal here because both phi and the roof depend on one symbol.
    want = binary_entropy(1.0 / 3.0) / (4.0 / 3.0)
    doc = json.loads(outfile.read_text())
    assert abs(doc["s"] - want) < 1e-8
    assert abs(doc["witness_ratio"] - 0.25) < 1e-9
    assert abs(doc["witness_flow_entropy"] - doc["s"]) < 1e-9
    assert doc["status"] == "interior"


@pytest.fixture(scope="module")
def pack_file(files):
    out = files["dir"] / "pack.json"
    code, stdout, _ = run_cli(
        "horseshoe", "--sft", files["full2"], "--targets", files["targets"],
        "--eta", "0.5", "--zeta", "0.4", "--n-max", "16", "--seed", "0",
        "--out", out,
    )
    assert code == 0
    assert stdout.strip() == "n=10 anchor=0 sizes=189,91"
    return out


def test_horseshoe_pack_doc(files, pack_file):
    doc = json.loads(pack_file.read_text())
    assert set(doc) == {"pack", "meta"}
    assert doc["pack"]["n"] == 10
    assert doc["meta"]["command"] == "horseshoe"


def test_certify_command(files, pack_file, tmp_path):
    outfile = tmp_path / "cert.json"
    code, out, _ = run_cli(
        "certify", "--pack", pack_file, "--samples", "40", "--seed", "0",
        "--out", outfile,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "certificate: PASS"
    doc = json.loads(outfile.read_text())
    assert doc["report"]["pass"] is True
    assert doc["flow"] is None


def test_certify_with_flow_lift(files, pack_file, tmp_path):
    outfile = tmp_path / "cert_flow.json"
    code, out, _ = run_cli(
        "certify", "--pack", pack_file, "--samples", "40", "--seed", "1",
        "--system", files["system"], "--mixtures", "10", "--out", outfile,
    )
    assert code == 0
    assert "certificate: PASS" in out
    doc = json.loads(outfile.read_text())
    assert doc["flow"]["pass"] is True
    assert doc["flow"]["all_margins_positive"] is True


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--samples", "4", "--seed", "-1"], "seed"),
        (["--samples", "0", "--seed", "0"], "samples"),
        (["--samples", "4", "--seed", "0", "--system", "SYSTEM", "--mixtures", "0"], "mixtures"),
    ],
)
def test_certify_rejects_bad_counts_without_a_traceback(files, pack_file, flags, name):
    argv = ["certify", "--pack", str(pack_file)] + [str(files["system"]) if f == "SYSTEM" else f for f in flags]
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "symflow.cli", *argv], capture_output=True, text=True, env=env)
    assert fresh.returncode == 1 and fresh.stdout == ""
    assert fresh.stderr.startswith(f"error: input: {name} must be"), fresh.stderr
    assert "Traceback" not in fresh.stderr


def test_witness_verify_roundtrip(files, tmp_path):
    req = {
        "kind": "intermediate",
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "alpha": 0.3,
        "c": 0.3,
    }
    reqfile = tmp_path / "req.json"
    reqfile.write_text(json.dumps(req))
    wfile = tmp_path / "w.json"
    code, out, _ = run_cli("witness", "--request", reqfile, "--out", wfile)
    assert code == 0
    lines = out.strip().splitlines()
    assert "pass ergodic" in lines
    assert "pass mean g" in lines
    assert "pass entropy" in lines
    assert "pass full support" in lines

    vfile = tmp_path / "v.json"
    code, out, _ = run_cli("verify", "--measure", wfile, "--out", vfile)
    assert code == 0
    assert json.loads(vfile.read_text())["pass"] is True

    # Swapping in an unrelated measure must fail the mean check on re-verify.
    doc = json.loads(wfile.read_text())
    doc["measure"] = json.loads(files["bern_half"].read_text())
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", "--measure", tampered)
    assert code == 2
    assert err.startswith("error: verify:")
    assert "FAIL mean g" in out


def test_witness_low_entropy_kind(files, tmp_path):
    req = {
        "kind": "low_entropy_mean",
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "alpha": 0.4,
        "h_cap": 0.05,
    }
    reqfile = tmp_path / "req.json"
    reqfile.write_text(json.dumps(req))
    wfile = tmp_path / "w.json"
    code, out, _ = run_cli("witness", "--request", reqfile, "--out", wfile)
    assert code == 0
    assert "pass entropy cap" in out
    doc = json.loads(wfile.read_text())
    assert all(c["pass"] for c in doc["checks"])


def test_witness_birkhoff_2d_kind(files, tmp_path):
    req = {
        "kind": "birkhoff_2d",
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "h": json.loads(files["h"].read_text()),
        "alpha": [0.5, 0.3],
    }
    reqfile = tmp_path / "req.json"
    reqfile.write_text(json.dumps(req))
    wfile = tmp_path / "w.json"
    code, out, _ = run_cli("witness", "--request", reqfile, "--out", wfile)
    assert code == 0
    assert "pass mean g" in out and "pass mean h" in out


def test_witness_request_validation(files, tmp_path):
    base = {
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "alpha": 0.3,
    }
    cases = [
        dict(base, kind="nonsense", c=0.3),
        dict(base, kind="intermediate", c=0.3, bogus=1),
        dict(base, kind="intermediate"),  # missing c
        dict(base, kind="intermediate", c=0.3, zeta=-1.0),
    ]
    for i, req in enumerate(cases):
        reqfile = tmp_path / f"req{i}.json"
        reqfile.write_text(json.dumps(req))
        code, _, err = run_cli(
            "witness", "--request", reqfile, "--out", tmp_path / f"w{i}.json"
        )
        assert code == 1, req
        assert err.startswith("error:")


def test_witness_request_keys_are_named(files, tmp_path):
    base = {
        "kind": "low_entropy_mean",
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "alpha": 0.3,
    }
    cases = [
        (dict(base, h_cap=0.05, c=0.3), "error: input: unknown request keys ['c']"),
        (base, "error: input: missing request keys ['h_cap']"),
    ]
    for i, (req, message) in enumerate(cases):
        reqfile = tmp_path / f"req{i}.json"
        reqfile.write_text(json.dumps(req))
        code, _, err = run_cli("witness", "--request", reqfile, "--out", tmp_path / f"w{i}.json")
        assert code == 1, req
        assert err.strip() == message


def test_lorenz_validate_command(files):
    code, out, _ = run_cli("lorenz-validate", "--model", files["model"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "overall: pass"
    assert all(line.startswith("pass ") for line in lines[:-1])
    assert len(lines) == 13

    # A failing model still reports cleanly and exits 0: validation is the
    # product here, not a guard.
    code, out, _ = run_cli("lorenz-validate", "--model", files["weak_model"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "overall: FAIL"
    fails = [line for line in lines[:-1] if line.startswith("FAIL ")]
    assert len(fails) == 1
    assert "expansion" in fails[0]


def test_lorenz_validate_refuses_a_grid_below_3(files):
    code, out, err = run_cli("lorenz-validate", "--model", files["model"], "--grid", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: input: grid density must be an integer of at least 3"), err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(files, tol):
    code, out, err = run_cli("pressure", "--sft", files["full2"], "--g", files["g"], "--beta", "1", "--tol", tol)
    assert code == 1 and out == ""
    assert err.startswith("error: input: tol must be finite and positive"), err


def test_lorenz_simulate_csv(files, tmp_path):
    outfile = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        "lorenz-simulate", "--model", files["model"], "--x0", "0.3", "--y0", "0.1",
        "--n", "50", "--out", outfile,
    )
    assert code == 0
    assert out.strip() == "51 points halted=false"
    comments, header, rows = read_csv(outfile)
    assert any("halted=false" in c for c in comments)
    assert header == ["step", "x", "y", "s"]
    assert len(rows) == 51
    for row in rows:
        assert -1.0 < float(row[1]) < 1.0
        assert row[3] in ("0", "1")


def test_lorenz_model_with_nan_is_an_input_error(files, tmp_path):
    model = tmp_path / "nan_model.json"
    model.write_text(json.dumps({**json.loads(files["model"].read_text()), "f": {"c": math.nan, "gamma": 0.78}}))
    assert '"c": NaN' in model.read_text()
    for argv in (["lorenz-validate"], ["lorenz-simulate", "--x0", "0.3", "--y0", "0.1", "--n", "10"]):
        code, out, err = run_cli(*argv, "--model", model)
        assert code == 1 and out == ""
        assert err.startswith("error: input: model parameter c "), err


@pytest.mark.parametrize(
    "command, flag, doc, key",
    [
        ("lorenz-validate", "--model", {"f": {"c": 1.9, "gamma": 0.78}, "H": {"a": -0.5, "b": -0.25}}, "'lambda'"),
        ("lorenz-simulate", "--model", [1, 2, 3], "'lambda'"),
        ("flow-entropy", "--system", {"base": {"A": [[1, 1], [1, 1]]}}, "'roof'"),
        ("flow-entropy", "--system", [{"A": [[1, 1], [1, 1]]}], "'roof'"),
    ],
)
def test_documents_missing_a_key_are_input_errors(files, tmp_path, command, flag, doc, key):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, flag, str(path)]
    if command == "lorenz-simulate":
        argv += ["--x0", "0.3", "--y0", "0.1", "--n", "10"]
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "symflow.cli", *argv], capture_output=True, text=True, env=env)
    assert fresh.returncode == 1 and fresh.stdout == ""
    assert fresh.stderr.startswith("error: input: ") and key in fresh.stderr, fresh.stderr
    assert "Traceback" not in fresh.stderr


@pytest.mark.parametrize(
    "part, key",
    [
        ({"f": ["c", "gamma"]}, "'f'"),
        ({"H": 0.5}, "'H'"),
        ({"lambda": 3}, "'lambda'"),
        ({"lambda": {"l1": -3.0, "l2": -1.0, "l3": 2.0}}, "'lambda'"),
    ],
)
def test_model_parts_of_the_wrong_type_are_input_errors(files, tmp_path, part, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**json.loads(files["model"].read_text()), **part}))
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "symflow.cli", "lorenz-validate", "--model", str(path)]
    fresh = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert fresh.returncode == 1 and fresh.stdout == ""
    assert fresh.stderr.startswith("error: input: ") and key in fresh.stderr, fresh.stderr
    assert "Traceback" not in fresh.stderr


_NO_SCIPY_SCRIPT = """
import json, sys
import symflow, symflow.cli
loaded = [sorted(m for m in sys.modules if m.startswith("scipy"))]
for argv in json.loads(sys.argv[1]):
    code = symflow.cli.main(argv)
    assert code == 0, (argv, code)
    loaded.append(sorted(m for m in sys.modules if m.startswith("scipy")))
sys.stdout.write("\\nSCIPY " + json.dumps(loaded) + "\\n")
"""


def test_commands_load_no_scipy(files, tmp_path):
    """A fresh interpreter imports symflow and runs every non-horseshoe command
    without loading any scipy module."""
    requests = {
        "intermediate": {"g": "g", "alpha": 0.3, "c": 0.3},
        "low_entropy_mean": {"g": "g", "alpha": 0.4, "h_cap": 0.05},
        "birkhoff_2d": {"g": "g", "h": "h", "alpha": [0.5, 0.3]},
    }
    calls = []
    for kind, req in requests.items():
        doc = {"kind": kind, "sft": json.loads(files["full2"].read_text())}
        doc.update({k: json.loads(files[v].read_text()) if k in ("g", "h") else v for k, v in req.items()})
        (tmp_path / f"{kind}.json").write_text(json.dumps(doc))
        calls.append(["witness", "--request", tmp_path / f"{kind}.json", "--out", tmp_path / f"w-{kind}.json"])
    sft, g, h = files["full2"], files["g"], files["h"]
    calls += [
        ["verify", "--measure", tmp_path / "w-intermediate.json"],
        ["spectrum", "--sft", sft, "--g", g, "--alpha", "0.3"],
        ["pressure", "--sft", sft, "--g", g, "--beta", "0.5"],
        ["spectrum2d", "--sft", sft, "--g", g, "--h", h, "--alpha", "0.5,0.25"],
        ["rotation-set", "--sft", sft, "--g", g, "--h", h, "--directions", "32", "--out", tmp_path / "rot.json"],
        ["flow-entropy", "--system", files["system"]],
        ["flow-spectrum", "--system", files["system"], "--phi", g, "--alpha", "0.25"],
        ["lorenz-validate", "--model", files["model"]],
        ["lorenz-simulate", "--model", files["model"], "--x0", "0.3", "--y0", "0.1", "--n", "50"],
    ]
    calls = [[str(a) for a in argv] for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(calls)], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.rsplit("SCIPY ", 1)[1])
    assert len(loaded) == len(calls) + 1
    for argv, mods in zip([["import symflow, symflow.cli"]] + calls, loaded):
        assert mods == [], (argv, mods[:5])


_HORSESHOE_SCRIPT = """
import json, sys
from symflow.horseshoe import build_multi_horseshoe, certify_pack
from symflow.measures import InvariantMeasure
from symflow.sft import Sft
def loaded():
    return sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")})
sft = Sft.from_json(json.load(open(sys.argv[1])))
targets = [InvariantMeasure.from_json(sft, d) for d in json.load(open(sys.argv[2]))]
pack = build_multi_horseshoe(sft, targets, eta=0.5, zeta=0.4, n_max=16, seed=0)
after_build = loaded()
certify_pack(pack, samples=10, seed=1)
print(json.dumps([after_build, loaded()]))
"""


def test_horseshoe_tables_load_only_scipy_sparse(files):
    """Building a pack loads no scipy module; certifying it, whose table
    engine is sparse, loads scipy.sparse and still neither optimize nor spatial."""
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _HORSESHOE_SCRIPT, str(files["full2"]), str(files["targets"])],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    after_build, after_certify = json.loads(run.stdout)
    assert after_build == []
    assert "sparse" in after_certify
    assert not {"optimize", "spatial"} & set(after_certify), after_certify


def test_seeded_commands_are_byte_identical(files, tmp_path):
    """Rerunning a seeded command over the same output path reproduces it."""
    torun = []

    pack = tmp_path / "pack.json"
    torun.append((
        pack,
        ["horseshoe", "--sft", files["full2"], "--targets", files["targets"],
         "--eta", "0.5", "--zeta", "0.4", "--n-max", "16", "--seed", "3",
         "--out", pack],
    ))
    orbit = tmp_path / "orbit.csv"
    torun.append((
        orbit,
        ["lorenz-simulate", "--model", files["model"], "--x0", "0.3",
         "--y0", "0.1", "--n", "200", "--out", orbit],
    ))
    spec = tmp_path / "spec.json"
    torun.append((
        spec,
        ["spectrum", "--sft", files["golden"], "--g", files["g"],
         "--alpha", "0.25", "--out", spec],
    ))

    for path, argv in torun:
        code, _, _ = run_cli(*argv)
        assert code == 0
        first = path.read_bytes()
        code, _, _ = run_cli(*argv)
        assert code == 0
        assert path.read_bytes() == first, argv[0]

    cert = tmp_path / "cert.json"
    argv = ["certify", "--pack", pack, "--samples", "25", "--seed", "7",
            "--system", files["system"], "--mixtures", "8", "--out", cert]
    code, _, _ = run_cli(*argv)
    assert code == 0
    first = cert.read_bytes()
    code, _, _ = run_cli(*argv)
    assert cert.read_bytes() == first


def _reference_csv_text(header, rows, comments=()) -> str:
    """The cell-by-cell CSV formatter that ``jsonio.csv_text`` must match byte for byte."""

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            x = float(v)
            if x != x:
                return "NaN"
            if x in (float("inf"), float("-inf")):
                return "Infinity" if x > 0 else "-Infinity"
            return format(x, ".17g")
        return str(v)

    lines = [f"# {c}" for c in comments] + [",".join(str(h) for h in header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_csv_text_matches_cell_by_cell_formatting():
    from symflow.jsonio import csv_text

    floats = np.random.default_rng(0).normal(size=40) * 10.0 ** np.arange(-300, 300, 15)
    nasty = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 0.1, 2.0**53 + 1, 1.7976931348623157e308]
    rows = [(k, float(x), np.float64(-x), k % 3) for k, x in enumerate(list(floats) + nasty)]
    rows += [
        (1, float("nan"), 2.5, 0),
        (2, 1.5, float("inf"), 0),
        (3, float("-inf"), np.float64("nan"), 1),
        (None, True, np.bool_(False), "ok"),
        (np.int64(-7), 10**30, np.float32(0.1), None),
        [4, 0.25, -0.5, 1],
        (),
        (0.5,),
    ]
    header, comments = ["a", "b", "c", "d"], ["symflow test", "halted=false"]
    assert csv_text(header, rows, comments) == _reference_csv_text(header, rows, comments)


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["spectrum", "--sft", "full2", "--g", "bad", "--alpha", "0.3"], float("nan")),
        (["rotation-set", "--sft", "full2", "--g", "bad", "--h", "h"], float("nan")),
        (["pressure", "--sft", "full2", "--g", "bad"], float("inf")),
        (["pressure", "--sft", "full2", "--g", "g", "--beta", "nan"], None),
        (["pressure", "--sft", "full2", "--g", "g", "--beta", "inf"], None),
    ],
)
def test_non_finite_tables_are_input_errors(files, tmp_path, argv, entry):
    # A NaN or infinite table value, read from a file or made by --beta, is
    # refused when the function is built, before any solver sees it.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"memory": 1, "table": {"0": 0.5, "1": entry}}))
    paths = dict(files, bad=bad)
    code, out, err = run_cli(*[paths.get(a, a) for a in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: input:"), err
    assert "Traceback" not in err


def _intermediate_request(files, **extra) -> dict:
    return {
        "kind": "intermediate",
        "sft": json.loads(files["full2"].read_text()),
        "g": json.loads(files["g"].read_text()),
        "alpha": 0.3,
        **extra,
    }


@pytest.mark.parametrize(
    "extra, check, break_it",
    [
        ({"c": 0.75, "u": "u00"}, "entropy plus integral u", {"c": 0.7}),
        ({"c": 0.4, "mu0": "bern_half", "zeta": 0.5}, "d* to mu0", {"zeta": 1e-6}),
    ],
)
def test_witness_verify_checks_u_and_mu0(files, tmp_path, extra, check, break_it):
    # The u and mu0 checks of an intermediate witness pass on the witness
    # command's own output, and fail on re-verify once the request asks more.
    docs = {k: json.loads(files[v].read_text()) for k, v in extra.items() if k in ("u", "mu0")}
    reqfile, wfile = tmp_path / "req.json", tmp_path / "w.json"
    reqfile.write_text(json.dumps(_intermediate_request(files, **{**extra, **docs})))
    code, out, _ = run_cli("witness", "--request", reqfile, "--out", wfile)
    assert code == 0
    assert f"pass {check}" in out.splitlines()
    vfile = tmp_path / "v.json"
    code, out, _ = run_cli("verify", "--measure", wfile, "--out", vfile)
    assert code == 0 and f"pass {check}" in out.splitlines()
    (entry,) = [c for c in json.loads(vfile.read_text())["checks"] if c["check"] == check]
    assert entry["pass"] is True

    doc = json.loads(wfile.read_text())
    doc["request"].update(break_it)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", "--measure", tampered)
    assert code == 2 and err.startswith("error: verify:")
    assert f"FAIL {check}" in out.splitlines()


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
def test_witness_refuses_a_non_finite_level(files, tmp_path, c):
    # json writes these as the NaN, Infinity and -Infinity literals
    reqfile = tmp_path / "req.json"
    reqfile.write_text(json.dumps(_intermediate_request(files, c=c)))
    code, _, err = run_cli("witness", "--request", reqfile, "--out", tmp_path / "w.json")
    assert code == 1 and err.startswith("error: input:"), err


# the witness kind whose request carries each number field
_NUMBER_FIELDS = {
    "alpha": "intermediate",
    "c": "intermediate",
    "tol": "intermediate",
    "tol_mean": "intermediate",
    "zeta": "intermediate",
    "h_cap": "low_entropy_mean",
}


def _full_request(files, kind: str) -> dict:
    req = {"kind": kind, "sft": json.loads(files["full2"].read_text()), "g": json.loads(files["g"].read_text())}
    if kind == "intermediate":
        mu0 = json.loads(files["bern_half"].read_text())
        return dict(req, alpha=0.3, c=0.4, mu0=mu0, zeta=0.5, tol=1e-7, tol_mean=1e-9)
    if kind == "birkhoff_2d":
        return dict(req, h=json.loads(files["h"].read_text()), alpha=[0.5, 0.3], tol=1e-9)
    return dict(req, alpha=0.4, h_cap=0.05, tol=1e-9)


def _witness_argv(files, tmp_path, command: str, req: dict) -> list:
    """argv of ``witness`` on req, or of ``verify`` on a measure file that carries req."""
    if command == "witness":
        path = tmp_path / "req.json"
        path.write_text(json.dumps(req))
        return ["witness", "--request", path, "--out", tmp_path / "w.json"]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"sft": req["sft"], "measure": json.loads(files["bern_half"].read_text()), "request": req}))
    return ["verify", "--measure", path]


@pytest.mark.parametrize("command", ["witness", "verify"])
@pytest.mark.parametrize("bad", ["x", None])
@pytest.mark.parametrize("field", [*_NUMBER_FIELDS, "alpha_pair"])
def test_witness_number_fields_refuse_strings_and_null(files, tmp_path, command, bad, field):
    # witness and verify read a request's number fields through one
    # conversion, which refuses anything but a JSON number.
    if field == "alpha_pair":
        req = _full_request(files, "birkhoff_2d")
        req["alpha"] = [0.5, bad]
    else:
        req = dict(_full_request(files, _NUMBER_FIELDS[field]), **{field: bad})
    code, _, err = run_cli(*_witness_argv(files, tmp_path, command, req))
    assert code == 1 and err.startswith("error: input:"), err


@pytest.mark.parametrize("command", ["witness", "verify"])
def test_mu0_request_without_zeta_is_an_input_error(files, tmp_path, command):
    req = _full_request(files, "intermediate")
    del req["zeta"]
    code, _, err = run_cli(*_witness_argv(files, tmp_path, command, req))
    assert code == 1 and err.strip() == "error: input: mu0 requires a positive zeta", err


@pytest.mark.parametrize("flag, value", [("--eta", "0"), ("--zeta", "nan")])
def test_horseshoe_command_refuses_a_nonpositive_budget(files, tmp_path, flag, value):
    # build_multi_horseshoe is the one check of eta and zeta
    budget = {"--eta": "0.5", "--zeta": "0.4", flag: value}
    code, _, err = run_cli(
        "horseshoe", "--sft", files["full2"], "--targets", files["targets"],
        "--eta", budget["--eta"], "--zeta", budget["--zeta"], "--n-max", "16", "--seed", "0", "--out", tmp_path / "pack.json",
    )
    assert code == 1 and err.startswith("error: input:"), err
    assert not (tmp_path / "pack.json").exists()


# case -> (the part of a system it stands for, a malformed document of that part)
_MALFORMED = {
    "table_value": ("fn", {"memory": 1, "table": {"0": 0.5, "1": "abc"}}),
    "memory": ("fn", {"memory": "x", "table": {"0": 0.5, "1": 0.5}}),
    "table_list": ("fn", {"memory": 1, "table": [0.5, 0.5]}),
    "k": ("sft", {"k": "x", "A": [[1, 1], [1, 1]]}),
    "ragged_A": ("sft", {"A": [[1, 1], [1]]}),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_sft_and_function_documents_are_input_errors(files, tmp_path, case):
    # Each reaches spectrum, flow-entropy and a witness request's sft or g,
    # and entropy when it is the SFT; each is `input`, never a traceback.
    part, bad = _MALFORMED[case]
    sft, g = json.loads(files["full2"].read_text()), json.loads(files["g"].read_text())
    roof = json.loads(files["system"].read_text())["roof"]
    if part == "sft":
        sft = bad
    else:
        g = roof = bad
    docs = {
        "sft": sft,
        "g": g,
        "system": {"base": sft, "roof": roof},
        "req": {"kind": "intermediate", "sft": sft, "g": g, "alpha": 0.3, "c": 0.3},
    }
    path = {}
    for name, doc in docs.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(doc))
    runs = [
        ["spectrum", "--sft", path["sft"], "--g", path["g"], "--alpha", "0.3"],
        ["flow-entropy", "--system", path["system"]],
        ["witness", "--request", path["req"], "--out", tmp_path / "w.json"],
    ] + ([["entropy", "--sft", path["sft"]]] if part == "sft" else [])
    for argv in runs:
        code, out, err = run_cli(*argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: input:"), (argv, err)


def test_a_nan_in_mu0_is_an_input_error(files, tmp_path):
    # The NaN fails mu0's measure validation; it must not reach d* as `zeta: d* = nan`.
    req = _full_request(files, "intermediate")
    req["mu0"]["components"][0]["Q"][0][1] = float("nan")
    code, _, err = run_cli(*_witness_argv(files, tmp_path, "witness", req))
    assert code == 1 and err.startswith("error: input:"), err


def test_witness_and_verify_run_the_checks_once_each(files, tmp_path, monkeypatch):
    # witness: the library call's own run, then one at the CLI's tolerances;
    # verify: one run, on the measure read back from the file.
    runs = count_checks(monkeypatch)
    argv = _witness_argv(files, tmp_path, "witness", _full_request(files, "intermediate"))
    assert run_cli(*argv)[0] == 0
    names = ["ergodic", "mean g", "entropy", "full support", "d* to mu0"]
    assert runs == [names, names]
    runs.clear()
    assert run_cli("verify", "--measure", tmp_path / "w.json")[0] == 0
    assert runs == [names]


@pytest.mark.parametrize(
    "command, point, grid",
    [("spectrum", "--alpha=0.3", "--alpha-grid=0.3:0.3:1"), ("pressure", "--beta=-0.7", "--beta-grid=-0.7:-0.7:1")],
)
def test_a_single_point_writes_its_one_point_grids_row(files, tmp_path, command, point, grid):
    single, table = tmp_path / "point.json", tmp_path / "grid.csv"
    base = [command, "--sft", files["full2"], "--g", files["g"]]
    assert run_cli(*base, point, "--out", single)[0] == 0
    assert run_cli(*base, grid, "--out", table)[0] == 0
    doc = json.loads(single.read_text())
    _, header, (row,) = read_csv(table)
    names = {"H": "entropy", "P": "pressure"}  # the JSON names of the CSV columns
    assert set(doc) - {"meta"} == {names.get(col, col) for col in header}
    for col, cell in zip(header, row):
        want = doc[names.get(col, col)]
        assert cell == want if isinstance(want, str) else float(cell) == want, col


def _fresh_cli(*argv) -> tuple:
    """(exit code, stdout, stderr) of symflow run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(symflow.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "symflow.cli", *map(str, argv)], capture_output=True, text=True, env=env)
    return fresh.returncode, fresh.stdout, fresh.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--sft", "full2", "--g", "g", "--alpha-grid", "x:1:3"],
        ["spectrum", "--sft", "full2", "--g", "g", "--alpha-grid", "0.2:inf:3"],
        ["pressure", "--sft", "full2", "--g", "g", "--beta-grid", "0:1:2.5"],
        ["spectrum2d", "--sft", "full2", "--g", "g", "--h", "h", "--alpha", "a,b"],
        ["rotation-set", "--sft", "full2", "--g", "g", "--h", "h", "--directions", "0"],
        ["rotation-set", "--sft", "full2", "--g", "g", "--h", "h", "--directions", "-5"],
        ["spectrum2d", "--sft", "full2", "--g", "g", "--h", "h", "--alpha", "0.5,0.25", "--directions", "0"],
        ["certify", "--pack", "pack_without_n", "--seed", "0", "--out", "out"],
        ["horseshoe", "--sft", "full2", "--targets", "targets", "--eta", "inf", "--zeta", "0.4",
         "--n-max", "16", "--seed", "0", "--out", "out"],
    ],
)
def test_out_of_domain_flags_and_packs_are_input_errors(files, pack_file, tmp_path, argv):
    # one `error: input:` line, before any numpy warning, and no artifact
    doc = json.loads(pack_file.read_text())
    del doc["pack"]["n"]
    paths = dict(files, pack_without_n=tmp_path / "pack.json", out=tmp_path / "out.json")
    paths["pack_without_n"].write_text(json.dumps(doc))
    code, out, err = _fresh_cli(*[paths.get(a, a) for a in argv])
    assert code == 1 and out == "", err
    assert re.fullmatch(r"error: input: [^\n]*\n", err), err
    assert not paths["out"].exists()


# command -> valid flags of a run; the flag under test comes after them, and
# argparse keeps the last value a flag is given.  Words that name a file of
# the ``files`` fixture, ``pack`` and ``out`` stand for those paths.
_WALK_BASE = {
    "pressure": ["--sft", "full2", "--g", "g"],
    "spectrum": ["--sft", "full2", "--g", "g", "--alpha", "0.3"],
    "spectrum2d": ["--sft", "full2", "--g", "g", "--h", "h", "--alpha", "0.5,0.25", "--directions", "16"],
    "rotation-set": ["--sft", "full2", "--g", "g", "--h", "h", "--directions", "16"],
    "flow-entropy": ["--system", "system"],
    "flow-spectrum": ["--system", "system", "--phi", "g", "--alpha", "0.25"],
    "horseshoe": ["--sft", "full2", "--targets", "targets", "--eta", "0.5", "--zeta", "0.4",
                  "--n-max", "12", "--seed", "0", "--out", "out"],
    "certify": ["--pack", "pack", "--samples", "4", "--seed", "0", "--system", "system", "--mixtures", "2"],
    "lorenz-validate": ["--model", "model", "--grid", "10"],
    "lorenz-simulate": ["--model", "model", "--x0", "0.3", "--y0", "0.1", "--n", "10"],
}
_WALK_VALUES = ["abc", "nan", "inf", "0", "-1", "1.5"]


def _number_flags() -> list:
    """(command, flag, kind) of every flag whose value is a number, a grid or a pair."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = []
    for command, parser in sub.choices.items():
        for action in parser._actions:
            flag = action.option_strings[-1]
            if action.type in (int, float):
                flags.append((command, flag, "number"))
            elif flag.endswith("-grid") or "pair" in (action.help or ""):
                flags.append((command, flag, "grid" if flag.endswith("-grid") else "pair"))
    return flags


def _walk_text(kind: str, value: str) -> list:
    """The flag texts that put value into each place of a valid number, grid or pair."""
    if kind == "grid":
        return [f"{value}:1:3", f"0:{value}:3", f"0:1:{value}"]
    return [f"{value},0.25", f"0.5,{value}"] if kind == "pair" else [value]


def test_every_number_grid_and_pair_flag_fails_cleanly(files, pack_file, tmp_path):
    # Each run exits 0, 1 or 2, and a failed one writes one `error: <name>:`
    # line, with no escaped exception and no warning.  None of the values
    # reads as a --jobs above 1, so no run starts a process pool.
    flags = _number_flags()
    assert {command for command, _, _ in flags} == set(_WALK_BASE)
    paths = dict(files, pack=pack_file, out=tmp_path / "out.json")
    faults = []
    for command, flag, kind in flags:
        for value in _WALK_VALUES:
            for text in _walk_text(kind, value):
                assert not (flag == "--jobs" and text.isdigit() and int(text) > 1)
                argv = [command, *(paths.get(a, a) for a in _WALK_BASE[command]), f"{flag}={text}"]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        code, _, err = run_cli(*argv)
                    except Exception as exc:  # what a fresh process prints as a traceback
                        faults.append((command, flag, text, f"{type(exc).__name__}: {exc}"))
                        continue
                if caught:
                    faults.append((command, flag, text, f"{caught[0].category.__name__}: {caught[0].message}"))
                elif code not in (0, 1, 2) or code and not re.fullmatch(r"error: \w+: [^\n]*\n", err):
                    faults.append((command, flag, text, f"exit {code}: {err!r}"))
    assert not faults, faults


@pytest.mark.parametrize("sign", [-1, 1])
def test_a_level_inside_a_wide_top_band_passes_verify_or_is_refused(files, tmp_path, sign):
    # With u = 200 the top band 1e-7 (1 + |c|) is wider than the level
    # check's 1e-5.  At 0.9 of it below the top end the path reaches c and
    # verify passes the level; above the top end the request is refused.
    full2 = Sft(np.ones((2, 2), dtype=int))
    g = LocallyConstantFunction.indicator(full2, (1,))
    u = 200.0 * LocallyConstantFunction.constant(full2, 1.0)
    top = conditional_entropy_spectrum(full2, g, 0.3).entropy + 200.0
    c = (top + sign * 0.9e-7) / (1.0 - sign * 0.9e-7)
    req = {"kind": "intermediate", "sft": full2.to_json(), "g": g.to_json(), "alpha": 0.3, "c": c, "u": u.to_json()}
    code, _, err = run_cli(*_witness_argv(files, tmp_path, "witness", req))
    if sign > 0:
        assert code == 2 and err.startswith("error: no_convergence:"), err
        return
    assert code == 0, err
    code, out, _ = run_cli("verify", "--measure", tmp_path / "w.json")
    assert code == 0 and "pass entropy plus integral u" in out.splitlines()
