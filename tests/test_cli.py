from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import bernoulli_measure, binary_entropy
import symflow
from symflow.cli import main
from symflow.lorenz import LorenzModel
from symflow.sft import LocallyConstantFunction, Sft
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
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    for path, jobs in ((serial, "1"), (parallel, "2")):
        code, _, _ = run_cli(
            "pressure", "--sft", files["full2"], "--g", files["g"],
            "--beta-grid=-1:1:7", "--jobs", jobs, "--out", path,
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
