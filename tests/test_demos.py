from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_horseshoe_certificate_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "horseshoe_certificate.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "certificate pass: True" in out
    assert "flow lift pass: True" in out


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos that write artifacts write them here
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert capsys.readouterr().out
