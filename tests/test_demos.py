from __future__ import annotations

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_horseshoe_certificate_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "horseshoe_certificate.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "certificate pass: True" in out
    assert "flow lift pass: True" in out
