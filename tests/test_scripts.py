"""Smoke test: every script in scripts/ runs at its smallest size.

Nothing else runs the scripts, so a renamed or removed library function
would otherwise break one unnoticed.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

SMALLEST = {
    "dynamics_profile.py": ["-n", "4", "-m", "1", "--trials", "1000"],
    "method_comparison.py": ["--max-n", "8"],
    "optimal_size_scan.py": ["--min-n", "2", "--max-n", "8"],
    "simulation_accuracy.py": ["--max-n", "4", "--trials", "1000"],
    "single_mafia_convergence.py": ["--max-n", "8"],
}


def test_every_script_has_a_smallest_size():
    assert {path.name for path in SCRIPTS.glob("*.py")} == set(SMALLEST)


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs(script, monkeypatch, capsys):
    # in-process, as ``python scripts/<script> ...`` would run it, so the
    # suite pays no interpreter start-up; a failing script raises here
    monkeypatch.setattr(sys, "argv", [script, *SMALLEST[script]])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.strip()
    assert captured.err == ""
