"""Smoke runs of the study scripts with tiny arguments, one subprocess each."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import assortativity_study
import bgmlab

SCRIPTS = Path(__file__).parents[1] / "scripts"

# script: (arguments, a line fragment its output must contain)
CASES = {
    "assortativity_study.py": ("--k 128 --m 128 --rho 0.05 --targets -0.2 0.0 --epsilon 0.05", "target   achieved"),
    "bec_popdyn.py": ("--eps 0.4 --population 2000 --iterations 3", "eps=0.4"),
    "concat_floor.py": ("--trials 4", "concat: "),
    "floor_study.py": ("--k 32 --m 32 --row-weight 3 --sigmas 0.7 --max-frames 20 --workers 0", "0.700 "),
    "waterfall_gain.py": ("--k 256 --rho 0.03 --grid 1.0 3.0 --max-frames 16 --workers 0", "neutral: 1e-3 crossing"),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(script):
    args, expected = CASES[script]
    # the child imports the same bgmlab as this process, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(bgmlab.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args.split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_every_script_is_covered():
    assert sorted(CASES) == sorted(p.name for p in SCRIPTS.glob("*.py"))


def test_assortativity_study_reports_a_target_without_a_graph(monkeypatch, capsys):
    # the one edge of this 2x2 profile joins two degree-1 nodes: assortativity is
    # undefined, so the build fails before it has a best graph
    monkeypatch.setattr(sys, "argv", ["assortativity_study.py", "--k", "2", "--m", "2", "--rho", "0.5", "--targets", "0.3"])
    assortativity_study.main()
    assert "+0.30       none    unreached" in capsys.readouterr().out
