"""Smoke runs of the example scripts: each exits 0 and writes its files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, written",
    [
        ("ground_state_profile.py", ["--out", "profile.csv"], ["profile.csv"]),
        (
            "phase_portrait_data.py",
            ["--lambda", "0.5", "2.0", "--out", "portrait"],
            ["portrait_separatrix.csv", "portrait_lambda0.5.csv", "portrait_lambda2.csv"],
        ),
        ("epsilon_convergence.py", ["--epsilon", "0.2", "0.1"], []),
    ],
)
def test_script_runs(tmp_path, script, args, written):
    # the scripts run from any directory, so put src on the path absolutely
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for name in written:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] in ("r,u,v,H", "piece,u,v") and len(lines) > 1
