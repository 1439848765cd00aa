"""Smoke tests of the scripts under ``scripts/``: each runs end to end at desk scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("consistency_check.py", ["--n", "200", "400", "--replications", "3"],
     ["n", "rmse(mu)", "rmse(init)"]),
])
def test_script_runs(script, args, header, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, RCREG_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == header
