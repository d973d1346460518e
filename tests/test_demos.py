"""Every demo runs to completion, and the separation demos print their
headline verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path):
    # TMPDIR: a per-test temp directory, which a demo must leave empty (the
    # SDPA export demo writes its file there and removes it)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    out = proc.stdout
    if path.stem.startswith("02_"):
        assert "standard hierarchy, n=3:      FEASIBLE" in out
        assert "factorisation hierarchy, n=3: INFEASIBLE" in out
        assert "violated factorisation (linearized) row" in out
    elif path.stem.startswith("03_"):
        assert "verdict: INFEASIBLE" in out
        assert "interlacing bound" in out
        assert "uniform product: FEASIBLE" in out
