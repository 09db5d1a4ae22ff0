"""Smoke runs of every documented mode of the scripts in `scripts/`, on small data.

Each script runs as its own process with `src` on `PYTHONPATH`, as the
docstrings show, so a library change that breaks one fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("mode,first_column,n_rows", [
    ([], "bins", 2),  # a row per size
    (["--model", "mlp", "--batch", "500"], "bins", 2),
    (["--io"], "op", 4),  # save and load per size
    (["--memory"], "op", 10),  # 3 ops per size, 1 train (csv) per size, 2 peak RSS lines
])
def test_benchmark_gradient_modes(tmp_path, mode, first_column, n_rows):
    out = run_script("benchmark_gradient.py", *mode, "--sizes", "1000,2000", "--reps", "1",
                     cwd=tmp_path)
    header, *rows = out.splitlines()
    assert header.split()[0] == first_column
    assert len(rows) == n_rows and any(" 2000 " in row for row in rows)
    assert list(tmp_path.iterdir()) == []  # the I/O mode's file goes to a temporary directory


def test_run_descent_demo(tmp_path):
    out = run_script("run_descent_demo.py", "--rows", "2000", "--steps", "3",
                     "--out-dir", str(tmp_path / "demo"), cwd=tmp_path)
    assert out.splitlines()[-1] == f"per-snapshot bin tables written to {tmp_path / 'demo'}/"
    written = sorted(p.name for p in (tmp_path / "demo").iterdir())
    assert written == ["bins_t0.csv", "bins_t1.csv", "bins_t3.csv"]
