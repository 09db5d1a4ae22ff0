"""Smoke runs of every documented mode of the scripts in `scripts/`, on small data.

Each script runs as its own process with `src` on `PYTHONPATH`, as the
docstrings show, so a library change that breaks one fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name: str, *args: str, cwd: Path) -> str:
    done = run(name, *args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_benchmark_gradient_rows(tmp_path):
    out = run_script("benchmark_gradient.py", "--sizes", "1000,2000", "--reps", "1", cwd=tmp_path)
    header, *rows = out.splitlines()
    assert header.split()[0] == "op"
    # per size: generate, effective_gradient, train, train (mlp); then train (csv) and
    # train (mlp, csv) per size, and 2 peak RSS lines
    assert len(rows) == 14 and any(" 2000 " in row for row in rows)
    assert list(tmp_path.iterdir()) == []  # the CSV round trip goes to a temporary directory


def test_benchmark_gradient_skips_a_bin_count_too_large_for_a_size(tmp_path):
    # 100 bins of 1,000 rows leave a bin without an arm; the 2,000-row pair still runs
    out = run_script("benchmark_gradient.py", "--sizes", "1000,2000", "--bins", "2,100",
                     "--reps", "1", cwd=tmp_path)
    rows = [row.split() for row in out.splitlines()[1:]]
    rows = [row[1:] for row in rows if row[0] == "effective_gradient"]  # less the op name
    assert sorted(row[:2] for row in rows) == [["100", "1000"], ["100", "2000"],
                                               ["2", "1000"], ["2", "2000"]]
    skipped = [row[:4] for row in rows if "skipped:" in row]
    assert skipped == [["100", "1000", "skipped:", "EmptyArmInBinError:"]]


@pytest.mark.parametrize("args", [["--model", "mlp"], ["--batch", "500"], ["--io"], ["--memory"]])
def test_benchmark_gradient_deleted_switches_are_unknown(tmp_path, args):
    # deleted: perfbench times the MLP op (minibatch_mlp_1m) and CSV I/O (--trace 1);
    # allocations are the script's only measurement
    done = run("benchmark_gradient.py", *args, cwd=tmp_path)
    assert done.returncode == 2 and "unrecognized arguments" in done.stderr


def test_benchmark_gradient_rejects_zero_reps(tmp_path):
    done = run("benchmark_gradient.py", "--reps", "0", cwd=tmp_path)
    assert done.returncode == 2 and "--reps must be at least 1" in done.stderr


def test_readme_flags_are_the_scripts_flags(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scripts", 1)[1].split("```")[1].replace("\\\n", " ")
    documented = {}
    for line in filter(None, block.splitlines()):
        script = re.search(r"scripts/(\S+\.py)", line).group(1)
        documented.setdefault(script, set()).update(re.findall(r"--[a-z][\w-]*", line))
    assert set(documented) == {p.name for p in (ROOT / "scripts").glob("*.py")}
    for script, flags in documented.items():
        help_flags = set(re.findall(r"--[a-z][\w-]*", run_script(script, "--help", cwd=tmp_path)))
        assert flags <= help_flags, script


def test_run_descent_demo(tmp_path):
    out = run_script("run_descent_demo.py", "--rows", "2000", "--steps", "3",
                     "--out-dir", str(tmp_path / "demo"), cwd=tmp_path)
    assert out.splitlines()[-1] == f"per-snapshot bin tables written to {tmp_path / 'demo'}/"
    written = sorted(p.name for p in (tmp_path / "demo").iterdir())
    assert written == ["bins_t0.csv", "bins_t1.csv", "bins_t3.csv"]


def test_run_descent_demo_zero_steps(tmp_path):
    run_script("run_descent_demo.py", "--rows", "2000", "--steps", "0",
               "--out-dir", str(tmp_path / "demo"), cwd=tmp_path)
    assert [p.name for p in (tmp_path / "demo").iterdir()] == ["bins_t0.csv"]
