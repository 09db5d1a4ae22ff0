"""README.md is the user's contract: its examples run, and every name and path it cites exists."""

import importlib
import importlib.util
import math
import re
import shlex
from pathlib import Path

import pytest

import liftloss
from liftloss.cli import main

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# backticked spans of running text, which may wrap; fenced blocks are the examples, run below
INLINE = [" ".join(span.split()) for span in
          re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))]


def test_quick_tour_runs():
    block = README.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```")[0]
    namespace = {}
    exec(compile(block, "README quick tour", "exec"), namespace)
    assert math.isfinite(namespace["trace"].entries[-1].loss)


def test_cli_block_runs(tmp_path, monkeypatch):
    block = README.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert [c[0] for c in commands] == ["liftloss"] * 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def resolve(dotted: str):
    """The object `dotted` names, or None when its first part is not liftloss's."""
    head, *attrs = dotted.split(".")
    if head == "liftloss":
        obj = liftloss
    elif importlib.util.find_spec(f"liftloss.{head}") is not None:
        obj = importlib.import_module(f"liftloss.{head}")
    elif head in vars(liftloss):
        obj = getattr(liftloss, head)
    else:
        return None
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_cited_names_resolve():
    dotted = {s for s in INLINE if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)}
    cited = {"gradient.MIGRATION_STEP_SCALE", "GradConfig.rebin_every", "dataset.ABDataset"}
    assert cited <= dotted
    assert resolve("run.params.json") is None  # a file name, not a liftloss name
    with pytest.raises(AttributeError):
        resolve("GradConfig.migration_step_scale")  # a deleted setting
    missing = []
    for name in sorted(dotted):
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_cited_paths_exist():
    paths = {s for s in INLINE if re.match(r"(tests|scripts|perfbench|src)/", s)}
    assert "tests/test_memory.py" in paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
