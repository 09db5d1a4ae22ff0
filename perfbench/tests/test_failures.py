"""A failing operation in a traced run is counted, and the run still reports."""

import json

import pytest

from perfbench import worker


@pytest.fixture(autouse=True)
def cli_importable(monkeypatch):
    """The worker's CLI subprocesses find liftloss as they do under run.py."""
    monkeypatch.setenv("PYTHONPATH", str(worker.ROOT / "src"))


def result_of(capsys, *argv):
    assert worker.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ready"
    assert lines[-1].startswith("RESULT ")
    return json.loads(lines[-1][len("RESULT "):])


def test_raising_train_counts_as_failed(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(worker, "train", broken)
    result = result_of(capsys, "--workload", "fullbatch_linear_1m", "--seed", "3",
                       "--seconds", "1", "--trace", "1", "--smoke")
    # both traced pairs, and the CSV pipeline's in-process train check
    assert result["failed"] >= 3
    assert sum("injected" in f for f in result["failures"]) >= 3


def test_cli_timeout_counts_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(worker, "CLI_TIMEOUT_S", 1e-3)
    result = result_of(capsys, "--workload", "fullbatch_linear_1m", "--seed", "3",
                       "--seconds", "1", "--trace", "1", "--smoke")
    assert result["failed"] >= worker.STARTUP_PROBES + 1
    assert any("timed out" in f or "-1" in f for f in result["failures"])
