#!/usr/bin/env python3
"""Benchmark liftloss on one workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds liftloss's sources under `src/`. With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a separate traced run. Each
measurement runs in a fresh worker process (``python -m perfbench.worker``),
one process at a time, with BLAS pinned to one thread. `setup_s` is the
median, over several fresh processes after one untimed warm-up process, of
the time from starting the process to its first timed call. A record of the
run, with the environment and every sample, is written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole run, set-up probes included
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to its `ready` line, its RESULT or None)."""
    cmd = [sys.executable, "-m", "perfbench.worker", *argv]
    t0 = time.perf_counter()
    # Own process group, so a worker past the deadline is killed with its CLI child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group, (proc.pid,))
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "ready" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        code = proc.wait()
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv)} exited {code}")
    return ready, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "liftloss" / "__init__.py").is_file():
        return fail(f"no liftloss sources under {ROOT / 'src'}")
    if not bench_file.is_file():
        return fail(f"missing {bench_file}")
    bench = json.loads(bench_file.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / "perfbench" / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    if args.trace:
        argv += ["--spans", str(out_dir / f"{stem}.spans.json")]
    try:
        setup = []
        if not args.trace:
            # The first process of a run also writes bytecode caches; it is not a sample.
            for _ in range(SETUP_SAMPLES):
                setup.append(run_worker(argv + ["--probe"], deadline)[0])
            setup = setup[1:]
        ready, result = run_worker(argv, deadline)
        setup.append(ready)
    except RuntimeError as err:
        return fail(str(err))
    if result is None:
        return fail("worker printed no result")

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    names = [m["name"] for m in wanted]
    correct = result["failed"] == 0
    if correct and sorted(metrics) != sorted(names):
        return fail(f"worker metrics {sorted(metrics)} != BENCHMARK.json {sorted(names)}")
    for name in names:
        # A failed run may lack metrics; they read 0 and the run is not correct.
        if not math.isfinite(metrics.get(name, math.nan)):
            correct = False
            metrics[name] = 0.0

    record = {k: v for k, v in result.items() if k != "metrics"}
    record.update({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "setup_samples_s": setup, "metrics": metrics})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": result["environment"], "workload": result["workload"],
                      "counters": result.get("counters"), "failures": result["failures"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
