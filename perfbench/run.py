"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload plan_suite --seed 0 \\
        --seconds 20 --trace 0

Runs from the root of a checkout of the repository and measures the
program under ``src/``.  Every process it starts gets the pinned
environment of ``common.PINNED_ENV``.  With ``--trace 0`` it prints the
end-to-end metrics; set-up time is the median of several fresh
processes set up from scratch (``SETUP_SAMPLES``), each scaled to the
reference machine speed like every other time (see ``harness``).  With
``--trace 1`` it prints the per-layer metrics of a traced run.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  The
last stdout line is always the JSON result; anything wrong exits
non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

import common

#: Fresh processes timed for set-up, the measured run's own included.
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0
REAP_TIMEOUT = 10.0



def run_child(workload: str, seed: int, seconds: float, mode: str
              ) -> Dict[str, object]:
    """Start one child process and return its JSON plus its set-up
    time: from process start to ready for the first timed operation."""
    command = [sys.executable, os.path.join(common.BENCH_DIR, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode]
    started = common.now()
    # A session of its own, so a timeout can stop the child together
    # with any server and worker processes it started.
    child = subprocess.Popen(command, cwd=common.ROOT,
                             env=common.program_env(),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{mode} process for {workload} timed out")
    finally:
        _reap_group(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"{mode} process for {workload} exited with "
                           f"{child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} process for {workload} printed "
                           f"nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = ((out["ready"] - started - out["setup_calibration_s"])
                      * out["setup_scale"])
    return out


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait until
    the group is gone (orphaned workers are reaped by init)."""
    deadline = common.now() + REAP_TIMEOUT
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        if common.now() > deadline:
            raise RuntimeError(f"process group {pgid} did not end")
        time.sleep(0.01)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()
    spec = common.benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.trace:
        out = run_child(args.workload, args.seed, args.seconds, "trace")
        metrics = {m["name"]: {"value": out["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        setups = [run_child(args.workload, args.seed, args.seconds,
                            "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        out = run_child(args.workload, args.seed, args.seconds, "run")
        setups.append(out["setup_s"])
        out["setup_s"] = common.median(setups)
        metrics = {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in out.get("examples", []):
        sys.stderr.write(f"perfbench: failed operation: {line}\n")
    for line in out.get("problems", []):
        sys.stderr.write(f"perfbench: {line}\n")
    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RuntimeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        raise SystemExit(1)
