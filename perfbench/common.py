"""Shared pieces: paths, the pinned environment, statistics, memory."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch output (server logs, span dumps) inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("plan_suite", "http_mixed", "qml_cardinality")
#: Workloads that run on one thread inside the workload process.
SINGLE_THREAD = ("plan_suite", "qml_cardinality")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: Library thread pools pinned for every process the benchmark starts:
#: numpy's OpenBLAS would otherwise start one thread per core and the
#: in-process workloads are single-threaded by design.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Switches that would change what the program does under test; the
#: benchmark measures the library defaults (and the server as shipped).
CLEARED_ENV = ("REPRO_TELEMETRY", "REPRO_METRICS", "REPRO_CONTEXT",
               "REPRO_TRACE_DIR", "REPRO_PROFILE", "REPRO_FLIGHT",
               "REPRO_FLIGHT_DIR")


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def program_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in CLEARED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def pin_to_last_cpu() -> None:
    """Keep this process on the highest-numbered CPU it may use.

    On a small VM the CPUs are not equally fast (CPU 0 takes most
    device interrupts; a fixed loop ran 10-20% slower there at times),
    and a single-threaded run otherwise lands on either one, which
    splits runs into a fast and a slow group.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def require_program() -> None:
    """Exit non-zero unless the program's source is in this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        raise SystemExit(2)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geometric_mean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_self_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of a process, from ``/proc/*/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic()
