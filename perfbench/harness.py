"""The timed loop shared by every workload.

A workload hands the loop one fixed list of operations per closed-loop
user.  Each user runs its list in order, round after round, and stops
only at a round boundary, so every run holds whole rounds of the same
operations and the instance mix never depends on where the clock ran
out.  A user stops at the boundary nearest to ``seconds`` (it starts
another round only while more than half a round's time is left), but
never before at least ``min_ops`` operations finished, so the 90th
percentile always has ten samples beyond it.

The machine's speed drifts: on a small shared VM a fixed loop's rate
moved between 55 and 93 iterations per second from one second to the
next, at full CPU time.  So
the loop times a fixed calibration workload (``calibrate``) at points
where no operation is running: before every operation of a single
user, and at the barrier that starts every round of several users.
Each operation's latency is scaled by the reference speed over the
speed of the two calibrations around it (``Result.scale``), and the
phase's wall time, without the calibrations, is scaled the same way
interval by interval (``Phase.scaled_elapsed``).  Scaled times read as
seconds on a machine where ``calibrate`` takes ``CALIBRATION_S``.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from tracing import RECORDER

MIN_OPS = 100
#: Nominal duration of ``calibrate`` at the reference speed (its median
#: on a two-vCPU 2.1 GHz Xeon VM); scaled times are relative to it.
CALIBRATION_S = 0.006
#: Steps of ``calibrate``: small numpy updates in a Python loop, like
#: the annealing sweeps and the statevector gates.
CALIBRATION_STEPS = 2000
#: Seeds ``sized`` tries before giving up.
SIZED_ATTEMPTS = 1000


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit input seed for one named input of a workload seed."""
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sized(formulation: str, variables: int, make: Callable[[int], Any],
          seed: int) -> Any:
    """The first of ``make(seed)``, ``make(seed + 1)``, ... whose QUBO
    under ``formulation`` has ``variables`` variables.

    Some generators give instances whose QUBO size depends on the seed
    (the slots of a transaction schedule follow its greedy colouring,
    the slack bits of index selection its budget), and kernel time
    follows QUBO size; fixing it keeps every workload seed's work alike.
    """
    from repro.pipeline.formulations import get_formulation

    strategy = get_formulation(formulation)
    for attempt in range(SIZED_ATTEMPTS):
        instance = make(seed + attempt)
        if strategy.num_variables(instance) == variables:
            return instance
    raise RuntimeError(f"no {formulation} instance with {variables} "
                       f"variables from seed {seed}")


def calibrate() -> Tuple[float, float]:
    """Run the fixed calibration workload; returns (start, end)."""
    values = np.linspace(0.0, 1.0, 32)
    total = 0.0
    start = time.perf_counter()
    for step in range(CALIBRATION_STEPS):
        values = np.minimum(values * 1.0001 + 0.001, 3.0)
        total += float(values[step & 31]) * 0.5
    return start, time.perf_counter()


@dataclass
class Op:
    """One operation: ``run(round_index)`` returns the output to check.

    ``key`` names the distinct computation; rounds repeat keys, and
    ``kind`` groups operations for the mix signature.
    """

    kind: str
    key: Any
    run: Callable[[int], Any]


@dataclass
class Result:
    user: int
    round: int
    position: int
    op: Op
    latency: float
    output: Any = None
    error: Optional[BaseException] = None
    failures: List[str] = field(default_factory=list)
    #: ``time.perf_counter()`` when the operation started.
    began: float = 0.0
    #: Reference speed over the machine's speed around the operation.
    scale: float = 1.0

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.scale


@dataclass
class Phase:
    """What ``timed_phase`` measured besides the results."""

    #: Wall time of the phase, calibrations included.
    elapsed: float
    #: Wall time without the calibrations, scaled to the reference speed.
    scaled_elapsed: float


def speed_scale(before: Tuple[float, float],
                after: Tuple[float, float]) -> float:
    """Reference speed over the machine's speed between two
    calibrations: their nominal time over their mean measured time."""
    return CALIBRATION_S * 2.0 / ((before[1] - before[0])
                                  + (after[1] - after[0]))


def _apply_scales(results: Sequence[Result],
                  marks: Sequence[Tuple[float, float]]) -> float:
    """Set each result's scale from the calibrations just before and
    after it; return the scaled time between the first and the last
    calibration, without the calibrations themselves."""
    marks = sorted(marks)
    scales = [speed_scale(a, b) for a, b in zip(marks, marks[1:])]
    ends = [end for _start, end in marks]
    for result in results:
        # The interval whose opening calibration ended last before it.
        interval = max(0, min(bisect.bisect_right(ends, result.began) - 1,
                              len(scales) - 1))
        result.scale = scales[interval]
    return sum((b_start - a_end) * scale
               for ((_a_start, a_end), (b_start, _b_end)), scale
               in zip(zip(marks, marks[1:]), scales))


def timed_phase(users: Sequence[Sequence[Op]], seconds: float,
                min_ops: int = MIN_OPS, first_round: int = 0,
                traced: Optional[Callable[[int, int], bool]] = None
                ) -> Tuple[List[Result], Phase]:
    """Run every user's operation list in whole rounds, numbered from
    ``first_round``; returns the results and the phase's wall times.

    Several users meet at a barrier before each round, so they run the
    same rounds and the calibration between rounds runs while no
    request is out.  ``traced(round, position)``, when given, switches
    span recording on or off before each operation.
    """
    results: List[Result] = []
    marks: List[Tuple[float, float]] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    single = len(users) == 1
    state = {"round": first_round - 1, "stop": False, "round_start": start}

    def round_boundary() -> None:
        """Once before each round, with no operation running."""
        state["round"] += 1
        now = time.perf_counter()
        state["stop"] = (state["round"] > first_round
                         and len(results) >= min_ops
                         and deadline - now < (now - state["round_start"]) / 2)
        state["round_start"] = now
        if not single or state["stop"]:
            marks.append(calibrate())

    barrier = None if single else threading.Barrier(len(users),
                                                    round_boundary)

    def user_loop(user: int, ops: Sequence[Op]) -> None:
        while True:
            if barrier is None:
                round_boundary()
            else:
                barrier.wait()
            if state["stop"]:
                return
            round_index = state["round"]
            for position, op in enumerate(ops):
                if single:
                    marks.append(calibrate())
                RECORDER.set_op((user, round_index, position))
                if traced is not None:
                    RECORDER.enabled = traced(round_index, position)
                began = time.perf_counter()
                output, error = None, None
                try:
                    output = op.run(round_index)
                except Exception as exc:  # noqa: BLE001 — counted failed
                    error = exc
                latency = time.perf_counter() - began
                with lock:
                    results.append(Result(user, round_index, position, op,
                                          latency, output, error,
                                          began=began))
            RECORDER.set_op(None)

    if single:
        user_loop(0, users[0])
    else:
        threads = [threading.Thread(target=user_loop, args=(index, ops),
                                    name=f"perfbench-user-{index}")
                   for index, ops in enumerate(users)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    elapsed = time.perf_counter() - start
    return results, Phase(elapsed, _apply_scales(results, marks))


def signature(users: Sequence[Sequence[Op]]) -> List[List[str]]:
    """The operation mix: kinds in order, per user."""
    return [[op.kind for op in ops] for ops in users]


def unattributed(results: Sequence[Result]) -> float:
    """Operation wall time not covered by a top-level span."""
    covered = sum(RECORDER.top_level.get((r.user, r.round, r.position),
                                         0.0) for r in results)
    return sum(r.latency for r in results) - covered
