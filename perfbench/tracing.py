"""Span recording around the program's public functions.

The benchmark never adds tracing inside ``src/``.  Instead the
``install_*`` functions replace selected public functions and methods with
wrappers that record one span per call: name, start, end, parent span
and the operation id the benchmark set when the call began.  Spans are
kept in memory; :meth:`Recorder.dump` writes them out as JSON lines.

A layer's *self time* is its span's duration minus the time its child
spans cover, so nested layers (pipeline -> dispatch -> kernel) are not
counted twice.  Self time per span name is accumulated as spans close.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: List[Tuple[str, float, float, int, Any]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Sum of durations of spans that had no parent, per op id.
        self.top_level: Dict[Any, float] = defaultdict(float)
        #: Wrappers pass straight through while this is false.
        self.enabled = True
        #: Optional per-span sink (worker processes append to a file).
        self.sink: Optional[Callable[[str, float, float], None]] = None

    # -- stack per thread --------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id: Any) -> None:
        """Tag spans this thread opens from now on with ``op_id``."""
        self._local.op = op_id

    def begin(self, name: str) -> None:
        # [name, start, child_time, span index]
        self._stack().append([name, _clock(), 0.0, len(self.spans)])

    def end(self) -> float:
        stop = _clock()
        stack = self._stack()
        name, start, child, _index = stack.pop()
        duration = stop - start
        parent = stack[-1][3] if stack else -1
        op_id = getattr(self._local, "op", None)
        self.spans.append((name, start, stop, parent, op_id))
        self.self_time[name] += duration - child
        self.total_time[name] += duration
        if stack:
            stack[-1][2] += duration
        else:
            self.top_level[op_id] += duration
        if self.sink is not None:
            self.sink(name, duration, duration - child)
        return duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Self time, total time and counts, as plain dicts."""
        return {"self_time": dict(self.self_time),
                "total_time": dict(self.total_time),
                "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, stop, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": stop,
                    "parent": parent, "op": op_id,
                }) + "\n")


RECORDER = Recorder()


def _span_wrapper(function: Callable, name: str,
                  after: Optional[Callable] = None) -> Callable:
    recorder = RECORDER

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        recorder.begin(name)
        try:
            result = function(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
        finally:
            recorder.end()
        return result

    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", name)
    return wrapper


def _count_wrapper(function: Callable, name: str) -> Callable:
    recorder = RECORDER

    def wrapper(*args, **kwargs):
        if recorder.enabled:
            recorder.counts[name] += 1
        return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


def wrap_method(cls: type, attribute: str, name: str,
                after: Optional[Callable] = None) -> None:
    """Wrap ``cls.attribute`` (looked up through the MRO) on ``cls``."""
    function = getattr(cls, attribute)
    setattr(cls, attribute, _span_wrapper(function, name, after))


def count_method(cls: type, attribute: str, name: str) -> None:
    setattr(cls, attribute, _count_wrapper(getattr(cls, attribute), name))


def wrap_function(function: Callable, name: str,
                  after: Optional[Callable] = None) -> None:
    """Replace every module-level binding of ``function`` under
    ``repro`` (callers import public functions by name)."""
    wrapper = _span_wrapper(function, name, after)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                setattr(module, attribute, wrapper)


# ----------------------------------------------------------------------
# Layer wrappers.  Each installer wraps one layer's public calls.
# ----------------------------------------------------------------------
def _spin_count(kind: str):
    """Count spin updates of one annealing solve from the solver's own
    settings: sweeps x reads x spins (x Trotter slices / replicas);
    tabu counts flip moves x restarts."""

    def after(args, kwargs, result) -> None:
        solver, model = args[0], args[1]
        spins = getattr(model, "num_variables", None)
        if spins is None:
            spins = model.num_spins
        if kind == "tabu":
            updates = solver.max_iterations * solver.num_restarts
        else:
            updates = solver.num_sweeps * solver.num_reads * spins
            if kind == "sqa":
                updates *= solver.num_slices
            elif kind == "pt":
                updates *= solver.num_replicas
        RECORDER.count("annealing.spin_updates", updates)

    return after


def install_annealing() -> None:
    from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
    from repro.annealing.sqa import SimulatedQuantumAnnealingSolver
    from repro.annealing.tabu import TabuSearchSolver
    from repro.annealing.tempering import ParallelTemperingSolver

    for cls, kind in ((SimulatedAnnealingSolver, "sa"),
                      (SimulatedQuantumAnnealingSolver, "sqa"),
                      (ParallelTemperingSolver, "pt"),
                      (TabuSearchSolver, "tabu")):
        wrap_method(cls, "solve", f"annealing.{kind}", _spin_count(kind))


def install_pipeline(assemble_name: str = "compile.decode") -> None:
    """db formulation/assembly hooks, dispatch and the pipeline driver.

    ``assemble_name`` names the span for the decode / best-pick /
    result-assembly helpers: in-process they belong to dispatch, in the
    server they are the parent-side half of building the result.
    """
    from repro.compile import dispatch
    from repro.pipeline import OptimizationPipeline
    from repro.pipeline.formulations import available_formulations, \
        get_formulation
    from repro.pipeline.stages import FormulationStrategy

    wrap_method(FormulationStrategy, "finalize", "db.assemble")
    wrap_method(FormulationStrategy, "annotate", "db.assemble")
    for formulation in available_formulations():
        cls = type(get_formulation(formulation))
        wrap_method(cls, "compile", "db.formulate")
        for hook in ("finalize", "annotate"):
            if hook in vars(cls):
                wrap_method(cls, hook, "db.assemble")
    wrap_function(dispatch.solve, "compile.dispatch")
    for helper in (dispatch.decode_samples, dispatch.select_best_solution,
                   dispatch.assemble_result):
        wrap_function(helper, assemble_name)
    wrap_method(OptimizationPipeline, "optimize", "pipeline")


def install_telemetry_counts() -> None:
    from repro.telemetry import metrics

    for cls, methods in ((metrics.CounterSeries, ("inc",)),
                         (metrics.GaugeSeries,
                          ("set", "inc", "dec", "set_max")),
                         (metrics.HistogramSeries, ("observe",))):
        for method in methods:
            count_method(cls, method, "telemetry.metric_updates")


def _circuit_work(args, kwargs, result) -> None:
    """Circuits simulated and amplitude bytes touched (gates x 2^n x
    16 B per circuit) for ``run`` / ``run_batch``."""
    circuits = args[1]
    if not isinstance(circuits, (list, tuple)):
        circuits = [circuits]
    amplitude_bytes = 0
    for circuit in circuits:
        amplitude_bytes += len(circuit) * (2 ** circuit.num_qubits) * 16
    RECORDER.count("quantum.circuits", len(circuits))
    RECORDER.count("quantum.amplitude_bytes", amplitude_bytes)


def install_quantum() -> None:
    from repro.baselines.svm import SVM
    from repro.qml import encoding, gradients
    from repro.qml.kernels import FidelityQuantumKernel
    from repro.quantum.circuit import Circuit
    from repro.quantum.statevector import StatevectorSimulator

    wrap_method(StatevectorSimulator, "run_batch", "quantum.run_batch",
                _circuit_work)
    wrap_method(StatevectorSimulator, "run", "quantum.run", _circuit_work)
    wrap_method(StatevectorSimulator, "expectation", "quantum.run")
    wrap_function(gradients.parameter_shift_gradient, "qml.gradient")
    wrap_method(Circuit, "bind", "qml.circuit_build")
    wrap_method(Circuit, "compose", "qml.circuit_build")
    for cls in (encoding.AngleEncoding, encoding.IQPEncoding,
                encoding.BasisEncoding, encoding.AmplitudeEncoding):
        wrap_method(cls, "circuit", "qml.circuit_build")
    wrap_method(FidelityQuantumKernel, "__call__", "qml.kernel_gram")
    wrap_method(SVM, "fit", "baselines.svm_fit")


def install_server() -> None:
    """Front-door handlers, service pool/cache and the result document
    builder inside a ``serve`` process.  Queue wait and cache hits are
    read from the server's own ``/metrics`` instead."""
    from repro.db.workloads import generate_join_workload
    from repro.server import admission, payloads
    from repro.service import cache, pool, service

    for function in (payloads.parse_submission, payloads.idempotency_key,
                     generate_join_workload):
        wrap_function(function, "server.handler")
    wrap_method(admission.AdmissionController, "admit", "server.handler")
    wrap_function(payloads.result_document, "server.result_document")

    wrap_method(service.SolveService, "submit", "service.submit")
    wrap_method(pool.WarmWorkerPool, "execute", "service.pool_roundtrip")
    wrap_method(pool.SharedModelStore, "publish", "service.shm_publish")
    for cls in (cache.ResultCache, cache.ShardedResultCache):
        for method in ("get", "peek"):
            wrap_method(cls, method, "service.cache_get")


class WorkerSink:
    """Per-span sink for forked worker processes: appends each span's
    (name, duration, self time) and the spin-update count to a file
    named after the worker's pid, read back by the client."""

    def __init__(self, directory: str, parent_pid: int) -> None:
        self.directory = directory
        self.parent_pid = parent_pid

    def __call__(self, name: str, duration: float, self_time: float
                 ) -> None:
        pid = os.getpid()
        if pid == self.parent_pid:
            return
        spins = RECORDER.counts.pop("annealing.spin_updates", 0.0)
        path = os.path.join(self.directory, f"worker-{pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([name, duration, self_time, spins])
                         + "\n")
