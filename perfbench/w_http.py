"""``http_mixed``: the ``serve`` front end under a mixed job load.

A ``serve`` subprocess runs as it ships (process warm pool, metrics and
trace context on, the shipped result cache), with one worker per core
and tenant quotas high enough that admission never refuses a request
while its code still runs.  One client process drives it with two
closed-loop users, one keep-alive connection each.  On cache hits and
workload POSTs the front door does most of the work (HTTP parse,
admission, queue, shared-memory ship, pool round trip, cache, result
documents, telemetry), and fresh solves run beside cache-hit reads, so
a gain for one kind of request that costs the other shows.

One round per user (17 operations, the same list for every seed):

* for each of the five formulations, a fresh raw-problem submission
  (the compiled QUBO or Ising terms as JSON, a config seed new to the
  round), then a tagged resubmission of the same body (a result-cache
  hit that never reaches a kernel); for two of them, then a status GET
  of the first job;
* four fresh pipeline-workload submissions that index a 160-query
  JOB-style suite, with an explicit seeded config: each slot keeps one
  (topology, size) cell of 6- and 7-relation cycles and cliques, in a
  suite whose seed is new to the round;
* one fresh raw submission with convergence rows, followed over the
  SSE stream on the same connection.

The shares are set so that the percentiles fall inside a group of
similar requests rather than at the edge between two.  Measured
(10th-90th percentile, two-core 2.1 GHz Xeon VM): status GETs and
cache hits, the fastest 7 of 17, take 0.3-16 ms, fresh raw solves
15-65 ms and workload submissions 50-100 ms, so the median lands among
the fresh solves and the 90th percentile among the workload
submissions.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import checks
import common
import tracing
from harness import Op, Result, derive_seed, sized
from w_plan import INDEXSEL_VARIABLES, TXSCHED_VARIABLES

USERS = 2
WORKLOAD_SPEC = {"topologies": ["cycle", "clique", "chain", "star"],
                 "sizes": [4, 5, 6, 7], "instances_per_cell": 10}
#: (topology, size) cell of each user's workload submissions.
WORKLOAD_CELLS = ((("cycle", 6), ("clique", 7), ("clique", 6),
                   ("cycle", 7)),
                  (("clique", 6), ("cycle", 7), ("cycle", 6),
                   ("clique", 7)))
#: Fresh raw jobs whose status is read back with a GET.
STATUS_FORMULATIONS = ("joinorder", "txsched")
RAW_CONFIG = {"num_sweeps": 50, "num_reads": 4}
WORKLOAD_CONFIG = {"num_sweeps": 50, "num_reads": 5}
FORMULATIONS = ("joinorder", "mqo", "indexsel", "txsched", "partitioning")
#: Fresh config seeds per (round, user, slot): seeds never repeat, so
#: every fresh submission misses the result cache.
SLOTS = 32
#: Processes that recompute the reference answers after the timed phase.
CHECK_PROCESSES = 2
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0


def config_seed(round_index: int, user: int, slot: int) -> int:
    return ((round_index + 1) * USERS + user) * SLOTS + slot


def _instances(seed: int, user: int) -> Dict[str, Any]:
    from repro.db.indexsel import IndexSelectionProblem
    from repro.db.mqo import MQOProblem
    from repro.db.partitioning import PartitioningProblem
    from repro.db.txsched import TransactionSchedulingProblem
    from repro.db.workloads import random_join_graph

    def s(label: str) -> int:
        return derive_seed(seed, f"http/u{user}/{label}")

    return {
        "joinorder": random_join_graph(6, "clique", seed=s("join")),
        "mqo": MQOProblem.random(6, 3, seed=s("mqo")),
        "indexsel": sized(
            "indexsel", INDEXSEL_VARIABLES,
            lambda k: IndexSelectionProblem.random(12, seed=k), s("idx")),
        "txsched": sized(
            "txsched", TXSCHED_VARIABLES,
            lambda k: TransactionSchedulingProblem.random(8, seed=k),
            s("tx")),
        "partitioning": PartitioningProblem.random(16, seed=s("part")),
        "stream": MQOProblem.random(6, 3, seed=s("stream")),
    }


class Connection:
    """One keep-alive HTTP/1.1 connection; reopened after an SSE
    stream, which the server closes when it ends."""

    def __init__(self, port: int):
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def _open(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Tuple[int, Any]:
        payload = None if body is None else json.dumps(body).encode()
        conn = self._open()
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw)

    def stream(self, path: str, traced: bool) -> Tuple[List[str], Any]:
        """SSE event names in order, plus the ``result`` event's data."""
        conn = self._open()
        recorder = tracing.RECORDER
        if traced:
            recorder.begin("server.stream_first_row")
        first_row = False
        conn.request("GET", path)
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"stream answered {response.status}")
        events: List[str] = []
        result = None
        name = ""
        try:
            while True:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("event: "):
                    name = text[7:]
                elif text.startswith("data: ") and name:
                    events.append(name)
                    if name == "result":
                        result = json.loads(text[6:])
                    if traced and name == "convergence" and not first_row:
                        first_row = True
                        recorder.end()
                        recorder.begin("server.stream_tail")
                    if name == "done":
                        break
        finally:
            if traced:
                recorder.end()
            self.close()
        return events, result


class HttpMixed:
    name = "http_mixed"
    interleaved_tracing = False

    def __init__(self, seed: int):
        from repro.pipeline.formulations import get_formulation
        from repro.server import problem_payload

        self.seed = seed
        self.workers = min(2, os.cpu_count() or 1)
        self.inputs = [_instances(seed, user) for user in range(USERS)]
        self.payloads: List[Dict[str, dict]] = []
        #: QUBO variables of each user's raw problems, for the mix.
        self.variables: List[Dict[str, int]] = []
        for instances in self.inputs:
            payloads, variables = {}, {}
            for form in FORMULATIONS + ("stream",):
                strategy = get_formulation(
                    "mqo" if form == "stream" else form)
                payloads[form] = problem_payload(
                    strategy.compile(instances[form]))
                variables[form] = strategy.num_variables(instances[form])
            self.payloads.append(payloads)
            self.variables.append(variables)
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.traced = False
        self.connections: List[Connection] = []
        self._worker_pids: List[int] = []
        self._log_path = ""
        self._stats: Dict[str, Dict[str, float]] = {}
        self._metrics_before: Dict[str, float] = {}
        #: Documents of this round's fresh jobs, for tagged repeats.
        self._fresh: Dict[Tuple[int, int, str], Tuple[str, dict]] = {}
        self._users = [self._user_ops(user) for user in range(USERS)]

    # -- request bodies ---------------------------------------------------
    def raw_body(self, user: int, form: str, round_index: int,
                 convergence: bool = False) -> dict:
        slot = FORMULATIONS.index(form) if form in FORMULATIONS else 5
        config = dict(RAW_CONFIG,
                      seed=config_seed(round_index, user, slot))
        if convergence:
            config["convergence"] = True
        return {"problem": self.payloads[user][form], "solver": "sa",
                "config": config}

    def workload_body(self, user: int, i: int, round_index: int) -> dict:
        """A workload submission: a suite seed new to each round and a
        fixed (topology, size) cell per slot, so the work mix never
        changes while the quality figure averages over many graphs."""
        label = f"http/u{user}/wl{i}/{round_index}"
        topology, size = WORKLOAD_CELLS[user][i]
        per_cell = WORKLOAD_SPEC["instances_per_cell"]
        cell = (WORKLOAD_SPEC["topologies"].index(topology)
                * len(WORKLOAD_SPEC["sizes"])
                + WORKLOAD_SPEC["sizes"].index(size))
        spec = dict(WORKLOAD_SPEC,
                    seed=derive_seed(self.seed, label + "/suite") % 100000,
                    index=cell * per_cell
                    + derive_seed(self.seed, label) % per_cell)
        config = dict(WORKLOAD_CONFIG,
                      seed=config_seed(round_index, user, 6 + i))
        return {"workload": spec, "solver": "sa", "config": config}

    # -- operations ---------------------------------------------------------
    def _user_ops(self, user: int) -> List[Op]:
        ops = []
        for position, form in enumerate(FORMULATIONS):
            size = f"{form}/v={self.variables[user][form]}"
            ops.append(Op(f"fresh/{size}", (user, "fresh", form),
                          self._fresh_op(user, form)))
            ops.append(Op(f"repeat/{size}", (user, "repeat", form),
                          self._repeat_op(user, form)))
            if form in STATUS_FORMULATIONS:
                ops.append(Op("status", (user, "status", form),
                              self._status_op(user, form)))
            if position < len(WORKLOAD_CELLS[user]):
                topology, relations = WORKLOAD_CELLS[user][position]
                ops.append(Op(f"workload/{topology}-{relations}",
                              (user, "workload", position),
                              self._workload_op(user, position)))
            if form == "txsched":
                ops.append(Op(f"stream/v={self.variables[user]['stream']}",
                              (user, "stream", "stream"),
                              self._stream_op(user)))
        return ops

    def users(self) -> List[List[Op]]:
        return self._users

    def _timed(self, name: str, function, *args):
        if not self.traced:
            return function(*args)
        tracing.RECORDER.begin(name)
        try:
            return function(*args)
        finally:
            tracing.RECORDER.end()

    def _submit_and_wait(self, user: int, body: dict) -> Tuple[str, dict]:
        conn = self.connections[user]
        status, created = self._timed("server.submit", conn.request,
                                      "POST", "/v1/jobs", body)
        if status != 201:
            raise RuntimeError(f"submission answered {status}: {created}")
        job_id = created["job_id"]
        status, document = self._timed(
            "server.result_wait", conn.request, "GET",
            f"/v1/jobs/{job_id}/result?wait=60")
        if status != 200:
            raise RuntimeError(f"result answered {status}: {document}")
        return job_id, document["result"]

    def _fresh_op(self, user: int, form: str):
        def run(round_index: int):
            body = self.raw_body(user, form, round_index)
            job_id, document = self._submit_and_wait(user, body)
            self._fresh[user, round_index, form] = (job_id, document)
            return {"round": round_index, "document": document}
        return run

    def _repeat_op(self, user: int, form: str):
        def run(round_index: int):
            body = dict(self.raw_body(user, form, round_index),
                        tag=f"repeat-{round_index}-{user}-{form}")
            _job_id, document = self._submit_and_wait(user, body)
            return {"document": document,
                    "original": self._fresh[user, round_index, form][1]}
        return run

    def _status_op(self, user: int, form: str):
        def run(round_index: int):
            job_id = self._fresh[user, round_index, form][0]
            status, document = self._timed(
                "server.status_get", self.connections[user].request,
                "GET", f"/v1/jobs/{job_id}")
            return {"status": status, "document": document,
                    "job_id": job_id}
        return run

    def _workload_op(self, user: int, i: int):
        def run(round_index: int):
            body = self.workload_body(user, i, round_index)
            _job_id, document = self._submit_and_wait(user, body)
            return {"round": round_index, "document": document}
        return run

    def _stream_op(self, user: int):
        def run(round_index: int):
            conn = self.connections[user]
            body = self.raw_body(user, "stream", round_index,
                                 convergence=True)
            status, created = self._timed("server.submit", conn.request,
                                          "POST", "/v1/jobs", body)
            if status != 201:
                raise RuntimeError(f"submission answered {status}")
            events, result = conn.stream(
                f"/v1/jobs/{created['job_id']}/stream", self.traced)
            return {"round": round_index, "events": events,
                    "document": result}
        return run

    # -- server lifecycle ---------------------------------------------------
    def _start_server(self, traced: bool) -> None:
        os.makedirs(common.OUT_DIR, exist_ok=True)
        serve_args = ["--port", "0", "--workers", str(self.workers),
                      "--quota-rate", "1000000",
                      "--quota-burst", "1000000"]
        if traced:
            command = [sys.executable,
                       os.path.join(common.BENCH_DIR, "serve_traced.py"),
                       common.OUT_DIR] + serve_args
        else:
            command = [sys.executable, "-m", "repro.experiments",
                       "serve"] + serve_args
        log_path = os.path.join(common.OUT_DIR,
                                f"serve-{os.getpid()}-{int(traced)}.log")
        self._log_path = log_path
        with open(log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                command, cwd=common.ROOT, env=common.program_env(),
                stdout=subprocess.DEVNULL, stderr=log)
        self.port = self._wait_listening(log_path)
        self._worker_pids = common.child_pids(self.server.pid)
        self.connections = [Connection(self.port) for _ in range(USERS)]
        self.traced = traced

    def _wait_listening(self, log_path: str) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        marker = "listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            if self.server.poll() is not None:
                raise RuntimeError("serve exited during start-up")
            with open(log_path, encoding="utf-8") as log:
                for line in log:
                    if marker in line:
                        return int(line.split(marker)[1].split()[0])
            time.sleep(0.01)
        raise RuntimeError("serve did not start listening in time")

    def _stop_server(self) -> None:
        if self.server is None:
            return
        for conn in self.connections:
            conn.close()
        server, self.server = self.server, None
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        if server.returncode == 0:
            os.remove(self._log_path)
        for pid in self._worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def _warm_up(self) -> None:
        """One operation of every kind per user, on config seeds no
        timed round uses."""
        for user, ops in enumerate(self._users):
            for op in ops:
                op.run(-1)

    def setup(self) -> None:
        self._start_server(traced=False)
        self._warm_up()

    def install_tracing(self) -> None:
        self._stop_server()
        self._start_server(traced=True)
        self._warm_up()
        for name in os.listdir(common.OUT_DIR):
            if name.startswith("worker-"):
                os.remove(os.path.join(common.OUT_DIR, name))
        self.server.send_signal(signal.SIGUSR1)
        tracing.RECORDER.self_time.clear()
        tracing.RECORDER.total_time.clear()
        tracing.RECORDER.top_level.clear()
        time.sleep(0.05)
        self._metrics_before = self._scrape_metrics()

    def _scrape_metrics(self) -> Dict[str, float]:
        """The server's own ``/metrics`` samples, by series name."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                series, value = line.rsplit(" ", 1)
                samples[series] = float(value)
        return samples

    def _metric_counts(self) -> Dict[str, float]:
        """Queue wait and cache outcomes of the traced half, from the
        change in the server's ``/metrics`` across it."""
        after = self._scrape_metrics()

        def change(series: str) -> float:
            return after.get(series, 0.0) - self._metrics_before.get(
                series, 0.0)

        hits = change('service_cache_events_total{event="hit"}')
        misses = change('service_cache_events_total{event="miss"}')
        return {"service.queue_wait_s":
                change("service_queue_wait_seconds_sum"),
                "service.cache_hits": hits,
                "service.cache_lookups": hits + misses}

    def peak_rss_mb(self) -> float:
        """Server plus warm workers, summed (VmHWM of each)."""
        pids = [self.server.pid] + common.child_pids(self.server.pid)
        return sum(common.proc_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        server_pid = self.server.pid if self.server is not None else None
        collect = self.traced and server_pid is not None and not self._stats
        counts = self._metric_counts() if collect else {}
        self._stop_server()
        if collect:
            self._stats = self._collect_server_stats(server_pid)
            self._stats["counts"].update(counts)

    def _collect_server_stats(self, server_pid: int
                              ) -> Dict[str, Dict[str, float]]:
        stats = tracing.RECORDER.stats()
        path = os.path.join(common.OUT_DIR, f"server-{server_pid}.json")
        with open(path, encoding="utf-8") as handle:
            server = json.load(handle)
        os.remove(path)
        for table in ("self_time", "total_time", "counts"):
            for name, value in server[table].items():
                stats[table][name] = stats[table].get(name, 0.0) + value
        for name in os.listdir(common.OUT_DIR):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(common.OUT_DIR, name)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    span, duration, self_time, spins = json.loads(line)
                    for table, value in (("self_time", self_time),
                                         ("total_time", duration)):
                        stats[table][span] = \
                            stats[table].get(span, 0.0) + value
                    stats["counts"]["annealing.spin_updates"] = \
                        stats["counts"].get("annealing.spin_updates",
                                            0.0) + spins
            os.remove(path)
        return stats

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        return self._stats

    # -- checks -----------------------------------------------------------
    def reference_job(self, result: Result) -> Optional[tuple]:
        """What to recompute for one result: ``("raw", problem name,
        body)`` for a raw-problem solve, ``("plan", None, body)`` for a
        workload plan."""
        user, kind, detail = result.op.key
        if result.error is not None or kind in ("repeat", "status"):
            return None
        if kind == "fresh":
            return ("raw", (user, detail),
                    self.raw_body(user, detail, result.output["round"]))
        if kind == "stream":
            return ("raw", (user, "stream"),
                    self.raw_body(user, "stream", result.output["round"],
                                  convergence=True))
        return ("plan", None,
                self.workload_body(user, detail, result.output["round"]))

    def check(self, results: List[Result]) -> float:
        """Fill failures; return the geometric mean C_out ratio of the
        workload-route plans over the exhaustive left-deep optimum.

        The references are recomputed in ``CHECK_PROCESSES`` worker
        processes: the server ran these solves on its warm workers, and
        one process would take longer than the timed phase to redo
        them.
        """
        jobs = [self.reference_job(result) for result in results]
        wanted = [job for job in jobs if job is not None]
        context = multiprocessing.get_context("spawn")
        pool = context.Pool(CHECK_PROCESSES)
        try:
            computed = iter(pool.map(reference, wanted, chunksize=8))
        finally:
            pool.close()
            pool.join()

        ratios = []
        for result, job in zip(results, jobs):
            if result.error is not None:
                result.failures.append(f"raised {result.error!r}")
                continue
            out = result.output
            kind = result.op.key[1]
            local = next(computed) if job is not None else None
            if kind == "fresh":
                result.failures.extend(checks.check_raw_result(
                    out["document"], local))
            elif kind == "repeat":
                result.failures.extend(checks.check_repeat(
                    out["document"], out["original"]))
            elif kind == "status":
                document = out["document"]
                if out["status"] != 200 or document.get("job_id") \
                        != out["job_id"] or document.get("status") != "done":
                    result.failures.append(
                        f"status GET answered {out['status']}: "
                        f"{document.get('status')}")
            elif kind == "stream":
                result.failures.extend(checks.check_stream(out["events"]))
                if not result.failures:
                    result.failures.extend(checks.check_raw_result(
                        out["document"], local))
            else:
                plan, cards, sels = local
                document = out["document"]
                result.failures.extend(
                    checks.check_plan_document(document, plan))
                if result.failures:
                    continue
                optimum = checks.left_deep_optimum(cards, sels)
                result.failures.extend(checks.check_join_order(
                    cards, sels, document["solution"]["order"],
                    document["cost"], optimum))
                if not result.failures:
                    ratios.append(document["cost"] / optimum)
        return common.geometric_mean(ratios) if ratios else float("nan")


#: Compiled raw problems by (user, formulation), per check process.
_PROBLEMS: Dict[Tuple[int, str], Any] = {}


def reference(job: tuple):
    """The benchmark's own answer for one request body: ``solve`` for a
    raw problem; for a workload, the in-process pipeline's plan plus
    the graph's cardinalities and selectivities."""
    from repro.compile import SolverConfig, solve
    from repro.db.workloads import generate_join_workload
    from repro.pipeline import OptimizationPipeline
    from repro.server import build_problem

    kind, key, body = job
    config = SolverConfig(**body["config"])
    if kind == "raw":
        if key not in _PROBLEMS:
            _PROBLEMS[key] = build_problem(body["problem"])
        result = solve(_PROBLEMS[key], "sa", config)
        return json.loads(json.dumps({
            "solution": list(result.solution)
            if isinstance(result.solution, tuple) else result.solution,
            "energy": result.energy,
            "energies": [float(e) for e in result.energies],
            "feasible": bool(result.feasible),
            "num_reads": len(result.samples),
        }))
    spec = body["workload"]
    # The suite's graphs do not depend on ``limit``.
    graph = generate_join_workload(
        spec["topologies"], spec["sizes"], spec["instances_per_cell"],
        seed=spec["seed"], limit=spec["index"] + 1)[spec["index"]].graph
    plan = OptimizationPipeline("joinorder", solve="sa").optimize(
        graph, config=config)
    return (json.loads(json.dumps(plan.to_dict())),
            list(graph.cardinalities), dict(graph.selectivities))
