"""One workload in a fresh process: set up, measure, check.

Started by ``run.py`` with the pinned environment; prints one JSON
object as its last stdout line.  ``--mode setup`` stops once the
workload is ready for its first timed operation (``run.py`` times
several of these to take the median set-up time); ``--mode run`` is the
untraced measurement; ``--mode trace`` runs an untraced half and a
traced half and reports per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List

import common
import harness
import tracing

#: Per-layer time metrics that are the self time of one span name.
SELF_TIME_SPANS = {
    "annealing.sa_s": "annealing.sa",
    "annealing.sqa_s": "annealing.sqa",
    "annealing.pt_s": "annealing.pt",
    "annealing.tabu_s": "annealing.tabu",
    "db.formulate_s": "db.formulate",
    "compile.dispatch_self_s": "compile.dispatch",
    "compile.decode_s": "compile.decode",
    "db.assemble_s": "db.assemble",
    "pipeline.self_s": "pipeline",
    "server.submit_s": "server.submit",
    "server.result_wait_s": "server.result_wait",
    "server.stream_first_row_s": "server.stream_first_row",
    "server.stream_tail_s": "server.stream_tail",
    "server.status_get_s": "server.status_get",
    "server.handler_s": "server.handler",
    "server.result_document_s": "server.result_document",
    "service.submit_s": "service.submit",
    "service.pool_roundtrip_s": "service.pool_roundtrip",
    "service.shm_publish_s": "service.shm_publish",
    "service.cache_get_s": "service.cache_get",
    "quantum.run_batch_s": "quantum.run_batch",
    "quantum.run_s": "quantum.run",
    "qml.gradient_s": "qml.gradient",
    "qml.circuit_build_s": "qml.circuit_build",
    "qml.kernel_gram_s": "qml.kernel_gram",
    "baselines.svm_fit_s": "baselines.svm_fit",
}

PER_OP_COUNTS = {
    "annealing.spin_updates": "annealing.spin_updates",
    "telemetry.metric_updates": "telemetry.metric_updates",
    "quantum.circuits": "quantum.circuits",
    "quantum.amplitude_bytes": "quantum.amplitude_bytes",
    "service.queue_wait_s": "service.queue_wait_s",
}

ANNEALING_SPANS = ("annealing.sa", "annealing.sqa", "annealing.pt",
                   "annealing.tabu")


def make_workload(name: str, seed: int):
    if name == "plan_suite":
        from w_plan import PlanSuite
        return PlanSuite(seed)
    if name == "http_mixed":
        from w_http import HttpMixed
        return HttpMixed(seed)
    if name == "qml_cardinality":
        from w_qml import QmlCardinality
        return QmlCardinality(seed)
    raise SystemExit(f"unknown workload {name!r}")


def layer_metrics(stats: Dict[str, Dict[str, float]], ops: int,
                  unattributed_s: float, overhead: float
                  ) -> Dict[str, float]:
    self_time = stats["self_time"]
    total_time = stats["total_time"]
    counts = stats["counts"]
    values: Dict[str, float] = {}
    for metric, span in SELF_TIME_SPANS.items():
        values[metric] = self_time.get(span, 0.0) / ops
    for metric, counter in PER_OP_COUNTS.items():
        values[metric] = counts.get(counter, 0.0) / ops
    kernel_time = sum(total_time.get(span, 0.0) for span in ANNEALING_SPANS)
    updates = counts.get("annealing.spin_updates", 0.0)
    values["annealing.spin_updates_per_s"] = (
        updates / kernel_time if kernel_time else 0.0)
    lookups = counts.get("service.cache_lookups", 0.0)
    values["service.cache_hit_ratio"] = (
        counts.get("service.cache_hits", 0.0) / lookups if lookups else 0.0)
    values["bench.unattributed_s"] = unattributed_s / ops
    values["bench.trace_overhead_ratio"] = overhead
    return values


def mix_matches(name: str, users) -> List[str]:
    """The operation counts and mix must not depend on the seed: compare
    with the default and the held-out seed."""
    mine = harness.signature(users)
    problems = []
    for seed in (common.DEFAULT_SEED, common.HELD_OUT_SEED):
        other = harness.signature(make_workload(name, seed).users())
        if other != mine:
            problems.append(f"operation mix differs from seed {seed}")
    return problems


def failure_summary(results) -> Dict[str, object]:
    failed = [r for r in results if r.failures]
    return {
        "failed": len(failed),
        "examples": [f"{r.op.kind}: {r.failures[0]}" for r in failed[:5]],
    }


def traced_phases(workload, users, seconds: float):
    """Untraced and traced results for the overhead comparison.

    In-process workloads trace every other operation, swapping halves
    each round, so over two rounds every operation runs once traced and
    once untraced, close together in time: a drift in machine speed
    hits both sides alike.  ``http_mixed`` needs a traced server, so it
    runs an untraced half, then restarts the server under the tracing
    launcher for the traced half.
    """
    if not workload.interleaved_tracing:
        half = seconds / 2.0
        base, _ = harness.timed_phase(users, half, min_ops=1)
        rounds = 1 + max(r.round for r in base)
        workload.install_tracing()
        traced, _ = harness.timed_phase(users, half, min_ops=1,
                                        first_round=rounds)
        workload.close()
        return base, traced

    def pick(round_index: int, position: int) -> bool:
        return (round_index + position) % 2 == 1

    workload.install_tracing()
    min_ops = max(harness.MIN_OPS, 2 * sum(len(ops) for ops in users))
    results, _ = harness.timed_phase(users, seconds, min_ops=min_ops,
                                     traced=pick)
    tracing.RECORDER.enabled = True
    return ([r for r in results if not pick(r.round, r.position)],
            [r for r in results if pick(r.round, r.position)])


def trace_overhead(base, traced) -> float:
    """Traced over untraced wall time, summed over the operations that
    ran both ways (each operation's mean scaled latency on either
    side)."""
    def means(results):
        sums: Dict[tuple, List[float]] = {}
        for r in results:
            sums.setdefault((r.user, r.position), []).append(
                r.scaled_latency)
        return {key: sum(v) / len(v) for key, v in sums.items()}

    plain, with_spans = means(base), means(traced)
    both = plain.keys() & with_spans.keys()
    return (sum(with_spans[key] for key in both)
            / sum(plain[key] for key in both))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    started = common.now()
    if args.workload in common.SINGLE_THREAD:
        common.pin_to_last_cpu()
    first = harness.calibrate()
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        ready = common.now()
        # Set-up is scaled by the calibrations at either end of it and
        # leaves out the first one (the closing one starts at ready).
        out: Dict[str, object] = {
            "ready": ready,
            "setup_calibration_s": first[1] - first[0],
            "setup_scale": harness.speed_scale(first, harness.calibrate()),
        }
        if args.mode == "setup":
            return _emit(out)
        users = workload.users()
        if args.mode == "run":
            results, phase = harness.timed_phase(users, args.seconds)
            out["peak_rss_mb"] = workload.peak_rss_mb()
            workload.close()
            checked = common.now()
            quality = workload.check(results)
            sys.stderr.write(f"perfbench: {args.workload}: workload set-up "
                             f"{ready - started:.1f} s, timed "
                             f"{phase.elapsed:.1f} s, checks "
                             f"{common.now() - checked:.1f} s\n")
            passed = [r for r in results if not r.failures]
            latencies = [r.scaled_latency for r in passed] or [math.nan]
            out.update({
                "attempted": len(results),
                "ops_per_s": len(passed) / phase.scaled_elapsed,
                "latency_p50_s": common.percentile(latencies, 50),
                "latency_p90_s": common.percentile(latencies, 90),
                "quality_ratio": quality,
            })
        else:
            base, results = traced_phases(workload, users, args.seconds)
            overhead = trace_overhead(base, results)
            out["per_layer"] = layer_metrics(
                workload.layer_stats(), len(results),
                harness.unattributed(results), overhead)
            os.makedirs(common.OUT_DIR, exist_ok=True)
            tracing.RECORDER.dump(os.path.join(
                common.OUT_DIR, f"spans-{args.workload}.jsonl"))
            results = base + results
            workload.check(results)
            out["attempted"] = len(results)
        out.update(failure_summary(results))
        problems = mix_matches(args.workload, users)
        out["correct"] = not problems and out["failed"] == 0
        out["problems"] = problems
        return _emit(out)
    finally:
        workload.close()


def _emit(out: Dict[str, object]) -> int:
    sys.stdout.write(json.dumps(out, default=_finite) + "\n")
    sys.stdout.flush()
    return 0


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
