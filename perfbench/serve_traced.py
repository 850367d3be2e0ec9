"""Benchmark-owned launcher for a traced ``serve`` process.

    python3 perfbench/serve_traced.py OUT_DIR [serve arguments...]

Installs the span wrappers of :mod:`tracing` on the server's layers and
then calls the ``serve`` command's own ``main``, so the process is the
shipped server plus wrappers.  Warm workers fork from this process and
inherit the wrappers; each worker appends its kernel spans to
``OUT_DIR/worker-<pid>.jsonl``.  SIGUSR1 clears the recorded spans (the
client sends it after its warm-up).  After the graceful drain that
SIGTERM starts, the server's own totals go to
``OUT_DIR/server-<pid>.json`` and its spans to
``OUT_DIR/spans-server.jsonl``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import tracing


def _reset(_signum, _frame) -> None:
    recorder = tracing.RECORDER
    for table in (recorder.self_time, recorder.total_time,
                  recorder.counts, recorder.top_level):
        table.clear()
    recorder.spans.clear()


def main() -> int:
    out_dir, serve_args = sys.argv[1], sys.argv[2:]
    from repro.server import cli

    tracing.install_annealing()
    tracing.install_pipeline(assemble_name="server.result_document")
    tracing.install_server()
    tracing.install_telemetry_counts()
    tracing.RECORDER.sink = tracing.WorkerSink(out_dir, os.getpid())
    signal.signal(signal.SIGUSR1, _reset)
    status = cli.main(serve_args)
    path = os.path.join(out_dir, f"server-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracing.RECORDER.stats(), handle)
    tracing.RECORDER.dump(os.path.join(out_dir, "spans-server.jsonl"))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
