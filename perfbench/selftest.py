"""Self-test of the output checks: wrong outputs must count as failed.

    python3 perfbench/selftest.py

Fast (a few seconds, no server).  For each workload's checks it makes
one right output with the program, confirms the check passes it, then
feeds the same check deliberately wrong outputs -- a costlier join
order, a misreported cost, an infeasible schedule, a flipped bit in a
returned sample, a changed repeat document, a stream with two results,
an off-by-one cardinality, an asymmetric Gram matrix, an estimate
outside the model's range -- and asserts each one is counted as a
failed operation.  Exits non-zero if any wrong output slips through or
any right one is refused.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from typing import List, Tuple

import common
from harness import Result

SEED = 3
CASES: List[Tuple[str, bool]] = []


def expect(name: str, failures: List[str], wrong: bool) -> None:
    """Record whether a check judged an output as it should."""
    ok = bool(failures) if wrong else not failures
    CASES.append((name, ok))
    verdict = "counted failed" if failures else "passed"
    print(f"{'ok  ' if ok else 'MISS'} {name}: {verdict}"
          + (f" ({failures[0]})" if failures else ""))


def judged(workload, op_index: int, output, user: int = 0) -> List[str]:
    """Run ``workload.check`` on one result and return its failures."""
    ops = workload.users()[user]
    result = Result(user, 0, op_index, ops[op_index], 0.0, output)
    workload.check([result])
    return result.failures


def plan_cases() -> None:
    from w_plan import PlanSuite

    from repro.db.cost import left_deep_cost

    suite = PlanSuite(SEED)
    suite.setup()
    by_form = {}
    for index, (form, solver, _config, _inst) in enumerate(suite.items):
        if solver == "sa" and form not in by_form:
            by_form[form] = index
    for form, index in sorted(by_form.items()):
        plan = suite.ops[index].run(0)
        expect(f"plan_suite {form} plan from the pipeline",
               judged(suite, index, plan), wrong=False)

    index = by_form["joinorder"]
    graph = suite.items[index][3]
    plan = suite.ops[index].run(0)
    order = list(plan.solution.order)
    costlier = None
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            swapped = list(order)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if left_deep_cost(graph, swapped) > plan.cost:
                costlier = swapped
                break
        if costlier:
            break
    cost = left_deep_cost(graph, costlier)
    wrong = dataclasses.replace(
        plan, cost=cost,
        solution=dataclasses.replace(plan.solution, order=costlier,
                                     cost=cost))
    expect("plan_suite costlier join order (cost reported truly)",
           judged(suite, index, wrong), wrong=True)
    expect("plan_suite join order with a misreported cost",
           judged(suite, index, dataclasses.replace(
               plan, cost=plan.cost * 0.5)), wrong=True)

    index = by_form["txsched"]
    problem = suite.items[index][3]
    plan = suite.ops[index].run(0)
    a, b = sorted(problem.conflicts)[0]
    schedule = list(plan.solution)
    schedule[b] = schedule[a]
    expect("plan_suite schedule with two conflicting transactions in "
           "one slot", judged(suite, index, dataclasses.replace(
               plan, solution=schedule,
               cost=float(len(set(schedule))))), wrong=True)

    index = by_form["mqo"]
    plan = suite.ops[index].run(0)
    selection = list(plan.solution)
    selection[0] = (selection[0] + 1) % 3
    expect("plan_suite MQO selection changed, cost kept",
           judged(suite, index, dataclasses.replace(
               plan, solution=selection)), wrong=True)

    index = by_form["indexsel"]
    problem = suite.items[index][3]
    plan = suite.ops[index].run(0)
    everything = list(range(problem.num_candidates))
    expect("plan_suite index set over the storage budget",
           judged(suite, index, dataclasses.replace(
               plan, solution=everything)), wrong=True)

    index = by_form["partitioning"]
    plan = suite.ops[index].run(0)
    assignment = [1 - a for a in plan.solution[:1]] + list(
        plan.solution[1:])
    expect("plan_suite partition changed, cut weight kept",
           judged(suite, index, dataclasses.replace(
               plan, solution=assignment)), wrong=True)


def http_cases() -> None:
    """The HTTP checks on documents made in process: a raw result as
    the server would return it for the same body, then tampered."""
    from w_http import FORMULATIONS, HttpMixed

    from repro.compile import SolverConfig, solve
    from repro.pipeline import OptimizationPipeline
    from repro.server import build_problem, result_document

    mixed = HttpMixed(SEED)
    ops = mixed.users()[0]
    kinds = [op.key[1] for op in ops]
    form = FORMULATIONS[0]
    body = mixed.raw_body(0, form, 0)
    document = json.loads(json.dumps(result_document(solve(
        build_problem(body["problem"]), "sa",
        SolverConfig(**body["config"])))))
    fresh = kinds.index("fresh")
    expect("http_mixed raw result equal to the local solve",
           judged(mixed, fresh, {"round": 0, "document": document}),
           wrong=False)
    flipped = copy.deepcopy(document)
    flipped["solution"][0] = 1 - flipped["solution"][0]
    expect("http_mixed raw result with a flipped bit",
           judged(mixed, fresh, {"round": 0, "document": flipped}),
           wrong=True)

    hit = copy.deepcopy(document)
    hit["provenance"]["service"] = {"cache": "hit"}
    repeat = kinds.index("repeat")
    expect("http_mixed tagged repeat served from the cache",
           judged(mixed, repeat, {"document": hit, "original": document}),
           wrong=False)
    changed = copy.deepcopy(hit)
    changed["energy"] += 1.0
    expect("http_mixed tagged repeat with a changed document",
           judged(mixed, repeat, {"document": changed,
                                  "original": document}), wrong=True)

    stream = kinds.index("stream")
    events = ["hello", "lifecycle", "convergence", "result", "result",
              "done"]
    expect("http_mixed stream with two result events",
           judged(mixed, stream, {"round": 0, "events": events,
                                  "document": document}), wrong=True)

    workload = kinds.index("workload")
    detail = ops[workload].key[2]
    body = mixed.workload_body(0, detail, 0)
    from repro.db.workloads import generate_join_workload
    spec = body["workload"]
    graph = generate_join_workload(
        spec["topologies"], spec["sizes"], spec["instances_per_cell"],
        seed=spec["seed"])[spec["index"]].graph
    plan = json.loads(json.dumps(OptimizationPipeline(
        "joinorder", solve="sa").optimize(
            graph, config=SolverConfig(**body["config"])).to_dict()))
    expect("http_mixed workload plan equal to the in-process pipeline",
           judged(mixed, workload, {"round": 0, "document": plan}),
           wrong=False)
    reordered = copy.deepcopy(plan)
    reordered["solution"]["order"] = list(
        reversed(reordered["solution"]["order"]))
    expect("http_mixed workload plan with another join order",
           judged(mixed, workload, {"round": 0, "document": reordered}),
           wrong=True)


def qml_cases() -> None:
    from w_qml import QmlCardinality

    workload = QmlCardinality(SEED)
    workload.setup()
    kinds = [op.kind.split("/")[0] for op in workload.ops]
    kernel = kinds.index("kernel")
    vqc = kinds.index("vqc")
    right = workload.ops[kernel].run(0)
    expect("qml_cardinality kernel estimate",
           judged(workload, kernel, right), wrong=False)
    gram = right["gram"].copy()
    gram[0, 1] += 0.01
    expect("qml_cardinality asymmetric Gram matrix",
           judged(workload, kernel, dict(right, gram=gram)), wrong=True)
    gram = right["gram"].copy()
    gram[0, 0] = 0.9
    expect("qml_cardinality Gram matrix off the unit diagonal",
           judged(workload, kernel, dict(right, gram=gram)), wrong=True)

    right = workload.ops[vqc].run(0)
    expect("qml_cardinality VQC estimate",
           judged(workload, vqc, right), wrong=False)
    outside = right["log_estimates"].copy()
    outside[0] = workload.splits[vqc].y_train.max() + 5.0
    expect("qml_cardinality VQC estimate outside the model's range",
           judged(workload, vqc, dict(right, log_estimates=outside)),
           wrong=True)

    dataset = workload.splits[vqc].dataset
    dataset.log_cardinalities = dataset.log_cardinalities.copy()
    dataset.log_cardinalities[0] = math.log1p(
        round(math.expm1(dataset.log_cardinalities[0])) + 1)
    expect("qml_cardinality off-by-one true cardinality",
           judged(workload, vqc, right), wrong=True)


def main() -> int:
    common.require_program()
    sys.path.insert(0, common.SRC)
    for group in (plan_cases, http_cases, qml_cases):
        group()
    missed = [name for name, ok in CASES if not ok]
    print(f"\n{len(CASES) - len(missed)}/{len(CASES)} cases judged "
          f"as expected")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
