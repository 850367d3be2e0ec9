"""``plan_suite``: the annealing query-optimization stack, in process.

One closed-loop user on one thread sends every instance through
``OptimizationPipeline.optimize`` with telemetry at library defaults.
About 95% of the wall time is in the annealing sweep loops, so a kernel
change shows here; the server, service and QML layers do no work.

One round (50 operations, the same list for every seed).  Rounds
alternate between two instance sets alike in kind, order and QUBO size,
so every round does the same work; every run holds at least two rounds
(100 operations), so it solves both sets, and ``quality_ratio`` counts
each distinct instance once (the seeded solvers give the same plan each
time), so it never depends on how many rounds a run held:

* a JOB-style join-order suite: two chain, star, cycle and clique
  graphs each of 4, 5, 6 and 7 relations, solved by ``sa`` at the
  formulation default;
* three generated MQO, index-selection, transaction-scheduling and
  partitioning instances each, ``sa`` at the formulation defaults;
* ``tabu`` at the formulation defaults on a 6-relation clique and an
  MQO instance; ``pt`` and ``sqa`` on a join-order graph and one other
  instance with reduced configs (at their own defaults one 6-relation
  QUBO takes 3 s with ``pt`` and 7 s with ``sqa``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import checks
import common
import tracing
from harness import Op, Result, derive_seed, sized

JOIN_SIZES = (4, 5, 6, 7)
#: Join-order graphs per (topology, size) cell of one round.
JOIN_PER_CELL = 2
#: ``sa`` instances per other formulation in one round.
OTHER_PER_FORMULATION = 3
#: QUBO sizes of the generated instances that vary with their seed:
#: 12 index candidates plus 6 slack bits; 8 transactions in 4 slots.
INDEXSEL_VARIABLES = 18
TXSCHED_VARIABLES = 32
#: Instance sets that rounds alternate between: the quality figure then
#: averages over twice the graphs one round holds (one bad plan among
#: 35 moves a geometric mean by 10% or more).
ROUND_SETS = 2
PT_CONFIG = {"num_sweeps": 150, "num_reads": 2, "seed": 0,
             "options": {"num_replicas": 4}}
SQA_CONFIG = {"num_sweeps": 40, "num_reads": 2, "seed": 0,
              "options": {"num_slices": 6}}


def make_instances(seed: int, tag: str) -> List[Tuple[str, str, Any, Any]]:
    """(formulation, solver, config dict or None, instance) in round
    order; ``tag`` separates the warm-up inputs from the timed ones."""
    from repro.db.indexsel import IndexSelectionProblem
    from repro.db.mqo import MQOProblem
    from repro.db.partitioning import PartitioningProblem
    from repro.db.txsched import TransactionSchedulingProblem
    from repro.db.workloads import TOPOLOGIES, generate_join_workload

    def s(label: str) -> int:
        return derive_seed(seed, f"{tag}/{label}")

    suite = generate_join_workload(TOPOLOGIES, JOIN_SIZES, JOIN_PER_CELL,
                                   seed=s("job"))
    extra = generate_join_workload(("clique", "cycle"), (5, 6), 1,
                                   seed=s("job-extra"))
    mqo = [MQOProblem.random(6, 3, seed=s(f"mqo{i}"))
           for i in range(OTHER_PER_FORMULATION + 2)]
    index = [sized("indexsel", INDEXSEL_VARIABLES,
                   lambda k: IndexSelectionProblem.random(12, seed=k),
                   s(f"idx{i}"))
             for i in range(OTHER_PER_FORMULATION)]
    sched = [sized("txsched", TXSCHED_VARIABLES,
                   lambda k: TransactionSchedulingProblem.random(8, seed=k),
                   s(f"tx{i}"))
             for i in range(OTHER_PER_FORMULATION)]
    parts = [PartitioningProblem.random(16, seed=s(f"part{i}"))
             for i in range(OTHER_PER_FORMULATION + 1)]
    graphs = {(w.topology, w.num_relations): w.graph for w in extra}
    k = OTHER_PER_FORMULATION

    other = ([("mqo", "sa", None, p) for p in mqo[:k]]
             + [("indexsel", "sa", None, p) for p in index]
             + [("txsched", "sa", None, p) for p in sched]
             + [("partitioning", "sa", None, p) for p in parts[:k]]
             + [("joinorder", "tabu", None, graphs["clique", 6]),
                ("mqo", "tabu", None, mqo[k]),
                ("joinorder", "pt", PT_CONFIG, graphs["cycle", 6]),
                ("partitioning", "pt", PT_CONFIG, parts[k]),
                ("joinorder", "sqa", SQA_CONFIG, graphs["clique", 5]),
                ("mqo", "sqa", SQA_CONFIG, mqo[k + 1])])
    join = [("joinorder", "sa", None, w.graph) for w in suite]
    # Spread the other operations evenly between the join orders, so a
    # round never runs a long streak of one kind.
    ordered: List[Tuple[str, str, Any, Any]] = []
    total = len(other)
    for position, item in enumerate(join, start=1):
        ordered.append(item)
        while total - len(other) < position * total // len(join):
            ordered.append(other.pop(0))
    return ordered


def _variables(formulation: str, instance: Any) -> int:
    from repro.pipeline.formulations import get_formulation

    return get_formulation(formulation).num_variables(instance)


class PlanSuite:
    name = "plan_suite"
    interleaved_tracing = True

    def __init__(self, seed: int):
        from repro.compile import SolverConfig

        self.sets = [make_instances(seed, f"timed{i}")
                     for i in range(ROUND_SETS)]
        self.items = self.sets[0]
        self._warmup = make_instances(seed, "warmup")
        self._config = SolverConfig
        self.pipelines: Dict[Tuple[str, str], Any] = {}
        self.ops = [
            Op(kind=f"{form}/{solver}/v={_variables(form, inst)}", key=index,
               run=self._runner(index))
            for index, (form, solver, _config, inst) in enumerate(self.items)
        ]

    def users(self) -> List[List[Op]]:
        return [self.ops]

    def _solve(self, formulation: str, solver: str,
               config: Optional[dict], instance: Any) -> Any:
        solver_config = None if config is None else self._config(**config)
        return self.pipelines[formulation, solver].optimize(
            instance, config=solver_config)

    def item(self, round_index: int, index: int
             ) -> Tuple[str, str, Any, Any]:
        return self.sets[round_index % ROUND_SETS][index]

    def _runner(self, index: int):
        return lambda round_index: self._solve(*self.item(round_index,
                                                          index))

    def setup(self) -> None:
        from repro.pipeline import OptimizationPipeline

        for formulation, solver, _config, _instance in self.items:
            if (formulation, solver) not in self.pipelines:
                self.pipelines[formulation, solver] = OptimizationPipeline(
                    formulation, solve=solver)
        seen = set()
        for formulation, solver, config, instance in self._warmup:
            if (formulation, solver) in seen:
                continue
            seen.add((formulation, solver))
            self._solve(formulation, solver, config, instance)

    # -- checks -----------------------------------------------------------
    def check(self, results: List[Result]) -> float:
        """Fill each result's failures; return the quality ratio: the
        geometric mean of join-order C_out over the left-deep optimum,
        each distinct instance counted once."""
        optimum: Dict[Tuple[int, int], float] = {}
        ratios: Dict[Tuple[int, int], float] = {}
        for result in results:
            formulation, _solver, _config, instance = self.item(
                result.round, result.op.key)
            key = (result.round % ROUND_SETS, result.op.key)
            plan = result.output
            if result.error is not None:
                result.failures.append(f"raised {result.error!r}")
                continue
            if plan.status != "ok":
                result.failures.append(f"plan status {plan.status}")
                continue
            result.failures.extend(
                self._check_plan(formulation, instance, plan, optimum, key))
            if formulation == "joinorder" and not result.failures:
                ratios[key] = plan.cost / optimum[key]
        return (common.geometric_mean(ratios.values()) if ratios
                else float("nan"))

    @staticmethod
    def _check_plan(formulation: str, instance: Any, plan: Any,
                    optimum: Dict[Tuple[int, int], float],
                    key: Tuple[int, int]) -> List[str]:
        solution = plan.solution
        if formulation == "joinorder":
            if key not in optimum:
                optimum[key] = checks.left_deep_optimum(
                    instance.cardinalities, instance.selectivities)
            return checks.check_join_order(
                instance.cardinalities, instance.selectivities,
                solution.order, plan.cost, optimum[key])
        if formulation == "mqo":
            return checks.check_mqo(instance.plan_costs, instance.savings,
                                    solution, plan.cost)
        if formulation == "indexsel":
            return checks.check_index_selection(
                instance.sizes, instance.benefits, instance.overlaps,
                instance.budget, solution, plan.cost)
        if formulation == "txsched":
            return checks.check_schedule(
                [t.reads for t in instance.transactions],
                [t.writes for t in instance.transactions],
                solution, plan.cost)
        return checks.check_partition(instance.num_fragments,
                                      instance.weights, solution,
                                      plan.cost)

    # -- measurement hooks ------------------------------------------------
    def peak_rss_mb(self) -> float:
        return common.peak_rss_self_mb()

    def install_tracing(self) -> None:
        tracing.install_annealing()
        tracing.install_pipeline()
        tracing.install_telemetry_counts()

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        return tracing.RECORDER.stats()

    def close(self) -> None:
        pass
