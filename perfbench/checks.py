"""Output checks computed apart from the program.

Every check returns a list of failure reasons (empty when the output is
right).  None of them calls the program's own cost, feasibility or
counting code: C_out, objectives, conflicts and cardinalities are
recomputed here from the raw instance data.  Where the truth is a
property of the method rather than a number (a polished join order is a
swap-local optimum; a fidelity Gram matrix is symmetric with a unit
diagonal and positive semi-definite), the property is checked.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# Join ordering (C_out over left-deep trees)
# ----------------------------------------------------------------------
def _edge_table(num: int, selectivities: Mapping[Tuple[int, int], float]
                ) -> np.ndarray:
    table = np.ones((num, num))
    for (a, b), sel in selectivities.items():
        table[a, b] = table[b, a] = sel
    return table


def subset_size(cards: Sequence[float], sel: np.ndarray,
                members: Sequence[int]) -> float:
    """Independence-assumption size of joining ``members``."""
    size = 1.0
    for index, r in enumerate(members):
        size *= cards[r]
        for other in members[:index]:
            size *= sel[r, other]
    return size


def left_deep_cout(cards: Sequence[float],
                   selectivities: Mapping[Tuple[int, int], float],
                   order: Sequence[int]) -> float:
    """C_out of a left-deep order: the sum of every prefix's size."""
    sel = _edge_table(len(cards), selectivities)
    return sum(subset_size(cards, sel, list(order[:k]))
               for k in range(2, len(order) + 1))


def left_deep_optimum(cards: Sequence[float],
                      selectivities: Mapping[Tuple[int, int], float]
                      ) -> float:
    """Exhaustive left-deep optimum by dynamic programming over relation
    subsets (equal to enumerating every permutation: a left-deep plan's
    cost is the sum of its prefix sets' sizes)."""
    n = len(cards)
    sel = _edge_table(n, selectivities)
    size = [0.0] * (1 << n)
    best = [math.inf] * (1 << n)
    for mask in range(1, 1 << n):
        members = [r for r in range(n) if mask >> r & 1]
        size[mask] = subset_size(cards, sel, members)
        if len(members) == 1:
            best[mask] = 0.0
            continue
        best[mask] = size[mask] + min(best[mask & ~(1 << r)]
                                      for r in members)
    return best[(1 << n) - 1]


def check_join_order(cards: Sequence[float],
                     selectivities: Mapping[Tuple[int, int], float],
                     order: Sequence[int], reported_cost: float,
                     optimum: float) -> List[str]:
    """A polished plan: a permutation whose reported cost is its C_out,
    no cheaper than the optimum, and not improvable by swapping two
    positions (the 2-opt polish the pipeline applies)."""
    n = len(cards)
    if sorted(order) != list(range(n)):
        return [f"join order {list(order)} is not a permutation of {n}"]
    cost = left_deep_cout(cards, selectivities, order)
    failures = []
    if not _close(cost, reported_cost):
        failures.append(f"reported C_out {reported_cost!r} != "
                        f"recomputed {cost!r}")
    if cost < optimum * (1 - REL_TOL):
        failures.append(f"C_out {cost!r} below the optimum {optimum!r}")
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(order)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if left_deep_cout(cards, selectivities, swapped) \
                    < cost * (1 - REL_TOL):
                failures.append(f"swapping positions {i},{j} lowers "
                                f"C_out: not a polished order")
                return failures
    return failures


# ----------------------------------------------------------------------
# The other four formulations: feasibility and objective
# ----------------------------------------------------------------------
def check_mqo(plan_costs: Sequence[Sequence[float]],
              savings: Mapping[Tuple[Tuple[int, int], Tuple[int, int]],
                               float],
              selection: Sequence[int], reported_cost: float
              ) -> List[str]:
    if len(selection) != len(plan_costs) or any(
            not 0 <= k < len(plan_costs[q])
            for q, k in enumerate(selection)):
        return [f"selection {list(selection)} is not one plan per query"]
    cost = sum(plan_costs[q][k] for q, k in enumerate(selection))
    for ((q1, k1), (q2, k2)), value in savings.items():
        if selection[q1] == k1 and selection[q2] == k2:
            cost -= value
    if not _close(cost, reported_cost):
        return [f"MQO cost {reported_cost!r} != recomputed {cost!r}"]
    return []


def check_index_selection(sizes: Sequence[int], benefits: Sequence[float],
                          overlaps: Mapping[Tuple[int, int], float],
                          budget: int, selection: Sequence[int],
                          reported_cost: float) -> List[str]:
    chosen = sorted(set(selection))
    if any(not 0 <= i < len(sizes) for i in chosen):
        return [f"selection {list(selection)} names unknown indexes"]
    used = sum(sizes[i] for i in chosen)
    failures = []
    if used > budget:
        failures.append(f"indexes use {used} > budget {budget}")
    benefit = sum(benefits[i] for i in chosen)
    for (i, j), value in overlaps.items():
        if i in chosen and j in chosen:
            benefit -= value
    if not _close(-max(benefit, 0.0), reported_cost):
        failures.append(f"index cost {reported_cost!r} != recomputed "
                        f"{-max(benefit, 0.0)!r}")
    return failures


def check_schedule(read_sets: Sequence[frozenset],
                   write_sets: Sequence[frozenset],
                   schedule: Sequence[int], reported_cost: float
                   ) -> List[str]:
    n = len(read_sets)
    if len(schedule) != n:
        return [f"schedule covers {len(schedule)} of {n} transactions"]
    failures = []
    for a in range(n):
        for b in range(a + 1, n):
            if schedule[a] != schedule[b]:
                continue
            if (write_sets[a] & write_sets[b] or write_sets[a]
                    & read_sets[b] or read_sets[a] & write_sets[b]):
                failures.append(f"conflicting transactions {a},{b} share "
                                f"slot {schedule[a]}")
    if float(len(set(schedule))) != reported_cost:
        failures.append(f"makespan {reported_cost!r} != recomputed "
                        f"{len(set(schedule))}")
    return failures


def check_partition(num_fragments: int,
                    weights: Mapping[Tuple[int, int], float],
                    assignment: Sequence[int], reported_cost: float
                    ) -> List[str]:
    if len(assignment) != num_fragments or any(
            a not in (0, 1) for a in assignment):
        return [f"assignment {list(assignment)} is not binary over "
                f"{num_fragments} fragments"]
    cut = sum(w for (i, j), w in weights.items()
              if assignment[i] != assignment[j])
    if not _close(cut, reported_cost):
        return [f"cut weight {reported_cost!r} != recomputed {cut!r}"]
    return []


# ----------------------------------------------------------------------
# Learned cardinality estimation
# ----------------------------------------------------------------------
def count_rows(columns: Mapping[str, np.ndarray],
               predicates: Mapping[str, Tuple[float, float]]) -> int:
    """True cardinality of a conjunctive inclusive range query."""
    mask = None
    for column, (low, high) in predicates.items():
        values = columns[column]
        hit = (values >= low) & (values <= high)
        mask = hit if mask is None else mask & hit
    return int(np.count_nonzero(mask))


def check_truths(counted: Sequence[int], program: Sequence[float]
                 ) -> List[str]:
    """The dataset's labels must be the row counts."""
    program = np.rint(np.asarray(program, dtype=float)).astype(np.int64)
    bad = np.flatnonzero(np.asarray(counted) != program)
    if bad.size:
        i = int(bad[0])
        return [f"{bad.size} cardinalities differ from row counts "
                f"(query {i}: {int(program[i])} vs {int(counted[i])})"]
    return []


def check_gram(gram: np.ndarray) -> List[str]:
    """A fidelity kernel Gram matrix: symmetric, unit diagonal, PSD."""
    gram = np.asarray(gram, dtype=float)
    failures = []
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        return [f"Gram matrix has shape {gram.shape}"]
    asymmetry = float(np.max(np.abs(gram - gram.T)))
    if asymmetry > 1e-12:
        failures.append(f"Gram matrix asymmetric by {asymmetry:.3g}")
    diagonal = float(np.max(np.abs(np.diag(gram) - 1.0)))
    if diagonal > 1e-9:
        failures.append(f"Gram diagonal off 1 by {diagonal:.3g}")
    if not failures:
        lowest = float(np.linalg.eigvalsh(gram).min())
        if lowest < -1e-9:
            failures.append(f"Gram matrix not PSD (eigenvalue "
                            f"{lowest:.3g})")
    return failures


def check_regression_range(estimates: np.ndarray, low: float,
                           high: float) -> List[str]:
    """A VQC regressor outputs <Z> in [-1, 1] rescaled so the training
    targets' range maps to [-0.9, 0.9]: every estimate must be finite
    and inside that range stretched to [-1, 1]."""
    estimates = np.asarray(estimates, dtype=float)
    if not np.all(np.isfinite(estimates)):
        return ["non-finite estimate"]
    half = (high - low) / 1.8
    centre = (high + low) / 2.0
    slack = 1e-9 * max(1.0, abs(centre), half)
    outside = np.abs(estimates - centre) > half + slack
    if np.any(outside):
        return [f"{int(outside.sum())} estimates outside the model's "
                f"output range"]
    return []


def q_errors(estimates: np.ndarray, truths: np.ndarray) -> np.ndarray:
    est = np.maximum(np.asarray(estimates, dtype=float), 1.0)
    true = np.maximum(np.asarray(truths, dtype=float), 1.0)
    return np.maximum(est / true, true / est)


# ----------------------------------------------------------------------
# HTTP documents
# ----------------------------------------------------------------------
def check_raw_result(document: Mapping[str, Any],
                     reference: Mapping[str, Any]) -> List[str]:
    """Bit-for-bit equality with the benchmark's own ``solve`` run."""
    failures = []
    for key in ("solution", "energy", "energies", "feasible", "num_reads"):
        if document.get(key) != reference[key]:
            failures.append(f"{key} differs from the local solve")
    return failures


def _without_service(document: Mapping[str, Any]) -> Dict[str, Any]:
    out = dict(document)
    provenance = dict(out.get("provenance") or {})
    provenance.pop("service", None)
    provenance.pop("trace_id", None)
    out["provenance"] = provenance
    return out


def check_repeat(document: Mapping[str, Any],
                 original: Mapping[str, Any]) -> List[str]:
    """A tagged resubmission returns the original's result document
    (its service block says ``cache: hit``; nothing else may differ)."""
    if _without_service(document) != _without_service(original):
        return ["tagged repeat's document differs from the original's"]
    if (document.get("provenance") or {}).get("service", {}) \
            .get("cache") != "hit":
        return ["tagged repeat was not served from the result cache"]
    return []


def check_plan_document(document: Mapping[str, Any],
                        reference: Mapping[str, Any]) -> List[str]:
    """A workload-route plan equals the in-process pipeline's plan."""
    failures = []
    for key in ("status", "solution", "cost", "feasible"):
        if document.get(key) != reference[key]:
            failures.append(f"plan {key} differs from the in-process "
                            f"pipeline")
    return failures


def check_stream(events: Sequence[str]) -> List[str]:
    """Exactly one ``result`` event, and it comes before ``done``,
    which ends the stream."""
    if not events or events[-1] != "done":
        return ["stream did not end with a done event"]
    results = [i for i, name in enumerate(events) if name == "result"]
    if len(results) != 1:
        return [f"stream carried {len(results)} result events"]
    if events.count("done") != 1:
        return ["stream carried more than one done event"]
    return []
