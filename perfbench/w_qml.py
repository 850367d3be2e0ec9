"""``qml_cardinality``: learned cardinality estimation with QML models.

The paper's QML-for-databases case, in process on one thread: seeded
``make_cardinality_dataset`` splits over one and two correlated column
pairs (4 and 8 features, so 4 and 8 qubits).  One operation fits one
estimator on a training split and estimates that split's held-out
queries.  The statevector simulator and circuit construction do all the
work; annealing, service and server do none, so an optimisation of
those layers must leave this workload flat.

Two estimator types:

* a VQC regressor on log-cardinality (angle encoding, one
  hardware-efficient layer, trained with parameter-shift gradients);
* a fidelity quantum kernel (IQP encoding) whose Gram matrices feed
  the kernel SVM: three binary SVMs at the training quartiles vote a
  cardinality bin, estimated by the bin's median training label.

One round (39 operations, the same list for every seed): three blocks,
each with kernel estimators on two 4-qubit and two 8-qubit splits and
VQC regressors on six 4-qubit and three 8-qubit splits; every
operation has a split of its own.

The quality figure is the geometric mean q-error of every held-out
estimate.  The median q-error would be the usual summary, but here it
falls between the two estimator types' modes (kernel estimates have a
median q-error near 3, the VQC regressors near 16), so it jumps from
seed to seed with the share of queries on either side; the geometric
mean moves smoothly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

import checks
import common
import tracing
from harness import Op, Result, derive_seed

NUM_ROWS = 2000
TRAIN = 48
TEST = 64
VQC = {"num_layers": 1, "epochs": 5, "batch_size": 8}
#: (estimator, column pairs) in the order of one block.
BLOCK = (("kernel", 1), ("vqc", 1), ("vqc", 2), ("vqc", 1),
         ("kernel", 2), ("vqc", 1), ("vqc", 2), ("kernel", 1),
         ("vqc", 1), ("vqc", 1), ("kernel", 2), ("vqc", 2), ("vqc", 1))
BLOCKS = 3
ROUND = BLOCK * BLOCKS


class Split:
    """One dataset with its train / held-out query split."""

    def __init__(self, seed: int, pairs: int):
        from repro.db.cardinality import make_cardinality_dataset

        self.pairs = pairs
        self.dataset = make_cardinality_dataset(
            num_rows=NUM_ROWS, num_queries=TRAIN + TEST,
            num_column_pairs=pairs, seed=seed)
        self.x_train = self.dataset.features[:TRAIN]
        self.y_train = self.dataset.log_cardinalities[:TRAIN]
        self.x_test = self.dataset.features[TRAIN:]


def kernel_estimate(split: Split) -> Dict[str, Any]:
    from repro.baselines import SVM
    from repro.qml import IQPEncoding
    from repro.qml.kernels import FidelityQuantumKernel

    kernel = FidelityQuantumKernel(
        IQPEncoding(split.x_train.shape[1], depth=2))
    gram = kernel(split.x_train)
    test_gram = kernel(split.x_test, split.x_train)
    thresholds = np.quantile(split.y_train, (0.25, 0.5, 0.75))
    votes = np.zeros(len(split.x_test), dtype=int)
    for threshold in thresholds:
        labels = (split.y_train > threshold).astype(int)
        svm = SVM(kernel="precomputed", C=1.0).fit(gram, labels)
        votes += svm.predict(test_gram).astype(int)
    bins = np.searchsorted(thresholds, split.y_train, side="left")
    centres = np.array([
        np.median(split.y_train[bins == b]) if np.any(bins == b)
        else np.median(split.y_train) for b in range(4)])
    return {"gram": gram, "estimates": np.expm1(centres[votes])}


def vqc_estimate(split: Split, seed: int) -> Dict[str, Any]:
    from repro.qml import AngleEncoding, VariationalRegressor

    model = VariationalRegressor(
        AngleEncoding(split.x_train.shape[1], scaling=1.5), seed=seed,
        **VQC)
    model.fit(split.x_train, split.y_train)
    log_estimates = model.predict(split.x_test)
    return {"log_estimates": log_estimates,
            "estimates": np.expm1(np.maximum(log_estimates, 0.0))}


class QmlCardinality:
    name = "qml_cardinality"
    interleaved_tracing = True

    def __init__(self, seed: int):
        self.seed = seed
        #: Built by :meth:`setup` (input generation is set-up time).
        self.splits: List[Split] = []
        self.ops = [Op(f"{estimator}/q={4 * pairs}", index,
                       self._runner(estimator, index))
                    for index, (estimator, pairs) in enumerate(ROUND)]

    def _runner(self, estimator: str, index: int):
        if estimator == "kernel":
            return lambda _round: kernel_estimate(self.splits[index])
        return lambda _round: vqc_estimate(self.splits[index], index)

    def users(self) -> List[List[Op]]:
        return [self.ops]

    def setup(self) -> None:
        self.splits = [Split(derive_seed(self.seed, f"qml/{index}"), pairs)
                       for index, (_estimator, pairs) in enumerate(ROUND)]
        for pairs in (1, 2):
            warmup = Split(derive_seed(self.seed, f"qml/warmup{pairs}"),
                           pairs)
            kernel_estimate(warmup)
            vqc_estimate(warmup, 0)

    def check(self, results: List[Result]) -> float:
        """Fill failures; return the geometric mean q-error of every
        estimate against the row-counted true cardinalities."""
        truths: Dict[int, Tuple[np.ndarray, List[str]]] = {}
        errors = []
        for result in results:
            if result.error is not None:
                result.failures.append(f"raised {result.error!r}")
                continue
            key = result.op.key
            split = self.splits[key]
            if key not in truths:
                truths[key] = self._truths(split)
            counted, truth_failures = truths[key]
            result.failures.extend(truth_failures)
            out = result.output
            if "gram" in out:
                result.failures.extend(checks.check_gram(out["gram"]))
            else:
                result.failures.extend(checks.check_regression_range(
                    out["log_estimates"], float(split.y_train.min()),
                    float(split.y_train.max())))
            if not result.failures:
                errors.append(checks.q_errors(out["estimates"],
                                              counted[TRAIN:]))
        if not errors:
            return float("nan")
        return float(np.exp(np.mean(np.log(np.concatenate(errors)))))

    @staticmethod
    def _truths(split: Split) -> Tuple[np.ndarray, List[str]]:
        table = split.dataset.table
        columns = {name: np.asarray(table.column(name))
                   for name in split.dataset.column_order}
        counted = np.array([checks.count_rows(columns, query.predicates)
                            for query in split.dataset.queries])
        return counted, checks.check_truths(
            counted, split.dataset.cardinalities)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_self_mb()

    def install_tracing(self) -> None:
        tracing.install_quantum()

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        return tracing.RECORDER.stats()

    def close(self) -> None:
        pass
