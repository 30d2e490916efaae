"""Downstream task heads on fingerprints: training, sweeps, ensembling, metrics.

A task is one :class:`TaskData`: a feature matrix, gathered from a
fingerprint store once by the caller, its labels and its kind (binary or
regression).  A head is a plain MLP over rows of that matrix, trained by
``trainer.fit``, the loop pre-training also runs.  The caller picks every
row: each function here trains and scores on the rows it is given.
Hyperparameter sweeps evaluate every grid point on one fixed seed and
return the config with the smallest validation loss (ties broken
lexicographically on the config tuple, so the argmin is
enumeration-order independent).

The ensembling procedure: per repetition, re-partition the training ids
into num_folds folds, train one model per fold with best-epoch selection on
its held-out fold, average the fold models' outputs (post-sigmoid for
classification) for the ensemble prediction, and report mean and standard
deviation of validation/test scores across repetitions.

Sweep configs and fold heads are independent, so both train in a ``fork``
process pool of up to one worker per available core (:func:`_run_tasks`),
each worker on one BLAS thread: their bits do not depend on how many cores
there are.  The workers read the task's matrix copy-on-write.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import warnings
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Parameter, Tape, _one_blas_thread, worker_count
from .backbones import glorot_uniform
from .inputs import InputError
# hce_loss stays importable here: perfbench/instrument.py traces every loss in this module.
from .multitask import LabelSet, bce_loss, hce_loss, mae_loss  # noqa: F401
from .seeding import derive_seed, rng_stream, seeded_split
# adam_step stays importable here: perfbench/instrument.py traces it in this module.
from .trainer import SCHEDULES, TrainConfig, adam_step, fit  # noqa: F401


class MissingFingerprint(InputError, KeyError):
    """A labelled id the store lacks; its text is quoted, as a KeyError's is."""


class FoldTooSmall(InputError):
    pass


class SingleClass(InputError):
    pass


class ZeroVariance(InputError):
    pass


class TooFewRuns(InputError):
    pass


class InvalidHeadConfig(InputError):
    pass


# -- configs --------------------------------------------------------------------


@dataclass(frozen=True)
class HeadConfig:
    hidden_dim: int = 1024
    num_layers: int = 3
    dropout: float = 0.1
    skip_connection: bool = False
    learning_rate: float = 3e-4
    epochs: int = 25
    warmup_epochs: int = 0
    schedule: str = "constant"
    batch_size: int = 128

    def validate(self) -> None:
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise InvalidHeadConfig("hidden_dim and num_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidHeadConfig(f"dropout must be in [0, 1), got {self.dropout}")
        try:
            self.schedule_config().validate()
        except ValueError as exc:
            raise InvalidHeadConfig(str(exc)) from exc

    def schedule_config(self) -> TrainConfig:
        """The learning-rate schedule and batch size of this head as a TrainConfig."""
        return TrainConfig(
            epochs=self.epochs,
            peak_lr=self.learning_rate,
            warmup_epochs=self.warmup_epochs,
            schedule=self.schedule,
            batch_size=self.batch_size,
        )


def config1_space() -> list[HeadConfig]:
    """Preset 1: learning-rate grid only; 25 epochs, dropout 0.1, hidden 1024, 3 layers."""
    rates = (0.001, 0.0005, 0.0003, 0.0001, 5e-5)
    return [
        HeadConfig(hidden_dim=1024, num_layers=3, dropout=0.1, learning_rate=lr, epochs=25)
        for lr in rates
    ]


def config2_space() -> list[HeadConfig]:
    """Preset 2: the full grid over skip, lr, width, depth, dropout, warmup, schedule."""
    return [
        HeadConfig(
            hidden_dim=hidden,
            num_layers=layers,
            dropout=dropout,
            skip_connection=skip,
            learning_rate=lr,
            epochs=25,
            warmup_epochs=warmup,
            schedule=schedule,
        )
        for skip, lr, hidden, layers, dropout, warmup, schedule in itertools.product(
            (True, False),
            (0.0005, 0.0003, 0.0001),
            (512, 1024, 2048),
            (3, 4),
            (0.0, 0.1),
            (0, 5),
            SCHEDULES,
        )
    ]


SWEEP_PRESETS = {"config1": config1_space, "config2": config2_space}


# -- task data ------------------------------------------------------------------


@dataclass
class TaskData:
    """One downstream task: an (n, d) float32 feature matrix, row i labelled by row i of ``labels``."""

    features: np.ndarray
    labels: LabelSet
    kind: str = "binary"  # binary | regression

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.kind not in ("binary", "regression"):
            raise ValueError(f"a head task is binary or regression, not {self.kind!r}")
        if self.features.ndim != 2 or len(self.features) != len(self.labels.values):
            raise ValueError(f"features {self.features.shape} do not have one row per label row "
                             f"({len(self.labels.values)})")


def gather_fingerprints(store, ids) -> np.ndarray:
    """The (len(ids), dimension) matrix of the store's vectors for ``ids``, in that order."""
    missing = [i for i in ids if i not in store]
    if missing:
        raise MissingFingerprint(f"ids absent from store: {missing[:10]}")
    return store.matrix(ids)


def holdout_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 (train, test) split, ``minifp downstream``'s when no split files are given."""
    train, test = seeded_split(n, seed, "downstream-split", [max(1, int(round(n * 0.8)))])
    return train, test


# -- the head model ---------------------------------------------------------------


class TrainedHead:
    """MLP over fingerprints; num_layers hidden layers then a linear readout."""

    def __init__(self, config: HeadConfig, in_dim: int, out_dim: int, kind: str, seed: int):
        config.validate()
        self.config = config
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kind = kind
        self.seed = seed
        self.val_curve: list[float] = []
        self.best_epoch = -1
        # The logits of the validation pass at best_epoch, when train_head ran one on these weights.
        self.valid_logits: np.ndarray | None = None
        self.params = [Parameter(name, value) for name, value in self.initial_weights()]
        self._by_name = {p.name: p for p in self.params}

    def initial_weights(self):
        """(name, float32 array) of each parameter as the head's seed draws it, one at a time."""
        init = rng_stream(self.seed, "head-params")
        names = [f"h{layer}" for layer in range(self.config.num_layers)] + ["out"]
        widths = [self.in_dim] + [self.config.hidden_dim] * self.config.num_layers + [self.out_dim]
        for name, fan_in, fan_out in zip(names, widths, widths[1:]):
            yield f"{name}/w", glorot_uniform(init, fan_in, fan_out, np.float32)
            yield f"{name}/b", np.zeros(fan_out, dtype=np.float32)

    def forward(self, tape: Tape, x: np.ndarray, training: bool, step: int = 0):
        cfg = self.config
        h = tape.constant(np.asarray(x, dtype=np.float32))
        for layer in range(cfg.num_layers):
            a = tape.linear_relu(
                h, tape.watch(self._by_name[f"h{layer}/w"]), tape.watch(self._by_name[f"h{layer}/b"])
            )
            a = tape.dropout(a, cfg.dropout, (self.seed, layer, step), training)
            h = tape.add(a, h) if cfg.skip_connection and a.data.shape == h.data.shape else a
        return tape.linear(h, tape.watch(self._by_name["out/w"]), tape.watch(self._by_name["out/b"]))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Probabilities for classification, raw values for regression."""
        return self.activate(self.forward(Tape(recording=False), x, training=False).data)

    def activate(self, logits: np.ndarray) -> np.ndarray:
        """:meth:`predict`'s output from the head's logits."""
        return 1.0 / (1.0 + np.exp(-logits)) if self.kind == "binary" else logits

    def snapshot(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params]

    def restore(self, snapshot: Iterable[np.ndarray]) -> None:
        for p, value in zip(self.params, snapshot):
            p.value[...] = value


def _head_loss(tape: Tape, head: TrainedHead, pred, labels: LabelSet):
    return (bce_loss if head.kind == "binary" else mae_loss)(tape, pred, labels)


def train_head(data: TaskData, config: HeadConfig, seed: int, train_idx, valid_idx) -> TrainedHead:
    """Train one MLP head with Adam under the config schedule.

    The returned head carries its per-epoch validation losses and holds the
    weights of its best-validation epoch, and the logits that epoch's
    validation pass gave (``valid_logits``); if no epoch's loss is below
    infinity (every one NaN, say), ``best_epoch`` stays -1 and the head holds
    its initial weights.  It trains on the rows ``train_idx`` of ``data`` and
    validates on ``valid_idx``; with no validation rows, an epoch's mean
    training loss stands in for its validation loss.
    """
    config.validate()
    features = data.features
    train_idx = np.asarray(train_idx, dtype=np.int64)
    valid_idx = np.asarray(valid_idx, dtype=np.int64)

    head = TrainedHead(config, features.shape[1], data.labels.values.shape[1], data.kind, seed)
    latest_logits = None  # the logits of the last validation pass
    best_snapshot = None  # the weights of the best epoch, when it is not the last

    def batch_loss(tape: Tape, rows: np.ndarray, step: int):
        pred = head.forward(tape, features[rows], training=True, step=step)
        loss = _head_loss(tape, head, pred, data.labels.rows(rows))
        return loss, float(loss.data)

    def end_epoch(epoch: int, lr: float, losses: list[float], started: float) -> float:
        nonlocal latest_logits
        if len(valid_idx):
            tape = Tape(recording=False)
            pred = head.forward(tape, features[valid_idx], training=False)
            val = float(_head_loss(tape, head, pred, data.labels.rows(valid_idx)).data)
            latest_logits = pred.data
        else:
            val = float(np.mean(losses)) if losses else 0.0
        head.val_curve.append(val)
        return val

    def on_best(epoch: int) -> None:
        nonlocal best_snapshot
        head.valid_logits = latest_logits
        best_snapshot = None  # before the next copy is made
        if epoch < config.epochs:
            best_snapshot = head.snapshot()

    schedule = replace(config.schedule_config(), seed=seed)
    head.best_epoch = fit(head.params, train_idx, schedule, "head-batches", batch_loss, end_epoch, on_best)
    if head.best_epoch == -1:
        head.restore(value for _, value in head.initial_weights())
    elif best_snapshot is not None:
        head.restore(best_snapshot)
    return head


# -- metrics ---------------------------------------------------------------------


def average_ranks(values) -> np.ndarray:
    """1-based ranks of the flattened ``values``, each tie group given its mean
    rank; any NaN makes every rank NaN.

    The ranks are integers or halves, so they equal
    ``scipy.stats.rankdata(values, method="average")`` bit for bit.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Area under the ROC curve via the midrank statistic (tie-aware)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUROC needs both classes present")
    ranks = average_ranks(scores)
    pos_sum = ranks[labels == 1].sum()
    return float((pos_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Area under the precision-recall curve by step integration over thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0 or int((labels == 0).sum()) == 0:
        raise SingleClass("AUPRC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # The last row of each run of equal scores ends a threshold; NaNs never equal, so each is its own.
    ends = np.flatnonzero(np.r_[sorted_scores[1:] != sorted_scores[:-1], True])
    tp = np.cumsum(sorted_labels == 1)[ends]
    fp = np.cumsum(sorted_labels == 0)[ends]
    recall = tp / n_pos
    # Summed in threshold order, one term at a time: np.sum's pairwise order rounds differently.
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tp / (tp + fp)))[-1])


def mae(pred, labels) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.abs(pred - labels).mean())


def _spearman_ranks(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Midranks of two equal-length vectors of >= 3 values, neither constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be equal-length vectors, got {x.shape} and {y.shape}")
    n = len(x)
    if n < 3:
        raise TooFewRuns(f"need at least 3 observations, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ZeroVariance("an input has zero variance")
    return average_ranks(x), average_ranks(y)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def spearman(x, y) -> float:
    """Spearman's rho alone: the Pearson correlation of midrank-transformed values."""
    return _pearson(*_spearman_ranks(x, y))


def spearman_rho(x, y) -> tuple[float, float]:
    """Spearman correlation with a two-sided p-value.

    rho is :func:`spearman`.  The p-value is exact (all n! rank permutations)
    for n <= 8 and uses the Student-t approximation with n-2 degrees of
    freedom otherwise.
    """
    rx, ry = _spearman_ranks(x, y)
    n = len(rx)
    rho = _pearson(rx, ry)

    if n <= 8:
        # Centred midranks are multiples of 1/2, so every sum below is exact in any order.
        rxc = rx - rx.mean()
        ryc = ry - ry.mean()
        perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.intp)
        r = (ryc[perms.reshape(-1, n)] @ rxc) / (math.sqrt((rxc * rxc).sum()) * math.sqrt((ryc * ryc).sum()))
        return rho, int(np.count_nonzero(np.abs(r) >= abs(rho) - 1e-12)) / math.factorial(n)

    if abs(rho) >= 1.0 - 1e-15:
        return rho, 0.0
    # Imported here, the module's one use of scipy: stdtr(df, -|t|) is the upper tail at |t|.
    from scipy.special import stdtr

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, min(p, 1.0)


METRICS = {
    "auroc": (auroc, True),
    "auprc": (auprc, True),
    "mae": (mae, False),
    "spearman": (spearman, True),
}


def compute_metric(name: str, pred: np.ndarray, labels: np.ndarray) -> float:
    fn, _ = METRICS[name]
    return fn(np.asarray(pred).ravel(), np.asarray(labels).ravel())


# -- independent tasks in a fork process pool --------------------------------------


def _outcome(task: Callable[[], object]):
    """Run ``task``: (raised, its result or exception, the warnings it issued, wall seconds)."""
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, raised = task(), False
        except Exception as exc:
            value, raised = exc, True
    issued = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return raised, value, issued, time.perf_counter() - started


_inherited_tasks: list = []  # a pool worker's copy of the tasks, set by _inherit_tasks


def _inherit_tasks(tasks: list) -> None:
    """A pool worker's initializer: keep the task list it inherited."""
    global _inherited_tasks
    _inherited_tasks = tasks


def _run_inherited(index: int):
    return _outcome(_inherited_tasks[index])


def _run_tasks(tasks: list[Callable[[], object]]) -> Iterator[tuple[object, float]]:
    """Run independent tasks; yield each one's result and wall seconds, in task order.

    Every task runs on one BLAS thread.  With :func:`worker_count` > 1 the
    tasks run in a ``fork`` process pool while the caller waits, the pool's
    whole life inside one :func:`_one_blas_thread` region: each worker
    inherits the one-thread count and the tasks' closures and data, so they
    are never pickled, and only each task's outcome comes back.  Every
    worker has exited before the first result is yielded.  A task's
    exception is raised here, and the warnings each task issued are issued
    here, both in task order; a worker that dies raises
    ``BrokenProcessPool``, a ``RuntimeError``.  With one worker the tasks
    run here, one per ``next``, the caller's BLAS thread count restored
    after each; without OpenBLAS thread control, on the caller's BLAS
    threads.
    """
    workers = worker_count(len(tasks))
    if workers == 1:
        for task in tasks:
            with _one_blas_thread():
                started = time.perf_counter()
                result = task()
            yield result, time.perf_counter() - started
        return
    import concurrent.futures
    import multiprocessing

    with _one_blas_thread(), concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit_tasks,
        initargs=(tasks,),
    ) as pool:
        outcomes = list(pool.map(_run_inherited, range(len(tasks))))
    registry: dict = {}
    for raised, value, issued, seconds in outcomes:
        for category, text, filename, lineno in issued:
            warnings.warn_explicit(text, category, filename, lineno, registry=registry)
        if raised:
            raise value
        yield value, seconds


# -- sweeping and ensembling -------------------------------------------------------


@dataclass
class SweepRow:
    config: HeadConfig
    val_curve: list[float]
    best_epoch: int
    seconds: float = field(default=0.0, compare=False)  # wall time of its training

    @property
    def val_loss(self) -> float:
        return min(self.val_curve)


def sweep(
    configs: list[HeadConfig], data: TaskData, seed: int, train_idx, valid_idx
) -> tuple[HeadConfig, list[SweepRow]]:
    """Train every config on the rows ``train_idx`` with one fixed seed;
    the smallest loss on the rows ``valid_idx`` wins.

    The returned argmin is canonical: ties break on the lexicographic config
    tuple, so enumeration order cannot change the winner.
    """
    if not configs:
        raise ValueError("sweep has no configs")

    def evaluate(config: HeadConfig) -> tuple[list[float], int]:
        head = train_head(data, config, seed, train_idx, valid_idx)
        return head.val_curve, head.best_epoch

    trained = _run_tasks([functools.partial(evaluate, config) for config in configs])
    rows = [
        SweepRow(config=config, val_curve=curve, best_epoch=best_epoch, seconds=seconds)
        for config, ((curve, best_epoch), seconds) in zip(configs, trained)
    ]
    best = min(rows, key=lambda r: (r.val_loss, astuple(r.config)))
    return best.config, rows


def check_ensemble_counts(num_rows: int, num_folds: int, num_reps: int = 1) -> None:
    """Raise :class:`TooFewRuns` or :class:`FoldTooSmall` unless ``num_reps``
    repetitions of ``num_folds`` folds over ``num_rows`` training rows can run."""
    if num_reps < 1:
        raise TooFewRuns(f"need at least 1 repetition, got {num_reps}")
    if num_folds < 2:
        raise FoldTooSmall(f"need at least 2 folds, got {num_folds}")
    if num_rows < num_folds:
        raise FoldTooSmall(f"cannot split {num_rows} examples into {num_folds} folds")


def kfold_partition(n: int, num_folds: int, seed: int) -> list[np.ndarray]:
    """Disjoint, exhaustive, seed-deterministic folds of range(n)."""
    check_ensemble_counts(n, num_folds)
    return seeded_split(n, seed, "kfold", num_folds)


def _mean_output(outputs: Iterable[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of member outputs, accumulated in float64.

    Members are added one at a time in order, so only the running sum and
    one output are held.  Identical members reproduce the single member's
    output exactly.
    """
    total, count = None, 0
    for out in outputs:
        if total is None:
            total = np.array(out, dtype=np.float64)
        else:
            total += out
        count += 1
    if total is None:
        raise ValueError("an ensemble needs at least one member")
    return total / count


@dataclass
class RepetitionResult:
    seed: int
    fold_val_scores: list[float]
    val_score: float
    test_score: float
    fold_seconds: list[float] = field(default_factory=list, compare=False)  # wall time of each fold head


@dataclass
class EnsembleResult:
    metric: str
    higher_is_better: bool
    num_folds: int
    repetitions: list[RepetitionResult] = field(default_factory=list)

    @property
    def val_mean(self) -> float:
        return float(np.mean([r.val_score for r in self.repetitions]))

    @property
    def val_std(self) -> float:
        return float(np.std([r.val_score for r in self.repetitions]))

    @property
    def test_mean(self) -> float:
        return float(np.mean([r.test_score for r in self.repetitions]))

    @property
    def test_std(self) -> float:
        return float(np.std([r.test_score for r in self.repetitions]))

    def summary(self) -> dict:
        return {
            "metric": self.metric,
            "num_folds": self.num_folds,
            "num_reps": len(self.repetitions),
            "val_mean": self.val_mean,
            "val_std": self.val_std,
            "test_mean": self.test_mean,
            "test_std": self.test_std,
        }


def kfold_ensemble(
    data: TaskData,
    config: HeadConfig,
    train_rows,
    test_rows,
    num_folds: int = 5,
    num_reps: int = 5,
    metric: str = "auroc",
    seed: int = 0,
) -> EnsembleResult:
    """Fold-ensemble evaluation: per repetition, one model per fold of
    ``train_rows`` (best epoch by validation loss), ensemble = mean of
    fold-model outputs, metrics on validation (mean over held-out folds) and
    on ``test_rows``.

    Every fold head of every repetition is a task of one :func:`_run_tasks`
    call, spread over :func:`worker_count` pool workers; each worker holds
    one head at a time, which lives only while it trains and predicts.  Only
    its held-out score and its test predictions come back to the caller,
    which holds no head unless it is the one worker."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    train_rows = np.asarray(train_rows, dtype=np.int64)
    test_rows = np.asarray(test_rows, dtype=np.int64)
    check_ensemble_counts(len(train_rows), num_folds, num_reps)
    if num_reps == 1:
        warnings.warn("std over a single repetition is reported as 0", stacklevel=2)
    partitions = []
    for rep in range(num_reps):
        rep_seed = derive_seed(seed, "ensemble-rep", rep)
        partitions.append((rep_seed, kfold_partition(len(train_rows), num_folds, rep_seed)))

    def fold_head(rep_seed: int, folds: list[np.ndarray], fold_id: int) -> tuple[float, np.ndarray]:
        held_out = train_rows[folds[fold_id]]
        train_part = train_rows[np.concatenate([f for j, f in enumerate(folds) if j != fold_id])]
        head = train_head(data, config, rep_seed + fold_id, train_part, held_out)
        # The best epoch's validation pass ran these weights on these rows already.
        logits = head.valid_logits
        pred = head.predict(data.features[held_out]) if logits is None else head.activate(logits)
        return compute_metric(metric, pred, data.labels.values[held_out]), head.predict(data.features[test_rows])

    trained = _run_tasks([
        functools.partial(fold_head, rep_seed, folds, fold_id)
        for rep_seed, folds in partitions
        for fold_id in range(num_folds)
    ])
    result = EnsembleResult(metric=metric, higher_is_better=METRICS[metric][1], num_folds=num_folds)
    for rep_seed, _ in partitions:
        outputs = list(itertools.islice(trained, num_folds))  # ((held-out score, test predictions), seconds)
        fold_scores = [score for (score, _), _ in outputs]
        test_pred = _mean_output(pred for (_, pred), _ in outputs)
        test_score = compute_metric(metric, test_pred, data.labels.values[test_rows])
        result.repetitions.append(
            RepetitionResult(
                seed=rep_seed,
                fold_val_scores=fold_scores,
                val_score=float(np.mean(fold_scores)),
                test_score=test_score,
                fold_seconds=[seconds for _, seconds in outputs],
            )
        )
    return result


# -- correlation analysis -----------------------------------------------------------


@dataclass
class CorrelationTable:
    """Signed Spearman correlations with a significance mask (p < threshold)."""

    row_names: list[str]
    col_names: list[str]
    values: np.ndarray  # signed rho, (rows, cols)
    p_values: np.ndarray
    significant: np.ndarray  # bool mask


def correlation_analysis(
    pretrain_metrics: np.ndarray,
    downstream_metrics: np.ndarray,
    pretrain_signs: list[int],
    downstream_signs: list[int],
    pretrain_names: list[str] | None = None,
    downstream_names: list[str] | None = None,
    p_threshold: float = 0.1,
) -> CorrelationTable:
    """Sign-adjusted Spearman table over paired runs.

    Signs are +1 for higher-is-better metrics and -1 otherwise; each entry is
    rho * sign_pre * sign_down, masked as non-significant when p >= threshold.
    A NaN marks a metric a run did not report: each entry correlates the runs
    that report both metrics, and fewer than 3 such runs raise TooFewRuns.
    """
    pre = np.asarray(pretrain_metrics, dtype=np.float64)
    down = np.asarray(downstream_metrics, dtype=np.float64)
    if pre.ndim != 2 or down.ndim != 2 or pre.shape[0] != down.shape[0]:
        raise ValueError("metric matrices must be 2-D with equal run counts")
    if pre.shape[0] < 3:
        raise TooFewRuns(f"need >= 3 paired runs, got {pre.shape[0]}")
    if len(pretrain_signs) != pre.shape[1] or len(downstream_signs) != down.shape[1]:
        raise ValueError("one sign per metric column required")
    rows, cols = pre.shape[1], down.shape[1]
    row_names = pretrain_names or [f"pretrain_{i}" for i in range(rows)]
    col_names = downstream_names or [f"downstream_{j}" for j in range(cols)]
    values = np.zeros((rows, cols))
    p_values = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            both = ~np.isnan(pre[:, i]) & ~np.isnan(down[:, j])
            if both.sum() < 3:
                raise TooFewRuns(
                    f"{row_names[i]} and {col_names[j]} are reported together by {both.sum()} runs, need >= 3"
                )
            rho, p = spearman_rho(pre[both, i], down[both, j])
            values[i, j] = rho * pretrain_signs[i] * downstream_signs[j]
            p_values[i, j] = p
    return CorrelationTable(
        row_names=row_names,
        col_names=col_names,
        values=values,
        p_values=p_values,
        significant=p_values < p_threshold,
    )
