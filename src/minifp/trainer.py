"""Adam, learning-rate schedules, splits, and :func:`fit`, the one training loop of pre-training and heads.

The schedule ramps linearly from 0 to the peak learning rate over the warmup
epochs (interpolated per step), then follows the configured decay: constant,
linear to zero, or half-cosine to zero.  Splits use a seeded shuffle with
floor rounding; the remainder goes to the test partition, so 100 molecules
under (0.92, 0.04, 0.04) split exactly into sizes (92, 4, 4).  The shuffle,
cut and sort are ``seeding.seeded_split`` on the ``"split"`` stream.

Per-epoch records are line-delimited JSON with no timestamps, so two runs
with the same seed produce byte-identical logs; wall-clock times go to a
separate timing file.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Parameter, Tape
from .backbones import ModelState, batch_graphs, forward, link_model, save_model
from .encodings import AssembledFeatures
from .inputs import InputError
from .molgraph import MolecularGraph
from .multitask import (
    LabelSet,
    LossWeights,
    TaskSpec,
    combined_loss,
    head_input,
    task_head_forward,
    task_loss,
)
from .seeding import rng_stream, seeded_split

SCHEDULES = ("constant", "linear-decay", "cosine")

#: The files :func:`pretrain` writes into ``out_dir``: the split, the best and
#: the final checkpoint, the log and the epoch timings.
PRETRAIN_FILES = ("split.json", "best.ckpt", "final.ckpt", "log.jsonl", "timing.txt")


class TooFewMolecules(InputError):
    pass


class NaNLossError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 100
    peak_lr: float = 3e-4
    warmup_epochs: int = 5
    schedule: str = "linear-decay"
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.peak_lr > 0:
            raise ValueError(f"peak learning rate must be positive, got {self.peak_lr}")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class SplitSpec:
    fractions: tuple[float, float, float] = (0.92, 0.04, 0.04)
    seed: int = 0

    def validate(self) -> None:
        if len(self.fractions) != 3 or any(f < 0 for f in self.fractions):
            raise ValueError("fractions must be three non-negative numbers")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")


def split_dataset(ids, spec: SplitSpec) -> tuple[list[int], list[int], list[int]]:
    """Seeded-shuffle partition into train/valid/test index lists.

    Sizes are floor(n * fraction) for train and valid; the remainder goes to
    test.  Partitions are disjoint, exhaustive, and deterministic per seed.
    """
    spec.validate()
    n = len(ids)
    if n < 3:
        raise TooFewMolecules(f"need at least 3 molecules to split, got {n}")
    n_train = math.floor(n * spec.fractions[0])
    n_valid = math.floor(n * spec.fractions[1])
    train, valid, test = seeded_split(n, spec.seed, "split", [n_train, n_train + n_valid])
    return train.tolist(), valid.tolist(), test.tolist()


def lr_at(fraction: float, config: TrainConfig) -> float:
    """Learning rate at a point of training, fraction in [0, 1]."""
    fraction = min(max(fraction, 0.0), 1.0)
    warm = config.warmup_epochs / config.epochs
    if fraction < warm:
        return config.peak_lr * fraction / warm
    if config.schedule == "constant" or warm >= 1.0:
        return config.peak_lr
    rest = (fraction - warm) / (1.0 - warm)
    if config.schedule == "linear-decay":
        return config.peak_lr * (1.0 - rest)
    return config.peak_lr * 0.5 * (1.0 + math.cos(math.pi * rest))


# Elements per in-place Adam chunk: the scratch buffers stay cache-sized.
_ADAM_CHUNK = 32768


class OptimizerState:
    """Adam first/second moment accumulators plus each parameter's step count.

    Also holds, per parameter dtype, two chunk-sized scratch buffers and a
    chunk of zeros that stands in for a missing gradient, so a step
    allocates nothing.
    """

    def __init__(self, params: list[Parameter], beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = {p.name: 0 for p in params}
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}
        self.scratch = {
            dtype: (np.empty(_ADAM_CHUNK, dtype), np.empty(_ADAM_CHUNK, dtype), np.zeros(_ADAM_CHUNK, dtype))
            for dtype in {p.value.dtype for p in params}
        }


def adam_step(params: list[Parameter], state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update of each of ``params`` from its current gradient.

    Each parameter's step count goes up by one and sets its bias correction,
    so stepping parameters one call at a time gives the same bits as one call
    over all of them.  Updates ``value``, ``m`` and ``v`` in place, chunk by
    chunk over their flat views, with the textbook op order, so the bits
    equal the out-of-place formula
    ``value -= lr * (m / c1) / (sqrt(v / c2) + eps)``.  A parameter whose
    ``grad`` is ``None`` steps with a zero gradient, the same bits as an
    explicit array of zeros: its moments still decay.  Raises ValueError for
    a parameter whose arrays are not C-contiguous.
    """
    beta1, beta2, eps = state.beta1, state.beta2, state.eps
    for p in params:
        arrays = (p.value, p.grad, state.m[p.name], state.v[p.name])
        if not all(a is None or a.flags.c_contiguous for a in arrays):
            raise ValueError(f"parameter {p.name!r} has an array that is not C-contiguous")
        state.steps[p.name] += 1
        t = state.steps[p.name]
        correct1 = 1.0 - beta1**t
        correct2 = 1.0 - beta2**t
        value, grad, m, v = (None if a is None else a.reshape(-1) for a in arrays)
        scratch_a, scratch_b, zeros = state.scratch[value.dtype]
        for lo in range(0, value.size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, value.size)
            g = zeros[: hi - lo] if grad is None else grad[lo:hi]
            mc, vc = m[lo:hi], v[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            mc *= beta1
            np.multiply(g, 1.0 - beta1, out=a)
            mc += a
            vc *= beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            vc += a
            np.divide(mc, correct1, out=a)
            np.divide(vc, correct2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a *= lr
            a /= b
            value[lo:hi] -= a


def backward_and_step(tape: Tape, loss, params: list[Parameter], step) -> None:
    """``tape.backward(loss)``, calling ``step([p])`` for each parameter as soon
    as its gradient is complete and dropping the gradient right after.

    So only one parameter's finished gradient lives at a time.  The parameters
    of ``params`` that backward never hands over take one ``step`` together
    afterwards, with whatever gradient they hold (none, in both trainers: a
    zero-gradient Adam step).  If backward raises, the parameters stepped so
    far stay stepped.
    """
    stepped = set()

    def ready(p: Parameter) -> None:
        step([p])
        p.zero_grad()
        stepped.add(p)

    tape.backward(loss, on_ready=ready)
    rest = [p for p in params if p not in stepped]
    if rest:
        step(rest)


def fit(params: list[Parameter], rows, config: TrainConfig, stream: str, batch_loss: Callable[..., tuple],
        end_epoch: Callable[[int, float, list, float], float], on_best: Callable[[int], None]) -> int:
    """The one training loop, of pre-training and of the downstream heads; returns
    the best epoch, or -1 when no validation value was below infinity.

    Each epoch walks ``rows`` in batches of ``config.batch_size``, in the order
    ``rng_stream(config.seed, stream, epoch)`` draws.  ``batch_loss(tape, batch,
    step)`` records one on a fresh tape and returns (loss, a record of the
    caller's); a loss that requires a gradient steps ``params`` by Adam at
    ``lr_at((step + 1) / total_steps)``, each as soon as its gradient is ready.
    ``end_epoch(epoch, lr, records, started)`` returns the epoch's validation
    value (``lr``: its last batch's rate; ``started``: ``time.perf_counter()``
    at the epoch's start), and a value below every earlier one calls
    ``on_best(epoch)``.
    """
    optimizer = OptimizerState(params)
    rows = np.asarray(rows)
    total_steps = config.epochs * max(1, math.ceil(len(rows) / config.batch_size))
    best, best_epoch, step = math.inf, -1, 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        shuffled = rows[rng_stream(config.seed, stream, epoch).permutation(len(rows))]
        records, lr = [], 0.0
        for start in range(0, len(shuffled), config.batch_size):
            lr = lr_at((step + 1) / total_steps, config)
            tape = Tape()
            loss, record = batch_loss(tape, shuffled[start : start + config.batch_size], step)
            if loss.requires_grad:
                backward_and_step(tape, loss, params, lambda ps: adam_step(ps, optimizer, lr))
            records.append(record)
            step += 1
        value = end_epoch(epoch, lr, records, started)
        if value < best:
            best, best_epoch = value, epoch
            on_best(epoch)
    return best_epoch


# -- pre-training ---------------------------------------------------------------


@dataclass
class PretrainDataset:
    """Featurized molecules plus task labels, aligned by molecule order.

    Graph-level label sets have one row per molecule; node-level label sets
    have one row per atom, concatenated in molecule order.
    """

    graphs: list[MolecularGraph]
    features: list[AssembledFeatures]
    graph_labels: dict[str, LabelSet] = field(default_factory=dict)
    node_labels: dict[str, LabelSet] = field(default_factory=dict)

    def __post_init__(self):
        counts = [g.num_atoms for g in self.graphs]
        self.node_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    def __len__(self) -> int:
        return len(self.graphs)

    def node_rows(self, molecule_indices) -> np.ndarray:
        chunks = [
            np.arange(self.node_offsets[i], self.node_offsets[i + 1]) for i in molecule_indices
        ]
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


def ensure_heads(model: ModelState, tasks: list[TaskSpec]) -> None:
    """Create any missing task heads with the level-appropriate input width."""
    cfg = model.config
    for spec in tasks:
        spec.validate()
        if spec.name in model.heads:
            continue
        in_dim = cfg.d_node if spec.level == "node" else cfg.readout_width
        model.add_task_head(spec.name, spec.level, in_dim, spec.head_output_width)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train: dict[str, float]
    valid: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(
            {"epoch": self.epoch, "lr": self.lr, "train": self.train, "valid": self.valid},
            sort_keys=True,
        )


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_valid: float = math.inf

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(record.to_json() + "\n")
            fh.write(json.dumps({"best_epoch": self.best_epoch, "best_valid": self.best_valid}, sort_keys=True) + "\n")


def _losses_for_batch(
    tape: Tape,
    model: ModelState,
    dataset: PretrainDataset,
    tasks: list[TaskSpec],
    molecule_indices: np.ndarray,
    weights: LossWeights,
    training: bool,
    step: int,
    collect_predictions: dict[str, list] | None = None,
):
    graphs = [dataset.graphs[i] for i in molecule_indices]
    feats = [dataset.features[i] for i in molecule_indices]
    batch = batch_graphs(graphs, feats, dtype=model.config.np_dtype)
    result = forward(tape, batch, model, training=training, step=step)
    node_rows = dataset.node_rows(molecule_indices)

    group_terms: dict[str, list] = {}
    for spec in tasks:
        if spec.level == "graph":
            labels = dataset.graph_labels[spec.name].rows(np.asarray(molecule_indices))
        else:
            labels = dataset.node_labels[spec.name].rows(node_rows)
        if labels.present == 0:
            continue
        emb = head_input(tape, result, batch, model, spec)
        pred = task_head_forward(tape, model, spec.name, emb)
        loss = task_loss(tape, spec, pred, labels)
        value = float(loss.data)
        if not math.isfinite(value):
            raise NaNLossError(
                f"non-finite loss for task {spec.name!r} in group {spec.group!r} at step {step}"
            )
        group_terms.setdefault(spec.group, []).append(loss)
        if collect_predictions is not None:
            collect_predictions.setdefault(spec.name, []).append((pred.data.copy(), labels))

    group_losses = {}
    for group, terms in group_terms.items():
        total = terms[0]
        for term in terms[1:]:
            total = tape.add(total, term)
        group_losses[group] = tape.scale(total, 1.0 / len(terms)) if len(terms) > 1 else total
    total = combined_loss(tape, group_losses, weights)
    group_values = {g: float(t.data) for g, t in group_losses.items()}
    return total, {**group_values, "total": float(total.data)}


def _epoch_summary(per_batch: list[tuple[dict[str, float], int]]) -> dict[str, float]:
    """Weighted mean of per-group losses and of the total over batches (weights =
    batch sizes); a group counts only the batches it has labels in.  No batch: a total of 0."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for values, size in per_batch:
        for group, value in values.items():
            sums[group] = sums.get(group, 0.0) + value * size
            counts[group] = counts.get(group, 0) + size
    return dict(sorted({"total": 0.0, **{g: sums[g] / counts[g] for g in sums}}.items()))


def evaluate(
    model: ModelState,
    dataset: PretrainDataset,
    tasks: list[TaskSpec],
    indices,
    weights: LossWeights,
    batch_size: int,
) -> dict[str, float]:
    """Per-group (and total) losses over a molecule index list, dropout off.

    Binary tasks additionally report a pooled AUROC over every masked-in
    label entry, under the key ``auroc_<task>`` (omitted when the evaluated
    labels are single-class).
    """
    from .downstream import auroc  # here: downstream imports this module

    per_batch = []
    predictions: dict[str, list] = {}
    indices = np.asarray(indices)
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        tape = Tape(recording=False)
        _, group_values = _losses_for_batch(
            tape, model, dataset, tasks, chunk, weights, training=False, step=0,
            collect_predictions=predictions,
        )
        per_batch.append((group_values, len(chunk)))
    summary = _epoch_summary(per_batch)
    for spec in tasks:
        if spec.kind != "binary" or spec.name not in predictions:
            continue
        logits = np.concatenate([p for p, _ in predictions[spec.name]], axis=0)
        values = np.concatenate([l.values for _, l in predictions[spec.name]], axis=0)
        mask = np.concatenate([l.mask for _, l in predictions[spec.name]], axis=0) > 0
        labels = values[mask]
        if labels.size == 0 or labels.min() == labels.max():
            continue
        summary[f"auroc_{spec.name}"] = auroc(logits[mask], labels)
    return dict(sorted(summary.items()))


def pretrain(
    dataset: PretrainDataset,
    model: ModelState,
    tasks: list[TaskSpec],
    config: TrainConfig,
    out_dir=None,
    split: SplitSpec | None = None,
    weights: LossWeights | None = None,
) -> TrainingLog:
    """Full pre-training loop with best-by-validation checkpointing.

    Per epoch: one pass over seeded-shuffled training batches optimizing the
    combined loss, then a validation pass.  The checkpoint with the lowest
    validation total and the final checkpoint are both saved when ``out_dir``
    is given; when the last epoch is the best, ``final.ckpt`` is a hard link
    to ``best.ckpt`` (a copy where links are refused).  An empty validation
    split falls back to the training loss for best-epoch selection.  A
    non-finite task loss aborts with the offending group named.
    """
    config.validate()
    weights = weights or LossWeights()
    split = split or SplitSpec(seed=config.seed)
    ensure_heads(model, tasks)

    train_idx, valid_idx, test_idx = split_dataset(list(range(len(dataset))), split)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        split_file, best, final, log_file, timing_file = (out_path / name for name in PRETRAIN_FILES)
        with open(split_file, "w", encoding="utf-8") as fh:
            json.dump({"train": train_idx, "valid": valid_idx, "test": test_idx}, fh, sort_keys=True)
            fh.write("\n")

    log = TrainingLog()
    timings: list[float] = []

    def batch_loss(tape: Tape, chunk: np.ndarray, step: int):
        total, group_values = _losses_for_batch(tape, model, dataset, tasks, chunk, weights, training=True, step=step)
        return total, (group_values, len(chunk))

    def end_epoch(epoch: int, lr: float, per_batch: list, started: float) -> float:
        train_summary = _epoch_summary(per_batch)
        if valid_idx:
            valid_summary = evaluate(model, dataset, tasks, valid_idx, weights, config.batch_size)
        else:
            valid_summary = dict(train_summary)
        log.records.append(EpochRecord(epoch=epoch, lr=lr, train=train_summary, valid=valid_summary))
        timings.append(time.perf_counter() - started)
        return valid_summary["total"]

    def on_best(epoch: int) -> None:
        log.best_epoch, log.best_valid = epoch, log.records[-1].valid["total"]
        if out_path is not None:
            save_model(model, best)

    fit(model.parameters(), train_idx, config, "batch-order", batch_loss, end_epoch, on_best)

    if out_path is not None:
        if log.best_epoch == config.epochs:
            link_model(best, final)  # the same weights: no second write
        else:
            save_model(model, final)
        log.write_jsonl(log_file)
        with open(timing_file, "w", encoding="utf-8") as fh:
            for epoch, seconds in enumerate(timings, start=1):
                fh.write(f"epoch {epoch}: {seconds:.3f}s\n")
    return log
