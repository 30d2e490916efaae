"""Task heads, per-task masked losses, and the combined pre-training loss.

Loss assignment follows the task kind: MAE for regression, binary
cross-entropy for binary labels, and a multiclass cross-entropy standing in
for the hybrid cross-entropy (the cited HCE is not reproduced here; swap in
a replacement through the same interface if one is needed).

The combined objective adds the per-group losses with the G25 group scaled
by 1/k (k = 5 by default, countering that group's label imbalance).  Groups
with no labels present in a batch contribute exactly zero.  All losses are
masked means: a masked-out label can never influence the value or any
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatch, Tape, Tensor
from .backbones import ForwardResult, GraphBatch, ModelState, graph_readout, mlp_forward
from .inputs import InputError

TASK_GROUPS = ("L1000", "PCBA", "N4", "G25", "custom")
GROUP_ORDER = ("L1000", "PCBA", "N4", "G25")

LOSS_FOR_KIND = {"regression": "MAE", "binary": "BCE", "multiclass": "HCE"}


class ClassOutOfRange(InputError):
    pass


@dataclass
class TaskSpec:
    name: str
    level: str  # "node" | "graph"
    kind: str  # "regression" | "binary" | "multiclass"
    loss: str  # "MAE" | "BCE" | "HCE"
    label_width: int
    group: str = "custom"
    num_classes: int = 2

    def validate(self) -> None:
        if self.level not in ("node", "graph"):
            raise ValueError(f"task {self.name}: unknown level {self.level!r}")
        if self.kind not in LOSS_FOR_KIND:
            raise ValueError(f"task {self.name}: unknown kind {self.kind!r}")
        if self.loss != LOSS_FOR_KIND[self.kind]:
            raise ValueError(
                f"task {self.name}: loss {self.loss} does not match kind {self.kind}"
            )
        if self.label_width < 1:
            raise ValueError(f"task {self.name}: label_width must be >= 1")
        if self.group not in TASK_GROUPS:
            raise ValueError(f"task {self.name}: unknown group {self.group!r}")
        if self.kind == "multiclass" and self.num_classes < 2:
            raise ValueError(f"task {self.name}: multiclass needs num_classes >= 2")

    @property
    def head_output_width(self) -> int:
        if self.kind == "multiclass":
            return self.label_width * self.num_classes
        return self.label_width


@dataclass
class LabelSet:
    """Dense label matrix plus a same-shape presence mask."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.values.shape != self.mask.shape:
            raise ShapeMismatch(
                f"labels {self.values.shape} and mask {self.mask.shape} differ"
            )

    def rows(self, idx: np.ndarray) -> "LabelSet":
        return LabelSet(self.values[idx], self.mask[idx])

    @property
    def present(self) -> float:
        return float(self.mask.sum())


@dataclass
class LossWeights:
    """Scaling constants: the G25 group enters the total as (1/k) * loss."""

    k: float = 5.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("k must be positive")


def task_head_forward(tape: Tape, state: ModelState, name: str, embedding: Tensor) -> Tensor:
    """Two-layer MLP head: raw logits for classification, raw values for regression."""
    if embedding.data.shape[1] != state.heads[name].in_dim:
        raise ShapeMismatch(
            f"head {name}: embedding width {embedding.data.shape[1]} != {state.heads[name].in_dim}"
        )
    return mlp_forward(tape, state, f"head/{name}", embedding)


def head_input(
    tape: Tape, result: ForwardResult, batch: GraphBatch, state: ModelState, spec: TaskSpec
) -> Tensor:
    """Embedding rows a head reads: x^final for node tasks, the model's
    :func:`~minifp.backbones.graph_readout` for graph tasks."""
    if spec.level == "node":
        return result.x
    return graph_readout(tape, result, batch, state.config)


def _check_shapes(pred: Tensor, labels: LabelSet, expect_cols: int | None = None) -> None:
    rows = labels.values.shape[0]
    if pred.data.shape[0] != rows:
        raise ShapeMismatch(f"predictions {pred.data.shape} vs labels {labels.values.shape}")
    if expect_cols is None and pred.data.shape[1] != labels.values.shape[1]:
        raise ShapeMismatch(f"predictions {pred.data.shape} vs labels {labels.values.shape}")
    if expect_cols is not None and pred.data.shape[1] != expect_cols:
        raise ShapeMismatch(f"predictions {pred.data.shape}, expected {expect_cols} columns")


def mae_loss(tape: Tape, pred: Tensor, labels: LabelSet) -> Tensor:
    """Mean absolute error over mask-present entries; 0 when nothing is present."""
    _check_shapes(pred, labels)
    dtype = pred.data.dtype
    values = labels.values.astype(dtype)
    mask = labels.mask.astype(dtype)
    denom = max(labels.present, 1.0)
    diff = pred.data - values
    out = np.asarray((np.abs(diff) * mask).sum() / denom, dtype=dtype)

    def backward(g):
        return [g * np.sign(diff) * mask / denom]

    return tape.custom(out, [pred], backward)


def bce_loss(tape: Tape, logits: Tensor, labels: LabelSet) -> Tensor:
    """Masked-mean binary cross-entropy on logits, in the stable softplus form."""
    _check_shapes(logits, labels)
    dtype = logits.data.dtype
    y = labels.values.astype(dtype)
    mask = labels.mask.astype(dtype)
    denom = max(labels.present, 1.0)
    z = logits.data
    elementwise = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray((elementwise * mask).sum() / denom, dtype=dtype)
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return [g * (sig - y) * mask / denom]

    return tape.custom(out, [logits], backward)


def hce_loss(tape: Tape, logits: Tensor, labels: LabelSet, num_classes: int) -> Tensor:
    """Multiclass cross-entropy over C classes (documented HCE stand-in).

    ``logits`` has one block of ``num_classes`` columns per label column;
    label values are class indices.
    """
    rows, width = labels.values.shape
    _check_shapes(logits, labels, expect_cols=width * num_classes)
    dtype = logits.data.dtype
    mask = labels.mask.astype(dtype)
    denom = max(labels.present, 1.0)

    classes = labels.values.astype(np.int64)
    active = labels.mask > 0
    if active.any():
        present = classes[active]
        if present.min() < 0 or present.max() >= num_classes:
            raise ClassOutOfRange(
                f"class index outside [0, {num_classes}) among masked-in labels"
            )
    classes = np.where(active, classes, 0)

    z = logits.data.reshape(rows, width, num_classes)
    z_max = z.max(axis=2, keepdims=True)
    shifted = z - z_max
    log_norm = np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    log_probs = shifted - log_norm
    r_idx, w_idx = np.indices((rows, width))
    picked = log_probs[r_idx, w_idx, classes]
    out = np.asarray((-picked * mask).sum() / denom, dtype=dtype)

    softmax = np.exp(log_probs)
    onehot = np.zeros_like(softmax)
    onehot[r_idx, w_idx, classes] = 1.0

    def backward(g):
        grad = (softmax - onehot) * mask[:, :, None] / denom
        return [g * grad.reshape(rows, width * num_classes)]

    return tape.custom(out, [logits], backward)


def task_loss(tape: Tape, spec: TaskSpec, pred: Tensor, labels: LabelSet) -> Tensor:
    if spec.loss == "MAE":
        return mae_loss(tape, pred, labels)
    if spec.loss == "BCE":
        return bce_loss(tape, logits=pred, labels=labels)
    return hce_loss(tape, logits=pred, labels=labels, num_classes=spec.num_classes)


def combined_loss(
    tape: Tape, per_group_losses: dict[str, Tensor], weights: LossWeights
) -> Tensor:
    """Weighted sum over groups in a fixed order; missing groups contribute 0."""
    ordered = [g for g in GROUP_ORDER if g in per_group_losses]
    ordered += sorted(set(per_group_losses) - set(GROUP_ORDER))
    total: Tensor | None = None
    for group in ordered:
        term = per_group_losses[group]
        if group == "G25" and weights.k != 1.0:
            term = tape.scale(term, 1.0 / weights.k)
        total = term if total is None else tape.add(total, term)
    if total is None:
        return tape.constant(np.float64(0.0))
    return total
