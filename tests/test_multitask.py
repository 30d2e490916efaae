import math

import numpy as np
import pytest

from minifp.autodiff import Parameter, ShapeMismatch, Tape
from minifp.backbones import ModelConfig, build_model
from minifp.multitask import (
    ClassOutOfRange,
    LabelSet,
    LossWeights,
    TaskSpec,
    bce_loss,
    combined_loss,
    hce_loss,
    mae_loss,
    task_head_forward,
    task_loss,
)

from .util import finite_difference_check


def tiny_state(d=4):
    cfg = ModelConfig(backbone="gine", num_layers=1, d_node=d, d_edge=d, d_global=d, dtype="float64")
    return build_model(cfg)


def test_task_spec_validation():
    TaskSpec("ok", "graph", "regression", "MAE", 3, "G25").validate()
    with pytest.raises(ValueError):
        TaskSpec("bad", "graph", "regression", "BCE", 3).validate()
    with pytest.raises(ValueError):
        TaskSpec("bad", "graph", "binary", "MAE", 3).validate()
    with pytest.raises(ValueError):
        TaskSpec("bad", "edge", "binary", "BCE", 3).validate()


def test_label_set_shape_check():
    with pytest.raises(ShapeMismatch):
        LabelSet(np.zeros((3, 2)), np.zeros((3, 3)))


def test_zero_weight_head_gives_half_probability():
    state = tiny_state()
    state.add_task_head("toy", "graph", 4, 5)
    for suffix in ("w1", "b1", "w2", "b2"):
        state.params[f"head/toy/{suffix}"].value[...] = 0.0
    tape = Tape(recording=False)
    emb = tape.constant(np.random.default_rng(0).standard_normal((3, 4)))
    logits = task_head_forward(tape, state, "toy", emb)
    np.testing.assert_array_equal(logits.data, np.zeros((3, 5)))
    probs = 1.0 / (1.0 + np.exp(-logits.data))
    np.testing.assert_array_equal(probs, np.full((3, 5), 0.5))


def test_identity_head_one_dim():
    state = tiny_state(d=1)
    state.add_task_head("ident", "graph", 1, 1)
    state.params["head/ident/w1"].value[...] = 1.0
    state.params["head/ident/w2"].value[...] = 1.0
    tape = Tape(recording=False)
    emb = tape.constant(np.array([[0.75], [2.0]]))
    out = task_head_forward(tape, state, "ident", emb)
    np.testing.assert_allclose(out.data, [[0.75], [2.0]])


def test_head_output_shape():
    state = tiny_state()
    state.add_task_head("wide", "graph", 4, 25)
    tape = Tape(recording=False)
    emb = tape.constant(np.zeros((7, 4)))
    assert task_head_forward(tape, state, "wide", emb).data.shape == (7, 25)


def test_head_input_width_mismatch():
    state = tiny_state()
    state.add_task_head("toy", "graph", 4, 2)
    tape = Tape(recording=False)
    with pytest.raises(ShapeMismatch):
        task_head_forward(tape, state, "toy", tape.constant(np.zeros((3, 5))))


def test_mae_perfect_prediction():
    tape = Tape(recording=False)
    pred = tape.constant(np.array([[1.0, 2.0]]))
    labels = LabelSet(np.array([[1.0, 2.0]]), np.ones((1, 2)))
    assert float(mae_loss(tape, pred, labels).data) == 0.0


def test_mae_masked_mean():
    tape = Tape(recording=False)
    pred = tape.constant(np.array([[1.0, 3.0]]))
    labels = LabelSet(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert float(mae_loss(tape, pred, labels).data) == 1.0


def test_mae_zero_mask_returns_zero():
    tape = Tape(recording=False)
    pred = tape.constant(np.array([[5.0, -2.0]]))
    labels = LabelSet(np.zeros((1, 2)), np.zeros((1, 2)))
    assert float(mae_loss(tape, pred, labels).data) == 0.0


def test_mae_random_vs_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pred = rng.standard_normal((6, 4))
        vals = rng.standard_normal((6, 4))
        mask = (rng.random((6, 4)) < 0.6).astype(float)
        tape = Tape(recording=False)
        got = float(mae_loss(tape, tape.constant(pred), LabelSet(vals, mask)).data)
        total, count = 0.0, 0
        for i in range(6):
            for j in range(4):
                if mask[i, j]:
                    total += abs(pred[i, j] - vals[i, j])
                    count += 1
        expected = total / count if count else 0.0
        assert got == pytest.approx(expected, rel=1e-12)


def test_bce_at_zero_logit():
    tape = Tape(recording=False)
    logits = tape.constant(np.array([[0.0]]))
    labels = LabelSet(np.array([[1.0]]), np.ones((1, 1)))
    assert float(bce_loss(tape, logits, labels).data) == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_large_logit_no_overflow():
    tape = Tape(recording=False)
    logits = tape.constant(np.array([[40.0]]))
    labels = LabelSet(np.array([[1.0]]), np.ones((1, 1)))
    value = float(bce_loss(tape, logits, labels).data)
    assert 0.0 <= value < 1e-15
    logits = tape.constant(np.array([[-40.0]]))
    labels = LabelSet(np.array([[0.0]]), np.ones((1, 1)))
    assert float(bce_loss(tape, logits, labels).data) < 1e-15


def test_bce_random_vs_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.standard_normal((5, 3)) * 3
        y = (rng.random((5, 3)) < 0.5).astype(float)
        mask = (rng.random((5, 3)) < 0.7).astype(float)
        tape = Tape(recording=False)
        got = float(bce_loss(tape, tape.constant(z), LabelSet(y, mask)).data)
        total, count = 0.0, 0
        for i in range(5):
            for j in range(3):
                if mask[i, j]:
                    sig = 1.0 / (1.0 + math.exp(-z[i, j]))
                    total += -(y[i, j] * math.log(sig) + (1 - y[i, j]) * math.log(1 - sig))
                    count += 1
        assert got == pytest.approx(total / max(count, 1), rel=1e-10)


def test_hce_uniform_logits():
    tape = Tape(recording=False)
    logits = tape.constant(np.zeros((2, 3)))  # one label column, 3 classes
    labels = LabelSet(np.array([[0.0], [2.0]]), np.ones((2, 1)))
    got = float(hce_loss(tape, logits, labels, num_classes=3).data)
    assert got == pytest.approx(math.log(3.0), rel=1e-12)


def test_hce_confident_correct():
    tape = Tape(recording=False)
    logits = tape.constant(np.array([[50.0, 0.0, 0.0]]))
    labels = LabelSet(np.array([[0.0]]), np.ones((1, 1)))
    assert float(hce_loss(tape, logits, labels, num_classes=3).data) < 1e-15


def test_hce_class_out_of_range():
    tape = Tape(recording=False)
    logits = tape.constant(np.zeros((1, 3)))
    labels = LabelSet(np.array([[5.0]]), np.ones((1, 1)))
    with pytest.raises(ClassOutOfRange):
        hce_loss(tape, logits, labels, num_classes=3)
    # Out-of-range class under a mask is ignored.
    masked = LabelSet(np.array([[5.0]]), np.zeros((1, 1)))
    assert float(hce_loss(tape, logits, masked, num_classes=3).data) == 0.0


def test_hce_random_vs_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows, width, classes = 4, 2, 3
        z = rng.standard_normal((rows, width * classes))
        y = rng.integers(0, classes, size=(rows, width)).astype(float)
        mask = (rng.random((rows, width)) < 0.7).astype(float)
        tape = Tape(recording=False)
        got = float(hce_loss(tape, tape.constant(z), LabelSet(y, mask), classes).data)
        total, count = 0.0, 0
        for i in range(rows):
            for w in range(width):
                if mask[i, w]:
                    block = z[i, w * classes : (w + 1) * classes]
                    block = block - block.max()
                    logp = block - math.log(np.exp(block).sum())
                    total += -logp[int(y[i, w])]
                    count += 1
        assert got == pytest.approx(total / max(count, 1), rel=1e-10)


def test_combined_loss_unit_groups_exact():
    tape = Tape(recording=False)
    losses = {g: tape.constant(np.float64(1.0)) for g in ("L1000", "PCBA", "N4", "G25")}
    value = float(combined_loss(tape, losses, LossWeights(k=5.0)).data)
    assert value == 3.2


def test_combined_loss_single_group():
    tape = Tape(recording=False)
    value = combined_loss(tape, {"N4": tape.constant(np.float64(0.7))}, LossWeights())
    assert float(value.data) == 0.7


def test_combined_loss_k1_arithmetic():
    tape = Tape(recording=False)
    losses = {
        "L1000": tape.constant(np.float64(0.5)),
        "PCBA": tape.constant(np.float64(0.25)),
        "N4": tape.constant(np.float64(0.1)),
        "G25": tape.constant(np.float64(0.2)),
    }
    value = float(combined_loss(tape, losses, LossWeights(k=1.0)).data)
    assert value == pytest.approx(1.05, rel=1e-12)


def test_combined_loss_linear_in_each_group():
    # Two-point evaluation confirms the declared coefficients.
    for group, coeff in (("L1000", 1.0), ("PCBA", 1.0), ("N4", 1.0), ("G25", 0.2)):
        tape = Tape(recording=False)
        one = combined_loss(tape, {group: tape.constant(np.float64(1.0))}, LossWeights(k=5.0))
        three = combined_loss(tape, {group: tape.constant(np.float64(3.0))}, LossWeights(k=5.0))
        assert float(three.data) - float(one.data) == pytest.approx(2.0 * coeff, rel=1e-12)


def test_empty_group_dict_gives_zero():
    tape = Tape(recording=False)
    assert float(combined_loss(tape, {}, LossWeights()).data) == 0.0


def test_masking_invariance_bitwise():
    rng = np.random.default_rng(3)
    w = Parameter("w", rng.standard_normal((4, 3)))
    x = rng.standard_normal((5, 4))
    vals = rng.standard_normal((5, 3))
    mask = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=float)

    def run(label_values):
        w.zero_grad()
        tape = Tape()
        pred = tape.matmul(tape.constant(x), tape.watch(w))
        loss = mae_loss(tape, pred, LabelSet(label_values, mask))
        tape.backward(loss)
        return float(loss.data), w.grad.copy()

    base_loss, base_grad = run(vals)
    perturbed = vals.copy()
    perturbed[mask == 0] += rng.standard_normal((mask == 0).sum()) * 100
    new_loss, new_grad = run(perturbed)
    assert new_loss == base_loss
    assert np.array_equal(new_grad, base_grad)


@pytest.mark.parametrize("kind", ["MAE", "BCE", "HCE"])
def test_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(4)
    rows, width, classes = 5, 2, 3
    out_cols = width * classes if kind == "HCE" else width
    w = Parameter("w", rng.standard_normal((3, out_cols)) * 0.5)
    x = rng.standard_normal((rows, 3))
    mask = (rng.random((rows, width)) < 0.8).astype(float)
    if kind == "MAE":
        labels = LabelSet(rng.standard_normal((rows, width)), mask)
    elif kind == "BCE":
        labels = LabelSet((rng.random((rows, width)) < 0.5).astype(float), mask)
    else:
        labels = LabelSet(rng.integers(0, classes, (rows, width)).astype(float), mask)

    def fn(tape):
        pred = tape.matmul(tape.constant(x), tape.watch(w))
        if kind == "MAE":
            return mae_loss(tape, pred, labels)
        if kind == "BCE":
            return bce_loss(tape, pred, labels)
        return hce_loss(tape, pred, labels, classes)

    assert finite_difference_check(fn, [w], h=1e-5) < 1e-4


def test_losses_non_negative():
    rng = np.random.default_rng(5)
    for _ in range(10):
        tape = Tape(recording=False)
        pred = tape.constant(rng.standard_normal((4, 3)))
        mask = (rng.random((4, 3)) < 0.7).astype(float)
        assert float(mae_loss(tape, pred, LabelSet(rng.standard_normal((4, 3)), mask)).data) >= 0
        y = (rng.random((4, 3)) < 0.5).astype(float)
        assert float(bce_loss(tape, pred, LabelSet(y, mask)).data) >= 0


def test_task_loss_dispatch():
    tape = Tape(recording=False)
    pred = tape.constant(np.array([[0.0]]))
    labels = LabelSet(np.array([[1.0]]), np.ones((1, 1)))
    spec = TaskSpec("r", "graph", "regression", "MAE", 1)
    assert float(task_loss(tape, spec, pred, labels).data) == 1.0
    spec = TaskSpec("b", "graph", "binary", "BCE", 1)
    assert float(task_loss(tape, spec, pred, labels).data) == pytest.approx(math.log(2.0))
