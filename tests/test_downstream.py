import contextlib
import csv
import functools
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from minifp import autodiff, downstream
from minifp.autodiff import Tape
from minifp.downstream import (
    FoldTooSmall,
    HeadConfig,
    MissingFingerprint,
    SingleClass,
    TaskData,
    TrainedHead,
    ZeroVariance,
    auprc,
    auroc,
    average_ranks,
    compute_metric,
    config1_space,
    config2_space,
    correlation_analysis,
    gather_fingerprints,
    holdout_split,
    kfold_ensemble,
    kfold_partition,
    mae,
    spearman_rho,
    sweep,
    train_head,
)
from minifp.downstream import _head_loss
from minifp.cli import main
from minifp.fingerprints import FingerprintStore, store_write
from minifp.multitask import LabelSet
from minifp.seeding import rng_stream
from minifp.trainer import OptimizerState, adam_step, backward_and_step

from .util import auprc_loop, ensemble_predict, spearman_p_loop, traced_memory


def make_vectors(n, d, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)


def make_store(n, d, seed=0):
    store = FingerprintStore(d)
    vectors = make_vectors(n, d, seed)
    ids = [f"m{i}" for i in range(n)]
    for i, vec in zip(ids, vectors):
        store.add(i, vec)
    return store, ids, vectors


def task(vectors, labels, kind="binary"):
    return TaskData(vectors, LabelSet(labels, np.ones_like(labels)), kind)


def separable_task(n=60, d=6, seed=0):
    vectors = make_vectors(n, d, seed)
    return task(vectors, (vectors[:, 0] > 0).astype(float).reshape(-1, 1)), vectors


# -- metric oracles -----------------------------------------------------------


def brute_force_auroc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_examples():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 50))
        # Quantized scores force ties.
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == brute_force_auroc(scores, labels)


def test_auroc_single_class():
    with pytest.raises(SingleClass):
        auroc([0.1, 0.2], [1, 1])


def test_auprc_perfect_and_known_case():
    assert auprc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    # Descending walk: hits at ranks 1 and 3 -> AP = (1/2)(1 + 2/3) = 5/6.
    value = auprc([0.9, 0.8, 0.7], [1, 0, 1])
    assert value == pytest.approx(5 / 6, rel=1e-12)


def test_auprc_equals_the_threshold_loop_bitwise():
    rng = np.random.default_rng(12)
    for trial in range(400):
        n = int(rng.integers(2, 120))
        # Even trials round to one decimal, so tie groups hold both classes; odd ones are continuous.
        scores = np.round(rng.random(n), 1) if trial % 2 == 0 else rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        assert auprc(scores, labels) == auprc_loop(scores, labels), trial
    assert auprc([0.5, np.nan, 0.5, 0.2], [1, 0, 0, 1]) == auprc_loop([0.5, np.nan, 0.5, 0.2], [1, 0, 0, 1])


def test_mae_metric():
    assert mae([1.0, 2.0], [0.0, 4.0]) == 1.5


def midranks_loop(values):
    """Average ranks (1-based) with ties sharing their midrank: the loop the
    metrics ran before scipy's rankdata, kept as the oracle."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_midranks_with_ties():
    for ranks in (midranks_loop, lambda v: rankdata(v, method="average"), average_ranks):
        np.testing.assert_array_equal(ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
        np.testing.assert_array_equal(ranks([5.0]), [1.0])
        np.testing.assert_array_equal(ranks([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(ranks([0.0, -0.0, np.inf, -np.inf]), [2.5, 2.5, 4.0, 1.0])
    assert average_ranks([]).shape == (0,)
    np.testing.assert_array_equal(average_ranks([[3.0, 1.0], [2.0, 1.0]]), rankdata([[3.0, 1.0], [2.0, 1.0]]))
    assert np.isnan(average_ranks([1.0, np.nan, 0.0])).all()
    assert np.isnan(rankdata([1.0, np.nan, 0.0], method="average")).all()
    rng = np.random.default_rng(5)
    for n in range(1, 60):
        values = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
        ranks = average_ranks(values)
        assert ranks.dtype == np.float64 and ranks.tobytes() == rankdata(values, method="average").tobytes()


def test_rank_metrics_equal_the_midrank_loop_bitwise():
    rng = np.random.default_rng(4)
    for trial in range(600):
        n = int(rng.integers(9, 80))
        # Even trials quantize to force ties; odd ones are continuous.
        x, y = (np.round(rng.random((2, n)), 1) if trial % 2 == 0 else rng.standard_normal((2, n)))
        rx, ry = midranks_loop(x), midranks_loop(y)
        assert np.array_equal(rankdata(x, method="average"), rx)
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
        assert auroc(x, labels) == float((rx[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        a, b = rx - rx.mean(), ry - ry.mean()
        assert spearman_rho(x, y)[0] == float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def test_nan_score_gives_nan_auroc():
    assert math.isnan(auroc([0.2, np.nan, 0.1, 0.4], [0, 1, 0, 1]))


def test_spearman_examples():
    rho, _ = spearman_rho([1, 2, 3, 5], [10, 20, 40, 80])
    assert rho == pytest.approx(1.0)
    rho, _ = spearman_rho([1, 2, 3, 5], [80, 40, 20, 10])
    assert rho == pytest.approx(-1.0)
    rho, _ = spearman_rho([1, 2, 3, 4], [1, 3, 2, 4])
    assert rho == pytest.approx(0.8, rel=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    rho, p = spearman_rho(x, y)
    rho2, p2 = spearman_rho(np.exp(x), y)
    rho3, p3 = spearman_rho(x, y**3)
    assert rho == pytest.approx(rho2, rel=1e-12)
    assert rho == pytest.approx(rho3, rel=1e-12)
    assert p == pytest.approx(p2, rel=1e-9)


def test_spearman_exact_permutation_p_value():
    # For n = 4 and perfectly concordant ranks, 2 of 24 permutations reach
    # |rho| = 1 (identity and reversal): p = 1/12.
    _, p = spearman_rho([1, 2, 3, 4], [10, 20, 30, 40])
    assert p == pytest.approx(2 / 24, rel=1e-12)


def test_spearman_exact_p_value_equals_the_permutation_loop_bitwise():
    rng = np.random.default_rng(13)
    for n in range(3, 9):
        for trial in range(12 if n < 8 else 4):  # the loop takes ~0.4 s at n = 8
            # Even trials draw from few values, so both inputs carry tie groups.
            x, y = rng.integers(0, 4, (2, n)) if trial % 2 == 0 else rng.standard_normal((2, n))
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rho, p = spearman_rho(x, y)
            assert p == spearman_p_loop(average_ranks(x), average_ranks(y), rho), (n, trial)


def test_spearman_t_approximation_branch():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(30)
    y = x + rng.standard_normal(30) * 0.2
    rho, p = spearman_rho(x, y)
    assert rho > 0.9
    assert p < 1e-6
    # Compare against scipy's spearman as an oracle for the large-n branch.
    from scipy import stats

    oracle = stats.spearmanr(x, y)
    assert rho == pytest.approx(oracle.statistic, rel=1e-12)
    assert p == pytest.approx(oracle.pvalue, rel=1e-6)
    # The p-value is scipy's t tail bit for bit, here and at weaker correlations.
    for n, noise in ((30, 0.2), (9, 1.0), (40, 3.0), (200, 5.0)):
        x = rng.standard_normal(n)
        y = x + rng.standard_normal(n) * noise
        rho, p = spearman_rho(x, y)
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        assert p == min(2.0 * float(stats.t.sf(abs(t), df=n - 2)), 1.0)


def test_spearman_errors():
    with pytest.raises(ZeroVariance):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0, 2.0], [1.0, 2.0])


def test_spearman_metric_is_rho_without_a_p_value(monkeypatch):
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(8), rng.standard_normal(8)
    y[:2] = y[2]  # a tie group
    expected = spearman_rho(x, y)[0]

    def no_permutations(*args):
        raise AssertionError("the spearman metric enumerated permutations")

    monkeypatch.setattr(downstream.itertools, "permutations", no_permutations)
    assert compute_metric("spearman", x, y) == expected
    with pytest.raises(ZeroVariance):
        compute_metric("spearman", x, np.ones(8))


# -- head training -----------------------------------------------------------


def quick_config(**overrides):
    base = dict(hidden_dim=16, num_layers=2, dropout=0.0, learning_rate=1e-2, epochs=25, batch_size=32)
    base.update(overrides)
    return HeadConfig(**base)


@pytest.mark.parametrize("num_layers,in_dim,hidden_dim,out_dim", [(1, 6, 16, 1), (3, 5, 8, 4), (2, 9, 9, 2)])
def test_head_init_matches_the_inline_glorot_draws_bitwise(num_layers, in_dim, hidden_dim, out_dim):
    for seed in (0, 7):
        head = TrainedHead(quick_config(num_layers=num_layers, hidden_dim=hidden_dim), in_dim, out_dim, "binary", seed)
        init = rng_stream(seed, "head-params")
        widths = [in_dim] + [hidden_dim] * num_layers
        expected = []
        for layer in range(num_layers):
            fan_in, fan_out = widths[layer], widths[layer + 1]
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            expected.append((f"h{layer}/w", init.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)))
            expected.append((f"h{layer}/b", np.zeros(fan_out, dtype=np.float32)))
        limit = math.sqrt(6.0 / (hidden_dim + out_dim))
        expected.append(("out/w", init.uniform(-limit, limit, size=(hidden_dim, out_dim)).astype(np.float32)))
        expected.append(("out/b", np.zeros(out_dim, dtype=np.float32)))
        assert [p.name for p in head.params] == [name for name, _ in expected]
        for p, (_, value) in zip(head.params, expected):
            assert p.value.dtype == value.dtype and np.array_equal(p.value, value)


def test_train_head_separable_reaches_auroc_one():
    data, vectors = separable_task()
    head = train_head(data, quick_config(), 0, np.arange(48), np.arange(48, 60))
    pred = head.predict(vectors)
    assert auroc(pred.ravel(), data.labels.values.ravel()) == 1.0


def test_train_head_constant_regression_converges():
    vectors = make_vectors(40, 4, seed=3)
    labels = np.full((40, 1), 2.5)
    data = task(vectors, labels, "regression")
    # MAE gradients are sign-based, so a decaying schedule is needed to settle.
    head = train_head(
        data, quick_config(epochs=200, learning_rate=3e-2, schedule="linear-decay"), 0, *holdout_split(40, 0)
    )
    assert mae(head.predict(vectors).ravel(), labels.ravel()) < 0.05


def test_train_head_deterministic_curves():
    data, _ = separable_task()
    a = train_head(data, quick_config(), 5, *holdout_split(60, 5))
    b = train_head(data, quick_config(), 5, *holdout_split(60, 5))
    assert a.val_curve == b.val_curve
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.value, pb.value)


@pytest.mark.parametrize("skip", [False, True])
def test_train_head_variants_run(skip):
    data, vectors = separable_task(n=30)
    cfg = quick_config(skip_connection=skip, dropout=0.1, epochs=5)
    head = train_head(data, cfg, 1, *holdout_split(30, 1))
    pred = head.predict(vectors)
    assert np.isfinite(pred).all()
    assert pred.shape == (30, 1)


def test_train_head_best_epoch_restored():
    data, _ = separable_task(n=40)
    head = train_head(data, quick_config(epochs=10), 2, *holdout_split(40, 2))
    assert head.best_epoch >= 1
    assert min(head.val_curve) == head.val_curve[head.best_epoch - 1]


def test_train_head_returns_the_best_epochs_weights():
    # A constant learning rate makes the first epochs of a longer run the same steps as a shorter run.
    data, _ = separable_task(n=40)
    config = quick_config(epochs=12, learning_rate=0.05)
    rows = np.arange(32), np.arange(32, 40)
    head = train_head(data, config, 1, *rows)
    assert 1 < head.best_epoch < config.epochs
    shorter = train_head(data, quick_config(epochs=head.best_epoch, learning_rate=0.05), 1, *rows)
    assert shorter.best_epoch == head.best_epoch
    assert [p.value.tobytes() for p in head.params] == [p.value.tobytes() for p in shorter.params]


@pytest.mark.parametrize("kind", ["binary", "regression"])
@pytest.mark.parametrize("epochs, learning_rate", [(12, 0.2), (3, 1e-3)], ids=["best-before-last", "best-last"])
def test_best_epoch_validation_logits_give_the_bits_of_predict(kind, epochs, learning_rate):
    """``kfold_ensemble`` scores a fold from the logits of the best epoch's
    validation pass: the same forward, rows and weights as ``predict``."""
    vectors = make_vectors(60, 6, seed=3)
    labels = (vectors[:, :1] > 0).astype(float) if kind == "binary" else vectors[:, :2].astype(float)
    data = task(vectors, labels, kind)
    config = quick_config(epochs=epochs, learning_rate=learning_rate)
    valid = np.arange(45, 60)
    head = train_head(data, config, 2, np.arange(45), valid)
    assert head.best_epoch >= 1 and (head.best_epoch < epochs) == (epochs == 12)
    assert head.activate(head.valid_logits).tobytes() == head.predict(vectors[valid]).tobytes()


def test_head_whose_validation_loss_is_nan_every_epoch_keeps_its_initial_weights():
    vectors = make_vectors(60, 6)
    labels = (vectors[:, 0] > 0).astype(float).reshape(-1, 1)
    labels[50:] = np.nan  # the validation rows: training is unaffected, every validation loss is NaN
    data = task(vectors, labels)
    config = quick_config(epochs=3)
    head = train_head(data, config, 4, np.arange(50), np.arange(50, 60))
    assert head.best_epoch == -1 and all(math.isnan(v) for v in head.val_curve)
    assert head.valid_logits is None  # no validation pass ran on the initial weights
    initial = TrainedHead(config, 6, 1, "binary", seed=4)
    assert [p.value.tobytes() for p in head.params] == [p.value.tobytes() for p in initial.params]


def test_head_without_validation_rows_picks_its_best_epoch_by_mean_training_loss(monkeypatch):
    data, _ = separable_task(n=40)
    batch_losses = []

    def recording_loss(tape, head, pred, labels):
        loss = head_loss(tape, head, pred, labels)
        batch_losses.append(float(loss.data))
        return loss

    head_loss = downstream._head_loss
    monkeypatch.setattr(downstream, "_head_loss", recording_loss)
    config = quick_config(epochs=12, learning_rate=0.5, batch_size=16)  # three batches an epoch; loss oscillates
    head = train_head(data, config, 3, np.arange(40), np.array([], dtype=np.int64))
    monkeypatch.undo()
    assert len(batch_losses) == 3 * config.epochs  # no validation pass ran
    assert head.val_curve == [float(np.mean(batch_losses[i : i + 3])) for i in range(0, len(batch_losses), 3)]
    assert 1 < head.best_epoch < config.epochs
    assert head.best_epoch == 1 + int(np.argmin(head.val_curve))
    assert head.valid_logits is None
    # The head holds the best epoch's weights: those of a run that stops there.
    shorter = train_head(
        data, quick_config(epochs=head.best_epoch, learning_rate=0.5, batch_size=16), 3,
        np.arange(40), np.array([], dtype=np.int64),
    )
    assert [p.value.tobytes() for p in head.params] == [p.value.tobytes() for p in shorter.params]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_steps_each_parameter_when_ready_matching_backward_then_adam_bitwise(dtype):
    data, vectors = separable_task(n=48, d=16)
    config = quick_config(hidden_dim=16, num_layers=3, dropout=0.1, skip_connection=True)
    runs = []
    for fused in (False, True):
        head = TrainedHead(config, 16, 1, "binary", seed=3)
        for p in head.params:
            p.value = p.value.astype(dtype)
        state = OptimizerState(head.params)
        losses = []
        for step in range(3):
            rows = np.arange(16 * step, 16 * step + 16)
            tape = Tape()
            loss = _head_loss(tape, head, head.forward(tape, vectors[rows], True, step), data.labels.rows(rows))
            losses.append(loss.data.tobytes())
            lr = 0.01 * (step + 1)
            if fused:
                backward_and_step(tape, loss, head.params, lambda ps: adam_step(ps, state, lr))
            else:
                tape.backward(loss)
                adam_step(head.params, state, lr)
                for p in head.params:
                    p.zero_grad()
        assert all(p.grad is None and p.value.dtype == dtype for p in head.params)
        runs.append((losses, [(p.value.tobytes(), state.m[p.name].tobytes(), state.v[p.name].tobytes())
                              for p in head.params]))
    assert runs[0] == runs[1]


def test_one_default_head_step_holds_one_gradient_at_a_time():
    """One training step of a default-width head (528 -> 1024 x 3 -> 1) peaks below its weights, both
    Adam moments, its largest single gradient and 16 activation blocks of batch x hidden float32."""
    data, _ = separable_task(n=160, d=528)
    config = HeadConfig(epochs=1)  # one batch of 128 rows: one step, and the last epoch keeps no snapshot
    head, _, peak = traced_memory(lambda: train_head(data, config, 0, np.arange(128), np.arange(128, 160)))
    weights = sum(p.value.nbytes for p in head.params)
    largest = max(p.value.nbytes for p in head.params)
    activations = 16 * config.batch_size * config.hidden_dim * 4
    bound = 3 * weights + largest + activations
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB over {bound / 2**20:.1f} MB (weights {weights / 2**20:.1f} MB)"


# Counts the page faults of two train_head calls in a fresh process, whose heap
# no earlier test has grown yet.
_FAULTS_CHILD = """
from minifp.downstream import holdout_split, train_head
from tests.test_downstream import quick_config, separable_task
from tests.util import minor_faults
data, _ = separable_task(n=200, d=64)
config = quick_config(hidden_dim=256, num_layers=3, epochs=2)
print(*(minor_faults(lambda: train_head(data, config, 0, *holdout_split(200, 0)))[1] for _ in range(2)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed heap is kept through glibc's mallopt")
def test_second_train_head_reuses_the_heap_of_the_first():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(Path(downstream.__file__).resolve().parents[1]), str(root)])
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second * 10 <= first, f"first train_head took {first} minor faults, the second {second}"


# Counts the page faults of two extractions of 128 molecules in a fresh process.
# At width 1024 each layer's node and edge arrays are a few MB, over glibc's
# initial 128 KB mmap threshold, so without the kept heap each batch maps them anew.
_EXTRACT_FAULTS_CHILD = """
from minifp.backbones import ModelConfig, build_model
from minifp.fingerprints import extract_fingerprints
from tests.util import TOY_SMILES, minor_faults
molecules = [smiles + "C" * k for k in range(4) for smiles in TOY_SMILES]
model = build_model(ModelConfig(backbone="gine", num_layers=2, d_node=1024, d_edge=1024, d_global=4))
print(*(minor_faults(lambda: extract_fingerprints(model, molecules))[1] for _ in range(2)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the freed heap is kept through glibc's mallopt")
def test_second_extraction_reuses_the_heap_of_the_first():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(Path(downstream.__file__).resolve().parents[1]), str(root)])
    proc = subprocess.run(
        [sys.executable, "-c", _EXTRACT_FAULTS_CHILD], cwd=root, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second * 10 <= first, f"first extraction took {first} minor faults, the second {second}"


def test_missing_fingerprint_enumerated():
    store, ids, vectors = make_store(10, 6)
    assert gather_fingerprints(store, ids[::-1]).tobytes() == vectors[::-1].tobytes()
    ids[3] = "absent"
    with pytest.raises(MissingFingerprint) as exc:
        gather_fingerprints(store, ids)
    assert "absent" in str(exc.value)


def test_task_data_is_a_binary_or_regression_matrix_with_one_row_per_label_row():
    data, vectors = separable_task(n=10)
    with pytest.raises(ValueError, match="binary or regression"):
        TaskData(vectors, data.labels, "multiclass")
    with pytest.raises(ValueError, match="one row per label row"):
        TaskData(vectors[:9], data.labels, "binary")


# -- sweeps -------------------------------------------------------------------


def test_sweep_presets_sizes():
    assert len(config1_space()) == 5
    assert {c.learning_rate for c in config1_space()} == {0.001, 0.0005, 0.0003, 0.0001, 5e-5}
    assert all(c.epochs == 25 and c.hidden_dim == 1024 and c.num_layers == 3 for c in config1_space())
    assert len(config2_space()) == 2 * 3 * 3 * 2 * 2 * 2 * 3


def test_sweep_single_point():
    data, _ = separable_task(n=20)
    cfg = quick_config(epochs=2)
    best, rows = sweep([cfg], data, 0, *holdout_split(20, 0))
    assert best == cfg
    assert len(rows) == 1


def test_sweep_picks_non_underfit_config():
    data, _ = separable_task(n=40)
    underfit = quick_config(learning_rate=1e-12, epochs=5)
    good = quick_config(learning_rate=1e-2, epochs=5)
    best, rows = sweep([underfit, good], data, 0, *holdout_split(40, 0))
    assert best == good
    assert len(rows) == 2


def test_sweep_invariant_to_enumeration_order():
    data, _ = separable_task(n=30)
    configs = [quick_config(learning_rate=lr, epochs=3) for lr in (1e-2, 1e-3, 1e-4)]
    rows = holdout_split(30, 1)
    best_fwd, _ = sweep(configs, data, 1, *rows)
    best_rev, _ = sweep(configs[::-1], data, 1, *rows)
    assert best_fwd == best_rev


# -- ensembling ---------------------------------------------------------------


def test_kfold_partition_properties():
    folds = kfold_partition(23, 5, seed=0)
    assert len(folds) == 5
    combined = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(combined, np.arange(23))
    again = kfold_partition(23, 5, seed=0)
    for a, b in zip(folds, again):
        np.testing.assert_array_equal(a, b)
    # Each example is held out exactly once => in num_folds - 1 training sets.
    counts = np.zeros(23, dtype=int)
    for fold in folds:
        counts[fold] += 1
    assert (counts == 1).all()


def test_kfold_partition_too_small():
    with pytest.raises(FoldTooSmall):
        kfold_partition(3, 5, seed=0)


def test_ensemble_of_identical_models_equals_single():
    data, vectors = separable_task(n=20)
    head = train_head(data, quick_config(epochs=3), 0, *holdout_split(20, 0))
    single = head.predict(vectors)
    combined = ensemble_predict([head, head, head], vectors)
    np.testing.assert_array_equal(single, combined)


def test_ensemble_mean_adds_members_in_order_bitwise():
    """The streamed mean equals stacking every member's output and summing over members."""
    vectors = make_vectors(40, 6)
    for k in range(2, 11):
        heads = [TrainedHead(quick_config(), 6, 3, "binary", seed) for seed in range(k)]
        stacked = np.asarray([head.predict(vectors) for head in heads], dtype=np.float64)
        assert ensemble_predict(heads, vectors).tobytes() == (stacked.sum(axis=0) / k).tobytes()


@pytest.mark.parametrize("num_folds", range(2, 11))
def test_kfold_ensemble_scores_the_mean_of_its_fold_heads(num_folds, monkeypatch):
    """The test score is computed from ``ensemble_predict`` over the repetition's fold
    heads, bit for bit, and no fold head is left holding a gradient."""
    data, vectors = separable_task(n=60)
    heads, scored = [], []

    def recording_train_head(*args):
        heads.append(train_head(*args))
        return heads[-1]

    def recording_metric(name, pred, labels):
        scored.append(pred)
        return compute_metric(name, pred, labels)

    monkeypatch.setattr(downstream, "train_head", recording_train_head)
    monkeypatch.setattr(downstream, "compute_metric", recording_metric)
    monkeypatch.setattr(autodiff, "_available_cores", lambda: 1)  # the recorders run in this process
    train_rows, test_rows = np.arange(48), np.arange(48, 60)
    kfold_ensemble(data, quick_config(epochs=1), train_rows, test_rows, num_folds, 2, "mae", seed=1)
    assert len(heads) == 2 * num_folds and all(p.grad is None for head in heads for p in head.params)
    for rep in range(2):
        expected = ensemble_predict(heads[rep * num_folds : (rep + 1) * num_folds], vectors[test_rows])
        assert scored[(rep + 1) * (num_folds + 1) - 1].tobytes() == expected.tobytes()


def test_kfold_ensemble_memory_does_not_grow_with_folds(monkeypatch):
    """Each fold head is dropped once it has predicted, so 6 folds peak no higher than 2."""
    on_cores(monkeypatch, 1)  # the heads train in the process tracemalloc measures
    data, _ = separable_task(n=60, d=32)
    config = quick_config(hidden_dim=256, epochs=1, batch_size=64)
    rows = holdout_split(60, 0)
    peaks = [
        traced_memory(lambda: kfold_ensemble(data, config, *rows, num_folds, 2, "auroc", seed=0))[2]
        for num_folds in (2, 6)
    ]
    assert peaks[1] <= 1.1 * peaks[0], f"6 folds peaked at {peaks[1] / peaks[0]:.2f}x the 2-fold ensemble"


def test_kfold_ensemble_single_rep_warns_and_zero_std():
    data, _ = separable_task(n=50)
    with pytest.warns(UserWarning):
        result = kfold_ensemble(data, quick_config(epochs=2), *holdout_split(50, 0), num_folds=2, num_reps=1)
    assert result.val_std == 0.0
    assert result.test_std == 0.0
    assert len(result.repetitions) == 1


def test_kfold_ensemble_shape_and_determinism():
    data, _ = separable_task(n=60)
    kwargs = dict(num_folds=3, num_reps=2, metric="auroc", seed=4)
    a = kfold_ensemble(data, quick_config(epochs=3), *holdout_split(60, 4), **kwargs)
    b = kfold_ensemble(data, quick_config(epochs=3), *holdout_split(60, 4), **kwargs)
    assert len(a.repetitions) == 2
    assert all(len(r.fold_val_scores) == 3 for r in a.repetitions)
    assert a.summary() == b.summary()
    summary = a.summary()
    assert set(summary) == {"metric", "num_folds", "num_reps", "val_mean", "val_std", "test_mean", "test_std"}
    assert 0.0 <= summary["test_mean"] <= 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: kfold_ensemble scores masked-out label cells as class 0 / value 0",
)
def test_kfold_ensemble_ignores_masked_out_labels():
    # Training already skips masked-out cells, so the value stored under a
    # masked-out cell must not move any fold or test score either.
    data, _ = separable_task(n=60)
    mask = np.ones_like(data.labels.mask)
    mask[::3] = 0.0
    scores = []
    for fill in (0.0, 1.0):
        values = np.where(mask > 0, data.labels.values, fill)
        masked = TaskData(data.features, LabelSet(values, mask), "binary")
        result = kfold_ensemble(masked, quick_config(epochs=3), *holdout_split(60, 0), num_folds=3, num_reps=2)
        scores.append([(r.fold_val_scores, r.test_score) for r in result.repetitions])
    assert scores[0] == scores[1]


def test_kfold_ensemble_regression_metric():
    vectors = make_vectors(40, 4, seed=9)
    data = task(vectors, (vectors[:, :1] * 2.0).astype(float), "regression")
    result = kfold_ensemble(data, quick_config(epochs=10), *holdout_split(40, 0), num_folds=2, num_reps=2, metric="mae")
    assert result.higher_is_better is False
    assert result.test_mean >= 0.0


# -- the fork process pool -----------------------------------------------------------

forks = pytest.mark.skipif(
    autodiff._blas_thread_control() is None, reason="without os.fork or OpenBLAS thread control tasks run serially"
)


def on_cores(monkeypatch, cores):
    monkeypatch.setattr(autodiff, "_available_cores", lambda: cores)


def _raise(exc):
    raise exc


def _warn(text):
    warnings.warn(text, UserWarning)
    return text


def test_fold_heads_and_sweep_configs_train_to_the_same_bits_on_one_worker_and_two(monkeypatch):
    # 528-deep products, as in the paper's heads: two BLAS threads round them differently from one.
    data, _ = separable_task(n=90, d=528)
    configs = [quick_config(hidden_dim=64, epochs=3, learning_rate=lr) for lr in (1e-2, 1e-3, 1e-4)]
    train_rows, test_rows = holdout_split(90, 2)
    outputs = []
    for cores in (1, 2):
        on_cores(monkeypatch, cores)
        result = kfold_ensemble(data, configs[0], train_rows, test_rows, num_folds=3, num_reps=2, metric="mae", seed=2)
        _, rows = sweep(configs, data, 2, train_rows, test_rows)
        scores = [(r.fold_val_scores, r.test_score) for r in result.repetitions]
        outputs.append((scores, [row.val_curve for row in rows]))
    assert outputs[0] == outputs[1]


@forks
def test_tasks_run_in_forked_workers_and_come_back_in_task_order(monkeypatch):
    on_cores(monkeypatch, 3)
    tasks = [functools.partial(lambda i: (i, os.getpid()), i) for i in range(7)]
    results = [result for result, _ in downstream._run_tasks(tasks)]
    assert [i for i, _ in results] == list(range(7))
    pids = {pid for _, pid in results}  # the pool may hand every one of these to one worker
    assert os.getpid() not in pids and len(pids) <= 3


@forks
def test_every_pool_task_runs_on_one_blas_thread(monkeypatch):
    on_cores(monkeypatch, 2)
    get, put = autodiff._blas_thread_control()
    original = get()
    put(2)
    try:
        results = [result for result, _ in downstream._run_tasks([lambda: (get(), os.getpid())] * 6)]
        assert get() == 2
    finally:
        put(original)
    assert [count for count, _ in results] == [1] * 6
    assert os.getpid() not in {pid for _, pid in results}


@forks
def test_a_worker_that_dies_raises_runtime_error_and_leaves_no_child(monkeypatch):
    on_cores(monkeypatch, 2)
    tasks = [os.getpid, functools.partial(os._exit, 1), os.getpid]
    with pytest.raises(RuntimeError):
        list(downstream._run_tasks(tasks))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
def test_a_single_class_raised_in_a_worker_reaches_the_caller_as_single_class(monkeypatch):
    on_cores(monkeypatch, 2)
    tasks = [os.getpid, functools.partial(_raise, SingleClass("AUROC needs both classes present"))]
    with pytest.raises(SingleClass, match="^AUROC needs both classes present$"):
        list(downstream._run_tasks(tasks))


@forks
def test_the_first_task_to_raise_in_task_order_is_the_one_raised(monkeypatch):
    on_cores(monkeypatch, 2)
    tasks = [os.getpid, functools.partial(_raise, ZeroVariance("in a worker")), functools.partial(_raise, KeyError("here"))]
    with pytest.raises(ZeroVariance, match="in a worker"):
        list(downstream._run_tasks(tasks))


@pytest.mark.parametrize("cores", [1, 2])
def test_warnings_of_the_tasks_are_issued_in_task_order(monkeypatch, cores):
    on_cores(monkeypatch, cores)
    with pytest.warns(UserWarning) as record:
        results = [result for result, _ in downstream._run_tasks([functools.partial(_warn, t) for t in "abcde"])]
    assert results == list("abcde")
    assert [str(w.message) for w in record] == list("abcde")


@forks
@pytest.mark.parametrize("single_class", [False, True], ids=["returns", "raises"])
def test_every_worker_is_reaped_and_the_blas_thread_count_restored(monkeypatch, single_class):
    on_cores(monkeypatch, 2)
    data, _ = separable_task(n=40)
    if single_class:
        data = TaskData(data.features, LabelSet(np.zeros_like(data.labels.values), data.labels.mask), "binary")
    get, put = autodiff._blas_thread_control()
    original = get()
    put(2)
    try:
        with pytest.raises(SingleClass) if single_class else contextlib.nullcontext():
            kfold_ensemble(data, quick_config(epochs=1), *holdout_split(40, 0), num_folds=2, num_reps=2)
        assert get() == 2
    finally:
        put(original)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_downstream_command_exits_2_when_a_held_out_fold_has_one_class(tmp_path, monkeypatch, capsys):
    on_cores(monkeypatch, 2)
    store, ids, _ = make_store(30, 4)
    store_write(store, tmp_path / "fp.mfps")
    with open(tmp_path / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mol_id", "y"])
        writer.writerows([molecule_id, int(i == 0)] for i, molecule_id in enumerate(ids))
    (tmp_path / "task.json").write_text(json.dumps({
        "labels_csv": "labels.csv",
        "id_column": "mol_id",
        "task": {"name": "one-positive", "kind": "binary", "metric": "auroc", "columns": ["y"]},
    }))
    (tmp_path / "head.cfg").write_text("d_node = 8\nnum_layers = 1\nepochs = 1\n")
    code = main([
        "downstream", str(tmp_path / "fp.mfps"), str(tmp_path / "task.json"), "--sweep", "none",
        "--head-config", str(tmp_path / "head.cfg"), "--folds", "3", "--reps", "2", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "both classes" in err and "Traceback" not in err


# -- correlation analysis --------------------------------------------------------


def test_correlation_sign_algebra():
    # Pretrain MAE (lower better) improves exactly when downstream AUROC
    # (higher better) improves: signed correlation is +1.
    runs = 8
    quality = np.linspace(0, 1, runs)
    pretrain = (1.0 - quality).reshape(-1, 1)  # MAE falls as quality rises
    downstream = (0.5 + quality / 2).reshape(-1, 1)  # AUROC rises
    table = correlation_analysis(pretrain, downstream, [-1], [+1], ["mae"], ["auroc"])
    assert table.values[0, 0] == pytest.approx(1.0)
    assert table.significant[0, 0]


def test_correlation_identical_columns():
    col = np.array([0.2, 0.5, 0.9, 0.4, 0.7, 0.1]).reshape(-1, 1)
    table = correlation_analysis(col, col, [+1], [+1])
    assert table.values[0, 0] == pytest.approx(1.0)
    assert table.p_values[0, 0] < 0.1


def test_correlation_anticorrelated_entry():
    quality = np.linspace(0, 1, 6)
    pre = quality.reshape(-1, 1)  # higher-better pretrain metric
    down = (1.0 - quality).reshape(-1, 1)  # higher-better downstream metric falling
    table = correlation_analysis(pre, down, [+1], [+1])
    assert table.values[0, 0] == pytest.approx(-1.0)


def test_correlation_independent_columns_masked():
    rng = np.random.default_rng(3)
    masked = 0
    trials = 30
    for _ in range(trials):
        pre = rng.standard_normal((6, 1))
        down = rng.standard_normal((6, 1))
        table = correlation_analysis(pre, down, [+1], [+1])
        if not table.significant[0, 0]:
            masked += 1
    assert masked > trials * 0.6


def test_correlation_requires_three_runs():
    with pytest.raises(ValueError, match="3 paired runs"):
        correlation_analysis(np.zeros((2, 1)), np.zeros((2, 1)), [+1], [+1])


def test_compute_metric_dispatch():
    assert compute_metric("auroc", [0.1, 0.9], [0, 1]) == 1.0
    assert compute_metric("mae", [1.0], [3.0]) == 2.0
