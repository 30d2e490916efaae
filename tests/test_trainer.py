import json
import os
import tracemalloc

import numpy as np
import pytest

from minifp import trainer
from minifp.autodiff import Parameter, Tape
from minifp.backbones import ModelConfig, build_model, default_config, load_model, save_model
from minifp.multitask import LossWeights
from minifp.trainer import (
    NaNLossError,
    OptimizerState,
    SplitSpec,
    TooFewMolecules,
    TrainConfig,
    _ADAM_CHUNK,
    adam_step,
    backward_and_step,
    ensure_heads,
    evaluate,
    lr_at,
    pretrain,
    split_dataset,
)

from .util import build_toy_dataset, traced_memory


def test_adam_zero_gradient_keeps_params():
    p = Parameter("w", np.array([1.0, -2.0]))
    state = OptimizerState([p])
    adam_step([p], state, lr=0.1)
    np.testing.assert_array_equal(p.value, [1.0, -2.0])
    assert state.steps == {"w": 1}


def test_adam_first_step_magnitude():
    p = Parameter("w", np.array([0.0]))
    p.grad = np.ones(1)
    state = OptimizerState([p])
    adam_step([p], state, lr=0.1)
    # Bias-corrected first step moves by ~lr in the negative gradient direction.
    assert p.value[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(0)
        p = Parameter("w", rng.standard_normal(4))
        state = OptimizerState([p])
        history = []
        for step in range(20):
            p.grad = np.sin(p.value + step)
            adam_step([p], state, lr=0.01)
            p.zero_grad()
            history.append(p.value.copy())
        return np.array(history)

    np.testing.assert_array_equal(run(), run())


def test_adam_converges_on_linear_regression():
    rng = np.random.default_rng(1)
    features = rng.standard_normal((40, 3))
    target = features @ np.array([1.5, -2.0, 0.5]) + 0.3
    design = np.concatenate([features, np.ones((40, 1))], axis=1)
    solution, *_ = np.linalg.lstsq(design, target, rcond=None)

    w = Parameter("w", np.zeros(4))
    state = OptimizerState([w])
    for _ in range(5000):
        residual = design @ w.value - target
        w.grad = 2.0 * design.T @ residual / len(target)
        adam_step([w], state, lr=0.01)
        w.zero_grad()
    assert np.abs(w.value - solution).max() < 1e-4


def _textbook_adam(value, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place update the in-place step must match bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    value -= lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_matches_textbook_formula_bitwise(dtype):
    rng = np.random.default_rng(4)
    # Several chunks with a ragged tail, one partial chunk, and a scalar.
    shapes = [(2 * _ADAM_CHUNK + 77,), (3, 101), ()]
    params = [Parameter(f"p{i}", rng.standard_normal(s).astype(dtype)) for i, s in enumerate(shapes)]
    values = [p.value.copy() for p in params]
    ms = [np.zeros_like(x) for x in values]
    vs = [np.zeros_like(x) for x in values]
    state = OptimizerState(params)
    for t in range(1, 11):
        lr = 0.003 * t
        for p, value, m, v in zip(params, values, ms, vs):
            # Every third step has a zero gradient.
            g = (rng.standard_normal(p.shape) * (t % 3 != 0)).astype(dtype)
            p.grad = g
            _textbook_adam(value, m, v, g, t, lr)
        adam_step(params, state, lr)
    for p, value, m, v in zip(params, values, ms, vs):
        assert p.value.dtype == dtype
        assert p.value.tobytes() == value.tobytes()
        assert state.m[p.name].tobytes() == m.tobytes()
        assert state.v[p.name].tobytes() == v.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_missing_gradient_steps_as_explicit_zeros_bitwise(dtype):
    """``grad is None`` decays the moments and moves the value exactly as an array of zeros does."""
    rng = np.random.default_rng(6)
    shapes = [(_ADAM_CHUNK + 33,), (4, 5)]
    start = [rng.standard_normal(s).astype(dtype) for s in shapes]
    grads = [[rng.standard_normal(s).astype(dtype) for s in shapes] for _ in range(2)]
    runs = []
    for missing in ("zeros", "none"):
        params = [Parameter(f"p{i}", value.copy()) for i, value in enumerate(start)]
        state = OptimizerState(params)
        # Two real gradients make the moments nonzero; four steps follow with none, one with a gradient between.
        for step, drawn in enumerate([grads[0], None, grads[1], None, None, None]):
            for p, g in zip(params, drawn or [None] * len(params)):
                p.grad = g if g is not None or missing == "none" else np.zeros(p.shape, dtype)
            adam_step(params, state, lr=0.003 * (step + 1))
        runs.append([(p.value.tobytes(), state.m[p.name].tobytes(), state.v[p.name].tobytes()) for p in params])
    assert runs[0] == runs[1]


def _toy_model(backbone, dtype, tasks):
    cfg = ModelConfig(backbone=backbone, num_layers=2, d_node=8, d_edge=8, d_global=8, k_pe=2, rw_steps=3,
                      dtype=dtype, dropout=0.1, graph_head_input="global" if backbone == "mpnnpp" else "pooled")
    model = build_model(cfg)
    ensure_heads(model, tasks)
    return model


def _record_step(model, dataset, tasks, step):
    """A fresh tape holding one training forward over six toy molecules, and its loss."""
    tape = Tape()
    molecules = np.arange(6 * step, 6 * step + 6)
    loss, _ = trainer._losses_for_batch(tape, model, dataset, tasks, molecules, LossWeights(), True, step)
    return tape, loss


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_stepping_each_parameter_when_ready_matches_backward_then_adam_bitwise(backbone, dtype):
    dataset, tasks = build_toy_dataset()
    runs = []
    for fused in (False, True):
        model = _toy_model(backbone, dtype, tasks)
        params = model.parameters()
        state = OptimizerState(params)
        losses = []
        for step in range(3):
            tape, loss = _record_step(model, dataset, tasks, step)
            losses.append(loss.data.tobytes())
            lr = 0.01 * (step + 1)
            if fused:
                backward_and_step(tape, loss, params, lambda ps: adam_step(ps, state, lr))
            else:
                tape.backward(loss)
                adam_step(params, state, lr)
                for p in params:
                    p.zero_grad()
        assert all(p.grad is None for p in params)
        assert state.steps == {p.name: 3 for p in params}
        runs.append((losses, [(p.value.tobytes(), state.m[p.name].tobytes(), state.v[p.name].tobytes()) for p in params]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_on_ready_fires_once_per_watched_parameter_after_its_last_reader(backbone):
    """Each parameter is handed over with its complete gradient, and no op run after that reads its value:
    a NaN written into it there leaves every other gradient's bits unchanged."""
    dataset, tasks = build_toy_dataset()
    model = _toy_model(backbone, "float64", tasks)
    tape, loss = _record_step(model, dataset, tasks, 0)
    tape.backward(loss)
    reference = {name: p.grad for name, p in model.params.items()}

    model = _toy_model(backbone, "float64", tasks)
    tape, loss = _record_step(model, dataset, tasks, 0)
    watched = {p.name for p in tape._watched}
    handed, ops_left = [], []

    def ready(p):
        handed.append((p.name, p.grad))
        ops_left.append(len(tape._ops))
        p.grad = None
        p.value[...] = np.nan

    tape.backward(loss, on_ready=ready)
    names = [name for name, _ in handed]
    assert len(names) == len(set(names)) and set(names) == watched
    # Handed over as backward goes, not all at its end.
    assert ops_left == sorted(ops_left, reverse=True) and sum(n > 0 for n in ops_left) > len(ops_left) // 2
    for name, grad in handed:
        expected = reference[name]
        assert (grad is None) == (expected is None), name
        assert grad is None or grad.tobytes() == expected.tobytes(), name
    grads = dict(handed)
    if backbone == "gcn":
        # gcn records the global embedding but reads no edge embedding: neither gets a gradient.
        assert "embed_e/w1" not in watched and grads["embed_g/w1"] is None
    elif backbone == "gine":
        assert grads["layer0/epsilon"] is not None and grads["layer1/epsilon"] is not None
    else:
        # Each first-layer weight is read through its row blocks, one reader per block.
        assert all(grads[f"layer{i}/mlp_{mlp}/w1"] is not None for i in (0, 1) for mlp in ("edge", "node"))


def test_backward_and_step_steps_parameters_backward_never_reaches():
    """gcn never watches its edge MLP: it still takes one zero-gradient Adam step per training step."""
    dataset, tasks = build_toy_dataset()
    model = _toy_model("gcn", "float32", tasks)
    params = model.parameters()
    state = OptimizerState(params)
    calls = []

    def step(ps):
        calls.append([p.name for p in ps])
        adam_step(ps, state, 0.01)

    tape, loss = _record_step(model, dataset, tasks, 0)
    backward_and_step(tape, loss, params, step)
    assert all(len(names) == 1 for names in calls[:-1])
    assert calls[-1] == [name for name in model.params if name.startswith("embed_e/")]
    assert state.steps == {p.name: 1 for p in params}
    assert all(p.grad is None for p in params)


def test_adam_step_rejects_non_contiguous_parameter():
    p = Parameter("w", np.arange(12.0).reshape(3, 4).T)
    p.grad = np.ones((4, 3))
    state = OptimizerState([p])
    with pytest.raises(ValueError, match="contiguous"):
        adam_step([p], state, lr=0.1)
    np.testing.assert_array_equal(p.value, np.arange(12.0).reshape(3, 4).T)


def test_lr_at_peak_at_end_of_warmup():
    cfg = TrainConfig(epochs=100, peak_lr=3e-4, warmup_epochs=5, schedule="linear-decay")
    assert lr_at(0.05, cfg) == 3e-4


def test_lr_at_constant_schedule():
    cfg = TrainConfig(epochs=10, warmup_epochs=2, schedule="constant", peak_lr=1e-3)
    for frac in (0.2, 0.5, 0.9, 1.0):
        assert lr_at(frac, cfg) == 1e-3


def test_lr_at_linear_decay_endpoint():
    cfg = TrainConfig(epochs=10, warmup_epochs=2, schedule="linear-decay", peak_lr=1e-3)
    assert lr_at(1.0, cfg) == 0.0


def test_lr_at_cosine_endpoint_and_midpoint():
    cfg = TrainConfig(epochs=10, warmup_epochs=0, schedule="cosine", peak_lr=1.0)
    assert lr_at(1.0, cfg) == pytest.approx(0.0, abs=1e-15)
    assert lr_at(0.5, cfg) == pytest.approx(0.5, rel=1e-12)


def test_lr_continuous_at_warmup_boundary_and_nonnegative():
    for schedule in ("constant", "linear-decay", "cosine"):
        cfg = TrainConfig(epochs=20, warmup_epochs=4, schedule=schedule, peak_lr=2e-3)
        warm = 4 / 20
        assert lr_at(warm - 1e-12, cfg) == pytest.approx(lr_at(warm, cfg), rel=1e-9)
        for frac in np.linspace(0, 1, 101):
            assert lr_at(float(frac), cfg) >= 0.0


def test_split_100_molecules():
    train, valid, test = split_dataset(list(range(100)), SplitSpec())
    assert (len(train), len(valid), len(test)) == (92, 4, 4)


def test_split_10_molecules_floor_remainder_rule():
    train, valid, test = split_dataset(list(range(10)), SplitSpec())
    assert (len(train), len(valid), len(test)) == (9, 0, 1)


def test_split_disjoint_exhaustive_deterministic():
    a = split_dataset(list(range(57)), SplitSpec(seed=3))
    b = split_dataset(list(range(57)), SplitSpec(seed=3))
    assert a == b
    train, valid, test = a
    combined = sorted(train + valid + test)
    assert combined == list(range(57))
    c = split_dataset(list(range(57)), SplitSpec(seed=4))
    assert c != a


def test_split_too_few():
    with pytest.raises(TooFewMolecules):
        split_dataset([1, 2], SplitSpec())


def test_split_fractions_validated():
    with pytest.raises(ValueError):
        split_dataset(list(range(10)), SplitSpec(fractions=(0.5, 0.4, 0.2)))


def small_model(seed=0, dtype="float32"):
    cfg = ModelConfig(
        backbone="gine", num_layers=2, d_node=8, d_edge=8, d_global=8,
        k_pe=2, rw_steps=3, seed=seed, dtype=dtype,
    )
    return build_model(cfg)


def test_pretrain_rejects_zero_epochs():
    dataset, tasks = build_toy_dataset()
    with pytest.raises(ValueError):
        pretrain(dataset, small_model(), tasks, TrainConfig(epochs=0))


def test_pretrain_loss_decreases_and_logs(tmp_path):
    dataset, tasks = build_toy_dataset()
    model = small_model()
    cfg = TrainConfig(epochs=30, peak_lr=3e-3, warmup_epochs=2, schedule="constant", batch_size=16, seed=0)
    log = pretrain(dataset, model, tasks, cfg, out_dir=tmp_path)
    assert len(log.records) == 30
    assert log.records[-1].train["total"] < log.records[0].train["total"]
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "final.ckpt").exists()
    assert (tmp_path / "split.json").exists()
    lines = (tmp_path / "log.jsonl").read_text().strip().split("\n")
    assert len(lines) == 31  # one per epoch + summary line
    first = json.loads(lines[0])
    assert set(first) == {"epoch", "lr", "train", "valid"}
    assert "total" in first["train"]


def test_pretrain_rerun_identical_log(tmp_path):
    cfg = TrainConfig(epochs=5, peak_lr=1e-3, warmup_epochs=1, batch_size=8, seed=7)
    outputs = []
    for run in ("a", "b"):
        dataset, tasks = build_toy_dataset()
        model = small_model(seed=3)
        pretrain(dataset, model, tasks, cfg, out_dir=tmp_path / run)
        outputs.append((tmp_path / run / "log.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    a = (tmp_path / "a" / "final.ckpt").read_bytes()
    b = (tmp_path / "b" / "final.ckpt").read_bytes()
    assert a == b


def test_pretrain_leaves_no_gradient():
    """Gradients are dropped after each Adam step; gcn's unused edge MLP never gets one."""
    dataset, tasks = build_toy_dataset()
    cfg = ModelConfig(backbone="gcn", num_layers=2, d_node=8, d_edge=8, d_global=8, k_pe=2, rw_steps=3)
    model = build_model(cfg)
    edge_mlp = {name: p.value.copy() for name, p in model.params.items() if name.startswith("embed_e/")}
    pretrain(dataset, model, tasks, TrainConfig(epochs=2, warmup_epochs=0, batch_size=16))
    assert all(p.grad is None for p in model.parameters())
    assert all(np.array_equal(model.params[name].value, value) for name, value in edge_mlp.items())


def test_pretrain_best_checkpoint_matches_log(tmp_path):
    dataset, tasks = build_toy_dataset()
    model = small_model(seed=1)
    cfg = TrainConfig(epochs=8, peak_lr=3e-3, warmup_epochs=1, schedule="constant", batch_size=16, seed=1)
    log = pretrain(dataset, model, tasks, cfg, out_dir=tmp_path)
    assert log.best_valid == min(r.valid["total"] for r in log.records)
    assert log.records[log.best_epoch - 1].valid["total"] == log.best_valid

    with open(tmp_path / "split.json") as fh:
        split = json.load(fh)
    best = load_model(tmp_path / "best.ckpt")
    summary = evaluate(best, dataset, tasks, split["valid"], LossWeights(), cfg.batch_size)
    assert summary["total"] == pytest.approx(log.best_valid, rel=1e-6)


def test_pretrain_links_final_to_a_best_last_epoch(tmp_path):
    """A best last epoch gives final.ckpt the best file, not a second write; a
    later save to best.ckpt replaces it and leaves that final as it was."""
    dataset, tasks = build_toy_dataset()
    model = small_model(seed=1)
    log = pretrain(dataset, model, tasks, TrainConfig(epochs=1, warmup_epochs=0, batch_size=16), out_dir=tmp_path)
    assert log.best_epoch == 1
    assert os.path.samefile(tmp_path / "best.ckpt", tmp_path / "final.ckpt")
    best, final = load_model(tmp_path / "best.ckpt"), load_model(tmp_path / "final.ckpt")
    assert all(final.params[name].value.tobytes() == p.value.tobytes() for name, p in best.params.items())
    final_bytes = (tmp_path / "final.ckpt").read_bytes()

    later = small_model(seed=2)
    ensure_heads(later, tasks)
    save_model(later, tmp_path / "best.ckpt")
    assert (tmp_path / "final.ckpt").read_bytes() == final_bytes
    assert (tmp_path / "best.ckpt").read_bytes() != final_bytes
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_pretrain_rerun_into_the_same_directory_rewrites_it_byte_for_byte(tmp_path):
    """The second run replaces final.ckpt, which the first linked to its best.ckpt,
    with a link to its own best.ckpt, and leaves no temporary file."""
    cfg = TrainConfig(epochs=3, peak_lr=3e-3, warmup_epochs=0, schedule="constant", batch_size=16, seed=5)
    names = ("log.jsonl", "split.json", "best.ckpt")
    outputs, first_inode = [], None
    for _ in range(2):
        dataset, tasks = build_toy_dataset()
        log = pretrain(dataset, small_model(seed=4), tasks, cfg, out_dir=tmp_path)
        assert log.best_epoch == cfg.epochs  # so final.ckpt is linked, not written
        outputs.append({name: (tmp_path / name).read_bytes() for name in names})
        assert os.path.samefile(tmp_path / "best.ckpt", tmp_path / "final.ckpt")
        first_inode = first_inode or os.stat(tmp_path / "final.ckpt").st_ino
    assert outputs[0] == outputs[1]
    assert os.stat(tmp_path / "final.ckpt").st_ino != first_inode  # the second run's link replaced the first's
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_evaluate_runs_with_no_training_step_alive(monkeypatch):
    """At the epoch's validation pass the last training step is gone: beyond
    what existed before pretrain, little more than the Adam moments is held."""
    dataset, tasks = build_toy_dataset()
    model = build_model(default_config("gine", k_pe=2, rw_steps=3))
    ensure_heads(model, tasks)
    moments = 2 * sum(p.value.nbytes for p in model.parameters())
    held = []

    def probe(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(trainer, "evaluate", probe)
    traced_memory(lambda: pretrain(dataset, model, tasks, TrainConfig(epochs=1, warmup_epochs=0, batch_size=32)))
    assert len(held) == 1
    assert held[0] <= moments + 5 * 2**20, f"{held[0] / 2**20:.1f} MB held, moments {moments / 2**20:.1f} MB"


def test_pretrain_nan_abort_names_group():
    dataset, tasks = build_toy_dataset()
    dataset.graph_labels["gap"].values[0, 0] = np.inf
    dataset.graph_labels["gap"].mask[...] = 1.0
    model = small_model()
    with pytest.raises(NaNLossError) as exc:
        pretrain(dataset, model, tasks, TrainConfig(epochs=1, warmup_epochs=0, batch_size=32))
    assert "G25" in str(exc.value)


def test_evaluate_empty_indices():
    dataset, tasks = build_toy_dataset()
    model = small_model()
    from minifp.trainer import ensure_heads

    ensure_heads(model, tasks)
    assert evaluate(model, dataset, tasks, [], LossWeights(), 8) == {"total": 0.0}


def test_evaluate_reports_binary_auroc():
    dataset, tasks = build_toy_dataset()
    model = small_model()
    from minifp.trainer import ensure_heads

    ensure_heads(model, tasks)
    summary = evaluate(model, dataset, tasks, list(range(len(dataset))), LossWeights(), 8)
    assert "auroc_assay" in summary
    assert 0.0 <= summary["auroc_assay"] <= 1.0
    # Pooled-AUROC oracle over every masked-in label entry.
    from minifp.downstream import auroc
    from minifp.autodiff import Tape
    from minifp.backbones import batch_graphs, forward
    from minifp.multitask import head_input, task_head_forward

    tape = Tape(recording=False)
    batch = batch_graphs(dataset.graphs, dataset.features, dtype=model.config.np_dtype)
    result = forward(tape, batch, model)
    spec = tasks[1]
    logits = task_head_forward(tape, model, spec.name, head_input(tape, result, batch, model, spec)).data
    labels = dataset.graph_labels[spec.name]
    mask = labels.mask > 0
    expected = auroc(logits[mask], labels.values[mask])
    assert summary["auroc_assay"] == expected
