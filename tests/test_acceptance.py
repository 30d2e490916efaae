"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -s`` to see them
inline, or rely on per-test PASSED/FAILED lines from ``pytest -v``)."""

import csv
import json
import time

import numpy as np
import pytest

from minifp.autodiff import Parameter, Tape
from minifp.backbones import (
    GraphBatch,
    ModelConfig,
    batch_graphs,
    build_model,
    count_parameters,
    default_config,
    forward,
    gcn_layer,
    gine_layer,
    mlp_forward,
    mpnnpp_layer,
    pool,
)
from minifp.cli import main
from minifp.downstream import (
    HeadConfig,
    TaskData,
    auroc,
    holdout_split,
    kfold_ensemble,
    spearman_rho,
    train_head,
)
from minifp.encodings import (
    assemble,
    laplacian_encoding,
    normalized_laplacian,
    random_walk_encoding,
)
from minifp.molgraph import Atom, Bond, MolecularGraph, annotate, parse_smiles
from minifp.multitask import (
    LabelSet,
    LossWeights,
    TaskSpec,
    bce_loss,
    combined_loss,
    hce_loss,
    mae_loss,
    task_head_forward,
)
from minifp.trainer import (
    PretrainDataset,
    SplitSpec,
    TrainConfig,
    pretrain,
    split_dataset,
)

from .test_cli import SMALL_CONFIG, write_dataset
from .util import TOY_SMILES, ensemble_predict, finite_difference_check, random_molecule


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def tiny_config(backbone, **overrides):
    base = dict(
        backbone=backbone, num_layers=2, d_node=8, d_edge=8, d_global=8,
        k_pe=2, rw_steps=3, seed=0, dtype="float64",
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def _permuted_batch(batch, perm):
    return GraphBatch(
        node_features=batch.node_features[np.argsort(perm)],
        edge_features=batch.edge_features.copy(),
        senders=perm[batch.senders],
        receivers=perm[batch.receivers],
        node_graph_ids=batch.node_graph_ids.copy(),
        edge_graph_ids=batch.edge_graph_ids.copy(),
        num_graphs=1,
    )


def test_permutation_invariance_criterion():
    """100 random molecules x 10 node permutations x 3 backbones x 3 poolings:
    fingerprints agree within 1e-6, bitwise at 64-bit; runtime < 2 min."""
    started = time.monotonic()
    models = {b: build_model(tiny_config(b)) for b in ("gcn", "gine", "mpnnpp")}
    rng = np.random.default_rng(0)
    for _ in range(100):
        graph = random_molecule(rng)
        feats = assemble(graph, 2, 3)
        batch = batch_graphs([graph], [feats], dtype=np.float64)
        tape = Tape(recording=False)
        base = {name: forward(tape, batch, model).x for name, model in models.items()}
        for _ in range(10):
            perm = rng.permutation(graph.num_atoms)
            permuted = _permuted_batch(batch, perm)
            for name, model in models.items():
                out = forward(tape, permuted, model).x
                for method in ("sum", "mean", "max"):
                    a = pool(tape, base[name], batch, method).data
                    b = pool(tape, out, permuted, method).data
                    assert np.abs(a - b).max() <= 1e-6
                    assert np.array_equal(a, b)  # bitwise at float64
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"permutation check took {elapsed:.1f}s"
    report(f"permutation invariance (bitwise at 64-bit, {elapsed:.1f}s)")


def test_gradient_correctness_criterion():
    """Finite differences (64-bit, h=1e-5) on every layer type, the embedding
    MLPs, task heads, and all three losses: max rel error < 1e-4, 20 seeds."""
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = tiny_config("mpnnpp", num_layers=1, d_node=3, d_edge=3, d_global=3, seed=seed)
        gcn_state = build_model(tiny_config("gcn", num_layers=1, d_node=3, d_edge=3, d_global=3, seed=seed))
        gine_state = build_model(tiny_config("gine", num_layers=1, d_node=3, d_edge=3, d_global=3, seed=seed))
        mpnn_state = build_model(cfg)

        x_in = rng.standard_normal((4, 3))
        e_in = rng.standard_normal((4, 3))
        g_in = rng.standard_normal((1, 3))
        batch = GraphBatch(
            node_features=x_in,
            edge_features=e_in,
            senders=np.array([0, 1, 2, 3]),
            receivers=np.array([1, 0, 3, 2]),
            node_graph_ids=np.zeros(4, dtype=np.int64),
            edge_graph_ids=np.zeros(4, dtype=np.int64),
            num_graphs=1,
        )

        def sq(tape, t):
            return tape.sum(tape.mul(t, t))

        checks = []

        def gcn_fn(tape):
            return sq(tape, gcn_layer(tape, gcn_state, 0, tape.constant(x_in), batch, False, 0))

        checks.append((gcn_fn, [p for n, p in gcn_state.params.items() if n.startswith("layer0/")]))

        def gine_fn(tape):
            e_classes = tape.constant(batch.bond_rows)
            return sq(tape, gine_layer(tape, gine_state, 0, tape.constant(x_in), e_classes, batch, False, 0))

        checks.append((gine_fn, [p for n, p in gine_state.params.items() if n.startswith("layer0/")]))

        def mpnn_fn(tape):
            x, e, g = mpnnpp_layer(
                tape, mpnn_state, 0, tape.constant(x_in), tape.constant(e_in), tape.constant(g_in), batch, False, 0
            )
            return tape.add(sq(tape, x), tape.add(sq(tape, e), sq(tape, g)))

        checks.append((mpnn_fn, [p for n, p in mpnn_state.params.items() if n.startswith("layer0/")]))

        embed_in = rng.standard_normal((3, cfg.node_input_width))
        edge_embed_in = rng.standard_normal((3, cfg.edge_input_width))
        for prefix, data in (("embed_x", embed_in), ("embed_e", edge_embed_in), ("embed_g", g_in)):
            def embed_fn(tape, prefix=prefix, data=data):
                return sq(tape, mlp_forward(tape, mpnn_state, prefix, tape.constant(data)))

            checks.append((embed_fn, [mpnn_state.params[f"{prefix}/{k}"] for k in ("w1", "b1", "w2", "b2")]))

        head_state = build_model(tiny_config("gine", num_layers=1, d_node=3, d_edge=3, seed=seed))
        head_state.add_task_head("probe", "graph", 3, 4)
        emb = rng.standard_normal((5, 3))
        mask = (rng.random((5, 4)) < 0.8).astype(float)
        # Regression labels sit strictly above the initial predictions: central
        # differences are invalid within h of the |x| kink, and mixed signs can
        # cancel a bias gradient to exactly zero, where FD sees only rounding
        # noise over the 1e-8 denominator floor.
        probe_tape = Tape(recording=False)
        initial = task_head_forward(probe_tape, head_state, "probe", probe_tape.constant(emb)).data
        reg_labels = LabelSet(initial + rng.uniform(0.1, 1.0, (5, 4)), mask)
        bin_labels = LabelSet((rng.random((5, 4)) < 0.5).astype(float), mask)
        cls_mask = (rng.random((5, 2)) < 0.8).astype(float)
        cls_labels = LabelSet(rng.integers(0, 2, (5, 2)).astype(float), cls_mask)
        head_params = [head_state.params[f"head/probe/{k}"] for k in ("w1", "b1", "w2", "b2")]

        def head_mae(tape):
            return mae_loss(tape, task_head_forward(tape, head_state, "probe", tape.constant(emb)), reg_labels)

        def head_bce(tape):
            return bce_loss(tape, task_head_forward(tape, head_state, "probe", tape.constant(emb)), bin_labels)

        def head_hce(tape):
            return hce_loss(tape, task_head_forward(tape, head_state, "probe", tape.constant(emb)), cls_labels, 2)

        checks += [(head_mae, head_params), (head_bce, head_params), (head_hce, head_params)]

        for fn, params in checks:
            worst = max(worst, finite_difference_check(fn, params, h=1e-5))
    elapsed = time.monotonic() - started
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    assert elapsed < 300.0, f"gradient checks took {elapsed:.1f}s"
    report(f"gradient correctness (max rel err {worst:.2e} over 20 seeds, {elapsed:.1f}s)")


def test_spectral_oracle_criterion():
    """P3 eigenvalues {0, 1, 2} within 1e-9; eigenpair residuals < 1e-8 on
    200 random molecular graphs."""
    p3 = annotate(
        MolecularGraph(atoms=[Atom(element="C") for _ in range(3)], bonds=[Bond(0, 1), Bond(1, 2)], smiles="CCC")
    )
    _, values = laplacian_encoding(p3, k_pe=3)
    assert np.abs(values[0] - np.array([0.0, 1.0, 2.0])).max() < 1e-9

    rng = np.random.default_rng(1)
    for _ in range(200):
        graph = random_molecule(rng)
        lap = normalized_laplacian(graph)
        k = min(8, graph.num_atoms)
        vectors, values = laplacian_encoding(graph, k_pe=k)
        for col in range(k):
            v = vectors[:, col]
            lam = values[0, col]
            assert np.abs(lap @ v - lam * v).max() < 1e-8
    report("spectral oracle (P3 within 1e-9; 200 residuals < 1e-8)")


def test_random_walk_oracle_criterion():
    """Encoding equals the dense matrix-power computation within 1e-12 for
    N <= 12; the K2 pattern [0, 1, 0, 1] is exact."""
    k2 = annotate(MolecularGraph(atoms=[Atom(element="C"), Atom(element="C")], bonds=[Bond(0, 1)], smiles="CC"))
    np.testing.assert_array_equal(random_walk_encoding(k2, 4), [[0, 1, 0, 1], [0, 1, 0, 1]])

    rng = np.random.default_rng(2)
    for _ in range(100):
        graph = random_molecule(rng, max_atoms=12)
        probs = random_walk_encoding(graph, rw_steps=8)
        adj = np.zeros((graph.num_atoms, graph.num_atoms))
        for bond in graph.bonds:
            adj[bond.u, bond.v] = adj[bond.v, bond.u] = 1.0
        deg = adj.sum(axis=1)
        trans = np.where(deg[:, None] > 0, adj / np.maximum(deg, 1.0)[:, None], 0.0)
        for k in range(1, 9):
            oracle = np.linalg.matrix_power(trans, k).diagonal()
            assert np.abs(probs[:, k - 1] - oracle).max() < 1e-12
    report("random-walk oracle (matrix-power match within 1e-12; K2 exact)")


def test_loss_arithmetic_criterion():
    """combined_loss with unit group losses and k=5 returns exactly 3.2;
    masking invariance holds bitwise for value and gradients."""
    tape = Tape(recording=False)
    losses = {g: tape.constant(np.float64(1.0)) for g in ("L1000", "PCBA", "N4", "G25")}
    assert float(combined_loss(tape, losses, LossWeights(k=5.0)).data) == 3.2

    rng = np.random.default_rng(3)
    w = Parameter("w", rng.standard_normal((4, 3)))
    x = rng.standard_normal((6, 4))
    mask = (rng.random((6, 3)) < 0.5).astype(float)
    values = rng.standard_normal((6, 3))

    def run(labels):
        w.zero_grad()
        tape = Tape()
        pred = tape.matmul(tape.constant(x), tape.watch(w))
        loss_value = mae_loss(tape, pred, LabelSet(labels, mask))
        tape.backward(loss_value)
        return float(loss_value.data), w.grad.copy()

    base_loss, base_grad = run(values)
    perturbed = values.copy()
    perturbed[mask == 0] = 1e6
    new_loss, new_grad = run(perturbed)
    assert new_loss == base_loss and np.array_equal(new_grad, base_grad)
    report("loss arithmetic (3.2 exact; masking invariance bitwise)")


def test_edge_feature_separation_criterion():
    """Inputs differing only in edge features: identical GCN outputs and
    different GINE/MPNN++ outputs (norm > 1e-6) for 20 random weight seeds."""
    rng = np.random.default_rng(4)
    for seed in range(20):
        x = rng.standard_normal((4, 6))
        e1 = rng.standard_normal((4, 6))
        e2 = e1 + rng.standard_normal((4, 6))
        batch = GraphBatch(
            node_features=x,
            edge_features=e1,
            senders=np.array([0, 1, 2, 3]),
            receivers=np.array([1, 0, 3, 2]),
            node_graph_ids=np.zeros(4, dtype=np.int64),
            edge_graph_ids=np.zeros(4, dtype=np.int64),
            num_graphs=1,
        )
        outs = {}
        for backbone in ("gcn", "gine", "mpnnpp"):
            state = build_model(tiny_config(backbone, num_layers=1, d_node=6, d_edge=6, d_global=6, seed=seed))
            pair = []
            for e in (e1, e2):
                tape = Tape(recording=False)
                xt, et = tape.constant(x), tape.constant(e)
                if backbone == "gcn":
                    out = gcn_layer(tape, state, 0, xt, batch, False, 0)
                elif backbone == "gine":
                    out = gine_layer(tape, state, 0, xt, et, batch, False, 0)
                else:
                    out, _, _ = mpnnpp_layer(
                        tape, state, 0, xt, et, tape.constant(rng.standard_normal((1, 6))), batch, False, 0
                    )
                pair.append(out.data)
            outs[backbone] = pair
        assert np.array_equal(outs["gcn"][0], outs["gcn"][1])
        assert np.linalg.norm(outs["gine"][0] - outs["gine"][1]) > 1e-6
        assert np.linalg.norm(outs["mpnnpp"][0] - outs["mpnnpp"][1]) > 1e-6
    report("edge-feature separation (20 seeds)")


def _overfit_dataset():
    graphs = [parse_smiles(s) for s in TOY_SMILES]
    feats = [assemble(g, 2, 3) for g in graphs]
    rng = np.random.default_rng(7)
    n = len(graphs)
    node_values = []
    for graph in graphs:
        degree = [0] * graph.num_atoms
        for bond in graph.bonds:
            degree[bond.u] += 1
            degree[bond.v] += 1
        for i, atom in enumerate(graph.atoms):
            node_values.append(0.1 * degree[i] + (0.5 if atom.element == "O" else 0.0))
    node_values = np.array(node_values).reshape(-1, 1)
    dataset = PretrainDataset(
        graphs=graphs,
        features=feats,
        graph_labels={
            "gap": LabelSet(rng.standard_normal((n, 1)), np.ones((n, 1))),
            "assay": LabelSet((rng.random((n, 2)) < 0.5).astype(float), np.ones((n, 2))),
        },
        node_labels={"charge": LabelSet(node_values, np.ones_like(node_values))},
    )
    tasks = [
        TaskSpec("gap", "graph", "regression", "MAE", 1, "G25"),
        TaskSpec("assay", "graph", "binary", "BCE", 2, "PCBA"),
        TaskSpec("charge", "node", "regression", "MAE", 1, "N4"),
    ]
    return dataset, tasks


def test_overfit_sanity_criterion():
    """32-molecule toy set (2 graph tasks + 1 node task), 4-layer GINE,
    500 epochs: final train loss <= 10% of the epoch-1 loss; < 5 min CPU."""
    started = time.monotonic()
    dataset, tasks = _overfit_dataset()
    assert len(dataset) == 32
    model = build_model(
        ModelConfig(backbone="gine", num_layers=4, d_node=24, d_edge=24, d_global=24, k_pe=2, rw_steps=3, seed=0)
    )
    config = TrainConfig(epochs=500, peak_lr=3e-3, warmup_epochs=5, schedule="constant", batch_size=32, seed=0)
    log = pretrain(dataset, model, tasks, config, split=SplitSpec(fractions=(1.0, 0.0, 0.0)))
    first = log.records[0].train["total"]
    final = log.records[-1].train["total"]
    elapsed = time.monotonic() - started
    assert final <= 0.1 * first, f"final {final:.4f} vs epoch-1 {first:.4f}"
    assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"
    report(f"overfit sanity (ratio {final / first:.3f}, {elapsed:.1f}s)")


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_parameter_budget_criterion(backbone):
    """Default 16-layer configs land in [8M, 12M] parameters (arithmetic only)."""
    count = count_parameters(build_model(default_config(backbone)))
    assert 8_000_000 <= count <= 12_000_000
    report(f"parameter budget ({backbone}: {count:,})")


def test_ensembling_criterion(tmp_path):
    """Identical members reproduce the single model exactly; a 5-fold x 5-rep
    run on a 500-sample synthetic task completes < 10 min with mean/std output."""
    started = time.monotonic()
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((500, 8)).astype(np.float32)
    labels = (vectors[:, 0] + 0.25 * vectors[:, 1] > 0).astype(float).reshape(-1, 1)
    data = TaskData(vectors, LabelSet(labels, np.ones_like(labels)), "binary")
    train_rows, test_rows = holdout_split(500, 0)

    config = HeadConfig(hidden_dim=32, num_layers=2, dropout=0.0, learning_rate=1e-2, epochs=8, batch_size=128)
    head = train_head(data, config, 0, train_rows, test_rows)
    single = head.predict(vectors)
    np.testing.assert_array_equal(ensemble_predict([head] * 5, vectors), single)
    single_metric = auroc(single.ravel(), labels.ravel())
    ensemble_metric = auroc(ensemble_predict([head] * 5, vectors).ravel(), labels.ravel())
    assert ensemble_metric == single_metric

    result = kfold_ensemble(data, config, train_rows, test_rows, num_folds=5, num_reps=5, metric="auroc", seed=0)
    summary = result.summary()
    assert summary["num_folds"] == 5 and summary["num_reps"] == 5
    for key in ("val_mean", "val_std", "test_mean", "test_std"):
        assert np.isfinite(summary[key])
    assert summary["test_mean"] > 0.9  # separable synthetic task
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"ensembling took {elapsed:.1f}s"
    report(f"ensembling (identical-model identity exact; 5x5 run {elapsed:.1f}s, test {summary['test_mean']:.3f})")


def test_metric_oracles_criterion():
    """AUROC equals brute-force pair counting on 1000 random instances
    (n <= 50) exactly; the Spearman worked example gives 0.8."""
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        scores = np.round(rng.random(n), 1) if rng.random() < 0.5 else rng.random(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = 0.0
        for p in pos:
            for q in neg:
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        brute = wins / (len(pos) * len(neg))
        assert auroc(scores, labels) == brute
    rho, _ = spearman_rho([1, 2, 3, 4], [1, 3, 2, 4])
    assert rho == pytest.approx(0.8, rel=1e-12)
    report("metric oracles (1000 AUROC instances exact; Spearman 0.8)")


def test_determinism_criterion(tmp_path):
    """featurize -> pretrain (5 epochs) -> fingerprint -> downstream twice
    with one master seed: byte-identical stores and logs."""
    manifest = write_dataset(tmp_path)
    config_path = tmp_path / "config.txt"
    config_path.write_text(SMALL_CONFIG.replace("epochs = 3", "epochs = 5"))
    smi = tmp_path / "mols.smi"
    smi.write_text("".join(s + "\n" for s in TOY_SMILES[:20]))
    head_cfg = tmp_path / "head.txt"
    head_cfg.write_text("epochs = 4\npeak_lr = 0.01\nd_node = 16\nnum_layers = 2\n")

    outputs = {}
    for run in ("one", "two"):
        base = tmp_path / run
        assert main(["featurize", str(manifest), "--out", str(base / "cache")]) == 0
        assert main([
            "pretrain", str(manifest), "--backbone", "gine", "--config", str(config_path),
            "--out", str(base / "run"), "--seed", "11",
        ]) == 0
        assert main([
            "fingerprint", str(base / "run" / "best.ckpt"), str(smi), "--out", str(base / "fp.mfps"),
        ]) == 0
        labels_csv = tmp_path / "dlabels.csv"
        if not labels_csv.exists():
            with open(labels_csv, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["mol_id", "y"])
                for i, text in enumerate(TOY_SMILES[:20]):
                    from minifp.molgraph import normalize_smiles

                    writer.writerow([normalize_smiles(text), i % 2])
            (tmp_path / "dtask.json").write_text(json.dumps({
                "labels_csv": "dlabels.csv",
                "id_column": "mol_id",
                "task": {"name": "toy", "kind": "binary", "metric": "auroc", "columns": ["y"]},
            }))
        assert main([
            "downstream", str(base / "fp.mfps"), str(tmp_path / "dtask.json"), "--sweep", "none",
            "--head-config", str(head_cfg), "--folds", "2", "--reps", "2",
            "--out", str(base / "down"), "--seed", "11",
        ]) == 0
        outputs[run] = {
            "layout": (base / "cache" / "layout.json").read_bytes(),
            "failures": (base / "cache" / "failures.csv").read_bytes(),
            "log": (base / "run" / "log.jsonl").read_bytes(),
            "best": (base / "run" / "best.ckpt").read_bytes(),
            "store": (base / "fp.mfps").read_bytes(),
            "store_csv": (base / "fp.mfps.csv").read_bytes(),
            "summary": (base / "down" / "summary.csv").read_bytes(),
            "ensemble": (base / "down" / "ensemble.csv").read_bytes(),
        }
    for key in outputs["one"]:
        assert outputs["one"][key] == outputs["two"][key], f"{key} differs between reruns"
    report("determinism (pipeline reruns byte-identical)")


def test_split_fractions_criterion():
    """100 molecules under (0.92, 0.04, 0.04) split exactly into (92, 4, 4)."""
    train, valid, test = split_dataset(list(range(100)), SplitSpec(fractions=(0.92, 0.04, 0.04)))
    assert (len(train), len(valid), len(test)) == (92, 4, 4)
    report("split fractions (92/4/4)")
