import collections
import os

import numpy as np
import pytest

from minifp.autodiff import ShapeMismatch, Tape
from minifp.backbones import (
    GraphBatch,
    ModelConfig,
    batch_graphs,
    build_model,
    count_parameters,
    default_config,
    embed_inputs,
    forward,
    gcn_aggregate,
    gcn_layer,
    gine_layer,
    link_model,
    load_model,
    mlp_forward,
    mpnnpp_layer,
    save_model,
)
from minifp.container import CorruptFile
from minifp.encodings import ATOM_FEATURE_WIDTH, AssembledFeatures, assemble, atom_features, bond_features
from minifp.molgraph import parse_smiles
from minifp.multitask import TaskSpec, head_input
from minifp.seeding import rng_stream

from .util import (
    TOY_SMILES,
    InterruptingArray,
    finite_difference_check,
    header_span,
    loop_batch_graphs,
    random_molecule,
    traced_memory,
)


def tiny_config(backbone, **overrides):
    base = dict(
        backbone=backbone,
        num_layers=2,
        d_node=4,
        d_edge=4,
        d_global=4,
        k_pe=2,
        rw_steps=3,
        dtype="float64",
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def featurized_batch(smiles_list, cfg):
    graphs = [parse_smiles(s) for s in smiles_list]
    feats = [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs]
    return graphs, batch_graphs(graphs, feats, dtype=cfg.np_dtype)


def single_graph_batch(x, e, senders, receivers, dtype=np.float64):
    x = np.asarray(x, dtype=dtype)
    e = np.asarray(e, dtype=dtype).reshape(len(senders), -1) if len(senders) else np.zeros((0, x.shape[1]), dtype=dtype)
    return GraphBatch(
        node_features=x,
        edge_features=e,
        senders=np.asarray(senders, dtype=np.int64),
        receivers=np.asarray(receivers, dtype=np.int64),
        node_graph_ids=np.zeros(x.shape[0], dtype=np.int64),
        edge_graph_ids=np.zeros(len(senders), dtype=np.int64),
        num_graphs=1,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_graphs_equals_the_loop_over_bonds_bitwise(dtype):
    rng = np.random.default_rng(4)
    graphs = [parse_smiles(s) for s in [*TOY_SMILES, "N", "C"]] + [random_molecule(rng) for _ in range(20)]
    feats = [assemble(g, 2, 3) for g in graphs]
    no_bonds = slice(len(TOY_SMILES), len(TOY_SMILES) + 2)
    for chosen in (slice(None), slice(0, 1), no_bonds, slice(0, 0)):
        args = graphs[chosen], feats[chosen]
        batch, oracle = batch_graphs(*args, dtype=dtype), loop_batch_graphs(*args, dtype=dtype)
        for field in ("node_features", "edge_features", "senders", "receivers", "node_graph_ids", "edge_graph_ids"):
            got, want = getattr(batch, field), getattr(oracle, field)
            assert got.dtype == want.dtype and got.shape == want.shape, field
            assert got.tobytes() == want.tobytes(), field
        assert batch.num_graphs == oracle.num_graphs


def test_config_rejects_zero_layers():
    with pytest.raises(ValueError):
        ModelConfig(backbone="gine", num_layers=0).validate()


def test_config_rejects_gine_width_mismatch():
    with pytest.raises(ValueError):
        ModelConfig(backbone="gine", d_node=8, d_edge=4).validate()


def test_count_parameters_small_cases():
    cfg = tiny_config("gcn", num_layers=1, d_node=2, d_edge=2, d_global=2)
    state = build_model(cfg)
    # Single linear 3 -> 2 with bias has 8 parameters.
    state2 = build_model(cfg)
    before = count_parameters(state2)
    state2.add_initial("extra/w", (3, 2))
    state2.add_parameter("extra/b", np.zeros(2))
    assert count_parameters(state2) - before == 8
    # A task head, a two-layer MLP 4 -> 4 -> 4 with biases, has 40.
    before = count_parameters(state)
    state.add_task_head("extra", "graph", 4, 4)
    assert count_parameters(state) - before == 40


# Exact parameter counts for the default 16-layer configurations.  Derived by
# summing layer shapes from the config arithmetic; all sit inside [8M, 12M].
EXPECTED_COUNTS = {
    "gcn": 9_970_048,
    "gine": 10_087_984,
    "mpnnpp": 10_235_136,
}


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_default_parameter_budget(backbone):
    state = build_model(default_config(backbone))
    count = count_parameters(state)
    assert count == EXPECTED_COUNTS[backbone]
    assert 8_000_000 <= count <= 12_000_000


def test_parameter_names_unique_and_counted_exactly():
    state = build_model(tiny_config("mpnnpp"))
    names = [p.name for p in state.parameters()]
    assert len(names) == len(set(names))
    assert count_parameters(state) == sum(p.value.size for p in state.parameters())


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_build_model_matches_the_inline_glorot_draws_bitwise(backbone, dtype):
    # Only the 2-D weights draw from the "params" stream, one call each in
    # creation order; every other parameter starts at zero.
    for seed in (0, 9):
        state = build_model(tiny_config(backbone, d_node=6, d_edge=6, d_global=3, dtype=dtype, seed=seed))
        init = rng_stream(seed, "params")
        for p in state.parameters():
            if p.value.ndim == 2:
                fan_in, fan_out = p.value.shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                expected = init.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
            else:
                expected = np.zeros(p.value.shape, dtype=dtype)
            assert p.value.dtype == expected.dtype and np.array_equal(p.value, expected), p.name


def test_embed_identity_mlps():
    cfg = tiny_config("gine", num_layers=1, d_node=29, d_edge=29, d_global=4)
    # Square widths so identity weights are possible: d == node_input_width.
    assert cfg.node_input_width == 29
    state = build_model(cfg)
    eye = np.eye(29)
    for key in ("embed_x/w1", "embed_x/w2"):
        state.params[key].value[...] = eye
    for key in ("embed_x/b1", "embed_x/b2"):
        state.params[key].value[...] = 0.0
    _, batch = featurized_batch(["CCO"], cfg)
    tape = Tape(recording=False)
    x0, _, _ = embed_inputs(tape, batch, state)
    np.testing.assert_array_equal(x0.data, np.maximum(batch.node_features, 0.0))


def test_embed_zero_input_zero_bias():
    cfg = tiny_config("gine", num_layers=1)
    state = build_model(cfg)
    _, batch = featurized_batch(["CC"], cfg)
    batch.node_features[...] = 0.0
    tape = Tape(recording=False)
    x0, _, _ = embed_inputs(tape, batch, state)
    np.testing.assert_array_equal(x0.data, np.zeros_like(x0.data))


def test_embed_global_row_per_graph():
    cfg = tiny_config("mpnnpp")
    state = build_model(cfg)
    _, batch = featurized_batch(["CCO", "c1ccccc1"], cfg)
    tape = Tape(recording=False)
    _, _, g0 = embed_inputs(tape, batch, state)
    assert g0.data.shape == (2, cfg.d_global)
    np.testing.assert_array_equal(g0.data[0], g0.data[1])


def test_embed_width_mismatch_raises():
    cfg = tiny_config("gine")
    state = build_model(cfg)
    _, batch = featurized_batch(["CC"], cfg)
    bad = batch.node_features[:, :-1]
    batch.node_features = bad
    with pytest.raises(ShapeMismatch):
        embed_inputs(Tape(recording=False), batch, state)


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_forward_on_a_batch_of_another_dtype_raises(backbone):
    # The batch's operators are in its own dtype, so a model runs only on a batch of its dtype.
    state = build_model(tiny_config(backbone))
    _, batch = featurized_batch(["CC(=O)O"], tiny_config(backbone, dtype="float32"))
    with pytest.raises(ShapeMismatch, match="float32 batch for a float64 model"):
        forward(Tape(recording=False), batch, state)


def test_gcn_embeds_no_edges_but_keeps_the_edge_mlp():
    cfg = tiny_config("gcn")
    state = build_model(cfg)
    _, batch = featurized_batch(["CCO", "c1ccccc1"], cfg)
    tape = Tape()
    result = forward(tape, batch, state, training=True)
    assert result.e is None
    tape.backward(tape.sum(result.x))
    assert np.any(state.params["embed_x/w1"].grad)
    assert all(state.params[f"embed_e/{name}"].grad is None for name in ("w1", "b1", "w2", "b2"))


def test_gcn_aggregate_k2_hand_computed():
    batch = single_graph_batch([[1.0], [0.0]], [[0.0], [0.0]], [0, 1], [1, 0])
    tape = Tape(recording=False)
    agg = gcn_aggregate(tape, tape.constant(batch.node_features), batch)
    # d_0 = d_1 = 2 including self-loops: node 0 = 1/2, node 1 = 1/2 + 0.
    np.testing.assert_allclose(agg.data, [[0.5], [0.5]], atol=1e-15)


def test_gcn_aggregate_single_node_identity():
    batch = single_graph_batch([[3.0, -2.0]], [], [], [])
    tape = Tape(recording=False)
    x = tape.constant(batch.node_features)
    agg = gcn_aggregate(tape, x, batch)
    np.testing.assert_array_equal(agg.data, [[3.0, -2.0]])


def _gathered_gcn_aggregate(x, batch):
    """GCN aggregation as gather, mul by edge coefficients, segment sum, self-loop mul, add."""
    plan = batch.receiver_plan
    degrees = (plan.counts + 1.0).astype(x.dtype)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    coeff = (inv_sqrt[batch.senders] * inv_sqrt[batch.receivers])[:, None]
    return plan.sum(x[batch.senders] * coeff) + x * (1.0 / degrees)[:, None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sparse_neighbour_sums_match_the_gather_composition_bitwise(dtype):
    rng = np.random.default_rng(21)
    graphs = [random_molecule(rng) for _ in range(6)]
    # Isolated atoms: two next to each other (consecutive empty rows take their self-loops at one offset), one last.
    graphs = graphs[:3] + [parse_smiles("C"), parse_smiles("O")] + graphs[3:] + [parse_smiles("C")]
    batch = batch_graphs(graphs, [assemble(g, 2, 3) for g in graphs], dtype=dtype)
    one_way = single_graph_batch(np.zeros((4, 1)), np.zeros((4, 1)), [0, 1, 2, 0], [1, 2, 0, 2], dtype=dtype)
    for b in (batch, one_way):
        magnitude = 10.0 ** rng.integers(-4, 5, size=(b.num_nodes, 1))
        x = (rng.standard_normal((b.num_nodes, 5)) * magnitude).astype(dtype)
        tape = Tape(recording=False)
        agg = gcn_aggregate(tape, tape.constant(x), b)
        assert agg.data.dtype == dtype
        assert np.array_equal(agg.data, _gathered_gcn_aggregate(x, b))
        # MPNN++'s incoming_x: the senders' rows summed over the receiver plan.
        incoming = tape.sparse_matmul(tape.constant(x), *b.adjacency)
        assert np.array_equal(incoming.data, b.receiver_plan.sum(x[b.senders]))
        for matrix, transpose in (b.propagation, b.adjacency):
            assert np.array_equal(matrix.T.toarray(), transpose.toarray())


def test_gine_layer_k2_hand_computed():
    cfg = tiny_config("gine", num_layers=1, d_node=1, d_edge=1, d_global=1)
    state = build_model(cfg)
    state.params["layer0/mlp/w1"].value[...] = 1.0
    state.params["layer0/mlp/w2"].value[...] = 1.0
    batch = single_graph_batch([[1.0], [1.0]], [[0.0], [0.0]], [0, 1], [1, 0])
    tape = Tape(recording=False)
    out = gine_layer(tape, state, 0, tape.constant(batch.node_features), tape.constant(batch.bond_rows), batch, False, 0)
    # eps = 0, identity MLP: each node gets 1 + relu(1 + 0) = 2.
    np.testing.assert_allclose(out.data, [[2.0], [2.0]], atol=1e-15)


def test_gine_isolated_node_identity():
    cfg = tiny_config("gine", num_layers=1, d_node=1, d_edge=1, d_global=1)
    state = build_model(cfg)
    state.params["layer0/mlp/w1"].value[...] = 1.0
    state.params["layer0/mlp/w2"].value[...] = 1.0
    batch = single_graph_batch([[0.7]], [], [], [])
    tape = Tape(recording=False)
    out = gine_layer(tape, state, 0, tape.constant(batch.node_features), tape.constant(batch.bond_rows), batch, False, 0)
    np.testing.assert_allclose(out.data, [[0.7]], atol=1e-15)


def test_gine_paper_printed_mode():
    cfg = tiny_config("gine", num_layers=1, d_node=1, d_edge=1, d_global=1, gine_epsilon_mode="paper-printed")
    state = build_model(cfg)
    state.params["layer0/mlp/w1"].value[...] = 1.0
    state.params["layer0/mlp/w2"].value[...] = 1.0
    state.params["layer0/epsilon"].value[...] = 0.25
    batch = single_graph_batch([[2.0], [3.0]], [[0.5], [0.5]], [0, 1], [1, 0])
    tape = Tape(recording=False)
    out = gine_layer(tape, state, 0, tape.constant(batch.node_features), tape.constant(batch.bond_rows), batch, False, 0)
    # (1 - 0.25) * x ⊙ relu(x_j + e): node0: 0.75*2*relu(3.5)=5.25; node1: 0.75*3*relu(2.5)=5.625
    np.testing.assert_allclose(out.data, [[5.25], [5.625]], atol=1e-12)


def test_mpnnpp_hand_trace_single_directed_edge():
    cfg = tiny_config("mpnnpp", num_layers=1, d_node=1, d_edge=1, d_global=1)
    state = build_model(cfg)
    for prefix in ("mlp_edge", "mlp_node", "mlp_global"):
        state.params[f"layer0/{prefix}/w1"].value[...] = 1.0
        state.params[f"layer0/{prefix}/w2"].value[...] = 1.0
    batch = single_graph_batch([[2.0], [3.0]], [[0.5]], [0], [1])
    tape = Tape(recording=False)
    x = tape.constant(batch.node_features)
    e = tape.constant(batch.edge_features)
    g = tape.constant(np.array([[0.25]]))
    x_out, e_out, g_out = mpnnpp_layer(tape, state, 0, x, e, g, batch, False, 0)
    # e_bar = relu(2 + 3 + 0.5 + 0.25) = 5.75
    # x_bar_0 = relu(2 + 0 + 5.75 + 0 + 0.25) = 8;  x_bar_1 = relu(3 + 5.75 + 0 + 2 + 0.25) = 11
    # g_bar = relu(0.25 + 19 + 5.75) = 25
    np.testing.assert_allclose(e_out.data, [[6.25]], atol=1e-12)
    np.testing.assert_allclose(x_out.data, [[10.0], [14.0]], atol=1e-12)
    np.testing.assert_allclose(g_out.data, [[25.25]], atol=1e-12)


def test_mpnnpp_zero_mlps_identity_via_skip():
    cfg = tiny_config("mpnnpp", num_layers=1, d_node=3, d_edge=2, d_global=2)
    state = build_model(cfg)
    for name, p in state.params.items():
        if name.startswith("layer0/"):
            p.value[...] = 0.0
    rng = np.random.default_rng(0)
    batch = single_graph_batch(rng.standard_normal((3, 3)), rng.standard_normal((2, 2)), [0, 1], [1, 2])
    tape = Tape(recording=False)
    x = tape.constant(batch.node_features)
    e = tape.constant(batch.edge_features)
    g = tape.constant(rng.standard_normal((1, 2)))
    x_out, e_out, g_out = mpnnpp_layer(tape, state, 0, x, e, g, batch, False, 0)
    np.testing.assert_array_equal(x_out.data, x.data)
    np.testing.assert_array_equal(e_out.data, e.data)
    np.testing.assert_array_equal(g_out.data, g.data)


def test_mpnnpp_zero_edges_no_nan():
    cfg = tiny_config("mpnnpp", num_layers=2)
    state = build_model(cfg)
    _, batch = featurized_batch(["C"], cfg)  # single atom: no bonds
    result = forward(Tape(recording=False), batch, state)
    assert np.isfinite(result.x.data).all()
    assert np.isfinite(result.g.data).all()


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_forward_deterministic(backbone):
    cfg = tiny_config(backbone, dropout=0.3)
    state = build_model(cfg)
    _, batch = featurized_batch(["CCO", "c1ccccc1"], cfg)
    a = forward(Tape(recording=False), batch, state, training=True, step=5)
    b = forward(Tape(recording=False), batch, state, training=True, step=5)
    np.testing.assert_array_equal(a.x.data, b.x.data)
    c = forward(Tape(recording=False), batch, state, training=True, step=6)
    assert not np.array_equal(a.x.data, c.x.data)


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_inference_forward_memory_does_not_grow_with_depth(backbone):
    """A non-recording tape holds no op output, so each layer's arrays are
    freed once the next layer replaces them: 16 layers peak no higher than 2."""
    rng = np.random.default_rng(0)
    graphs = [random_molecule(rng, max_atoms=14) for _ in range(30)]
    cfg = default_config(backbone)
    feats = [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs]
    batch = batch_graphs(graphs, feats, dtype=cfg.np_dtype)
    peaks = []
    for layers in (2, 16):
        state = build_model(default_config(backbone, num_layers=layers))
        forward(Tape(recording=False), batch, state)  # builds the batch's cached plans and matrices
        peaks.append(traced_memory(lambda: forward(Tape(recording=False), batch, state))[2])
    assert peaks[1] <= 1.1 * peaks[0], f"16 layers peaked at {peaks[1] / peaks[0]:.2f}x the 2-layer forward"


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_node_permutation_equivariance_bitwise_f64(backbone):
    cfg = tiny_config(backbone)
    state = build_model(cfg)
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_molecule(rng)
        feats = assemble(g, cfg.k_pe, cfg.rw_steps)
        batch = batch_graphs([g], [feats], dtype=np.float64)
        base = forward(Tape(recording=False), batch, state).x.data

        perm = rng.permutation(g.num_atoms)
        permuted = GraphBatch(
            node_features=np.zeros_like(batch.node_features),
            edge_features=batch.edge_features.copy(),
            senders=perm[batch.senders],
            receivers=perm[batch.receivers],
            node_graph_ids=batch.node_graph_ids.copy(),
            edge_graph_ids=batch.edge_graph_ids.copy(),
            num_graphs=1,
        )
        permuted.node_features[perm] = batch.node_features
        out = forward(Tape(recording=False), permuted, state).x.data
        assert np.array_equal(out[perm], base)


def test_edge_feature_sensitivity_separation():
    rng = np.random.default_rng(7)
    for seed in range(5):
        x = rng.standard_normal((4, 4))
        e1 = rng.standard_normal((4, 4))
        e2 = e1 + rng.standard_normal((4, 4))
        senders, receivers = [0, 1, 2, 3], [1, 0, 3, 2]
        outs = {}
        for backbone in ("gcn", "gine", "mpnnpp"):
            cfg = tiny_config(backbone, num_layers=1, seed=seed)
            state = build_model(cfg)
            pair = []
            for e in (e1, e2):
                batch = single_graph_batch(x, e, senders, receivers)
                tape = Tape(recording=False)
                xt, et = tape.constant(batch.node_features), tape.constant(batch.edge_features)
                if backbone == "gcn":
                    out = gcn_layer(tape, state, 0, xt, batch, False, 0)
                elif backbone == "gine":
                    out = gine_layer(tape, state, 0, xt, tape.constant(batch.bond_rows), batch, False, 0)
                else:
                    gt = tape.constant(rng.standard_normal((1, 4)) * 0 + 0.5)
                    out, _, _ = mpnnpp_layer(tape, state, 0, xt, et, gt, batch, False, 0)
                pair.append(out.data)
            outs[backbone] = pair
        assert np.array_equal(outs["gcn"][0], outs["gcn"][1])
        assert np.linalg.norm(outs["gine"][0] - outs["gine"][1]) > 1e-6
        assert np.linalg.norm(outs["mpnnpp"][0] - outs["mpnnpp"][1]) > 1e-6


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_layer_gradients_match_finite_differences(backbone):
    cfg = tiny_config(backbone, num_layers=1, d_node=3, d_edge=3, d_global=3)
    state = build_model(cfg)
    rng = np.random.default_rng(11)
    x_in = rng.standard_normal((3, 3))
    e_in = rng.standard_normal((4, 3))
    g_in = rng.standard_normal((1, 3))
    batch = single_graph_batch(x_in, e_in, [0, 1, 1, 2], [1, 0, 2, 1])
    layer_params = [p for name, p in state.params.items() if name.startswith("layer0/")]

    def fn(tape):
        xt = tape.constant(x_in)
        et = tape.constant(e_in)
        if backbone == "gcn":
            out = gcn_layer(tape, state, 0, xt, batch, False, 0)
        elif backbone == "gine":
            out = gine_layer(tape, state, 0, xt, tape.constant(batch.bond_rows), batch, False, 0)
        else:
            gt = tape.constant(g_in)
            out, e_out, g_out = mpnnpp_layer(tape, state, 0, xt, et, gt, batch, False, 0)
            out = tape.concat([out, e_out, g_out], axis=0)
        return tape.sum(tape.mul(out, out))

    assert finite_difference_check(fn, layer_params, h=1e-5) < 1e-4


def test_embedding_mlp_gradients():
    cfg = tiny_config("gine", num_layers=1, d_node=3, d_edge=3)
    state = build_model(cfg)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, cfg.node_input_width))
    params = [state.params[f"embed_x/{k}"] for k in ("w1", "b1", "w2", "b2")]

    def fn(tape):
        out = mlp_forward(tape, state, "embed_x", tape.constant(x))
        return tape.sum(tape.mul(out, out))

    assert finite_difference_check(fn, params, h=1e-5) < 1e-4


def test_save_load_round_trip(tmp_path):
    cfg = tiny_config("mpnnpp", dtype="float32")
    state = build_model(cfg)
    state.add_task_head("toy", "graph", cfg.d_global, 3)
    _, batch = featurized_batch(["CCO"], cfg)
    base = forward(Tape(recording=False), batch, state)
    path = tmp_path / "model.ckpt"
    save_model(state, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    assert loaded.heads["toy"].out_dim == 3
    again = forward(Tape(recording=False), batch, loaded)
    np.testing.assert_array_equal(base.x.data, again.x.data)
    np.testing.assert_array_equal(base.g.data, again.g.data)


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_a_float64_model_saves_and_loads_bit_for_bit(tmp_path, backbone):
    state = build_model(tiny_config(backbone, num_layers=1))
    state.add_task_head("toy", "graph", 4, 3)
    save_model(state, tmp_path / "model.ckpt")
    loaded = load_model(tmp_path / "model.ckpt")
    assert list(loaded.params) == list(state.params)
    for name, param in state.params.items():
        assert param.value.dtype == loaded.params[name].value.dtype == np.float64, name
        assert param.value.tobytes() == loaded.params[name].value.tobytes(), name


def test_every_single_bit_flip_of_a_checkpoint_loads_or_raises_corrupt_file(tmp_path):
    path = tmp_path / "model.ckpt"
    config = ModelConfig(backbone="gine", num_layers=1, d_node=2, d_edge=2, d_global=2, k_pe=1, rw_steps=1)
    save_model(build_model(config), path)
    raw = path.read_bytes()
    start, stop = header_span(raw)
    outcomes = collections.Counter()
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        region = "prefix" if bit // 8 < start else "header" if bit // 8 < stop else "data"
        try:
            load_model(path)
            outcomes[region, "loaded"] += 1
        except CorruptFile:
            outcomes[region, "corrupt"] += 1
    # Flips in the float data load; flips in the prefix raise.  A flip in the header raises
    # unless the header stays a model's whose records are the file's (a changed seed digit, say).
    assert outcomes == {
        ("prefix", "corrupt"): 8 * start,
        ("header", "corrupt"): outcomes["header", "corrupt"],
        ("header", "loaded"): outcomes["header", "loaded"],
        ("data", "loaded"): 8 * (len(raw) - stop),
    }
    assert outcomes["header", "corrupt"] > outcomes["header", "loaded"] > 0


def test_failed_save_leaves_the_previous_checkpoint(tmp_path):
    state = build_model(tiny_config("gine", dtype="float32"))
    path = tmp_path / "best.ckpt"
    save_model(state, path)
    before = path.read_bytes()
    param = state.add_parameter("x", np.zeros(1))
    param.value = InterruptingArray((1,))  # the save stops once the header is written
    with pytest.raises(KeyboardInterrupt):
        save_model(state, path)
    assert path.read_bytes() == before
    assert "x" not in load_model(path).params
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


def test_link_model_copies_where_links_are_refused(tmp_path, monkeypatch):
    state = build_model(tiny_config("gine", dtype="float32"))
    save_model(state, tmp_path / "best.ckpt")

    def refuse(src, dst):
        raise PermissionError("no hard links here")

    monkeypatch.setattr(os, "link", refuse)
    link_model(tmp_path / "best.ckpt", tmp_path / "final.ckpt")
    best, final = tmp_path / "best.ckpt", tmp_path / "final.ckpt"
    assert not os.path.samefile(best, final) and best.read_bytes() == final.read_bytes()
    assert len(list(tmp_path.iterdir())) == 2


def test_isomorphic_graphs_same_embedding_multiset():
    # Two SMILES spellings of the same molecule produce x^final rows equal as
    # multisets (graph isomorphism maps one ordering to the other).
    cfg = tiny_config("gine")
    state = build_model(cfg)
    outs = []
    for s in ("C1CC1", "C2CC2"):
        g = parse_smiles(s)
        feats = assemble(g, cfg.k_pe, cfg.rw_steps)
        batch = batch_graphs([g], [feats], dtype=np.float64)
        outs.append(forward(Tape(recording=False), batch, state).x.data)
    a = np.array(sorted(map(tuple, outs[0])))
    b = np.array(sorted(map(tuple, outs[1])))
    np.testing.assert_allclose(a, b, atol=1e-9)


def atom_only_batch(smiles_list):
    """Batch whose node rows are the atom features alone: no positional encoding."""
    graphs = [parse_smiles(s) for s in smiles_list]
    feats = [AssembledFeatures(atom_features(g), bond_features(g)) for g in graphs]
    return batch_graphs(graphs, feats, dtype=np.float64)


def relabelled(batch, rng):
    """Relabel the nodes inside each graph and shuffle the global edge order.

    Returns the new batch and ``perm``, where old node i is new node perm[i].
    """
    perm = np.arange(batch.num_nodes)
    for gid in range(batch.num_graphs):
        rows = np.flatnonzero(batch.node_graph_ids == gid)
        perm[rows] = rng.permutation(rows)
    edges = rng.permutation(batch.num_edges)
    return GraphBatch(
        node_features=batch.node_features[np.argsort(perm)],
        edge_features=batch.edge_features[edges],
        senders=perm[batch.senders][edges],
        receivers=perm[batch.receivers][edges],
        node_graph_ids=batch.node_graph_ids.copy(),
        edge_graph_ids=batch.edge_graph_ids[edges],
        num_graphs=batch.num_graphs,
    ), perm


def test_colour_refinement_benzene_atoms_share_one_colour():
    node, bond = atom_only_batch(["c1ccccc1"]).colours
    assert np.unique(node).size == 1
    assert np.unique(bond).size == 1


def test_colour_refinement_ethanol_heavy_atoms_get_three_colours():
    node, _ = atom_only_batch(["CCO"]).colours
    assert np.unique(node).size == 3


def test_colour_refinement_splits_equal_features_by_neighbourhood():
    # Pentan-1-ol: the three CH2 carbons share a feature row but sit at
    # different distances from O, so refinement gives every atom its own colour.
    batch = atom_only_batch(["OCCCC"])
    assert np.unique(batch.node_features, axis=0).shape[0] == 3
    assert np.unique(batch.colours[0]).size == 5
    # Pentane's mirror-image atoms stay tied: {C1, C5}, {C2, C4}, {C3}.
    node, _ = atom_only_batch(["CCCCC"]).colours
    assert node[0] == node[4] and node[1] == node[3] and np.unique(node).size == 3


def test_colours_identical_under_relabelling():
    cfg = tiny_config("gine")
    rng = np.random.default_rng(8)
    for _ in range(5):
        graphs = [random_molecule(rng) for _ in range(3)]
        feats = [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs]
        batch = batch_graphs(graphs, feats, dtype=np.float64)
        permuted, perm = relabelled(batch, rng)
        node, bond = batch.colours
        new_node, new_bond = permuted.colours
        assert np.array_equal(new_node[perm], node)
        # Bond classes follow their edges: match them up by (sender, receiver).
        old = dict(zip(zip(perm[batch.senders].tolist(), perm[batch.receivers].tolist()), bond.tolist()))
        new = dict(zip(zip(permuted.senders.tolist(), permuted.receivers.tolist()), new_bond.tolist()))
        assert old == new


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
def test_relabelled_batch_with_shuffled_edges_bitwise_equal(backbone, dtype):
    cfg = tiny_config(backbone, num_layers=3, d_node=8, d_edge=8, d_global=8, dtype=dtype)
    state = build_model(cfg)
    spec = TaskSpec("toy", "graph", "regression", "MAE", 1)
    rng = np.random.default_rng(12)
    for trial in range(6):
        graphs = [random_molecule(rng) for _ in range(3)]
        feats = [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs]
        batch = batch_graphs(graphs, feats, dtype=cfg.np_dtype)
        if trial % 2:
            # Without the Laplacian columns many atoms share a feature row,
            # and only colour refinement tells them apart.
            batch.node_features[:, ATOM_FEATURE_WIDTH : ATOM_FEATURE_WIDTH + 2 * cfg.k_pe] = 0.0
        permuted, perm = relabelled(batch, rng)
        base = forward(Tape(recording=False), batch, state)
        out = forward(Tape(recording=False), permuted, state)
        assert np.array_equal(out.x.data[perm], base.x.data)
        assert np.array_equal(out.g.data, base.g.data)
        for pool in ("sum", "mean"):
            state.config.pool = pool
            tape = Tape(recording=False)
            assert np.array_equal(
                head_input(tape, out, permuted, state, spec).data,
                head_input(tape, base, batch, state, spec).data,
            )
