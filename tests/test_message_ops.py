"""The composite message-passing ops against the primitive tape-op chains they replace.

``reference_gcn_layer``, ``reference_gine_layer`` and ``reference_mpnnpp_layer``
build each layer from rows, linear, matmul, relu, gather, add, sub, mul,
segment_sum and sparse_matmul, one tape op each; the library layers must give
the same loss and gradients bit for bit while keeping far fewer bytes on the
tape.  ``concat_mpnnpp_layer`` is MPNN++ as the paper writes it, each MLP
over a concatenated input; the block-order layer matches it to rounding.
"""

import numpy as np
import pytest

from minifp import backbones
from minifp.autodiff import Parameter, Segments, Tape
from minifp.backbones import (
    GraphBatch,
    ModelConfig,
    batch_graphs,
    build_model,
    default_config,
    edge_hidden,
    forward,
    gcn_aggregate,
    gcn_layer,
    gine_inputs,
    gine_layer,
    mpnnpp_layer,
    node_hidden,
)
from minifp.encodings import assemble
from minifp.molgraph import parse_smiles

from .util import (
    TOY_SMILES,
    finite_difference_check,
    per_edge_embed_inputs,
    permute_graph,
    random_molecule,
    reference_relu,
    traced_memory,
)


def reference_linear_relu(tape, x, w, b):
    return reference_relu(tape, tape.linear(x, w, b))


def watched_mlp(tape, state, prefix):
    return [tape.watch(state.params[f"{prefix}/{name}"]) for name in ("w1", "b1", "w2", "b2")]


def reference_mlp_forward(tape, state, prefix, x):
    w1, b1, w2, b2 = watched_mlp(tape, state, prefix)
    return tape.linear(reference_linear_relu(tape, x, w1, b1), w2, b2)


def reference_gcn_layer(tape, state, layer, x, batch, training, step):
    agg = gcn_aggregate(tape, x, batch)
    out = reference_linear_relu(tape, agg, tape.watch(state.params[f"layer{layer}/w"]), tape.watch(state.params[f"layer{layer}/b"]))
    return tape.dropout(out, state.config.dropout, (state.config.seed, layer, step), training)


def reference_gine_inputs(tape, x, e, eps, batch, mode):
    messages = reference_relu(tape, tape.add(tape.gather(x, batch.sender_plan), e))
    agg = tape.segment_sum(messages, batch.receiver_plan)
    if mode == "standard":
        return tape.add(tape.add(x, tape.mul(x, eps)), agg)
    one_minus = tape.sub(tape.constant(np.ones(1, dtype=x.data.dtype)), eps)
    return tape.mul(tape.mul(x, one_minus), agg)


def gathered_gine_inputs(tape, x, e, eps, batch, mode):
    """``reference_gine_inputs`` fed the per-edge rows gathered from ``e``'s bond-class rows."""
    return reference_gine_inputs(tape, x, tape.gather(e, batch.bond_plan), eps, batch, mode)


def reference_gine_layer(tape, state, layer, x, e, batch, training, step):
    eps = tape.watch(state.params[f"layer{layer}/epsilon"])
    pre = gathered_gine_inputs(tape, x, e, eps, batch, state.config.gine_epsilon_mode)
    out = reference_mlp_forward(tape, state, f"layer{layer}/mlp", pre)
    return tape.dropout(out, state.config.dropout, (state.config.seed, layer, step), training)


def reference_block_hidden(tape, w1, b1, blocks):
    """relu(Σ_k spread_k(a_k @ W1[rows_k]) + b1) from rows, matmul, gather,
    sparse_matmul, add and relu; ``blocks`` is one (a_k, spread_k) per row block."""
    bounds = np.cumsum([0] + [a.data.shape[1] for a, _ in blocks])
    weights = [tape.rows(w1, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    products = [tape.matmul(a, w) for (a, _), w in zip(blocks, weights)]
    total = None
    for product, (_, spread) in zip(products, blocks):
        if isinstance(spread, Segments):
            product = tape.gather(product, spread)
        elif spread is not None:
            product = tape.sparse_matmul(product, *spread)
        total = product if total is None else tape.add(total, product)
    return reference_relu(tape, tape.add(total, b1))


def mpnnpp_streams(tape, state, layer, x, e, g, e_bar, x_bar, batch, training, step):
    """The global MLP, the skips and the dropouts that follow MPNN++'s edge and node MLPs."""
    global_in = tape.concat(
        [g, tape.segment_sum(x_bar, batch.graph_node_plan), tape.segment_sum(e_bar, batch.graph_edge_plan)],
        axis=1,
    )
    g_bar = reference_mlp_forward(tape, state, f"layer{layer}/mlp_global", global_in)
    rate, seed = state.config.dropout, state.config.seed
    x_out = tape.dropout(tape.add(x_bar, x), rate, (seed, layer * 4 + 1, step), training)
    e_out = tape.dropout(tape.add(e_bar, e), rate, (seed, layer * 4 + 2, step), training)
    g_out = tape.dropout(tape.add(g_bar, g), rate, (seed, layer * 4 + 3, step), training)
    return x_out, e_out, g_out


def reference_mpnnpp_layer(tape, state, layer, x, e, g, batch, training, step):
    """MPNN++ in the library's block order: each first layer sums one product per input block."""
    w1, b1, w2, b2 = watched_mlp(tape, state, f"layer{layer}/mlp_edge")
    edge = reference_block_hidden(
        tape, w1, b1, [(x, batch.sender_plan), (x, batch.receiver_plan), (e, None), (g, batch.graph_edge_plan)]
    )
    e_bar = tape.linear(edge, w2, b2)
    incoming_e = tape.segment_sum(e_bar, batch.receiver_plan)
    outgoing_e = tape.segment_sum(e_bar, batch.sender_plan)
    w1, b1, w2, b2 = watched_mlp(tape, state, f"layer{layer}/mlp_node")
    node = reference_block_hidden(
        tape, w1, b1,
        [(x, None), (incoming_e, None), (outgoing_e, None), (x, batch.adjacency),
         (g, batch.graph_node_plan)],
    )
    x_bar = tape.linear(node, w2, b2)
    return mpnnpp_streams(tape, state, layer, x, e, g, e_bar, x_bar, batch, training, step)


def concat_mpnnpp_layer(tape, state, layer, x, e, g, batch, training, step):
    """MPNN++ as written: the edge MLP over [x_s | x_r | e | g_e], the node MLP over [x | in_e | out_e | A·x | g_n]."""
    g_per_edge = tape.gather(g, batch.graph_edge_plan)
    g_per_node = tape.gather(g, batch.graph_node_plan)
    x_senders, x_receivers = tape.gather(x, batch.sender_plan), tape.gather(x, batch.receiver_plan)
    edge_in = tape.concat([x_senders, x_receivers, e, g_per_edge], axis=1)
    e_bar = reference_mlp_forward(tape, state, f"layer{layer}/mlp_edge", edge_in)
    incoming_e = tape.segment_sum(e_bar, batch.receiver_plan)
    outgoing_e = tape.segment_sum(e_bar, batch.sender_plan)
    incoming_x = tape.sparse_matmul(x, *batch.adjacency)
    node_in = tape.concat([x, incoming_e, outgoing_e, incoming_x, g_per_node], axis=1)
    x_bar = reference_mlp_forward(tape, state, f"layer{layer}/mlp_node", node_in)
    return mpnnpp_streams(tape, state, layer, x, e, g, e_bar, x_bar, batch, training, step)


def shuffled_batch(cfg, seed):
    """A multi-graph batch of relabelled molecules whose directed edges are in a random order."""
    rng = np.random.default_rng(seed)
    graphs = [parse_smiles(s) for s in ("c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "C1CC1", "N")]
    graphs += [random_molecule(rng) for _ in range(3)]
    graphs = [permute_graph(graph, rng.permutation(graph.num_atoms)) for graph in graphs]
    feats = [assemble(graph, cfg.k_pe, cfg.rw_steps) for graph in graphs]
    batch = batch_graphs(graphs, feats, dtype=cfg.np_dtype)
    order = rng.permutation(batch.num_edges)
    return GraphBatch(
        node_features=batch.node_features,
        edge_features=batch.edge_features[order],
        senders=batch.senders[order],
        receivers=batch.receivers[order],
        node_graph_ids=batch.node_graph_ids,
        edge_graph_ids=batch.edge_graph_ids[order],
        num_graphs=batch.num_graphs,
    )


LAYERS = {
    "gcn": (gcn_layer, reference_gcn_layer),
    "gine": (gine_layer, reference_gine_layer),
    "mpnnpp": (mpnnpp_layer, reference_mpnnpp_layer),
}


def bits(array):
    return np.ascontiguousarray(array).tobytes()


CASES = [("gcn", "standard"), ("gine", "standard"), ("gine", "paper-printed"), ("mpnnpp", "standard")]


def training_step(cfg, batch, layer_fn):
    """Loss and every gradient of a dropout training step through three layers from random inputs.

    The layer inputs are parameters, so their gradients are the stack's input
    gradients; gine's e has one row per bond class.
    """
    state = build_model(cfg)
    rng = np.random.default_rng(1)
    for name, p in state.params.items():
        if name.endswith("/epsilon"):
            p.value[...] = rng.uniform(0.1, 0.5)  # eps = 0 at init would hide the order of x's parts
    dtype = cfg.np_dtype
    shapes = {
        "x": (batch.num_nodes, cfg.d_node),
        "e": (batch.bond_rows.shape[0] if cfg.backbone == "gine" else batch.num_edges, cfg.d_edge),
        "g": (batch.num_graphs, cfg.d_global),
    }
    inputs = {name: Parameter(name, rng.standard_normal(shape).astype(dtype)) for name, shape in shapes.items()}
    weights = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    tape = Tape()
    x, e, g = (tape.watch(inputs[name]) for name in "xeg")
    for layer in range(cfg.num_layers):
        if cfg.backbone == "gcn":
            x = layer_fn(tape, state, layer, x, batch, True, 7)
        elif cfg.backbone == "gine":
            x = layer_fn(tape, state, layer, x, e, batch, True, 7)
        else:
            x, e, g = layer_fn(tape, state, layer, x, e, g, batch, True, 7)
    outputs = {"x": x, "e": e, "g": g} if cfg.backbone == "mpnnpp" else {"x": x}
    terms = [tape.sum(tape.mul(out, tape.constant(weights[name]))) for name, out in outputs.items()]
    loss = terms[0]
    for term in terms[1:]:
        loss = tape.add(loss, term)
    tape.backward(loss)
    grads = {p.name: p.grad for p in state.parameters()}
    grads.update({f"input/{name}": p.grad for name, p in inputs.items()})
    return loss.data, grads


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("backbone,mode", CASES)
def test_composite_layers_match_primitive_chains_bitwise(backbone, mode, dtype):
    cfg = ModelConfig(
        backbone=backbone, num_layers=3, d_node=12, d_edge=12 if backbone == "gine" else 8, d_global=10,
        k_pe=2, rw_steps=3, dropout=0.1, seed=5, gine_epsilon_mode=mode, dtype=dtype,
    )
    batch = shuffled_batch(cfg, seed=3)
    layer, reference = LAYERS[backbone]
    loss, grads = training_step(cfg, batch, layer)
    ref_loss, ref_grads = training_step(cfg, batch, reference)
    assert bits(loss) == bits(ref_loss)
    assert grads.keys() == ref_grads.keys()
    assert any(np.any(grads[name]) for name in grads if name.startswith("input/"))
    for name in grads:
        assert bits(grads[name]) == bits(ref_grads[name]), name


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("mode", ["standard", "paper-printed"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_gine_inputs_match_the_reference_fed_gathered_class_rows_bitwise(dtype, mode, recording):
    """One message per (sender, bond class) pair gives the bits of one message
    per edge: output and, on a recording tape, the gradients of x, the class
    rows and eps."""
    cfg = ModelConfig(backbone="gine", num_layers=1, d_node=6, d_edge=6, d_global=6, k_pe=2, rw_steps=3,
                      dtype=dtype)
    batch = shuffled_batch(cfg, seed=7)
    senders = batch.message_pairs[0]
    assert np.bincount(senders).max() >= 2  # some sender sends two bond classes
    assert np.any(batch.receiver_plan.counts == 0)  # "N" has no bond
    assert senders.shape[0] < batch.num_edges
    rng = np.random.default_rng(5)
    shapes = {"x": (batch.num_nodes, 6), "e": (batch.bond_rows.shape[0], 6), "eps": (1,)}
    values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    weights = rng.standard_normal((batch.num_nodes, 6)).astype(dtype)

    def run(op):
        params = {name: Parameter(name, value.copy()) for name, value in values.items()}
        tape = Tape(recording=recording)
        x, e, eps = (tape.watch(params[name]) for name in ("x", "e", "eps"))
        out = op(tape, x, e, eps, batch, mode)
        if recording:
            tape.backward(tape.sum(tape.mul(out, tape.constant(weights))))
        return out.data, {name: p.grad for name, p in params.items()}

    out, grads = run(gine_inputs)
    ref_out, ref_grads = run(gathered_gine_inputs)
    assert out.dtype == np.dtype(dtype)
    assert bits(out) == bits(ref_out)
    for name in shapes:
        if recording:
            assert np.any(grads[name]), name
            assert bits(grads[name]) == bits(ref_grads[name]), name
        else:
            assert grads[name] is None and ref_grads[name] is None


def per_class_and_per_edge_forwards(backbone, dtype, monkeypatch):
    """A full forward of a default-width model over the toy molecules, a
    molecule without bonds and random molecules, with ``embed_e`` once per
    bond class and, through ``per_edge_embed_inputs``, once per edge."""
    cfg = default_config(backbone, num_layers=4, dtype=dtype)
    state = build_model(cfg)
    rng = np.random.default_rng(9)
    graphs = [parse_smiles(s) for s in [*TOY_SMILES, "N"]] + [random_molecule(rng) for _ in range(8)]
    batch = batch_graphs(graphs, [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs], dtype=cfg.np_dtype)
    per_class = forward(Tape(recording=False), batch, state)
    with monkeypatch.context() as patch:
        patch.setattr(backbones, "embed_inputs", per_edge_embed_inputs)
        patch.setattr(backbones, "gine_inputs", reference_gine_inputs)  # per-edge e
        per_edge = forward(Tape(recording=False), batch, state)
    return batch, per_class, per_edge


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("backbone", ["gine", "mpnnpp"])
def test_forward_with_embed_e_per_class_matches_per_edge_bitwise(backbone, dtype, monkeypatch):
    batch, per_class, per_edge = per_class_and_per_edge_forwards(backbone, dtype, monkeypatch)
    assert batch.bond_rows.shape[0] < batch.num_edges
    assert bits(per_class.x.data) == bits(per_edge.x.data)
    assert bits(per_class.g.data) == bits(per_edge.g.data)
    if backbone == "gine":  # the class rows, against the per-edge rows they stand for
        assert per_class.e.data.shape[0] == batch.bond_rows.shape[0]
        assert bits(per_class.e.data[batch.colours[1]]) == bits(per_edge.e.data)
    else:
        assert bits(per_class.e.data) == bits(per_edge.e.data)


@pytest.mark.parametrize("backbone", ["gine", "mpnnpp"])
def test_a_training_step_moves_only_embed_e_gradient_bits(backbone, monkeypatch):
    """Embedding once per bond class sums ``embed_e``'s output gradient per
    class before its products, so only ``embed_e``'s gradients round
    differently from the per-edge embedding; every other gradient keeps its
    bits, with dropout on."""
    cfg = ModelConfig(backbone=backbone, num_layers=3, d_node=16, d_edge=16 if backbone == "gine" else 8,
                      d_global=12, k_pe=2, rw_steps=3, dropout=0.1, seed=3, dtype="float64")
    graphs = [parse_smiles(s) for s in TOY_SMILES]
    batch = batch_graphs(graphs, [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs], dtype=cfg.np_dtype)
    grads = []
    for per_edge in (False, True):
        state = build_model(cfg)
        with monkeypatch.context() as patch:
            if per_edge:
                patch.setattr(backbones, "embed_inputs", per_edge_embed_inputs)
                patch.setattr(backbones, "gine_inputs", reference_gine_inputs)
            tape = Tape()
            out = forward(tape, batch, state, training=True, step=2)
            tape.backward(tape.sum(tape.mul(out.x, out.x)))
        grads.append({name: None if p.grad is None else bits(p.grad) for name, p in state.params.items()})
    moved = [name for name in grads[0] if grads[0][name] != grads[1][name]]
    assert moved == [f"embed_e/{name}" for name in ("w1", "b1", "w2", "b2")]


def test_block_order_matches_the_concatenated_mpnnpp_layer():
    """Summing block products is the paper's concatenation MLP up to rounding:
    over three dropout layers at float64, loss and every gradient agree to 1e-10."""
    cfg = ModelConfig(backbone="mpnnpp", num_layers=3, d_node=12, d_edge=8, d_global=10, k_pe=2, rw_steps=3,
                      dropout=0.1, seed=5, dtype="float64")
    batch = shuffled_batch(cfg, seed=3)
    loss, grads = training_step(cfg, batch, mpnnpp_layer)
    chain_loss, chain_grads = training_step(cfg, batch, concat_mpnnpp_layer)
    np.testing.assert_allclose(loss, chain_loss, rtol=1e-10, atol=0)
    assert grads.keys() == chain_grads.keys()
    for name in grads:
        if grads[name] is None or chain_grads[name] is None:  # the embedding MLPs are not in the step
            assert grads[name] is chain_grads[name], name
            continue
        np.testing.assert_allclose(grads[name], chain_grads[name], rtol=1e-10, atol=0, err_msg=name)


def composite_loss(op, params, batch, weights):
    """fn(tape) -> scalar for ``finite_difference_check``: a weighted sum of ``op``'s output."""

    def fn(tape):
        out = op(tape, *(tape.watch(p) for p in params), batch)
        return tape.sum(tape.mul(out, tape.constant(weights[out.data.shape])))

    return fn


def gine_inputs_messages(tape, x, e, batch):
    """Σ_j relu(x_j + e_ij) per receiver alone: ``gine_inputs`` in "standard"
    mode at eps = -1, where x·eps + x and g + g·eps are exactly zero, so
    output and x's gradient are the message parts with no cancellation error:
    subtracting (1 + eps) x leaves rounding noise that reads as a relative
    error of ~0.09 where a sender's every message is dead."""
    eps = tape.constant(np.full(1, -1.0))
    return gine_inputs(tape, x, e, eps, batch, "standard")


COMPOSITE_OPS = {
    "gine_inputs-messages": lambda tape, x, e, g, b: gine_inputs_messages(tape, x, e, b),
    "gine_inputs-standard": lambda tape, x, e, eps, b: gine_inputs(tape, x, e, eps, b, "standard"),
    "gine_inputs-paper-printed": lambda tape, x, e, eps, b: gine_inputs(tape, x, e, eps, b, "paper-printed"),
    "edge_hidden": edge_hidden,
    "node_hidden": node_hidden,
}


def atoms_only_batch(cfg):
    """Three one-atom molecules: a batch with nodes and graphs but no edge."""
    graphs = [parse_smiles(s) for s in ("C", "O", "N")]
    feats = [assemble(graph, cfg.k_pe, cfg.rw_steps) for graph in graphs]
    return batch_graphs(graphs, feats, dtype=cfg.np_dtype)


@pytest.mark.parametrize(
    "op",
    ["gine_inputs-messages", "gine_inputs-standard", "gine_inputs-paper-printed", "edge_hidden", "node_hidden",
     "gine_inputs-standard-no-edges", "edge_hidden-no-edges", "node_hidden-no-edges"],
)
def test_composite_ops_match_finite_differences(op):
    cfg = ModelConfig(backbone="mpnnpp", num_layers=1, d_node=3, d_edge=3, d_global=2, k_pe=2, rw_steps=3,
                      dtype="float64")
    name = op.removesuffix("-no-edges")
    batch = atoms_only_batch(cfg) if op != name else shuffled_batch(cfg, seed=4)
    gine = name.startswith("gine_inputs")  # its e holds one row per bond class
    rng = np.random.default_rng(2)
    params = [
        Parameter("x", rng.standard_normal((batch.num_nodes, 3))),
        Parameter("e", rng.standard_normal((batch.bond_rows.shape[0] if gine else batch.num_edges, 3))),
        Parameter("g", rng.standard_normal((batch.num_graphs, 2))),
    ]
    if name in ("gine_inputs-standard", "gine_inputs-paper-printed"):
        params[2] = Parameter("eps", rng.standard_normal(1))  # its inputs are x, e and eps
    if name == "edge_hidden":  # W1's rows: x_s, x_r, e, g
        params += [Parameter("w1", rng.standard_normal((11, 5))), Parameter("b1", rng.standard_normal(5))]
    if name == "node_hidden":  # W1's rows: x, in_e, out_e, A·x, g
        params += [Parameter("w1", rng.standard_normal((14, 5))), Parameter("b1", rng.standard_normal(5))]
    weights = {
        (rows, width): rng.standard_normal((rows, width))
        for rows in (batch.num_nodes, batch.num_edges)
        for width in (3, 5)
    }
    fn = composite_loss(COMPOSITE_OPS[name], params, batch, weights)
    assert finite_difference_check(fn, params, h=1e-6) < 1e-4
    if op == "edge_hidden-no-edges":
        assert all(p.grad is not None and not np.any(p.grad) for p in params)
    elif op in ("gine_inputs-standard-no-edges", "node_hidden-no-edges"):  # e has no row: no edge, no bond class
        assert params[1].grad.shape == (0, 3)
        assert all(np.any(p.grad) for p in params if p.name != "e")
    else:
        used = params[:2] if name == "gine_inputs-messages" else params
        assert all(np.any(p.grad) for p in used)


def toy_model_and_batch(cfg):
    """A default-width model and the 32 toy molecules as one batch, its cached plans and matrices built."""
    state = build_model(cfg)
    graphs = [parse_smiles(s) for s in TOY_SMILES]
    feats = [assemble(graph, cfg.k_pe, cfg.rw_steps) for graph in graphs]
    batch = batch_graphs(graphs, feats, dtype=cfg.np_dtype)
    forward(Tape(recording=False), batch, state)
    return state, batch


def held_bytes(state, batch, monkeypatch, **references):
    """Bytes still allocated after a recording forward, while its tape is alive,
    with the named ``backbones`` functions swapped for ``references``."""

    def record():
        tape = Tape()
        forward(tape, batch, state, training=True)
        return tape

    with monkeypatch.context() as patch:
        for name, reference in references.items():
            patch.setattr(backbones, name, reference)
        return traced_memory(record)[1]


@pytest.mark.parametrize("backbone,bound", [("gcn", 0.72), ("gine", 0.65), ("mpnnpp", 0.6)])
def test_recording_forward_keeps_fewer_bytes_than_the_primitive_chains(backbone, bound, monkeypatch):
    state, batch = toy_model_and_batch(default_config(backbone))
    held = held_bytes(state, batch, monkeypatch)
    ref_held = held_bytes(state, batch, monkeypatch, **{f"{backbone}_layer": LAYERS[backbone][1]})
    assert held <= bound * ref_held, f"{held / 2**20:.1f} MB held, {ref_held / 2**20:.1f} MB by the primitive chains"


@pytest.mark.parametrize("mode,bound", [("standard", 0.3), ("paper-printed", 0.42)])
def test_gine_inputs_keep_no_intermediate_on_the_tape(mode, bound, monkeypatch):
    """The primitive chain records the per-edge e rows gathered from the class
    rows, the gathered x rows, their sum, the relu output, agg, x·eps and
    x + x·eps (or x·(1 - eps)), none of which the merged op keeps; only its
    relu mask, one row per (sender, bond class) pair (148 of the 228 edges),
    stays, and agg in the printed mode.  16 default-width layers hold 0.27x
    (0.37x printed) of the chain's bytes."""
    state, batch = toy_model_and_batch(default_config("gine", gine_epsilon_mode=mode))
    held = held_bytes(state, batch, monkeypatch)
    chain_held = held_bytes(state, batch, monkeypatch, gine_inputs=gathered_gine_inputs)
    assert held <= bound * chain_held, f"{held / 2**20:.1f} MB held, {chain_held / 2**20:.1f} MB with the op chain"


def test_recording_mpnnpp_forward_holds_at_most_21_mb(monkeypatch):
    """No concatenated MLP input and no block product stays on the tape: 16
    default-width layers on the toy molecules hold 17.0 MB (23.6 MB when the
    node MLP's (nodes × 960) input was kept)."""
    state, batch = toy_model_and_batch(default_config("mpnnpp"))
    held = held_bytes(state, batch, monkeypatch)
    assert held <= 21e6, f"{held / 1e6:.1f} MB held"


def test_mpnnpp_products_run_on_the_rows_of_each_block(monkeypatch):
    """Over one default-width training step no product has a concatenated MLP
    input's width, and the forward multiply-adds are the block count: x's
    blocks on node rows, e's on edge rows, g's on graph rows, and the edge
    embedding MLP on bond-class rows."""
    cfg = default_config("mpnnpp")
    state, batch = toy_model_and_batch(cfg)
    products = []
    matmul = Tape.matmul

    def recorded(tape, a, b):
        products.append((a.data.shape[0], *b.data.shape))
        return matmul(tape, a, b)

    monkeypatch.setattr(Tape, "matmul", recorded)
    tape = Tape()
    out = forward(tape, batch, state, training=True, step=1)
    tape.backward(tape.add(tape.add(tape.sum(out.x), tape.sum(out.e)), tape.sum(out.g)))

    n, m, graphs = batch.num_nodes, batch.num_edges, batch.num_graphs
    d_n, d_e, d_g = cfg.d_node, cfg.d_edge, cfg.d_global
    edge_in, node_in = 2 * d_n + d_e + d_g, 2 * d_n + 2 * d_e + d_g
    assert (edge_in, node_in) == (864, 960)
    assert not [p for p in products if p[:2] in ((m, edge_in), (n, node_in))]
    classes = batch.bond_rows.shape[0]
    embed = n * cfg.node_input_width * d_n + n * d_n * d_n + classes * (cfg.edge_input_width * d_e + d_e * d_e)
    embed += 2 * d_g * d_g
    edge_mlp = 2 * n * d_n * d_e + m * d_e * d_e + graphs * d_g * d_e + m * d_e * d_e
    node_mlp = 2 * n * d_n * d_n + 2 * n * d_e * d_n + graphs * d_g * d_n + n * d_n * d_n
    global_mlp = graphs * (d_g + d_n + d_e) * d_g + graphs * d_g * d_g
    expected = embed + cfg.num_layers * (edge_mlp + node_mlp + global_mlp)
    assert sum(rows * k * cols for rows, k, cols in products) == expected
