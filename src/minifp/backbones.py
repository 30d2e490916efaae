"""Input embedding MLPs, the three GNN layer types, and the full layer stack.

Layer semantics:

* ``gcn``: x_i <- relu(W · sum_{j in N(i) ∪ {i}} x_j / sqrt(d_i d_j)) with the
  self-loop counted in the degrees, then dropout.  The weight-free
  aggregation is exposed separately as :func:`gcn_aggregate`.
* ``gine``: x_i <- MLP((1 + eps) · x_i + sum_j relu(x_j + e_ij)) with a
  learnable eps per layer.  ``gine_epsilon_mode="paper-printed"`` switches to
  the multiplicative variant MLP((1 - eps) · x_i ⊙ sum_j relu(x_j + e_ij)).
* ``mpnnpp``: updates edge, node, and global streams with concatenation
  MLPs and per-stream skip connections; the global update is projected back
  to d_global by its MLP so the skip shapes agree.

Graphs are batched as disjoint unions: node/edge rows concatenated, edge
indices offset, explicit per-node and per-edge graph ids.  Every undirected
bond contributes two directed edges.  Bond features are categorical, so a
batch has few bond classes (at most 16 rows: four orders × conjugated ×
in-ring): the edge MLP ``embed_e`` runs once per class
(:attr:`GraphBatch.bond_rows`), gine reads those class rows, and mpnnpp
gathers them to its edge stream over the bond plan.

Every sum over neighbours, over a graph or over a bond class runs over one
of the batch's five :class:`~minifp.autodiff.Segments` plans, which order
each segment's rows by stable 1-WL colours (Xu et al., arXiv 1810.00826;
Morris et al., arXiv 1810.02244).  Nodes of one graph with equal stable
colour carry bitwise-equal embeddings at every layer, and so do edges with
equal (sender colour, receiver colour, bond class); rows that tie on a
plan's key are therefore equal, and a relabelled graph sums the same values
in the same order.  Gathers run over the same plans, so each one's backward
is that plan's sum.  GCN aggregation and MPNN++'s incoming node sum are one
sparse product each, with a matrix the batch keeps as an attribute in its
own dtype; its rows follow the receiver plan and its transpose's rows the
sender plan (:attr:`GraphBatch.propagation`, :attr:`GraphBatch.adjacency`).
Those matrices, like every plan-ordered CSR matrix, come from
:meth:`~minifp.autodiff.Segments.csr`.

Message passing runs through composite tape ops, each of which keeps for
backward only what its backward reads:

* :func:`gine_inputs`: GINE's (1 + eps) · x + Σ_j relu(x_j + e_ij) (or the
  printed (1 - eps) · x ⊙ Σ_j relu(x_j + e_ij)).  A message depends only on
  its (sender, bond class) pair, so it is built once per distinct pair, in
  place in one (pairs, d) buffer, and each receiver adds its edges' pairs in
  receiver-plan order (:attr:`GraphBatch.message_sum`), the sums of one
  message per edge; backward keeps the boolean relu mask per pair, and the
  summed messages only in the printed mode.
* :func:`edge_hidden` and :func:`node_hidden`: the first layers of MPNN++'s
  edge MLP over [x_s | x_r | e | g_e] and node MLP over
  [x | in_e | out_e | A·x | g_n], each one ``Tape.linear_relu_sum`` that
  never builds the concatenation.  Two identities let each block's product
  run on the rows that block lives on: a product with a concatenation is
  the sum of the block products, [a | b]·W = a·W_a + b·W_b over row blocks
  of W (``Tape.rows``), and a row gather commutes with a right product,
  x[s]·W = (x·W)[s].  So x is multiplied once per node, not once per
  directed edge, and g once per graph; backward keeps the output for its
  relu mask and hands each product its spread's sum (sender, receiver,
  graph-edge or graph-node plan, the adjacency's transpose, or the
  identity).

:func:`gine_inputs` repeats the arithmetic of the gather, add, sub, mul,
relu and segment-sum ops it replaces, fed the per-edge rows gathered from
the class rows, and adds an input's parts in the order their closures would,
one ``Tape.custom`` input per contribution, so loss and gradients keep the
same bits.  The MPNN++ first layers add the same terms in another order than
the concatenation's product, so their bits match the block-order primitive
chain, not the concatenated one.  Every other hidden layer, in the MLPs and
in GCN, is one ``Tape.linear_relu`` op, which keeps no pre-activation.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, get_type_hints

import numpy as np

from . import container
from .autodiff import Parameter, Segments, ShapeMismatch, Tape
from .encodings import (
    ATOM_FEATURE_WIDTH,
    BOND_FEATURE_WIDTH,
    DEFAULT_K_PE,
    DEFAULT_RW_STEPS,
    AssembledFeatures,
)
from .inputs import ManifestError, json_fields
from .molgraph import MolecularGraph
from .seeding import rng_stream

if TYPE_CHECKING:
    import scipy.sparse

BACKBONES = ("gcn", "gine", "mpnnpp")
POOL_METHODS = ("sum", "mean", "max")

#: Hidden widths (d_node, d_edge, d_global) putting each 16-layer stack near
#: 10M parameters; exact counts are pinned in the tests.
DEFAULT_WIDTHS = {
    "gcn": (704, 704, 704),
    "gine": (528, 528, 528),
    "mpnnpp": (256, 96, 256),
}


class ConstantGlobalStream(ValueError):
    """The global stream is read on a backbone that never updates it."""


@dataclass
class ModelConfig:
    backbone: str = "gine"
    num_layers: int = 16
    d_node: int = 528
    d_edge: int = 528
    d_global: int = 528
    k_pe: int = DEFAULT_K_PE
    rw_steps: int = DEFAULT_RW_STEPS
    dropout: float = 0.0
    seed: int = 0
    gine_epsilon_mode: str = "standard"
    graph_head_input: str = "pooled"
    pool: str = "max"
    dtype: str = "float32"

    @property
    def node_input_width(self) -> int:
        return ATOM_FEATURE_WIDTH + 2 * self.k_pe + self.rw_steps

    @property
    def edge_input_width(self) -> int:
        return BOND_FEATURE_WIDTH

    @property
    def readout_width(self) -> int:
        """Width of :func:`graph_readout`'s rows."""
        return self.d_global if self.graph_head_input == "global" else self.d_node

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def validate(self) -> None:
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if min(self.d_node, self.d_edge, self.d_global) < 1:
            raise ValueError("hidden widths must be >= 1")
        if self.k_pe < 1:
            raise ValueError("k_pe must be >= 1")
        if self.rw_steps < 1:
            raise ValueError("rw_steps must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.backbone == "gine" and self.d_node != self.d_edge:
            raise ValueError("gine requires d_node == d_edge (x_j + e_ij)")
        if self.gine_epsilon_mode not in ("standard", "paper-printed"):
            raise ValueError(f"unknown gine_epsilon_mode {self.gine_epsilon_mode!r}")
        if self.graph_head_input not in ("pooled", "global"):
            raise ValueError(f"unknown graph_head_input {self.graph_head_input!r}")
        if self.graph_head_input == "global" and self.backbone != "mpnnpp":
            raise ConstantGlobalStream(
                f'graph_head_input = "global" needs mpnnpp: {self.backbone} never updates the global stream'
            )
        if self.pool not in POOL_METHODS:
            raise ValueError(f"unknown pool method {self.pool!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}")


def default_config(backbone: str, **overrides) -> ModelConfig:
    """Config with the standard widths for one backbone."""
    if backbone not in DEFAULT_WIDTHS:
        raise ValueError(f"unknown backbone {backbone!r}")
    d_node, d_edge, d_global = DEFAULT_WIDTHS[backbone]
    head_input = "global" if backbone == "mpnnpp" else "pooled"
    cfg = ModelConfig(
        backbone=backbone,
        d_node=d_node,
        d_edge=d_edge,
        d_global=d_global,
        graph_head_input=head_input,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# Rows per float64 block of a Glorot draw: ~512 KB at a width of 1024.
_GLOROT_BLOCK = 64


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    """One U(±sqrt(6 / (fan_in + fan_out))) draw of shape (fan_in, fan_out) (Glorot & Bengio, 2010).

    The same bits as ``rng.uniform(-limit, limit, size).astype(dtype)``:
    numpy draws ``low + (high - low) * u`` in float64 from the same ``u``
    stream, so the draw runs in row blocks straight into the dtype array
    and no float64 copy of the whole weight is made.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty((fan_in, fan_out), dtype=dtype)
    for lo in range(0, fan_in, _GLOROT_BLOCK):
        block = rng.random((min(lo + _GLOROT_BLOCK, fan_in) - lo, fan_out))
        block *= limit - -limit
        np.add(block, -limit, out=out[lo : lo + block.shape[0]])
    return out


@dataclass
class HeadSpec:
    """Shape record for one task head, kept in the checkpoint's header."""

    name: str
    level: str  # "node" | "graph"
    in_dim: int
    hidden_dim: int
    out_dim: int


class ModelState:
    """Embedding MLPs, layer-stack parameters, global seed vector, task heads."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.params: dict[str, Parameter] = {}
        self.heads: dict[str, HeadSpec] = {}
        self._init_rng = rng_stream(config.seed, "params")
        self.global_seed = (
            rng_stream(config.seed, "global-node")
            .standard_normal(config.d_global)
            .astype(config.np_dtype)
        )

    # -- parameter management ------------------------------------------------

    def add_parameter(self, name: str, value: np.ndarray) -> Parameter:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        param = Parameter(name, np.asarray(value, dtype=self.config.np_dtype))
        self.params[name] = param
        return param

    def glorot(self, name: str, fan_in: int, fan_out: int) -> Parameter:
        return self.add_parameter(name, glorot_uniform(self._init_rng, fan_in, fan_out, self.config.np_dtype))

    def add_initial(self, name: str, shape: tuple[int, ...]) -> Parameter:
        """A Glorot draw for a 2-D ``shape``, zeros otherwise."""
        if len(shape) == 2:
            return self.glorot(name, *shape)
        return self.add_parameter(name, np.zeros(shape, dtype=self.config.np_dtype))

    def add_mlp(self, prefix: str, d_in: int, d_hidden: int, d_out: int) -> None:
        for name, shape in _mlp_shapes(prefix, d_in, d_hidden, d_out):
            self.add_initial(name, shape)

    def add_task_head(self, name: str, level: str, in_dim: int, out_dim: int, hidden_dim: int | None = None) -> HeadSpec:
        hidden = hidden_dim if hidden_dim is not None else in_dim
        spec = HeadSpec(name=name, level=level, in_dim=in_dim, hidden_dim=hidden, out_dim=out_dim)
        self.heads[name] = spec
        self.add_mlp(f"head/{name}", in_dim, hidden, out_dim)
        return spec

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())


def count_parameters(state: ModelState) -> int:
    return sum(p.value.size for p in state.params.values())


def _mlp_shapes(prefix: str, d_in: int, d_hidden: int, d_out: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of a two-layer MLP's w1, b1, w2 and b2."""
    return [
        (f"{prefix}/w1", (d_in, d_hidden)),
        (f"{prefix}/b1", (d_hidden,)),
        (f"{prefix}/w2", (d_hidden, d_out)),
        (f"{prefix}/b2", (d_out,)),
    ]


def parameter_shapes(config: ModelConfig, heads: Iterable[HeadSpec] = ()) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of a ``config`` model with task ``heads``, in creation order:
    the embedding MLPs, the per-layer parameters, then each head's MLP."""
    d_n, d_e, d_g = config.d_node, config.d_edge, config.d_global
    shapes = [
        *_mlp_shapes("embed_x", config.node_input_width, d_n, d_n),
        *_mlp_shapes("embed_e", config.edge_input_width, d_e, d_e),
        *_mlp_shapes("embed_g", d_g, d_g, d_g),
    ]
    for layer in range(config.num_layers):
        if config.backbone == "gcn":
            shapes += [(f"layer{layer}/w", (d_n, d_n)), (f"layer{layer}/b", (d_n,))]
        elif config.backbone == "gine":
            shapes += [*_mlp_shapes(f"layer{layer}/mlp", d_n, d_n, d_n), (f"layer{layer}/epsilon", (1,))]
        else:
            shapes += [
                *_mlp_shapes(f"layer{layer}/mlp_edge", 2 * d_n + d_e + d_g, d_e, d_e),
                *_mlp_shapes(f"layer{layer}/mlp_node", 2 * d_n + 2 * d_e + d_g, d_n, d_n),
                *_mlp_shapes(f"layer{layer}/mlp_global", d_g + d_n + d_e, d_g, d_g),
            ]
    for head in heads:
        shapes += _mlp_shapes(f"head/{head.name}", head.in_dim, head.hidden_dim, head.out_dim)
    return shapes


def build_model(config: ModelConfig) -> ModelState:
    """Create a fresh model: embedding MLPs plus the per-layer parameters (:func:`parameter_shapes`)."""
    state = ModelState(config)
    for name, shape in parameter_shapes(config):
        state.add_initial(name, shape)
    return state


# -- batching -----------------------------------------------------------------


def _content_rank(rows: np.ndarray) -> np.ndarray:
    """Rank of each row among the distinct rows, compared by their exact bytes."""
    rows = np.ascontiguousarray(rows)
    if rows.size == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    keys = rows.reshape(rows.shape[0], -1).view(np.dtype((np.void, rows.dtype.itemsize * rows[0].size)))
    return np.unique(keys.ravel(), return_inverse=True)[1].reshape(-1)


@dataclass
class GraphBatch:
    """Disjoint union of graphs; every bond appears as two directed edges.

    The colours, segment plans, bond-class rows, message pairs and sparse
    operators are computed from the fields on first use and kept, so change
    no field after a forward pass has read them.  The operators are CSR
    matrices in the batch's dtype, its node features', each built by
    :meth:`~minifp.autodiff.Segments.csr` over a plan; a model runs only on
    a batch of its own dtype.
    """

    node_features: np.ndarray
    edge_features: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    node_graph_ids: np.ndarray
    edge_graph_ids: np.ndarray
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.senders.shape[0]

    def validate(self) -> None:
        n = self.num_nodes
        if self.num_edges and (self.senders.max() >= n or self.receivers.max() >= n):
            raise ShapeMismatch("edge index out of range")
        ids = np.unique(self.node_graph_ids)
        if not np.array_equal(ids, np.arange(self.num_graphs)):
            raise ShapeMismatch("graph ids must be contiguous from 0")

    @cached_property
    def colours(self) -> tuple[np.ndarray, np.ndarray]:
        """(node colour, bond class) from 1-WL colour refinement.

        The initial node colour ranks the exact node-feature row and the bond
        class ranks the exact edge-feature row, so both come from content,
        not from labels.  Each round recolours a node by its own colour and
        its sorted incoming (bond class, sender colour) pairs, and rounds
        stop once the number of colours stops growing.  Since every bond is
        two directed edges, the incoming pairs are also the outgoing ones.
        """
        node = _content_rank(self.node_features)
        bond = _content_rank(self.edge_features)
        count = int(node.max()) + 1 if node.size else 0
        while True:
            pair = bond * count + node[self.senders]
            order = np.lexsort((pair, self.receivers))
            receivers = self.receivers[order]
            slot = np.arange(receivers.shape[0]) - np.searchsorted(receivers, receivers)
            width = int(slot.max()) + 1 if slot.size else 0
            signature = np.full((self.num_nodes, 1 + width), -1, dtype=np.int64)
            signature[:, 0] = node
            signature[receivers, 1 + slot] = pair[order]
            refined = np.unique(signature, axis=0, return_inverse=True)[1].reshape(-1)
            refined_count = int(refined.max()) + 1 if refined.size else 0
            if refined_count == count:
                return node, bond
            node, count = refined, refined_count

    @cached_property
    def receiver_plan(self) -> Segments:
        """Edges by receiver, ordered by (sender colour, bond class)."""
        node, bond = self.colours
        return Segments(self.receivers, self.num_nodes, key=(node[self.senders], bond))

    @cached_property
    def sender_plan(self) -> Segments:
        """Edges by sender, ordered by (receiver colour, bond class)."""
        node, bond = self.colours
        return Segments(self.senders, self.num_nodes, key=(node[self.receivers], bond))

    @cached_property
    def graph_node_plan(self) -> Segments:
        """Nodes by graph, ordered by node colour."""
        node, _ = self.colours
        return Segments(self.node_graph_ids, self.num_graphs, key=(node,))

    @cached_property
    def graph_edge_plan(self) -> Segments:
        """Edges by graph, ordered by (sender colour, receiver colour, bond class)."""
        node, bond = self.colours
        return Segments(self.edge_graph_ids, self.num_graphs, key=(node[self.senders], node[self.receivers], bond))

    @cached_property
    def bond_rows(self) -> np.ndarray:
        """One edge-feature row per bond class, in class order: the rows
        ``embed_e`` runs on.  Edges of one class hold equal bytes."""
        _, bond = self.colours
        rows = np.empty((int(bond.max()) + 1 if bond.size else 0, self.edge_features.shape[1]),
                        dtype=self.edge_features.dtype)
        rows[bond] = self.edge_features
        return rows

    @cached_property
    def bond_plan(self) -> Segments:
        """Edges by bond class, ordered by (sender colour, receiver colour)."""
        node, bond = self.colours
        return Segments(bond, self.bond_rows.shape[0], key=(node[self.senders], node[self.receivers]))

    @cached_property
    def message_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sender, bond class) of each distinct pair among the directed
        edges, ordered by sender then class, and the pair of each edge."""
        _, bond = self.colours
        classes = max(self.bond_rows.shape[0], 1)
        pairs, pair_of_edge = np.unique(self.senders * classes + bond, return_inverse=True)
        return pairs // classes, pairs % classes, pair_of_edge.reshape(-1)

    @cached_property
    def propagation(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """GCN's Â = D^-½(A+I)D^-½ and its transpose, as CSR matrices in the batch's dtype.

        Row i of Â holds node i's incoming edges in ``receiver_plan`` order,
        then its self-loop; row j of the transpose holds node j's outgoing
        edges in ``sender_plan`` order, then its self-loop.  Degrees count
        incoming edges plus the self-loop.
        """
        degrees = (self.receiver_plan.counts + 1.0).astype(self.node_features.dtype)
        inv_sqrt = 1.0 / np.sqrt(degrees)
        return self._both_ways(inv_sqrt[self.senders] * inv_sqrt[self.receivers], 1.0 / degrees)

    @cached_property
    def adjacency(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """The plain adjacency (row i sums node i's incoming senders) and its
        transpose, in ``receiver_plan`` and ``sender_plan`` order and the batch's dtype."""
        return self._both_ways(np.ones(self.num_edges, dtype=self.node_features.dtype), None)

    @cached_property
    def message_sum(self) -> scipy.sparse.csr_matrix:
        """The (nodes × message pairs) CSR matrix in the batch's dtype whose row i
        adds node i's incoming edges' pairs (:attr:`message_pairs`) in ``receiver_plan`` order."""
        senders, _, pair_of_edge = self.message_pairs
        ones = np.ones(self.num_edges, dtype=self.node_features.dtype)
        return self.receiver_plan.csr(pair_of_edge, ones, width=senders.shape[0])

    def _both_ways(self, coeff: np.ndarray, loop: np.ndarray | None):
        """The receiver-plan matrix of the edges' ``coeff`` and its transpose, built over the sender plan."""
        return self.receiver_plan.csr(self.senders, coeff, loop), self.sender_plan.csr(self.receivers, coeff, loop)


def batch_graphs(
    graphs: list[MolecularGraph],
    features: list[AssembledFeatures],
    dtype=np.float32,
) -> GraphBatch:
    """The disjoint union of ``graphs``: bond k of a molecule is the directed
    edges u → v and v → u, in that order, each with the bond's feature row."""
    atoms = np.array([graph.num_atoms for graph in graphs], dtype=np.int64)
    bonds = np.array([graph.num_bonds for graph in graphs], dtype=np.int64)
    ends = np.fromiter(
        itertools.chain.from_iterable(bond.endpoints for graph in graphs for bond in graph.bonds),
        dtype=np.int64,
        count=2 * int(bonds.sum()),
    ).reshape(-1, 2)
    ends += np.repeat(np.cumsum(atoms) - atoms, bonds)[:, None]
    if features:
        nodes = np.concatenate([np.asarray(f.node_features, dtype=dtype) for f in features], axis=0)
        edges = np.concatenate([np.asarray(f.edge_features, dtype=dtype) for f in features], axis=0)
    else:
        nodes, edges = np.zeros((0, 0), dtype=dtype), np.zeros((0, 0), dtype=dtype)
    ids = np.arange(len(graphs), dtype=np.int64)
    batch = GraphBatch(
        node_features=nodes,
        edge_features=np.repeat(edges, 2, axis=0),
        senders=ends.reshape(-1),
        receivers=ends[:, ::-1].reshape(-1),
        node_graph_ids=np.repeat(ids, atoms),
        edge_graph_ids=np.repeat(ids, 2 * bonds),
        num_graphs=len(graphs),
    )
    batch.validate()
    return batch


def pool(tape: Tape, x, batch: GraphBatch, method: str):
    """(num_graphs, d): each graph's node rows reduced over the graph-node plan."""
    plan = batch.graph_node_plan
    if method == "sum":
        return tape.segment_sum(x, plan)
    if method == "mean":
        return tape.segment_mean(x, plan)
    if method == "max":
        return tape.segment_max(x, plan)
    raise ValueError(f"unknown pooling method {method!r}")


# -- forward pass ---------------------------------------------------------------


def _watch_mlp(tape: Tape, state: ModelState, prefix: str) -> list:
    """The watched (w1, b1, w2, b2) of a two-layer MLP."""
    return [tape.watch(state.params[f"{prefix}/{name}"]) for name in ("w1", "b1", "w2", "b2")]


def mlp_forward(tape: Tape, state: ModelState, prefix: str, x):
    """Two-layer MLP: ``linear(linear_relu(x))``."""
    w1, b1, w2, b2 = _watch_mlp(tape, state, prefix)
    return tape.linear(tape.linear_relu(x, w1, b1), w2, b2)


def embed_inputs(tape: Tape, batch: GraphBatch, state: ModelState):
    """(x0, e0, g0): two-layer MLPs over X0, E0, and the per-model seed vector.

    ``embed_e`` runs once per bond class, on :attr:`GraphBatch.bond_rows`.
    gine reads those class rows as e0; mpnnpp gathers them to its edge
    stream over the bond plan, whose backward is that plan's sum.  gcn reads
    no edge embedding, so for gcn e0 is None; its ``embed_e`` parameters stay
    in the model and never get a gradient.
    """
    cfg = state.config
    if batch.node_features.shape[1] != cfg.node_input_width:
        raise ShapeMismatch(
            f"node features width {batch.node_features.shape[1]} != expected {cfg.node_input_width}"
        )
    if batch.node_features.dtype != cfg.np_dtype:
        raise ShapeMismatch(f"a {batch.node_features.dtype} batch for a {cfg.dtype} model")
    x0 = mlp_forward(tape, state, "embed_x", tape.constant(batch.node_features))
    e0 = None
    if cfg.backbone != "gcn":
        e0 = mlp_forward(tape, state, "embed_e", tape.constant(batch.bond_rows))
    if cfg.backbone == "mpnnpp":
        e0 = tape.gather(e0, batch.bond_plan)
    seed_row = tape.constant(state.global_seed.reshape(1, -1))
    g_row = mlp_forward(tape, state, "embed_g", seed_row)
    g0 = tape.gather(g_row, Segments(np.zeros(batch.num_graphs, dtype=np.int64), 1))
    return x0, e0, g0


def gcn_aggregate(tape: Tape, x, batch: GraphBatch):
    """The weight-free normalized aggregation sum_{j in N(i) ∪ {i}} x_j / sqrt(d_i d_j).

    One product with the batch's Â = D^-½(A+I)D^-½ (Kipf & Welling,
    arXiv 1609.02907); see :attr:`GraphBatch.propagation`.
    """
    return tape.sparse_matmul(x, *batch.propagation)


def gcn_layer(tape: Tape, state: ModelState, layer: int, x, batch: GraphBatch, training: bool, step: int):
    agg = gcn_aggregate(tape, x, batch)
    out = tape.linear_relu(
        agg, tape.watch(state.params[f"layer{layer}/w"]), tape.watch(state.params[f"layer{layer}/b"])
    )
    return tape.dropout(out, state.config.dropout, (state.config.seed, layer, step), training)


def _row_blocks(tape: Tape, w, widths) -> list:
    """Consecutive row blocks of ``w`` (``Tape.rows``), one per width, covering all its rows."""
    bounds = np.cumsum([0, *widths]).tolist()
    if bounds[-1] != w.data.shape[0]:
        raise ShapeMismatch(f"row blocks of widths {list(widths)} for a weight of shape {w.data.shape}")
    return [tape.rows(w, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def edge_hidden(tape: Tape, x, e, g, w1, b1, batch: GraphBatch):
    """MPNN++'s edge MLP hidden layer relu([x_s | x_r | e | g_e] · W1 + b1), per directed edge.

    One ``Tape.linear_relu_sum``: (x·W_s)[senders] + (x·W_r)[receivers] +
    e·W_e + (g·W_g)[edge graph] + b1 over the row blocks of W1, so x's
    products run on node rows and g's on graph rows, and no
    (edges × 2 d_node + d_edge + d_global) input is built.
    """
    w_s, w_r, w_e, w_g = _row_blocks(tape, w1, [x.data.shape[1], x.data.shape[1], e.data.shape[1], g.data.shape[1]])
    return tape.linear_relu_sum(
        [(x, w_s, batch.sender_plan), (x, w_r, batch.receiver_plan), (e, w_e, None), (g, w_g, batch.graph_edge_plan)],
        b1,
    )


def node_hidden(tape: Tape, x, e_bar, g, w1, b1, batch: GraphBatch):
    """MPNN++'s node MLP hidden layer relu([x | in_e | out_e | A·x | g_n] · W1 + b1), per node.

    in_e and out_e sum each node's incoming and outgoing rows of e_bar (two
    segment sums); then one ``Tape.linear_relu_sum`` adds x·W_x + in_e·W_in +
    out_e·W_out + A·(x·W_ax) + (g·W_g)[node graph] + b1 over the row blocks of
    W1, with A the batch's adjacency (:attr:`GraphBatch.adjacency`).
    """
    incoming = tape.segment_sum(e_bar, batch.receiver_plan)
    outgoing = tape.segment_sum(e_bar, batch.sender_plan)
    d_n, d_e = x.data.shape[1], e_bar.data.shape[1]
    w_x, w_in, w_out, w_ax, w_g = _row_blocks(tape, w1, [d_n, d_e, d_e, d_n, g.data.shape[1]])
    return tape.linear_relu_sum(
        [
            (x, w_x, None),
            (incoming, w_in, None),
            (outgoing, w_out, None),
            (x, w_ax, batch.adjacency),
            (g, w_g, batch.graph_node_plan),
        ],
        b1,
    )


def gine_inputs(tape: Tape, x, e, eps, batch: GraphBatch, mode: str):
    """GINE's MLP input as one op: ``(1 + eps) x + agg`` ("standard") or, as
    printed, ``(1 - eps) x ⊙ agg`` ("paper-printed"), with agg = Σ_j relu(x_j + e_ij)
    per receiver i and ``e`` one row per bond class (:attr:`GraphBatch.bond_rows`).

    An edge's message depends only on its (sender, bond class) pair, so
    relu(x_s + e_c) is built once per distinct pair (:attr:`GraphBatch.message_pairs`)
    in one (pairs, d) buffer, and each receiver adds its incoming edges' pairs
    in receiver-plan order (:attr:`GraphBatch.message_sum`): the same
    additions, in the same order, as over one message per edge.  Backward
    keeps the boolean relu mask per pair (none on a non-recording tape), and
    agg only in "paper-printed" mode, whose backward reads it; it gathers the
    mask to each edge.  It repeats the arithmetic of the gather, add, relu,
    segment-sum, add, mul and sub ops it replaces, and hands x its parts in
    their closures' order: in "standard" mode g, then g·eps, then the
    sender-plan sum of the masked message gradient.  e's part is the
    bond-plan sum of that gradient.
    """
    if x.data.shape[1] != e.data.shape[1] or e.data.shape[0] != batch.bond_rows.shape[0]:
        raise ShapeMismatch(
            f"gine needs d_node == d_edge and one e row per bond class ({batch.bond_rows.shape[0]}),"
            f" got {x.data.shape} vs {e.data.shape}"
        )
    senders, receivers = batch.sender_plan, batch.receiver_plan
    pair_senders, pair_classes, pair_of_edge = batch.message_pairs
    messages = x.data[pair_senders]
    messages += e.data[pair_classes]
    np.maximum(messages, 0, out=messages)
    mask = messages > 0 if tape.recording else None
    agg = batch.message_sum @ messages
    del messages  # before the combine allocates its output

    def message_grads(g_agg):
        """(x's sender-plan part, e's bond-plan part) from agg's gradient."""
        g_msg = g_agg[receivers.segment_ids]
        g_msg *= mask[pair_of_edge]
        return senders.sum(g_msg), batch.bond_plan.sum(g_msg)

    if mode == "standard":
        out = x.data * eps.data
        out += x.data  # x + x·eps, the same sum either way round
        out += agg

        def backward(g):
            return (g, g * eps.data, (g * x.data).sum(axis=0).sum(axis=0, keepdims=True), *message_grads(g))

        return tape.custom(out, [x, x, eps, x, e], backward)

    one_minus = 1 - eps.data
    out = x.data * one_minus
    out *= agg

    def backward(g):
        g_scaled = g * agg  # the gradient of (1 - eps) x
        eps_grad = -(g_scaled * x.data).sum(axis=0).sum(axis=0, keepdims=True)
        return (g_scaled * one_minus, eps_grad, *message_grads(g * (x.data * one_minus)))

    return tape.custom(out, [x, eps, x, e], backward)


def gine_layer(tape: Tape, state: ModelState, layer: int, x, e, batch: GraphBatch, training: bool, step: int):
    eps = tape.watch(state.params[f"layer{layer}/epsilon"])
    pre = gine_inputs(tape, x, e, eps, batch, state.config.gine_epsilon_mode)
    out = mlp_forward(tape, state, f"layer{layer}/mlp", pre)
    return tape.dropout(out, state.config.dropout, (state.config.seed, layer, step), training)


def mpnnpp_layer(tape: Tape, state: ModelState, layer: int, x, e, g, batch: GraphBatch, training: bool, step: int):
    w1, b1, w2, b2 = _watch_mlp(tape, state, f"layer{layer}/mlp_edge")
    e_bar = tape.linear(edge_hidden(tape, x, e, g, w1, b1, batch), w2, b2)
    w1, b1, w2, b2 = _watch_mlp(tape, state, f"layer{layer}/mlp_node")
    x_bar = tape.linear(node_hidden(tape, x, e_bar, g, w1, b1, batch), w2, b2)

    global_in = tape.concat(
        [g, tape.segment_sum(x_bar, batch.graph_node_plan), tape.segment_sum(e_bar, batch.graph_edge_plan)],
        axis=1,
    )
    g_bar = mlp_forward(tape, state, f"layer{layer}/mlp_global", global_in)

    x_out = tape.add(x_bar, x)
    e_out = tape.add(e_bar, e)
    g_out = tape.add(g_bar, g)
    rate, seed = state.config.dropout, state.config.seed
    x_out = tape.dropout(x_out, rate, (seed, layer * 4 + 1, step), training)
    e_out = tape.dropout(e_out, rate, (seed, layer * 4 + 2, step), training)
    g_out = tape.dropout(g_out, rate, (seed, layer * 4 + 3, step), training)
    return x_out, e_out, g_out


@dataclass
class ForwardResult:
    x: object  # Tensor: final node embeddings
    e: object  # Tensor: final edge embeddings; for gine the input embedding per bond class; None for gcn
    g: object  # Tensor: final per-graph global embeddings


def forward(tape: Tape, batch: GraphBatch, state: ModelState, training: bool = False, step: int = 0) -> ForwardResult:
    """Embed then apply num_layers layer updates.

    gcn threads only x; gine threads x with read-only edge embeddings, one
    row per bond class; mpnnpp threads node, edge, and global streams.
    """
    x, e, g = embed_inputs(tape, batch, state)
    cfg = state.config
    for layer in range(cfg.num_layers):
        if cfg.backbone == "gcn":
            x = gcn_layer(tape, state, layer, x, batch, training, step)
        elif cfg.backbone == "gine":
            x = gine_layer(tape, state, layer, x, e, batch, training, step)
        else:
            x, e, g = mpnnpp_layer(tape, state, layer, x, e, g, batch, training, step)
    return ForwardResult(x=x, e=e, g=g)


def graph_readout(tape: Tape, result: ForwardResult, batch: GraphBatch, config: ModelConfig):
    """The graph-level readout, one row per graph: MPNN++'s global vector when
    ``graph_head_input`` is "global", else node embeddings pooled by ``config.pool``.

    Graph task heads train on it and a fingerprint is it, so both read the same bits.
    """
    if config.graph_head_input == "global":
        return result.g
    return pool(tape, result.x, batch, config.pool)


# -- persistence ----------------------------------------------------------------


def save_model(state: ModelState, path) -> None:
    """One container file (:mod:`minifp.container`): the config and the heads
    in its header, then every parameter in :func:`parameter_shapes` order.

    It is written under a temp name and moved over the old file, so a failed
    save leaves the previous one.
    """
    header = {"config": asdict(state.config), "heads": [asdict(h) for h in state.heads.values()]}
    container.write(path, header, {p.name: p.value for p in state.parameters()})


def link_model(src, dst) -> None:
    """Make the model file at ``dst`` the one at ``src``.

    It is hard-linked under ``<dst>.tmp`` and moved over ``dst``; where the
    filesystem refuses the link it is copied instead.  ``save_model``
    replaces files rather than rewriting them, so a later save to ``src``
    leaves ``dst`` as it was.
    """
    tmp = f"{os.fspath(dst)}.tmp"
    with contextlib.suppress(FileNotFoundError):
        os.remove(tmp)  # left by an interrupted run, it would refuse the link
    try:
        os.link(src, tmp)
    except OSError:
        with open(src, "rb") as fin, container.atomic_open(dst) as fout:
            shutil.copyfileobj(fin, fout)
    else:
        os.replace(tmp, dst)


def _from_json(cls, record, where: str):
    """The dataclass ``cls`` built from a JSON object of its fields, checked by
    :func:`~minifp.inputs.json_fields`: a field without a default is required."""
    types = get_type_hints(cls)
    required = {f.name: types[f.name] for f in fields(cls) if f.default is MISSING}
    return cls(**json_fields(record, where, required, {k: v for k, v in types.items() if k not in required}))


def load_model(path) -> ModelState:
    """The model :func:`save_model` wrote at ``path``.  A header whose config
    or heads are not such records, and records whose names or shapes are not
    those :func:`parameter_shapes` gives for them, raise ``container.CorruptFile``,
    as any other damage does."""
    header, arrays = container.read(path, {"config": dict, "heads": list})
    where = f"{path}: header"
    try:
        config = _from_json(ModelConfig, header["config"], f"{where}: config")
        heads = [_from_json(HeadSpec, head, f"{where}: heads[{i}]") for i, head in enumerate(header["heads"])]
        config.validate()
    except ValueError as exc:  # a ManifestError names the file itself
        raise container.CorruptFile(str(exc) if isinstance(exc, ManifestError) else f"{where}: {exc}") from exc
    found = [(name, value.shape) for name, value in arrays.items()]
    expected = parameter_shapes(config, heads)
    if found != expected:
        got, want = next((f, e) for f, e in itertools.zip_longest(found, expected) if f != e)
        raise container.CorruptFile(f"{path}: record (name, shape) {got} where the header's model has {want}")
    state = ModelState(config)
    for name, value in arrays.items():
        # container.read returns arrays it owns, so convert without a second copy.
        state.add_parameter(name, value.astype(config.np_dtype, copy=False))
    for head in heads:
        state.heads[head.name] = head
    return state
