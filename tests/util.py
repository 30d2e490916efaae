"""Shared helpers for tests: molecular graphs, toy datasets, gradient,
ensemble and metric oracles, memory probes and container-file surgery."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import resource
import struct
import tracemalloc
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from minifp.autodiff import Parameter, Segments, Tape, Tensor
from minifp.backbones import GraphBatch, mlp_forward
from minifp.downstream import TrainedHead, _mean_output
from minifp.encodings import assemble
from minifp.molgraph import Atom, Bond, MolecularGraph, annotate
from minifp.multitask import LabelSet, TaskSpec
from minifp.trainer import PretrainDataset

TOY_SMILES = [
    "CCO", "CCN", "CCC", "CC(C)C", "c1ccccc1", "c1ccncc1", "CC(=O)O",
    "CCCl", "CCBr", "C1CC1", "C1CCC1", "C1CCCC1", "CC(N)C(=O)O", "CCOC",
    "CC#N", "C=CC=C", "CC(C)O", "CCS", "C1CCCCC1", "c1ccc(C)cc1",
    "OCC(O)CO", "CC(=O)N", "CCOCC", "CC(C)(C)O", "NCCN", "OCCO",
    "CC=CC", "C#CC", "c1ccoc1", "c1ccsc1", "CNC", "COC(=O)C",
]

ELEMENT_POOL = ["C", "C", "C", "N", "O", "S"]
ORDER_POOL = ["single", "single", "single", "double"]


def random_molecule(rng: np.random.Generator, max_atoms: int = 12) -> MolecularGraph:
    """Random connected molecule-like graph: a tree plus up to two ring bonds."""
    n = int(rng.integers(2, max_atoms + 1))
    atoms = [Atom(element=str(rng.choice(ELEMENT_POOL))) for _ in range(n)]
    bonds = []
    present = set()
    degrees = [0] * n
    for i in range(1, n):
        candidates = [j for j in range(i) if degrees[j] < 4]
        j = int(rng.choice(candidates)) if candidates else int(rng.integers(0, i))
        bonds.append(Bond(j, i, order=str(rng.choice(ORDER_POOL))))
        present.add((j, i))
        degrees[j] += 1
        degrees[i] += 1
    for _ in range(int(rng.integers(0, 3))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (u, v) in present or degrees[u] >= 4 or degrees[v] >= 4:
            continue
        bonds.append(Bond(u, v, order="single"))
        present.add((u, v))
        degrees[u] += 1
        degrees[v] += 1
    graph = MolecularGraph(atoms=atoms, bonds=bonds)
    return annotate(graph)


def permute_graph(graph: MolecularGraph, perm: np.ndarray) -> MolecularGraph:
    """Relabel atoms so old atom i becomes new atom perm[i]."""
    n = graph.num_atoms
    new_atoms: list[Atom | None] = [None] * n
    for i, atom in enumerate(graph.atoms):
        new_atoms[int(perm[i])] = dataclasses.replace(atom)
    new_bonds = [
        Bond(
            int(perm[b.u]),
            int(perm[b.v]),
            order=b.order,
            in_ring=b.in_ring,
            conjugated=b.conjugated,
        )
        for b in graph.bonds
    ]
    permuted = MolecularGraph(atoms=new_atoms, bonds=new_bonds)
    permuted.validate()
    return permuted


def toy_tasks() -> list[TaskSpec]:
    return [
        TaskSpec("gap", "graph", "regression", "MAE", 1, "G25"),
        TaskSpec("assay", "graph", "binary", "BCE", 2, "PCBA"),
        TaskSpec("charge", "node", "regression", "MAE", 1, "N4"),
    ]


def build_toy_dataset(smiles=None, k_pe=2, rw_steps=3, seed=0) -> tuple[PretrainDataset, list[TaskSpec]]:
    """Small multi-task set: two graph tasks plus one node task, sparse masks."""
    from minifp.molgraph import parse_smiles

    smiles = smiles if smiles is not None else TOY_SMILES
    graphs = [parse_smiles(s) for s in smiles]
    feats = [assemble(g, k_pe, rw_steps) for g in graphs]
    rng = np.random.default_rng(seed + 1)
    n = len(graphs)
    total_atoms = sum(g.num_atoms for g in graphs)
    tasks = toy_tasks()
    dataset = PretrainDataset(
        graphs=graphs,
        features=feats,
        graph_labels={
            "gap": LabelSet(rng.standard_normal((n, 1)), (rng.random((n, 1)) < 0.9).astype(float)),
            "assay": LabelSet(
                (rng.random((n, 2)) < 0.5).astype(float),
                (rng.random((n, 2)) < 0.8).astype(float),
            ),
        },
        node_labels={
            "charge": LabelSet(
                rng.standard_normal((total_atoms, 1)),
                (rng.random((total_atoms, 1)) < 0.7).astype(float),
            ),
        },
    )
    return dataset, tasks


def finite_difference_check(
    fn: Callable[[Tape], Tensor],
    params: Sequence[Parameter],
    h: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must be deterministic (dropout off) and is re-evaluated twice per
    parameter coordinate.  Relative error uses max(|analytic|, |numeric|, 1e-8)
    as the denominator.
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(fn(tape))
    analytic = {p.name: np.zeros_like(p.value) if p.grad is None else p.grad for p in params}

    max_rel = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        grad_flat = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(fn(Tape(recording=False)).data)
            flat[i] = orig - h
            down = float(fn(Tape(recording=False)).data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(grad_flat[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(grad_flat[i] - numeric) / denom)
    return max_rel


def ensemble_predict(heads: Iterable[TrainedHead], x: np.ndarray) -> np.ndarray:
    """Mean of member outputs (probabilities for classification); see :func:`_mean_output`."""
    return _mean_output(head.predict(x) for head in heads)


def auprc_loop(scores, labels) -> float:
    """AUPRC by a walk over the distinct thresholds, best first: the loop
    ``downstream.auprc`` ran before it became array code, kept as its oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int((sorted_labels[i : j + 1] == 1).sum())
        fp += int((sorted_labels[i : j + 1] == 0).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(area)


def spearman_p_loop(rx: np.ndarray, ry: np.ndarray, rho: float) -> float:
    """The exact two-sided p-value of ``rho`` over every permutation of the
    midranks ``ry``, one permutation at a time: the loop ``downstream.spearman_rho``
    ran before it became array code, kept as its oracle."""
    rxc = rx - rx.mean()
    denom_x = math.sqrt((rxc * rxc).sum())
    hits = 0
    total = 0
    for perm in itertools.permutations(range(len(rx))):
        ryp = ry[list(perm)]
        ryc = ryp - ryp.mean()
        r = float((rxc * ryc).sum() / (denom_x * math.sqrt((ryc * ryc).sum())))
        if abs(r) >= abs(rho) - 1e-12:
            hits += 1
        total += 1
    return hits / total


def reference_relu(tape, a):
    """relu as its own tape op: the primitive that ``Tape.linear_relu`` and ``Tape.linear_relu_sum`` fuse with their products."""
    return tape.custom(np.maximum(a.data, 0), [a], lambda g: (g * (a.data > 0),))


def traced_memory(fn):
    """Run ``fn()`` under tracemalloc: its result, the bytes still allocated
    when it returns (what the result holds) and the peak bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def minor_faults(fn):
    """Run ``fn()``: its result and the minor page faults the process took meanwhile (``ru_minflt``)."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = fn()
    return result, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def loop_batch_graphs(graphs, features, dtype=np.float32) -> GraphBatch:
    """``backbones.batch_graphs`` as a loop over bonds, two directed edges appended per bond."""
    node_rows, edge_rows = [], []
    senders, receivers = [], []
    node_ids, edge_ids = [], []
    offset = 0
    for gid, (graph, feats) in enumerate(zip(graphs, features)):
        n = graph.num_atoms
        node_rows.append(np.asarray(feats.node_features, dtype=dtype))
        node_ids.append(np.full(n, gid, dtype=np.int64))
        e = np.asarray(feats.edge_features, dtype=dtype)
        for k, bond in enumerate(graph.bonds):
            senders.extend((bond.u + offset, bond.v + offset))
            receivers.extend((bond.v + offset, bond.u + offset))
            edge_rows.append(e[k])
            edge_rows.append(e[k])
            edge_ids.extend((gid, gid))
        offset += n
    edge_width = features[0].edge_features.shape[1] if features else 0
    return GraphBatch(
        node_features=np.concatenate(node_rows, axis=0) if node_rows else np.zeros((0, 0), dtype=dtype),
        edge_features=np.asarray(edge_rows, dtype=dtype).reshape(len(edge_rows), edge_width),
        senders=np.asarray(senders, dtype=np.int64),
        receivers=np.asarray(receivers, dtype=np.int64),
        node_graph_ids=np.concatenate(node_ids) if node_ids else np.zeros(0, dtype=np.int64),
        edge_graph_ids=np.asarray(edge_ids, dtype=np.int64),
        num_graphs=len(graphs),
    )


def per_edge_embed_inputs(tape, batch, state):
    """``backbones.embed_inputs`` with ``embed_e`` run on every directed edge's
    feature row rather than once per bond class: (x0, per-edge e0, g0)."""
    x0 = mlp_forward(tape, state, "embed_x", tape.constant(batch.node_features))
    e0 = None
    if state.config.backbone != "gcn":
        e0 = mlp_forward(tape, state, "embed_e", tape.constant(batch.edge_features))
    g_row = mlp_forward(tape, state, "embed_g", tape.constant(state.global_seed.reshape(1, -1)))
    return x0, e0, tape.gather(g_row, Segments(np.zeros(batch.num_graphs, dtype=np.int64), 1))


# A container file starts with the magic (4 bytes), the version (1) and the header's length (uint32).
HEADER_START = 9


def header_span(raw: bytes) -> tuple[int, int]:
    """(start, stop) of the JSON header in the bytes of a container file."""
    (length,) = struct.unpack_from("<I", raw, HEADER_START - 4)
    return HEADER_START, HEADER_START + length


def rewrite_header(path, edit: Callable[[bytes], bytes]) -> None:
    """Replace the header of the container file at ``path`` by ``edit(header)``, with its length."""
    raw = Path(path).read_bytes()
    start, stop = header_span(raw)
    header = edit(raw[start:stop])
    Path(path).write_bytes(raw[: start - 4] + struct.pack("<I", len(header)) + header + raw[stop:])


def edit_header(path, edit: Callable[[dict], None]) -> None:
    """Apply ``edit`` to the decoded JSON header of the container file at ``path``."""

    def change(raw: bytes) -> bytes:
        header = json.loads(raw)
        edit(header)
        return json.dumps(header).encode()

    rewrite_header(path, change)


class InterruptingArray:
    """Stands for an array whose conversion is interrupted, as by Ctrl-C in the middle of a write."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.dtype = np.dtype(np.float32)

    def __array__(self, dtype=None, copy=None):
        raise KeyboardInterrupt
