"""Extract fingerprint vectors from a trained model and persist them.

A fingerprint is the readout the model's graph task heads train on,
:func:`minifp.backbones.graph_readout`: the final node embeddings of one
molecule pooled into a vector (sum, mean, or max over the batch's graph-node
plan, by ``ModelConfig.pool``), or MPNN++'s global vector when
``graph_head_input`` is "global".  So a fingerprint equals its molecule's
head-input row bit for bit.  Max is the default pool throughout the pipeline
(it gave the best downstream ranks in the pooling comparison; sum and mean
remain selectable everywhere).  The plan adds each molecule's rows in stable
1-WL colour order, so a relabelled molecule produces a bitwise identical
vector at a given precision.

A store file is one :mod:`minifp.container`: its header holds the dimension
and the ids in store order, and its one record, ``vectors``, the (n,
dimension) float32 matrix, so the file ends with the last vector's values.
Round trips are bit-exact; a file that is not such a container, or whose ids
repeat or do not match the matrix, raises ``container.CorruptFile``.
"""

from __future__ import annotations

import concurrent.futures
import warnings

import numpy as np

from . import container
from .autodiff import Tape, _one_blas_thread, worker_count
# pool and normalize_smiles stay importable here: perfbench/instrument.py traces them in this module.
from .backbones import ModelState, batch_graphs, forward, graph_readout, pool  # noqa: F401
from .encodings import assemble
from .inputs import InputError
from .molgraph import MolecularGraph, SmilesError, normalize_smiles, parse_smiles  # noqa: F401


class DimensionMismatch(InputError):
    pass


class DuplicateId(InputError):
    """Two molecules would be stored under one id."""


class FingerprintStore:
    """Ordered (molecule id -> vector) map with a fixed dimension."""

    def __init__(self, dimension: int):
        self.dimension = int(dimension)
        self._ids: list[str] = []
        self._vectors: list[np.ndarray] = []
        self._index: dict[str, int] = {}

    def add(self, molecule_id: str, vector: np.ndarray) -> None:
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self.dimension,):
            raise DimensionMismatch(
                f"vector shape {vector.shape} does not match store dimension {self.dimension}"
            )
        if molecule_id in self._index:
            raise ValueError(f"duplicate molecule id {molecule_id!r}")
        self._index[molecule_id] = len(self._ids)
        self._ids.append(molecule_id)
        self._vectors.append(vector)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, molecule_id: str) -> bool:
        return molecule_id in self._index

    def ids(self) -> list[str]:
        return list(self._ids)

    def get(self, molecule_id: str) -> np.ndarray:
        return self._vectors[self._index[molecule_id]]

    def matrix(self, ids=None) -> np.ndarray:
        if ids is None:
            return np.stack(self._vectors) if self._vectors else np.zeros((0, self.dimension), dtype=np.float32)
        return np.stack([self.get(i) for i in ids])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FingerprintStore):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self._ids == other._ids
            and all(np.array_equal(a, b) for a, b in zip(self._vectors, other._vectors))
        )


def extract_fingerprints(
    model: ModelState, molecules, batch_size: int = 32
) -> tuple[FingerprintStore, list[tuple[str, str]]]:
    """Fingerprint every unique molecule with a single forward pass each.

    ``molecules`` holds SMILES strings or (id, SMILES) pairs; without an id
    the normalized SMILES is used.  Duplicates (by normalized SMILES) keep
    the first occurrence.  Returns the store and the molecules that failed
    to parse, as (id or SMILES, error) pairs: they are collected instead of
    aborting; a parsed graph always featurizes, so an
    invalid ``k_pe`` or ``rw_steps`` raises.  Two molecules whose ids are
    equal, an id standing in for a missing one included, raise
    :class:`DuplicateId` before any forward pass.

    Each batch is featurized and forwarded as one task, on one BLAS thread,
    so the stored bits do not depend on the core count.  With
    :func:`~minifp.autodiff.worker_count` > 1 the tasks run on a thread pool
    (numpy releases the GIL in its products) and their rows are stored in
    batch order; the first batch to raise, in batch order, raises here, the
    batches not yet started are cancelled, and every pool thread has exited
    before this returns.
    """
    cfg = model.config
    store = FingerprintStore(cfg.readout_width)
    failures: list[tuple[str, str]] = []

    pending: list[tuple[str, MolecularGraph]] = []
    seen: set[str] = set()
    taken: set[str] = set()
    for item in molecules:
        molecule_id, smiles = item if isinstance(item, tuple) else (None, item)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                graph = parse_smiles(smiles)
        except SmilesError as exc:  # collected, not raised
            failures.append((molecule_id or smiles, str(exc)))
            continue
        if graph.smiles in seen:
            continue
        seen.add(graph.smiles)
        molecule_id = molecule_id or graph.smiles
        if molecule_id in taken:
            raise DuplicateId(f"molecule id {molecule_id!r} is taken by an earlier molecule")
        taken.add(molecule_id)
        pending.append((molecule_id, graph))

    def fingerprint_batch(chunk: list[tuple[str, MolecularGraph]]) -> np.ndarray:
        graphs = [graph for _, graph in chunk]
        batch = batch_graphs(graphs, [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs], dtype=cfg.np_dtype)
        tape = Tape(recording=False)
        return graph_readout(tape, forward(tape, batch, model, training=False), batch, cfg).data

    chunks = [pending[start : start + batch_size] for start in range(0, len(pending), batch_size)]
    workers = worker_count(len(chunks))
    with _one_blas_thread(), concurrent.futures.ThreadPoolExecutor(workers) as executor:
        for chunk, rows in zip(chunks, (executor.map if workers > 1 else map)(fingerprint_batch, chunks)):
            for (molecule_id, _), row in zip(chunk, rows):
                store.add(molecule_id, row)
    return store, failures


def store_write(store: FingerprintStore, path) -> None:
    """Write ``store`` to ``path`` as one container, under a temp name moved over the old file."""
    container.write(path, {"dimension": store.dimension, "ids": store.ids()}, {"vectors": store.matrix()})


def store_read(path) -> FingerprintStore:
    header, arrays = container.read(path, {"dimension": int, "ids": list})
    dimension, ids = header["dimension"], header["ids"]
    shape = arrays["vectors"].shape if list(arrays) == ["vectors"] else None
    if shape != (len(ids), dimension):
        raise container.CorruptFile(f"{path}: the records are not one ({len(ids)}, {dimension}) matrix 'vectors'")
    store = FingerprintStore(dimension)
    for molecule_id, vector in zip(ids, arrays["vectors"]):
        if type(molecule_id) is not str or molecule_id in store:
            raise container.CorruptFile(f"{path}: header: id {molecule_id!r} is not a string or repeats")
        store.add(molecule_id, vector)
    return store


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break, so ``csv.reader`` reads it back whole."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def store_write_csv(store: FingerprintStore, path) -> None:
    """Interoperability export: one row per molecule, id then v0..v{d-1}.

    Values are written with 9 significant digits, which read back through
    ``float`` and ``np.float32`` to the stored bits (C11 ``FLT_DECIMAL_DIG``);
    a NaN reads back as NaN.  One format string formats each row.  The file
    is written under a temp name and moved over ``path``, so an interrupted
    export leaves no partial file."""
    row = "%s," + ",".join(["%.9g"] * store.dimension) + "\n"
    with container.atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ",".join(["id"] + [f"v{i}" for i in range(store.dimension)])
        fh.write(header + "\n")
        for molecule_id in store.ids():
            fh.write(row % (_csv_cell(molecule_id), *store.get(molecule_id).tolist()))
