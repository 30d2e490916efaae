"""Dataset manifest ingestion and flat key-value run configuration.

A dataset manifest is a JSON file describing one molecule CSV: which column
holds SMILES, optionally which holds molecule ids, the task label columns
(with level/kind/group metadata), optional split-id files, and an optional
exclusion list.  Empty CSV cells are masked-out labels.  Node-level tasks
read a companion CSV keyed by (molecule id, atom index).

Run configuration files are flat ``key = value`` text with typed keys: the
fields of ``ModelConfig`` and ``TrainConfig``, the loss balance ``k``, the
three split fractions and the heavy-atom cap ``max_heavy``.  Each key takes
its default from the one dataclass or function that reads it.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .backbones import ModelConfig
from .encodings import assemble
from .molgraph import (
    MolecularGraph,
    SmilesError,
    heavy_atom_count,
    normalize_smiles,
    parse_smiles,
    renumber_ring_closures,
)
from .multitask import LOSS_FOR_KIND, LabelSet, LossWeights, TaskSpec
from .trainer import PretrainDataset, TrainConfig

#: Molecules with more heavy atoms are left out of pre-training (the run config's ``max_heavy``).
MAX_HEAVY = 100

#: The run config's keys for ``SplitSpec.fractions``, in its order.
SPLIT_KEYS = ("train_fraction", "valid_fraction", "test_fraction")


class ManifestError(ValueError):
    """Malformed manifest, missing columns, or inconsistent label data."""


@dataclass
class TaskColumn:
    spec: TaskSpec
    columns: list[str]
    node_csv: str | None = None


@dataclass
class DatasetManifest:
    base_dir: Path
    molecule_csv: Path
    smiles_column: str
    id_column: str | None
    tasks: list[TaskColumn]
    exclusion_list: Path | None = None
    splits: dict[str, Path] = field(default_factory=dict)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc

    base = path.parent
    for key in ("molecule_csv", "smiles_column", "tasks"):
        if key not in raw:
            raise ManifestError(f"manifest missing required key {key!r}")
    if "max_heavy_atoms" in raw:
        raise ManifestError("the heavy-atom cap is the run config's max_heavy, not the manifest key 'max_heavy_atoms'")

    tasks = []
    for entry in raw["tasks"]:
        for key in ("name", "level", "kind", "columns"):
            if key not in entry:
                raise ManifestError(f"task entry missing key {key!r}: {entry}")
        kind = entry["kind"]
        if kind not in LOSS_FOR_KIND:
            raise ManifestError(f"task {entry['name']}: unknown kind {kind!r}")
        loss = entry.get("loss", LOSS_FOR_KIND[kind])
        spec = TaskSpec(
            name=entry["name"],
            level=entry["level"],
            kind=kind,
            loss=loss,
            label_width=len(entry["columns"]),
            group=entry.get("group", "custom"),
            num_classes=entry.get("num_classes", 2),
        )
        try:
            spec.validate()
        except ValueError as exc:
            raise ManifestError(str(exc)) from exc
        if spec.level == "node" and "node_csv" not in entry:
            raise ManifestError(f"node-level task {spec.name} needs a node_csv")
        tasks.append(
            TaskColumn(spec=spec, columns=list(entry["columns"]), node_csv=entry.get("node_csv"))
        )

    splits = {name: base / p for name, p in raw.get("splits", {}).items()}
    exclusion = raw.get("exclusion_list")
    return DatasetManifest(
        base_dir=base,
        molecule_csv=base / raw["molecule_csv"],
        smiles_column=raw["smiles_column"],
        id_column=raw.get("id_column"),
        tasks=tasks,
        exclusion_list=(base / exclusion) if exclusion else None,
        splits=splits,
    )


@dataclass
class MoleculeRow:
    row_index: int
    molecule_id: str
    smiles: str
    graph: MolecularGraph
    labels: dict[str, float | None] = field(default_factory=dict)


@dataclass
class ParseFailure:
    row_index: int
    smiles: str
    error: str


def _read_csv(path: Path, required: list[str]) -> list[dict]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [c for c in required if c not in header]
            if missing:
                raise ManifestError(f"{path.name}: missing required columns {missing}")
            return list(reader)
    except FileNotFoundError as exc:
        raise ManifestError(f"CSV not found: {path}") from exc


def read_molecules(manifest: DatasetManifest) -> tuple[list[MoleculeRow], list[ParseFailure]]:
    """Parse every row of the molecule CSV; failures are reported, not fatal."""
    label_columns = [c for task in manifest.tasks if task.spec.level == "graph" for c in task.columns]
    required = [manifest.smiles_column] + label_columns
    if manifest.id_column:
        required.append(manifest.id_column)
    rows = _read_csv(manifest.molecule_csv, required)

    molecules: list[MoleculeRow] = []
    failures: list[ParseFailure] = []
    for index, row in enumerate(rows):
        smiles = (row.get(manifest.smiles_column) or "").strip()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                graph = parse_smiles(smiles)
                molecule_id = (
                    row[manifest.id_column].strip()
                    if manifest.id_column
                    else renumber_ring_closures(smiles)
                )
        except SmilesError as exc:
            failures.append(ParseFailure(row_index=index, smiles=smiles, error=str(exc)))
            continue
        labels: dict[str, float | None] = {}
        for column in label_columns:
            cell = (row.get(column) or "").strip()
            labels[column] = float(cell) if cell else None
        molecules.append(
            MoleculeRow(
                row_index=index,
                molecule_id=molecule_id,
                smiles=smiles,
                graph=graph,
                labels=labels,
            )
        )
    return molecules, failures


def read_exclusion_set(path: Path | None) -> frozenset[str]:
    """Exclusion list: one SMILES per line, normalized on read."""
    if path is None:
        return frozenset()
    out = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.add(normalize_smiles(line))
    return frozenset(out)


def read_node_labels(
    manifest: DatasetManifest, task: TaskColumn, molecules: list[MoleculeRow]
) -> LabelSet:
    """Companion CSV keyed by (molecule id, atom index) -> node-level LabelSet."""
    id_col = manifest.id_column or "molecule_id"
    path = manifest.base_dir / task.node_csv
    rows = _read_csv(path, [id_col, "atom_index"] + task.columns)
    offsets = {}
    total = 0
    for mol in molecules:
        offsets[mol.molecule_id] = total
        total += mol.graph.num_atoms
    sizes = {mol.molecule_id: mol.graph.num_atoms for mol in molecules}

    width = len(task.columns)
    values = np.zeros((total, width))
    mask = np.zeros((total, width))
    for row in rows:
        mol_id = row[id_col].strip()
        if mol_id not in offsets:
            continue  # label for a filtered-out molecule
        atom_index = int(row["atom_index"])
        if not 0 <= atom_index < sizes[mol_id]:
            raise ManifestError(
                f"{path.name}: atom_index {atom_index} out of range for molecule {mol_id}"
            )
        target = offsets[mol_id] + atom_index
        for j, column in enumerate(task.columns):
            cell = (row.get(column) or "").strip()
            if cell:
                values[target, j] = float(cell)
                mask[target, j] = 1.0
    return LabelSet(values, mask)


def build_pretrain_dataset(
    manifest: DatasetManifest,
    k_pe: int,
    rw_steps: int,
    max_heavy: int = MAX_HEAVY,
) -> tuple[PretrainDataset, list[TaskSpec], list[ParseFailure], list[str]]:
    """Manifest -> featurized multi-task dataset.

    Drops molecules with more than ``max_heavy`` heavy atoms and those on the
    exclusion list before featurizing.
    Returns the dataset, the task specs, parse failures, and kept molecule ids.
    """
    molecules, failures = read_molecules(manifest)
    exclusion = read_exclusion_set(manifest.exclusion_list)
    kept = []
    for mol in molecules:
        if heavy_atom_count(mol.graph) > max_heavy:
            continue
        if exclusion and renumber_ring_closures(mol.smiles) in exclusion:
            continue
        kept.append(mol)
    if not kept:
        raise ManifestError("no molecules left after filtering")

    seen: set[str] = set()
    for mol in kept:
        if mol.molecule_id in seen:
            raise ManifestError(f"duplicate molecule id {mol.molecule_id!r}")
        seen.add(mol.molecule_id)

    graphs = [mol.graph for mol in kept]
    features = [assemble(g, k_pe, rw_steps) for g in graphs]

    graph_labels: dict[str, LabelSet] = {}
    node_labels: dict[str, LabelSet] = {}
    specs = []
    for task in manifest.tasks:
        specs.append(task.spec)
        if task.spec.level == "graph":
            width = len(task.columns)
            values = np.zeros((len(kept), width))
            mask = np.zeros((len(kept), width))
            for i, mol in enumerate(kept):
                for j, column in enumerate(task.columns):
                    cell = mol.labels.get(column)
                    if cell is not None:
                        values[i, j] = cell
                        mask[i, j] = 1.0
            graph_labels[task.spec.name] = LabelSet(values, mask)
        else:
            node_labels[task.spec.name] = read_node_labels(manifest, task, kept)

    dataset = PretrainDataset(
        graphs=graphs, features=features, graph_labels=graph_labels, node_labels=node_labels
    )
    return dataset, specs, failures, [mol.molecule_id for mol in kept]


@dataclass
class DownstreamManifest:
    """Labels for one downstream task trained on stored fingerprints."""

    base_dir: Path
    labels_csv: Path
    id_column: str
    task_name: str
    kind: str  # "binary" | "regression"
    metric: str
    columns: list[str]
    splits: dict[str, Path] = field(default_factory=dict)


def load_downstream_manifest(path) -> DownstreamManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"task manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"task manifest is not valid JSON: {exc}") from exc
    for key in ("labels_csv", "id_column", "task"):
        if key not in raw:
            raise ManifestError(f"task manifest missing key {key!r}")
    task = raw["task"]
    for key in ("name", "kind", "columns"):
        if key not in task:
            raise ManifestError(f"task entry missing key {key!r}")
    kind = task["kind"]
    if kind not in ("binary", "regression"):
        raise ManifestError(f"downstream tasks must be binary or regression, got {kind!r}")
    metric = task.get("metric", "auroc" if kind == "binary" else "mae")
    base = path.parent
    return DownstreamManifest(
        base_dir=base,
        labels_csv=base / raw["labels_csv"],
        id_column=raw["id_column"],
        task_name=task["name"],
        kind=kind,
        metric=metric,
        columns=list(task["columns"]),
        splits={name: base / p for name, p in raw.get("splits", {}).items()},
    )


def read_downstream_labels(manifest: DownstreamManifest) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Labels CSV -> (ids, values, mask); empty cells are masked out."""
    rows = _read_csv(manifest.labels_csv, [manifest.id_column] + manifest.columns)
    ids = []
    width = len(manifest.columns)
    values = np.zeros((len(rows), width))
    mask = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        ids.append(row[manifest.id_column].strip())
        for j, column in enumerate(manifest.columns):
            cell = (row.get(column) or "").strip()
            if cell:
                values[i, j] = float(cell)
                mask[i, j] = 1.0
    return ids, values, mask


def read_id_list(path: Path) -> list[str]:
    try:
        return [line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    except FileNotFoundError as exc:
        raise ManifestError(f"split file not found: {path}") from exc


# -- flat key-value run configuration ----------------------------------------------


CONFIG_SCHEMA: dict[str, type] = {
    **get_type_hints(ModelConfig),
    **get_type_hints(TrainConfig),
    **get_type_hints(LossWeights),
    **dict.fromkeys(SPLIT_KEYS, float),
    "max_heavy": int,
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines with ``#`` comments into typed values."""
    out: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ManifestError(f"config line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ManifestError(f"config line {line_no}: unknown key {key!r}")
        typ = CONFIG_SCHEMA[key]
        try:
            out[key] = typ(value)
        except ValueError as exc:
            raise ManifestError(f"config line {line_no}: bad {typ.__name__} {value!r}") from exc
    return out


def load_config_file(path) -> dict:
    try:
        return parse_config_text(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"config file not found: {path}") from exc


def format_config(values: dict) -> str:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    return "\n".join(lines) + "\n"
