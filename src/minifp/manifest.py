"""Dataset manifests, label tables, list files and flat key-value run configs.

Every text input is read here, one function per job, and every failure is a
:class:`ManifestError` that names the file:

- :mod:`minifp.inputs`' ``read_text``, ``read_json`` and ``json_fields``: a
  file's UTF-8 text, and a JSON object with typed keys;
- :func:`read_csv`: the rows of a CSV whose header holds the required columns;
- :func:`read_id_list`: a list file, one stripped item per line, blank lines
  and lines starting with ``#`` skipped (split ids, excluded and fingerprinted
  SMILES);
- :func:`label_cells`: label cells to ``(values, mask)``; an empty cell is a
  masked-out label, any other cell must be a finite number, and a class index
  of a multiclass task an integer in ``[0, num_classes)``.

A dataset manifest is a JSON file describing one molecule CSV: which column
holds SMILES, optionally which holds molecule ids, the task label columns
(with level/kind/group metadata), and an optional exclusion list.
Node-level tasks read a companion CSV keyed by (molecule id, atom index).

Run configuration files are flat ``key = value`` text with typed keys: the
fields of ``ModelConfig`` and ``TrainConfig``, the loss balance ``k``, the
three split fractions and the heavy-atom cap ``max_heavy``.  Each key takes
its default from the one dataclass or function that reads it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, get_type_hints

import numpy as np

from .backbones import ModelConfig
from .downstream import METRICS
from .encodings import assemble
from .inputs import ManifestError, json_fields, read_json, read_text
from .molgraph import (
    MolecularGraph,
    SmilesError,
    heavy_atom_count,
    normalize_smiles,
    parse_smiles,
)
from .multitask import LOSS_FOR_KIND, LabelSet, LossWeights, TaskSpec
from .trainer import PretrainDataset, TrainConfig

#: Molecules with more heavy atoms are left out of pre-training (the run config's ``max_heavy``).
MAX_HEAVY = 100

#: The run config's keys for ``SplitSpec.fractions``, in its order.
SPLIT_KEYS = ("train_fraction", "valid_fraction", "test_fraction")

# -- readers ---------------------------------------------------------------------


def read_csv(path, required: list[str]) -> list[dict[str, str]]:
    """The rows of a CSV file whose header names every ``required`` column.

    A row shorter than the header reads its missing cells as empty."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""), restval="")
    try:
        header = reader.fieldnames or []
        rows = list(reader)
    except csv.Error as exc:
        raise ManifestError(f"{path}: not a valid CSV file: {exc}") from exc
    missing = [c for c in required if c not in header]
    if missing:
        raise ManifestError(f"{path}: missing required columns {missing}")
    return rows


def read_id_list(path) -> list[str]:
    """A list file: one stripped item per line; blank lines and ``#`` lines are skipped."""
    lines = (line.strip() for line in read_text(path).splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def label_cells(
    path, rows: Iterable[tuple[int, dict]], columns: list[str], num_classes: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, mask)`` of ``columns`` over ``rows``, (data row index, row) pairs of the CSV ``path``.

    An empty cell is a masked-out label (mask 0); any other cell must be a
    finite number (mask 1), with ``num_classes`` an integer in
    ``[0, num_classes)``, or the file, data row and column are named in a
    :class:`ManifestError`.
    """
    rows = list(rows)
    values = np.zeros((len(rows), len(columns)))
    mask = np.zeros((len(rows), len(columns)))
    for i, (index, row) in enumerate(rows):
        for j, column in enumerate(columns):
            cell = row[column]
            if not cell.strip():
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ManifestError(
                    f"{path}: data row {index + 1}, column {column!r}: {cell!r} is not a finite number"
                )
            if num_classes is not None and not (value.is_integer() and 0 <= value < num_classes):
                raise ManifestError(
                    f"{path}: data row {index + 1}, column {column!r}: {cell!r} is not a class in [0, {num_classes})"
                )
            values[i, j] = value
            mask[i, j] = 1.0
    return values, mask


# -- dataset manifest --------------------------------------------------------------


@dataclass
class TaskColumn:
    spec: TaskSpec
    columns: list[str]
    node_csv: Path | None = None


@dataclass
class DatasetManifest:
    molecule_csv: Path
    smiles_column: str
    id_column: str | None
    tasks: list[TaskColumn]
    exclusion_list: Path | None = None


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    raw = read_json(
        path,
        {"molecule_csv": str, "smiles_column": str, "tasks": list},
        {"id_column": str, "exclusion_list": str, "max_heavy_atoms": int},
    )
    if "max_heavy_atoms" in raw:
        raise ManifestError(f"{path}: the heavy-atom cap is the run config's max_heavy, not 'max_heavy_atoms'")

    tasks = []
    for index, entry in enumerate(raw["tasks"]):
        json_fields(
            entry,
            f"{path}: tasks[{index}]",
            {"name": str, "level": str, "kind": str, "columns": list},
            {"loss": str, "group": str, "num_classes": int, "node_csv": str},
        )
        spec = TaskSpec(
            name=entry["name"],
            level=entry["level"],
            kind=entry["kind"],
            loss=entry.get("loss", LOSS_FOR_KIND.get(entry["kind"], "")),
            label_width=len(entry["columns"]),
            group=entry.get("group", "custom"),
            num_classes=entry.get("num_classes", 2),
        )
        try:
            spec.validate()
        except ValueError as exc:
            raise ManifestError(f"{path}: {exc}") from exc
        if spec.level == "node" and not entry.get("node_csv"):
            raise ManifestError(f"{path}: node-level task {spec.name} needs a node_csv")
        node_csv = path.parent / entry["node_csv"] if spec.level == "node" else None
        tasks.append(TaskColumn(spec, entry["columns"], node_csv))

    base = path.parent
    exclusion = raw.get("exclusion_list")
    return DatasetManifest(
        molecule_csv=base / raw["molecule_csv"],
        smiles_column=raw["smiles_column"],
        id_column=raw.get("id_column"),
        tasks=tasks,
        exclusion_list=(base / exclusion) if exclusion else None,
    )


@dataclass
class MoleculeRow:
    row_index: int
    molecule_id: str
    graph: MolecularGraph
    row: dict[str, str]


@dataclass
class ParseFailure:
    row_index: int
    smiles: str
    error: str


def read_molecules(manifest: DatasetManifest) -> tuple[list[MoleculeRow], list[ParseFailure]]:
    """Parse every row of the molecule CSV; failures are reported, not fatal.

    Label cells stay unread in each row until :func:`build_pretrain_dataset`
    keeps the molecule."""
    label_columns = [c for task in manifest.tasks if task.spec.level == "graph" for c in task.columns]
    required = [manifest.smiles_column] + label_columns
    if manifest.id_column:
        required.append(manifest.id_column)
    rows = read_csv(manifest.molecule_csv, required)

    molecules: list[MoleculeRow] = []
    failures: list[ParseFailure] = []
    for index, row in enumerate(rows):
        smiles = row[manifest.smiles_column].strip()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                graph = parse_smiles(smiles)
        except SmilesError as exc:
            failures.append(ParseFailure(row_index=index, smiles=smiles, error=str(exc)))
            continue
        molecule_id = row[manifest.id_column].strip() if manifest.id_column else graph.smiles
        molecules.append(MoleculeRow(index, molecule_id, graph, row))
    return molecules, failures


def read_exclusion_set(path: Path | None) -> frozenset[str]:
    """Exclusion list: a list file of SMILES, normalized on read."""
    if path is None:
        return frozenset()
    out = set()
    for smiles in read_id_list(path):
        try:
            out.add(normalize_smiles(smiles))
        except SmilesError as exc:
            raise ManifestError(f"{path}: excluded SMILES {smiles!r} does not parse: {exc}") from exc
    return frozenset(out)


def read_node_labels(
    manifest: DatasetManifest, task: TaskColumn, molecules: list[MoleculeRow], num_classes: int | None = None
) -> LabelSet:
    """Companion CSV keyed by (molecule id, atom index) -> node-level LabelSet; see :func:`label_cells`."""
    id_col = manifest.id_column or "molecule_id"
    path = task.node_csv
    rows = read_csv(path, [id_col, "atom_index"] + task.columns)
    sizes = {mol.molecule_id: mol.graph.num_atoms for mol in molecules}
    offsets = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))
    total = sum(sizes.values())

    picked: dict[int, tuple[int, dict]] = {}  # node row -> (data row index, row)
    for index, row in enumerate(rows):
        mol_id = row[id_col].strip()
        if mol_id not in offsets:
            continue  # label for a filtered-out molecule
        try:
            atom = int(row["atom_index"])
        except ValueError:
            atom = -1
        if not 0 <= atom < sizes[mol_id]:
            raise ManifestError(
                f"{path}: data row {index + 1}: atom_index {row['atom_index']!r} is not an atom of molecule {mol_id}"
            )
        target = offsets[mol_id] + atom
        if target in picked:
            raise ManifestError(f"{path}: data row {index + 1}: atom {atom} of {mol_id} is labelled twice")
        picked[target] = (index, row)
    cells, present = label_cells(path, picked.values(), task.columns, num_classes)
    values = np.zeros((total, len(task.columns)))
    mask = np.zeros((total, len(task.columns)))
    values[list(picked)] = cells
    mask[list(picked)] = present
    return LabelSet(values, mask)


def build_pretrain_dataset(
    manifest: DatasetManifest,
    k_pe: int,
    rw_steps: int,
    max_heavy: int = MAX_HEAVY,
) -> tuple[PretrainDataset, list[TaskSpec], list[ParseFailure], list[str]]:
    """Manifest -> featurized multi-task dataset.

    Drops molecules with more than ``max_heavy`` heavy atoms and those on the
    exclusion list before featurizing; only kept molecules' labels are read.
    Returns the dataset, the task specs, parse failures, and kept molecule ids.
    """
    molecules, failures = read_molecules(manifest)
    exclusion = read_exclusion_set(manifest.exclusion_list)
    kept = []
    for mol in molecules:
        if heavy_atom_count(mol.graph) > max_heavy:
            continue
        if mol.graph.smiles in exclusion:
            continue
        kept.append(mol)
    if not kept:
        raise ManifestError("no molecules left after filtering")

    seen: set[str] = set()
    for mol in kept:
        if mol.molecule_id in seen:
            raise ManifestError(f"{manifest.molecule_csv}: duplicate molecule id {mol.molecule_id!r}")
        seen.add(mol.molecule_id)

    graphs = [mol.graph for mol in kept]
    features = [assemble(g, k_pe, rw_steps) for g in graphs]

    graph_labels: dict[str, LabelSet] = {}
    node_labels: dict[str, LabelSet] = {}
    for task in manifest.tasks:
        classes = task.spec.num_classes if task.spec.kind == "multiclass" else None
        if task.spec.level == "graph":
            rows = [(mol.row_index, mol.row) for mol in kept]
            graph_labels[task.spec.name] = LabelSet(*label_cells(manifest.molecule_csv, rows, task.columns, classes))
        else:
            node_labels[task.spec.name] = read_node_labels(manifest, task, kept, classes)

    dataset = PretrainDataset(
        graphs=graphs, features=features, graph_labels=graph_labels, node_labels=node_labels
    )
    return dataset, [task.spec for task in manifest.tasks], failures, [mol.molecule_id for mol in kept]


# -- downstream task manifest ------------------------------------------------------


@dataclass
class DownstreamManifest:
    """Labels for one downstream task trained on stored fingerprints."""

    labels_csv: Path
    id_column: str
    task_name: str
    kind: str  # "binary" | "regression"
    metric: str
    columns: list[str]
    splits: dict[str, Path] = field(default_factory=dict)


def load_downstream_manifest(path) -> DownstreamManifest:
    path = Path(path)
    raw = read_json(path, {"labels_csv": str, "id_column": str, "task": dict}, {"splits": dict})
    task = json_fields(raw["task"], f"{path}: task", {"name": str, "kind": str, "columns": list}, {"metric": str})
    splits = json_fields(raw["splits"], f"{path}: splits", {"train": str, "test": str}, {}) if "splits" in raw else {}
    kind = task["kind"]
    if kind not in ("binary", "regression"):
        raise ManifestError(f"{path}: downstream tasks must be binary or regression, got {kind!r}")
    metric = task.get("metric", "auroc" if kind == "binary" else "mae")
    if metric not in METRICS:
        raise ManifestError(f"{path}: unknown metric {metric!r}")
    base = path.parent
    return DownstreamManifest(
        labels_csv=base / raw["labels_csv"],
        id_column=raw["id_column"],
        task_name=task["name"],
        kind=kind,
        metric=metric,
        columns=task["columns"],
        splits={name: base / p for name, p in splits.items()},
    )


def read_downstream_labels(manifest: DownstreamManifest) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Labels CSV -> (ids, values, mask); empty cells are masked out."""
    rows = read_csv(manifest.labels_csv, [manifest.id_column] + manifest.columns)
    values, mask = label_cells(manifest.labels_csv, enumerate(rows), manifest.columns)
    return [row[manifest.id_column].strip() for row in rows], values, mask


# -- flat key-value run configuration ----------------------------------------------


CONFIG_SCHEMA: dict[str, type] = {
    **get_type_hints(ModelConfig),
    **get_type_hints(TrainConfig),
    **get_type_hints(LossWeights),
    **dict.fromkeys(SPLIT_KEYS, float),
    "max_heavy": int,
}


def parse_config_text(text: str, where: str = "config") -> dict:
    """Parse ``key = value`` lines with ``#`` comments into typed values; a float must be finite."""
    out: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ManifestError(f"{where} line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ManifestError(f"{where} line {line_no}: unknown key {key!r}")
        typ = CONFIG_SCHEMA[key]
        try:
            out[key] = typ(value)
        except ValueError as exc:
            raise ManifestError(f"{where} line {line_no}: bad {typ.__name__} {value!r}") from exc
        if typ is float and not math.isfinite(out[key]):
            raise ManifestError(f"{where} line {line_no}: {key} = {value!r} is not a finite number")
    return out


def load_config_file(path) -> dict:
    return parse_config_text(read_text(path), str(path))


def format_config(values: dict) -> str:
    lines = [f"{key} = {values[key]}" for key in sorted(values)]
    return "\n".join(lines) + "\n"
