import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from minifp import cli
from minifp.manifest import (
    ManifestError,
    build_pretrain_dataset,
    format_config,
    label_cells,
    load_downstream_manifest,
    load_manifest,
    parse_config_text,
    read_downstream_labels,
    read_exclusion_set,
)

from .test_cli import write_dataset


def test_load_manifest_fields(tmp_path):
    path = write_dataset(tmp_path)
    manifest = load_manifest(path)
    assert manifest.smiles_column == "smiles"
    assert manifest.id_column == "mol_id"
    assert [t.spec.name for t in manifest.tasks] == ["gap", "assay", "charge"]
    assert manifest.tasks[1].spec.label_width == 2
    assert manifest.tasks[2].spec.level == "node"


def test_manifest_missing_key(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"molecule_csv": "x.csv"}))
    with pytest.raises(ManifestError, match="smiles_column"):
        load_manifest(tmp_path / "m.json")


def test_manifest_bad_loss_kind(tmp_path):
    write_dataset(tmp_path)
    raw = json.loads((tmp_path / "manifest.json").read_text())
    raw["tasks"][0]["loss"] = "BCE"  # regression + BCE mismatch
    (tmp_path / "manifest.json").write_text(json.dumps(raw))
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "manifest.json")


def test_node_task_requires_node_csv(tmp_path):
    write_dataset(tmp_path)
    raw = json.loads((tmp_path / "manifest.json").read_text())
    del raw["tasks"][2]["node_csv"]
    (tmp_path / "manifest.json").write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="node_csv"):
        load_manifest(tmp_path / "manifest.json")


def test_read_molecules_masks_empty_cells(tmp_path):
    manifest = load_manifest(write_dataset(tmp_path))
    dataset, _, failures, _ = build_pretrain_dataset(manifest, k_pe=2, rw_steps=3)
    assert not failures
    mask = np.concatenate([labels.mask.ravel() for labels in dataset.graph_labels.values()])
    assert set(mask) == {0.0, 1.0}
    for labels in dataset.graph_labels.values():
        assert not labels.values[labels.mask == 0].any()


#: Number texts float() reads, texts it reads as non-finite, and texts it rejects.
CELL_TEXTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(["", " ", "\t", " 2.5 ", "1_000", "1e400", "-inf", "NaN", "0x10", "1,5", "--1", "+.5", "١٢"]),
    st.text(max_size=8),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.tuples(CELL_TEXTS, CELL_TEXTS), min_size=1, max_size=4))
def test_a_label_cell_is_a_finite_number_a_blank_or_a_named_error(table):
    rows = [{"a": a, "b": b} for a, b in table]
    bad = None  # (data row index, column) of the first cell that is neither blank nor a finite number
    for index, row in enumerate(rows):
        for column in ("a", "b"):
            cell = row[column]
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if bad is None and cell.strip() and not finite:
                bad = (index, column)
    try:
        values, mask = label_cells("labels.csv", enumerate(rows), ["a", "b"])
    except ManifestError as exc:
        assert bad is not None
        assert str(exc).startswith(f"labels.csv: data row {bad[0] + 1}, column {bad[1]!r}: {rows[bad[0]][bad[1]]!r}")
        return
    assert bad is None
    for i, row in enumerate(rows):
        for j, column in enumerate(("a", "b")):
            blank = not row[column].strip()
            assert mask[i, j] == (0.0 if blank else 1.0)
            expected = 0.0 if blank else float(row[column])
            assert values[i, j].tobytes() == np.float64(expected).tobytes()


def test_build_pretrain_dataset_shapes(tmp_path):
    manifest = load_manifest(write_dataset(tmp_path))
    dataset, specs, failures, ids = build_pretrain_dataset(manifest, k_pe=2, rw_steps=3)
    assert not failures
    assert len(dataset) == len(ids) == 20
    assert dataset.graph_labels["gap"].values.shape == (20, 1)
    assert dataset.graph_labels["assay"].values.shape == (20, 2)
    total_atoms = sum(g.num_atoms for g in dataset.graphs)
    assert dataset.node_labels["charge"].values.shape == (total_atoms, 1)
    assert [s.name for s in specs] == ["gap", "assay", "charge"]


def test_exclusion_set_normalizes(tmp_path):
    path = tmp_path / "x.smi"
    path.write_text(" C1CC1 \n# comment\n\n")
    excl = read_exclusion_set(path)
    assert "C1CC1" in excl
    from minifp.molgraph import normalize_smiles

    assert normalize_smiles("C2CC2") in excl


def test_node_label_out_of_range_atom(tmp_path):
    write_dataset(tmp_path, smiles=["CCO"])
    lines = (tmp_path / "node_labels.csv").read_text().strip().split("\n")
    lines.append("mol0,99,0.5")
    (tmp_path / "node_labels.csv").write_text("\n".join(lines) + "\n")
    manifest = load_manifest(tmp_path / "manifest.json")
    with pytest.raises(ManifestError, match="atom_index"):
        build_pretrain_dataset(manifest, 2, 3)


def test_parse_config_text():
    values = parse_config_text("epochs = 10\npeak_lr = 0.001  # comment\n\n# full comment\nbackbone = gcn\n")
    assert values == {"epochs": 10, "peak_lr": 0.001, "backbone": "gcn"}


def test_parse_config_unknown_key():
    with pytest.raises(ManifestError, match="unknown key"):
        parse_config_text("bogus = 3\n")


def test_parse_config_bad_value():
    with pytest.raises(ManifestError, match="bad int"):
        parse_config_text("epochs = ten\n")


class _Stop(Exception):
    pass


#: The run config a pretrain run without --config writes, but for the per-backbone keys.
PIPELINE_DEFAULTS = {
    "num_layers": "16", "dropout": "0.0", "gine_epsilon_mode": "standard", "pool": "max", "dtype": "float32",
    "k_pe": "8", "rw_steps": "16", "epochs": "100", "peak_lr": "0.0003", "warmup_epochs": "5",
    "schedule": "linear-decay", "batch_size": "32", "k": "5.0", "max_heavy": "100", "seed": "0",
    "train_fraction": "0.92", "valid_fraction": "0.04", "test_fraction": "0.04",
}


def test_config_defaults_match_pipeline_constants(tmp_path, monkeypatch):
    # run_config.txt is written before the model is built, so a stopped run still writes it.
    def stop(config):
        raise _Stop

    monkeypatch.setattr(cli, "build_model", stop)
    monkeypatch.delenv("MINIFP_SEED", raising=False)
    manifest = write_dataset(tmp_path)
    per_backbone = {
        "gcn": ("704", "704", "704", "pooled"),
        "gine": ("528", "528", "528", "pooled"),
        "mpnnpp": ("256", "96", "256", "global"),
    }
    for backbone, (d_node, d_edge, d_global, head_input) in per_backbone.items():
        out = tmp_path / backbone
        with pytest.raises(_Stop):
            cli.main(["pretrain", str(manifest), "--backbone", backbone, "--out", str(out)])
        frozen = dict(line.split(" = ") for line in (out / "run_config.txt").read_text().splitlines())
        assert frozen == {
            **PIPELINE_DEFAULTS,
            "backbone": backbone,
            "d_node": d_node,
            "d_edge": d_edge,
            "d_global": d_global,
            "graph_head_input": head_input,
        }


def test_format_config_round_trip():
    values = {"epochs": 7, "backbone": "gcn", "peak_lr": 0.001}
    assert parse_config_text(format_config(values)) == values


def test_downstream_manifest_and_labels(tmp_path):
    with open(tmp_path / "labels.csv", "w") as fh:
        fh.write("mol_id,y\na,1\nb,\nc,0\n")
    (tmp_path / "task.json").write_text(json.dumps({
        "labels_csv": "labels.csv",
        "id_column": "mol_id",
        "task": {"name": "t", "kind": "binary", "columns": ["y"]},
    }))
    manifest = load_downstream_manifest(tmp_path / "task.json")
    assert manifest.metric == "auroc"
    ids, values, mask = read_downstream_labels(manifest)
    assert ids == ["a", "b", "c"]
    np.testing.assert_array_equal(mask.ravel(), [1, 0, 1])


def test_downstream_manifest_rejects_multiclass(tmp_path):
    (tmp_path / "task.json").write_text(json.dumps({
        "labels_csv": "labels.csv",
        "id_column": "mol_id",
        "task": {"name": "t", "kind": "multiclass", "columns": ["y"]},
    }))
    with pytest.raises(ManifestError):
        load_downstream_manifest(tmp_path / "task.json")


def _multiclass_manifest(tmp_path, graph_cell="1", node_cell="2"):
    """Four molecules with a graph-level and a node-level three-class task; the last
    molecule's graph label and its first atom's node label are the given cells."""
    smiles = ["CCO", "CCN", "CCC", "CCCl"]
    graph_cells = ["0", "2", "", graph_cell]
    (tmp_path / "molecules.csv").write_text(
        "mol_id,smiles,cls\n" + "".join(f"mol{i},{s},{c}\n" for i, (s, c) in enumerate(zip(smiles, graph_cells)))
    )
    (tmp_path / "nodes.csv").write_text("mol_id,atom_index,site\nmol0,1,0\nmol3,0," + node_cell + "\n")
    manifest = {
        "molecule_csv": "molecules.csv",
        "smiles_column": "smiles",
        "id_column": "mol_id",
        "tasks": [
            {"name": "family", "level": "graph", "kind": "multiclass", "num_classes": 3, "columns": ["cls"]},
            {"name": "site", "level": "node", "kind": "multiclass", "num_classes": 3, "columns": ["site"],
             "node_csv": "nodes.csv"},
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return load_manifest(tmp_path / "manifest.json")


@pytest.mark.parametrize("cell", ["0", "2", "2.0", " 1 ", ""])
def test_multiclass_labels_are_class_indices_or_blank(tmp_path, cell):
    dataset, *_ = build_pretrain_dataset(_multiclass_manifest(tmp_path, cell, cell), 2, 3)
    expected = float(cell) if cell.strip() else 0.0
    assert dataset.graph_labels["family"].values[3, 0] == expected
    assert dataset.graph_labels["family"].mask[3, 0] == (1.0 if cell.strip() else 0.0)
    assert dataset.node_labels["site"].values[9, 0] == expected  # mol3's first atom, after 3 + 3 + 3 atoms


@pytest.mark.parametrize("cell", ["3", "7", "-1", "1.5", "1e9"])
@pytest.mark.parametrize("level", ["graph", "node"])
def test_a_multiclass_label_outside_its_classes_is_a_named_error(tmp_path, level, cell):
    # Checked where the cell is read, whichever split the molecule lands in, not when a batch first scores it.
    manifest = _multiclass_manifest(tmp_path, *((cell, "1") if level == "graph" else ("1", cell)))
    where = ("molecules.csv: data row 4, column 'cls'" if level == "graph" else "nodes.csv: data row 2, column 'site'")
    with pytest.raises(ManifestError, match=f"{where}: '{cell}' is not a class in \\[0, 3\\)"):
        build_pretrain_dataset(manifest, 2, 3)
