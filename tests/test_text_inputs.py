"""Malformed text inputs: every one exits 2 with an ``error:`` line naming the file.

Covers the files a command names on its command line (manifests, configs,
molecule lists, result CSVs, training logs) and those a manifest names
(label CSVs, node-label CSVs, split and exclusion lists).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minifp import cli, fingerprints
from minifp.autodiff import Tape
from minifp.backbones import ModelConfig, batch_graphs, build_model, default_config, forward, save_model
from minifp.cli import main
from minifp.encodings import assemble
from minifp.fingerprints import store_read
from minifp.manifest import build_pretrain_dataset, load_manifest, read_exclusion_set, read_id_list
from minifp.molgraph import normalize_smiles, parse_smiles
from minifp.multitask import TaskSpec, head_input

from .test_cli import (
    HEAD_CONFIG,
    _downstream_args,
    _saved_model,
    write_config,
    write_correlate_inputs,
    write_dataset,
)


def _expect_exit_2(capsys, argv, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err, (name, err)
    return err


# -- pretrain: the manifest and the files it names -------------------------------


def _pretrain_argv(tmp_path):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC", "CCCl"])
    return ["pretrain", str(manifest), "--backbone", "gcn", "--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "run")]


def _edit_manifest(tmp_path, edit):
    path = tmp_path / "manifest.json"
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))


def _replace_cell(path, row, column, text):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "damage, names",
    [
        (lambda d: _edit_manifest(d, lambda m: m.update(tasks=5)), ["manifest.json", "'tasks'", "array"]),
        (lambda d: _edit_manifest(d, lambda m: m["tasks"][0].update(columns="gap")),
         ["manifest.json", "tasks[0]", "'columns'"]),
        (lambda d: _edit_manifest(d, lambda m: m.update(splits={"train": "t.txt"})),
         ["manifest.json", "unknown key 'splits'"]),
        (lambda d: (d / "manifest.json").write_bytes(b'{"molecule_csv": "\xff"}'), ["manifest.json", "UTF-8"]),
        (lambda d: (d / "manifest.json").write_text("[1, 2]"), ["manifest.json", "JSON object"]),
        (lambda d: (d / "manifest.json").write_text("[" * 100_000), ["manifest.json", "not valid JSON"]),
        (lambda d: _replace_cell(d / "molecules.csv", 2, "gap", "high"),
         ["molecules.csv", "data row 3", "'gap'", "'high'"]),
        (lambda d: _replace_cell(d / "molecules.csv", 0, "a1", "inf"), ["molecules.csv", "data row 1", "'a1'"]),
        (lambda d: _replace_cell(d / "node_labels.csv", 0, "atom_index", "1.5"),
         ["node_labels.csv", "data row 1", "atom_index"]),
        (lambda d: _replace_cell(d / "node_labels.csv", 1, "charge", "x"),
         ["node_labels.csv", "data row 2", "'charge'"]),
        (lambda d: (d / "molecules.csv").write_bytes(b"mol_id,smiles,gap,a0,a1\nmol0,CCO,\xff,,\n"),
         ["molecules.csv", "UTF-8"]),
        (lambda d: _edit_manifest(d, lambda m: m.update(exclusion_list="absent.smi")), ["absent.smi"]),
        (lambda d: (_edit_manifest(d, lambda m: m.update(exclusion_list="x.smi")),
                    (d / "x.smi").write_text("CCO\nC(\n")), ["x.smi", "'C('"]),
    ],
    ids=["tasks-not-array", "columns-not-array", "pretrain-splits", "manifest-not-utf8", "manifest-not-object",
         "manifest-nested-too-deep", "graph-label-word", "graph-label-inf", "atom-index-fraction", "node-label-word", "csv-not-utf8",
         "missing-exclusion-list", "exclusion-list-bad-smiles"],
)
def test_malformed_pretrain_input_exit_2(tmp_path, capsys, damage, names):
    argv = _pretrain_argv(tmp_path)
    damage(tmp_path)
    _expect_exit_2(capsys, argv, *names)
    assert not (tmp_path / "run").exists()


def test_a_file_name_with_a_lone_surrogate_exit_2(tmp_path):
    # A JSON escape can name a file that no path can encode; stderr escapes the name.
    manifest = write_dataset(tmp_path, smiles=["CCO"])
    _edit_manifest(tmp_path, lambda m: m.update(molecule_csv="\ud800.csv"))
    proc = subprocess.run(
        [sys.executable, "-m", "minifp.cli", "featurize", str(manifest), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: ") and b"\\ud800.csv: not UTF-8" in proc.stderr, proc.stderr


def test_labels_are_read_only_for_kept_molecules(tmp_path):
    # An excluded molecule's bad label cell is never parsed.
    argv = _pretrain_argv(tmp_path)
    _replace_cell(tmp_path / "molecules.csv", 1, "gap", "high")
    _edit_manifest(tmp_path, lambda m: m.update(exclusion_list="x.smi"))
    (tmp_path / "x.smi").write_text("CCN\n")
    _, _, _, ids = build_pretrain_dataset(load_manifest(argv[1]), 2, 3)
    assert ids == ["mol0", "mol2", "mol3"]


# -- downstream: the task manifest, its labels and splits, the head config -------------


def _edit_task(tmp_path, edit):
    path = tmp_path / "task.json"
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))


@pytest.mark.parametrize(
    "damage, names",
    [
        (lambda d: _edit_task(d, lambda t: t.update(splits=["a"])), ["task.json", "'splits'", "object"]),
        (lambda d: _edit_task(d, lambda t: t.update(splits={"train": "train.txt"})),
         ["task.json", "splits", "'test'"]),
        (lambda d: _edit_task(d, lambda t: t["task"].update(metric="accuracy")), ["task.json", "'accuracy'"]),
        (lambda d: _edit_task(d, lambda t: t.update(task=["y"])), ["task.json", "'task' must be an object"]),
        (lambda d: _replace_cell(d / "labels.csv", 4, "y", "yes"), ["labels.csv", "data row 5", "'y'", "'yes'"]),
        (lambda d: _edit_task(d, lambda t: t.update(splits={"train": "train.txt", "test": "test.txt"})),
         ["train.txt"]),
        (lambda d: (d / "head.txt").write_text(HEAD_CONFIG + "k_pe = 3\n"), ["head.txt", "'k_pe'"]),
        (lambda d: (d / "head.txt").write_text("epochs = 5\nbackbone = gcn\n"), ["head.txt", "'backbone'"]),
        (lambda d: (d / "head.txt").write_text("max_heavy = 5\n"), ["head.txt", "'max_heavy'"]),
        (lambda d: (d / "head.txt").write_text("graph_head_input = global\n"), ["head.txt", "'graph_head_input'"]),
        (lambda d: (d / "head.txt").write_text("epochs = five\n"), ["head.txt", "line 1", "bad int"]),
    ],
    ids=["splits-not-object", "splits-without-test", "unknown-metric", "task-not-object", "label-word",
         "missing-split-file", "head-k_pe", "head-backbone", "head-max_heavy", "head-graph_head_input",
         "head-bad-int"],
)
def test_malformed_downstream_input_exit_2(tmp_path, capsys, damage, names):
    argv = _downstream_args(tmp_path)
    damage(tmp_path)
    _expect_exit_2(capsys, argv, *names)
    assert not (tmp_path / "out" / "ensemble.csv").exists()


# -- fingerprint: the molecule list ------------------------------------------------


def _fingerprint_argv(tmp_path, molecules):
    path, _ = _saved_model(tmp_path)
    return ["fingerprint", str(path), str(tmp_path / molecules), "--out", str(tmp_path / "fp.mfps")]


@pytest.mark.parametrize(
    "molecules, content, names",
    [
        ("absent.smi", None, ["absent.smi"]),
        ("absent.csv", None, ["absent.csv"]),
        ("mols.smi", b"CCO\n\xfe\n", ["mols.smi", "UTF-8"]),
        ("mols.csv", b"name,smi\na,CCO\n", ["mols.csv", "'smiles'"]),
    ],
    ids=["missing-list", "missing-csv", "list-not-utf8", "csv-without-column"],
)
def test_malformed_molecule_list_exit_2(tmp_path, capsys, molecules, content, names):
    argv = _fingerprint_argv(tmp_path, molecules)
    if content is not None:
        (tmp_path / molecules).write_bytes(content)
    _expect_exit_2(capsys, argv, *names)
    assert not (tmp_path / "fp.mfps").exists()


@pytest.mark.parametrize(
    "molecules, content, id_col, names",
    [
        ("mols.csv", "id,smiles\nm1,CCO\nm2,CCC\nm1,CCN\n", "id", ["mols.csv", "'m1' repeats"]),
        # A row without an id is stored under its normalized SMILES, which may be another row's id.
        ("mols.csv", "id,smiles\nCCO,CCN\n,CCO\n", "id", ["molecule id 'CCO'"]),
        ("mols.csv", "id,smiles\n,CCO\nCCO,CCN\n", "id", ["molecule id 'CCO'"]),
    ],
    ids=["repeated-id", "fallback-id-taken", "fallback-id-taken-first"],
)
def test_molecule_id_the_store_cannot_hold_exit_2(tmp_path, capsys, monkeypatch, molecules, content, id_col, names):
    argv = _fingerprint_argv(tmp_path, molecules) + (["--id-col", id_col] if id_col else [])
    (tmp_path / molecules).write_text(content, encoding="utf-8")

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran before the id check")

    monkeypatch.setattr(fingerprints, "forward", no_forward)
    _expect_exit_2(capsys, argv, *names)
    assert not (tmp_path / "fp.mfps").exists()


# -- correlate: the training logs and the results CSV ---------------------------------


def _correlate_argv(tmp_path):
    write_correlate_inputs(tmp_path)
    return ["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"),
            "--out", str(tmp_path / "corr.csv")]


def _edit_log_line(tmp_path, number, text):
    path = tmp_path / "run2" / "log.jsonl"
    lines = path.read_text().splitlines()
    lines[number - 1] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "damage, names",
    [
        (lambda d: _edit_log_line(d, 2, "epoch 2: done"), ["run2/log.jsonl", "line 2"]),
        (lambda d: _edit_log_line(d, 1, "[1, 2]"), ["run2/log.jsonl", "line 1"]),
        (lambda d: _edit_log_line(d, 1, json.dumps({"epoch": 1, "train": {"total": 1.0}})),
         ["run2/log.jsonl", "line 1", "valid"]),
        (lambda d: _edit_log_line(d, 2, json.dumps({"epoch": 2, "valid": {"G25": "low"}})),
         ["run2/log.jsonl", "line 2"]),
        (lambda d: _edit_log_line(d, 3, json.dumps({"best_epoch": "last"})), ["run2/log.jsonl", "line 3"]),
        (lambda d: (d / "run2" / "log.jsonl").write_bytes(b"\xff\n"), ["run2/log.jsonl", "UTF-8"]),
        (lambda d: _edit_log_line(d, 1, "{\"valid\": " * 100_000), ["run2/log.jsonl", "line 1", "not valid JSON"]),
        (lambda d: _replace_cell(d / "downstream.csv", 1, "value", "n/a"),
         ["downstream.csv", "data row 2", "'value'", "'n/a'"]),
        (lambda d: (d / "downstream.csv").unlink(), ["downstream.csv"]),
        (lambda d: (d / "downstream.csv").write_text("run,metric,value\nrun0,auroc,0.5\n"),
         ["downstream.csv", "higher_is_better"]),
    ],
    ids=["log-not-json", "log-not-object", "log-epoch-without-valid", "log-valid-word", "log-best-word",
         "log-not-utf8", "log-nested-too-deep", "value-word", "missing-results", "results-without-column"],
)
def test_malformed_correlate_input_exit_2(tmp_path, capsys, damage, names):
    argv = _correlate_argv(tmp_path)
    damage(tmp_path)
    _expect_exit_2(capsys, argv, *names)
    assert not (tmp_path / "corr.csv").exists()


def test_an_empty_result_value_leaves_the_metric_missing_from_that_run(tmp_path, capsys):
    argv = _correlate_argv(tmp_path)
    _replace_cell(tmp_path / "downstream.csv", 0, "value", "")
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("correlated 4 runs")


# -- list files --------------------------------------------------------------------


LIST_TEXT = "  CCO  \n\n# a comment\n   # an indented comment\r\nC1CC1\n\t\n"


def test_split_exclusion_and_smiles_lists_share_one_line_rule(tmp_path, capsys):
    path = tmp_path / "list.smi"
    path.write_text(LIST_TEXT)
    assert read_id_list(path) == ["CCO", "C1CC1"]
    assert read_exclusion_set(path) == {normalize_smiles("CCO"), normalize_smiles("C1CC1")}
    assert cli._read_molecule_list(path, "smiles", None) == ["CCO", "C1CC1"]
    argv = _fingerprint_argv(tmp_path, "list.smi")
    assert main(argv) == 0
    assert store_read(tmp_path / "fp.mfps").ids() == ["CCO", "C1CC1"]
    assert "0 failures" in capsys.readouterr().out


def test_split_files_skip_comments_and_blank_lines(tmp_path, monkeypatch):
    argv = _downstream_args(tmp_path)
    ids = [f"d{i}" for i in range(24)]
    (tmp_path / "train.txt").write_text("# train ids\n\n" + "\n".join(ids[:18]) + "\n\n")
    (tmp_path / "test.txt").write_text("\n".join(f"  {i}  " for i in ids[18:]) + "\n# end\n")
    _edit_task(tmp_path, lambda t: t.update(splits={"train": "train.txt", "test": "test.txt"}))
    seen = {}

    def capture(store, data, config, **kwargs):
        seen.update(train=kwargs["train_rows"].tolist(), test=kwargs["test_rows"].tolist())
        raise cli.ManifestError("captured")

    monkeypatch.setattr(cli, "kfold_ensemble", capture)
    assert main(argv) == 2
    assert seen == {"train": list(range(18)), "test": list(range(18, 24))}


# -- fingerprint readout follows the checkpoint --------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(backbone="gine", num_layers=2, d_node=6, d_edge=6, d_global=6, k_pe=2, rw_steps=3, pool="sum"),
        default_config("mpnnpp", num_layers=2, d_node=6, d_edge=4, d_global=5, k_pe=2, rw_steps=3),
    ],
    ids=["gine-sum", "mpnnpp-default"],
)
def test_default_fingerprints_equal_head_input_rows_bitwise(tmp_path, config):
    model = build_model(config)
    save_model(model, tmp_path / "model.ckpt")
    molecules = ["CCO", "c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "C1CC1", "N"]
    (tmp_path / "mols.smi").write_text("\n".join(molecules) + "\n")
    out = tmp_path / "fp.mfps"
    assert main(["fingerprint", str(tmp_path / "model.ckpt"), str(tmp_path / "mols.smi"), "--out", str(out)]) == 0
    graphs = [parse_smiles(m) for m in molecules]
    batch = batch_graphs(graphs, [assemble(g, config.k_pe, config.rw_steps) for g in graphs], dtype=config.np_dtype)
    tape = Tape(recording=False)
    result = forward(tape, batch, model, training=False)
    rows = head_input(tape, result, batch, model, TaskSpec("toy", "graph", "regression", "MAE", 1)).data
    store = store_read(out)
    assert store.dimension == rows.shape[1]
    assert store.matrix().tobytes() == rows.astype(np.float32).tobytes()
