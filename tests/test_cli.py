import concurrent.futures
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minifp import autodiff, cli
from minifp.autodiff import worker_count
from minifp.backbones import ModelConfig, build_model, save_model
from minifp.cli import main
from minifp.container import CorruptFile
from minifp.downstream import (
    FoldTooSmall,
    HeadConfig,
    InvalidHeadConfig,
    MissingFingerprint,
    SingleClass,
    SweepSpace,
    TooFewRuns,
    ZeroVariance,
)
from minifp.encodings import assemble
from minifp.fingerprints import DimensionMismatch, DuplicateId, FingerprintStore, store_read, store_write
from minifp.inputs import InputError, ManifestError
from minifp.manifest import CONFIG_SCHEMA, build_pretrain_dataset
from minifp.molgraph import SmilesError, parse_smiles
from minifp.multitask import ClassOutOfRange
from minifp.seeding import rng_stream
from minifp.trainer import TooFewMolecules

from .util import TOY_SMILES, edit_header, rewrite_header


def write_dataset(tmp_path, smiles=None, include_bad_row=False):
    """Toy manifest: two graph tasks (gap: G25 regression, a0/a1: PCBA binary)
    and one node task (charge: N4), with sparse labels."""
    smiles = smiles or TOY_SMILES[:20]
    rng = np.random.default_rng(0)
    mol_rows = []
    node_rows = []
    for i, text in enumerate(smiles):
        gap = repr(round(float(rng.standard_normal()), 4)) if rng.random() < 0.9 else ""
        a0 = str(int(rng.random() < 0.5)) if rng.random() < 0.8 else ""
        a1 = str(int(rng.random() < 0.5)) if rng.random() < 0.8 else ""
        mol_rows.append([f"mol{i}", text, gap, a0, a1])
        graph = parse_smiles(text)
        for atom_index in range(graph.num_atoms):
            if rng.random() < 0.7:
                node_rows.append([f"mol{i}", atom_index, repr(round(float(rng.standard_normal()), 4))])
    if include_bad_row:
        mol_rows.insert(1, ["molbad", "C(", "", "", ""])

    with open(tmp_path / "molecules.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mol_id", "smiles", "gap", "a0", "a1"])
        writer.writerows(mol_rows)
    with open(tmp_path / "node_labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mol_id", "atom_index", "charge"])
        writer.writerows(node_rows)
    manifest = {
        "molecule_csv": "molecules.csv",
        "smiles_column": "smiles",
        "id_column": "mol_id",
        "tasks": [
            {"name": "gap", "level": "graph", "kind": "regression", "group": "G25", "columns": ["gap"]},
            {"name": "assay", "level": "graph", "kind": "binary", "group": "PCBA", "columns": ["a0", "a1"]},
            {"name": "charge", "level": "node", "kind": "regression", "group": "N4",
             "columns": ["charge"], "node_csv": "node_labels.csv"},
        ],
    }
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return tmp_path / "manifest.json"


SMALL_CONFIG = """
# small model for tests
num_layers = 2
d_node = 12
d_edge = 12
d_global = 12
k_pe = 2
rw_steps = 3
epochs = 3
peak_lr = 0.003
warmup_epochs = 1
schedule = constant
batch_size = 16
"""


def write_config(tmp_path, text=SMALL_CONFIG):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


def test_featurize_clean(tmp_path, capsys):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC"])
    code = main(["featurize", str(manifest), "--out", str(tmp_path / "cache")])
    assert code == 0
    assert "featurized 3 molecules, 0 failures" in capsys.readouterr().out
    files = json.loads((tmp_path / "cache" / "files.json").read_text())["files"]
    assert files == ["failures.csv", "files.json", "layout.json"]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == files
    failures = (tmp_path / "cache" / "failures.csv").read_text().strip().split("\n")
    assert failures == ["row,smiles,error"]
    layout = json.loads((tmp_path / "cache" / "layout.json").read_text())
    feats = assemble(parse_smiles("CCO"))  # the default k_pe and rw_steps, as featurize without --config
    assert sum(c["width"] for c in layout["node"]) == feats.node_features.shape[1]
    assert sum(c["width"] for c in layout["edge"]) == feats.edge_features.shape[1]


def test_featurize_partial_failure_exit_zero(tmp_path, capsys):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN"], include_bad_row=True)
    code = main(["featurize", str(manifest), "--out", str(tmp_path / "cache")])
    assert code == 0
    assert "featurized 2 molecules, 1 failures" in capsys.readouterr().out
    lines = (tmp_path / "cache" / "failures.csv").read_text().strip().split("\n")
    assert len(lines) == 2  # header + one failure
    assert "C(" in lines[1]


def test_featurize_reports_a_non_ascii_ring_digit_as_a_parse_failure(tmp_path, capsys):
    (tmp_path / "molecules.csv").write_text("id,smiles\nmol0,CCO\nmol1,CC\u00b2\n", encoding="utf-8")
    (tmp_path / "manifest.json").write_text(
        json.dumps({"molecule_csv": "molecules.csv", "smiles_column": "smiles", "id_column": "id", "tasks": []})
    )
    assert main(["featurize", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "cache")]) == 0
    assert "featurized 1 molecules, 1 failures" in capsys.readouterr().out
    failures = (tmp_path / "cache" / "failures.csv").read_text(encoding="utf-8")
    assert failures == "row,smiles,error\n1,CC\u00b2,unsupported symbol '\u00b2' at position 2\n"


def test_featurize_missing_column_exit_2(tmp_path, capsys):
    write_dataset(tmp_path, smiles=["CCO"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["smiles_column"] = "structure"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = main(["featurize", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "cache")])
    assert code == 2
    assert "structure" in capsys.readouterr().err


def test_featurize_takes_no_seed_exit_2(tmp_path, capsys):
    manifest = write_dataset(tmp_path, smiles=["CCO"])
    with pytest.raises(SystemExit) as exit_info:
        main(["featurize", str(manifest), "--out", str(tmp_path / "cache"), "--seed", "3"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --seed 3" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "cache").exists()


def test_pretrain_run_directory(tmp_path, capsys):
    manifest = write_dataset(tmp_path)
    config = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["pretrain", str(manifest), "--backbone", "gine", "--config", str(config), "--out", str(out)])
    assert code == 0
    for name in ("run_config.txt", "best.ckpt", "final.ckpt", "log.jsonl", "split.json", "timing.txt", "param_count.txt"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "parameters" in printed
    frozen = (out / "run_config.txt").read_text()
    assert "backbone = gine" in frozen
    assert "epochs = 3" in frozen
    log_lines = (out / "log.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 4  # 3 epochs + summary


def test_pretrain_rerun_identical_outputs(tmp_path):
    manifest = write_dataset(tmp_path)
    config = write_config(tmp_path)
    for name in ("r1", "r2"):
        code = main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(config), "--out", str(tmp_path / name)])
        assert code == 0
    for name in ("log.jsonl", "best.ckpt", "final.ckpt", "run_config.txt", "split.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes(), name


def test_env_seed_override(tmp_path, monkeypatch):
    manifest = write_dataset(tmp_path)
    config = write_config(tmp_path)
    monkeypatch.setenv("MINIFP_SEED", "99")
    main(["pretrain", str(manifest), "--backbone", "gine", "--config", str(config), "--out", str(tmp_path / "run")])
    frozen = (tmp_path / "run" / "run_config.txt").read_text()
    assert "seed = 99" in frozen


@pytest.mark.parametrize("command", ["pretrain", "downstream"])
def test_non_integer_env_seed_exit_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("MINIFP_SEED", "abc")
    if command == "pretrain":
        argv = ["pretrain", str(write_dataset(tmp_path)), "--backbone", "gcn",
                "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    else:
        argv = _downstream_args(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MINIFP_SEED" in err
    assert not (tmp_path / "out").exists()


def test_heavy_atom_filter_and_exclusion(tmp_path, monkeypatch):
    smiles = ["CCO", "C" * 120, "CCN", "C" * 101, "C" * 100, "C1CC1", "C1CCC1"]
    manifest = write_dataset(tmp_path, smiles=smiles)
    # Exclusion entries match whatever ring digits they were written with.
    (tmp_path / "excluded.smi").write_text("CCN\nC2CC2\n")
    raw = json.loads(manifest.read_text())
    raw["exclusion_list"] = "excluded.smi"
    manifest.write_text(json.dumps(raw))
    kept = []

    def build_and_record(*args):
        built = build_pretrain_dataset(*args)
        kept.append(built[3])
        return built

    def stop(*args, **kwargs):
        raise _Captured

    monkeypatch.setattr(cli, "build_pretrain_dataset", build_and_record)
    monkeypatch.setattr(cli, "pretrain", stop)
    for line in ("", "max_heavy = 101\n"):
        config = write_config(tmp_path, SMALL_CONFIG + line)
        with pytest.raises(_Captured):
            main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(config), "--out", str(tmp_path / "run")])
    # CCN and C1CC1 are excluded. The default cap of 100 keeps the 100-atom chain and drops the
    # 101- and 120-atom ones; the run config's cap of 101 keeps the 101-atom chain as well.
    assert kept == [["mol0", "mol4", "mol6"], ["mol0", "mol3", "mol4", "mol6"]]


def test_manifest_heavy_atom_key_exit_2(tmp_path, capsys):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC"])
    raw = json.loads(manifest.read_text())
    raw["max_heavy_atoms"] = 50
    manifest.write_text(json.dumps(raw))
    out = tmp_path / "run"
    code = main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(write_config(tmp_path)),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'max_heavy_atoms'" in err and "run config's max_heavy" in err
    assert not out.exists()


def _pretrained_run(tmp_path, backbone="gine"):
    manifest = write_dataset(tmp_path)
    config = write_config(tmp_path)
    out = tmp_path / f"run-{backbone}"
    assert main(["pretrain", str(manifest), "--backbone", backbone, "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("backbone", ["gcn", "mpnnpp"])
def test_run_config_fed_back_reproduces_the_run(tmp_path, backbone):
    first = _pretrained_run(tmp_path, backbone)
    again = tmp_path / "again"
    code = main(["pretrain", str(tmp_path / "manifest.json"), "--backbone", backbone,
                 "--config", str(first / "run_config.txt"), "--out", str(again)])
    assert code == 0
    for name in ("run_config.txt", "log.jsonl", "best.ckpt"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_pretrain_files_json_lists_exactly_what_was_written(tmp_path):
    run = _pretrained_run(tmp_path)
    files = json.loads((run / "files.json").read_text())["files"]
    assert files == sorted(p.name for p in run.iterdir())
    assert files == ["best.ckpt", "failures.csv", "files.json", "final.ckpt", "log.jsonl", "param_count.txt",
                     "run_config.txt", "split.json", "timing.txt"]


def test_fingerprint_command(tmp_path):
    run = _pretrained_run(tmp_path)
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nCCO\nCCN\nc1ccccc1\n")
    out = tmp_path / "fp.mfps"
    code = main(["fingerprint", str(run / "best.ckpt"), str(smi), "--out", str(out)])
    assert code == 0
    store = store_read(out)
    assert len(store) == 3  # duplicate CCO removed
    assert store.dimension == 12
    assert (tmp_path / "fp.mfps.csv").exists()


def _reconfigured(run, tmp_path, **changes):
    """A copy of ``run``'s best checkpoint whose header config takes ``changes``."""
    path = tmp_path / "reconfigured.ckpt"
    shutil.copyfile(run / "best.ckpt", path)
    edit_header(path, lambda header: header["config"].update(changes))
    return path


def test_fingerprint_determinism_and_pool_choice(tmp_path):
    run = _pretrained_run(tmp_path)
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nCCN\n")
    outs = []
    for name in ("a.mfps", "b.mfps"):
        main(["fingerprint", str(run / "best.ckpt"), str(smi), "--out", str(tmp_path / name)])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    # The same weights configured with another pool give another readout.
    main(["fingerprint", str(_reconfigured(run, tmp_path, pool="sum")), str(smi), "--out", str(tmp_path / "c.mfps")])
    assert (tmp_path / "c.mfps").read_bytes() != outs[0]


def test_global_fingerprint_source_on_gine_exit_2(tmp_path, capsys):
    # gine never updates the global stream, so every molecule would get the same row.
    run = _pretrained_run(tmp_path)
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nCCN\n")
    out = tmp_path / "fp.mfps"
    checkpoint = _reconfigured(run, tmp_path, graph_head_input="global")
    assert main(["fingerprint", str(checkpoint), str(smi), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "global" in err
    assert not out.exists()


def test_fingerprint_csv_input_with_ids(tmp_path):
    run = _pretrained_run(tmp_path)
    mols = tmp_path / "mols.csv"
    with open(mols, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "smiles"])
        writer.writerow(["ethanol", "CCO"])
        writer.writerow(["benzene", "c1ccccc1"])
        writer.writerow(['mol,"3"', "CCN"])
    out = tmp_path / "fp.mfps"
    code = main(["fingerprint", str(run / "best.ckpt"), str(mols), "--id-col", "name", "--out", str(out)])
    assert code == 0
    store = store_read(out)
    assert store.ids() == ["ethanol", "benzene", 'mol,"3"']
    with open(str(out) + ".csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == store.ids()
    values = np.array([[float(cell) for cell in row[1:]] for row in rows], dtype=np.float32)
    assert values.tobytes() == store.matrix().tobytes()


def write_downstream_task(tmp_path, store_path, n=24, margin=0.0):
    """Binary task on synthetic fingerprints; labels follow the sign of the
    first coordinate.  A nonzero margin pushes the classes apart so a small
    head can separate the test split perfectly."""
    rng = np.random.default_rng(5)
    store = FingerprintStore(6)
    ids = [f"d{i}" for i in range(n)]
    vectors = rng.standard_normal((n, 6)).astype(np.float32)
    if margin:
        vectors[:, 0] += np.where(vectors[:, 0] > 0, margin, -margin)
    for i, vec in zip(ids, vectors):
        store.add(i, vec)
    store_write(store, store_path)
    labels = (vectors[:, 0] > 0).astype(int)
    with open(tmp_path / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mol_id", "y"])
        for i, y in zip(ids, labels):
            writer.writerow([i, y])
    task = {
        "labels_csv": "labels.csv",
        "id_column": "mol_id",
        "task": {"name": "perm", "kind": "binary", "metric": "auroc", "columns": ["y"]},
    }
    (tmp_path / "task.json").write_text(json.dumps(task))
    return tmp_path / "task.json"


HEAD_CONFIG = """
epochs = 5
peak_lr = 0.01
d_node = 16
num_layers = 2
dropout = 0.0
batch_size = 32
"""


def test_downstream_command_shape_and_determinism(tmp_path):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    head_cfg = tmp_path / "head.txt"
    head_cfg.write_text(HEAD_CONFIG)
    for name in ("d1", "d2"):
        code = main([
            "downstream", str(store_path), str(task), "--sweep", "none",
            "--head-config", str(head_cfg), "--folds", "2", "--reps", "2",
            "--out", str(tmp_path / name), "--seed", "3",
        ])
        assert code == 0
    for name in ("summary.csv", "ensemble.csv", "chosen_config.json"):
        assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
    with open(tmp_path / "d1" / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["metric"] == "auroc"
    assert rows[0]["num_folds"] == "2"
    assert 0.0 <= float(rows[0]["test_mean"]) <= 1.0


def test_downstream_writes_wall_times_to_timing_txt_only(tmp_path, monkeypatch):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    configs = [HeadConfig(hidden_dim=8, num_layers=1, epochs=2, learning_rate=lr) for lr in (1e-2, 1e-3)]
    monkeypatch.setitem(cli.SWEEP_PRESETS, "config1", lambda: SweepSpace("config1", configs))
    code = main(["downstream", str(store_path), str(task), "--folds", "2", "--reps", "3",
                 "--out", str(tmp_path / "out"), "--seed", "1"])
    assert code == 0
    out = tmp_path / "out"
    assert "timing.txt" in json.loads((out / "files.json").read_text())["files"]
    lines = (out / "timing.txt").read_text().splitlines()
    workers = worker_count(2), worker_count(6)
    assert lines[0] == f"sweep workers: {workers[0]}" and lines[3] == f"ensemble workers: {workers[1]}"
    assert [line.split(": ")[0] for line in lines[1:3]] == ["sweep row 0", "sweep row 1"]
    heads = [f"ensemble repetition {rep} fold {fold}" for rep in range(3) for fold in range(2)]
    assert [line.split(": ")[0] for line in lines[4:]] == heads
    assert all(float(line.split(": ")[1].rstrip("s")) >= 0 for line in lines if "workers" not in line)
    for name in ("summary.csv", "ensemble.csv", "sweep_table.csv"):
        header = (out / name).read_text().splitlines()[0]
        assert "second" not in header and "time" not in header, name


def _task_missing_two_fingerprints(tmp_path):
    """A downstream task whose last two labelled ids, d22 and d23, the store lacks."""
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    store = store_read(store_path)
    trimmed = FingerprintStore(store.dimension)
    for molecule_id in store.ids()[:-2]:
        trimmed.add(molecule_id, store.get(molecule_id))
    store_write(trimmed, store_path)
    return store_path, task


def test_downstream_missing_fingerprints_exit_2(tmp_path, capsys):
    store_path, task = _task_missing_two_fingerprints(tmp_path)
    code = main(["downstream", str(store_path), str(task), "--sweep", "none",
                 "--folds", "2", "--reps", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    # The message keeps the quotes that KeyError's text gave it when MissingFingerprint was only a KeyError.
    assert capsys.readouterr().err == "error: \"ids absent from store: ['d22', 'd23']\"\n"


def test_downstream_sweep_missing_a_fingerprint_exits_2_before_any_process_pool_starts(tmp_path, capsys, monkeypatch):
    store_path, task = _task_missing_two_fingerprints(tmp_path)
    monkeypatch.setattr(autodiff, "_available_cores", lambda: 2)  # the sweep's configs would go to a pool

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code = main(["downstream", str(store_path), str(task), "--sweep", "config1",
                 "--folds", "2", "--reps", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: \"ids absent from store: ['d22', 'd23']")
    assert not (tmp_path / "out").exists()


def test_downstream_separable_task_reaches_auroc_one(tmp_path):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path, n=40, margin=2.0)
    head_cfg = tmp_path / "head.txt"
    head_cfg.write_text("epochs = 40\npeak_lr = 0.02\nd_node = 32\nnum_layers = 2\ndropout = 0.0\n")
    code = main(["downstream", str(store_path), str(task), "--sweep", "none",
                 "--head-config", str(head_cfg), "--folds", "2", "--reps", "2",
                 "--out", str(tmp_path / "out"), "--seed", "3"])
    assert code == 0
    with open(tmp_path / "out" / "summary.csv") as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["test_mean"]) == 1.0


def test_downstream_sweep_config1_table(tmp_path):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path, n=40)
    code = main(["downstream", str(store_path), str(task), "--sweep", "config1",
                 "--folds", "2", "--reps", "1", "--out", str(tmp_path / "out"), "--seed", "0"])
    assert code == 0
    with open(tmp_path / "out" / "sweep_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # the config-1 preset enumerates exactly 5 runs
    chosen = json.loads((tmp_path / "out" / "chosen_config.json").read_text())
    assert chosen["learning_rate"] in (0.001, 0.0005, 0.0003, 0.0001, 5e-5)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("split_files", [False, True])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_downstream_splits_match_the_inline_splits_bitwise(tmp_path, monkeypatch, seed, split_files):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path, n=37)
    ids = [f"d{i}" for i in range(37)]
    if split_files:  # id lists in no particular order
        shuffled = [ids[i] for i in np.random.default_rng(seed).permutation(37)]
        (tmp_path / "train_ids.txt").write_text("\n".join(shuffled[:29]) + "\n")
        (tmp_path / "test_ids.txt").write_text("\n".join(shuffled[29:]) + "\n")
        manifest = json.loads(task.read_text())
        manifest["splits"] = {"train": "train_ids.txt", "test": "test_ids.txt"}
        task.write_text(json.dumps(manifest))
    seen = {}

    def fake_sweep(space, data, seed, train_idx, valid_idx):
        seen["sweep"] = (train_idx, valid_idx)
        return HeadConfig(), []

    def fake_kfold_ensemble(data, config, train_rows, test_rows, **kwargs):
        seen["ensemble"] = (train_rows, test_rows)
        raise _Captured

    monkeypatch.setattr(cli, "sweep", fake_sweep)
    monkeypatch.setattr(cli, "kfold_ensemble", fake_kfold_ensemble)
    with pytest.raises(_Captured):
        main(["downstream", str(store_path), str(task), "--out", str(tmp_path / "o"), "--seed", str(seed)])

    if split_files:
        row_of = {molecule_id: i for i, molecule_id in enumerate(ids)}
        train_rows = np.array([row_of[i] for i in shuffled[:29]], dtype=np.int64)
        test_rows = np.array([row_of[i] for i in shuffled[29:]], dtype=np.int64)
    else:
        order = rng_stream(seed, "downstream-split").permutation(37)
        cut = max(1, int(round(37 * 0.8)))
        train_rows, test_rows = np.sort(order[:cut]), np.sort(order[cut:])
    inner_valid = max(1, len(train_rows) // 10)
    inner_order = rng_stream(seed, "sweep-split").permutation(len(train_rows))
    expected = {
        "ensemble": (train_rows, test_rows),
        "sweep": (np.sort(train_rows[inner_order[inner_valid:]]), np.sort(train_rows[inner_order[:inner_valid]])),
    }
    for site, pair in expected.items():
        for got, want in zip(seen[site], pair):
            assert got.dtype == want.dtype and np.array_equal(got, want), site


def _downstream_args(tmp_path, folds="2", reps="1", sweep="none"):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    head_cfg = tmp_path / "head.txt"
    head_cfg.write_text(HEAD_CONFIG)
    head = ["--head-config", str(head_cfg)] if sweep == "none" else []
    return ["downstream", str(store_path), str(task), "--sweep", sweep, *head,
            "--folds", folds, "--reps", reps, "--out", str(tmp_path / "out")]


def _single_class_args(tmp_path, sweep="none"):
    args = _downstream_args(tmp_path, sweep=sweep)
    labels = tmp_path / "labels.csv"
    rows = labels.read_text().splitlines()
    labels.write_text("\n".join([rows[0]] + [row.rsplit(",", 1)[0] + ",1" for row in rows[1:]]) + "\n")
    return args


def _two_molecule_pretrain_args(tmp_path):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN"])
    return ["pretrain", str(manifest), "--backbone", "gcn", "--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "run")]


@pytest.mark.parametrize(
    "make_args",
    [
        lambda tmp_path: _downstream_args(tmp_path, folds="1"),
        lambda tmp_path: _downstream_args(tmp_path, folds="30"),
        lambda tmp_path: _downstream_args(tmp_path, reps="0"),
        lambda tmp_path: _downstream_args(tmp_path, reps="-1"),
        _single_class_args,
        lambda tmp_path: _single_class_args(tmp_path, sweep="config1"),
        _two_molecule_pretrain_args,
    ],
    ids=["one-fold", "more-folds-than-rows", "zero-reps", "negative-reps", "single-class-auroc",
         "single-class-auroc-after-a-sweep", "too-few-molecules"],
)
def test_data_errors_exit_2(tmp_path, capsys, make_args):
    assert main(make_args(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # A downstream run writes its outputs only after the ensemble: a failed one leaves none.
    for name in ("sweep_table.csv", "chosen_config.json", "ensemble.csv", "summary.csv"):
        assert not (tmp_path / "out" / name).exists(), name


def _multiclass_pretrain_args(tmp_path, label):
    """Eight toy molecules with a three-class graph task; the sixth molecule's label is ``label``."""
    write_dataset(tmp_path, smiles=TOY_SMILES[:8])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tasks"] = [{"name": "family", "level": "graph", "kind": "multiclass", "num_classes": 3, "columns": ["gap"]}]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with open(tmp_path / "molecules.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    for i, row in enumerate(rows):
        row[2] = label if i == 5 else str(i % 3)
    with open(tmp_path / "molecules.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return ["pretrain", str(tmp_path / "manifest.json"), "--backbone", "gcn", "--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("label", ["7", "1.5"])
def test_multiclass_label_outside_its_classes_exit_2_before_training(tmp_path, capsys, label):
    assert main(_multiclass_pretrain_args(tmp_path, label)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'molecules.csv'}: data row 6, column 'gap': '{label}' is not a class in [0, 3)\n"
    assert not (tmp_path / "run" / "log.jsonl").exists()


def test_multiclass_labels_in_range_train(tmp_path):
    assert main(_multiclass_pretrain_args(tmp_path, "2")) == 0


@pytest.mark.parametrize("sweep", [["--sweep", "config1"], ["--sweep", "config2"], []])
def test_head_config_with_a_sweep_exit_2(tmp_path, capsys, sweep):
    args = [arg for arg in _downstream_args(tmp_path) if arg not in ("--sweep", "none")]
    assert main([*args, *sweep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --head-config needs --sweep none") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cls",
    [ManifestError, CorruptFile, DimensionMismatch, DuplicateId, MissingFingerprint, FoldTooSmall,
     SingleClass, ZeroVariance, TooFewRuns, InvalidHeadConfig, TooFewMolecules, SmilesError, ClassOutOfRange],
    ids=lambda cls: cls.__name__,
)
def test_every_bad_input_error_is_an_input_error(cls):
    # main maps InputError to exit 2, so each of these exits 2 with an error: line, never a traceback.
    assert issubclass(cls, InputError)


@pytest.mark.parametrize("folds, reps", [("1", "1"), ("30", "1"), ("2", "0")],
                         ids=["one-fold", "more-folds-than-rows", "zero-reps"])
def test_ensemble_counts_that_cannot_run_exit_2_before_the_sweep(tmp_path, capsys, folds, reps):
    assert main(_downstream_args(tmp_path, folds=folds, reps=reps, sweep="config1")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for name in ("sweep_table.csv", "chosen_config.json", "summary.csv"):
        assert not (tmp_path / "out" / name).exists(), name


def write_correlate_inputs(tmp_path, n_runs=5, coupled=True):
    rng = np.random.default_rng(0)
    quality = np.linspace(0.1, 0.9, n_runs)
    run_names = []
    for i, q in enumerate(quality):
        run = tmp_path / f"run{i}"
        run.mkdir(parents=True, exist_ok=True)
        records = []
        for epoch in (1, 2):
            records.append({
                "epoch": epoch, "lr": 1e-3,
                "train": {"total": 1.0 - q},
                "valid": {"G25": round(1.0 - q, 6), "PCBA": round(1.0 - q / 2, 6),
                          "auroc_assay": round(0.5 + q / 2, 6), "total": round(1.5 - q, 6)},
            })
        with open(run / "log.jsonl", "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.write(json.dumps({"best_epoch": 2, "best_valid": records[-1]["valid"]["total"]}, sort_keys=True) + "\n")
        run_names.append(f"run{i}")
    with open(tmp_path / "downstream.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "metric", "value", "higher_is_better"])
        for name, q in zip(run_names, quality):
            auroc_value = 0.5 + q / 2 if coupled else rng.random()
            writer.writerow([name, "auroc", repr(float(auroc_value)), "true"])
    return tmp_path


def test_correlate_coupled_logs_all_plus_one(tmp_path):
    write_correlate_inputs(tmp_path)
    out = tmp_path / "corr.csv"
    code = main(["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # Validation losses fall (sign -1) and the logged validation AUROC rises
    # (sign +1) as downstream AUROC rises: every signed rho is +1.
    assert any("auroc_assay" in row["pretrain_metric"] for row in rows)
    for row in rows:
        assert float(row["signed_rho"]) == pytest.approx(1.0)
        assert row["significant"] == "True"


def test_correlate_needs_three_runs(tmp_path, capsys):
    write_correlate_inputs(tmp_path, n_runs=2)
    code = main(["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "3 paired runs" in capsys.readouterr().err


def test_correlate_constant_metric_exit_2(tmp_path, capsys):
    write_correlate_inputs(tmp_path)
    with open(tmp_path / "downstream.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "metric", "value", "higher_is_better"])
        for i in range(5):
            writer.writerow([f"run{i}", "auroc", "0.75", "true"])
    code = main(["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_correlate_metric_reported_by_too_few_runs_exit_2(tmp_path, capsys):
    write_correlate_inputs(tmp_path)
    with open(tmp_path / "downstream.csv", "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(2):
            writer.writerow([f"run{i}", "mae", repr(0.5 + i), "false"])
    code = main(["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mae" in err


def test_correlate_metric_missing_from_one_run_uses_the_others(tmp_path):
    write_correlate_inputs(tmp_path)
    with open(tmp_path / "downstream.csv", "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(4):
            writer.writerow([f"run{i}", "mae", repr(0.5 - 0.1 * i), "false"])
    out = tmp_path / "c.csv"
    code = main(["correlate", str(tmp_path / "run*" / "log.jsonl"), str(tmp_path / "downstream.csv"), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = [row for row in csv.DictReader(fh) if row["downstream_metric"] == "mae"]
    # MAE falls as quality rises over run0..run3: every signed rho is +1.
    assert rows and all(float(row["signed_rho"]) == pytest.approx(1.0) for row in rows)


@pytest.mark.parametrize(
    "line, word",
    [("dropout = 1.5", "dropout"), ("peak_lr = 0", "learning rate"),
     ("peak_lr = inf", "peak_lr = 'inf' is not a finite number"), ("batch_size = 0", "batch_size")],
)
def test_invalid_head_config_exit_2(tmp_path, capsys, line, word):
    args = _downstream_args(tmp_path)
    (tmp_path / "head.txt").write_text(HEAD_CONFIG + line + "\n")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and word in err
    assert not (tmp_path / "out" / "chosen_config.json").exists()


@pytest.mark.parametrize(
    "line, word",
    [
        ("num_layers = 0", "num_layers"),
        ("epochs = 0", "epochs"),
        ("train_fraction = 0.5", "fractions"),
        ("schedule = bogus", "schedule"),
        ("k = 0", "k must"),
        ("dropout = 1.5", "dropout"),
        ("pool = median", "pool"),
        ("dtype = float16", "dtype"),
        ("batch_size = 0", "batch_size"),
        ("warmup_epochs = 500", "warmup_epochs"),
        ("graph_head_input = global", "graph_head_input"),
        ("backbone = gine", "--backbone gcn"),
        ("peak_lr = 0", "learning rate"),
    ],
)
def test_invalid_run_config_exit_2(tmp_path, capsys, line, word):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC", "CCCl"])
    config = write_config(tmp_path, SMALL_CONFIG + line + "\n")
    out = tmp_path / "run"
    assert main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and word in err
    assert not (out / "run_config.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [key for key, typ in CONFIG_SCHEMA.items() if typ is float])
def test_non_finite_run_config_number_exit_2(tmp_path, capsys, key, value):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC", "CCCl"])
    config = write_config(tmp_path, SMALL_CONFIG + f"{key} = {value}\n")
    out = tmp_path / "run"
    assert main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    line_no = len(SMALL_CONFIG.splitlines()) + 1
    assert err.startswith(f"error: {config} line {line_no}: {key} = '{value}' is not a finite number")
    assert "Traceback" not in err
    assert not (out / "run_config.txt").exists()


def test_fold_count_in_a_run_config_exit_2(tmp_path, capsys):
    # Fold and repetition counts are downstream options, not config keys.
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC", "CCCl"])
    config = write_config(tmp_path, SMALL_CONFIG + "folds = 3\n")
    out = tmp_path / "run"
    assert main(["pretrain", str(manifest), "--backbone", "gcn", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown key 'folds'" in err
    assert not (out / "run_config.txt").exists()


@pytest.mark.parametrize("line", ["k_pe = 0", "rw_steps = 0"])
@pytest.mark.parametrize("command", ["featurize", "pretrain"])
def test_zero_encoding_size_exit_2(tmp_path, capsys, command, line):
    manifest = write_dataset(tmp_path, smiles=["CCO", "CCN", "CCC", "CCCl"])
    config = write_config(tmp_path, SMALL_CONFIG + line + "\n")
    out = tmp_path / "out"
    argv = [command, str(manifest), "--config", str(config), "--out", str(out)]
    if command == "pretrain":
        argv += ["--backbone", "gcn"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and line.split()[0] in err
    assert not out.exists()


def test_bad_store_exit_2(tmp_path):
    task = write_downstream_task(tmp_path, tmp_path / "fp.mfps")
    bogus = tmp_path / "bogus.mfps"
    bogus.write_bytes(b"not a store")
    assert main(["downstream", str(bogus), str(task), "--out", str(tmp_path / "o")]) == 2


def test_store_with_a_flipped_id_byte_exit_2(tmp_path, capsys):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    raw = bytearray(store_path.read_bytes())
    raw[raw.index(b'"d0"') + 1] ^= 0x80  # the first id's first byte, in the header: no longer UTF-8
    store_path.write_bytes(bytes(raw))
    assert main(["downstream", str(store_path), str(task), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {store_path}: header is not UTF-8 JSON")


def test_store_with_a_byte_appended_exit_2(tmp_path, capsys):
    store_path = tmp_path / "fp.mfps"
    task = write_downstream_task(tmp_path, store_path)
    store_path.write_bytes(store_path.read_bytes() + b"\0")
    assert main(["downstream", str(store_path), str(task), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {store_path}: bytes after the last record\n"


def test_missing_manifest_exit_2(tmp_path):
    assert main(["featurize", str(tmp_path / "nope.json"), "--out", str(tmp_path / "c")]) == 2


def _saved_model(tmp_path):
    """A one-layer width-4 gine checkpoint and a two-line SMILES file."""
    path = tmp_path / "model.ckpt"
    save_model(build_model(ModelConfig(backbone="gine", num_layers=1, d_node=4, d_edge=4, d_global=4)), path)
    smi = tmp_path / "mols.smi"
    smi.write_text("CCO\nCCN\n")
    return path, smi


def _edit(edit):
    return lambda path: edit_header(path, edit)


def _replace(header: bytes):
    return lambda path: rewrite_header(path, lambda _: header)


@pytest.mark.parametrize(
    "damage",
    [
        _replace(b'{"config": {'),
        _replace(b'{"config": "\xff"}'),
        _replace(b"[]"),
        _edit(lambda h: h.pop("config")),
        _edit(lambda h: h.pop("heads")),
        _edit(lambda h: h.pop("records")),
        _edit(lambda h: h["config"].update(width=4)),
        _edit(lambda h: h["config"].update(num_layers="1")),
        _edit(lambda h: h["config"].update(d_node=True)),
        _edit(lambda h: h["config"].update(num_layers=0)),
        _edit(lambda h: h["config"].update(dtype="float16")),
        _edit(lambda h: h.update(heads=[{"name": "h"}])),
        _replace(b"[" * 100_000),
        lambda path: path.write_bytes(path.read_bytes() + b"\0"),
    ],
    ids=["not-json", "not-utf8", "not-an-object", "no-config", "no-heads", "no-records", "unknown-field",
         "string-int", "bool-int", "invalid-config", "unknown-dtype", "short-head", "nested-too-deep", "byte-appended"],
)
def test_damaged_checkpoint_exit_2(tmp_path, capsys, damage):
    path, smi = _saved_model(tmp_path)
    damage(path)
    out = tmp_path / "fp.mfps"
    assert main(["fingerprint", str(path), str(smi), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert not out.exists()


def test_missing_checkpoint_exit_3(tmp_path, capsys):
    path, smi = _saved_model(tmp_path)
    os.remove(path)
    out = tmp_path / "fp.mfps"
    assert main(["fingerprint", str(path), str(smi), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "model.ckpt" in err
    assert not out.exists()


def test_checkpoint_written_before_the_container_format_exit_2(tmp_path, capsys):
    # The former layout began with a uint32 version, 1, and the record count.
    path, smi = _saved_model(tmp_path)
    path.write_bytes(b"\x01\x00\x00\x00\x08\x00\x00\x00" + path.read_bytes())
    assert main(["fingerprint", str(path), str(smi), "--out", str(tmp_path / "fp.mfps")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a minifp container")


def test_header_float_written_as_an_integer_loads(tmp_path):
    path, smi = _saved_model(tmp_path)
    _edit(lambda h: h["config"].update(dropout=0))(path)
    assert b'"dropout": 0,' in path.read_bytes()
    assert main(["fingerprint", str(path), str(smi), "--out", str(tmp_path / "fp.mfps")]) == 0


def test_checkpoint_with_a_non_utf8_name_exit_2(tmp_path, capsys):
    path, smi = _saved_model(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"embed_x/w1"') + 1] ^= 0x80  # the first record's first name byte
    path.write_bytes(bytes(raw))
    assert main(["fingerprint", str(path), str(smi), "--out", str(tmp_path / "fp.mfps")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: header is not UTF-8 JSON")


def test_checkpoint_with_a_renamed_record_exit_2(tmp_path, capsys):
    path, smi = _saved_model(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b'"embed_x/w1"') + 9] ^= 0x02  # "embed_x/w1" -> "embed_x/u1", another valid name
    path.write_bytes(bytes(raw))
    out = tmp_path / "fp.mfps"
    assert main(["fingerprint", str(path), str(smi), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'embed_x/u1'" in err and "'embed_x/w1'" in err
    assert not out.exists()


def test_header_with_another_k_pe_exit_2(tmp_path, capsys):
    path, smi = _saved_model(tmp_path)
    _edit(lambda h: h["config"].update(k_pe=3))(path)  # saved with k_pe = 8
    out = tmp_path / "fp.mfps"
    assert main(["fingerprint", str(path), str(smi), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "('embed_x/w1', (54, 4))" in err and "('embed_x/w1', (44, 4))" in err
    assert not out.exists()


_IMPORTS_CHILD = """
import json, sys
def loaded():
    return [name for name in ("scipy.stats", "scipy.sparse") if name in sys.modules]
import minifp
import minifp.cli
after_import = loaded()
code = minifp.cli.main(json.loads(sys.argv[1]))
print(json.dumps([after_import, code, loaded()]))
"""


@pytest.mark.parametrize("command, expected", [("downstream", []), ("fingerprint", ["scipy.sparse"])])
def test_each_command_loads_only_the_scipy_modules_it_runs(tmp_path, command, expected):
    if command == "downstream":
        argv = _downstream_args(tmp_path)
    else:
        path, smi = _saved_model(tmp_path)
        argv = ["fingerprint", str(path), str(smi), "--out", str(tmp_path / "fp.mfps")]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, json.dumps(argv)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, code, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == [] and code == 0
    assert after_run == expected
