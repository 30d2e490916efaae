"""The golden toy run: the SHA-256 of every output file and a float64 summary of its numbers.

The run is ``test_determinism_criterion``'s pipeline: featurize the toy
manifest, pre-train gcn, gine and mpnnpp under ``SMALL_CONFIG`` (5 epochs),
fingerprint 20 toy molecules with each best checkpoint, train a
2-fold x 2-repetition downstream ensemble on each store, and correlate the
three pre-training logs with the ensembles' ``val_mean`` and ``test_mean``.
It runs on one BLAS thread, so its bits do not depend on the core count.

``tests/test_golden.py`` runs it again and compares.  A change that moves
output bits on purpose rewrites the golden files in the same commit::

    PYTHONPATH=src python -m tests.golden_pipeline
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from minifp.autodiff import _blas_thread_control, _one_blas_thread
from minifp.cli import main
from minifp.fingerprints import store_read
from minifp.molgraph import normalize_smiles

from .test_cli import SMALL_CONFIG, write_dataset
from .util import TOY_SMILES

GOLDEN = Path(__file__).parent / "golden"
BACKBONES = ("gcn", "gine", "mpnnpp")
HEAD_CONFIG = "epochs = 4\npeak_lr = 0.01\nd_node = 16\nnum_layers = 2\n"
WALL_CLOCK_FILES = ("timing.txt",)  # wall times: no two runs agree


def _openblas_core() -> str | None:
    """The kernel family (``SkylakeX``, ``Haswell``, ...) numpy's bundled OpenBLAS chose."""
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype, corename.argtypes = ctypes.c_char_p, []
                return corename().decode()
    return None


def machine_facts() -> dict:
    """What the output bits depend on besides the code: numpy, the BLAS kernels and their thread count."""
    control = _blas_thread_control()
    with _one_blas_thread():
        threads = None if control is None else control[0]()
    return {"numpy": np.__version__, "openblas_core": _openblas_core(), "blas_threads": threads}


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"minifp {argv[0]} exited {code}")


def run_pipeline(root: Path) -> tuple[dict[str, str], dict]:
    """Run the toy pipeline under ``root``: (SHA-256 of each output file by its
    path under ``root/out``, the float64 summary)."""
    root = Path(root)
    manifest = write_dataset(root)
    config = root / "config.txt"
    config.write_text(SMALL_CONFIG.replace("epochs = 3", "epochs = 5"))
    smi = root / "mols.smi"
    smi.write_text("".join(s + "\n" for s in TOY_SMILES[:20]))
    head_config = root / "head.txt"
    head_config.write_text(HEAD_CONFIG)
    with open(root / "dlabels.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mol_id", "y"])
        for i, text in enumerate(TOY_SMILES[:20]):
            writer.writerow([normalize_smiles(text), i % 2])
    task = root / "dtask.json"
    task.write_text(json.dumps({
        "labels_csv": "dlabels.csv",
        "id_column": "mol_id",
        "task": {"name": "toy", "kind": "binary", "metric": "auroc", "columns": ["y"]},
    }))

    out = root / "out"
    summary: dict = {"pretrain": {}, "fingerprints": {}, "folds": {}}
    with _one_blas_thread():
        _run("featurize", str(manifest), "--out", str(out / "cache"))
        for backbone in BACKBONES:
            run, store = out / backbone / "run", out / backbone / "fp.mfps"
            _run("pretrain", str(manifest), "--backbone", backbone, "--config", str(config),
                 "--out", str(run), "--seed", "11")
            _run("fingerprint", str(run / "best.ckpt"), str(smi), "--out", str(store))
            _run("downstream", str(store), str(task), "--sweep", "none", "--head-config", str(head_config),
                 "--folds", "2", "--reps", "2", "--out", str(out / backbone / "down"), "--seed", "11")
            summary["pretrain"][backbone] = _epoch_losses(run / "log.jsonl")
            summary["fingerprints"][backbone] = store_read(store).matrix().astype(np.float64).tolist()
            summary["folds"][backbone] = _fold_scores(out / backbone / "down" / "ensemble.csv")
        _run("correlate", *_correlate_inputs(root, out), "--out", str(out / "correlate.csv"))

    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in WALL_CLOCK_FILES
    }
    return digests, summary


def _correlate_inputs(root: Path, out: Path) -> tuple[str, str]:
    """``correlate``'s log glob and downstream CSV, written under ``root`` but
    not ``out``: each log is copied to ``<backbone>.jsonl``, since correlate
    would name all three ``log.jsonl`` files by their one parent, ``run``."""
    logs = root / "logs"
    logs.mkdir()
    results = root / "downstream_results.csv"
    with open(results, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "metric", "value", "higher_is_better"])
        for backbone in BACKBONES:
            shutil.copyfile(out / backbone / "run" / "log.jsonl", logs / f"{backbone}.jsonl")
            with open(out / backbone / "down" / "summary.csv", newline="") as summary:
                row = next(csv.DictReader(summary))
            writer.writerows([backbone, key, row[key], row["higher_is_better"]] for key in ("val_mean", "test_mean"))
    return str(logs / "*.jsonl"), str(results)


def _epoch_losses(log: Path) -> dict[str, list[float]]:
    """Each epoch's learning rate and train/valid values, one list per key, from ``log.jsonl``."""
    columns: dict[str, list[float]] = {}
    for line in log.read_text().splitlines():
        record = json.loads(line)
        if "epoch" not in record:
            continue
        columns.setdefault("lr", []).append(record["lr"])
        for part in ("train", "valid"):
            for key, value in record[part].items():
                columns.setdefault(f"{part}.{key}", []).append(value)
    return columns


def _fold_scores(ensemble_csv: Path) -> list[float]:
    with open(ensemble_csv, newline="") as fh:
        return [float(row["val_score"]) for row in csv.DictReader(fh)]


def write_golden(directory: Path = GOLDEN) -> None:
    """Run the pipeline in a temporary directory and rewrite the golden files."""
    with tempfile.TemporaryDirectory() as scratch:
        digests, summary = run_pipeline(Path(scratch))
    directory.mkdir(exist_ok=True)
    (directory / "digests.json").write_text(
        json.dumps({"machine": machine_facts(), "files": digests}, indent=1, sort_keys=True) + "\n"
    )
    (directory / "summary.json").write_text(json.dumps(summary, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
