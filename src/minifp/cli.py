"""Command-line entry point orchestrating the full pipeline deterministically.

Commands: featurize, pretrain, fingerprint, downstream, correlate.  Every
command is bit-reproducible end to end: output files are byte-identical
across reruns except wall-clock timings, which are confined to timing files.
pretrain and downstream draw from a master seed, ``--seed`` (for pretrain
also the config's ``seed``); the MINIFP_SEED environment variable overrides
it.  featurize, fingerprint and correlate draw nothing at random.

Exit codes: 0 success (including partial featurization failures), 2
usage, manifest and data errors (any ``inputs.InputError``), 3 unrecoverable
IO (``OSError``), 4 a non-finite training loss (``trainer.NaNLossError``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob as globlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import worker_count
from .backbones import (
    BACKBONES,
    ModelConfig,
    build_model,
    count_parameters,
    default_config,
    load_model,
)
from .downstream import (
    SWEEP_PRESETS,
    HeadConfig,
    TaskData,
    TooFewRuns,
    check_ensemble_counts,
    correlation_analysis,
    holdout_split,
    kfold_ensemble,
    sweep,
)
from .encodings import assemble, feature_layout
from .fingerprints import extract_fingerprints, store_read, store_write, store_write_csv
from .inputs import InputError
from .manifest import (
    MAX_HEAVY,
    SPLIT_KEYS,
    ManifestError,
    build_pretrain_dataset,
    format_config,
    label_cells,
    load_config_file,
    load_downstream_manifest,
    load_manifest,
    read_csv,
    read_downstream_labels,
    read_id_list,
    read_molecules,
    read_text,
)
from .multitask import LabelSet, LossWeights
from .seeding import seeded_split
from .trainer import PRETRAIN_FILES, NaNLossError, SplitSpec, TrainConfig, pretrain

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _resolve_seed(args) -> int | None:
    """The master seed from MINIFP_SEED, else from ``--seed``; None if neither sets it."""
    env = os.environ.get("MINIFP_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise ManifestError(f"MINIFP_SEED must be an integer, got {env!r}") from None


def _fields(cls, keys: dict) -> dict:
    """The entries of ``keys`` that name fields of the dataclass ``cls``."""
    return {f.name: keys[f.name] for f in dataclasses.fields(cls) if f.name in keys}


def _write_text(path: Path, text: str) -> str:
    """Write ``text`` to ``path``; return the file's name, for files.json, as every writer here does."""
    path.write_text(text, encoding="utf-8")
    return path.name


def _write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.name


def _write_json(path: Path, value) -> str:
    return _write_text(path, json.dumps(value, indent=2, sort_keys=True) + "\n")


def _write_failures(path: Path, failures) -> str:
    return _write_csv(path, ["row", "smiles", "error"], [(f.row_index, f.smiles, f.error) for f in failures])


def _write_files_manifest(out_dir: Path, written: list[str]) -> None:
    """``files.json``: the sorted names of the files a command wrote into ``out_dir``, its own included."""
    path = out_dir / "files.json"
    _write_json(path, {"files": sorted([*written, path.name])})


# -- featurize -------------------------------------------------------------------


def cmd_featurize(args) -> int:
    manifest = load_manifest(args.manifest)
    keys = load_config_file(args.config) if args.config else {}
    encoding = ModelConfig(**{name: keys[name] for name in ("k_pe", "rw_steps") if name in keys})
    # A bad encoding size is a usage error, caught before any molecule is read.
    try:
        encoding.validate()
    except ValueError as exc:
        raise ManifestError(f"{args.config}: {exc}") from exc

    molecules, failures = read_molecules(manifest)
    # Every parsed molecule is featurized as a check; the features are not kept.
    for mol in molecules:
        assemble(mol.graph, encoding.k_pe, encoding.rw_steps)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [
        _write_json(out_dir / "layout.json", feature_layout(encoding.k_pe, encoding.rw_steps)),
        _write_failures(out_dir / "failures.csv", failures),
    ]
    _write_files_manifest(out_dir, written)
    print(f"featurized {len(molecules)} molecules, {len(failures)} failures -> {out_dir}")
    return EXIT_OK


# -- pretrain --------------------------------------------------------------------


def cmd_pretrain(args) -> int:
    manifest = load_manifest(args.manifest)
    keys = load_config_file(args.config) if args.config else {}
    backbone = keys.pop("backbone", args.backbone)
    if backbone != args.backbone:
        raise ManifestError(f"{args.config}: backbone = {backbone} conflicts with --backbone {args.backbone}")
    seed = _resolve_seed(args)
    if seed is not None:
        keys["seed"] = seed
    max_heavy = keys.get("max_heavy", MAX_HEAVY)
    # A bad config value is a usage error, caught before any output is written.
    try:
        model_config = default_config(args.backbone, **_fields(ModelConfig, keys))
        train_config = TrainConfig(**_fields(TrainConfig, keys))
        train_config.validate()
        fractions = tuple(keys.get(key, value) for key, value in zip(SPLIT_KEYS, SplitSpec.fractions))
        split = SplitSpec(fractions=fractions, seed=train_config.seed)
        split.validate()
        weights = LossWeights(**_fields(LossWeights, keys))
    except ValueError as exc:
        raise ManifestError(f"{args.config}: {exc}") from exc

    dataset, tasks, failures, _ = build_pretrain_dataset(manifest, model_config.k_pe, model_config.rw_steps, max_heavy)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_config = {
        **dataclasses.asdict(model_config),
        **dataclasses.asdict(train_config),
        **dataclasses.asdict(weights),
        **dict(zip(SPLIT_KEYS, split.fractions)),
        "max_heavy": max_heavy,
    }
    written = [
        _write_text(out_dir / "run_config.txt", format_config(run_config)),
        _write_failures(out_dir / "failures.csv", failures),
    ]

    model = build_model(model_config)
    params = count_parameters(model)
    print(f"{args.backbone}: {params} parameters, {len(dataset)} molecules, {len(tasks)} tasks")

    log = pretrain(dataset, model, tasks, train_config, out_dir=out_dir, split=split, weights=weights)
    written += [*PRETRAIN_FILES, _write_text(out_dir / "param_count.txt", f"{params}\n")]
    _write_files_manifest(out_dir, written)
    print(f"best epoch {log.best_epoch} (valid total {log.best_valid:.6f}) -> {out_dir}")
    return EXIT_OK


# -- fingerprint -----------------------------------------------------------------


def _read_molecule_list(path: Path, smiles_col: str, id_col: str | None):
    """SMILES, or (id, SMILES) pairs with ``id_col``, from a CSV or a list file.

    No id may repeat, which is checked before any model work."""
    if path.suffix.lower() != ".csv":
        molecules = read_id_list(path)
    else:
        rows = read_csv(path, [smiles_col, id_col] if id_col else [smiles_col])
        rows = [row for row in rows if row[smiles_col].strip()]
        molecules = [(row[id_col].strip(), row[smiles_col].strip()) if id_col else row[smiles_col].strip()
                     for row in rows]
    seen: set[str] = set()
    # An empty id falls back to the normalized SMILES, which extract_fingerprints checks.
    for molecule_id in (item[0] for item in molecules if isinstance(item, tuple) and item[0]):
        if molecule_id in seen:
            raise ManifestError(f"{path}: molecule id {molecule_id!r} repeats")
        seen.add(molecule_id)
    return molecules


def cmd_fingerprint(args) -> int:
    model = load_model(args.checkpoint)
    molecules = _read_molecule_list(Path(args.molecules), args.smiles_col, args.id_col)
    store, report = extract_fingerprints(model, molecules)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    store_write(store, out)
    store_write_csv(store, str(out) + ".csv")
    if report.failures:
        _write_csv(Path(f"{out}.failures.csv"), ["molecule", "error"], report.failures)
    print(f"{len(store)} fingerprints (dim {store.dimension}), {len(report.failures)} failures -> {out}")
    return EXIT_OK


# -- downstream ------------------------------------------------------------------


#: The run-config keys a head config may set, and the ``HeadConfig`` field each sets.
HEAD_CONFIG_KEYS = {
    "epochs": "epochs",
    "peak_lr": "learning_rate",
    "warmup_epochs": "warmup_epochs",
    "schedule": "schedule",
    "batch_size": "batch_size",
    "dropout": "dropout",
    "d_node": "hidden_dim",
    "num_layers": "num_layers",
}


def _head_config_from_file(path) -> HeadConfig:
    values = load_config_file(path)
    for key in values:
        if key not in HEAD_CONFIG_KEYS:
            raise ManifestError(f"{path}: {key!r} is not a head-config key (those are {', '.join(HEAD_CONFIG_KEYS)})")
    config = HeadConfig(**{HEAD_CONFIG_KEYS[key]: value for key, value in values.items()})
    config.validate()
    return config


def cmd_downstream(args) -> int:
    if args.head_config and args.sweep != "none":
        raise InputError(f"--head-config needs --sweep none; --sweep {args.sweep} picks the head config itself")
    store = store_read(args.store)
    task = load_downstream_manifest(args.task_manifest)
    ids, values, mask = read_downstream_labels(task)
    data = TaskData(ids=ids, labels=LabelSet(values, mask), kind=task.kind)
    seed = _resolve_seed(args)

    row_of = {molecule_id: i for i, molecule_id in enumerate(ids)}
    if task.splits:
        train_ids = read_id_list(task.splits["train"])
        test_ids = read_id_list(task.splits["test"])
        missing = [i for i in train_ids + test_ids if i not in row_of]
        if missing:
            raise ManifestError(f"split ids absent from labels: {missing[:10]}")
        train_rows = np.array([row_of[i] for i in train_ids], dtype=np.int64)
        test_rows = np.array([row_of[i] for i in test_ids], dtype=np.int64)
    else:
        train_rows, test_rows = holdout_split(len(ids), seed)
    check_ensemble_counts(len(train_rows), args.folds, args.reps)  # before the sweep trains anything

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sweep_rows = None
    if args.sweep != "none":
        inner_valid = max(1, len(train_rows) // 10)
        valid_part, train_part = seeded_split(len(train_rows), seed, "sweep-split", [inner_valid])
        # Split files list ids in any order, so the picked rows are sorted again.
        sweep_valid, sweep_train = np.sort(train_rows[valid_part]), np.sort(train_rows[train_part])
        space = SWEEP_PRESETS[args.sweep]()
        best_config, sweep_rows = sweep(space, store, data, seed, sweep_train, sweep_valid)
    elif args.head_config:
        best_config = _head_config_from_file(args.head_config)
    else:
        best_config = HeadConfig()

    result = kfold_ensemble(
        store,
        data,
        best_config,
        num_folds=args.folds,
        num_reps=args.reps,
        metric=task.metric,
        train_rows=train_rows,
        test_rows=test_rows,
        seed=seed,
    )
    # Every output is written only now, so a run that fails above leaves none.
    written = []
    timing = []  # wall-clock lines, kept out of every CSV
    if sweep_rows is not None:
        written.append(_write_csv(
            out_dir / "sweep_table.csv",
            ["hidden_dim", "num_layers", "dropout", "skip_connection",
             "learning_rate", "epochs", "warmup_epochs", "schedule", "val_loss", "best_epoch"],
            [[row.config.hidden_dim, row.config.num_layers, row.config.dropout, row.config.skip_connection,
              repr(row.config.learning_rate), row.config.epochs, row.config.warmup_epochs, row.config.schedule,
              repr(row.val_loss), row.best_epoch] for row in sweep_rows],
        ))
        timing.append(f"sweep workers: {worker_count(len(sweep_rows))}\n")
        timing += [f"sweep row {i}: {row.seconds:.3f}s\n" for i, row in enumerate(sweep_rows)]
    written.append(_write_json(out_dir / "chosen_config.json", best_config.__dict__))
    written.append(_write_csv(
        out_dir / "ensemble.csv",
        ["repetition", "fold", "val_score"],
        [[rep_index, fold_index, repr(score)]
         for rep_index, rep in enumerate(result.repetitions) for fold_index, score in enumerate(rep.fold_val_scores)],
    ))
    summary = {**result.summary(), "task": task.task_name, "higher_is_better": result.higher_is_better}
    keys = ["task", "metric", "higher_is_better", "num_folds", "num_reps",
            "val_mean", "val_std", "test_mean", "test_std"]
    cells = [repr(summary[k]) if isinstance(summary[k], float) else summary[k] for k in keys]
    written.append(_write_csv(out_dir / "summary.csv", keys, [cells]))
    timing.append(f"ensemble workers: {worker_count(args.folds * args.reps)}\n")
    for rep_index, rep in enumerate(result.repetitions):
        for fold_index, seconds in enumerate(rep.fold_seconds):
            timing.append(f"ensemble repetition {rep_index} fold {fold_index}: {seconds:.3f}s\n")
    written.append(_write_text(out_dir / "timing.txt", "".join(timing)))
    _write_files_manifest(out_dir, written)
    print(
        f"{task.task_name} [{task.metric}]: test {result.test_mean:.4f} +/- {result.test_std:.4f} "
        f"(val {result.val_mean:.4f} +/- {result.val_std:.4f}) -> {out_dir}"
    )
    return EXIT_OK


# -- correlate -------------------------------------------------------------------


def _pretrain_metrics_from_log(path: Path) -> dict[str, float]:
    """Per-group validation losses at the best epoch and the final epoch."""
    records = []
    best = None
    for number, line in enumerate(read_text(path).splitlines(), start=1):
        try:
            entry = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ManifestError(f"{path}: line {number}: not valid JSON: {exc}") from exc
        entry = entry if type(entry) is dict else {}
        valid = entry.get("valid")
        if type(entry.get("best_epoch")) is int:
            best = entry["best_epoch"]
        elif type(valid) is dict and all(type(value) in (int, float) for value in valid.values()):
            records.append(valid)
        else:
            raise ManifestError(f"{path}: line {number}: neither a best-epoch record nor a 'valid' object of numbers")
    if not records:
        raise ManifestError(f"{path}: empty training log")
    final = records[-1]
    best_record = records[best - 1] if best and 1 <= best <= len(records) else final
    return {f"valid/{group}/{tag}": float(value) for tag, record in (("best", best_record), ("final", final))
            for group, value in record.items()}


def cmd_correlate(args) -> int:
    log_paths = sorted(globlib.glob(args.pretrain_logs))
    runs = {}
    for raw in log_paths:
        path = Path(raw)
        run_name = path.parent.name if path.name == "log.jsonl" else path.stem
        runs[run_name] = _pretrain_metrics_from_log(path)

    downstream: dict[str, dict[str, float]] = {}
    signs: dict[str, int] = {}
    rows = read_csv(args.downstream_results, ["run", "metric", "value", "higher_is_better"])
    values, present = label_cells(args.downstream_results, enumerate(rows), ["value"])
    for row, value, reported in zip(rows, values[:, 0], present[:, 0]):
        metric = row["metric"].strip()
        if reported:  # an empty value leaves the metric missing from this run
            downstream.setdefault(row["run"].strip(), {})[metric] = float(value)
        signs[metric] = 1 if row["higher_is_better"].strip().lower() in ("true", "1", "yes") else -1

    paired = sorted(set(runs) & set(downstream))
    if len(paired) < 3:
        raise TooFewRuns(f"need >= 3 paired runs, got {len(paired)}")

    pretrain_names = sorted({name for run in paired for name in runs[run]})
    downstream_names = sorted({name for run in paired for name in downstream[run]})
    # A metric missing from a run is NaN; the table correlates the runs that have it.
    pre = np.array([[runs[run].get(name, np.nan) for name in pretrain_names] for run in paired])
    down = np.array([[downstream[run].get(name, np.nan) for name in downstream_names] for run in paired])

    # Logged pre-training metrics are validation losses (lower better) except
    # the per-task AUROC entries.
    pretrain_signs = [1 if name.split("/")[1].startswith("auroc") else -1 for name in pretrain_names]
    table = correlation_analysis(
        pre,
        down,
        pretrain_signs=pretrain_signs,
        downstream_signs=[signs[name] for name in downstream_names],
        pretrain_names=pretrain_names,
        downstream_names=downstream_names,
    )
    out = Path(args.out)
    _write_csv(
        out,
        ["pretrain_metric", "downstream_metric", "signed_rho", "p_value", "significant"],
        [[row_name, col_name, repr(float(table.values[i, j])), repr(float(table.p_values[i, j])),
          bool(table.significant[i, j])]
         for i, row_name in enumerate(table.row_names) for j, col_name in enumerate(table.col_names)],
    )
    print(f"correlated {len(paired)} runs: {len(pretrain_names)}x{len(downstream_names)} table -> {out}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minifp",
        description="Molecular fingerprinting pipeline: featurize, pre-train, fingerprint, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="featurize a molecule manifest; write its layout and parse failures")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("pretrain", help="multi-task pre-training of one backbone")
    p.add_argument("manifest")
    p.add_argument("--backbone", choices=BACKBONES, required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("fingerprint", help="extract fingerprints, the graph readout of a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("molecules", help="CSV (with --smiles-col) or one SMILES per line")
    p.add_argument("--out", required=True)
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--id-col")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("downstream", help="sweep and fold-ensemble a task head on fingerprints")
    p.add_argument("store")
    p.add_argument("task_manifest")
    p.add_argument("--sweep", choices=("config1", "config2", "none"), default="config1")
    p.add_argument("--head-config", help="flat head config file; needs --sweep none")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_downstream)

    p = sub.add_parser("correlate", help="signed correlation table between runs")
    p.add_argument("pretrain_logs", help="glob of pretrain log.jsonl files")
    p.add_argument("downstream_results", help="CSV: run, metric, value, higher_is_better")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NaNLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
