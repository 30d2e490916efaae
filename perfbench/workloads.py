"""The three workloads: set-up, one timed operation, and the checks on its outputs.

Each operation is closed-loop with one caller: the next starts when the last
returns.  Only the calls a user of ``minifp`` would make are timed; restoring
model weights and checking outputs happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
import warnings
from pathlib import Path

from minifp import backbones, cli, encodings, fingerprints, molgraph, trainer
from minifp.multitask import LOSS_FOR_KIND, LabelSet, TaskSpec

import gen

# "paper" is the benchmark; "tiny" keeps every code path at toy sizes for the smoke test.
_TINY_MODEL = {"num_layers": 2, "d_node": 16, "d_edge": 16, "d_global": 16}
PROFILES = {
    "paper": {
        # 70 molecules split 92/4/4 give 64 training molecules: two full batches of 32.
        "pretrain": {"molecules": 70, "median": 14.5, "sigma": 0.4, "cap": 40, "tail": 2,
                     "model": {}, "epochs": 1, "batch_size": 32},
        "fingerprint": {"lines": 200, "median": 15.0, "sigma": 0.45, "cap": 100, "tail": 3,
                        "duplicate": 0.10, "malformed": 0.01, "model": {}},
        "downstream": {"n": 600, "dim": 528, "empty": 0.10, "folds": 5, "reps": 2,
                       "hidden": 1024, "layers": 3, "dropout": 0.1, "batch_size": 128, "epochs": 2},
    },
    "tiny": {
        "pretrain": {"molecules": 12, "median": 8.0, "sigma": 0.3, "cap": 14, "tail": 1,
                     "model": _TINY_MODEL, "epochs": 1, "batch_size": 32},
        "fingerprint": {"lines": 40, "median": 8.0, "sigma": 0.3, "cap": 20, "tail": 1,
                        "duplicate": 0.10, "malformed": 0.05, "model": _TINY_MODEL},
        "downstream": {"n": 200, "dim": 32, "empty": 0.10, "folds": 5, "reps": 2,
                       "hidden": 64, "layers": 3, "dropout": 0.1, "batch_size": 32, "epochs": 3},
    },
}

# Share of filled label cells per task group; the rest are masked out.
LABEL_PRESENT = {"G25": 0.8, "PCBA": 0.3, "N4": 0.5}


def span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _same_params(a: backbones.ModelState, b: backbones.ModelState) -> bool:
    if list(a.params) != list(b.params):
        return False
    return all(
        x.value.dtype == y.value.dtype and x.value.shape == y.value.shape and x.value.tobytes() == y.value.tobytes()
        for x, y in zip(a.params.values(), b.params.values())
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``minifp.cli.main`` in-process, with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    name = ""

    def __init__(self, params: dict, seed: int, workdir: Path):
        self.p = params
        self.seed = seed
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer) -> tuple[float, float, object]:
        """One timed operation: (units of work, timed seconds, outputs to check)."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[list[str], str]:
        """(problems found, digest of the outputs)."""
        raise NotImplementedError

    def properties(self) -> dict[str, float]:
        return {}

    unique_frac = 0.0
    warmup_ops = 0  # operations run and checked before timing starts


class Pretrain(Workload):
    """``trainer.pretrain`` for gcn, gine and mpnnpp in turn, each from its set-up weights."""

    name = "pretrain"
    # The first round from fresh weights runs ~40% slower while the process heap grows
    # to hold the optimizer moments and tapes; timing starts after it.
    warmup_ops = 1

    def setup(self) -> None:
        p = self.p
        self.models = self.dataset = None  # release the previous set-up before building the next
        smiles = gen.smiles_set(self.seed, p["molecules"], p["median"], p["sigma"], p["cap"], p["tail"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graphs = [molgraph.parse_smiles(s) for s in smiles.unique]
        configs = {b: backbones.default_config(b, seed=self.seed, **p["model"]) for b in backbones.BACKBONES}
        cfg = configs["gine"]
        features = [encodings.assemble(g, cfg.k_pe, cfg.rw_steps, self.seed) for g in graphs]
        self.tasks, graph_labels, node_labels = [], {}, {}
        self.present = {}
        for name, (level, kind, group, values, mask) in gen.pretrain_labels(self.seed, graphs, LABEL_PRESENT).items():
            self.tasks.append(TaskSpec(name, level, kind, LOSS_FOR_KIND[kind], values.shape[1], group))
            (graph_labels if level == "graph" else node_labels)[name] = LabelSet(values, mask)
            self.present[group] = float(mask.mean())
        self.dataset = trainer.PretrainDataset(graphs, features, graph_labels, node_labels)
        self.config = trainer.TrainConfig(epochs=p["epochs"], warmup_epochs=0, batch_size=p["batch_size"], seed=self.seed)
        self.models = {}
        for backbone, config in configs.items():
            model = backbones.build_model(config)
            trainer.ensure_heads(model, self.tasks)
            self.models[backbone] = (model, [param.value.copy() for param in model.parameters()])
        train, valid, test = trainer.split_dataset(list(range(len(graphs))), trainer.SplitSpec(seed=self.seed))
        self.split = (len(train), len(valid), len(test))
        self.last_losses: dict[str, float] = {}

    def run(self, tracer):
        outputs, seconds = [], 0.0
        for backbone, (model, weights) in self.models.items():
            for param, value in zip(model.parameters(), weights):
                param.value[...] = value
            out = self.dir / backbone
            with span(tracer, f"trainer.pretrain.{backbone}"):
                started = time.perf_counter()
                log = trainer.pretrain(self.dataset, model, self.tasks, self.config, out_dir=out)
                seconds += time.perf_counter() - started
            outputs.append((backbone, model, log, out))
        return self.split[0] * self.config.epochs * len(outputs), seconds, outputs

    def check(self, outputs):
        problems = []
        digest = hashlib.sha256()
        for backbone, model, log, out in outputs:
            losses = [v for r in log.records for part in (r.train, r.valid) for v in part.values()]
            if not all(math.isfinite(v) for v in losses):
                problems.append(f"{backbone}: non-finite loss in the log")
            # One epoch, so the best checkpoint must hold the weights the model ends with.
            if log.best_epoch != self.config.epochs:
                problems.append(f"{backbone}: best epoch {log.best_epoch}, expected {self.config.epochs}")
            elif not _same_params(backbones.load_model(out / "best.ckpt"), model):
                problems.append(f"{backbone}: best.ckpt does not reload bit-equal")
            self.last_losses[backbone] = log.records[-1].train["total"] if log.records else math.nan
            digest.update((out / "log.jsonl").read_bytes())
        return problems, digest.hexdigest()

    def properties(self):
        atoms = [g.num_atoms for g in self.dataset.graphs]
        out = {
            "molecules": len(atoms),
            "mean_heavy_atoms": sum(atoms) / len(atoms),
            "max_heavy_atoms": max(atoms),
            "mean_bonds": sum(g.num_bonds for g in self.dataset.graphs) / len(atoms),
            "train_molecules": self.split[0],
            "valid_molecules": self.split[1],
            "test_molecules": self.split[2],
        }
        for group, present in sorted(self.present.items()):
            out[f"empty_label_frac.{group}"] = 1.0 - present
        for backbone, (model, _) in self.models.items():
            out[f"parameters.{backbone}"] = backbones.count_parameters(model)
        for backbone, loss in self.last_losses.items():
            out[f"train_loss.{backbone}"] = loss
        return out


class Fingerprint(Workload):
    """``minifp fingerprint`` over a seeded SMILES file; the store is then read back."""

    name = "fingerprint"

    def setup(self) -> None:
        p = self.p
        self.smiles = gen.smiles_set(self.seed, p["lines"], p["median"], p["sigma"], p["cap"], p["tail"],
                                     p["duplicate"], p["malformed"])
        self.molecules = self.dir / "molecules.smi"
        self.molecules.write_text("\n".join(self.smiles.lines) + "\n", encoding="utf-8")
        self.checkpoint = self.dir / "gine.ckpt"
        model = backbones.build_model(backbones.default_config("gine", seed=self.seed, **p["model"]))
        backbones.save_model(model, self.checkpoint)

    def run(self, tracer):
        out = self.dir / "out.mfps"
        captured = []
        write = cli.store_write

        def capture(store, path):
            captured.append(store)
            return write(store, path)

        cli.store_write = capture
        try:
            started = time.perf_counter()
            code, text = _run_cli(["fingerprint", str(self.checkpoint), str(self.molecules), "--out", str(out)])
            seconds = time.perf_counter() - started
        finally:
            cli.store_write = write
        # Read back as a user of the store would: part of the operation, not of its timing.
        stored = fingerprints.store_read(out) if code == 0 else None
        return (len(captured[0]) if captured else 0), seconds, (code, text, captured, stored, out)

    def check(self, outputs):
        code, text, captured, stored, out = outputs
        if code != 0 or len(captured) != 1:
            return [f"fingerprint exited {code}: {text.strip()}"], ""
        problems = []
        store = captured[0]
        self.unique_frac = len(store) / len(self.smiles.lines)
        if stored.ids() != store.ids() or stored.matrix().tobytes() != store.matrix().tobytes():
            problems.append("the MFPS file does not read back bit-equal to the extracted store")
        if store.ids() != self.smiles.unique:
            problems.append("the store does not hold exactly the unique valid molecules")
        failures_path = Path(str(out) + ".failures.csv")
        rejected = []
        if failures_path.exists():
            with open(failures_path, newline="", encoding="utf-8") as fh:
                rejected = [row["molecule"] for row in csv.DictReader(fh)]
        if rejected != [line.strip() for line in self.smiles.malformed]:
            problems.append(f"rejected lines {rejected} are not the malformed lines")
        digest = hashlib.sha256(out.read_bytes())
        digest.update(Path(str(out) + ".csv").read_bytes())
        if failures_path.exists():
            digest.update(failures_path.read_bytes())
        return problems, digest.hexdigest()

    def properties(self):
        s = self.smiles
        return {
            "lines": len(s.lines),
            "unique_molecules": len(s.unique),
            "mean_heavy_atoms": sum(s.sizes) / len(s.sizes),
            "max_heavy_atoms": max(s.sizes),
            "duplicate_frac": s.duplicate_frac,
            "malformed_frac": s.malformed_frac,
        }


class Downstream(Workload):
    """``minifp downstream --sweep none`` on a synthetic store with a planted linear signal."""

    name = "downstream"

    def setup(self) -> None:
        p = self.p
        self.data = gen.downstream_data(self.seed, p["n"], p["dim"], p["empty"])
        store = fingerprints.FingerprintStore(p["dim"])
        for molecule_id, vector in zip(self.data.ids, self.data.vectors):
            store.add(molecule_id, vector)
        self.store = self.dir / "fingerprints.mfps"
        fingerprints.store_write(store, self.store)
        with open(self.dir / "labels.csv", "w", encoding="utf-8") as fh:
            fh.write("mol_id,y\n")
            for molecule_id, label, present in zip(self.data.ids, self.data.labels, self.data.present):
                fh.write(f"{molecule_id},{label if present else ''}\n")
        self.task = self.dir / "task.json"
        self.task.write_text(json.dumps({
            "labels_csv": "labels.csv",
            "id_column": "mol_id",
            "task": {"name": "planted", "kind": "binary", "metric": "auroc", "columns": ["y"]},
        }), encoding="utf-8")
        self.head = self.dir / "head.cfg"
        self.head.write_text(
            f"d_node = {p['hidden']}\nnum_layers = {p['layers']}\ndropout = {p['dropout']}\n"
            f"batch_size = {p['batch_size']}\nepochs = {p['epochs']}\npeak_lr = 0.0003\n"
            "warmup_epochs = 0\nschedule = constant\n",
            encoding="utf-8",
        )

    def run(self, tracer):
        p = self.p
        out = self.dir / "out"
        started = time.perf_counter()
        code, text = _run_cli([
            "downstream", str(self.store), str(self.task), "--sweep", "none", "--head-config", str(self.head),
            "--folds", str(p["folds"]), "--reps", str(p["reps"]), "--out", str(out), "--seed", str(self.seed),
        ])
        seconds = time.perf_counter() - started
        return p["folds"] * p["reps"] * p["epochs"], seconds, (code, text, out)

    def check(self, outputs):
        code, text, out = outputs
        if code != 0:
            return [f"downstream exited {code}: {text.strip()}"], ""
        problems = []
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            summary = next(csv.DictReader(fh))
        test_auroc = float(summary["test_mean"])
        if not test_auroc > 0.5:
            problems.append(f"ensemble test AUROC {test_auroc} is not above chance")
        with open(out / "ensemble.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.p["folds"] * self.p["reps"]:
            problems.append(f"{len(rows)} fold scores, expected {self.p['folds'] * self.p['reps']}")
        self.test_auroc = test_auroc
        digest = hashlib.sha256()
        for name in ("summary.csv", "ensemble.csv", "chosen_config.json"):
            digest.update((out / name).read_bytes())
        return problems, digest.hexdigest()

    def properties(self):
        p, d = self.p, self.data
        hidden, layers = p["hidden"], p["layers"]
        return {
            "molecules": len(d.ids),
            "dimension": p["dim"],
            "empty_label_frac": 1.0 - float(d.present.mean()),
            "positive_frac": float(d.labels[d.present].mean()),
            "head_parameters": p["dim"] * hidden + hidden + (layers - 1) * (hidden * hidden + hidden) + hidden + 1,
            "head_epochs_per_op": p["folds"] * p["reps"] * p["epochs"],
            "test_auroc": getattr(self, "test_auroc", math.nan),
        }


WORKLOADS = {w.name: w for w in (Pretrain, Fingerprint, Downstream)}
