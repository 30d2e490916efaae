"""Which ``minifp`` functions the traced run wraps, under which span names.

Every entry names the modules where callers look the function up: a function
imported by name into another module is patched there as well, otherwise calls
through that import would escape the trace.
"""

from __future__ import annotations

import os

from minifp import autodiff, backbones, cli, downstream, encodings, fingerprints, manifest, molgraph, trainer
from minifp.molgraph import SmilesError

from spans import Tracer


def _file_bytes(path) -> int:
    return sum(os.path.getsize(p) for p in (str(path), str(path) + ".json") if os.path.exists(p))


def install(tracer: Tracer) -> None:
    """Patch every traced function; ``tracer.unpatch()`` restores them."""
    t = tracer

    def parse_failed(exc):
        t.count("molgraph.parse_calls")
        if isinstance(exc, SmilesError):
            t.count("molgraph.parse_rejected")

    t.patch([molgraph, fingerprints, manifest], "parse_smiles", "molgraph.parse",
            after=lambda a, k, r: t.count("molgraph.parse_calls"), failed=parse_failed)
    t.patch([molgraph, fingerprints, manifest], "normalize_smiles", "molgraph.normalize")

    t.patch([encodings, fingerprints, manifest, cli], "assemble", "encodings.assemble",
            after=lambda a, k, r: t.count("encodings.assemble_calls"))
    t.patch([encodings], "laplacian_encoding", "encodings.laplacian")
    t.patch([encodings], "random_walk_encoding", "encodings.random_walk")

    def batched(a, k, batch):
        t.count("backbones.nodes", batch.num_nodes)
        t.count("backbones.edges", batch.num_edges)

    t.patch([backbones, trainer, fingerprints], "batch_graphs", "backbones.batch_graphs", after=batched)
    t.patch([backbones, trainer, fingerprints], "forward", "backbones.forward")
    t.patch([backbones], "embed_inputs", "backbones.embed")
    for kind in backbones.BACKBONES:
        t.patch([backbones], f"{kind}_layer", f"backbones.layer.{kind}")
    t.patch([backbones, trainer], "save_model", "backbones.save_model",
            after=lambda a, k, r: t.count("backbones.save_model_bytes", _file_bytes(a[1])))
    t.patch([backbones, cli], "load_model", "backbones.load_model")

    def matmul_flop(args):
        (m, k), n = args[0].data.shape, args[1].data.shape[1]
        return 2.0 * m * k * n

    t.patch([autodiff.Tape], "matmul", wrapper=t.wrap_tape_op("autodiff.matmul", flops=matmul_flop))
    t.patch([autodiff.Tape], "segment_sum",
            wrapper=t.wrap_tape_op("autodiff.segment_sum", rows=lambda args: args[0].data.shape[0]))
    t.patch([autodiff.Tape], "gather", wrapper=t.wrap_tape_op("autodiff.gather"))
    t.patch([autodiff.Tape], "backward", "autodiff.backward")

    t.patch([trainer], "task_loss", "multitask.loss")
    t.patch([trainer], "combined_loss", "multitask.loss")
    for loss in ("bce_loss", "mae_loss", "hce_loss"):
        t.patch([downstream], loss, "multitask.loss")
    t.patch([trainer], "head_input", "multitask.head")
    t.patch([trainer], "task_head_forward", "multitask.head")

    def adam_counted(a, k, r):
        t.count("trainer.adam_calls")
        # Adam reads value, grad, m and v of every parameter.
        t.count("trainer.adam_bytes", sum(4 * p.value.nbytes for p in a[0]))

    t.patch([trainer, downstream], "adam_step", "trainer.adam", after=adam_counted)
    t.patch([trainer], "evaluate", "trainer.evaluate")

    t.patch([fingerprints, cli], "extract_fingerprints", "fingerprints.extract")
    t.patch([fingerprints], "pool", "fingerprints.pool")
    t.patch([fingerprints, cli], "store_write", "fingerprints.store_write",
            after=lambda a, k, r: t.count("fingerprints.store_bytes", os.path.getsize(a[1])))
    t.patch([fingerprints, cli], "store_read", "fingerprints.store_read")

    t.patch([downstream, cli], "kfold_ensemble", "downstream.kfold_ensemble")
    t.patch([downstream], "train_head", "downstream.train_head",
            after=lambda a, k, r: t.count("downstream.train_head_calls"))
    t.patch([downstream.TrainedHead], "predict", "downstream.predict")
    t.patch([downstream], "compute_metric", "downstream.metric")

    for name in ("load_downstream_manifest", "read_downstream_labels", "read_id_list"):
        t.patch([manifest, cli], name, "manifest.read_labels")

    t.patch([cli], "main", "cli.main")
