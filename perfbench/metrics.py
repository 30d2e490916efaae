"""Every metric the benchmark reports, and which end-to-end metric each layer metric moves.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions; the smoke test checks that the two agree.

End-to-end metrics come from untraced runs.  ``ref_throughput`` counts a
workload's own unit of work (training molecules, stored unique molecules or
head-epochs) per run of the harness's reference kernel: the wall-clock rate,
which is printed under the names in ``NAMED_THROUGHPUT``, times the mean wall
time of the kernel run just before and just after the operation.  ``setup_s``
is scaled the same way: the median set-up time at a kernel run of
``harness.REF_NOMINAL_S`` seconds.

Layer metrics come from the traced run.  Times are self times (span duration
minus the child spans inside it), counts are totals; both are for one set-up
plus one timed operation plus its checks, each phase averaged over its traced
repetitions.  A layer that a workload never calls reads 0 there.
"""

from __future__ import annotations

END_TO_END = [
    # name, unit, better, bound (share of the parent's median it may worsen by)
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ref_throughput", "items/ref", "higher", 0.2),
]

NAMED_THROUGHPUT = {
    "pretrain": ("pretrain_mol_per_s", "mol/s"),
    "fingerprint": ("fingerprint_mol_per_s", "mol/s"),
    "downstream": ("downstream_head_epochs_per_s", "head-epochs/s"),
}

_PT = ("pretrain_mol_per_s", "pretrain")
_FP = ("fingerprint_mol_per_s", "fingerprint")
_DS = ("downstream_head_epochs_per_s", "downstream")
_PT_SETUP = ("setup_s", "pretrain")

# name, unit, better, source, key, scale, moves ((end-to-end metric, workload), ...)
# source: "self" = self time of span ``key``; "count" = counter ``key``;
# "bench" = computed by the harness under ``name``.
LAYER = [
    ("molgraph.parse_s", "s", "lower", "self", "molgraph.parse", 1, (_FP,)),
    ("molgraph.parse_calls", "count", "lower", "count", "molgraph.parse_calls", 1, (_FP,)),
    ("molgraph.parse_rejected", "count", "lower", "count", "molgraph.parse_rejected", 1, (_FP,)),
    ("molgraph.normalize_s", "s", "lower", "self", "molgraph.normalize", 1, (_FP,)),
    ("encodings.assemble_s", "s", "lower", "self", "encodings.assemble", 1, (_FP, _PT_SETUP)),
    ("encodings.assemble_calls", "count", "lower", "count", "encodings.assemble_calls", 1, (_FP, _PT_SETUP)),
    ("encodings.assemble_ms_p50", "ms", "lower", "bench", None, 1, (_FP, _PT_SETUP)),
    ("encodings.assemble_ms_p95", "ms", "lower", "bench", None, 1, (_FP, _PT_SETUP)),
    ("encodings.laplacian_s", "s", "lower", "self", "encodings.laplacian", 1, (_FP, _PT_SETUP)),
    ("encodings.random_walk_s", "s", "lower", "self", "encodings.random_walk", 1, (_FP, _PT_SETUP)),
    ("backbones.batch_graphs_s", "s", "lower", "self", "backbones.batch_graphs", 1, (_PT, _FP)),
    ("backbones.forward_s", "s", "lower", "self", "backbones.forward", 1, (_PT, _FP)),
    ("backbones.embed_s", "s", "lower", "self", "backbones.embed", 1, (_PT, _FP)),
    ("backbones.layer_s.gcn", "s", "lower", "self", "backbones.layer.gcn", 1, (_PT,)),
    ("backbones.layer_s.gine", "s", "lower", "self", "backbones.layer.gine", 1, (_PT, _FP)),
    ("backbones.layer_s.mpnnpp", "s", "lower", "self", "backbones.layer.mpnnpp", 1, (_PT,)),
    ("backbones.nodes", "count", "lower", "count", "backbones.nodes", 1, (_PT, _FP)),
    ("backbones.edges", "count", "lower", "count", "backbones.edges", 1, (_PT, _FP)),
    ("backbones.save_model_s", "s", "lower", "self", "backbones.save_model", 1, (_PT,)),
    ("backbones.save_model_mb", "MB", "lower", "count", "backbones.save_model_bytes", 1e-6, (_PT,)),
    ("backbones.load_model_s", "s", "lower", "self", "backbones.load_model", 1, (_FP,)),
    ("autodiff.backward_s", "s", "lower", "self", "autodiff.backward", 1, (_PT, _DS)),
    ("autodiff.segment_sum_s", "s", "lower", "self", "autodiff.segment_sum", 1, (_PT, _FP)),
    ("autodiff.segment_sum_calls", "count", "lower", "count", "autodiff.segment_sum_calls", 1, (_PT, _FP)),
    ("autodiff.segment_sum_rows", "count", "lower", "count", "autodiff.segment_sum_rows", 1, (_PT, _FP)),
    ("autodiff.gather_s", "s", "lower", "self", "autodiff.gather", 1, (_PT, _FP)),
    ("autodiff.matmul_s", "s", "lower", "self", "autodiff.matmul", 1, (_PT, _FP, _DS)),
    ("autodiff.matmul_gflop", "GFLOP", "lower", "count", "autodiff.matmul_flop", 1e-9, (_PT, _FP, _DS)),
    ("multitask.loss_s", "s", "lower", "self", "multitask.loss", 1, (_PT,)),
    ("multitask.head_s", "s", "lower", "self", "multitask.head", 1, (_PT,)),
    ("trainer.adam_s", "s", "lower", "self", "trainer.adam", 1, (_PT, _DS)),
    ("trainer.adam_calls", "count", "lower", "count", "trainer.adam_calls", 1, (_PT, _DS)),
    ("trainer.adam_mb", "MB", "lower", "count", "trainer.adam_bytes", 1e-6, (_PT, _DS)),
    ("trainer.evaluate_s", "s", "lower", "self", "trainer.evaluate", 1, (_PT,)),
    ("trainer.pretrain_s.gcn", "s", "lower", "self", "trainer.pretrain.gcn", 1, (_PT,)),
    ("trainer.pretrain_s.gine", "s", "lower", "self", "trainer.pretrain.gine", 1, (_PT,)),
    ("trainer.pretrain_s.mpnnpp", "s", "lower", "self", "trainer.pretrain.mpnnpp", 1, (_PT,)),
    ("fingerprints.extract_s", "s", "lower", "self", "fingerprints.extract", 1, (_FP,)),
    ("fingerprints.pool_s", "s", "lower", "self", "fingerprints.pool", 1, (_FP,)),
    ("fingerprints.store_write_s", "s", "lower", "self", "fingerprints.store_write", 1, (_FP,)),
    ("fingerprints.store_read_s", "s", "lower", "self", "fingerprints.store_read", 1, (_FP, _DS)),
    ("fingerprints.store_mb", "MB", "lower", "count", "fingerprints.store_bytes", 1e-6, (_FP,)),
    ("fingerprints.unique_frac", "fraction", "higher", "bench", None, 1, (_FP,)),
    ("downstream.kfold_ensemble_s", "s", "lower", "self", "downstream.kfold_ensemble", 1, (_DS,)),
    ("downstream.train_head_s", "s", "lower", "self", "downstream.train_head", 1, (_DS,)),
    ("downstream.train_head_calls", "count", "lower", "count", "downstream.train_head_calls", 1, (_DS,)),
    ("downstream.predict_s", "s", "lower", "self", "downstream.predict", 1, (_DS,)),
    ("downstream.metric_s", "s", "lower", "self", "downstream.metric", 1, (_DS,)),
    ("manifest.read_labels_s", "s", "lower", "self", "manifest.read_labels", 1, (_DS,)),
    ("cli.self_s", "s", "lower", "self", "cli.main", 1, (_FP, _DS)),
    ("failed_frac", "fraction", "lower", "bench", None, 1, (_PT, _FP, _DS)),
    ("trace.uncovered_s", "s", "lower", "bench", None, 1, ()),
    ("trace.uncovered_frac", "fraction", "lower", "bench", None, 1, ()),
    ("trace.overhead_frac", "fraction", "lower", "bench", None, 1, ()),
    ("trace.setup_overhead_frac", "fraction", "lower", "bench", None, 1, ()),
    ("trace.spans", "count", "lower", "bench", None, 1, ()),
    ("trace.unwrapped_tape_ops", "count", "lower", "count", "trace.unwrapped_tape_ops", 1, ()),
]

ROOT_SPANS = ("bench.setup", "bench.op", "bench.check")


def layer_values(tracer, bench: dict[str, float]) -> dict[str, float]:
    """Every layer metric, from the tracer's spans and counts and the harness's own figures."""
    out = {}
    for name, _, _, source, key, scale, _ in LAYER:
        if source == "self":
            out[name] = tracer.per_run(key)
        elif source == "count":
            out[name] = tracer.per_run(key, counts=True) * scale
        else:
            out[name] = bench[name]
    return out
