"""Run one workload: repeated set-ups, closed-loop timed operations, checks, report.

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced runs
(``--trace 1``) alternate untraced and traced set-ups and operations in one
process, report every layer metric from the traced ones, and the tracing
overhead as the traced median against the untraced median.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import instrument
import metrics
from spans import Tracer
from workloads import PROFILES, WORKLOADS, span

# Set up at least five times, and until set-ups and their reference timings
# fill a thirtieth of the time budget, so that a quick set-up is repeated often
# enough for a steady median (setup_s).
MIN_SETUPS, SETUP_SHARE = 5, 1 / 30
# The reference kernel's run time on the machine the benchmark was defined on:
# setup_s is set-up seconds at this reference speed.
REF_NOMINAL_S = 0.2


class Reference:
    """A fixed kernel timed before and after every operation.

    The speed of the virtual machine this benchmark was defined on drifts by up
    to ±20% from one minute to the next.  Scaling an operation's rate by this
    kernel's time, measured around it, cancels much of that drift:
    ``ref_throughput`` is work done per run of this kernel, and ``setup_s`` is
    set-up time scaled to a kernel run of ``REF_NOMINAL_S``.  Its mix follows the
    workloads: about a fifth two-thread BLAS products, the rest single-thread
    sorting and scatter-adds and interpreted Python.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((128, 528)).astype(np.float32)
        self.w0 = rng.standard_normal((528, 1024)).astype(np.float32)
        self.w1 = rng.standard_normal((1024, 1024)).astype(np.float32)
        self.rows = rng.standard_normal((4096, 64)).astype(np.float32)
        self.segments = rng.integers(0, 512, 4096)

    def seconds(self) -> float:
        started = time.perf_counter()
        for _ in range(3):
            h = np.maximum(self.x @ self.w0, 0) @ self.w1
            self.w1 * 0.9 + (h.T @ h) * 0.1
        for _ in range(3):
            order = np.lexsort(self.rows.T[::-1])
            np.add.at(np.zeros((512, 64), np.float32), self.segments, self.rows[order])
        total = 0.0
        for i in range(800_000):
            total += i * 0.5
        return time.perf_counter() - started


@dataclass
class Operations:
    """What the timed loop saw: per timed operation (index, traced, rate, reference seconds)."""

    timed: list[tuple[int, bool, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)

    def rates(self, traced: bool, first: int = 0) -> list[float]:
        return [rate for k, t, rate, _ in self.timed if t == traced and k >= first]


def _blas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str, root: Path) -> dict:
    workdir = root / ".perfbench" / f"run-{os.getpid()}"
    try:
        return _measure(workload, seed, seconds, trace, size, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(name: str, seed: int, seconds: float, trace: bool, size: str, root: Path, workdir: Path) -> dict:
    wl = WORKLOADS[name](PROFILES[size][name], seed, workdir)
    tracer = Tracer() if trace else None
    reference = Reference()
    setups = _set_up(wl, tracer, seconds, reference)
    setup_times = {traced: [wall for wall, _ in pairs] for traced, pairs in setups.items()}
    ops = _operate(wl, tracer, seconds, reference)

    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    for key, value in wl.properties().items():
        print(f"property {name}.{key} {value}")
    print(f"digest {name} seed={seed} {ops.digests[0] if ops.digests else '-'}")
    named, unit = metrics.NAMED_THROUGHPUT[name]
    print(f"metric {named} {_median(ops.rates(False))} {unit}")
    print(f"metric reference_s {_median([ref for _, _, _, ref in ops.timed])} s")
    print(f"metric setup_wall_s {_median(setup_times[False])} s")
    print(f"metric failed_frac {ops.failed / ops.attempted} fraction ({ops.failed} of {ops.attempted} operations)")

    if not trace:
        values = {
            "setup_s": _median([wall * REF_NOMINAL_S / ref for wall, ref in setups[False]]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ref_throughput": _median([rate * ref for _, traced, rate, ref in ops.timed if not traced]),
        }
        units = {m[0]: m[1] for m in metrics.END_TO_END}
    else:
        tracer.write(root / ".perfbench" / f"spans-{name}-seed{seed}.jsonl")
        values = metrics.layer_values(tracer, _bench_values(tracer, wl, setup_times, ops))
        units = {m[0]: m[1] for m in metrics.LAYER}
    for key, value in values.items():
        print(f"metric {key} {value} {units[key]}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def _set_up(wl, tracer: Tracer | None, seconds: float, reference: Reference) -> dict[bool, list[tuple[float, float]]]:
    """(wall time, reference seconds) of each set-up, keyed by whether it was
    traced (every second one when tracing); the reference kernel runs between set-ups."""
    times: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    phase_started = time.perf_counter()
    ref_before = reference.seconds()
    i = 0
    while i < MIN_SETUPS or time.perf_counter() - phase_started < SETUP_SHARE * seconds:
        traced = tracer is not None and i % 2 == 1
        # Garbage the last set-up or operation left must not be collected inside the next timing.
        gc.collect()
        if traced:
            tracer.begin_run("setup", i)
            instrument.install(tracer)
        try:
            started = time.perf_counter()
            with span(tracer if traced else None, "bench.setup"):
                wl.setup()
            wall = time.perf_counter() - started
        finally:
            if traced:
                tracer.unpatch()
        ref_after = reference.seconds()
        times[traced].append((wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
        i += 1
    return times


def _operate(wl, tracer: Tracer | None, seconds: float, reference: Reference) -> Operations:
    """Warm-up, then timed operations until the next would end past ``seconds``.

    Each operation is checked; an exception from the program, a failed check or
    a digest that differs from the first operation's counts it as failed.
    """
    ops = Operations()
    started = time.perf_counter()
    ref_before = reference.seconds()
    while True:
        k = ops.attempted - wl.warmup_ops  # warm-up operations are checked but not timed
        traced = tracer is not None and k >= 0 and k % 2 == 1
        live = tracer if traced else None
        gc.collect()
        if traced:
            tracer.begin_run("op", k)
            instrument.install(tracer)
        try:
            with span(live, "bench.op"):
                work, timed, outputs = wl.run(live)
            if traced:
                tracer.begin_run("check", k)
            with span(live, "bench.check"):
                problems, digest = wl.check(outputs)
        except Exception as exc:  # the program raised: count a failed operation and go on
            problems, digest, timed = [f"{type(exc).__name__}: {exc}"], "", 0.0
        finally:
            if traced:
                tracer.unpatch()
        ref_after = reference.seconds()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        ops.attempted += 1
        if digest:
            ops.digests.append(digest)
            if digest != ops.digests[0]:
                problems.append("output digest differs from the first operation of this run")
        if problems:
            ops.failed += 1
            for problem in problems:
                print(f"FAILED op {k}: {problem}", file=sys.stderr)
        elif timed > 0 and k >= 0:
            ops.timed.append((k, traced, work / timed, ref))
        if k < 0:
            started = time.perf_counter()
            continue
        elapsed = time.perf_counter() - started
        # Closed loop: start another operation only if it should end within the budget.
        if k + 1 >= (3 if tracer is not None else 1) and elapsed * (k + 2) / (k + 1) > seconds:
            return ops


def _bench_values(tracer: Tracer, wl, setup_times: dict[bool, list[float]], ops: Operations) -> dict[str, float]:
    assemble_ms = [1e3 * d for d in tracer.durations("encodings.assemble")]
    p50, p95 = (np.percentile(assemble_ms, [50, 95]).tolist() if assemble_ms else (0.0, 0.0))
    print(f"samples encodings.assemble {len(assemble_ms)}")
    # Root spans' self time is the wall time no layer span covers.
    uncovered = sum(tracer.per_run(root) for root in metrics.ROOT_SPANS)
    total = sum(statistics.fmean(tracer.durations(root) or [0.0]) for root in metrics.ROOT_SPANS)
    # The first timed operation can still be slower than the rest, so the
    # overhead compares traced with untraced operations after the first.
    untraced_rate, traced_rate = _median(ops.rates(False, first=1)), _median(ops.rates(True))
    return {
        "encodings.assemble_ms_p50": p50,
        "encodings.assemble_ms_p95": p95,
        "fingerprints.unique_frac": wl.unique_frac,
        "failed_frac": ops.failed / ops.attempted,
        "trace.uncovered_s": uncovered,
        "trace.uncovered_frac": uncovered / total if total else 0.0,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
        "trace.setup_overhead_frac": _median(setup_times[True]) / _median(setup_times[False]) - 1.0,
        "trace.spans": tracer.per_run("trace.spans", counts=True),
    }
