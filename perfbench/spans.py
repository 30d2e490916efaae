"""Spans and counts recorded from outside ``minifp``, by patching its public functions.

A :class:`Tracer` replaces each wrapped function in every module (or class)
where callers look it up, so ``from .trainer import adam_step`` inside
``minifp.downstream`` is patched in ``minifp.downstream`` as well as in
``minifp.trainer``.  Each call records a span (id, name, start, end, parent
span, workload-run id) in memory; the spans are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
The benchmark opens a root span (``bench.setup``, ``bench.op``,
``bench.check``) around each phase, so the root's self time is the wall time
that no layer span covers.

``Tape`` operations build their backward closures during the forward pass; the
tracer wraps the closure an op appends to the tape, so ``autodiff.matmul``,
``autodiff.gather`` and ``autodiff.segment_sum`` cover both directions and are
children of ``autodiff.backward`` when the tape replays.  An op that records
a backward closure the tracer cannot find on the tape's op list is counted in
``trace.unwrapped_tape_ops``: its backward time then stays in
``autodiff.backward``, and the count says so.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, run id)
        self.run_id = "none"
        self.runs: dict[str, set[str]] = defaultdict(set)  # phase -> run ids seen
        self._self: dict[tuple[str, str], float] = defaultdict(float)  # (run id, name) -> s
        self._counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def begin_run(self, phase: str, index: int) -> None:
        self.run_id = f"{phase}-{index}"
        self.runs[phase].add(self.run_id)

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.run_id))
        self._self[(self.run_id, name)] += duration - child
        self._counts[(self.run_id, "trace.spans")] += 1
        if parent is not None:
            parent[3] += duration

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def count(self, key: str, value: float = 1.0) -> None:
        self._counts[(self.run_id, key)] += value

    def wrap(self, name: str, fn, after=None, failed=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` counts a return,
        ``failed(exc)`` counts an exception, which then propagates unchanged."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                self._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def patch(self, owners, attr: str, name: str = "", after=None, failed=None, wrapper=None) -> None:
        """Replace ``attr`` on every owner (module or class) that holds it."""
        for owner in owners:
            original = getattr(owner, attr)
            replacement = wrapper(original) if wrapper else self.wrap(name, original, after, failed)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_tape_op(self, name: str, flops=None, rows=None):
        """Wrapper factory for a ``Tape`` op that also times the op's backward closure."""
        tracer = self

        def factory(original):
            def traced(tape, *args, **kwargs):
                tracer._enter(name)
                try:
                    out = original(tape, *args, **kwargs)
                finally:
                    tracer._exit()
                tracer.count(f"{name}_calls")
                if rows is not None:
                    tracer.count(f"{name}_rows", rows(args))
                if flops is not None:
                    tracer.count(f"{name}_flop", flops(args))
                if not out.requires_grad:
                    return out  # nothing to replay: the tape is not recording or no input needs a gradient
                ops = getattr(tape, "_ops", None)
                if not (isinstance(ops, list) and ops and ops[-1][0] is out):
                    # This op's backward time would land in autodiff.backward unseen; count it instead.
                    tracer.count("trace.unwrapped_tape_ops")
                    return out
                backward = ops[-1][1]
                after = None
                if flops is not None:
                    # The backward pass runs two products of the forward's size.
                    fwd = flops(args)
                    after = lambda a, k, r: tracer.count(f"{name}_flop", 2 * fwd)  # noqa: E731
                ops[-1] = (out, tracer.wrap(name, backward, after))
                return out

            return traced

        return factory

    # -- reporting ------------------------------------------------------------------

    def per_run(self, key: str, counts: bool = False) -> float:
        """Sum of one setup, one op and one check: each phase averaged over its runs."""
        table = self._counts if counts else self._self
        total = 0.0
        for phase, run_ids in self.runs.items():
            total += sum(table.get((r, key), 0.0) for r in run_ids) / len(run_ids)
        return total

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, run_id in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
