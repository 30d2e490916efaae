"""Minimal dense-tensor engine with reverse-mode differentiation.

Covers exactly what MLPs, message passing, pooling, and the losses need:
a :class:`Tape` records forward ops in execution order and replays them in
reverse to accumulate gradients into :class:`Parameter` objects.  Tensors
are dense numpy arrays: 32-bit by default, 64-bit during gradient checks.

A parameter's gradient exists only from backward to the optimizer step.
``Parameter.grad`` starts as ``None`` and ``zero_grad`` drops it.  During
backward a watched tensor's grad is the parameter's: its first contribution
becomes ``Parameter.grad`` (taken over when it is a fresh C-contiguous array
the closure owns, otherwise copied once), later contributions are added to
it in place, and another tape's backward without ``zero_grad`` adds into it
too.  A parameter that gets no contribution keeps ``grad is None``, which the
optimizer reads as a zero gradient.  The tape counts, as it records, the ops
that read each watched parameter, so backward can hand a parameter to its
``on_ready`` callback as soon as the last of them has run: a trainer steps it
there and drops its gradient while backward goes on.

Backward keeps only its frontier.  Before running an op's closure it takes
the op output's gradient off the tensor, so every op output's ``grad`` is
``None`` once backward returns and each gradient is freed as soon as its op
has consumed it.  The closure owns the array it is handed: it may overwrite
it, and it may hand it, or disjoint views of it, to one input each without a
copy.  Arrays a closure computes itself are handed over the same way.  An
input's first contribution becomes its ``grad`` as is when it is handed over
(``_accum(..., owned=True)``) and is writeable with the input's dtype and
shape; otherwise it is copied once.  Later contributions are added in place.

A tape holds only what backward needs, and only until backward has read it.
A recording tape holds its recorded op outputs and whatever their closures
read; a non-recording tape holds nothing but its watched parameters, so an
inference forward frees each layer's arrays as soon as the caller stops
referring to them.  A tape is replayed once: backward pops each op before
running its closure, so every closure and the arrays only it captured are
freed as backward passes them, and a second ``backward`` raises
:class:`SpentTape`.  ``linear``, ``linear_relu`` and ``linear_relu_sum``
are one op, ``Tape._affine``, which folds the bias, and the relu if asked,
into its products; a hidden layer is one such op with relu, whose backward
reads its output, not its pre-activation.

Segment reductions run over a :class:`Segments` plan, which fixes once the
order in which each segment's rows are added: by segment, then by the plan's
key columns, then by row index.  Every sum is a product with a CSR matrix
that adds each segment's rows in exactly that order, and every CSR matrix
whose rows follow a plan's order, the graph operators of
:class:`~minifp.backbones.GraphBatch` included, comes from
:meth:`Segments.csr`.  Relabelling invariance
comes from the keys the caller chooses: :class:`~minifp.backbones.GraphBatch`
keys its plans on stable 1-WL colours, which do not depend on the labelling,
and rows that tie on those keys carry bitwise-equal values at inference, so
any tie order gives the same bits.  With dropout on, tied rows may differ and
a relabelled batch may sum to different bits; the same batch still gives the
same bits on every run.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import sys
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

from .seeding import rng_stream


class ShapeMismatch(ValueError):
    pass


class DisconnectedGraph(RuntimeError):
    """Raised when a loss does not depend on any watched parameter."""


class SpentTape(RuntimeError):
    """Raised by a second ``backward`` on a tape: the first one consumed its ops."""


class Tensor:
    """Array value tracked on a tape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """Named trainable array and its gradient, if any.

    ``grad`` is ``None`` until a backward pass reaches the parameter; it then
    holds the summed contributions, with the value's dtype and shape and
    C-contiguous, and further tapes' backward calls add into it until
    ``zero_grad`` drops it.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Segments:
    """Rows grouped into segments, each segment's rows in one fixed order.

    Rows are ordered by (segment, ``key`` columns in turn, row index).  Every
    CSR matrix whose rows follow that order comes from :meth:`csr`; ``sum``
    multiplies by the plain one, whose entries are ones, and scipy's CSR
    product adds each output row's entries in stored order.  One sum matrix
    is kept per dtype, so values are never upcast.  Empty segments sum to
    zero.
    """

    def __init__(self, segment_ids, num_segments: int, key: Sequence[np.ndarray] = ()):
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if segment_ids.ndim != 1:
            raise ShapeMismatch(f"segment ids must be 1-D, got shape {segment_ids.shape}")
        if segment_ids.size and (segment_ids.min() < 0 or segment_ids.max() >= num_segments):
            raise ShapeMismatch(f"segment ids outside [0, {num_segments})")
        for column in key:
            if np.shape(column) != segment_ids.shape:
                raise ShapeMismatch(f"key column shape {np.shape(column)} != ids {segment_ids.shape}")
        self.segment_ids = segment_ids
        self.num_segments = int(num_segments)
        # Both sorts are stable, so rows with equal keys stay in row-index order.
        if key:
            self.order = np.lexsort(tuple(reversed(key)) + (segment_ids,))
        else:
            self.order = np.argsort(segment_ids, kind="stable")
        self.counts = np.bincount(segment_ids, minlength=self.num_segments)
        self.indptr = np.concatenate(([0], np.cumsum(self.counts)))
        self._sums: dict[np.dtype, scipy.sparse.csr_matrix] = {}

    def _check(self, values: np.ndarray) -> None:
        if values.ndim != 2 or values.shape[0] != self.segment_ids.shape[0]:
            raise ShapeMismatch(
                f"segment plan over {self.segment_ids.shape[0]} rows got values of shape {values.shape}"
            )

    def csr(self, columns: np.ndarray, coeff: np.ndarray, loop: np.ndarray | None = None,
            width: int | None = None) -> scipy.sparse.csr_matrix:
        """CSR matrix in ``coeff``'s dtype with one row per segment: row s holds
        (columns[k], coeff[k]) for the plan's rows k of segment s in plan order,
        then (s, loop[s]) last if ``loop`` is given.  It is square unless
        ``width`` gives its column count."""
        import scipy.sparse  # here, not at module level: a command that builds no matrix never loads it

        n = self.num_segments
        indices, data, indptr = columns[self.order], coeff[self.order], self.indptr
        if loop is not None:
            # Row s's entries end at indptr[s + 1]: each loop goes in there, and
            # every row starts one entry later per loop before it.
            ends = self.indptr[1:]
            indices = np.insert(indices, ends, np.arange(n))
            data = np.insert(data, ends, loop)
            indptr = self.indptr + np.arange(n + 1)
        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, n if width is None else width))

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-segment column sums of 2-D ``values``, each added in plan order."""
        values = np.asarray(values)
        self._check(values)
        if values.dtype not in self._sums:
            rows = values.shape[0]
            self._sums[values.dtype] = self.csr(np.arange(rows), np.ones(rows, dtype=values.dtype), width=rows)
        return self._sums[values.dtype] @ values

    def max(self, values: np.ndarray) -> np.ndarray:
        """Per-segment column maxima; empty segments are zero."""
        values = np.asarray(values)
        self._check(values)
        out = np.zeros((self.num_segments, values.shape[1]), dtype=values.dtype)
        filled = np.flatnonzero(self.counts)
        if filled.size:
            # reduceat starts only at non-empty segments: at a repeated start it
            # would return that row instead of an empty maximum.
            out[filled] = np.maximum.reduceat(values[self.order], self.indptr[filled], axis=0)
        return out

    def argmax(self, values: np.ndarray, maxima: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The non-empty segments and, per segment and column, the first row in
        plan order holding ``maxima``; a NaN maximum matches no row and goes to
        the segment's first row."""
        filled = np.flatnonzero(self.counts)
        starts = self.indptr[filled]
        ordered = values[self.order]
        hit = ordered == np.repeat(maxima[filled], self.counts[filled], axis=0)
        # The first hit scores highest: position p scores n - p.
        n = ordered.shape[0]
        first = n - np.maximum.reduceat(hit * np.arange(n, 0, -1, dtype=np.int32)[:, None], starts, axis=0)
        first = np.where(first == n, starts[:, None], first)
        return filled, self.order[first]


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``; an ``owned`` first contribution becomes it without a copy."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned and g.flags.writeable and g.dtype == t.data.dtype and g.shape == t.data.shape:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the heap memory one tape's arrays free for the next tape; runs once per process.

    Each training step or inference batch allocates and frees a tape's arrays:
    a few hundred MB for a paper-scale pre-training step, about ten MB for a
    default downstream head's.  glibc maps arrays over its mmap threshold
    (128 KB at first) afresh and returns a freed heap top over its trim
    threshold to the OS, so the next tape faults every page in again.  This
    fixes the mmap threshold at glibc's own dynamic ceiling (32 MB) and never
    trims.  No result changes; without glibc it does nothing.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD (malloc.h)
            mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


@functools.cache
def _blas_thread_control() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels bundle
    under ``numpy.libs`` (named as numpy 2 or numpy 1 builds name them); None
    without those symbols or without ``os.fork``.

    Loading the library again by path returns the copy numpy already uses.
    """
    if not hasattr(os, "fork"):
        return None
    for path in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _available_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def worker_count(num_tasks: int) -> int:
    """The workers ``num_tasks`` independent tasks are spread over, each on one
    BLAS thread: one per available core and at most one per task, or 1 without
    OpenBLAS thread control."""
    if _blas_thread_control() is None:
        return 1
    return max(1, min(num_tasks, _available_cores()))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    The count is the process's, so threads started inside the block run their
    products on one BLAS thread each, and every product rounds as it does on
    one core."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, put = control
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


class Tape:
    """Single-writer record of forward operations, replayed once, in exact reverse order.

    A recording tape holds, in ``_ops``, each recorded op's output tensor and
    its backward closure, and through the closures what they read, until
    ``backward`` pops them.  A non-recording tape records nothing and holds
    no op output, so every array of an inference forward lives only as long
    as its caller keeps it.

    Backward closures call the module-level ``_accum`` and never capture the
    tape, so a tape is in no reference cycle: dropping it frees its
    activations and gradients at once, without waiting for the cyclic
    garbage collector.
    """

    def __init__(self, recording: bool = True):
        _keep_freed_heap()
        self.recording = recording
        self._ops: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._watched: dict[Parameter, Tensor] = {}
        # Watched tensor -> [its parameter, recorded ops still to run that read it].
        self._readers: dict[Tensor, list] = {}
        # Recorded op output -> the watched tensors its closure reads.
        self._reads: dict[Tensor, list[Tensor]] = {}
        self._spent = False

    # -- tensor creation ---------------------------------------------------

    def constant(self, data) -> Tensor:
        return Tensor(np.asarray(data))

    def watch(self, param: Parameter) -> Tensor:
        """Tensor view of a parameter; backward() accumulates into param.grad."""
        if param not in self._watched:
            t = Tensor(param.value, requires_grad=self.recording)
            self._watched[param] = t
            self._readers[t] = [param, 0]
        return self._watched[param]

    def _pop(self) -> Callable[[np.ndarray], None]:
        """Take the last op off the tape, uncounted as a reader, and return its closure."""
        out, backward = self._ops.pop()
        for t in self._reads.pop(out, ()):
            self._readers[t][1] -= 1
        return backward

    def _emit(self, data: np.ndarray, inputs: Sequence[Tensor], backward) -> Tensor:
        """The op's output; if it needs a gradient, its op is appended and
        counted once as a reader of each watched input."""
        out = Tensor(data, requires_grad=self.recording and any(t.requires_grad for t in inputs))
        if out.requires_grad:
            self._ops.append((out, backward))
            reads = [t for t in dict.fromkeys(inputs) if t in self._readers]
            if reads:
                self._reads[out] = reads
                for t in reads:
                    self._readers[t][1] += 1
        return out

    # -- forward ops ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
            raise ShapeMismatch(f"matmul of {a.data.shape} and {b.data.shape}")
        out_data = a.data @ b.data

        def backward(g):
            if a.requires_grad:
                _accum(a, g @ b.data.T, owned=True)
            if b.requires_grad:
                _accum(b, a.data.T @ g, owned=True)

        return self._emit(out_data, (a, b), backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out_data = a.data + b.data
        except ValueError:
            raise ShapeMismatch(f"add of {a.data.shape} and {b.data.shape}") from None

        def backward(g):
            handed = False  # g itself goes to one input; the other copies it
            for t in (a, b):
                if t.requires_grad:
                    gt = _unbroadcast(g, t.data.shape)
                    _accum(t, gt, owned=gt is not g or not handed)
                    handed = handed or t.grad is g

        return self._emit(out_data, (a, b), backward)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out_data = a.data - b.data
        except ValueError:
            raise ShapeMismatch(f"sub of {a.data.shape} and {b.data.shape}") from None

        def backward(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g, a.data.shape), owned=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(-g, b.data.shape), owned=True)

        return self._emit(out_data, (a, b), backward)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out_data = a.data * b.data
        except ValueError:
            raise ShapeMismatch(f"mul of {a.data.shape} and {b.data.shape}") from None

        def backward(g):
            if a.requires_grad:
                _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
            if b.requires_grad:
                _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

        return self._emit(out_data, (a, b), backward)

    def scale(self, a: Tensor, c: float) -> Tensor:
        out_data = a.data * c

        def backward(g):
            g *= c
            _accum(a, g, owned=True)

        return self._emit(out_data, (a,), backward)

    def concat(self, tensors: Sequence[Tensor], axis: int) -> Tensor:
        arrays = [t.data for t in tensors]
        out_data = np.concatenate(arrays, axis=axis)
        widths = [arr.shape[axis] for arr in arrays]
        offsets = np.cumsum([0] + widths)

        def backward(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    _accum(t, g[tuple(idx)], owned=True)  # disjoint views of g

        return self._emit(out_data, tuple(tensors), backward)

    def dropout(self, a: Tensor, rate: float, key: tuple[int, ...], training: bool = True) -> Tensor:
        """Inverted dropout with a counter-based mask keyed by (seed, op instance, step)."""
        if not training or rate == 0.0:
            return a
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        rng = rng_stream(key[0], "dropout", *key[1:])
        # The keep mask goes straight to the tensor's dtype: 0 or dtype(1 / (1 - rate)),
        # the same bits as scaling in float64 and casting.
        dtype = a.data.dtype
        mask = np.multiply(rng.random(a.data.shape) >= rate, dtype.type(1.0 / (1.0 - rate)), dtype=dtype)
        out_data = a.data * mask

        def backward(g):
            g *= mask
            _accum(a, g, owned=True)

        return self._emit(out_data, (a,), backward)

    def gather(self, a: Tensor, plan: Segments) -> Tensor:
        """Row ``plan.segment_ids[k]`` of 2-D ``a`` at row k: the transpose of a
        segment sum over ``plan``, so backward is ``plan.sum`` in plan order."""
        if a.data.ndim != 2 or a.data.shape[0] != plan.num_segments:
            raise ShapeMismatch(f"gather over a plan of {plan.num_segments} segments from shape {a.data.shape}")
        out_data = a.data[plan.segment_ids]

        def backward(g):
            _accum(a, plan.sum(g), owned=True)

        return self._emit(out_data, (a,), backward)

    def segment_sum(self, values: Tensor, segments: Segments) -> Tensor:
        out_data = segments.sum(values.data)

        def backward(g):
            _accum(values, g[segments.segment_ids], owned=True)

        return self._emit(out_data, (values,), backward)

    def segment_mean(self, values: Tensor, segments: Segments) -> Tensor:
        safe = np.maximum(segments.counts, 1).astype(values.data.dtype)[:, None]
        out_data = segments.sum(values.data) / safe

        def backward(g):
            _accum(values, (g / safe)[segments.segment_ids], owned=True)

        return self._emit(out_data, (values,), backward)

    def segment_max(self, values: Tensor, segments: Segments) -> Tensor:
        out_data = segments.max(values.data)

        def backward(g):
            filled, argmax = segments.argmax(values.data, out_data)
            # Each row belongs to one segment, so no (row, column) repeats.
            dz = np.zeros_like(values.data)
            dz[argmax, np.arange(argmax.shape[1])] = g[filled]
            _accum(values, dz, owned=True)

        return self._emit(out_data, (values,), backward)

    def sparse_matmul(self, a: Tensor, matrix, transpose) -> Tensor:
        """``matrix @ a`` for a scipy CSR ``matrix``; backward is ``transpose @ g``.

        ``transpose`` must equal ``matrix.T``.  scipy adds each row's entries
        in stored order, so the two stored matrices fix the order of every
        forward and backward sum.
        """
        if a.data.ndim != 2 or matrix.shape[1] != a.data.shape[0] or transpose.shape != matrix.shape[::-1]:
            raise ShapeMismatch(f"sparse product of {matrix.shape} (transpose {transpose.shape}) and {a.data.shape}")
        out_data = matrix @ a.data

        def backward(g):
            _accum(a, transpose @ g, owned=True)

        return self._emit(out_data, (a,), backward)

    def sum(self, a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape))  # a read-only view: copied

        return self._emit(out_data, (a,), backward)

    def custom(
        self,
        out_data: np.ndarray,
        inputs: Sequence[Tensor],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> Tensor:
        """Extension hook: ``backward(g)`` returns one gradient per input (or None).

        The returned arrays are copied, never handed over.
        """

        def run(g):
            grads = backward(g)
            for t, gt in zip(inputs, grads):
                if gt is not None:
                    _accum(t, gt)

        return self._emit(np.asarray(out_data), tuple(inputs), run)

    def linear(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        """``x @ weight + bias`` as one op: :meth:`_affine` with one term and no relu."""
        return self._affine([(x, weight, None)], bias, relu=False)

    def linear_relu(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        """``relu(x @ weight + bias)`` as one op: :meth:`_affine` with one term."""
        return self._affine([(x, weight, None)], bias, relu=True)

    def rows(self, a: Tensor, lo: int, hi: int) -> Tensor:
        """Rows ``lo:hi`` of ``a`` as a view; backward adds into that block of ``a``'s gradient.

        If ``a`` has no gradient yet, the block starts one that is zero elsewhere.
        """
        if not 0 <= lo <= hi <= a.data.shape[0]:
            raise ShapeMismatch(f"rows {lo}:{hi} of shape {a.data.shape}")

        def backward(g):
            if a.grad is None:
                a.grad = np.zeros(a.data.shape, dtype=a.data.dtype)
            a.grad[lo:hi] += g

        return self._emit(a.data[lo:hi], (a,), backward)

    def linear_relu_sum(self, terms: Sequence[tuple[Tensor, Tensor, object]], bias: Tensor | None) -> Tensor:
        """``relu(Σ_k spread_k(a_k @ w_k) + bias)`` as one op: :meth:`_affine` with relu."""
        return self._affine(terms, bias, relu=True)

    def _affine(self, terms: Sequence[tuple[Tensor, Tensor, object]], bias: Tensor | None, relu: bool) -> Tensor:
        """``Σ_k spread_k(a_k @ w_k) + bias``, then relu if ``relu``, as one op.

        A product with a column concatenation is the sum of its block
        products, ``[a_1 | a_2] @ w = a_1 @ w_1 + a_2 @ w_2`` for the row
        blocks ``w_k`` of ``w`` (see :meth:`rows`), and a row gather commutes
        with a right product, ``a[s] @ w = (a @ w)[s]``.  So each term's
        product runs on the rows its ``a_k`` has and is then spread to the
        output's rows.  A term's spread is ``None`` (the rows are the
        output's), a :class:`Segments` plan (output row i is product row
        ``plan.segment_ids[i]``; backward is ``plan.sum``) or a CSR pair
        ``(matrix, transpose)`` with ``transpose == matrix.T`` (``matrix @``
        the product; backward ``transpose @ g``).  The spread terms are added
        in order into the first, then the bias, in place, and relu is applied
        in place.

        Every product goes through :meth:`matmul`; this is the one op that
        takes the products' closures off the tape, and it keeps no product or
        spread term.  With relu, backward masks the gradient with
        ``out > 0``, which equals the pre-activation's ``> 0`` (a NaN stays
        NaN and is masked either way), so no pre-activation is kept either.
        Then it hands each term, last first, its spread's backward of the
        gradient, and the bias its column sums.
        """
        out_data = None
        products = []
        for a, w, spread in terms:
            product = self.matmul(a, w)
            products.append(self._pop() if product.requires_grad else None)
            if spread is None:
                part = product.data
            elif isinstance(spread, Segments):
                part = product.data[spread.segment_ids]
            else:
                part = spread[0] @ product.data
            if out_data is None:
                out_data = part
            elif part.shape != out_data.shape:
                raise ShapeMismatch(f"spread product of shape {part.shape} for a sum of {out_data.shape}")
            else:
                out_data += part
            del product, part  # before the next product is allocated
        if bias is not None:
            try:
                out_data += bias.data
            except ValueError:
                raise ShapeMismatch(f"bias of shape {bias.data.shape} for a sum of {out_data.shape}") from None
        if relu:
            np.maximum(out_data, 0, out=out_data)
        spreads = [spread for _, _, spread in terms]

        def backward(g):
            if relu:
                g *= out_data > 0
            for spread, product_backward in zip(reversed(spreads), reversed(products)):
                if product_backward is None:
                    continue
                if spread is None:
                    product_backward(g)
                elif isinstance(spread, Segments):
                    product_backward(spread.sum(g))
                else:
                    product_backward(spread[1] @ g)
            if bias is not None:
                _accum(bias, _unbroadcast(g, bias.data.shape), owned=True)

        inputs = [t for a, w, _ in terms for t in (a, w)] + ([] if bias is None else [bias])
        return self._emit(out_data, inputs, backward)

    # -- backward ------------------------------------------------------------

    def backward(self, loss: Tensor, on_ready: Callable[[Parameter], None] | None = None) -> None:
        """Accumulate d(loss)/d(param) into every watched parameter's grad, consuming the tape.

        Each watched tensor starts from its parameter's ``grad``.  The first
        contribution to a parameter without one becomes its ``grad``, and
        every later one is added into it in place, in tape order.  Without
        ``zero_grad`` between two tapes' backward calls, a parameter adds each
        contribution into the previous gradient, which may round differently
        from adding their total once.  A parameter that got no contribution
        keeps ``None``.

        A parameter's ``grad`` is complete once the last recorded op that
        reads it has run (a product folded into ``linear``, ``linear_relu``
        or ``linear_relu_sum`` is one reader; each ``rows`` block is one).
        Then ``on_ready(param)`` is called, once per watched parameter,
        before backward goes on; it may update ``param.value`` in place and
        drop ``param.grad``, since no op still to run reads either.
        Parameters that no op reads come last, in the order they were
        watched.

        Each op is popped before its closure runs, so the closure and what
        only it captured are freed once it returns.  Afterwards, even after a
        closure or ``on_ready`` raised, the tape holds no op, gradient or
        watched parameter, and another ``backward`` raises :class:`SpentTape`;
        parameters not yet handed to ``on_ready`` then keep their gradients.
        """
        if self._spent:
            raise SpentTape("this tape was already replayed; record the forward on a fresh tape")
        if loss.data.size != 1:
            raise ShapeMismatch(f"loss must be scalar, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise DisconnectedGraph("loss does not depend on any watched parameter")
        self._spent = True
        ops, readers, reads = self._ops, self._readers, self._reads
        for param, t in self._watched.items():
            t.grad = param.grad
        try:
            _accum(loss, np.ones_like(loss.data), owned=True)
            while ops:
                out, backward_fn = ops.pop()
                g, out.grad = out.grad, None  # the closure owns g now; it is freed once consumed
                if g is not None:
                    backward_fn(g)
                for t in reads.pop(out, ()):
                    readers[t][1] -= 1
                    if not readers[t][1]:
                        self._release(t, on_ready)
            for t in list(readers):
                self._release(t, on_ready)
        finally:
            ops.clear()
            reads.clear()
            for t in list(readers):
                self._release(t, None)
            self._watched.clear()

    def _release(self, t: Tensor, on_ready) -> None:
        """Move watched ``t``'s gradient to its parameter and hand the parameter to ``on_ready``."""
        param = self._readers.pop(t)[0]
        g, t.grad = t.grad, None
        # A handed-over view (e.g. a concat part) is copied to the layout the optimizer steps over.
        param.grad = g if g is None or g.flags.c_contiguous else np.ascontiguousarray(g)
        if on_ready is not None:
            on_ready(param)
