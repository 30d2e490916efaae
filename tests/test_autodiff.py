import gc
import weakref

import numpy as np
import pytest
import scipy.sparse

from minifp.autodiff import DisconnectedGraph, Parameter, Segments, ShapeMismatch, SpentTape, Tape
from minifp.seeding import rng_stream

from .util import finite_difference_check, reference_relu


def test_relu_forward():
    tape = Tape()
    out = tape.linear_relu(tape.constant(np.array([[-1.0], [0.0], [2.0]])), tape.constant(np.ones((1, 2))))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])


def test_segment_sum_basic():
    out = Segments(np.array([0, 0, 1]), 2).sum(np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_array_equal(out, [[3.0], [3.0]])


def test_segment_sum_empty_segment_and_empty_input():
    out = Segments(np.array([2]), 4).sum(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0, 0], [0, 0], [1, 2], [0, 0]])
    out = Segments(np.zeros(0, dtype=int), 2).sum(np.zeros((0, 3)))
    np.testing.assert_array_equal(out, np.zeros((2, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sum_adds_in_plan_order_bitwise(dtype):
    # Reference: a sequential loop over (segment, key, row index) order.
    rng = np.random.default_rng(2)
    n = 50
    vals = (rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-4, 5, size=(n, 1))).astype(dtype)
    ids = rng.integers(0, 7, size=n)
    key = rng.integers(0, 4, size=n)
    out = Segments(ids, 8, key=(key,)).sum(vals)
    assert out.dtype == dtype
    expected = np.zeros((8, 6), dtype=dtype)
    for row in sorted(range(n), key=lambda r: (ids[r], key[r], r)):
        expected[ids[row]] = expected[ids[row]] + vals[row]
    assert np.array_equal(out, expected)


def test_segment_sum_permutation_invariant_bitwise():
    # A plan keyed on row content sums a permuted input to the same bits:
    # rows that tie on the key are equal, so their order cannot matter.
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        distinct = rng.standard_normal((n, 5))
        vals = distinct[rng.integers(0, max(n // 3, 1), size=n)]
        ids = rng.integers(0, 6, size=n)
        rank = np.unique(vals, axis=0, return_inverse=True)[1].reshape(-1)
        base = Segments(ids, 6, key=(rank,)).sum(vals)
        perm = rng.permutation(n)
        permuted = Segments(ids[perm], 6, key=(rank[perm],)).sum(vals[perm])
        assert np.array_equal(base, permuted)


def test_segments_reject_bad_ids_and_shapes():
    with pytest.raises(ShapeMismatch):
        Segments(np.array([0, 3]), 3)
    with pytest.raises(ShapeMismatch):
        Segments(np.array([0, 1]), 2, key=(np.zeros(3),))
    with pytest.raises(ShapeMismatch):
        Segments(np.array([0, 1]), 2).sum(np.zeros((3, 2)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_max_matches_per_segment_max_bitwise(dtype):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((30, 5)).astype(dtype)
    vals[7] = vals[3]  # tied maxima inside a segment
    ids = rng.integers(0, 6, size=30)
    ids[ids == 4] = 5  # segment 4 is empty
    segments = Segments(ids, 6, key=(rng.integers(0, 3, size=30),))
    tape = Tape(recording=False)
    out = tape.segment_max(tape.constant(vals), segments).data
    assert out.dtype == dtype
    for seg in range(6):
        rows = np.flatnonzero(ids == seg)
        expected = vals[rows].max(axis=0) if rows.size else np.zeros(5, dtype=dtype)
        assert np.array_equal(out[seg], expected)


def test_segment_max_gradient_goes_to_argmax_rows():
    # Rows 2 and 3 tie in column 0: the first row in plan order takes the gradient.
    w = Parameter("w", np.array([[1.0, 5.0], [3.0, 2.0], [7.0, 7.0], [7.0, 9.0]]))
    segments = Segments(np.array([0, 0, 2, 2]), 3)
    tape = Tape()
    out = tape.segment_max(tape.watch(w), segments)
    tape.backward(tape.sum(tape.mul(out, tape.constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])))))
    np.testing.assert_array_equal(w.grad, [[0.0, 2.0], [1.0, 0.0], [5.0, 0.0], [0.0, 6.0]])


def test_concat_shapes():
    tape = Tape()
    a = tape.constant(np.zeros((4, 2)))
    b = tape.constant(np.zeros((4, 3)))
    assert tape.concat([a, b], axis=1).data.shape == (4, 5)


def test_shape_mismatch_reports_both_shapes():
    tape = Tape()
    a = tape.constant(np.zeros((4, 2)))
    b = tape.constant(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch) as exc:
        tape.matmul(a, b)
    assert "(4, 2)" in str(exc.value) and "(3, 2)" in str(exc.value)


def _linear_relu_step(dtype, fused, input_kind):
    """Output, loss and gradients of sum(c * relu(x @ w + b)) with exact-zero and NaN pre-activations.

    The input is an op output the tape keeps ("kept"), as every hidden layer's
    is, or a constant ("constant"), as the embedding MLPs' is.
    """
    rng = np.random.default_rng(21)
    x = rng.standard_normal((6, 4)).astype(dtype)
    x[1] = 0.0  # pre-activation = b: exactly zero where b is
    x[2, 3] = np.nan  # a NaN row
    b = rng.standard_normal(5).astype(dtype)
    b[[0, 3]] = 0.0
    params = [Parameter("x", x), Parameter("w", rng.standard_normal((4, 5)).astype(dtype)), Parameter("b", b)]
    c = rng.standard_normal((6, 5)).astype(dtype)
    tape = Tape()
    xt, wt, bt = (tape.watch(p) for p in params)
    h = tape.scale(xt, 1.0) if input_kind == "kept" else tape.constant(x)
    if fused:
        out = tape.linear_relu(h, wt, bt)
    else:
        out = reference_relu(tape, tape.linear(h, wt, bt))
    loss = tape.sum(tape.mul(out, tape.constant(c)))
    out_bits = out.data.tobytes()
    tape.backward(loss)
    return [out_bits, loss.data.tobytes()] + [None if p.grad is None else p.grad.tobytes() for p in params]


@pytest.mark.parametrize("input_kind", ["kept", "constant"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_relu_matches_linear_then_relu_bitwise(dtype, input_kind):
    fused = _linear_relu_step(dtype, True, input_kind)
    assert fused == _linear_relu_step(dtype, False, input_kind)
    out = np.frombuffer(fused[0], dtype=dtype)
    assert np.isnan(out).any() and (out == 0).any()
    assert (fused[2] is None) == (input_kind == "constant")


def test_linear_relu_sum_rejects_mismatched_blocks():
    tape = Tape()
    w = tape.watch(Parameter("w", np.ones((5, 2))))
    b = tape.watch(Parameter("b", np.zeros(2)))
    a = tape.constant(np.ones((4, 3)))
    with pytest.raises(ShapeMismatch):
        tape.rows(w, 3, 6)
    with pytest.raises(ShapeMismatch):  # (1, 2) would broadcast over the (4, 2) sum
        tape.linear_relu_sum([(a, tape.rows(w, 0, 3), None), (tape.constant(np.ones((1, 2))), tape.rows(w, 3, 5), None)], b)
    with pytest.raises(ShapeMismatch):
        tape.linear_relu_sum([(a, tape.rows(w, 0, 3), None)], tape.watch(Parameter("c", np.zeros(3))))


def test_linear_gradient_is_input():
    # loss = sum(w * x) with x fixed -> grad(w) = x
    x = np.array([1.0, -2.0, 3.0])
    w = Parameter("w", np.zeros(3))
    tape = Tape()
    loss = tape.sum(tape.mul(tape.watch(w), tape.constant(x)))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, x)


def test_dead_relu_gradient_is_zero():
    w = Parameter("w", np.array([[-1.0]]))
    b = Parameter("b", np.array([0.5]))
    tape = Tape()
    r = tape.linear_relu(tape.constant(np.ones((1, 1))), tape.watch(w), tape.watch(b))
    loss = tape.sum(tape.mul(r, r))
    tape.backward(loss)
    np.testing.assert_array_equal(w.grad, [[0.0]])
    np.testing.assert_array_equal(b.grad, [0.0])


def test_backward_twice_doubles_gradients():
    """Two tapes' backward passes without ``zero_grad`` add up: 2x the gradient, bit for bit."""
    rng = np.random.default_rng(3)
    w = Parameter("w", rng.standard_normal((2, 2)))
    x = rng.standard_normal((3, 2))

    def run():
        tape = Tape()
        tape.backward(tape.sum(tape.linear_relu(tape.constant(x), tape.watch(w))))

    run()
    first = w.grad.copy()
    run()
    assert w.grad.tobytes() == (2.0 * first).tobytes()


def test_spent_tape_raises_on_a_second_backward():
    w = Parameter("w", np.ones((2, 2)))
    tape = Tape()
    h = tape.matmul(tape.constant(np.ones((1, 2))), tape.watch(w))
    loss = tape.sum(h)
    tape.backward(loss)
    first = w.grad.copy()
    assert tape._ops == [] and tape._watched == {}
    with pytest.raises(SpentTape):
        tape.backward(loss)
    with pytest.raises(SpentTape):
        tape.backward(tape.sum(tape.scale(h, 2.0)))  # ops recorded after the replay are never run
    assert w.grad.tobytes() == first.tobytes()


def test_backward_frees_each_closure_once_it_has_run():
    """Backward pops each op before running its closure: when a closure runs,
    the closures of the ops after it, and what only they captured, are gone."""
    w = Parameter("w", np.ones((3, 3)))
    tape = Tape()
    x = tape.watch(w)
    seen = []

    def probe(name, a):
        def backward(g):
            seen.append((name, [ref() is None for ref in refs]))
            return (g,)

        return tape.custom(a.data.copy(), [a], backward)

    first = probe("first", x)
    second = probe("second", tape.scale(first, 2.0))
    refs = [weakref.ref(tape._ops[-1][1])]  # second's closure
    loss = tape.sum(second)
    del second
    tape.backward(loss)
    assert seen == [("second", [False]), ("first", [True])]


def test_parameter_gradient_lives_from_backward_to_zero_grad():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 3))
    w = Parameter("w", rng.standard_normal((3, 2)))
    v = Parameter("v", rng.standard_normal((3, 1)))
    unused = Parameter("unused", rng.standard_normal(2))
    assert w.grad is None and v.grad is None and unused.grad is None
    tape = Tape()
    tape.watch(unused)
    # v's gradient arrives as a column view of the concat's gradient: the parameter gets a contiguous copy.
    both = tape.concat([tape.watch(w), tape.watch(v)], axis=1)
    loss = tape.sum(tape.matmul(tape.constant(x), both))
    tape.backward(loss)
    assert unused.grad is None
    assert v.grad.flags.c_contiguous and w.grad.flags.c_contiguous
    first = {p.name: p.grad.copy() for p in (w, v)}
    np.testing.assert_array_equal(w.grad, x.T @ np.ones((4, 2)))
    tape = Tape()  # no zero_grad: a second tape's pass adds into the first
    both = tape.concat([tape.watch(w), tape.watch(v)], axis=1)
    tape.backward(tape.sum(tape.matmul(tape.constant(x), both)))
    assert all(p.grad.tobytes() == (2 * first[p.name]).tobytes() for p in (w, v))
    w.zero_grad()
    assert w.grad is None


def test_parameter_used_twice_sums_contributions_bitwise():
    rng = np.random.default_rng(8)
    w = Parameter("w", rng.standard_normal((3, 4)).astype(np.float32))
    x = rng.standard_normal((2, 3)).astype(np.float32)
    c = rng.standard_normal((3, 4)).astype(np.float32)
    tape = Tape()
    wt = tape.watch(w)
    first = tape.sum(tape.mul(wt, tape.constant(c)))
    second = tape.sum(tape.matmul(tape.constant(x), wt))
    tape.backward(tape.add(first, second))
    from_matmul = x.T @ np.ones((2, 4), dtype=np.float32)
    from_mul = np.ones((3, 4), dtype=np.float32) * c
    summed_then_added = np.zeros((3, 4), dtype=np.float32) + (from_matmul + from_mul)
    assert w.grad.tobytes() == summed_then_added.tobytes()


def test_dropped_tape_is_freed_without_the_cycle_collector():
    w = Parameter("w", np.ones((3, 2)))
    tape = Tape()
    hidden = tape.linear_relu(tape.constant(np.ones((4, 3))), tape.watch(w))
    tape.backward(tape.sum(tape.concat([hidden, hidden], axis=1)))
    ref = weakref.ref(tape)
    gc.disable()
    try:
        del tape, hidden
        assert ref() is None
    finally:
        gc.enable()


def test_disconnected_graph():
    tape = Tape()
    loss = tape.sum(tape.constant(np.ones(3)))
    with pytest.raises(DisconnectedGraph):
        tape.backward(loss)


def test_quadratic_bowl_fd_error_tiny():
    w = Parameter("w", np.array([0.3, -0.7, 1.1]))

    def fn(tape):
        wt = tape.watch(w)
        return tape.sum(tape.mul(wt, wt))

    assert finite_difference_check(fn, [w], h=1e-5) < 1e-9


def _mlp_loss(params, x):
    def fn(tape):
        h = tape.linear_relu(tape.constant(x), tape.watch(params[0]), tape.watch(params[1]))
        out = tape.linear(h, tape.watch(params[2]), tape.watch(params[3]))
        return tape.sum(tape.mul(out, out))

    return fn


def test_two_layer_mlp_fd_check():
    rng = np.random.default_rng(7)
    params = [
        Parameter("w1", rng.standard_normal((4, 5))),
        Parameter("b1", rng.standard_normal(5)),
        Parameter("w2", rng.standard_normal((5, 2))),
        Parameter("b2", rng.standard_normal(2)),
    ]
    x = rng.standard_normal((3, 4))
    assert finite_difference_check(_mlp_loss(params, x), params, h=1e-5) < 1e-4


@pytest.mark.parametrize("op", ["segment_ops"])
def test_fd_check_per_op(op):
    rng = np.random.default_rng(11)
    w = Parameter("w", rng.standard_normal((6, 4)) + 0.1)

    def fn(tape):
        wt = tape.watch(w)
        if op == "segment_ops":
            segments = Segments(np.array([0, 0, 1, 1, 2, 2]), 3)
            s = tape.segment_sum(wt, segments)
            m = tape.segment_mean(wt, segments)
            out = tape.add(s, tape.add(m, tape.segment_max(wt, segments)))
        return tape.sum(tape.mul(out, out))

    assert finite_difference_check(fn, [w], h=1e-6) < 1e-4


def test_dropout_deterministic_and_identity_off():
    x = np.ones((8, 8))
    tape = Tape()
    t = tape.constant(x)
    a = tape.dropout(t, 0.5, (42, 1, 3))
    b = tape.dropout(t, 0.5, (42, 1, 3))
    c = tape.dropout(t, 0.5, (42, 1, 4))
    np.testing.assert_array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    off = tape.dropout(t, 0.5, (42, 1, 3), training=False)
    np.testing.assert_array_equal(off.data, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_dropout_mask_bytes_equal_the_float64_formula(dtype, rate):
    key = (42, 3, 9)
    w = Parameter("w", np.ones((64, 48), dtype=dtype))
    tape = Tape()
    out = tape.dropout(tape.watch(w), rate, key)
    draws = rng_stream(key[0], "dropout", *key[1:]).random((64, 48))
    mask = ((draws >= rate) / (1.0 - rate)).astype(dtype)
    assert out.data.dtype == dtype and out.data.tobytes() == mask.tobytes()
    tape.backward(tape.sum(out))
    assert w.grad.tobytes() == mask.tobytes()


def test_gather_backward():
    w = Parameter("w", np.arange(12, dtype=np.float64).reshape(4, 3))

    def fn(tape):
        picked = tape.gather(tape.watch(w), Segments(np.array([0, 2, 2]), 4))
        return tape.sum(tape.mul(picked, picked))

    assert finite_difference_check(fn, [w], h=1e-6) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_backward_matches_add_at_bitwise(dtype):
    rng = np.random.default_rng(6)
    w = Parameter("w", rng.standard_normal((9, 4)).astype(dtype))
    rows = rng.integers(0, 7, size=60)  # repeated indices; rows 7 and 8 never picked
    upstream = (rng.standard_normal((60, 4)) * 10.0 ** rng.integers(-4, 5, size=(60, 1))).astype(dtype)
    tape = Tape()
    # A key-less plan keeps each segment's rows in index order, as np.add.at adds them.
    picked = tape.gather(tape.watch(w), Segments(rows, 9))
    tape.backward(tape.sum(tape.mul(picked, tape.constant(upstream))))
    expected = np.zeros_like(w.value)
    np.add.at(expected, rows, upstream)
    assert w.grad.dtype == dtype
    assert np.array_equal(w.grad, expected)


def test_gather_rejects_a_plan_over_other_rows():
    tape = Tape()
    with pytest.raises(ShapeMismatch):
        tape.gather(tape.constant(np.ones((3, 2))), Segments(np.array([0, 1]), 2))


def test_backward_frees_every_op_gradient_and_keeps_parameter_gradients():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 3))
    c = rng.standard_normal((5, 4))
    w = Parameter("w", rng.standard_normal((3, 4)))
    b = Parameter("b", rng.standard_normal(4))
    tape = Tape()
    wt, bt = tape.watch(w), tape.watch(b)
    r = tape.linear_relu(tape.constant(x), wt, bt)
    both = tape.concat([r, r], axis=1)
    loss = tape.sum(tape.mul(both, tape.constant(np.concatenate([c, c], axis=1))))
    tape.backward(loss)
    assert all(t.grad is None for t in (r, both, loss, wt, bt))
    assert all(p.grad.flags.c_contiguous and p.grad.dtype == p.value.dtype for p in (w, b))
    dh = 2.0 * c * (x @ w.value + b.value > 0)
    np.testing.assert_allclose(w.grad, x.T @ dh, rtol=1e-12)
    np.testing.assert_allclose(b.grad, dh.sum(axis=0), rtol=1e-12)


def test_backward_after_a_raising_closure_matches_a_fresh_tape():
    """A closure that raises midway spends the tape and drops what it held;
    a fresh tape then gives the gradients of a backward that never failed."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    w = Parameter("w", rng.standard_normal((3, 3)))

    def build(tape, fail):
        h = tape.matmul(tape.constant(x), tape.watch(w))

        def identity(g):
            if fail:
                fail.pop()
                raise RuntimeError("closure failed")
            return (g,)

        y = tape.custom(h.data.copy(), [h], identity)
        return tape.sum(tape.mul(y, h))  # h also gets a gradient before y's closure runs

    fresh = Tape()
    fresh.backward(build(fresh, []))
    expected = w.grad.copy()

    w.zero_grad()
    tape = Tape()
    loss = build(tape, [True])
    with pytest.raises(RuntimeError, match="closure failed"):
        tape.backward(loss)
    assert tape._ops == [] and tape._watched == {}
    with pytest.raises(SpentTape):
        tape.backward(loss)
    w.zero_grad()
    tape = Tape()
    tape.backward(build(tape, []))
    assert w.grad.tobytes() == expected.tobytes()


def _aliasing_loss(case, w, v, u):
    """A loss in which one tensor's gradient arrives through two inputs of an
    op, or through a broadcast, a bias or a sparse product."""
    sparse = scipy.sparse.random(5, 6, density=0.4, random_state=3, format="csr")

    def fn(tape):
        x = tape.scale(tape.watch(w), 1.5)  # an op output, so its gradient may be handed over
        row = tape.scale(tape.watch(v), -0.5)  # (1, 4)
        if case == "add_self":
            out = tape.add(x, x)
        elif case == "add_two_outputs":
            out = tape.add(x, tape.linear_relu(x, tape.watch(u)))  # linear_relu overwrites the g it is handed
        elif case == "concat_self":
            out = tape.concat([x, x], axis=1)
        elif case == "sub_broadcast":
            out = tape.mul(tape.sub(x, row), tape.sub(row, x))
        elif case == "mul_broadcast":
            out = tape.add(tape.mul(x, row), tape.mul(row, x))
        elif case == "sum_keepdims":
            out = tape.mul(tape.sum(x, axis=1, keepdims=True), x)
        elif case == "linear_bias":
            out = tape.linear(x, tape.watch(u), row)  # a broadcast bias
            out = tape.linear(out, tape.watch(u), out)  # a full-shape bias that is also the product's input
        elif case == "sparse_product":
            out = tape.sparse_matmul(x, sparse, sparse.T.tocsr())
        return tape.sum(tape.mul(out, out))

    return fn


@pytest.mark.parametrize(
    "case",
    ["add_self", "add_two_outputs", "concat_self", "sub_broadcast", "mul_broadcast", "sum_keepdims",
     "linear_bias", "sparse_product"],
)
def test_fd_check_handed_over_gradients(case):
    rng = np.random.default_rng(14)
    w = Parameter("w", rng.standard_normal((6, 4)))
    v = Parameter("v", rng.standard_normal((1, 4)))
    u = Parameter("u", rng.standard_normal((4, 4)) / 2)
    assert finite_difference_check(_aliasing_loss(case, w, v, u), [w, v, u], h=1e-6) < 1e-4


def test_float64_constant_times_float32_tensor_gradient():
    # Exactly representable values and step, so central differences are exact
    # for this quadratic loss up to float64 rounding.
    rng = np.random.default_rng(15)
    w = Parameter("w", (rng.integers(-64, 64, size=(3, 4)) / 64).astype(np.float32))
    c = rng.standard_normal((3, 4))

    def fn(tape):
        y = tape.scale(tape.watch(w), 1.0)  # float32 op output
        z = tape.mul(y, tape.constant(c))  # float64: y's first gradient must be copied to float32
        return tape.sum(tape.mul(z, z))

    assert finite_difference_check(fn, [w], h=1 / 64) < 1e-4
    assert w.grad.dtype == np.float32
