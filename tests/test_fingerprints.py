import csv
import os
import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from minifp import autodiff, container, fingerprints
from minifp.autodiff import Tape, _one_blas_thread
from minifp.backbones import (
    ConstantGlobalStream,
    GraphBatch,
    ModelConfig,
    batch_graphs,
    build_model,
    default_config,
    forward,
    graph_readout,
    pool,
)
from minifp.container import CorruptFile
from minifp.encodings import assemble
from minifp.fingerprints import (
    DimensionMismatch,
    FingerprintStore,
    extract_fingerprints,
    store_read,
    store_write,
    store_write_csv,
)
from minifp.molgraph import parse_smiles
from minifp.multitask import TaskSpec, head_input

from .util import TOY_SMILES, InterruptingArray, header_span, random_molecule


def small_model(backbone="gine", **overrides):
    base = dict(
        backbone=backbone, num_layers=2, d_node=6, d_edge=6, d_global=6,
        k_pe=2, rw_steps=3, seed=0,
    )
    base.update(overrides)
    cfg = ModelConfig(**base)
    cfg.validate()
    return build_model(cfg)


def pooled(rows, graph_ids, method):
    """Pool ``rows`` as the node embeddings of a bond-free batch with these graph ids."""
    rows = np.asarray(rows, dtype=np.float64)
    batch = GraphBatch(
        node_features=rows,
        edge_features=np.zeros((0, 1)),
        senders=np.zeros(0, dtype=np.int64),
        receivers=np.zeros(0, dtype=np.int64),
        node_graph_ids=np.asarray(graph_ids, dtype=np.int64),
        edge_graph_ids=np.zeros(0, dtype=np.int64),
        num_graphs=int(max(graph_ids)) + 1,
    )
    tape = Tape(recording=False)
    return pool(tape, tape.constant(rows), batch, method).data


def test_pool_methods():
    rows = [[1.0, 2.0], [3.0, 0.0], [-1.0, 4.0], [0.5, -1.0], [4.0, 1.0]]
    ids = [0, 0, 0, 1, 1]
    np.testing.assert_array_equal(pooled(rows, ids, "sum"), [[3.0, 6.0], [4.5, 0.0]])
    np.testing.assert_array_equal(pooled(rows, ids, "mean"), [[1.0, 2.0], [2.25, 0.0]])
    np.testing.assert_array_equal(pooled(rows, ids, "max"), [[3.0, 4.0], [4.0, 1.0]])
    with pytest.raises(ValueError, match="median"):
        pooled(rows, ids, "median")


def test_pool_single_node():
    rows = [[1.0, 1.0, 1.0], [0.5, -1.5, 2.0], [3.0, 3.0, 3.0]]
    for method in ("sum", "mean", "max"):
        np.testing.assert_array_equal(pooled(rows, [0, 1, 0], method)[1], rows[1])


def test_pool_sum_equals_n_times_mean():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((13, 4))
    ids = [0] * 9 + [1] * 4
    np.testing.assert_allclose(
        pooled(rows, ids, "sum"), np.array([[9.0], [4.0]]) * pooled(rows, ids, "mean"), rtol=1e-12
    )


def test_store_rejects_wrong_dimension_and_duplicates():
    store = FingerprintStore(3)
    store.add("a", np.zeros(3))
    with pytest.raises(DimensionMismatch):
        store.add("b", np.zeros(4))
    with pytest.raises(ValueError):
        store.add("a", np.ones(3))


def test_extract_dedups_and_orders():
    model = small_model()
    store, failures = extract_fingerprints(model, ["CCO", " CCO", "CCN", "CCO"])
    assert failures == []
    assert len(store) == 2
    assert store.ids() == ["CCO", "CCN"]


def test_extract_collects_failures():
    model = small_model()
    store, failures = extract_fingerprints(model, ["CCO", "C(", "CCN"])
    assert len(store) == 2
    assert len(failures) == 1
    assert failures[0][0] == "C("


def test_extract_raises_on_invalid_k_pe():
    # A configuration error raises once instead of failing every molecule.
    with pytest.raises(ValueError, match="k_pe"):
        extract_fingerprints(small_model(k_pe=0), ["CCO", "CCN"])


def test_extract_deterministic_store_bytes(tmp_path):
    model = small_model()
    molecules = ["CCO", "c1ccccc1", "CC(C)O"]
    paths = []
    for name in ("one", "two"):
        store, _ = extract_fingerprints(model, molecules)
        path = tmp_path / f"{name}.mfps"
        store_write(store, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_extract_does_not_mutate_model():
    model = small_model()
    before = {name: p.value.tobytes() for name, p in model.params.items()}
    extract_fingerprints(model, ["CCO", "c1ccncc1"])
    assert {name: p.value.tobytes() for name, p in model.params.items()} == before


def on_cores(monkeypatch, cores):
    monkeypatch.setattr(autodiff, "_available_cores", lambda: cores)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_extracted_rows_equal_serial_forwards_on_one_blas_thread(monkeypatch, cores):
    # At default gine widths two BLAS threads round the products differently from one.
    model = build_model(default_config("gine", num_layers=2))
    cfg = model.config
    threads = set()

    def recording_forward(*args, **kwargs):
        threads.add(threading.current_thread())
        return forward(*args, **kwargs)

    on_cores(monkeypatch, cores)
    monkeypatch.setattr(fingerprints, "forward", recording_forward)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # frequent switches: a pool thread that reset the BLAS count would show
    try:
        store, _ = extract_fingerprints(model, TOY_SMILES, batch_size=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(store) == len(TOY_SMILES) and cfg.np_dtype == np.float32
    uses_pool = cores > 1 and autodiff._blas_thread_control() is not None
    assert (threading.main_thread() in threads) != uses_pool
    for start in range(0, len(TOY_SMILES), 8):
        graphs = [parse_smiles(text) for text in TOY_SMILES[start : start + 8]]
        with _one_blas_thread():
            batch = batch_graphs(graphs, [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs], dtype=cfg.np_dtype)
            tape = Tape(recording=False)
            rows = graph_readout(tape, forward(tape, batch, model, training=False), batch, cfg).data
        assert store.matrix()[start : start + 8].tobytes() == rows.tobytes(), start


@pytest.mark.skipif(autodiff._blas_thread_control() is None, reason="no OpenBLAS thread count to restore")
@pytest.mark.parametrize("cores", [1, 2])
def test_the_first_batch_to_raise_propagates_and_the_pool_and_blas_count_are_restored(monkeypatch, cores):
    # Batches of two: the second holds sulfur, the third chlorine.
    molecules = ["CCO", "CCN", "CCS", "CS", "CCCl", "CCl", "CCC", "CCCC"]

    def failing_assemble(graph, *args):
        elements = {atom.element for atom in graph.atoms}
        if "S" in elements:
            raise ValueError("the second batch")
        if "Cl" in elements:
            raise KeyError("the third batch")
        return assemble(graph, *args)

    on_cores(monkeypatch, cores)
    monkeypatch.setattr(fingerprints, "assemble", failing_assemble)
    get, put = autodiff._blas_thread_control()
    original, threads_before = get(), threading.active_count()
    put(2)
    try:
        with pytest.raises(ValueError, match="the second batch"):
            extract_fingerprints(small_model(), molecules, batch_size=2)
        assert get() == 2
    finally:
        put(original)
    assert threading.active_count() == threads_before


def test_extract_batching_matches_single():
    # mpnnpp is left out: its embeddings depend on the batch's other molecules
    # through row-count-dependent BLAS kernels.
    molecules = [f"{'C' * k}O" for k in range(1, 8)] + ["c1ccccc1O", "CC(C)(C)N"]
    for backbone in ("gcn", "gine"):
        for dtype in ("float32", "float64"):
            for method in ("sum", "mean", "max"):
                model = small_model(backbone, dtype=dtype, pool=method)
                single, _ = extract_fingerprints(model, molecules, batch_size=1)
                for batch_size in (4, 32):
                    batched, _ = extract_fingerprints(model, molecules, batch_size=batch_size)
                    assert batched == single, (backbone, dtype, method, batch_size)


@pytest.mark.parametrize("backbone", ["gcn", "gine", "mpnnpp"])
@pytest.mark.parametrize("method", ["sum", "mean", "max"])
def test_fingerprints_equal_pooled_head_input_bitwise(backbone, method):
    model = small_model(backbone, graph_head_input="pooled", pool=method)
    cfg = model.config
    molecules = ["CCO", "c1ccccc1O", "CC(=O)Nc1ccc(O)cc1", "C1CC1", "N"]
    store, _ = extract_fingerprints(model, molecules)
    graphs = [parse_smiles(m) for m in molecules]
    feats = [assemble(g, cfg.k_pe, cfg.rw_steps) for g in graphs]
    batch = batch_graphs(graphs, feats, dtype=cfg.np_dtype)
    tape = Tape(recording=False)
    result = forward(tape, batch, model)
    rows = head_input(tape, result, batch, model, TaskSpec("toy", "graph", "regression", "MAE", 1)).data
    assert np.array_equal(store.matrix(), rows)


def test_extract_global_source_dimension():
    model = small_model(backbone="mpnnpp", d_node=5, d_edge=4, d_global=7, graph_head_input="global")
    store, _ = extract_fingerprints(model, ["CCO"])
    assert store.dimension == 7


@pytest.mark.parametrize("backbone", ["gcn", "gine"])
def test_global_source_rejected_where_the_global_stream_is_constant(backbone):
    with pytest.raises(ConstantGlobalStream):
        ModelConfig(backbone=backbone, graph_head_input="global").validate()


def test_global_source_distinguishes_molecules_on_mpnnpp():
    model = small_model("mpnnpp", graph_head_input="global")
    store, _ = extract_fingerprints(model, ["CCO", "CCN", "c1ccccc1", "CC(=O)O"])
    assert len(np.unique(store.matrix(), axis=0)) == 4


def test_isomorphic_ring_spellings_identical_vectors():
    # C1CC1 relabelings share one adjacency matrix, so featurization and the
    # canonical pooled forward must agree to float32 resolution.
    model = small_model()
    store, _ = extract_fingerprints(model, [("a", "C1CC1"), ("b", "C2(CC2)")])
    assert len(store) == 2
    np.testing.assert_allclose(store.get("a"), store.get("b"), atol=1e-6)


def test_permutation_invariance_through_model():
    # Permute the model inputs (feature rows + edge indices): the fingerprint
    # must be bitwise identical at float64.  Refeaturizing a relabeled SMILES
    # is weaker because eigenvector sign canonicalization is order-dependent.
    model = small_model(dtype="float64")
    cfg = model.config
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_molecule(rng)
        feats = assemble(g, cfg.k_pe, cfg.rw_steps)
        batch = batch_graphs([g], [feats], dtype=np.float64)
        perm = rng.permutation(g.num_atoms)
        permuted = GraphBatch(
            node_features=batch.node_features[np.argsort(perm)],
            edge_features=batch.edge_features.copy(),
            senders=perm[batch.senders],
            receivers=perm[batch.receivers],
            node_graph_ids=batch.node_graph_ids.copy(),
            edge_graph_ids=batch.edge_graph_ids.copy(),
            num_graphs=1,
        )
        tape = Tape(recording=False)
        base_x = forward(tape, batch, model).x
        perm_x = forward(tape, permuted, model).x
        for method in ("sum", "mean", "max"):
            assert np.array_equal(
                pool(tape, base_x, batch, method).data, pool(tape, perm_x, permuted, method).data
            )


def test_store_round_trip(tmp_path):
    store = FingerprintStore(4)
    rng = np.random.default_rng(2)
    for i in range(5):
        store.add(f"mol-{i}", rng.standard_normal(4).astype(np.float32))
    path = tmp_path / "x.mfps"
    store_write(store, path)
    assert store_read(path) == store


def test_store_truncated_raises(tmp_path):
    store = FingerprintStore(4)
    store.add("m", np.ones(4, dtype=np.float32))
    path = tmp_path / "x.mfps"
    store_write(store, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(CorruptFile):
        store_read(path)
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CorruptFile):
        store_read(path)


def test_store_truncation_and_every_bit_flip_read_back_or_raise_corrupt_file(tmp_path):
    store = FingerprintStore(3)
    store.add("abc", np.array([1.0, -2.0, 0.5], dtype=np.float32))
    store.add("abb", np.array([0.25, 3.0, -1.5], dtype=np.float32))  # one bit flip from a duplicate id
    path = tmp_path / "x.mfps"
    store_write(store, path)
    raw = path.read_bytes()
    assert raw.endswith(store.matrix().tobytes())  # the file ends with the vectors
    for data in [raw[:cut] for cut in range(len(raw))] + [raw + b"\0"]:
        path.write_bytes(data)
        with pytest.raises(CorruptFile):
            store_read(path)
    outcomes = set()
    data_flips = 0
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            outcomes.add(len(store_read(path)))
            data_flips += bit // 8 >= header_span(raw)[1]
        except CorruptFile as exc:
            outcomes.add(type(exc).__name__)
    assert outcomes == {2, "CorruptFile"}
    assert data_flips == 8 * store.matrix().nbytes  # every flip of a vector bit reads back


def test_store_rejects_a_header_whose_ids_do_not_match_its_vectors(tmp_path):
    store = FingerprintStore(2)
    store.add("a", np.ones(2, dtype=np.float32))
    store.add("b", np.zeros(2, dtype=np.float32))
    path = tmp_path / "x.mfps"
    for header, message in [
        ({"dimension": 2, "ids": ["a", "a"]}, "repeats"),
        ({"dimension": 2, "ids": ["a", 1]}, "not a string"),
        ({"dimension": 2, "ids": ["a"]}, r"not one \(1, 2\) matrix"),
        ({"dimension": 1, "ids": ["a", "b"]}, r"not one \(2, 1\) matrix"),
    ]:
        container.write(path, header, {"vectors": store.matrix()})
        with pytest.raises(CorruptFile, match=message):
            store_read(path)
    container.write(path, {"dimension": 2, "ids": ["a", "b"]}, {"vectors": store.matrix(), "extra": np.ones(1)})
    with pytest.raises(CorruptFile, match="matrix 'vectors'"):
        store_read(path)


def test_interrupted_store_write_leaves_the_previous_store(tmp_path, monkeypatch):
    store = FingerprintStore(3)
    store.add("m", np.ones(3, dtype=np.float32))
    path = tmp_path / "x.mfps"
    store_write(store, path)
    before = path.read_bytes()
    store.add("n", np.zeros(3, dtype=np.float32))
    # The write is interrupted after the new header, while the vectors are converted.
    monkeypatch.setattr(FingerprintStore, "matrix", lambda self: InterruptingArray((2, 3)))
    with pytest.raises(KeyboardInterrupt):
        store_write(store, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.mfps"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_store_reads_from_a_pipe(tmp_path):
    store = FingerprintStore(2)
    store.add("m", np.array([1.0, 2.0], dtype=np.float32))
    store_write(store, tmp_path / "x.mfps")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (tmp_path / "x.mfps").read_bytes())
        os.close(write_end)
        assert store_read(f"/dev/fd/{read_end}") == store
    finally:
        os.close(read_end)


def test_store_dimension_check_on_read(tmp_path):
    store = FingerprintStore(4)
    store.add("m", np.ones(4, dtype=np.float32))
    path = tmp_path / "x.mfps"
    container.write(path, {"dimension": 8, "ids": ["m"]}, {"vectors": store.matrix()})
    with pytest.raises(CorruptFile, match=r"not one \(1, 8\) matrix"):
        store_read(path)


def _read_csv_export(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_csv_export(tmp_path):
    store = FingerprintStore(2)
    store.add("CCO", np.array([1.5, -2.25], dtype=np.float32))
    for molecule_id in ("mol,1", 'say "hi"', "two\r\nlines"):
        store.add(molecule_id, np.ones(2, dtype=np.float32))
    path = tmp_path / "x.csv"
    store_write_csv(store, path)
    assert path.read_bytes() == b'id,v0,v1\nCCO,1.5,-2.25\n"mol,1",1,1\n"say ""hi""",1,1\n"two\r\nlines",1,1\n'
    assert [row[0] for row in _read_csv_export(path)[1:]] == store.ids()


def test_csv_export_bytes_equal_the_per_value_formatter(tmp_path):
    f32 = np.finfo(np.float32)
    row = np.array([-0.0, f32.smallest_subnormal, f32.max, -f32.max, 0.1, 1.0 / 3.0, -7.0, 1e-30], dtype=np.float32)
    store = FingerprintStore(row.size)
    store.add("m0", row)
    store.add("m1", row[::-1].copy())
    path = tmp_path / "x.csv"
    store_write_csv(store, path)
    header = ",".join(["id"] + [f"v{i}" for i in range(row.size)])
    lines = [header] + [f"{i}," + ",".join(format(float(v), ".9g") for v in store.get(i)) for i in ("m0", "m1")]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert path.read_text().split("\n")[1] == (
        "m0,-0,1.40129846e-45,3.40282347e+38,-3.40282347e+38,0.100000001,0.333333343,-7,1e-30"
    )


# Any character a UTF-8 file can hold, with the ones CSV gives meaning to drawn often.
CSV_IDS = st.text(
    st.one_of(st.sampled_from(',"\r\n '), st.characters(blacklist_categories=("Cs",))), max_size=12
)


@given(
    ids=st.lists(CSV_IDS, min_size=1, max_size=4, unique=True),
    dimension=st.integers(1, 6),
    bits=st.lists(st.integers(0, 2**32 - 1), min_size=24, max_size=24),
)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
def test_csv_export_reads_back_bit_equal(tmp_path_factory, ids, dimension, bits):
    matrix = np.array(bits[: len(ids) * dimension], dtype=np.uint32).view(np.float32).reshape(len(ids), dimension)
    store = FingerprintStore(dimension)
    for molecule_id, row in zip(ids, matrix):
        store.add(molecule_id, row)
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    store_write_csv(store, path)
    header, *rows = _read_csv_export(path)
    assert header == ["id"] + [f"v{i}" for i in range(dimension)]
    assert [row[0] for row in rows] == ids
    assert all(len(row) == 1 + dimension for row in rows)
    back = np.array([[float(cell) for cell in row[1:]] for row in rows], dtype=np.float32)
    nan = np.isnan(matrix)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.uint32)[~nan], matrix.view(np.uint32)[~nan])


def test_store_holds_ids_of_any_length_and_character(tmp_path):
    store = FingerprintStore(1)
    for molecule_id in ("x" * 70_000, "é,\"\n", "\ud800", ""):
        store.add(molecule_id, np.ones(1, dtype=np.float32))
    store_write(store, tmp_path / "x.mfps")
    assert store_read(tmp_path / "x.mfps") == store


def test_interrupted_csv_export_leaves_the_previous_file(tmp_path, monkeypatch):
    store = FingerprintStore(1)
    store.add("m", np.ones(1, dtype=np.float32))
    store.add("n", np.zeros(1, dtype=np.float32))
    path = tmp_path / "x.csv"
    path.write_bytes(b"previous")

    def interrupt_at_n(text):
        if text == "n":
            raise KeyboardInterrupt
        return text

    monkeypatch.setattr(fingerprints, "_csv_cell", interrupt_at_n)
    with pytest.raises(KeyboardInterrupt):
        store_write_csv(store, path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
