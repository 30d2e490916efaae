"""The container file: bit-exact round trips, and every damage one error."""

import json
import re

import numpy as np
import pytest

from minifp import container
from minifp.container import CorruptFile

from .util import edit_header, header_span, rewrite_header

FIELDS = {"note": str}


def _records():
    rng = np.random.default_rng(9)
    return {
        "layer0/w": rng.standard_normal((3, 5)).astype(np.float32),
        "layer0/b": rng.standard_normal(5).astype(np.float32),
        "eps": np.array([0.25], dtype=np.float32),
    }


def test_round_trip_is_bit_exact_and_rewrites_byte_identical(tmp_path):
    records = _records()
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, records)
    header, loaded = container.read(path, FIELDS)
    assert header == {"note": "x"}
    assert list(loaded) == list(records)
    for name, value in records.items():
        assert loaded[name].dtype == np.float32 and loaded[name].flags.writeable
        assert np.array_equal(loaded[name], value)
    container.write(tmp_path / "b.bin", {"note": "x"}, records)
    assert path.read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_float64_records_are_stored_as_float32(tmp_path):
    path = tmp_path / "a.bin"
    container.write(path, {"note": ""}, {"w": np.array([1 / 3, 2.0])})
    assert container.read(path, FIELDS)[1]["w"].tobytes() == np.array([1 / 3, 2.0], dtype="<f4").tobytes()


def test_truncated_at_every_offset_or_with_a_byte_appended_raises(tmp_path):
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, {"w": np.ones((2, 3), dtype=np.float32), "b": np.zeros(3, np.float32)})
    raw = path.read_bytes()
    for data in [raw[:offset] for offset in range(len(raw))] + [raw + b"\0"]:
        path.write_bytes(data)
        with pytest.raises(CorruptFile):
            container.read(path, FIELDS)


@pytest.mark.parametrize("shape", [[3, 2**30], [2**20, 2**20], [2**31, 2**31], [2**80]])
def test_a_shape_beyond_the_file_raises_before_allocating(tmp_path, shape):
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, {"w": np.ones((2, 3), dtype=np.float32)})
    edit_header(path, lambda header: header["records"][0].update(shape=shape))
    with pytest.raises(CorruptFile, match="truncated record 'w'"):
        container.read(path, FIELDS)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:-1], "not UTF-8 JSON"),
        (lambda raw: b"\xff" + raw[1:], "not UTF-8 JSON"),
        (lambda raw: b"[" * 100_000, "not UTF-8 JSON"),
        (lambda raw: b"[]", "must be a JSON object"),
        (lambda raw: raw.replace(b'"note":"x"', b'"note":1'), "'note' must be a string"),
        (lambda raw: raw.replace(b'"note":"x",', b""), "missing required key 'note'"),
        (lambda raw: raw.replace(b'"note"', b'"other"'), "unknown key 'other'"),
        (lambda raw: raw.replace(b'"name":"w",', b""), "records[0]: missing required key 'name'"),
        (lambda raw: raw.replace(b"[2,3]", b"[2,-3]"), "records[0]: shape [2, -3] is not a list of sizes"),
        (lambda raw: raw.replace(b"[2,3]", b"[2,true]"), "is not a list of sizes"),
        (lambda raw: raw.replace(b"[2,3]", b"[" + b"1," * 64 + b"6]"), "maximum supported dimension"),
    ],
    ids=["truncated", "not-utf8", "nested-too-deep", "not-an-object", "retyped", "missing-key", "unknown-key",
         "nameless-record", "negative-size", "boolean-size", "too-many-dimensions"],
)
def test_a_damaged_header_raises(tmp_path, edit, message):
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, {"w": np.ones((2, 3), dtype=np.float32)})
    rewrite_header(path, edit)
    with pytest.raises(CorruptFile, match=re.escape(message)):
        container.read(path, FIELDS)


def test_a_repeated_record_name_raises(tmp_path):
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, {"w": np.ones(2, dtype=np.float32), "v": np.ones(2, dtype=np.float32)})
    edit_header(path, lambda header: header["records"][1].update(name="w"))
    with pytest.raises(CorruptFile, match="name 'w' repeats"):
        container.read(path, FIELDS)


def test_another_magic_or_version_raises(tmp_path):
    path = tmp_path / "a.bin"
    container.write(path, {"note": "x"}, {})
    raw = path.read_bytes()
    assert json.loads(raw[slice(*header_span(raw))]) == {"note": "x", "records": []}
    for damaged, message in [(b"MFPS" + raw[4:], "not a minifp container"), (raw[:4] + b"\x02" + raw[5:], "version 2")]:
        path.write_bytes(damaged)
        with pytest.raises(CorruptFile, match=message):
            container.read(path, FIELDS)


def test_an_interrupted_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"previous")
    with pytest.raises(KeyboardInterrupt):
        with container.atomic_open(path) as fh:
            fh.write(b"partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
