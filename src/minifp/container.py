"""The one binary file format: model checkpoints and fingerprint stores alike.

Layout (little-endian): the magic ``MFPC``, a version byte, the header's
length in bytes as uint32, the header, then float32 records back to back.
The header is a UTF-8 JSON object.  Its ``records`` key lists each record's
``name`` and ``shape`` in file order; its other keys are the caller's (a
model's config and heads, a store's dimension and ids).  Round trips are
bit-exact.

:func:`read` checks the header with :func:`~minifp.inputs.json_fields` and
every record size against the bytes left before it allocates, and rejects
bytes after the last record: any file that departs from the layout raises
:class:`CorruptFile`.  :func:`write` goes through :func:`atomic_open`, so a
reader never sees a half-written file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct

import numpy as np

from .inputs import InputError, ManifestError, json_fields

MAGIC = b"MFPC"
VERSION = 1
_PREFIX = struct.Struct("<4sBI")  # magic, version, header length


class CorruptFile(InputError):
    """A checkpoint or fingerprint store that is not a whole container of its kind."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Write ``<path>.tmp`` and move it over ``path`` once the block returns.

    ``path`` is never seen half written: if the block raises, the temp file
    is removed and whatever ``path`` held before stays as it was.  Replacing
    gives ``path`` a new inode, so a hard link to the old file keeps the old
    contents.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write(path, header: dict, records: dict[str, np.ndarray]) -> None:
    """Write ``header`` and ``records`` (name -> array, stored as float32 in this order) to ``path``."""
    listed = [{"name": name, "shape": list(value.shape)} for name, value in records.items()]
    text = json.dumps({**header, "records": listed}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(text)))
        fh.write(text)
        for value in records.values():
            fh.write(np.ascontiguousarray(value, dtype="<f4"))  # a float32 array's own buffer, no bytes copy


def _header(raw: bytes, where: str, fields: dict[str, type]) -> dict:
    try:
        value = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to decode
        raise CorruptFile(f"{where} is not UTF-8 JSON: {exc}") from exc
    try:
        header = json_fields(value, where, {**fields, "records": list}, {})
        for i, record in enumerate(header["records"]):
            json_fields(record, f"{where}: records[{i}]", {"name": str, "shape": list}, {})
    except ManifestError as exc:
        raise CorruptFile(str(exc)) from exc
    return header


def read(path, fields: dict[str, type]) -> tuple[dict, dict[str, np.ndarray]]:
    """The header of the container at ``path``, its keys ``fields`` (name -> JSON type)
    without ``records``, and its records as name -> float32 array."""
    with open(path, "rb") as fh:
        # Every size is checked against the file's before it is read; a pipe has no size.
        info = os.fstat(fh.fileno())
        left = info.st_size if stat.S_ISREG(info.st_mode) else math.inf
        prefix = fh.read(_PREFIX.size)
        if prefix[:4] != MAGIC:
            raise CorruptFile(f"{path}: not a minifp container (it does not start with {MAGIC.decode()})")
        if len(prefix) != _PREFIX.size:
            raise CorruptFile(f"{path}: truncated header")
        _, version, length = _PREFIX.unpack(prefix)
        if version != VERSION:
            raise CorruptFile(f"{path}: unsupported container version {version}")
        left -= _PREFIX.size + length
        raw = fh.read(length) if left >= 0 else b""
        if len(raw) != length:
            raise CorruptFile(f"{path}: truncated header")
        where = f"{path}: header"
        header = _header(raw, where, fields)
        arrays: dict[str, np.ndarray] = {}
        for i, record in enumerate(header.pop("records")):
            name, shape = record["name"], record["shape"]
            if name in arrays:
                raise CorruptFile(f"{where}: records[{i}]: name {name!r} repeats")
            if not all(type(size) is int and size >= 0 for size in shape):
                raise CorruptFile(f"{where}: records[{i}]: shape {shape} is not a list of sizes")
            left -= 4 * math.prod(shape)
            if left < 0:
                raise CorruptFile(f"{path}: truncated record {name!r}")
            try:
                data = np.empty(shape, dtype="<f4")
            except (ValueError, MemoryError) as exc:  # more dimensions than numpy allows, or a pipe's huge shape
                raise CorruptFile(f"{where}: records[{i}]: shape {shape}: {exc}") from exc
            if fh.readinto(data) != data.nbytes:
                raise CorruptFile(f"{path}: truncated record {name!r}")
            arrays[name] = data
        if fh.read(1):
            raise CorruptFile(f"{path}: bytes after the last record")
    return header, arrays
