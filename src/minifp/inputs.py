"""UTF-8 text and JSON inputs, each failure a :class:`ManifestError` naming the file.

A leaf module: the dataset readers in :mod:`minifp.manifest` and the
container header reader in :mod:`minifp.container` share its one checker,
and every module's bad-input error derives from its :class:`InputError`.
"""

from __future__ import annotations

import json
from pathlib import Path

_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", list: "an array", dict: "an object"}


class InputError(ValueError):
    """An input the pipeline cannot use: the command line exits 2 on any subclass."""


class ManifestError(InputError):
    """Malformed manifest or run config, missing columns, or inconsistent label data."""


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings as written."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError as exc:
        raise ManifestError(f"{path}: no such file") from exc
    except UnicodeError as exc:  # bytes that are not UTF-8, or a name holding a lone surrogate
        raise ManifestError(f"{path}: not UTF-8 ({exc.reason} at {exc.start})") from exc


def json_fields(value, where: str, required: dict[str, type], optional: dict[str, type]) -> dict:
    """``value``, checked to be a JSON object with every ``required`` key, no key
    outside ``required`` and ``optional``, and each value of its key's type.
    A number written without a fraction is a float too; a boolean is no number."""
    if type(value) is not dict:
        raise ManifestError(f"{where} must be a JSON object")
    schema = {**required, **optional}
    for key, item in value.items():
        if key not in schema:
            raise ManifestError(f"{where}: unknown key {key!r}")
        if type(item) is not schema[key] and not (schema[key] is float and type(item) is int):
            raise ManifestError(f"{where}: {key!r} must be {_JSON_TYPES[schema[key]]}")
    for key in required:
        if key not in value:
            raise ManifestError(f"{where}: missing required key {key!r}")
    return value


def read_json(path, required: dict[str, type], optional: dict[str, type]) -> dict:
    """A JSON file holding one object, checked by :func:`json_fields`."""
    try:
        raw = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    return json_fields(raw, str(path), required, optional)
