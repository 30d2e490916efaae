"""Property tests for the command line's exit contract.

Generated argument mixes and damaged inputs (dataset manifests, run configs,
SMILES lists, fingerprint stores and checkpoints) each end with exit 2, 3 or
4 and an ``error:``, ``io error:`` or ``numeric failure:`` line on stderr,
never a traceback.  Every damage is one the input's reader must reject, so
no generated case trains a model.  Seeded (``derandomize=True``) with bounded
example counts, as in ``tests/test_smiles_properties.py``.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from minifp.backbones import ModelConfig, build_model, save_model
from minifp.cli import main
from minifp.fingerprints import store_read
from minifp.manifest import CONFIG_SCHEMA
from minifp.molgraph import SmilesError, parse_smiles

from .test_cli import HEAD_CONFIG, write_dataset, write_downstream_task
from .test_smiles_properties import SMILES_ALPHABET
from .util import TOY_SMILES, header_span, rewrite_header

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

#: The line each failing exit code starts with; argparse's usage errors read "minifp ...: error: ...".
PREFIXES = {2: "error: ", 3: "io error: ", 4: "numeric failure: "}

# One epoch of a one-layer width-8 model: two steps of four molecules.
TINY_CONFIG = """num_layers = 1
d_node = 8
d_edge = 8
d_global = 8
k_pe = 2
rw_steps = 3
epochs = 1
warmup_epochs = 0
schedule = constant
batch_size = 4
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every kind, each to be copied and damaged, and a scratch directory."""
    root = tmp_path_factory.mktemp("cli_properties")
    data = root / "data"
    data.mkdir()
    write_dataset(data, smiles=TOY_SMILES[:8])
    (data / "config.txt").write_text(TINY_CONFIG)
    model = build_model(ModelConfig(backbone="gine", num_layers=1, d_node=4, d_edge=4, d_global=4))
    save_model(model, data / "model.ckpt")
    (data / "mols.smi").write_text("CCO\nCCN\n")
    write_downstream_task(data, data / "fp.mfps", n=10)
    (data / "head.txt").write_text(HEAD_CONFIG)
    work = root / "work"
    work.mkdir()
    return data, work


def run_cli(argv, cwd: Path) -> tuple[int, str]:
    """main's exit code, argparse's included, and its stderr; run in ``cwd`` so a relative path stays there."""
    err = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return code, err.getvalue()


def assert_exits_as_documented(argv, cwd: Path, codes=(2, 3, 4)) -> str:
    code, err = run_cli([str(arg) for arg in argv], cwd)
    assert code in codes, f"exit {code} for {argv}: {err[-500:]}"
    assert "Traceback" not in err
    lines = err.splitlines()
    assert any(line.startswith(PREFIXES[code]) or line.startswith("minifp") and ": error: " in line
               for line in lines), err[-500:]
    return err


def fresh(work: Path) -> Path:
    """An empty directory for one example's files."""
    case = work / "case"
    shutil.rmtree(case, ignore_errors=True)
    case.mkdir()
    return case


# -- argument mixes ------------------------------------------------------------

COMMANDS = ["featurize", "pretrain", "fingerprint", "downstream", "correlate", "bogus"]
OPTIONS = ["--out", "--config", "--backbone", "--seed", "--smiles-col", "--id-col", "--sweep", "--head-config",
           "--folds", "--reps", "--bogus", "-x"]
# Every input path here is unreadable as any command's first input: absent, a directory, not UTF-8,
# empty or plain words.  So no mix reaches a write.
BAD_PATHS = ["absent.json", "adir", "junk.bin", "empty.txt", "words.txt", "run*/log.jsonl"]
WORDS = ["gcn", "gine", "none", "config1", "-3", "0", "2", "1.5", "x"]


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(st.sampled_from(COMMANDS), st.lists(st.sampled_from(BAD_PATHS + WORDS), max_size=3),
       st.lists(st.tuples(st.sampled_from(OPTIONS), st.sampled_from(BAD_PATHS + WORDS)), max_size=4))
def test_argument_mixes_exit_as_documented(inputs, command, positionals, options):
    _, work = inputs
    case = fresh(work)
    (case / "adir").mkdir()
    (case / "junk.bin").write_bytes(b"\xff\xfe\x00junk")
    (case / "empty.txt").write_text("")
    (case / "words.txt").write_text("hello, world\n")
    assert_exits_as_documented([command, *positionals, *(part for pair in options for part in pair)], case)


# -- dataset manifests -----------------------------------------------------------

MANIFEST_SCHEMA = {"molecule_csv": str, "smiles_column": str, "tasks": list, "id_column": str, "exclusion_list": str}
TASK_SCHEMA = {"name": str, "level": str, "kind": str, "columns": list, "loss": str, "group": str,
               "num_classes": int, "node_csv": str}
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(-2, 2), st.text(max_size=4),
                        st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
# Label cells that are neither blank nor a finite number.
BAD_CELLS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN"]),
                      st.text("abcxyz_", min_size=1, max_size=4))


@st.composite
def manifest_damages(draw):
    """A damage the dataset readers must reject: ``edit(manifest, case)``, which changes the manifest
    dict or a CSV in ``case``, or returns the manifest's damaged bytes."""
    kind = draw(st.sampled_from(["drop", "retype", "unknown", "bad-name", "absent-file", "absent-column",
                                 "truncate", "not-utf8", "label", "node-label", "duplicate-id", "multiclass"]))
    task = draw(st.integers(0, 2))  # gap (graph regression), assay (graph binary), charge (node regression)
    draw_top = draw(st.booleans())

    def target(manifest):
        return manifest if draw_top else manifest["tasks"][task]

    if kind == "drop":
        key = draw(st.sampled_from(["molecule_csv", "smiles_column", "tasks"] if draw_top
                                   else ["name", "level", "kind", "columns"]))
        return lambda manifest, case: target(manifest).pop(key)
    if kind == "retype":
        schema = MANIFEST_SCHEMA if draw_top else TASK_SCHEMA
        key = draw(st.sampled_from(sorted(schema)))
        value = draw(JSON_VALUES.filter(lambda v: type(v) is not schema[key]))
        return lambda manifest, case: target(manifest).__setitem__(key, value)
    if kind == "unknown":
        key = draw(st.text("abcdefghij_", min_size=1, max_size=6).filter(
            lambda k: k not in MANIFEST_SCHEMA and k not in TASK_SCHEMA and k != "max_heavy_atoms"))
        return lambda manifest, case: target(manifest).__setitem__(key, 1)
    if kind == "bad-name":
        key = draw(st.sampled_from(["level", "kind", "group", "loss"]))
        value = draw(st.text("xyz", min_size=1, max_size=4))
        return lambda manifest, case: manifest["tasks"][task].__setitem__(key, value)
    if kind == "absent-file":
        key = draw(st.sampled_from(["molecule_csv", "exclusion_list", "node_csv"]))

        def absent(manifest, case):
            (manifest["tasks"][2] if key == "node_csv" else manifest)[key] = "absent.csv"
        return absent
    if kind == "absent-column":
        key = draw(st.sampled_from(["smiles_column", "id_column", "columns"]))

        def absent_column(manifest, case):
            if key == "columns":
                manifest["tasks"][task]["columns"] = ["absent"]
            else:
                manifest[key] = "absent"
        return absent_column
    if kind in ("truncate", "not-utf8"):
        fraction = draw(st.floats(0, 1, exclude_max=True))
        byte = draw(st.sampled_from([b"\xff", b"\x80", b"\xc0"]))

        def text_damage(manifest, case):
            text = json.dumps(manifest).encode()
            cut = int(fraction * len(text))  # a strict prefix of an object is not JSON
            return text[:cut] if kind == "truncate" else text[:cut] + byte + text[cut:]
        return text_damage
    cell = draw(BAD_CELLS)
    row = draw(st.integers(0, 7))
    if kind == "label":
        column = draw(st.sampled_from(["gap", "a0", "a1"]))
        return lambda manifest, case: rewrite_csv(case / "molecules.csv", row, column, cell)
    if kind == "node-label":
        change = draw(st.sampled_from(["charge", "atom_index", "repeat"]))

        def node_damage(manifest, case):
            if change == "repeat":  # an atom labelled twice
                with open(case / "node_labels.csv", "a") as fh:
                    fh.write((case / "node_labels.csv").read_text().splitlines()[1] + "\n")
            else:
                rewrite_csv(case / "node_labels.csv", 0, change, cell if change == "charge" else "99")
        return node_damage
    if kind == "duplicate-id":
        return lambda manifest, case: rewrite_csv(case / "molecules.csv", row, "mol_id", f"mol{(row + 1) % 8}")
    # A regression task (charge, else gap) read as multiclass: its real-valued labels are no class indices.
    classes = draw(st.integers(2, 4))
    return lambda manifest, case: manifest["tasks"][2 if task == 2 else 0].update(kind="multiclass",
                                                                                  num_classes=classes)


def rewrite_csv(path: Path, row: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(manifest_damages())
def test_damaged_manifest_exit_2(inputs, damage):
    data, work = inputs
    case = fresh(work)
    for name in ("molecules.csv", "node_labels.csv", "config.txt"):
        shutil.copy(data / name, case / name)
    manifest = json.loads((data / "manifest.json").read_text())
    written = damage(manifest, case)
    path = case / "manifest.json"
    if isinstance(written, bytes):
        path.write_bytes(written)
    else:
        path.write_text(json.dumps(manifest))
    argv = ["pretrain", path, "--backbone", "gcn", "--config", case / "config.txt", "--out", case / "out"]
    assert_exits_as_documented(argv, case, codes=(2,))
    assert not (case / "out" / "log.jsonl").exists()


# -- run configs -----------------------------------------------------------------

INT_KEYS = sorted(key for key, typ in CONFIG_SCHEMA.items() if typ is int)
FLOAT_KEYS = sorted(key for key, typ in CONFIG_SCHEMA.items() if typ is float)
LETTERS = st.text("abcdefxyz", min_size=1, max_size=5)  # no "inf" or "nan" can be spelled


@st.composite
def bad_config_lines(draw):
    """A line that makes a run config one ``pretrain`` must reject."""
    kind = draw(st.sampled_from(["unknown", "no-equals", "not-int", "not-float", "non-finite", "out-of-range",
                                 "bad-name"]))
    if kind == "unknown":
        return f"{draw(LETTERS.filter(lambda key: key not in CONFIG_SCHEMA))} = 1"
    if kind == "no-equals":
        return draw(st.text("abc xyz:1", min_size=1, max_size=8).filter(str.strip))
    if kind == "not-int":
        return f"{draw(st.sampled_from(INT_KEYS))} = {draw(LETTERS)}"
    if kind == "not-float":
        return f"{draw(st.sampled_from(FLOAT_KEYS))} = {draw(LETTERS)}"
    if kind == "non-finite":
        return f"{draw(st.sampled_from(FLOAT_KEYS))} = {draw(st.sampled_from(['nan', 'inf', '-inf', '1e999']))}"
    if kind == "out-of-range":
        key, values = draw(st.sampled_from([
            ("num_layers", st.integers(-3, 0)), ("d_node", st.integers(-3, 0)), ("epochs", st.integers(-3, 0)),
            ("batch_size", st.integers(-3, 0)), ("k_pe", st.integers(-3, 0)), ("rw_steps", st.integers(-3, 0)),
            ("max_heavy", st.integers(-3, 0)), ("warmup_epochs", st.integers(2, 50)),
            ("dropout", st.floats(1, 5)), ("k", st.floats(-5, 0)), ("peak_lr", st.floats(-1, 0)),
            ("train_fraction", st.floats(1.5, 5)),
        ]))
        return f"{key} = {draw(values)}"
    key = draw(st.sampled_from(["schedule", "pool", "dtype", "backbone"]))
    return f"{key} = x{draw(LETTERS)}"


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(bad_config_lines(), st.booleans())
def test_damaged_run_config_exit_2(inputs, line, not_utf8):
    data, work = inputs
    case = fresh(work)
    config = case / "config.txt"
    config.write_bytes(TINY_CONFIG.encode() + (b"\xff\n" if not_utf8 else b"") + line.encode() + b"\n")
    argv = ["pretrain", data / "manifest.json", "--backbone", "gcn", "--config", config, "--out", case / "out"]
    assert_exits_as_documented(argv, case, codes=(2,))
    assert not (case / "out" / "log.jsonl").exists()


def test_a_diverging_run_exit_4(inputs):
    data, work = inputs
    case = fresh(work)
    config = case / "config.txt"
    config.write_text(TINY_CONFIG + "peak_lr = 1e30\nepochs = 3\n")
    argv = ["pretrain", data / "manifest.json", "--backbone", "gcn", "--config", config, "--out", case / "out"]
    err = assert_exits_as_documented(argv, case, codes=(4,))
    assert err.startswith("numeric failure: non-finite loss")


# -- SMILES lists ----------------------------------------------------------------

SMILES_TEXT = st.text(SMILES_ALPHABET + ',"é', max_size=12)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.lists(SMILES_TEXT, min_size=1, max_size=6))
def test_every_molecule_row_featurizes_or_is_a_failure_row(inputs, texts):
    _, work = inputs
    case = fresh(work)
    with open(case / "molecules.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([["id", "smiles"], *([f"m{i}", t] for i, t in enumerate(texts))])
    (case / "manifest.json").write_text(
        json.dumps({"molecule_csv": "molecules.csv", "smiles_column": "smiles", "id_column": "id", "tasks": []})
    )
    code, err = run_cli(["featurize", str(case / "manifest.json"), "--out", str(case / "out")], case)
    assert code == 0, err
    with open(case / "out" / "failures.csv", encoding="utf-8", newline="") as fh:
        failed = [int(row["row"]) for row in csv.DictReader(fh)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert failed == [i for i, text in enumerate(texts) if not parses(text.strip())]


def parses(text: str) -> bool:
    try:
        parse_smiles(text)
    except SmilesError:
        return False
    return True


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.lists(st.tuples(st.text("abc", min_size=1, max_size=2), SMILES_TEXT), min_size=1, max_size=5),
       st.sampled_from(["repeated-id", "not-utf8", "absent-column", "id-is-another-smiles"]))
def test_damaged_smiles_list_exit_2(inputs, rows, damage):
    data, work = inputs
    case = fresh(work)
    rows = [[f"{molecule_id}{i}", text] for i, (molecule_id, text) in enumerate(rows)]
    if damage == "repeated-id":  # a row with a blank SMILES is skipped, so both rows hold one
        rows += [["twice", "CCO"], ["twice", "CCN"]]
    elif damage == "id-is-another-smiles":  # a row without an id is stored under its normal form, another row's id
        rows += [["CCO", "CCN"], ["", "CCO"]]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([["id", "smiles"], *rows])
    raw = buffer.getvalue().encode()
    (case / "mols.csv").write_bytes(raw + b"\xffbad,C\n" if damage == "not-utf8" else raw)
    column = "structure" if damage == "absent-column" else "smiles"
    argv = ["fingerprint", data / "model.ckpt", case / "mols.csv", "--id-col", "id", "--smiles-col", column,
            "--out", case / "fp.mfps"]
    assert_exits_as_documented(argv, case, codes=(2,))
    assert not (case / "fp.mfps").exists()


# -- fingerprint stores and checkpoints ------------------------------------------


@st.composite
def byte_damages(draw, regions):
    """``damage(raw) -> raw`` for a file: a strict prefix, bytes appended, or a byte of one of
    ``regions`` (name -> (start, stop)) replaced by another value."""
    kind = draw(st.sampled_from(["truncate", "append", *regions]))
    if kind == "truncate":
        fraction = draw(st.floats(0, 1, exclude_max=True))
        return lambda raw: raw[: int(fraction * len(raw))]
    if kind == "append":
        extra = draw(st.binary(min_size=1, max_size=8))
        return lambda raw: raw + extra
    start, stop = regions[kind]
    offset = draw(st.integers(start, stop - 1))
    flip = draw(st.integers(1, 255))
    return lambda raw: raw[:offset] + bytes([raw[offset] ^ flip]) + raw[offset + 1:]


# A container: magic, version and header length (9 bytes), then the JSON header; the first and
# the last byte of the header open and close its object, so any other byte there breaks the JSON.
# In a store's header a change to the first id's first byte ("d0") is caught by the store reader
# (not UTF-8, or a JSON string no longer) or else the labelled id "d0" is missing from the store.
PREFIX_REGIONS = {"magic": (0, 4), "version": (4, 5), "header-length": (5, 9)}


def header_regions(raw: bytes) -> dict[str, tuple[int, int]]:
    start, stop = header_span(raw)
    return {**PREFIX_REGIONS, "header-open": (start, start + 1), "header-close": (stop - 1, stop)}


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.data())
def test_damaged_store_exit_2(inputs, data_strategy):
    data, work = inputs
    case = fresh(work)
    raw = (data / "fp.mfps").read_bytes()
    assert store_read(data / "fp.mfps").ids()[0] == "d0"
    first_id = raw.index(b'"d0"') + 1
    damage = data_strategy.draw(byte_damages({**header_regions(raw), "id": (first_id, first_id + 1)}))
    (case / "fp.mfps").write_bytes(damage(raw))
    argv = ["downstream", case / "fp.mfps", data / "task.json", "--sweep", "none", "--head-config", data / "head.txt",
            "--folds", "2", "--reps", "1", "--out", case / "out"]
    assert_exits_as_documented(argv, case, codes=(2,))
    assert not (case / "out" / "summary.csv").exists()


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(st.data(), st.sampled_from(["bytes", "header-truncated", "header-not-utf8", "header-retyped",
                                   "header-nested-too-deep", "no-checkpoint"]))
def test_damaged_checkpoint_exit_2_or_3(inputs, data_strategy, damage):
    data, work = inputs
    case = fresh(work)
    checkpoint = case / "model.ckpt"
    raw = (data / "model.ckpt").read_bytes()
    checkpoint.write_bytes(raw)
    expected = 2
    if damage == "bytes":
        checkpoint.write_bytes(data_strategy.draw(byte_damages(header_regions(raw)))(raw))
    elif damage == "header-truncated":
        rewrite_header(checkpoint, lambda header: header[: len(header) // 2])
    elif damage == "header-not-utf8":
        rewrite_header(checkpoint, lambda header: b"\xff" + header)
    elif damage == "header-retyped":
        rewrite_header(checkpoint, lambda header: header.replace(b'"num_layers":1', b'"num_layers":"1"'))
        assert checkpoint.read_bytes() != raw
    elif damage == "header-nested-too-deep":
        rewrite_header(checkpoint, lambda header: b"[" * 100_000)
    else:
        os.remove(checkpoint)
        expected = 3
    argv = ["fingerprint", checkpoint, data / "mols.smi", "--out", case / "fp.mfps"]
    assert_exits_as_documented(argv, case, codes=(expected,))
    assert not (case / "fp.mfps").exists()
