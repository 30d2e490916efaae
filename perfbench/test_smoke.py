"""Smoke test of the benchmark at toy sizes.

Checks that every metric ``BENCHMARK.json`` names is emitted with its unit,
that the correctness checks run and catch broken outputs, and that a
checkout without ``src`` is refused.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import metrics  # noqa: E402
from workloads import PROFILES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_metric_table():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [{"name": m[0], "unit": m[1], "better": m[2]} for m in metrics.LAYER]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = harness.measure(workload, seed=3, seconds=0.1, trace=trace, size="tiny", root=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= (3 if trace else 1)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # Every recorded tape op's backward closure was found and timed under its own layer.
        assert result["metrics"]["trace.unwrapped_tape_ops"]["value"] == 0
    json.dumps(result)


def _one_op(name: str, workdir: Path, seed: int = 5):
    wl = WORKLOADS[name](PROFILES["tiny"][name], seed, workdir)
    wl.setup()
    _, _, outputs = wl.run(None)
    return wl, outputs


def test_checks_pass_on_good_outputs_and_digests_repeat(tmp_path):
    for name in WORKLOADS:
        wl, outputs = _one_op(name, tmp_path / "a")
        problems, digest = wl.check(outputs)
        assert problems == [] and digest
        again, outputs = _one_op(name, tmp_path / "b")
        assert again.check(outputs) == ([], digest)


def test_checks_catch_broken_outputs(tmp_path):
    wl, outputs = _one_op("fingerprint", tmp_path)
    store_path = outputs[-1]
    raw = bytearray(store_path.read_bytes())
    raw[-1] ^= 0x01
    store_path.write_bytes(bytes(raw))
    from minifp import fingerprints

    broken = outputs[:3] + (fingerprints.store_read(store_path), store_path)
    assert any("bit-equal" in p for p in wl.check(broken)[0])

    wl, outputs = _one_op("pretrain", tmp_path)
    model = outputs[0][1]
    next(iter(model.params.values())).value[0] += 1.0
    assert any("best.ckpt" in p for p in wl.check(outputs)[0])

    wl, outputs = _one_op("downstream", tmp_path)
    summary = outputs[-1] / "summary.csv"
    header, row = summary.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    cells[header.split(",").index("test_mean")] = "0.25"
    summary.write_text(header + "\n" + ",".join(cells) + "\n", encoding="utf-8")
    assert any("above chance" in p for p in wl.check(outputs)[0])


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "downstream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_every_layer_metric_names_what_it_should_move():
    named = {n for n, _ in metrics.NAMED_THROUGHPUT.values()} | {"setup_s"}
    for name, *_, moves in metrics.LAYER:
        assert all(metric in named and workload in WORKLOADS for metric, workload in moves), name


def test_tape_ops_whose_backward_is_not_found_are_counted():
    import numpy as np
    from minifp import autodiff
    from spans import Tracer

    tracer = Tracer()
    tracer.begin_run("op", 0)

    def matmul_then_another_op(tape, a, b):
        out = autodiff.Tape.matmul(tape, a, b)
        tape._ops.append((tape.constant(0.0), lambda g: None))  # the tape records something after it
        return out

    tape = autodiff.Tape()
    x = tape.watch(autodiff.Parameter("x", np.ones((2, 2), np.float32)))
    tracer.wrap_tape_op("autodiff.matmul")(autodiff.Tape.matmul)(tape, x, x)
    tracer.wrap_tape_op("autodiff.matmul")(autodiff.Tape.matmul)(autodiff.Tape(recording=False), x, x)
    assert tracer.per_run("trace.unwrapped_tape_ops", counts=True) == 0
    tracer.wrap_tape_op("autodiff.matmul")(matmul_then_another_op)(tape, x, x)
    assert tracer.per_run("trace.unwrapped_tape_ops", counts=True) == 1
