"""The golden toy run (``tests/golden_pipeline.py``) against the files in ``tests/golden/``.

A change that moves output bits on purpose rewrites those files in the same
commit (``PYTHONPATH=src python -m tests.golden_pipeline``) and names each
moved file in CHANGES.md.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from .golden_pipeline import GOLDEN, machine_facts, run_pipeline

# Normwise bounds, max|run - golden| <= bound * max|golden| over each summary
# array, for a machine whose facts differ from the golden file's.  Sized from
# the pipeline under OPENBLAS_CORETYPE=Haswell against SkylakeX: at most
# 6.2e-5 on the epoch losses, 8.9e-3 on the fingerprint rows (gine) and 0 on
# the fold scores, of which one changed rank moves a score by ~0.06.  On the
# golden machine every number must match bit for bit.
CROSS_MACHINE_BOUND = {"pretrain": 1e-3, "fingerprints": 5e-2, "folds": 0.1}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _arrays(tree: dict, prefix: str = ""):
    """(path, float64 array) of each leaf list of a summary."""
    for key, value in sorted(tree.items()):
        if isinstance(value, dict):
            yield from _arrays(value, f"{prefix}{key}/")
        else:
            yield f"{prefix}{key}", np.asarray(value, dtype=np.float64)


def summary_errors(summary: dict, golden: dict, bound: dict[str, float]) -> list[str]:
    """One line per summary array outside its section's normwise bound of the golden one."""
    ours, theirs = dict(_arrays(summary)), dict(_arrays(golden))
    if ours.keys() != theirs.keys():
        return [f"summary keys differ: {sorted(ours.keys() ^ theirs.keys())}"]
    errors = []
    for path, expected in theirs.items():
        got = ours[path]
        if got.shape != expected.shape:
            errors.append(f"{path}: shape {got.shape} != {expected.shape}")
            continue
        gap = float(np.max(np.abs(got - expected), initial=0.0))
        allowed = bound[path.split("/")[0]] * float(np.max(np.abs(expected), initial=0.0))
        if not gap <= allowed:
            errors.append(f"{path}: max |difference| {gap:.3e} > {allowed:.3e}")
    return errors


def test_golden_numbers(golden_run):
    _, summary = golden_run
    golden_machine = _golden("digests.json")["machine"]
    same_machine = machine_facts() == golden_machine
    bound = dict.fromkeys(CROSS_MACHINE_BOUND, 0.0) if same_machine else CROSS_MACHINE_BOUND
    errors = summary_errors(summary, _golden("summary.json"), bound)
    assert not errors, "\n".join(errors)


def test_golden_digests(golden_run):
    digests, _ = golden_run
    golden = _golden("digests.json")
    facts = machine_facts()
    if facts != golden["machine"]:
        pytest.skip(f"golden digests were written on {golden['machine']}, this machine is {facts}")
    moved = sorted(
        name for name in digests.keys() | golden["files"].keys() if digests.get(name) != golden["files"].get(name)
    )
    assert not moved, f"output files moved: {moved}"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS's Haswell kernels are x86-64")
def test_cross_machine_bound_holds_under_other_blas_kernels(tmp_path):
    """The pipeline on OpenBLAS's Haswell kernels stays within CROSS_MACHINE_BOUND of the golden numbers."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "tests.golden_pipeline", str(tmp_path)], cwd=root, env=env, check=True, timeout=300
    )
    facts = json.loads((tmp_path / "digests.json").read_text())["machine"]
    if facts["openblas_core"] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell was not honoured: {facts}")
    summary = json.loads((tmp_path / "summary.json").read_text())
    errors = summary_errors(summary, _golden("summary.json"), CROSS_MACHINE_BOUND)
    assert not errors, "\n".join(errors)
