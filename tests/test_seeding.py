"""Every seeded split routed through ``seeding.seeded_split`` against the
permute-cut-sort each site wrote out for itself, kept here as the oracle."""

import math

import numpy as np
import pytest

from minifp import autodiff, downstream
from minifp.downstream import HeadConfig, TaskData, kfold_ensemble, kfold_partition, random_split
from minifp.fingerprints import FingerprintStore
from minifp.multitask import LabelSet
from minifp.seeding import derive_seed, rng_stream, seeded_split
from minifp.trainer import SplitSpec, split_dataset

SIZES = (3, 4, 5, 7, 10, 11, 23, 57, 100, 101, 1001)
SEEDS = (0, 3, 11)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_seeded_split_cuts_a_sorted_permutation_by_count_or_positions():
    order = rng_stream(5, "name").permutation(10)
    parts = seeded_split(10, 5, "name", [3, 7])
    assert [p.tolist() for p in parts] == [sorted(order[:3]), sorted(order[3:7]), sorted(order[7:])]
    by_count = seeded_split(10, 5, "name", 3)
    assert [len(p) for p in by_count] == [4, 3, 3]
    assert sorted(np.concatenate(by_count).tolist()) == list(range(10))
    assert [len(p) for p in seeded_split(0, 5, "name", [1])] == [0, 0]


@pytest.mark.parametrize("seed", SEEDS)
def test_split_dataset_matches_the_inline_split_bitwise(seed):
    for n in SIZES:
        for fractions in ((0.92, 0.04, 0.04), (0.5, 0.3, 0.2), (0.8, 0.2, 0.0)):
            spec = SplitSpec(fractions=fractions, seed=seed)
            order = rng_stream(seed, "split").permutation(n)
            n_train = math.floor(n * fractions[0])
            n_valid = math.floor(n * fractions[1])
            expected = (
                sorted(int(i) for i in order[:n_train]),
                sorted(int(i) for i in order[n_train : n_train + n_valid]),
                sorted(int(i) for i in order[n_train + n_valid :]),
            )
            got = split_dataset(list(range(n)), spec)
            assert got == expected
            assert all(type(i) is int for part in got for i in part)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_split_and_kfold_partition_match_the_inline_splits_bitwise(seed):
    for n in (1, 2) + SIZES:
        order = rng_stream(seed, "head-split").permutation(n)
        n_valid = max(1, math.floor(n * 0.1)) if n > 1 else 0
        train, valid = random_split(n, 0.1, seed)
        assert _same(train, np.sort(order[n_valid:]))
        assert _same(valid, np.sort(order[:n_valid]))
    for n in SIZES:
        for num_folds in (2, 3, 5):
            if n < num_folds:
                continue
            order = rng_stream(seed, "kfold").permutation(n)
            folds = kfold_partition(n, num_folds, seed)
            expected = [np.sort(chunk) for chunk in np.array_split(order, num_folds)]
            assert len(folds) == num_folds and all(_same(f, e) for f, e in zip(folds, expected))


class _RowEcho:
    """Stands in for a trained head: records which store rows it is asked about.

    It ran no validation pass, so ``kfold_ensemble`` asks it for the held-out rows too."""

    valid_logits = None

    def __init__(self, calls: list):
        self.calls = calls

    def predict(self, x):
        self.calls.append(x[:, 0].astype(np.int64))
        return np.zeros((len(x), 1))


@pytest.mark.parametrize("seed", SEEDS)
def test_kfold_ensemble_fallback_split_matches_the_inline_split_bitwise(seed, monkeypatch):
    n, num_folds, num_reps = 23, 3, 2
    store = FingerprintStore(2)
    ids = [f"m{i}" for i in range(n)]
    for i, molecule_id in enumerate(ids):
        store.add(molecule_id, np.array([i, 0.0]))  # the first coordinate names the row
    labels = np.zeros((n, 1))
    data = TaskData(ids=ids, labels=LabelSet(labels, np.ones_like(labels)), kind="regression")
    trained, predicted = [], []

    def fake_train_head(store, data, config, seed, train_idx, valid_idx):
        trained.append((seed, train_idx, valid_idx))
        return _RowEcho(predicted)

    monkeypatch.setattr(downstream, "train_head", fake_train_head)
    monkeypatch.setattr(autodiff, "_available_cores", lambda: 1)  # the fake heads run in this process
    kfold_ensemble(store, data, HeadConfig(), num_folds=num_folds, num_reps=num_reps, metric="mae", seed=seed)

    order = rng_stream(seed, "downstream-split").permutation(n)
    split = max(1, int(round(n * 0.8)))
    train_rows, test_rows = np.sort(order[:split]), np.sort(order[split:])
    for rep in range(num_reps):
        rep_seed = derive_seed(seed, "ensemble-rep", rep)
        fold_order = rng_stream(rep_seed, "kfold").permutation(len(train_rows))
        folds = [np.sort(chunk) for chunk in np.array_split(fold_order, num_folds)]
        for fold_id, fold in enumerate(folds):
            head_seed, train_part, held_out = trained[rep * num_folds + fold_id]
            assert head_seed == rep_seed + fold_id
            assert _same(held_out, train_rows[fold])
            rest = np.concatenate([f for j, f in enumerate(folds) if j != fold_id])
            assert _same(train_part, train_rows[rest])
        # Each fold head predicts its held-out rows, then the test rows, before the next fold trains.
        calls = predicted[rep * 2 * num_folds : (rep + 1) * 2 * num_folds]
        assert all(np.array_equal(c, train_rows[f]) for c, f in zip(calls[0::2], folds))
        assert all(np.array_equal(c, test_rows) for c in calls[1::2])
