"""Named, deterministic RNG streams.

Every source of randomness in the pipeline (parameter init, the global-node
seed vector, dataset shuffles, dropout masks) draws from a stream derived
from ``(master_seed, stream_name)`` so that runs are bit-reproducible and
streams never alias each other.

Every split is :func:`seeded_split` on its own stream: ``"split"`` (92/4/4
pre-training), ``"head-split"`` (a head's 10% validation fallback),
``"kfold"`` (one ensemble repetition's folds), ``"downstream-split"`` (the
80/20 fallback of ``kfold_ensemble`` and ``minifp downstream``),
``"sweep-split"`` (the CLI sweep's 10% cut).
"""

from __future__ import annotations

import zlib

import numpy as np


def stream_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32 is platform-independent)."""
    return zlib.crc32(name.encode("utf-8"))


def rng_stream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for the stream ``name`` under ``seed``.

    Extra integer indices select sub-streams (e.g. per-epoch shuffles,
    per-repetition seeds) without consuming state from the parent stream.
    """
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, stream_key(name)) + tuple(
        int(i) & 0xFFFFFFFFFFFFFFFF for i in indices
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, name: str, *indices: int) -> int:
    """Derive a child integer seed (for handing to components that reseed)."""
    return int(rng_stream(seed, name, *indices).integers(0, 2**63 - 1))


def seeded_split(n: int, seed: int, name: str, sections) -> list[np.ndarray]:
    """Sorted parts of the stream's permutation of ``range(n)``, cut by
    ``np.array_split`` (``sections``: a part count or a list of cut positions)."""
    order = rng_stream(seed, name).permutation(n)
    return [np.sort(part) for part in np.array_split(order, sections)]
