"""Atom/bond feature matrices and positional/structural encodings.

The per-node input matrix is the column-wise concatenation, in this exact
order, of the atom features, the Laplacian eigenvector and eigenvalue
encodings, and the k-step random-walk return probabilities.  Edge features
are the bond features alone.  All encodings are computed in float64; the
model casts to its own precision when batching.

Everything here is pure given (graph, config), so batch featurization is
safe to run concurrently.  The Laplacian's ``eigh`` runs on one BLAS thread;
the thread count is the process's, so threads that featurize at once hold
one :func:`~minifp.autodiff._one_blas_thread` region around all of them, as
fingerprint extraction does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import _one_blas_thread
from .molgraph import BOND_ORDERS, ORGANIC_ELEMENTS, MolecularGraph


#: Element slots for the one-hot encoding; anything else maps to the final slot.
ELEMENT_SLOTS = ORGANIC_ELEMENTS + ("other",)
MAX_DEGREE = 6

ATOM_FEATURE_WIDTH = len(ELEMENT_SLOTS) + (MAX_DEGREE + 1) + 4
BOND_FEATURE_WIDTH = len(BOND_ORDERS) + 2

DEFAULT_K_PE = 8
DEFAULT_RW_STEPS = 16


@dataclass
class LaplacianEncoding:
    """k_pe smallest eigenpairs of the normalized Laplacian, zero-padded."""

    vectors: np.ndarray  # (N, k_pe), unit-norm columns, canonical sign
    values: np.ndarray  # (N, k_pe), eigenvalues broadcast to every node row


@dataclass
class RandomWalkEncoding:
    probs: np.ndarray  # (N, K); entry (i, k-1) = return probability after k steps


@dataclass
class AssembledFeatures:
    """Model-ready node matrix and edge matrix for one molecule."""

    node_features: np.ndarray
    edge_features: np.ndarray


def feature_layout(k_pe: int = DEFAULT_K_PE, rw_steps: int = DEFAULT_RW_STEPS) -> dict:
    """Machine-readable column layout of the node and edge matrices."""
    return {
        "node": [
            {"name": "atom_element_onehot", "width": len(ELEMENT_SLOTS)},
            {"name": "atom_degree_onehot", "width": MAX_DEGREE + 1},
            {"name": "atom_formal_charge", "width": 1},
            {"name": "atom_is_aromatic", "width": 1},
            {"name": "atom_in_ring", "width": 1},
            {"name": "atom_hydrogen_count", "width": 1},
            {"name": "laplacian_eigenvectors", "width": k_pe},
            {"name": "laplacian_eigenvalues", "width": k_pe},
            {"name": "random_walk_return", "width": rw_steps},
        ],
        "edge": [
            {"name": "bond_order_onehot", "width": len(BOND_ORDERS)},
            {"name": "bond_conjugated", "width": 1},
            {"name": "bond_in_ring", "width": 1},
        ],
    }


def atom_features(graph: MolecularGraph) -> np.ndarray:
    """Per-atom features: element one-hot, degree one-hot, charge, flags, H count."""
    n = graph.num_atoms
    out = np.zeros((n, ATOM_FEATURE_WIDTH), dtype=np.float64)
    degrees = [0] * n
    for bond in graph.bonds:
        degrees[bond.u] += 1
        degrees[bond.v] += 1
    for i, atom in enumerate(graph.atoms):
        col = 0
        slot = ELEMENT_SLOTS.index(atom.element) if atom.element in ELEMENT_SLOTS else len(ELEMENT_SLOTS) - 1
        out[i, col + slot] = 1.0
        col += len(ELEMENT_SLOTS)
        out[i, col + min(degrees[i], MAX_DEGREE)] = 1.0
        col += MAX_DEGREE + 1
        out[i, col] = atom.formal_charge
        out[i, col + 1] = 1.0 if atom.aromatic else 0.0
        out[i, col + 2] = 1.0 if atom.in_ring else 0.0
        out[i, col + 3] = atom.total_hydrogens
    return out


def bond_features(graph: MolecularGraph) -> np.ndarray:
    """Per-bond features: order one-hot, conjugated flag, in-ring flag."""
    out = np.zeros((graph.num_bonds, BOND_FEATURE_WIDTH), dtype=np.float64)
    for i, bond in enumerate(graph.bonds):
        out[i, BOND_ORDERS.index(bond.order)] = 1.0
        out[i, len(BOND_ORDERS)] = 1.0 if bond.conjugated else 0.0
        out[i, len(BOND_ORDERS) + 1] = 1.0 if bond.in_ring else 0.0
    return out


def adjacency_matrix(graph: MolecularGraph) -> np.ndarray:
    n = graph.num_atoms
    adj = np.zeros((n, n), dtype=np.float64)
    for bond in graph.bonds:
        adj[bond.u, bond.v] = 1.0
        adj[bond.v, bond.u] = 1.0
    return adj


def normalized_laplacian(graph: MolecularGraph) -> np.ndarray:
    """L = I - D^(-1/2) A D^(-1/2); isolated nodes get diagonal entry 0."""
    adj = adjacency_matrix(graph)
    degrees = adj.sum(axis=1)
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1.0)), 0.0)
    lap = -(inv_sqrt[:, None] * adj * inv_sqrt[None, :])
    lap[np.diag_indices_from(lap)] = np.where(degrees > 0, 1.0, 0.0)
    return lap


def _canonical_sign(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip each column so its first non-negligible component is positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, col]) > tol)
        if nz.size and out[nz[0], col] < 0:
            out[:, col] = -out[:, col]
    return out


def laplacian_encoding(graph: MolecularGraph, k_pe: int = DEFAULT_K_PE) -> LaplacianEncoding:
    """Eigenvectors/eigenvalues of the k_pe smallest Laplacian eigenpairs.

    The trivial eigenvector is kept.  When the graph has fewer than k_pe
    nodes, the trailing columns are zero-padded.  Columns are sign-canonical;
    inside a degenerate eigenspace the basis is whatever LAPACK returns for
    this atom order, so it is reproducible for one input but not invariant
    to relabelling.
    """
    if k_pe < 1:
        raise ValueError("k_pe must be >= 1")
    n = graph.num_atoms
    lap = normalized_laplacian(graph)
    with _one_blas_thread():  # threaded LAPACK only slows a molecule-sized eigh
        values, vectors = np.linalg.eigh(lap)
    keep = min(k_pe, n)
    vec_out = np.zeros((n, k_pe), dtype=np.float64)
    val_out = np.zeros((n, k_pe), dtype=np.float64)
    vec_out[:, :keep] = _canonical_sign(vectors[:, :keep])
    val_out[:, :keep] = values[:keep]
    return LaplacianEncoding(vectors=vec_out, values=val_out)


def random_walk_encoding(graph: MolecularGraph, rw_steps: int = DEFAULT_RW_STEPS) -> RandomWalkEncoding:
    """Return probabilities of k-step uniform random walks, k = 1..rw_steps."""
    if rw_steps < 1:
        raise ValueError("rw_steps must be >= 1")
    adj = adjacency_matrix(graph)
    degrees = adj.sum(axis=1)
    transition = np.where(degrees[:, None] > 0, adj / np.maximum(degrees, 1.0)[:, None], 0.0)
    probs = np.zeros((graph.num_atoms, rw_steps), dtype=np.float64)
    power = transition.copy()
    probs[:, 0] = power.diagonal()
    for k in range(1, rw_steps):
        power = power @ transition
        probs[:, k] = power.diagonal()
    return RandomWalkEncoding(probs=probs)


def assemble(
    graph: MolecularGraph,
    k_pe: int = DEFAULT_K_PE,
    rw_steps: int = DEFAULT_RW_STEPS,
    seed: int = 0,  # unused; kept because perfbench/workloads.py passes it positionally
) -> AssembledFeatures:
    """Build the full input features for one molecule.

    Column order is atom | eigenvectors | eigenvalues | random-walk, frozen
    by :func:`feature_layout`.
    """
    lap = laplacian_encoding(graph, k_pe)
    walk = random_walk_encoding(graph, rw_steps)
    node = np.concatenate([atom_features(graph), lap.vectors, lap.values, walk.probs], axis=1)
    return AssembledFeatures(node_features=node, edge_features=bond_features(graph))
