import numpy as np

from minifp.encodings import (
    ATOM_FEATURE_WIDTH,
    BOND_FEATURE_WIDTH,
    assemble,
    atom_features,
    bond_features,
    feature_layout,
    laplacian_encoding,
    normalized_laplacian,
    random_walk_encoding,
)
from minifp.molgraph import Atom, Bond, MolecularGraph, annotate, parse_smiles

from .util import permute_graph, random_molecule


def path_graph(n):
    g = MolecularGraph(
        atoms=[Atom(element="C") for _ in range(n)],
        bonds=[Bond(i, i + 1) for i in range(n - 1)],
        smiles="C" * n,
    )
    return annotate(g)


def triangle():
    g = MolecularGraph(
        atoms=[Atom(element="C") for _ in range(3)],
        bonds=[Bond(0, 1), Bond(1, 2), Bond(0, 2)],
        smiles="C1CC1",
    )
    return annotate(g)


def test_atom_features_benzene_carbon():
    g = parse_smiles("c1ccccc1")
    feats = atom_features(g)
    row = feats[0]
    assert row[1] == 1.0  # element one-hot: C is slot 1
    assert row[11 + 2] == 1.0  # degree one-hot at 2
    charge, aromatic, ring, hcount = row[18], row[19], row[20], row[21]
    assert (charge, aromatic, ring, hcount) == (0.0, 1.0, 1.0, 1.0)


def test_atom_features_ammonium_and_isolated_carbon():
    g = parse_smiles("[NH4+]")
    row = atom_features(g)[0]
    assert row[11 + 0] == 1.0  # degree 0
    assert row[18] == 1.0  # charge +1
    assert row[21] == 4.0  # hydrogen count
    g = parse_smiles("C")
    row = atom_features(g)[0]
    assert row[11 + 0] == 1.0
    assert row[19] == 0.0  # not aromatic


def test_bond_features():
    assert bond_features(parse_smiles("C=C"))[0][1] == 1.0  # double slot
    benzene = bond_features(parse_smiles("c1ccccc1"))[0]
    assert benzene[3] == 1.0 and benzene[5] == 1.0  # aromatic slot, in-ring
    ethane = bond_features(parse_smiles("CC"))[0]
    assert ethane[0] == 1.0 and ethane[5] == 0.0


def test_feature_widths_match_layout():
    layout = feature_layout(k_pe=8, rw_steps=16)
    assert sum(c["width"] for c in layout["node"]) == ATOM_FEATURE_WIDTH + 2 * 8 + 16
    assert sum(c["width"] for c in layout["edge"]) == BOND_FEATURE_WIDTH


def test_p3_laplacian_eigenvalues():
    lap = normalized_laplacian(path_graph(3))
    # Independent dense oracle for the 3x3 matrix.
    np.testing.assert_allclose(np.linalg.eigvalsh(lap), [0.0, 1.0, 2.0], atol=1e-12)
    vectors, values = laplacian_encoding(path_graph(3), k_pe=3)
    np.testing.assert_allclose(values[0], [0.0, 1.0, 2.0], atol=1e-12)
    r = np.sqrt(0.5)
    expected = [[0.5, r, 0.5], [r, 0.0, -r], [0.5, -r, 0.5]]
    np.testing.assert_allclose(vectors, np.transpose(expected), atol=1e-12)


def test_single_node_laplacian_is_zero():
    g = annotate(MolecularGraph(atoms=[Atom(element="C")], bonds=[], smiles="C"))
    np.testing.assert_array_equal(normalized_laplacian(g), [[0.0]])
    _, values = laplacian_encoding(g, k_pe=2)
    np.testing.assert_array_equal(values, [[0.0, 0.0]])


def test_k2_laplacian():
    lap = normalized_laplacian(path_graph(2))
    np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    vectors, values = laplacian_encoding(path_graph(2), k_pe=2)
    np.testing.assert_allclose(values[0], [0.0, 2.0], atol=1e-12)
    r = np.sqrt(0.5)
    np.testing.assert_allclose(vectors, [[r, r], [r, -r]], atol=1e-12)


def test_benzene_degenerate_pairs():
    # The 6-cycle has the doubly degenerate eigenvalues 0.5 and 1.5.  Inside
    # each pair any rotation is a valid basis; the encoding pins only the
    # sign and reproducibility for a fixed atom order.
    g = parse_smiles("c1ccccc1")
    lap = normalized_laplacian(g)
    vectors, values = laplacian_encoding(g, k_pe=6)
    np.testing.assert_allclose(values[0], [0.0, 0.5, 0.5, 1.5, 1.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(6), atol=1e-10)
    assert np.abs(lap @ vectors - vectors * values[0]).max() < 1e-8
    for col in range(6):
        nz = np.flatnonzero(np.abs(vectors[:, col]) > 1e-12)
        assert vectors[nz[0], col] > 0
    again_vectors, again_values = laplacian_encoding(g, k_pe=6)
    assert np.array_equal(again_vectors, vectors)
    assert np.array_equal(again_values, values)


def test_p3_encoding_value_rows():
    _, values = laplacian_encoding(path_graph(3), k_pe=3)
    np.testing.assert_allclose(values, np.tile([0.0, 1.0, 2.0], (3, 1)), atol=1e-9)


def test_k2_padding():
    vectors, values = laplacian_encoding(path_graph(2), k_pe=4)
    np.testing.assert_array_equal(vectors[:, 2:], np.zeros((2, 2)))
    np.testing.assert_array_equal(values[:, 2:], np.zeros((2, 2)))
    assert not np.allclose(vectors[:, :2], 0.0)


def test_eigen_residuals_on_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_molecule(rng)
        lap = normalized_laplacian(g)
        vectors, values = laplacian_encoding(g, k_pe=min(8, g.num_atoms))
        for col in range(min(8, g.num_atoms)):
            v = vectors[:, col]
            lam = values[0, col]
            assert np.abs(lap @ v - lam * v).max() < 1e-8
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        vals = values[0]
        assert (vals >= -1e-9).all() and (vals <= 2.0 + 1e-9).all()


def test_eigenvector_sign_is_canonical():
    vectors, _ = laplacian_encoding(path_graph(5), k_pe=5)
    for col in range(5):
        v = vectors[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        assert v[nz[0]] > 0


def test_random_walk_k2_pattern():
    probs = random_walk_encoding(path_graph(2), rw_steps=4)
    np.testing.assert_array_equal(probs, [[0, 1, 0, 1], [0, 1, 0, 1]])


def test_random_walk_triangle():
    probs = random_walk_encoding(triangle(), rw_steps=2)
    np.testing.assert_allclose(probs[:, 1], [0.5, 0.5, 0.5], atol=1e-15)


def test_random_walk_single_node():
    g = annotate(MolecularGraph(atoms=[Atom(element="C")], bonds=[], smiles="C"))
    np.testing.assert_array_equal(random_walk_encoding(g, rw_steps=3), [[0, 0, 0]])


def test_random_walk_matches_matrix_power_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_molecule(rng)
        probs = random_walk_encoding(g, rw_steps=6)
        adj = np.zeros((g.num_atoms, g.num_atoms))
        for b in g.bonds:
            adj[b.u, b.v] = adj[b.v, b.u] = 1.0
        deg = adj.sum(axis=1)
        trans = np.where(deg[:, None] > 0, adj / np.maximum(deg, 1.0)[:, None], 0.0)
        for k in range(1, 7):
            oracle = np.linalg.matrix_power(trans, k).diagonal()
            np.testing.assert_allclose(probs[:, k - 1], oracle, atol=1e-12)


def test_random_walk_even_step_positive_for_non_bipartite():
    probs = random_walk_encoding(triangle(), rw_steps=8)
    for k in (2, 4, 6, 8):
        assert ((probs[:, k - 1] > 0) & (probs[:, k - 1] <= 1)).all()


def test_diagonal_first_step_zero():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_molecule(rng)
        probs = random_walk_encoding(g, rw_steps=3)
        np.testing.assert_array_equal(probs[:, 0], np.zeros(g.num_atoms))


def test_assemble_width_and_determinism():
    g = parse_smiles("CCO")
    feats = assemble(g, k_pe=2, rw_steps=4)
    assert feats.node_features.shape[1] == ATOM_FEATURE_WIDTH + 2 * 2 + 4
    assert feats.edge_features.shape[1] == BOND_FEATURE_WIDTH
    again = assemble(g, k_pe=2, rw_steps=4)
    assert np.array_equal(feats.node_features, again.node_features)
    assert np.array_equal(feats.edge_features, again.edge_features)


def test_permutation_equivariance_of_features():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_molecule(rng)
        perm = rng.permutation(g.num_atoms)
        gp = permute_graph(g, perm)
        base_atom = atom_features(g)
        perm_atom = atom_features(gp)
        np.testing.assert_array_equal(perm_atom[perm], base_atom)
        # Matrix powers accumulate in a label-dependent order, so random-walk
        # rows are equal only up to rounding for non-dyadic degrees.
        base_rw = random_walk_encoding(g, 5)
        perm_rw = random_walk_encoding(gp, 5)
        np.testing.assert_allclose(perm_rw[perm], base_rw, atol=1e-12)


def test_permutation_equivariance_exact_for_ethanol():
    g = parse_smiles("CCO")
    perm = np.array([2, 0, 1])
    gp = permute_graph(g, perm)
    np.testing.assert_array_equal(atom_features(gp)[perm], atom_features(g))
    # Ethanol's walk probabilities are dyadic, so rows permute bitwise.
    np.testing.assert_array_equal(
        random_walk_encoding(gp, 4)[perm], random_walk_encoding(g, 4)
    )


def test_eigenvector_rows_permute_up_to_sign():
    # Path graphs have simple spectra, so rows must match exactly after
    # permutation and canonical sign fixing.
    g = path_graph(6)
    perm = np.array([3, 0, 5, 1, 4, 2])
    gp = permute_graph(g, perm)
    base_vectors, base_values = laplacian_encoding(g, k_pe=6)
    permuted_vectors, permuted_values = laplacian_encoding(gp, k_pe=6)
    np.testing.assert_allclose(permuted_values, base_values, atol=1e-9)
    for col in range(6):
        a = base_vectors[:, col]
        b = permuted_vectors[perm, col]
        assert np.allclose(a, b, atol=1e-9) or np.allclose(a, -b, atol=1e-9)


def test_assemble_propagates_no_nan():
    rng = np.random.default_rng(6)
    # The 100-atom chain is the fingerprint workload's size cap.
    for g in [random_molecule(rng) for _ in range(10)] + [path_graph(100)]:
        feats = assemble(g)
        assert np.isfinite(feats.node_features).all()
        assert np.isfinite(feats.edge_features).all()
