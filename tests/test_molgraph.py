import warnings

import pytest

from minifp import molgraph
from minifp.molgraph import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    TRIPLE,
    EmptyInput,
    UnbalancedBranch,
    UnclosedRing,
    UnknownAtom,
    filter_molecules,
    heavy_atom_count,
    normalize_smiles,
    parse_smiles,
    write_smiles,
)


def test_ethanol():
    g = parse_smiles("CCO")
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert len(g.bonds) == 2
    assert all(b.order == SINGLE for b in g.bonds)
    assert g.bonds[0].endpoints == (0, 1)
    assert g.bonds[1].endpoints == (1, 2)


def test_benzene():
    g = parse_smiles("c1ccccc1")
    assert len(g.atoms) == 6
    assert all(a.element == "C" and a.aromatic for a in g.atoms)
    assert len(g.bonds) == 6
    assert all(b.order == AROMATIC for b in g.bonds)
    assert all(b.in_ring for b in g.bonds)
    assert all(a.in_ring for a in g.atoms)
    # Aromatic carbon with two ring bonds carries one implicit hydrogen.
    assert all(a.total_hydrogens == 1 for a in g.atoms)


def test_bracket_ammonium():
    g = parse_smiles("[NH4+]")
    assert len(g.atoms) == 1
    atom = g.atoms[0]
    assert atom.element == "N"
    assert atom.formal_charge == 1
    assert atom.explicit_hydrogens == 4
    assert atom.implicit_hydrogens == 0


@pytest.mark.parametrize(
    "text, exc",
    [
        ("C(C", UnbalancedBranch),
        ("CC)", UnbalancedBranch),
        ("C1CC", UnclosedRing),
        ("", EmptyInput),
        ("   ", EmptyInput),
        ("CXC", UnknownAtom),
        ("[+]", UnknownAtom),
        ("C[", UnknownAtom),
    ],
)
def test_parse_errors(text, exc):
    with pytest.raises(exc):
        parse_smiles(text)


def test_bond_symbols():
    g = parse_smiles("C=C")
    assert g.bonds[0].order == DOUBLE
    g = parse_smiles("C#N")
    assert g.bonds[0].order == TRIPLE
    g = parse_smiles("C-C")
    assert g.bonds[0].order == SINGLE


def test_two_letter_elements():
    g = parse_smiles("ClCBr")
    assert [a.element for a in g.atoms] == ["Cl", "C", "Br"]


def test_branching():
    g = parse_smiles("CC(C)(C)C")  # neopentane
    assert len(g.atoms) == 5
    assert g.degree(1) == 4
    assert sorted(g.neighbors(1)) == [0, 2, 3, 4]


def test_ring_closure_percent():
    g1 = parse_smiles("C1CCCCC1")
    g2 = parse_smiles("C%12CCCCC%12")
    assert len(g1.bonds) == len(g2.bonds) == 6


def test_ring_digit_reuse():
    # Marker 1 closes then reopens for the second ring.
    g = parse_smiles("C1CC1C1CC1")
    assert len(g.bonds) == 7
    assert sum(b.in_ring for b in g.bonds) == 6


def test_stereo_discarded_with_warning():
    with pytest.warns(UserWarning):
        g = parse_smiles("F/C=C/F")
    assert len(g.atoms) == 4
    with pytest.warns(UserWarning):
        g = parse_smiles("[C@H](F)(Cl)Br")
    assert g.atoms[0].explicit_hydrogens == 1


def test_implicit_hydrogens_from_valence():
    g = parse_smiles("C")
    assert g.atoms[0].implicit_hydrogens == 4
    g = parse_smiles("O")
    assert g.atoms[0].implicit_hydrogens == 2
    g = parse_smiles("C#N")
    assert g.atoms[0].implicit_hydrogens == 1
    assert g.atoms[1].implicit_hydrogens == 0
    g = parse_smiles("c1ccncc1")  # pyridine: aromatic N carries no H
    n_atom = next(a for a in g.atoms if a.element == "N")
    assert n_atom.implicit_hydrogens == 0


def test_conjugation_flags():
    g = parse_smiles("C=CC=C")  # butadiene: all bonds touch unsaturated atoms
    assert all(b.conjugated for b in g.bonds)
    g = parse_smiles("CCC")
    assert not any(b.conjugated for b in g.bonds)
    g = parse_smiles("c1ccccc1")
    assert all(b.conjugated for b in g.bonds)


def test_ring_flags_on_mixed_molecule():
    g = parse_smiles("CC1CC1")  # methylcyclopropane
    assert not g.atoms[0].in_ring
    assert all(g.atoms[i].in_ring for i in (1, 2, 3))
    ring_bonds = [b for b in g.bonds if b.in_ring]
    assert len(ring_bonds) == 3


def test_heavy_atom_count():
    assert heavy_atom_count(parse_smiles("c1ccccc1")) == 6
    assert heavy_atom_count(parse_smiles("CCO")) == 3
    chain = "C" * 101
    assert heavy_atom_count(parse_smiles(chain)) == 101


def test_filter_molecules_threshold_and_exclusion():
    ethanol = parse_smiles("CCO")
    long_chain = parse_smiles("C" * 101)
    assert filter_molecules([ethanol, long_chain], max_heavy=100) == [ethanol]
    assert filter_molecules([ethanol], max_heavy=100, exclusion_set={normalize_smiles("CCO")}) == []
    assert filter_molecules([], max_heavy=100) == []
    # Boundary: exactly 100 heavy atoms is kept.
    chain100 = parse_smiles("C" * 100)
    assert filter_molecules([chain100], max_heavy=100) == [chain100]


def test_normalize_smiles():
    assert normalize_smiles(" CCO ") == "CCO"
    assert normalize_smiles("C1CC1") == normalize_smiles("C2CC2")
    assert normalize_smiles("CCO") != normalize_smiles("OCC")
    assert normalize_smiles("C%11CCCCC%11") == "C1CCCCC1"
    with pytest.raises(UnbalancedBranch):
        normalize_smiles("C(C")


def test_atom_order_is_first_appearance():
    g = parse_smiles("OC(N)C")
    assert [a.element for a in g.atoms] == ["O", "C", "N", "C"]


def test_incidence_lists_cover_every_bond():
    g = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")  # aspirin
    inc = g.incidence()
    for b_idx, bond in enumerate(g.bonds):
        assert b_idx in inc[bond.u]
        assert b_idx in inc[bond.v]


CORPUS = [
    "CCO",
    "c1ccccc1",
    "CC(C)(C)C",
    "C1CC1C1CC1",
    "CC(=O)Oc1ccccc1C(=O)O",
    "[NH4+]",
    "[O-]C(=O)C",
    "N#Cc1ccccc1",
    "C1CCCCC1",
    "c1ccc2ccccc2c1",
    "CC(N)C(=O)O",
    "S=C=S",
    "[Na+]",
    "[nH]1cccc1",
]


def _as_networkx(g):
    import networkx as nx

    nxg = nx.Graph()
    for i, a in enumerate(g.atoms):
        nxg.add_node(
            i,
            element=a.element,
            charge=a.formal_charge,
            aromatic=a.aromatic,
            hydrogens=a.total_hydrogens,
        )
    for b in g.bonds:
        nxg.add_edge(b.u, b.v, order=b.order)
    return nxg


@pytest.mark.parametrize(
    "smiles",
    # Past the recursion limit, and more ring bonds than two-digit markers.
    CORPUS + [pytest.param("C" * 1500, id="chain_1500"), pytest.param("C1CC1" * 120, id="rings_120")],
)
def test_round_trip_is_isomorphic(smiles):
    import networkx as nx

    g = parse_smiles(smiles)
    text = write_smiles(g)
    g2 = parse_smiles(text)
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        _as_networkx(g),
        _as_networkx(g2),
        node_match=lambda a, b: a == b,
        edge_match=lambda a, b: a == b,
    )
    try:
        assert matcher.is_isomorphic(), f"{smiles} -> {text} not isomorphic"
    finally:
        matcher.reset_recursion_limit()  # raised for large graphs and otherwise left raised


def _comb(teeth):
    """A path x, then a path w, and a tooth c_j bonded to both x_j and w_j:
    written from x_0, all ``teeth`` w-c ring bonds are open after the last w."""
    x, c, w = (list(range(k * teeth, (k + 1) * teeth)) for k in range(3))
    pairs = list(zip(x, x[1:])) + [(x[-1], w[0])] + list(zip(w, w[1:])) + list(zip(x, c)) + list(zip(w, c))
    atoms = [molgraph.Atom(element="C") for _ in range(3 * teeth)]
    return molgraph.annotate(molgraph.MolecularGraph(atoms=atoms, bonds=[molgraph.Bond(u, v) for u, v in pairs]))


def test_write_smiles_opens_at_most_99_ring_closures_at_once():
    assert len(parse_smiles(write_smiles(_comb(99))).bonds) == len(_comb(99).bonds)
    with pytest.raises(molgraph.SmilesError, match="more than 99"):
        write_smiles(_comb(100))


@pytest.mark.parametrize("smiles", CORPUS)
def test_normalize_is_idempotent(smiles):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        once = normalize_smiles(smiles)
        assert normalize_smiles(once) == once


def test_validate_rejects_bad_graphs():
    g = parse_smiles("CC")
    g.bonds[0].v = 5
    with pytest.raises(molgraph.SmilesError):
        g.validate()
