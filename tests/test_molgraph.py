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
    heavy_atom_count,
    normalize_smiles,
    parse_smiles,
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
        # Ring labels are ASCII digits: str.isdigit also holds for a superscript or an Arabic-Indic digit.
        ("CC\u00b2", UnknownAtom),
        ("C\u0663CC\u0663", UnknownAtom),
        ("C%\u0663\u0664CC%\u0663\u0664", UnclosedRing),
        ("[CH\u0663]", UnknownAtom),
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
    assert len(g.neighbors(1)) == 4
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
    g = parse_smiles("C1CC1" * 120)  # marker 1 reused for 120 rings
    assert (g.num_atoms, g.num_bonds) == (360, 479)
    assert sum(b.in_ring for b in g.bonds) == 360


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
    g = parse_smiles("C" * 1500)  # past the recursion limit
    assert (heavy_atom_count(g), g.num_bonds) == (1500, 1499)
    assert not any(b.in_ring for b in g.bonds)


def test_filter_molecules_threshold_and_exclusion():
    # The two checks build_pretrain_dataset's filter makes of each molecule.
    max_heavy = 100
    assert heavy_atom_count(parse_smiles("C" * 100)) <= max_heavy  # the boundary is kept
    assert heavy_atom_count(parse_smiles("C" * 101)) > max_heavy
    assert heavy_atom_count(parse_smiles("[NH4+]")) == 1  # hydrogens do not count
    exclusion = {normalize_smiles("CCO"), normalize_smiles("C2CC2")}
    assert parse_smiles("CCO").smiles in exclusion
    assert parse_smiles("C1CC1").smiles in exclusion
    assert parse_smiles("OCC").smiles not in exclusion
    assert parse_smiles("C1CCC1").smiles not in exclusion


def test_normalize_smiles():
    assert normalize_smiles(" CCO ") == "CCO"
    assert normalize_smiles("C1CC1") == normalize_smiles("C2CC2")
    assert normalize_smiles("CCO") != normalize_smiles("OCC")
    assert normalize_smiles("C%11CCCCC%11") == "C1CCCCC1"
    with pytest.raises(UnbalancedBranch):
        normalize_smiles("C(C")


# Past label 99 the lowest label not open is reused: 120 rings in a row read 1..99, then 1 again.
_RINGS_120 = "".join(f"C{k}CC{k}" if k < 10 else f"C%{k}CC%{k}" for k in range(1, 100)) + "C1CC1" * 21


@pytest.mark.parametrize(
    "smiles, normal",
    [
        ("C2CC2", "C1CC1"),
        ("C1CC1C1CC1", "C1CC1C2CC2"),
        ("C3CC12CC2C1C3", "C1CC23CC3C2C1"),
        ("C%11CCCCC%11", "C1CCCCC1"),
        ("c1ccc%12ccccc%12c1", "c1ccc2ccccc2c1"),
        ("C1CC1" * 120, _RINGS_120),
        ("F/C=C/F", "F/C=C/F"),
        ("F\\C=C/F", "F\\C=C/F"),
        ("[C@@H](F)(Cl)Br", "[C@@H](F)(Cl)Br"),
        ("[13CH3]", "[13CH3]"),
        ("[13CH3]C7CC7", "[13CH3]C1CC1"),
        (" C C(\tO) N\n", "CC(O)N"),
    ],
    ids=["first-appearance", "no-reuse-below-100", "nested", "percent", "percent-aromatic", "past-99",
         "stereo-slash", "stereo-backslash", "chirality", "isotope", "isotope-then-ring", "whitespace"],
)
def test_the_parsed_graph_carries_the_normal_form(smiles, normal):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert parse_smiles(smiles).smiles == normal
    assert normalize_smiles(smiles) == normal


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


@pytest.mark.parametrize(
    "smiles",
    # Past the recursion limit, and more ring closures than two-digit markers.
    CORPUS + [pytest.param("C" * 1500, id="chain_1500"), pytest.param("C1CC1" * 120, id="rings_120")],
)
def test_round_trip_is_isomorphic(smiles):
    # The normal form is a molecule's id, so it must parse back to the same graph, atom for atom.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = parse_smiles(smiles)
        text = normalize_smiles(smiles)
        g2 = parse_smiles(text)
    assert (g2.atoms, g2.bonds) == (g.atoms, g.bonds), f"{smiles} -> {text}"


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
