"""Property tests for the SMILES parser and its textual normal form.

Seeded (``derandomize=True``) with bounded example counts, so every run
checks the same inputs and stays fast.
"""

import re
import warnings

import hypothesis.strategies as st
from hypothesis import given, settings

from minifp.molgraph import SmilesError, normalize_smiles, parse_smiles

# Every character the tokenizer or a bracket atom gives meaning to, plus a few it rejects,
# among them two that str.isdigit accepts: a superscript two and an Arabic-Indic three.
SMILES_ALPHABET = "BCNOPSFIlrbcnopsHaeX[]()=#-:+/\\%@.*0123456789 \u00b2\u0663"

ORGANIC = ["C", "N", "O", "S", "P", "B", "F", "Cl", "Br", "I", "c", "n", "o", "s", "p", "b"]
BRACKETS = ["[nH]", "[NH4+]", "[O-]", "[Na+]", "[13CH3]", "[Fe+2]", "[se]", "[NH2-]", "[Cu:1]", "[S--]"]
BONDS = ["", "", "", "-", "=", "#", ":"]

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def smiles_texts(draw):
    """A connected SMILES string the parser accepts: atoms joined by optional
    bond symbols, nested branches, and ring closures that never bond an atom
    to itself or repeat a bond."""
    atoms = st.sampled_from(ORGANIC + BRACKETS)
    bonds = st.sampled_from(BONDS)
    pieces = [draw(atoms)]
    num_atoms, anchor = 1, 0
    edges: set[tuple[int, int]] = set()
    branches: list[int] = []
    open_rings: dict[int, tuple[int, str]] = {}  # marker -> (atom, bond symbol written there)

    def add_atom():
        nonlocal num_atoms, anchor
        pieces.append(draw(bonds) + draw(atoms))
        edges.add((anchor, num_atoms))
        anchor, num_atoms = num_atoms, num_atoms + 1

    def can_close(marker):
        partner = open_rings[marker][0]
        return partner != anchor and (partner, anchor) not in edges and (anchor, partner) not in edges

    def ring_mark(marker, bond):
        pieces.append(bond + (str(marker) if marker < 10 else f"%{marker}"))

    def close(marker):
        partner, bond = open_rings.pop(marker)
        edges.add((partner, anchor))
        ring_mark(marker, bond or draw(bonds))  # a bond symbol at both ends must agree

    for step in draw(st.lists(st.sampled_from(["atom", "atom", "atom", "open", "close", "ring"]), max_size=30)):
        if step == "atom":
            add_atom()
        elif step == "open":
            branches.append(anchor)
            pieces.append("(")
            add_atom()
        elif step == "close" and branches:
            anchor = branches.pop()
            pieces.append(")")
        elif step == "ring":
            marker = draw(st.sampled_from([1, 2, 3, 12]))
            if marker not in open_rings:
                open_rings[marker] = (anchor, draw(bonds))
                ring_mark(marker, open_rings[marker][1])
            elif can_close(marker):
                close(marker)
    while branches:
        anchor = branches.pop()
        pieces.append(")")
    for marker in list(open_rings):
        while not can_close(marker):
            add_atom()
        close(marker)
    return "".join(pieces)


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(st.text(alphabet=SMILES_ALPHABET, max_size=40))
def test_parser_raises_only_smiles_errors(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            parse_smiles(text)
        except SmilesError:
            pass


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(smiles_texts())
def test_normalized_smiles_parses_to_the_same_graph(text):
    # Exclusion lists and fingerprint ids compare normal forms, so one must name the same molecule.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = parse_smiles(text)
        normal = normalize_smiles(text)
        again = parse_smiles(normal)
    assert (again.atoms, again.bonds) == (graph.atoms, graph.bonds), f"{text} -> {normal}"


def _ring_labels(normal):
    """The ring-closure labels of a normal form, in text order; bracket atoms hold none."""
    return [int(label.lstrip("%")) for label in re.findall(r"%\d\d|\d", re.sub(r"\[[^\]]*\]", "", normal))]


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(smiles_texts())
def test_the_normal_form_is_idempotent_and_opens_labels_in_order(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        normal = parse_smiles(text).smiles
        assert parse_smiles(normal).smiles == normal
    open_labels: set[int] = set()
    opened = []
    for label in _ring_labels(normal):
        if label in open_labels:
            open_labels.remove(label)
        else:
            open_labels.add(label)
            opened.append(label)
    # The first 99 rings to open are labelled 1, 2, 3, ... (smiles_texts never opens more).
    assert opened == list(range(1, len(opened) + 1)), f"{text} -> {normal}"
