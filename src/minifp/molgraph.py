"""SMILES parsing into molecular graphs, plus the heavy-atom count and textual
normal form the dataset filters use.  The parser computes the normal form in
the same pass as the graph.

The supported grammar subset covers organic-subset atoms (B, C, N, O, P, S,
F, Cl, Br, I and their aromatic lowercase forms), bracket atoms with charge
and hydrogen count, branches, ring closures ``1``-``9`` and ``%nn``, and the
bond symbols ``-``, ``=``, ``#``, ``:``.  Stereo markers (``/``, ``\\``,
``@``) are parsed and discarded with a warning: the pipeline's 2D graph
features ignore stereochemistry (the normal form keeps the markers).
Hydrogens are never materialized as graph nodes; implicit counts are derived
from standard valence tables so that degree-style features are well-defined.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

from .inputs import InputError


class SmilesError(InputError):
    """Base class for SMILES parse failures."""


class EmptyInput(SmilesError):
    pass


class UnbalancedBranch(SmilesError):
    pass


class UnclosedRing(SmilesError):
    pass


class UnknownAtom(SmilesError):
    pass


SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_ORDERS = (SINGLE, DOUBLE, TRIPLE, AROMATIC)

#: Organic-subset elements writable without brackets.
ORGANIC_ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_ORGANIC = ("b", "c", "n", "o", "p", "s")

#: Standard valences used to derive implicit hydrogen counts.
VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3, 5),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

_BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
_BOND_VALENCE = {SINGLE: 1.0, DOUBLE: 2.0, TRIPLE: 3.0, AROMATIC: 1.5}
_RING_LABELS = tuple(str(k) if k < 10 else f"%{k:02d}" for k in range(100))  # a label's text

_BRACKET_RE = re.compile(  # re.ASCII: \d is 0-9 only, as in ring labels
    r"^(?P<isotope>\d+)?"
    r"(?P<element>[A-Z][a-z]?|b|c|n|o|p|s|se|as)"
    r"(?P<stereo>@{1,2})?"
    r"(?P<hcount>H\d*)?"
    r"(?P<charge>\+{1,4}|-{1,4}|[+-]\d)?"
    r"(?::(?P<cls>\d+))?$",
    re.ASCII,
)


@dataclass
class Atom:
    """One heavy atom: element symbol plus the per-atom SMILES annotations."""

    element: str
    formal_charge: int = 0
    explicit_hydrogens: int = 0
    aromatic: bool = False
    in_ring: bool = False
    implicit_hydrogens: int = 0
    bracketed: bool = False

    @property
    def total_hydrogens(self) -> int:
        return self.explicit_hydrogens + self.implicit_hydrogens


@dataclass
class Bond:
    """Undirected bond between two atom indices (stored in creation order)."""

    u: int
    v: int
    order: str = SINGLE
    in_ring: bool = False
    conjugated: bool = False

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, idx: int) -> int:
        return self.v if idx == self.u else self.u


@dataclass
class MolecularGraph:
    """Atoms in first-appearance order plus the undirected bond list."""

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    smiles: str = ""  # the normal form (see normalize_smiles); empty for a graph built by hand

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    def incidence(self) -> list[list[int]]:
        """Per-atom list of incident bond indices."""
        inc: list[list[int]] = [[] for _ in self.atoms]
        for b_idx, bond in enumerate(self.bonds):
            inc[bond.u].append(b_idx)
            inc[bond.v].append(b_idx)
        return inc

    def neighbors(self, idx: int) -> list[int]:
        out = []
        for bond in self.bonds:
            if bond.u == idx:
                out.append(bond.v)
            elif bond.v == idx:
                out.append(bond.u)
        return out

    def validate(self) -> None:
        n = self.num_atoms
        seen: set[tuple[int, int]] = set()
        for bond in self.bonds:
            if not (0 <= bond.u < n and 0 <= bond.v < n):
                raise SmilesError(f"bond references invalid atom: {bond.endpoints}")
            if bond.u == bond.v:
                raise SmilesError(f"self-bond on atom {bond.u}")
            key = (min(bond.u, bond.v), max(bond.u, bond.v))
            if key in seen:
                raise SmilesError(f"duplicate bond between atoms {key}")
            seen.add(key)
        for i, atom in enumerate(self.atoms):
            if not (-4 <= atom.formal_charge <= 4):
                raise SmilesError(f"atom {i}: formal charge {atom.formal_charge} out of range")


def _tokenize(text: str):
    """Yield (kind, payload) tokens; kinds: atom, bracket, bond, stereo, open, close, ring."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise UnknownAtom(f"unterminated bracket atom at position {i}")
            yield "bracket", text[i + 1 : j]
            i = j + 1
        elif ch == "(":
            yield "open", ch
            i += 1
        elif ch == ")":
            yield "close", ch
            i += 1
        elif ch in _BOND_SYMBOLS:
            yield "bond", ch
            i += 1
        elif ch in "/\\":
            warnings.warn(
                f"stereo bond marker {ch!r} at position {i} is not supported and was discarded",
                stacklevel=3,
            )
            yield "stereo", ch
            i += 1
        elif ch == "%":
            digits = text[i + 1 : i + 3]
            if len(digits) != 2 or not (digits.isascii() and digits.isdigit()):
                raise UnclosedRing(f"malformed %nn ring closure at position {i}")
            yield "ring", int(digits)
            i += 3
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit also holds for '²' and '٣'
            yield "ring", int(ch)
            i += 1
        else:
            two = text[i : i + 2]
            if two in ("Cl", "Br"):
                yield "atom", two
                i += 2
            elif ch in "BCNOPSFI" or ch in "bcnops":
                yield "atom", ch
                i += 1
            else:
                raise UnknownAtom(f"unsupported symbol {ch!r} at position {i}")


def _parse_bracket(token: str) -> Atom:
    match = _BRACKET_RE.match(token)
    if match is None:
        raise UnknownAtom(f"malformed bracket atom [{token}]")
    element = match.group("element")
    aromatic = element[0].islower()
    if match.group("stereo"):
        warnings.warn(
            f"chirality marker in [{token}] is not supported and was discarded",
            stacklevel=4,
        )
    hcount = 0
    if match.group("hcount"):
        digits = match.group("hcount")[1:]
        hcount = int(digits) if digits else 1
    charge = 0
    raw = match.group("charge")
    if raw:
        if raw[-1].isdigit():
            charge = int(raw[1:]) * (1 if raw[0] == "+" else -1)
        else:
            charge = len(raw) * (1 if raw[0] == "+" else -1)
    if not (-4 <= charge <= 4):
        raise SmilesError(f"formal charge {charge} outside [-4, 4] in [{token}]")
    return Atom(
        element=element.capitalize(),
        formal_charge=charge,
        explicit_hydrogens=hcount,
        aromatic=aromatic,
        bracketed=True,
    )


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a :class:`MolecularGraph`.

    Atoms are numbered by first appearance in the string.  A bond with no
    explicit symbol between two aromatic atoms is aromatic, otherwise single.
    The graph's ``smiles`` is the text's normal form (see
    :func:`normalize_smiles`), built token by token in the same pass.

    Raises:
        EmptyInput: blank input.
        UnbalancedBranch: unmatched ``(`` or ``)``.
        UnclosedRing: a ring-closure digit left dangling.
        UnknownAtom: a symbol outside the supported subset and not bracketed.
    """
    if not text or not text.strip():
        raise EmptyInput("empty SMILES string")

    graph = MolecularGraph()
    normal: list[str] = []  # the normal form's pieces, one per token
    anchor: int | None = None
    pending_bond: str | None = None
    branch_stack: list[int | None] = []
    open_rings: dict[int, tuple[int, str | None, int]] = {}  # ring -> (atom, bond, new label)
    next_label = 1

    def attach(new_idx: int) -> None:
        nonlocal pending_bond
        if anchor is not None:
            order = pending_bond
            if order is None:
                both_aromatic = graph.atoms[anchor].aromatic and graph.atoms[new_idx].aromatic
                order = AROMATIC if both_aromatic else SINGLE
            graph.bonds.append(Bond(anchor, new_idx, order))
        pending_bond = None

    for kind, payload in _tokenize(text):
        if kind == "atom":
            normal.append(payload)
            if payload.islower():
                atom = Atom(element=payload.capitalize(), aromatic=True)
            else:
                atom = Atom(element=payload)
            graph.atoms.append(atom)
            idx = len(graph.atoms) - 1
            attach(idx)
            anchor = idx
        elif kind == "bracket":
            normal.append(f"[{payload}]")
            graph.atoms.append(_parse_bracket(payload))
            idx = len(graph.atoms) - 1
            attach(idx)
            anchor = idx
        elif kind == "ring":
            if anchor is None:
                raise UnclosedRing(f"ring closure {payload} before any atom")
            if payload in open_rings:
                partner, partner_order, label = open_rings.pop(payload)
                order = pending_bond if pending_bond is not None else partner_order
                if (
                    pending_bond is not None
                    and partner_order is not None
                    and pending_bond != partner_order
                ):
                    raise SmilesError(f"conflicting bond orders on ring closure {payload}")
                if order is None:
                    both_aromatic = graph.atoms[partner].aromatic and graph.atoms[anchor].aromatic
                    order = AROMATIC if both_aromatic else SINGLE
                if partner == anchor:
                    raise SmilesError(f"ring closure {payload} bonds an atom to itself")
                graph.bonds.append(Bond(partner, anchor, order))
            else:
                if next_label < 100:
                    label = next_label
                    next_label += 1
                else:  # past %99 a label is reused: the lowest one not open now
                    in_use = {entry[2] for entry in open_rings.values()}
                    label = next(k for k in (*range(1, 100), 0) if k not in in_use)
                open_rings[payload] = (anchor, pending_bond, label)
            pending_bond = None
            normal.append(_RING_LABELS[label])
        else:
            normal.append(payload)
            if kind == "bond":
                if pending_bond is not None:
                    raise SmilesError(f"two consecutive bond symbols before position of {payload!r}")
                pending_bond = _BOND_SYMBOLS[payload]
            elif kind == "open":
                if anchor is None:
                    raise UnbalancedBranch("branch opened before any atom")
                branch_stack.append(anchor)
            elif kind == "close":
                if not branch_stack:
                    raise UnbalancedBranch("unmatched ')'")
                anchor = branch_stack.pop()
            # a stereo mark stays in the normal form; the graph ignores it

    if branch_stack:
        raise UnbalancedBranch(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnclosedRing(f"dangling ring closures: {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesError("trailing bond symbol")

    graph.smiles = "".join(normal)
    annotate(graph)
    return graph


def annotate(graph: MolecularGraph) -> MolecularGraph:
    """Validate a graph and (re)derive ring, hydrogen, and conjugation marks.

    Use this after constructing a :class:`MolecularGraph` programmatically
    rather than through :func:`parse_smiles`.
    """
    graph.validate()
    _mark_rings(graph)
    _assign_implicit_hydrogens(graph)
    _mark_conjugation(graph)
    return graph


def _mark_rings(graph: MolecularGraph) -> None:
    """Flag ring bonds (non-bridge edges) and their atoms, iteratively."""
    n = graph.num_atoms
    inc = graph.incidence()
    disc = [-1] * n
    low = [0] * n
    is_bridge = [False] * len(graph.bonds)
    timer = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        # Iterative DFS: stack entries are (node, incoming bond idx, iterator pos).
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, in_bond, pos = stack[-1]
            if pos < len(inc[node]):
                stack[-1] = (node, in_bond, pos + 1)
                b_idx = inc[node][pos]
                if b_idx == in_bond:
                    continue
                nxt = graph.bonds[b_idx].other(node)
                if disc[nxt] < 0:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, b_idx, 0))
                else:
                    low[node] = min(low[node], disc[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        is_bridge[in_bond] = True
    for b_idx, bond in enumerate(graph.bonds):
        bond.in_ring = not is_bridge[b_idx]
        if bond.in_ring:
            graph.atoms[bond.u].in_ring = True
            graph.atoms[bond.v].in_ring = True


def _assign_implicit_hydrogens(graph: MolecularGraph) -> None:
    """Fill implicit H from valence tables; bracket atoms keep their explicit count."""
    inc = graph.incidence()
    for idx, atom in enumerate(graph.atoms):
        if atom.bracketed:
            atom.implicit_hydrogens = 0
            continue
        order_sum = math.ceil(sum(_BOND_VALENCE[graph.bonds[b].order] for b in inc[idx]))
        choices = [v for v in VALENCES.get(atom.element, ()) if v >= order_sum]
        atom.implicit_hydrogens = (min(choices) - order_sum) if choices else 0


def _mark_conjugation(graph: MolecularGraph) -> None:
    """Simplified conjugation rule: a bond is conjugated when it is aromatic
    or when both endpoints carry some multiple-order or aromatic bond."""
    inc = graph.incidence()
    unsaturated = [
        any(graph.bonds[b].order != SINGLE for b in inc[i]) for i in range(graph.num_atoms)
    ]
    for bond in graph.bonds:
        bond.conjugated = bond.order == AROMATIC or (
            unsaturated[bond.u] and unsaturated[bond.v]
        )


def heavy_atom_count(graph: MolecularGraph) -> int:
    """Number of non-hydrogen atoms (explicit H nodes are never created)."""
    return sum(1 for atom in graph.atoms if atom.element != "H")


def normalize_smiles(text: str) -> str:
    """Deterministic textual normal form of a SMILES string.

    Strips whitespace and renumbers ring-closure labels by first appearance
    (past 99, reusing the lowest label not open); everything else (including
    atom order and stereo markers) is preserved, so this is a textual
    normalization, not graph canonicalization: "CCO" and "OCC" stay distinct.
    It is the ``smiles`` of the parsed graph; parse errors propagate.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_smiles(text).smiles
