"""Seeded inputs for the benchmark: SMILES lists, pre-training labels, a fingerprint store.

Everything here is a pure function of ``(seed, size parameters)``.  Molecule
sizes come from a fixed quantile schedule that the seed only shuffles, so every
seed puts the same amount of graph work in front of the program; the seed
changes which molecules are drawn, not how big the workload is.

SMILES are built from fragments the ``minifp`` parser accepts: chains, branches,
aliphatic and aromatic rings (ring closures), double/triple bonds and bracket
atoms.  Ring labels in the canonical text are numbered by first appearance
without reuse, which is the normal form ``normalize_smiles`` produces; a
duplicate line is a textual variant of a canonical line (inner whitespace,
renamed ring digits) that normalizes back to it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# (tokens, heavy atoms); "R<k>" opens or closes the k-th ring of the fragment.
_RINGS = [
    (["c", "R1", "c", "c", "c", "c", "c", "R1"], 6),  # benzene
    (["c", "R1", "c", "c", "n", "c", "c", "R1"], 6),  # pyridine
    (["c", "R1", "c", "c", "[nH]", "c", "R1"], 5),  # pyrrole
    (["c", "R1", "c", "c", "o", "c", "R1"], 5),  # furan
    (["c", "R1", "c", "c", "s", "c", "R1"], 5),  # thiophene
    (["C", "R1", "C", "C", "C", "C", "C", "R1"], 6),  # cyclohexane
    (["C", "R1", "C", "C", "N", "C", "C", "R1"], 6),  # piperidine
    (["C", "R1", "C", "C", "O", "C", "R1"], 5),  # tetrahydrofuran
    (["C", "R1", "C", "C", "R1"], 3),  # cyclopropane
    (["c", "R1", "c", "c", "c", "R2", "c", "c", "c", "c", "c", "R2", "c", "R1"], 10),  # naphthalene
]
_LINKS = [(["C"], 1)] * 6 + [
    (["N"], 1), (["O"], 1), (["S"], 1), (["C", "=", "C"], 2), (["C", "#", "C"], 2),
]
_SUBSTITUENTS = [
    (["F"], 1), (["Cl"], 1), (["Br"], 1), (["C"], 1), (["O"], 1), (["N"], 1),
    (["=", "O"], 1), (["C", "#", "N"], 2), (["[O-]"], 1), (["[NH3+]"], 1),
    (["[N+]", "(", "=", "O", ")", "[O-]"], 3), (["C", "(", "F", ")", "(", "F", ")", "F"], 4),
]
_SIZE_MIN = 5

_MALFORMED = (
    lambda text: text + "(C",  # unbalanced branch
    lambda text: text + "C9",  # ring 9 left open: canonical labels are never reused
    lambda text: text[:1] + "Q" + text[1:],  # unknown atom symbol
)


def size_schedule(n: int, median: float, sigma: float, cap: int, tail: int = 0) -> list[int]:
    """Heavy-atom counts at the n mid-quantiles of a log-normal, ascending.

    The ``tail`` largest entries are replaced by an even ramp up to ``cap``,
    so a run always holds its few biggest molecules.
    """
    dist = NormalDist()
    sizes = [
        min(cap, max(_SIZE_MIN, round(median * math.exp(sigma * dist.inv_cdf((i + 0.5) / n)))))
        for i in range(n)
    ]
    if tail:
        start = sizes[n - tail - 1]
        for k in range(tail):
            sizes[n - tail + k] = round(start + (cap - start) * (k + 1) / tail)
    return sizes


def _molecule_tokens(rng: random.Random, size: int) -> list[str]:
    """Tokens of one molecule with exactly ``size`` heavy atoms."""
    tokens: list[str] = []
    atoms = 0
    rings = 0

    def put(fragment: list[str]) -> None:
        nonlocal rings
        base = rings
        for tok in fragment:
            if tok.startswith("R"):
                rings = max(rings, base + int(tok[1:]))
                tokens.append(f"R{base + int(tok[1:])}")
            else:
                tokens.append(tok)

    while atoms < size:
        left = size - atoms
        roll = rng.random()
        if roll < 0.3:
            choices = [f for f in _RINGS if f[1] <= left]
        elif roll < 0.5 and atoms > 0:
            # A substituent hangs off a new chain carbon; the main chain goes on after it.
            choices = [f for f in _SUBSTITUENTS if f[1] <= left - 1]
            if choices:
                frag, n = rng.choice(choices)
                put(["C", "("] + frag + [")"])
                atoms += n + 1
                continue
        else:
            choices = [f for f in _LINKS if f[1] <= left]
        frag, n = rng.choice(choices or [(["C"], 1)])
        put(frag)
        atoms += n
    return tokens


def _ring_text(label: int) -> str:
    return str(label) if label < 10 else f"%{label:02d}"


def render(tokens: list[str]) -> str:
    """Canonical text: ring labels by first appearance, never reused."""
    return "".join(_ring_text(int(t[1:])) if t.startswith("R") else t for t in tokens)


def render_variant(tokens: list[str], rng: random.Random) -> str:
    """Another text for the same molecule, which ``normalize_smiles`` maps back."""
    labels = sorted({int(t[1:]) for t in tokens if t.startswith("R")})
    digits = list(range(1, 10))
    rng.shuffle(digits)
    # Fragments close each ring before the ring nine labels later opens, so
    # cycling through nine shuffled digits never reuses a label still open.
    rename = {label: digits[i % 9] for i, label in enumerate(labels)}
    pieces = [_ring_text(rename[int(t[1:])]) if t.startswith("R") else t for t in tokens]
    gaps = [i for i in range(1, len(pieces)) if rng.random() < 0.15] or [len(pieces) // 2 or 1]
    for i in reversed(gaps):
        pieces.insert(i, " ")
    return "".join(pieces)


@dataclass
class SmilesSet:
    lines: list[str]  # file order
    unique: list[str]  # canonical text of each distinct valid molecule, first-seen order
    sizes: list[int]  # heavy atoms of each entry of ``unique``
    malformed: list[str]  # the malformed lines, file order

    @property
    def duplicate_frac(self) -> float:
        return 1.0 - (len(self.unique) + len(self.malformed)) / len(self.lines)

    @property
    def malformed_frac(self) -> float:
        return len(self.malformed) / len(self.lines)


def smiles_set(seed: int, n_lines: int, median: float, sigma: float, cap: int, tail: int = 0,
               duplicate_frac: float = 0.0, malformed_frac: float = 0.0) -> SmilesSet:
    """Distinct molecules plus textual duplicates and malformed lines, shuffled."""
    rng = random.Random(seed)
    n_dup = round(n_lines * duplicate_frac)
    n_bad = round(n_lines * malformed_frac)
    sizes = size_schedule(n_lines - n_dup - n_bad, median, sigma, cap, tail)
    rng.shuffle(sizes)
    molecules = [_molecule_tokens(rng, s) for s in sizes]
    # (line text, canonical text or None when malformed, heavy atoms)
    entries = [(render(t), render(t), s) for t, s in zip(molecules, sizes)]
    for _ in range(n_dup):
        k = rng.randrange(len(molecules))
        entries.append((render_variant(molecules[k], rng), render(molecules[k]), sizes[k]))
    for i in range(n_bad):
        entries.append((_MALFORMED[i % len(_MALFORMED)](render(rng.choice(molecules))), None, 0))
    rng.shuffle(entries)
    unique: dict[str, int] = {}
    for _, canonical, size in entries:
        if canonical is not None and canonical not in unique:
            unique[canonical] = size
    return SmilesSet(
        lines=[text for text, _, _ in entries],
        unique=list(unique),
        sizes=list(unique.values()),
        malformed=[text for text, canonical, _ in entries if canonical is None],
    )


# -- labels ----------------------------------------------------------------------


def pretrain_labels(seed: int, graphs, present: dict[str, float]):
    """Sparse synthetic labels for the G25, PCBA and N4 task groups.

    Values are simple functions of each graph plus noise, so the tasks are
    learnable; ``present`` gives the share of label cells that are filled.
    Returns ``{task name: (level, kind, group, values, mask)}``.
    """
    rng = np.random.default_rng(seed)
    stats = np.array([
        [g.num_atoms, g.num_bonds - g.num_atoms + 1, sum(a.aromatic for a in g.atoms),
         sum(a.element != "C" for a in g.atoms)]
        for g in graphs
    ], dtype=np.float64)
    stats = (stats - stats.mean(axis=0)) / (stats.std(axis=0) + 1e-9)
    n = len(graphs)
    g25 = stats @ rng.standard_normal((4, 5)) + 0.1 * rng.standard_normal((n, 5))
    pcba = (stats @ rng.standard_normal((4, 8)) + 0.5 * rng.standard_normal((n, 8)) > 0).astype(np.float64)
    atoms = [a for g in graphs for a in g.atoms]
    degree = np.concatenate([np.bincount([x for b in g.bonds for x in (b.u, b.v)], minlength=g.num_atoms) for g in graphs])
    node = np.stack([
        degree.astype(np.float64),
        [float(a.aromatic) for a in atoms],
        [float(a.in_ring) for a in atoms],
        [float(a.total_hydrogens) for a in atoms],
    ], axis=1) + 0.1 * rng.standard_normal((len(atoms), 4))
    out = {}
    for name, level, kind, group, values in (
        ("g25", "graph", "regression", "G25", g25),
        ("pcba", "graph", "binary", "PCBA", pcba),
        ("n4", "node", "regression", "N4", node),
    ):
        mask = (rng.random(values.shape) < present[group]).astype(np.float64)
        out[name] = (level, kind, group, np.where(mask > 0, values, 0.0), mask)
    return out


@dataclass
class DownstreamData:
    ids: list[str]
    vectors: np.ndarray  # (N, dim) float32
    labels: np.ndarray  # (N,) in {0, 1}
    present: np.ndarray  # (N,) bool, False for an empty label cell


def downstream_data(seed: int, n: int, dim: int, empty_frac: float) -> DownstreamData:
    """Fingerprint-like vectors with a planted linear signal in a binary label."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    w = rng.standard_normal(dim)
    score = vectors.astype(np.float64) @ w / math.sqrt(dim)
    labels = (score + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
    present = np.ones(n, dtype=bool)
    present[rng.permutation(n)[: round(n * empty_frac)]] = False
    return DownstreamData([f"mol{i:05d}" for i in range(n)], vectors, labels, present)
