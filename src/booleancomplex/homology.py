"""GF(2) homology of boolean complexes.

Boundary maps are indexed by the ideal's cells in normal-form order; a
rank-k cell has k+1 distinct facets, so every column has weight k+1 and the
composite of consecutive boundaries vanishes mod 2.  Homology is reduced: the
implicit empty cell contributes an augmentation row below rank 0.
``boundary_columns`` and ``verify_cycle`` take each column from the ideal's
``face_masks``, read off the cell's element key, so no face table or normal
form is built here.

Columns are stored as Python-int bitsets; rank, kernel and reduced-echelon
bases come from plain bitset Gaussian elimination.  The top boundary has no
incoming differential, so its kernel is the top homology; its reduced-echelon
basis is the canonical cycle basis reported here.  One elimination of the
top boundary, ``gf2_kernel``, gives both that basis and the top rank of
``betti_gf2``, and is kept on the ideal, so the two share it.

A data file ships hand-derived generating cycles for the path-graph
complexes on 2..6 vertices (cells written as bracketed strings, e.g.
"[123] + [213] + [312] + [321]"); ``an_fixture_suite`` re-verifies them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .beta import fibonacci
from .graph import Graph, GraphError, _bits
from .ideal import (
    enumerate_ideal,
    format_word,
    normalize,
)

@dataclass(frozen=True)
class Gf2Chain:
    """A mod-2 chain: a set of equal-rank cells (its support)."""

    dimension: int
    support: frozenset

    def words(self):
        return sorted(self.support)


# ----------------------------------------------------------------------
# bitset elimination

def gf2_rank(columns):
    pivots = {}
    rank = 0
    for col in columns:
        while col:
            p = col.bit_length() - 1
            if p in pivots:
                col ^= pivots[p]
            else:
                pivots[p] = col
                rank += 1
                break
    return rank


def gf2_kernel(columns):
    """Kernel basis of the column map, as bitsets over column indices, in
    reduced echelon form pivoting on lowest bits and sorted by pivot, the
    form ``gf2_rref`` gives, so the basis is canonical.

    Columns are eliminated from the last one down, each pivot column
    carrying the set of columns it has absorbed, which by induction holds
    pivot columns only.  So a column j that reduces to zero gives a kernel
    vector with bit j, bits of later pivot columns, and no other free bit:
    each pivots on its own free column, which no other one holds.
    """
    pivots = {}
    kernel = []
    for j in range(len(columns) - 1, -1, -1):
        col, combo = columns[j], 1 << j
        while col:
            p = col.bit_length() - 1
            if p not in pivots:
                pivots[p] = (col, combo)
                break
            pcol, pcombo = pivots[p]
            col ^= pcol
            combo ^= pcombo
        else:
            kernel.append(combo)
    kernel.reverse()  # by pivot, ascending
    return kernel


def gf2_rref(vectors):
    """Reduced echelon form of bitset vectors, pivoting on lowest set bits;
    rows come back sorted by pivot, so the basis is canonical."""
    basis = []  # (pivot, vector)
    for vec in vectors:
        for p, b in basis:
            if (vec >> p) & 1:
                vec ^= b
        if vec:
            p = (vec & -vec).bit_length() - 1
            basis = [(q, b ^ vec if (b >> p) & 1 else b) for q, b in basis]
            basis.append((p, vec))
    basis.sort()
    return [b for _, b in basis]


# ----------------------------------------------------------------------
# the chain complex

def boundary_columns(ideal, k):
    """Columns of the rank-k boundary map as row bitsets: the ideal's face
    masks (k = 0 is the augmentation onto the empty cell)."""
    if k == 0:
        return (1,) * len(ideal.ranks[0])
    return ideal.face_masks(k)


def _top_cycles(ideal):
    """The canonical top cycle basis as bitsets over the top cells, from one
    elimination kept on the ideal."""
    if ideal._top_cycles is None:
        ideal._top_cycles = tuple(gf2_kernel(boundary_columns(ideal, ideal.top_rank)))
    return ideal._top_cycles


def betti_gf2(graph, budget=None):
    """Reduced mod-2 Betti numbers (b0, ..., b_top), augmentation included."""
    ideal = enumerate_ideal(graph, budget)
    top = ideal.top_rank
    sizes = ideal.rank_sizes()
    ranks = [gf2_rank(boundary_columns(ideal, k)) for k in range(top)]
    ranks.append(sizes[top] - len(_top_cycles(ideal)))
    ranks.append(0)  # nothing above the top
    return tuple(sizes[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


def top_betti(graph, budget=None):
    """dim of the top homology = nullity of the top boundary (top cells have
    no coboundary; at rank 0 it is the augmentation), cheaper than the full
    vector."""
    ideal = enumerate_ideal(graph, budget)
    cols = boundary_columns(ideal, ideal.top_rank)
    return len(cols) - gf2_rank(cols)


def top_cycle_basis(graph, budget=None):
    """Canonical basis of the top-degree cycle space: the reduced-echelon
    form of ker(top boundary) in normal-form cell order."""
    ideal = enumerate_ideal(graph, budget)
    top = ideal.top_rank
    cells = ideal.ranks[top]
    # at top = 0 this is the reduced kernel of the augmentation
    return [Gf2Chain(top, frozenset(cells[i] for i in _bits(vec)))
            for vec in _top_cycles(ideal)]


def verify_cycle(graph, chain, budget=None):
    """True iff the chain's mod-2 boundary vanishes (reduced at rank 0): the
    columns of its own cells only, summed."""
    ideal = enumerate_ideal(graph, budget)
    k = chain.dimension
    if not 0 <= k <= ideal.top_rank:
        raise GraphError(f"chain dimension {k} out of range 0..{ideal.top_rank}")
    keys = []
    for w in chain.support:
        i, r = ideal.flat_id(w), len(w) - 1
        if r != k:
            raise GraphError(f"cell {format_word(w)} has rank {r}, chain says {k}")
        keys.append(ideal.keys[i])
    if k == 0:
        return len(keys) % 2 == 0
    boundary = 0
    for col in ideal.face_masks(k, keys):
        boundary ^= col
    return boundary == 0


# ----------------------------------------------------------------------
# stored generator fixtures for the path-graph complexes

_FIXTURE_FILE = "an_generators.json"
_CELL_RE = re.compile(r"\[([0-9]+)\]")


def _parse_block(text):
    """Parse "[123] + [213] + ..." into a list of letter tuples (1-based)."""
    cells = _CELL_RE.findall(text)
    if not cells or _CELL_RE.sub("", text).strip("+ \t") != "":
        raise GraphError(f"malformed cycle block {text!r}")
    return [tuple(int(c) for c in cell) for cell in cells]


def load_an_generators():
    """The data file: per n, named cell blocks plus generators as sums of
    blocks, resolved into Gf2Chain values on the path with vertices 1..n."""
    raw = json.loads(
        resources.files(__package__).joinpath("data", _FIXTURE_FILE).read_text()
    )
    out = {}
    for n_text, entry in raw.items():
        n = int(n_text)
        graph = Graph(edges=[(k, k + 1) for k in range(1, n)], vertices=range(1, n + 1))
        blocks = {}
        for name, text in entry["blocks"].items():
            cells = frozenset(normalize(w, graph) for w in _parse_block(text))
            blocks[name] = cells
        generators = []
        for names in entry["generators"]:
            support = frozenset()
            for name in names:
                support ^= blocks[name]
            generators.append(Gf2Chain(n - 1, support))
        out[n] = (graph, generators)
    return out


@dataclass(frozen=True)
class FixtureRow:
    n: int
    generator_count: int
    all_cycles: bool
    independent: bool
    count_matches: bool    # == fibonacci(n - 1), the complex's sphere count
    spans_top: bool        # independent + count == top Betti number
    covers_top_cells: bool  # every maximal cell appears in some cycle of the span

    @property
    def ok(self):
        return (
            self.all_cycles
            and self.independent
            and self.count_matches
            and self.spans_top
            and self.covers_top_cells
        )


def an_fixture_suite():
    """Re-verify the stored path-graph generating cycles."""
    rows = []
    for n, (graph, generators) in sorted(load_an_generators().items()):
        ideal = enumerate_ideal(graph)
        cells = ideal.ranks[ideal.top_rank]
        masks = []
        covered = 0  # every span element's support lies in this union
        for chain in generators:
            mask = 0
            for w in chain.support:
                mask |= 1 << (ideal.flat_id(w) - ideal.offsets[len(w) - 1])
            masks.append(mask)
            covered |= mask
        all_cycles = all(verify_cycle(graph, c) for c in generators)
        independent = len(gf2_rref(masks)) == len(masks)
        count_matches = len(generators) == fibonacci(n - 1)
        spans_top = len(generators) == top_betti(graph)
        covers = covered == (1 << len(cells)) - 1
        rows.append(
            FixtureRow(
                n, len(generators), all_cycles, independent,
                count_matches, spans_top, covers,
            )
        )
    return rows
