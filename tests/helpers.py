"""Shared test fixtures: small-graph generators and independent oracles.

The oracles here deliberately avoid the library's own fast paths: commutation
classes are grown by breadth-first adjacent swaps, adjacency-pair membership
by scanning every representative, isomorphism by networkx VF2, canonical
keys by colour refinement over whole colourings, mod-2 homology by
boundary columns summed from the reference faces (a letter deleted and the
rest normalised, never a key), with the cycle basis reduced from a kernel in
a separate pass, and rank counts by the source-set recurrence over every
independent subset.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx

from booleancomplex import Graph
from booleancomplex.graph import _bits, isomorphism_classes
from booleancomplex.homology import gf2_kernel, gf2_rank, gf2_rref
from booleancomplex.ideal import enumerate_ideal, word_faces


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    return g


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(
            edges=[e for i, e in enumerate(pairs) if (mask >> i) & 1],
            vertices=range(n),
        )


@lru_cache(maxsize=None)
def iso_classes(max_vertices):
    """One representative per isomorphism class on 1..max_vertices vertices."""
    return tuple(isomorphism_classes(max_vertices))


def random_graph(rng: random.Random, n, p=0.5):
    return Graph(
        edges=[e for e in combinations(range(n), 2) if rng.random() < p],
        vertices=range(n),
    )


def random_tree(rng: random.Random, n):
    """Uniform labelled tree via a random Pruefer sequence."""
    if n == 1:
        return Graph(vertices=[0])
    if n == 2:
        return Graph(edges=[(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(edges=edges)


def random_permutation_relabel(rng: random.Random, graph):
    verts = graph.vertices
    images = list(verts)
    rng.shuffle(images)
    return graph.relabel(dict(zip(verts, images)))


# ----------------------------------------------------------------------
# oracles

def commutation_class(word, graph):
    """Every word of the class, grown by single adjacent commuting swaps."""
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                if not graph.adjacent(w[i], w[i + 1]):
                    swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return seen


def brute_normal_form(word, graph):
    return min(commutation_class(word, graph))


def brute_admits_adjacent_pair(word, edge, graph):
    s, t = edge
    return any(
        any(rep[i] == s and rep[i + 1] == t for i in range(len(rep) - 1))
        for rep in commutation_class(word, graph)
    )


def refinement_key(graph):
    """Byte string equal for two graphs iff they are isomorphic: the least
    upper-triangle adjacency bit string over the leaves of a search that
    recolours every vertex by its colour and its neighbours' colours until
    no colour class splits (seeded by degrees), then individualises each
    vertex of the least colour class of two or more, twins once."""
    n = len(graph)
    if n == 0:
        return bytes([0])
    adjbit = graph.dense_form()
    nbrs = [tuple(_bits(m)) for m in adjbit]

    def refine(colors):
        ncolors = len(set(colors))
        while True:
            keys = [
                (colors[i], tuple(sorted(colors[j] for j in nbrs[i])))
                for i in range(n)
            ]
            table = {k: r for r, k in enumerate(sorted(set(keys)))}
            colors = [table[k] for k in keys]
            if len(table) == ncolors:
                return colors
            ncolors = len(table)

    def leaf_key(perm):
        bits = 0
        for a in range(n):
            row = adjbit[perm[a]]
            for b in range(a + 1, n):
                bits = (bits << 1) | ((row >> perm[b]) & 1)
        return bits

    best = None

    def search(colors):
        nonlocal best
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            key = leaf_key(sorted(range(n), key=colors.__getitem__))
            if best is None or key < best:
                best = key
            return
        tried = []
        for v in target:
            # twins branch into identical subtrees
            if any(adjbit[v] & ~(1 << u) == adjbit[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            split = [2 * c + (1 if (colors[i] == colors[v] and i != v) else 0)
                     for i, c in enumerate(colors)]
            search(refine(split))

    search(refine([len(nbrs[i]) for i in range(n)]))
    return bytes([n]) + best.to_bytes((n * (n - 1) // 2 + 7) // 8, "big")


@lru_cache(maxsize=None)
def word_face_index(graph):
    """For each rank r >= 1 of the graph's ideal, every cell's word faces
    (a letter deleted and the rest normalised) as indices into rank r - 1,
    in the cell's letter order; built once per graph, since the reference
    faces normalise every face of every cell."""
    ranks = enumerate_ideal(graph).ranks
    out = []
    for below, cells in zip(ranks, ranks[1:]):
        index = {w: i for i, w in enumerate(below)}
        out.append(tuple(tuple(index[f] for f in word_faces(w, graph)) for w in cells))
    return tuple(out)


def word_face_columns(ideal):
    """Every boundary map, rank 0 (the augmentation) to the top, as columns
    each the sum of its cell's word faces' bits, so repeated faces would not
    add up to the column."""
    out = [(1,) * len(ideal.ranks[0])]
    for faces in word_face_index(ideal.graph):
        out.append(tuple(sum(1 << i for i in cell) for cell in faces))
    return out


def reduced_homology(columns):
    """Reduced mod-2 Betti numbers from the rank of every boundary map, and
    the top cycle basis as bitsets over the top cells: a kernel basis of the
    top boundary, then its reduced echelon form."""
    ranks = [gf2_rank(cols) for cols in columns] + [0]
    betti = tuple(len(cols) - ranks[k] - ranks[k + 1] for k, cols in enumerate(columns))
    return betti, gf2_rref(gf2_kernel(columns[-1]))


def source_set_counts(comp):
    """[1, f_0, f_1, ...] for a connected graph by the source-set recurrence
    a(S) = sum over nonempty independent I of S of (-1)^(|I|+1) a(S - I),
    which counts the acyclic orientations of every induced subgraph G[S].
    Subsets are bitmasks over ``comp``'s vertices in order, so every S - I
    is filled in before S."""
    m = len(comp)
    nbr = {1 << p: mask for p, mask in enumerate(comp.dense_form())}
    a = [1] * (1 << m)
    counts = [1] + [0] * m
    for s in range(1, len(a)):
        total = 0
        # independent subsets of s, grown in increasing bit order
        stack = [(s, 0, 1)]
        while stack:
            cand, chosen, sign = stack.pop()
            while cand:
                low = cand & -cand
                cand ^= low
                sub = chosen | low
                total += sign * a[s ^ sub]
                rest = cand & ~nbr[low]
                if rest:
                    stack.append((rest, sub, -sign))
        a[s] = total
        counts[s.bit_count()] += total
    return counts
