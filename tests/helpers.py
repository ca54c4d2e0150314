"""Shared test fixtures: small-graph generators and independent oracles.

The oracles here deliberately avoid the library's own fast paths: commutation
classes are grown by breadth-first adjacent swaps, adjacency-pair membership
by scanning every representative, and isomorphism by networkx VF2.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx

from booleancomplex import Graph
from booleancomplex.graph import isomorphism_classes


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
