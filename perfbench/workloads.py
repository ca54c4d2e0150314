"""Seeded input decks, operations and answer oracles for the four workloads.

A deck is the list of passes one run cycles through, each a list of inputs
(a group).  Every group is drawn afresh from the seed, so a run sees more
distinct graphs than one pass holds.  Random graphs are drawn
as stratified G(n, p) samples: the edge counts are the quantiles of the
binomial edge-count distribution, one per deck slot, and the seed chooses
which edges.  Edge count sets much of the cost here, so fixing its
distribution keeps the work per deck nearly the same from seed to seed while
every graph still changes with the seed.

Every group holds distinct labelled graphs.  The ideal cache compares graphs
by their labelled edge sets, so no op in a pass is served from the work of an
earlier op on the same graph.  Groups are in ascending edge count, with the
graph sizes interleaved, so that peak memory does not depend on where the
seed puts the largest ideals.

Where cost depends strongly on vertex labels (the anchor and edge choices of
the matching and the recursion), passes after the first relabel every graph
by a seeded permutation.  A run then samples more labellings than the deck
holds, while the answers, which do not depend on labels, are still checked
once per graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import booleancomplex as bc


@dataclass(frozen=True)
class Item:
    """One deck entry: a graph, and the family spec for named members."""

    label: str
    graph: bc.Graph
    spec: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    # one group, i.e. the inputs of one pass
    group: Callable[[random.Random], list[Item]]
    # groups in a deck
    groups: int
    # op(item, pass_memo) -> answer; pass_memo is a dict that lives for one pass
    op: Callable[[Item, dict], Any]
    # check(item, answer, oracle_memo) -> None when right, else the reason
    check: Callable[[Item, Any, dict], str | None]
    # latency tail: the highest of p75/p85/p90/p95 that has at least ten
    # samples above it in a run at the commit that defined the benchmark;
    # fixed, so that the tail stays comparable when a run's op count changes
    tail_percentile: float
    # relabel the graphs in passes after the first (answers must not depend
    # on labels)
    relabel: bool = False


# ----------------------------------------------------------------------
# graph generation

def binomial_quantiles(trials, p, count):
    """The (j + 1/2)/count quantiles of Binomial(trials, p), j < count."""
    cdf = []
    acc = 0.0
    for k in range(trials + 1):
        acc += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        cdf.append(acc)
    return [
        next((k for k, c in enumerate(cdf) if c >= (j + 0.5) / count), trials)
        for j in range(count)
    ]


def random_gnm(rng, n, m, no_isolated):
    """Uniform graph on vertices 0..n-1 with m edges, optionally rejecting
    graphs with an isolated vertex."""
    pairs = list(combinations(range(n), 2))
    while True:
        g = bc.Graph(edges=rng.sample(pairs, m), vertices=range(n))
        if not (no_isolated and g.has_isolated_vertex()):
            return g


def stratified_gnp(rng, n, p, count, no_isolated):
    """Items in ascending edge count."""
    return [
        Item(f"G({n},{p})m{m}", random_gnm(rng, n, m, no_isolated))
        for m in binomial_quantiles(n * (n - 1) // 2, p, count)
    ]


def interleave(*groups):
    """Merge item lists by rank: the j-th item of each group sits near the
    j-th of the others, in proportion to the group sizes."""
    keyed = [((j + 0.5) / len(group), g, item)
             for g, group in enumerate(groups) for j, item in enumerate(group)]
    return [item for *_, item in sorted(keyed, key=lambda k: k[:2])]


def relabelled(deck, rng):
    """The deck with each graph's vertices permuted at random."""
    out = []
    for item in deck:
        verts = list(item.graph.vertices)
        images = verts[:]
        rng.shuffle(images)
        out.append(Item(item.label, item.graph.relabel(dict(zip(verts, images))), item.spec))
    return out


# ----------------------------------------------------------------------
# crosscheck-mix: every route on one graph, as acceptance criterion 4 does

def _crosscheck_group(rng):
    return interleave(stratified_gnp(rng, 6, 0.5, 14, False),
                      stratified_gnp(rng, 7, 0.5, 7, False))


def _crosscheck_op(item, memo):
    report = bc.cross_check(item.graph, memo=memo)
    return tuple(sorted(report.values.items())), report.skipped


def _crosscheck_check(item, answer, oracle_memo):
    values, skipped = answer
    if skipped:
        return f"routes skipped: {skipped}"
    if len({v for _, v in values}) != 1:
        return f"routes disagree: {values}"
    return None


# ----------------------------------------------------------------------
# recursion-large: the edge recursion above the canonical-key limit

#: Named members above CANONICAL_KEY_LIMIT, so their top levels run unmemoised.
NAMED_LARGE = ([f"A:{n}" for n in range(18, 25)]
               + [f"cycle:{n}" for n in range(12, 19)]
               + ["K:11", "K:12"])

#: Edges beyond n for the random members; at most 21 edges in all, so the
#: covering-subset sum can check each of them.
EXTRA_EDGES = (1, 2, 3, 4, 5)


def _recursion_group(rng):
    items = [Item(spec, bc.family_graph(spec), spec) for spec in NAMED_LARGE]
    for n in range(11, 17):
        for extra in EXTRA_EDGES:
            m = n + extra
            items.append(Item(f"G({n},m={m})", random_gnm(rng, n, m, True)))
    return items


def _recursion_op(item, memo):
    return bc.beta_recursive(item.graph).value


def _recursion_check(item, answer, oracle_memo):
    if item.spec is not None:
        want = bc.beta_family(item.spec)
    else:
        want = bc.beta_subset_formula(item.graph).value
    return None if answer == want else f"beta {answer}, oracle {want}"


# ----------------------------------------------------------------------
# ideal-count: rank sizes and the Euler route, pure enumeration

def _ideal_group(rng):
    return interleave(stratified_gnp(rng, 9, 0.35, 12, True),
                      stratified_gnp(rng, 10, 0.35, 12, True))


def _ideal_op(item, memo):
    return bc.rank_sizes(item.graph), bc.beta_euler(item.graph).value


def _ideal_check(item, answer, oracle_memo):
    sizes, beta = answer
    if sizes[0] != len(item.graph):
        return f"rank 0 has {sizes[0]} elements, graph has {len(item.graph)} vertices"
    want = bc.beta_recursive(item.graph, oracle_memo).value
    return None if beta == want else f"euler {beta}, recursion {want}"


# ----------------------------------------------------------------------
# chain-homology: full Betti vector and the top cycle basis

def _homology_group(rng):
    return stratified_gnp(rng, 7, 0.5, 16, True)


def _homology_op(item, memo):
    return bc.betti_gf2(item.graph), bc.top_cycle_basis(item.graph)


def _homology_check(item, answer, oracle_memo):
    betti, basis = answer
    top = len(betti) - 1
    if any(betti[:top]):
        return f"Betti vector {betti} is nonzero below the top"
    want = bc.beta_recursive(item.graph, oracle_memo).value
    if betti[top] != want:
        return f"top Betti {betti[top]}, recursion {want}"
    if len(basis) != want:
        return f"{len(basis)} basis cycles for top Betti {want}"
    if not all(bc.verify_cycle(item.graph, chain) for chain in basis):
        return "a basis chain has nonzero boundary"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crosscheck-mix", _crosscheck_group, 6, _crosscheck_op,
                 _crosscheck_check, 85, relabel=True),
        Workload("recursion-large", _recursion_group, 8, _recursion_op,
                 _recursion_check, 95, relabel=True),
        Workload("ideal-count", _ideal_group, 3, _ideal_op, _ideal_check, 75),
        # cycle bases depend on labels, and verifying them is the costly
        # oracle (about twice the op time per graph), hence no relabelling
        # and two small groups only
        Workload("chain-homology", _homology_group, 2, _homology_op,
                 _homology_check, 90),
    )
}


def build_deck(name, seed):
    """The deck for one workload and seed, a list of groups; the same seed
    gives the same deck."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [workload.group(rng) for _ in range(workload.groups)]


def pass_deck(name, seed, deck, pass_no):
    """(group number, inputs) of pass ``pass_no`` (from 0): the groups in
    turn, relabelled by a seeded permutation after the first pass on
    relabelling workloads."""
    number = pass_no % len(deck)
    if pass_no == 0 or not WORKLOADS[name].relabel:
        return number, deck[number]
    return number, relabelled(deck[number], random.Random(f"{name}:{seed}:pass{pass_no}"))
