"""The sphere count of a graph's boolean complex, by independent methods.

The geometric realisation of the boolean complex of a nonempty finite simple
graph G is homotopy equivalent to a wedge of beta(G) spheres of dimension
|G| - 1.  This module computes beta(G) by:

* the edge recursion  beta(G) = beta(G-e) + beta(G/e) + beta(G-[e])
  (delete / simply contract / extract), with beta(A2) = 1, beta of any graph
  with an isolated vertex = 0, and multiplicativity over components; it runs
  on dense forms, renumbering the graph once, and memoises each connected
  subproblem by its form, then by canonical key (taken through ``Graph``)
  among the forms that share its degree sequence;
* the Euler characteristic,  beta(G) = (-1)^(n-1) (chi - 1), with chi
  counted from acyclic orientations rather than enumerated;
* the covering-edge-subset sum  sum_{B <= E, V(B) = V} (-1)^(n + |B| - k(B));
* (via the morse and homology modules) unmatched-cell and kernel-rank counts.

``FAMILIES`` holds one row per named family, read by ``resolve_family``,
``family_graph`` and ``beta_family``.  ``ROUTES`` maps each route's name to
its value function, looped over by the loud ``cross_check`` and indexed by the
CLI's ``beta --method``; a route refuses a graph only by raising
``BudgetError``, which ``cross_check`` reports as skipped.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .graph import (
    FamilyError,
    Graph,
    GraphError,
    _bits,
    _form_components,
    _form_contract,
    _form_delete,
    _form_extract,
    complete_graph,
    cycle_graph,
    double_fork_graph,
    edgeless_graph,
    forked_path_graph,
    path_graph,
    star_graph,
    tshape_graph,
)
from .ideal import BudgetError, euler_characteristic

#: 2^24 covering subsets is the most the brute-force subset sum will walk.
SUBSET_EDGE_CAP = 24

@dataclass(frozen=True)
class BetaResult:
    """A sphere count together with how it was obtained."""

    value: int
    method: str
    calls: int | None = None  # recursive evaluations, recursion method only


# ----------------------------------------------------------------------
# the edge recursion

def _pick_edge(form):
    """Edge choice heuristic on a dense form with no isolated vertex, as a
    position pair p < q: an edge at a leaf collapses the recursion to two
    branches (deletion leaves an isolated vertex); otherwise favour a
    minimum-degree endpoint, which helps G - e fall apart."""
    best = None
    for v, m in enumerate(form):
        d = m.bit_count()
        if d == 1:
            u = m.bit_length() - 1
            return (min(u, v), max(u, v))
        if best is None or d < best[0]:
            best = (d, v)
    v = best[1]
    u = min(_bits(form[v]), key=lambda w: form[w].bit_count())
    return (min(u, v), max(u, v))


def beta_recursive(graph, memo=None):
    """Sphere count by the deletion / contraction / extraction recursion.

    The recursion runs on dense forms, renumbering the graph once: each
    surgery hands its child the child's form, and only the graph itself and
    the deletion and extraction children are split into components, since a
    contraction or a component of a connected graph is connected.  The value
    depends only on the unlabeled graph, so every connected subproblem of
    three or more vertices is memoised by isomorphism class, at every size:
    first by dense form, then, since isomorphic graphs share a degree
    sequence, by canonical key (of the form as a ``Graph``) among the forms
    that share one.  A form first with its sequence is not keyed until a
    second one arrives.  ``memo`` may be a dict shared across calls, so
    relabelled repeats are free.  Deletions are walked in a loop, so the
    Python call depth grows with the vertex count, not the edge count, and
    no nonempty graph is refused.
    """
    if len(graph) == 0:
        raise GraphError("beta is defined for nonempty graphs")
    if memo is None:
        memo = {}
    calls = 0

    def key_of(form):
        return Graph._from_adj(dict(enumerate(form))).canonical_key()

    def rec(form, split=True):
        # split=False: the form is a component or a contraction, so connected.
        # Each deletion child is walked by this loop, not a nested call, and
        # the steps are settled in reverse once the last one has a value.
        nonlocal calls
        steps = []
        while True:
            calls += 1
            if not all(form):
                value = 0  # an isolated vertex
                break
            if split:
                comps = _form_components(form)
                if len(comps) > 1:
                    value = math.prod(rec(c, False) for c in comps)
                    break
            if len(form) == 2:
                value = 1  # connected two-vertex graph is A2
                break
            if form in memo:
                value = memo[form]
                break
            # an isomorphic graph shares the degree sequence, so only a form
            # whose sequence was met before needs a canonical key; the entry
            # sits under bytes, which no form (a tuple) equals
            keyed, unkeyed = memo.setdefault(
                bytes(sorted(m.bit_count() for m in form)), ({}, []))
            key = None
            if keyed or unkeyed:
                for h, v in unkeyed:
                    keyed[key_of(h)] = v
                unkeyed.clear()
                key = key_of(form)
                if key in keyed:
                    value = memo[form] = keyed[key]
                    break
            p, q = _pick_edge(form)
            steps.append((form, p, q, key, keyed, unkeyed))
            form, split = _form_delete(form, p, q), True
        while steps:
            form, p, q, key, keyed, unkeyed = steps.pop()
            value += rec(_form_contract(form, p, q), False) + rec(_form_extract(form, p, q))
            if key is None:
                unkeyed.append((form, value))
            else:
                keyed[key] = value
            memo[form] = value
        return value

    return BetaResult(rec(graph.dense_form()), "recursion", calls)


# ----------------------------------------------------------------------
# Euler characteristic route

def beta_euler(graph, budget=None):
    """beta from the alternating rank count: (-1)^(n-1) (chi - 1)."""
    if len(graph) == 0:
        raise GraphError("beta is defined for nonempty graphs")
    chi = euler_characteristic(graph, budget)
    return BetaResult((-1) ** (len(graph) - 1) * (chi - 1), "euler")


# ----------------------------------------------------------------------
# covering edge-subset sum

def beta_subset_formula(graph):
    """Brute-force sum over edge subsets B covering every vertex, signed by
    (-1)^(n + |B| - k(B)) where k counts components of (V, B)."""
    if len(graph) == 0:
        raise GraphError("beta is defined for nonempty graphs")
    # edges as position pairs, in the order of ``graph.edges``
    edges = [(p, q) for p, mask in enumerate(graph.dense_form()) for q in _bits(mask) if q > p]
    m = len(edges)
    if m > SUBSET_EDGE_CAP:
        raise BudgetError(f"subset formula capped at {SUBSET_EDGE_CAP} edges, got {m}")
    n = len(graph)
    full = (1 << n) - 1
    emask = [(1 << u) | (1 << v) for u, v in edges]
    # vertices coverable by the remaining edge suffix
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | emask[i]

    parent = list(range(n))
    size = [1] * n

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    total = 0

    def walk(i, covered, nbits, unions):
        nonlocal total
        if covered | suffix[i] != full:
            return  # no completion can cover every vertex
        if i == m:
            # covered == full here; k(B) = n - unions
            total += -1 if (nbits + unions) & 1 else 1
            return
        walk(i + 1, covered, nbits, unions)
        u, v = edges[i]
        ra, rb = find(u), find(v)
        if ra == rb:
            walk(i + 1, covered | emask[i], nbits + 1, unions)
        else:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            walk(i + 1, covered | emask[i], nbits + 1, unions + 1)
            size[ra] -= size[rb]
            parent[rb] = rb

    walk(0, 0, 0, 0)
    # exponent n + |B| - k(B) == |B| + unions (mod 2), since k(B) = n - unions
    return BetaResult(total, "subset_formula")


# ----------------------------------------------------------------------
# families

def fibonacci(k):
    """f(1) = f(2) = 1, extended by f(0) = 0."""
    if k < 0:
        raise GraphError(f"negative Fibonacci index {k}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def cycle_count(n):
    """c(1) = 1, c(n) = c(n-1) + f(n) + f(n-2): spheres for an (n+1)-cycle.
    Equals lucas(n+1) - 2."""
    if n < 1:
        raise GraphError(f"cycle count needs n >= 1, got {n}")
    c = 1
    for k in range(2, n + 1):
        c += fibonacci(k) + fibonacci(k - 2)
    return c


def beta_complete(n):
    """beta(K_n) = (n-1) (beta(K_{n-1}) + beta(K_{n-2})): the derangement
    numbers 0, 1, 2, 9, 44, 265, ..."""
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    if n == 1:
        return 0
    prev2, prev1 = 0, 1  # K1, K2
    for k in range(3, n + 1):
        prev2, prev1 = prev1, (k - 1) * (prev1 + prev2)
    return prev1


# ----------------------------------------------------------------------
# the family table: one row per named family

@dataclass(frozen=True)
class Family:
    """A named family: valid ranks (as a test and in words), the graph of rank
    n, its closed-form sphere count, and the rank a bare name implies."""

    valid: Callable[[int], bool]
    ranks: str
    build: Callable[[int], Graph]
    beta: Callable[[int], int]
    implied_rank: int | None = None


def _from_rank(k, build, beta):
    """A family with every rank n >= k."""
    return Family(lambda n: n >= k, f"n >= {k}", build, beta)


def _fixed(rank, path_vertices, beta):
    """A family with a single rank, whose graph is a path."""
    return Family(lambda n: n == rank, f"n = {rank}", lambda n: path_graph(path_vertices),
                  lambda n: beta, rank)


FAMILIES = {
    "A": _from_rank(1, path_graph, lambda n: fibonacci(n - 1)),
    "B": _from_rank(2, path_graph, lambda n: fibonacci(n - 1)),
    "D": _from_rank(3, forked_path_graph, lambda n: fibonacci(n - 2)),
    "E": Family(lambda n: n in (6, 7, 8), "n in {6, 7, 8}",
                lambda n: tshape_graph(n - 4, 2, 1), {6: 4, 7: 6, 8: 10}.__getitem__),
    "F4": _fixed(4, 4, beta=2),
    "G2": _fixed(2, 2, beta=1),
    "H3": _fixed(3, 3, beta=1),
    "H4": _fixed(4, 4, beta=2),
    "I2": Family(lambda n: n >= 2, "m >= 2", lambda n: path_graph(2), lambda n: 1, 2),
    "affineA": _from_rank(1, lambda n: path_graph(2) if n == 1 else cycle_graph(n + 1),
                          cycle_count),
    "affineB": _from_rank(3, forked_path_graph, lambda n: fibonacci(n - 2)),
    "affineC": _from_rank(2, path_graph, lambda n: fibonacci(n - 1)),
    "affineD": _from_rank(5, double_fork_graph, lambda n: fibonacci(n - 3)),
    "affineE": Family(lambda n: n in (6, 7, 8), "n in {6, 7, 8}",
                      lambda n: tshape_graph(*{6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}[n]),
                      {6: 7, 7: 9, 8: 16}.__getitem__),
    "affineF4": _fixed(4, 5, beta=3),
    "affineG2": _fixed(2, 3, beta=1),
    "K": _from_rank(1, complete_graph, beta_complete),
    "S": _from_rank(2, star_graph, lambda n: 1),
    "delta": _from_rank(1, edgeless_graph, lambda n: 0),
    "path": _from_rank(1, path_graph, lambda n: fibonacci(n - 1)),
    "cycle": _from_rank(3, cycle_graph, lambda n: cycle_count(n - 1)),
}

_FAMILY_NAMES = {name.lower(): name for name in FAMILIES}


def resolve_family(text):
    """Parse "NAME" or "NAME:n" (names case-insensitive, e.g. "affineD:6")
    into the canonical family name and the effective rank."""
    name, sep, rank = text.partition(":")
    family = _FAMILY_NAMES.get(name.strip().lower())
    if family is None:
        raise FamilyError(f"unknown family {name!r}")
    row = FAMILIES[family]
    n = row.implied_rank
    if sep:
        rank = rank.strip()
        if not (rank.isascii() and rank.isdigit()):
            raise FamilyError(f"bad rank in family spec {text!r}")
        n = int(rank)
    if n is None:
        raise FamilyError(f"family {family} needs a rank, e.g. {family}:4")
    if not row.valid(n):
        raise FamilyError(f"family {family} needs {row.ranks}, got {n}")
    return family, n


def family_graph(text):
    """Build the named family member, "NAME" or "NAME:n"."""
    family, n = resolve_family(text)
    return FAMILIES[family].build(n)


def beta_family(text):
    """Closed-form sphere count for a named family member."""
    family, n = resolve_family(text)
    return FAMILIES[family].beta(n)


def spanning_forest_count(tree):
    """Number of edge subsets of a tree whose edges touch every vertex
    (spanning forests).  Counted directly, independent of any beta route."""
    n = len(tree)
    emask = [(1 << p) | (1 << q) for p, mask in enumerate(tree.dense_form())
             for q in _bits(mask) if q > p]
    if n == 0 or len(emask) != n - 1 or not tree.is_connected():
        raise GraphError("spanning_forest_count expects a tree")
    full = (1 << n) - 1
    count = 0
    for sub in range(1 << len(emask)):
        covered = 0
        for i, em in enumerate(emask):
            if (sub >> i) & 1:
                covered |= em
        if covered == full:
            count += 1
    return count


# ----------------------------------------------------------------------
# cross-checking

@dataclass(frozen=True)
class CrossCheckReport:
    """Values per method, plus the methods skipped for budget reasons."""

    graph: Graph
    values: dict[str, int] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()

    @property
    def agree(self):
        return len(set(self.values.values())) <= 1

    @property
    def value(self):
        return next(iter(self.values.values()))


class CrossCheckError(RuntimeError):
    """Raised when independent methods disagree; carries the report."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"method disagreement: {report.values}")


def _homology_route(graph, budget, memo):
    from . import homology  # local import: homology builds on this module
    return homology.top_betti(graph, budget)


def _morse_route(graph, budget, memo):
    from . import morse  # local import: morse builds on this module
    return len(morse.build_h_matching(graph, graph.vertices[0], budget).unmatched_maximal)


#: Every route, in the order cross_check runs and reports them.  Each maps
#: ``(graph, budget, memo)`` to its count (memo and budget may be None).  A
#: route raises ``BudgetError`` only when its ideal's element count exceeds
#: the budget (the default for counting or for building, by route) or, for
#: the subset formula, past ``SUBSET_EDGE_CAP`` edges.  Each looks its route
#: function up when called, so a rebound module attribute is used.
ROUTES = {
    "recursion": lambda g, budget, memo: beta_recursive(g, memo).value,
    "euler": lambda g, budget, memo: beta_euler(g, budget).value,
    "subset_formula": lambda g, budget, memo: beta_subset_formula(g).value,
    "homology": _homology_route,
    "morse": _morse_route,
}


def cross_check(graph, memo=None, budget=None):
    """Run every route of ``ROUTES`` as ``route(graph, budget, memo)`` (morse
    anchored at the smallest vertex) and compare; a route that raises
    ``BudgetError`` is skipped.  The recursion refuses no graph, so at least
    one value is always reported."""
    values = {}
    skipped = []
    for name, route in ROUTES.items():
        try:
            values[name] = route(graph, budget, memo)
        except BudgetError:
            skipped.append(name)
    report = CrossCheckReport(graph, values, tuple(skipped))
    if not report.agree:
        raise CrossCheckError(report)
    return report
