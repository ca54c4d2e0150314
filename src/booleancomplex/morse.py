"""Acyclic matchings on boolean ideals, built by structural induction.

A matching pairs elements along cover relations, each element in at most one
pair, the implicit rank -1 minimum never matched.  Reversing matched edges in
the Hasse diagram must leave no directed cycle; collapsing matched pairs then
realises the complex as a CW-complex with one cell per unmatched element.

``build_h_matching(G, s)`` produces the matching anchored at a vertex s with
the three bookkeeping properties the induction needs:

H1  the unmatched elements are one rank-0 element plus top-rank elements
    (their number is the sphere count of the complex);
H2  restricted to elements containing s, only maximal elements are unmatched,
    beta(G) + beta(G minus s) of them;
H3  a matched pair (sigma, tau) with s in tau either appends s on the right
    (tau = sigma * s) or deletes a letter writable strictly left of s.  The
    representatives of tau are the linear extensions of its dependence order
    (``trace_order``), so d is writable left of s exactly when s does not
    precede d in that order.

The construction recurses along an edge e = {s, t}: the ideal splits into the
block of elements writable as alpha-s-t-gamma and its complement; the
complement pulls back the matching of G - e through the coarsening projection,
the block pulls back the matching of the contraction G/e through the
substitution alpha-x-gamma -> alpha-s-t-gamma.  The block is computed once per
step as that substitution's image over the elements of B(G/e) containing x
(``admits_adjacent_pair`` is its reference definition).  An isolated anchor
instead doubles the matching of G minus s.  The base cases are a single
vertex (left unmatched) and edgeless graphs (pair sigma with pivot*sigma).

Each step works on the flat element ids of its graph's ideal, and words are
built once, for the ``Matching`` returned.  The budget binds the root ideal
alone; every ideal a step recurses into is no larger.  A word is carried to
another ideal by growing that ideal's key for it (``BooleanIdeal.class_id``),
never by normalising it.  Every cover check reads the ideal's one face
relation, ``BooleanIdeal.covers`` or its ``face_table``.  Both checkers take
flat ids from one pass over a matching's pairs that refuses a non-cover:
``verify_acyclic`` topologically sorts the whole reversed Hasse diagram with
``graphlib``, and ``verify_h_properties`` reads one partner array, so a cell
matched twice fails H1.
"""

from __future__ import annotations

import graphlib
import math
from array import array
from dataclasses import dataclass
from functools import cached_property

from . import beta as beta_mod
from .graph import Graph, GraphError, UnknownVertexError
from .ideal import enumerate_ideal, format_word, rank_sizes, trace_order


@dataclass(frozen=True)
class Matching:
    """A matching on the boolean ideal of ``graph``, anchored at a vertex.

    ``pairs`` holds (lower, upper) normal forms along cover relations;
    ``unmatched_rank0`` is the single unmatched rank-0 element and
    ``unmatched_maximal`` the unmatched top-rank elements.
    """

    graph: Graph
    at_vertex: int
    pairs: tuple[tuple[tuple, tuple], ...]
    unmatched_rank0: tuple
    unmatched_maximal: tuple[tuple, ...]

    @cached_property
    def matched(self):
        """Every word that sits in some pair."""
        return frozenset(w for pair in self.pairs for w in pair)

    def is_matched(self, word):
        return word in self.matched


# ----------------------------------------------------------------------
# construction

def build_h_matching(graph, s, budget=None):
    """Build the anchored acyclic matching of the ideal of ``graph`` at s,
    refusing a root ideal over ``budget`` (see ``enumerate_ideal``)."""
    if len(graph) == 0:
        raise GraphError("cannot match the ideal of an empty graph")
    if s not in graph:
        raise UnknownVertexError(f"vertex {s} not in graph")
    words = enumerate_ideal(graph, budget).words
    cache = {}

    def build(g, v):
        key = (g, v)
        got = cache.get(key)
        if got is None:
            got = cache[key] = _build(g, v, build)
        return got

    lower, upper, rank0, maximal = build(graph, s)
    return Matching(
        graph, s, tuple((words[lo], words[up]) for lo, up in zip(lower, upper)),
        words[rank0], tuple(words[i] for i in maximal),
    )


def _build(g, v, build):
    """One construction step, on flat ids of g's ideal: the matched pairs as
    parallel arrays of lower and upper ids, the unmatched rank-0 element and
    the unmatched maximal elements."""
    if len(g) == 1:
        # trivial matching: the lone vertex is the unmatched rank-0 element
        return array("i"), array("i"), 0, ()
    if not g.edges:
        return _build_edgeless(g, v)
    if g.degree(v) == 0:
        return _build_isolated_anchor(g, v, build)
    return _build_along_edge(g, v, build)


def _build_edgeless(g, v):
    # everything commutes: elements are the nonempty subsets, written sorted.
    # Pair sigma with pivot + sigma for every sigma avoiding the pivot.
    pivot = min(u for u in g.vertices if u != v)
    ideal = enumerate_ideal(g, math.inf)
    words = ideal.words
    lower = array("i", [i for i, w in enumerate(words) if pivot not in w])
    upper = array("i", [ideal.class_id(words[i] + (pivot,)) for i in lower])
    return lower, upper, ideal.flat_id((pivot,)), ()


def _build_isolated_anchor(g, v, build):
    # v commutes with everything: the ideal is B(H) + B(H)*v + {v} for
    # H = g minus v.  Double the matching of B(H), send v to 1*v, and close
    # each unmatched maximal sigma with sigma*v.
    h = g.delete_vertex(v)
    anchor = min(u for u in h.vertices if h.degree(u) > 0)
    h_lower, h_upper, h_rank0, h_maximal = build(h, anchor)
    ideal = enumerate_ideal(g, math.inf)
    # the words avoiding v are B(H)'s, with the same normal forms and order;
    # each is used once with v appended
    lift = [i for i, w in enumerate(ideal.words) if v not in w]
    assert len(lift) == 2 * len(h_lower) + 1 + len(h_maximal), "B(H) sits inside B(G)"
    times_v = [ideal.class_id(ideal.words[i] + (v,)) for i in lift]
    lower = array("i", [lift[i] for i in h_lower])
    upper = array("i", [lift[i] for i in h_upper])
    lower.extend([times_v[i] for i in h_lower])
    upper.extend([times_v[i] for i in h_upper])
    lower.append(ideal.flat_id((v,)))
    upper.append(times_v[h_rank0])
    for i in h_maximal:
        lower.append(lift[i])
        upper.append(times_v[i])
    return _assemble(ideal, lower, upper)


def _build_along_edge(g, v, build):
    t = min(g.neighbors(v))
    edge = (v, t)
    x = min(v, t)  # contraction names the merged vertex by the smaller label
    ideal = enumerate_ideal(g, math.inf)

    f = g.contract_edge(edge)
    f_lower, f_upper = build(f, x)[:2]
    f_ideal = enumerate_ideal(f, math.inf)
    in_block = bytearray(ideal.element_count())
    substituted = array("i", [-1]) * f_ideal.element_count()
    for j, w in enumerate(f_ideal.words):
        if x in w:
            i = w.index(x)
            image = ideal.class_id(w[:i] + edge + w[i + 1:])
            assert not in_block[image], "substitution must be injective"
            in_block[image] = 1
            substituted[j] = image

    h = g.delete_edge(edge)
    h_lower, h_upper = build(h, v)[:2]
    # the complement block maps bijectively onto B(G - e) by taking each
    # word's class in the coarser commutation relation
    h_ideal = enumerate_ideal(h, math.inf)
    section = array("i", [-1]) * h_ideal.element_count()
    for i, (w, blocked) in enumerate(zip(ideal.words, in_block)):
        if not blocked:
            image = h_ideal.class_id(w)
            assert section[image] < 0, "projection must be injective off the block"
            section[image] = i
    assert in_block.count(0) == len(section)

    lower, upper = array("i"), array("i")
    for lo, up in zip(h_lower, h_upper):
        glo, gup = section[lo], section[up]
        # a matched pair downstairs lifts to a genuine cover upstairs
        assert ideal.covers(glo, gup), "lifted pair must be a cover"
        lower.append(glo)
        upper.append(gup)

    for lo, up in zip(f_lower, f_upper):
        glo, gup = substituted[lo], substituted[up]
        if glo >= 0 and gup >= 0:
            assert ideal.covers(glo, gup), "substituted pair must be a cover"
            lower.append(glo)
            upper.append(gup)

    return _assemble(ideal, lower, upper)


def _assemble(ideal, lower, upper):
    """Finish a construction step: locate the unmatched elements and check
    the shape promised by H1."""
    matched = bytearray(ideal.element_count())
    for lo, up in zip(lower, upper):
        assert not matched[lo] and not matched[up], "element matched twice"
        matched[lo] = matched[up] = 1
    sizes = ideal.rank_sizes()
    unmatched0 = [i for i in range(sizes[0]) if not matched[i]]
    assert len(unmatched0) == 1, "exactly one rank-0 element stays unmatched"
    top_start = len(matched) - sizes[-1]
    assert all(matched[sizes[0]:top_start]), "middle ranks must be fully matched"
    top = tuple(i for i in range(top_start, len(matched)) if not matched[i])
    return lower, upper, unmatched0[0], top


# ----------------------------------------------------------------------
# verification

def _pair_ids(matching, ideal):
    """The matching's pairs as (lower, upper) flat ids of ``ideal``, each word
    looked up once; a pair that is not a cover raises ``GraphError``."""
    pairs = []
    for lo, up in matching.pairs:
        i, j = ideal.flat_id(lo), ideal.flat_id(up)
        if not ideal.covers(i, j):
            raise GraphError(f"pair ({format_word(lo)}, {format_word(up)}) is not a cover")
        pairs.append((i, j))
    return pairs


def verify_acyclic(matching, ideal):
    """True iff reversing the matched covers leaves the Hasse diagram free of
    directed cycles.  The whole reversed diagram is handed to ``graphlib`` on
    flat ids, an edge up along each matched cover and down along every other
    face: a cell matched twice can close a cycle through three ranks.
    """
    matched = set(_pair_ids(matching, ideal))

    # add(b, *a) puts each a before b: every edge goes in turned round, which
    # keeps each cycle and takes a cell's unmatched faces in one call
    sorter = graphlib.TopologicalSorter()
    node = list(range(ideal.element_count()))  # one int object per id, shared by every edge
    for r in range(1, ideal.top_rank + 1):
        below = ideal.offsets[r - 1]
        for up, faces in enumerate(ideal.face_table(r), ideal.offsets[r]):
            unmatched = []
            for j in faces:
                lo = node[below + j]
                if (lo, up) in matched:
                    sorter.add(lo, up)
                else:
                    unmatched.append(lo)
            sorter.add(up, *unmatched)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True


@dataclass(frozen=True)
class HReport:
    """Outcome of the three anchored-matching properties, each decided
    exactly; ``failures`` describes every violation found."""

    h1: bool
    h2: bool
    h3: bool
    failures: tuple[str, ...] = ()

    @property
    def all_hold(self):
        return self.h1 and self.h2 and self.h3


def verify_h_properties(matching, ideal):
    """Check H1-H3 for a matching anchored at ``matching.at_vertex``, on flat
    ids: tau = sigma * s iff s is not in sigma and ``class_id(sigma + (s,))``
    is tau.  A cell in two pairs fails H1; a pair that is not a cover raises
    ``GraphError``."""
    g = ideal.graph
    s = matching.at_vertex
    rest = g.delete_vertex(s)  # refuses an anchor outside the graph
    words = ideal.words
    has_s = [s in w for w in words]
    failures = []

    def names(ids):
        return [format_word(words[i]) for i in ids]

    pairs = _pair_ids(matching, ideal)
    partner = array("i", [-1]) * ideal.element_count()
    twice = set()
    for lo, up in pairs:
        twice.update(i for i in (lo, up) if partner[i] >= 0)
        partner[lo], partner[up] = up, lo

    # flat ids run rank by rank: rank 0 lies below offsets[1], the top rank from ``top``
    rank1, top = ideal.offsets[1], ideal.offsets[ideal.top_rank]
    rank0 = [i for i in range(rank1) if partner[i] < 0]
    bad = [i for i in range(rank1, top) if partner[i] < 0]
    h1 = not bad and len(rank0) == 1 and not twice
    if not h1:
        failures.append(
            f"h1: rank-0 unmatched {names(rank0)}, "
            f"middle-rank unmatched {names(bad)}, matched twice {names(sorted(twice))}"
        )

    if len(rest) == 0:
        h2 = True
    else:
        expected = (
            beta_mod.beta_recursive(g).value + beta_mod.beta_recursive(rest).value
        )
        loose = [i for i, mate in enumerate(partner)
                 if has_s[i] and (mate < 0 or not has_s[mate])]
        h2 = len(loose) == expected and all(i >= top for i in loose)
        if not h2:
            failures.append(
                f"h2: expected {expected} maximal unmatched in the s-block, "
                f"got {names(loose)}"
            )

    h3 = True
    for lo, up in pairs:
        lower, upper = words[lo], words[up]
        if not has_s[up] or not has_s[lo] and ideal.class_id(lower + (s,)) == up:
            continue  # s not in tau, or tau = sigma * s
        (deleted,) = set(upper).difference(lower)
        # deleting s itself can only be excused by tau = sigma * s above:
        # no letter sits strictly left of itself
        if deleted == s or (upper.index(s), upper.index(deleted)) in trace_order(upper, g):
            h3 = False
            failures.append(
                f"h3: pair ({format_word(lower)}, {format_word(upper)}) deletes "
                f"{deleted} but no representative puts it left of {s}"
            )
    return HReport(h1, h2, h3, tuple(failures))


# ----------------------------------------------------------------------
# skeleta

@dataclass(frozen=True)
class SkeletonReport:
    """Per-rank cell counts f_r paired with unmatched counts u_r, where u_r
    is the number of rank-r cells left unmatched once the matching is
    restricted to the r-skeleton.  For r > 0 that skeleton is a wedge of u_r
    r-spheres; u_0 counts every vertex, the base point included."""

    rank_sizes: tuple[int, ...]
    unmatched: tuple[int, ...]


def skeleton_sphere_counts(graph, matching):
    """Unmatched counts per skeleton via a top-down recursion seeded by the
    top-rank unmatched count u_top.

    By H1 every rank-r cell with 0 < r < top is matched either down or up, so
    restricting to the r-skeleton frees exactly the cells matched upward, one
    per pair between ranks r and r+1: u_r = f_{r+1} - u_{r+1}.  No pair
    reaches below rank 0, so u_0 = f_0 (= f_1 - u_1 + 1, the extra cell being
    the unmatched base point); this holds when the top rank is 0 as well.
    """
    sizes = rank_sizes(graph)
    top = len(sizes) - 1
    u = [0] * (top + 1)
    u[top] = len(matching.unmatched_maximal)
    for r in range(top - 1, 0, -1):
        u[r] = sizes[r + 1] - u[r + 1]
    u[0] = sizes[0]
    return SkeletonReport(sizes, tuple(u))


def skeleton_restriction_counts(matching, ideal):
    """Directly count, for each r, the rank-r elements unmatched once the
    matching is restricted to the r-skeleton (pairs reaching above r drop).
    """
    top = ideal.top_rank
    matched_below = [0] * (top + 1)  # per rank: elements matched downward
    for lo, up in matching.pairs:
        matched_below[len(up) - 1] += 1
    return tuple(
        len(ideal.ranks[r]) - matched_below[r] for r in range(top + 1)
    )
