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
substitution alpha-x-gamma -> alpha-s-t-gamma.  An isolated anchor instead
doubles the matching of G minus s.  The base cases are edgeless graphs (pair
sigma with pivot*sigma; a lone vertex stays unmatched).

A build enumerates only its graph's own ideal, which the budget binds, and
derives each sub-ideal's element keys (``ideal``'s vertex set and acyclic
orientation) from its parent's: an element is in the block iff s -> t and no
path of two or more edges runs from s to t (``admits_adjacent_pair`` is the
reference), B(G/e) merges s and t in the block's keys, and B(G - e) forgets
e's orientation in the rest.  Words are built once, at the root, and each
cover check is a mask test on keys.  Both checkers take flat ids from one
pass over a matching's pairs that refuses a non-cover: ``verify_acyclic``
topologically sorts the whole reversed Hasse diagram with ``graphlib``,
asking ``face_masks`` for one cell's faces at a time so no rank's table is
held, and ``verify_h_properties`` reads one partner array, so a cell matched
twice fails H1.
"""

from __future__ import annotations

import graphlib
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import beta as beta_mod
from .graph import Graph, GraphError, UnknownVertexError, _bits
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
    ideal = enumerate_ideal(graph, budget)
    lower, upper, rank0, maximal = _Build(ideal)(graph, s, ideal.keys)
    words, ids = ideal.words, ideal._ids
    return Matching(
        graph, s, tuple((words[ids[lo]], words[ids[up]]) for lo, up in zip(lower, upper)),
        words[ids[rank0]], tuple(sorted(words[ids[k]] for k in maximal)),
    )


class _Build:
    """A build's node cache.  Calling it runs a node on the keys its parent
    derived, handed over in ``keys`` and taken on entry, so freed on return.
    Every node's graph keeps a subset of the root's vertices, so all keys use
    the root ideal's vertex positions (``bit``)."""

    def __init__(self, ideal):
        self.m, self.covers, self.cache, self.keys = len(ideal.graph), ideal.key_covers, {}, None
        self.bit = {v: 1 << p for p, v in enumerate(ideal.graph.vertices)}

    def __call__(self, g, v, keys):
        got = self.cache.get((g, v))
        if got is None:
            self.keys = keys
            got = self.cache[g, v] = _build(g, v, self)
        return got


def _word(key, m):
    """A key's normal form as positions: least vertex with no unwritten in-neighbour first."""
    rest, word = key & (1 << m) - 1, []
    while rest:
        word.append(next(p for p in _bits(rest) if not key >> m * (p + 1) & rest))
        rest ^= 1 << word[-1]
    return word


def _build(g, v, build):
    """One construction step on the keys of g's ideal: lower and upper keys of
    the pairs, the unmatched rank-0 key and the unmatched maximal keys, unsorted."""
    keys, build.keys = build.keys, None
    if g.degree(v):
        lower, upper = _build_along_edge(g, v, keys, build)
    elif any(map(g.degree, g.vertices)):
        lower, upper = _build_isolated_anchor(g, v, keys, build)
    else:
        return _build_edgeless(g, v, build)
    # locate the unmatched keys and check the shape promised by H1
    matched = {*lower, *upper}
    assert len(matched) == 2 * len(lower), "element matched twice"
    unmatched = [k for k in keys if k not in matched]
    rank0 = [k for k in unmatched if k.bit_count() == 1]
    assert len(rank0) == 1, "exactly one rank-0 element stays unmatched"
    top = tuple(k for k in unmatched if (k & (1 << build.m) - 1).bit_count() == len(g))
    assert len(top) + 1 == len(unmatched), "middle ranks must be fully matched"
    return lower, upper, rank0[0], top


def _build_edgeless(g, v, build):
    # everything commutes: the keys are the vertex subsets.  Pair sigma with
    # pivot + sigma for every sigma avoiding the pivot, by rank, then by word;
    # a lone vertex is its own pivot, left unmatched.
    pivot = min((u for u in g.vertices if u != v), default=v)
    others, bit = [build.bit[u] for u in g.vertices if u != pivot], build.bit[pivot]
    lower = [sum(c) for r in range(1, len(others) + 1) for c in combinations(others, r)]
    return lower, [k | bit for k in lower], bit, ()


def _build_isolated_anchor(g, v, keys, build):
    # v commutes with everything: the ideal is B(H) + B(H)*v + {v} for
    # H = g minus v, and appending v sets its bit.  Double the matching of
    # B(H), send v to 1*v, and close each unmatched maximal sigma with
    # sigma*v, in the order of their words.
    h, bv = g.delete_vertex(v), build.bit[v]
    anchor = min(u for u in h.vertices if h.degree(u) > 0)
    h_lower, h_upper, h_rank0, h_maximal = build(h, anchor, [k for k in keys if not k & bv])
    assert len(keys) == 2 * (2 * len(h_lower) + 1 + len(h_maximal)) + 1, "B(H) sits inside B(G)"
    maximal = sorted(h_maximal, key=lambda k: _word(k, build.m))
    lower = [*h_lower, *(k | bv for k in h_lower), bv, *maximal]
    return lower, [*h_upper, *(k | bv for k in h_upper), h_rank0 | bv, *(k | bv for k in maximal)]


def _build_along_edge(g, v, keys, build):
    t = min(g.neighbors(v))
    x, y = sorted((v, t))  # contraction names the merged vertex by the smaller label
    m, bit = build.m, build.bit
    field, bs, bt, both = (1 << m) - 1, bit[v], bit[t], bit[v] | bit[t]
    st, sx, sy = m * bt.bit_length(), m * bit[x].bit_length(), m * bit[y].bit_length()
    e_bits, keep = bs << st | bt << m * bs.bit_length(), ~(bit[y] | field << sx | field << sy)
    out_y, in_x = sum(bit[y] << m * (p + 1) for p in range(m)), (field & ~both) << sx
    # the block (s -> t, no longer path s ~> t) is B(G/e)'s x-elements under
    # x -> s-t; the rest maps onto B(G - e) by forgetting e's orientation
    substituted, section = {}, {}
    for k in keys:
        if k & both == both and k >> st & bs:
            seen = todo = k >> st & field & ~bs  # walk back from t's other in-neighbours
            while todo and not seen & bs:
                low = todo & -todo
                new = k >> m * low.bit_length() & field & ~seen
                todo, seen = todo ^ low | new, seen | new
            if not seen & bs:
                # merge y into x: x's field takes both, y's bit elsewhere moves to x's
                c = k & keep
                moved = c & out_y
                substituted[c ^ moved | moved >> (sy - sx) // m | (k | k >> sy - sx) & in_x] = k
                continue
        section[k & ~e_bits] = k
    assert len(substituted) + len(section) == len(keys), "both block maps must be injective"
    # B(G/e)'s elements without x are G's avoiding s and t, keys unchanged
    f_lower, f_upper = build(g.contract_edge((v, t)), x,
                             [*(k for k in keys if not k & both), *substituted])[:2]
    h_lower, h_upper = build(g.delete_edge((v, t)), v, section.keys())[:2]

    # matched pairs downstairs lift to genuine covers upstairs
    lower, upper = [section[k] for k in h_lower], [section[k] for k in h_upper]
    for lo, up in zip(f_lower, f_upper):
        if lo in substituted:  # then up holds x too
            lower.append(substituted[lo])
            upper.append(substituted[up])
    assert all(map(build.covers, lower, upper)), "lifted and substituted pairs must be covers"
    return lower, upper


# ----------------------------------------------------------------------
# verification

def _pair_ids(matching, ideal):
    """The matching's pairs as (lower, upper) flat ids of ``ideal``, each word
    looked up once; a pair that is not a cover raises ``GraphError``."""
    pairs = []
    for lo, up in matching.pairs:
        i, j = ideal.flat_id(lo), ideal.flat_id(up)
        if not ideal.key_covers(ideal.keys[i], ideal.keys[j]):
            raise GraphError(f"pair ({format_word(lo)}, {format_word(up)}) is not a cover")
        pairs.append((i, j))
    return pairs


def verify_acyclic(matching, ideal):
    """True iff reversing the matched covers leaves the Hasse diagram free of
    directed cycles.  The reversed diagram goes to ``graphlib`` on flat ids,
    one cell's faces at a time: an edge up along each matched cover and down
    along every other face.  A cell matched twice can close a cycle through
    three ranks.
    """
    matched = set(_pair_ids(matching, ideal))

    # add(b, *a) puts each a before b: every edge goes in turned round, which
    # keeps each cycle and takes a cell's unmatched faces in one call
    sorter = graphlib.TopologicalSorter()
    for r in range(1, ideal.top_rank + 1):
        below = ideal.offsets[r - 1]
        for up in range(ideal.offsets[r], ideal.offsets[r + 1]):
            unmatched = []
            for j in _bits(ideal.face_masks(r, (ideal.keys[up],))[0]):
                lo = below + j
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
