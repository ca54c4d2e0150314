"""The boolean ideal of a graph: commutation classes of repetition-free words.

Words are tuples of distinct vertex labels.  Two words are equivalent when one
turns into the other by repeatedly swapping adjacent letters that are
non-adjacent vertices of the graph; each class is stored as its
lexicographically least member (the greedy normal form: repeatedly emit the
smallest letter all of whose remaining predecessors commute with it).

The classes form a ranked poset under subword order, with rank = length - 1.
The empty word is the implicit rank -1 minimum: never stored, never a cell.

``rank_sizes`` and ``euler_characteristic`` count the classes without building
one: the full-length classes on a vertex set are its acyclic orientations,
(-1)^n chi(-1) by Stanley, which one packed recurrence reads off the
partitions of every vertex set into independent blocks.
``enumerate_ideal`` builds every class, for the consumers that read words,
and refuses an ideal over its budget before building any.  Both raise
``BudgetError`` exactly when the element count exceeds the budget, the only
reason either refuses a graph.  A budget of None means ``DEFAULT_BUDGET`` to
count and ``BUILD_BUDGET`` to build; only the last ideal built is kept.

A class is a vertex set S plus an acyclic orientation of G[S]
(Cartier-Foata): a letter points to every later neighbour in any
representative.  An enumerated ideal numbers its elements rank by rank (flat
ids) and gives each one int key that holds both.  With the vertices at
positions p of ``graph.vertices`` (m of them), S is the low m bits and the
field at shift m * (p + 1) holds p's in-neighbours, its earlier neighbours.
Appending a letter, deleting one (a face) and testing a cover are mask
operations on keys; ``normalize``, ``append_letter``, ``word_faces`` and
``admits_adjacent_pair`` remain the reference definitions the tests compare
against.  Ranks come out in normal-form order by construction (``_enumerate``).

>>> from booleancomplex.graph import path_graph
>>> a3 = path_graph(3)                 # vertices 0-1-2, edges {0,1} and {1,2}
>>> normalize((2, 0, 1), a3)           # 2 and 0 commute, 2 and 1 do not
(0, 2, 1)
>>> rank_sizes(a3)
(3, 5, 4)
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .graph import GraphError, UnknownVertexError, _bits

#: Elements counted before ``rank_sizes`` refuses (it holds one packed
#: polynomial per vertex subset, counting that subset's partitions into
#: independent blocks, so K9's 986,409 elements count in milliseconds).
DEFAULT_BUDGET = 2_000_000

#: Elements built before ``enumerate_ideal`` refuses: K8 (109,600) fits.
BUILD_BUDGET = 200_000


class BudgetError(RuntimeError):
    """An enumeration or exact computation exceeded its configured budget."""


class UnknownElementError(GraphError):
    """A word does not name an element of the ideal at hand."""


# ----------------------------------------------------------------------
# words and normal forms

def normalize(word, graph):
    """Return the lexicographically least word in the commutation class.

    Greedy: at each step emit the smallest remaining letter whose earlier
    letters in the remaining word are all non-adjacent to it.
    """
    seen = 0
    for x in word:
        if x not in graph:
            raise UnknownVertexError(f"letter {x} is not a vertex of the graph")
        if (seen >> x) & 1:
            raise GraphError(f"repeated letter {x} in word {word!r}")
        seen |= 1 << x
    rem = list(word)
    out = []
    while rem:
        blockers = 0
        best_i = -1
        best = None
        for i, x in enumerate(rem):
            if blockers & (1 << x) == 0 and (best is None or x < best):
                best, best_i = x, i
            blockers |= graph.neighbor_mask(x)
        out.append(best)
        del rem[best_i]
    return tuple(out)


def append_letter(word, x, graph):
    """Normal form of (normal-form word) * x, by insertion.

    x must land after its last neighbour in the word; within the commuting
    tail it goes in front of the first larger letter.
    """
    nbr = graph.neighbor_mask(x)
    d = -1
    for i, w in enumerate(word):
        if (nbr >> w) & 1:
            d = i
    p = len(word)
    for q in range(d + 1, len(word)):
        if word[q] > x:
            p = q
            break
    return word[:p] + (x,) + word[p:]


def word_faces(word, graph):
    """The len(word) distinct codimension-1 faces, as normal forms.

    Removing a letter from any two representatives of a class lands in the
    same class, so each face is well defined on classes.
    """
    return [normalize(tuple(w for w in word if w != x), graph) for x in word]


def representatives(word, graph):
    """Yield every word of the commutation class, each exactly once.

    The class members are exactly the linear extensions of the dependence
    order, so the walk picks any currently available letter (one with no
    remaining dependent letter before it).
    """
    rem = list(word)

    def walk(prefix):
        if not rem:
            yield tuple(prefix)
            return
        blockers = 0
        for i in range(len(rem)):
            x = rem[i]
            if blockers & (1 << x) == 0:
                del rem[i]
                prefix.append(x)
                yield from walk(prefix)
                prefix.pop()
                rem.insert(i, x)
            blockers |= graph.neighbor_mask(x)

    yield from walk([])


def _reach(word, graph):
    """Per position i, the bitmask of later positions j that i precedes in
    every representative: the transitive closure of adjacent-in-the-graph
    pairs, built from the right."""
    k = len(word)
    reach = [0] * k
    for i in range(k - 1, -1, -1):
        nbr = graph.neighbor_mask(word[i])
        acc = 0
        for j in range(i + 1, k):
            if (nbr >> word[j]) & 1:
                acc |= (1 << j) | reach[j]
        reach[i] = acc
    return reach


def trace_order(word, graph):
    """The dependence partial order on letter positions.

    Pairs (i, j) with i < j such that position i precedes position j in every
    representative.  Representatives are its linear extensions, so some
    representative puts the letter at j before the one at i exactly when
    (i, j) is not in the order.
    """
    reach = _reach(word, graph)
    return frozenset((i, j) for i, mask in enumerate(reach) for j in _bits(mask))


def admits_adjacent_pair(word, edge, graph):
    """Can the class be written with s immediately to the left of t?

    For an edge {s, t} this holds iff both letters occur, s precedes t in the
    dependence order, and no letter sits strictly between them.  The
    reference definition of the edge block of the matching construction.
    """
    s, t = edge
    if not graph.adjacent(s, t):
        raise GraphError(f"{{{s}, {t}}} is not an edge of the graph")
    if s not in word or t not in word:
        return False
    si, ti = word.index(s), word.index(t)
    if si > ti:
        return False
    reach = _reach(word, graph)
    between = reach[si] & ~(1 << ti)
    return all((reach[p] >> ti) & 1 == 0 for p in _bits(between))


# ----------------------------------------------------------------------
# element text form: plain digits below 10, hyphen-joined otherwise

def format_word(word):
    if any(x >= 10 for x in word):
        return "-".join(str(x) for x in word)
    return "".join(str(x) for x in word)


# ----------------------------------------------------------------------
# the ideal

class BooleanIdeal:
    """All commutation classes of a graph, grouped by rank, with face data.

    ranks[r] lists the rank-r normal forms in the lexicographic order they
    are built in; a word's rank is its length - 1.  An element's flat id is
    its position in ``words``, the ranks laid end to end: ``offsets[r]`` is
    the flat id of ranks[r][0], so position j in rank r is ``offsets[r] + j``.
    ``keys[i]`` is element i's key (see the module docstring), and one
    key-to-id lookup names the class of any word.  The face without a vertex
    clears its bit, its field and its bit in every field; ``face_masks``
    reads each key's faces that way, as the boundary columns of
    ``homology``, which keeps its top cycle basis here so it goes with the
    ideal.  ``face_table`` gives the same faces as sorted tuples, derived
    from the masks on each call.  With ``is_cover`` they are the one face
    relation others read; all are masks over keys, never a normalised word.
    """

    __slots__ = ("graph", "ranks", "words", "keys", "offsets", "_ids", "_letters",
                 "_vertex_bits", "_kill", "_top_cycles")

    def __init__(self, graph, ranks, keys, letters):
        self.graph = graph
        self.ranks = ranks
        self.words = tuple(w for words in ranks for w in words)
        self.keys = keys
        self._ids = dict(zip(keys, range(len(keys))))
        self._letters = letters
        m = len(graph)
        self._vertex_bits = field = (1 << m) - 1
        column = sum(1 << m * (p + 1) for p in range(m))  # bit 0 of every field
        # by vertex bit: the mask that deletes the vertex from a key
        self._kill = {
            bit: ~(bit | field << shift | column * bit)
            for bit, _, shift in letters.values()
        }
        self.offsets = tuple(itertools.accumulate((len(words) for words in ranks), initial=0))
        self._top_cycles = None  # homology's top reduction, once computed

    def flat_id(self, word):
        try:
            i = self.class_id(word)
        except KeyError:
            i = None
        if i is None or self.words[i] != word:
            raise UnknownElementError(f"{format_word(word)} is not an element")
        return i

    @property
    def top_rank(self):
        return len(self.ranks) - 1

    def rank_sizes(self):
        return tuple(len(words) for words in self.ranks)

    def element_count(self):
        return len(self.words)

    def elements(self):
        return iter(self.words)

    def class_id(self, word):
        """Flat id of the class of any repetition-free word on the vertices:
        its key, grown one appended letter at a time, looked up once."""
        letters, key = self._letters, 0
        for x in word:
            bit, nbr, shift = letters[x]
            key |= bit | (nbr & key) << shift
        return self._ids[key]

    def face_masks(self, r, keys=None):
        """For each rank-r key (every rank-r element's by default), the
        bitset of its face indices in rank r-1: the face without a vertex is
        the key with that vertex killed, looked up once.  Every rank-r
        element has exactly r+1 distinct faces."""
        if not 1 <= r <= self.top_rank:
            raise GraphError(f"rank {r} out of range 1..{self.top_rank}")
        if keys is None:
            keys = self.keys[self.offsets[r]:self.offsets[r + 1]]
        ids, kill, vertex_bits = self._ids, self._kill, self._vertex_bits
        base = self.offsets[r - 1]
        masks = []
        for key in keys:
            mask = 0
            rest = key & vertex_bits
            while rest:
                low = rest & -rest
                rest ^= low
                mask |= 1 << (ids[key & kill[low]] - base)
            assert mask.bit_count() == r + 1, "faces of a cell must be distinct"
            masks.append(mask)
        return tuple(masks)

    def face_table(self, r):
        """For each rank-r element, the sorted tuple of its face indices in
        rank r-1: its face mask's bits, lowest first."""
        return tuple(tuple(_bits(mask)) for mask in self.face_masks(r))

    def is_cover(self, lower, upper):
        """Is ``lower`` a codimension-1 face of ``upper``?"""
        return self.key_covers(self.keys[self.flat_id(lower)], self.keys[self.flat_id(upper)])

    def key_covers(self, lower, upper):
        """Cover test on any keys of this encoding: exactly one extra vertex
        bit, and deleting that vertex from the upper key gives the lower."""
        kill = self._kill.get((lower ^ upper) & self._vertex_bits)
        return kill is not None and upper & kill == lower


def _over_budget(graph, budget):
    return BudgetError(f"ideal of {graph!r} exceeds the element budget ({budget})")


@lru_cache(maxsize=1)
def _enumerate(graph):
    # per letter, ascending: its bit, its neighbours' bits and its field's shift
    letters = {v: (1 << p, nbr, len(graph) * (p + 1))
               for p, (v, nbr) in enumerate(zip(graph.vertices, graph.dense_form()))}
    level = {bit: (v,) for v, (bit, _, _) in letters.items()}
    ranks, keys = [], []
    while level:
        ranks.append(tuple(level.values()))
        keys.extend(level)
        # parents in normal-form order, letters ascending: w's prefixes are
        # normal forms, and w <= NF(w - y) y for each maximal letter y, so
        # (w[:-1], w[-1]) is the first pair to reach w, in normal-form order
        nxt = {}
        for key, word in level.items():
            for x, (bit, nbr, shift) in letters.items():
                if not key & bit:
                    grown = key | bit | (nbr & key) << shift
                    if grown not in nxt:
                        nxt[grown] = word + (x,)
        level = nxt
    return BooleanIdeal(graph, tuple(ranks), tuple(keys), letters)


def enumerate_ideal(graph, budget=None):
    """All elements of every rank, deduplicated by normal form.  Every call
    first counts the ideal exactly against the budget (``BUILD_BUDGET`` when
    None); the last ideal built is kept, the only state held between calls."""
    rank_sizes(graph, BUILD_BUDGET if budget is None else budget)  # or BudgetError
    return _enumerate(graph)


# ----------------------------------------------------------------------
# counting without enumerating

def _length_counts(comp, limit):
    """[1, f_0, f_1, ...] for a connected graph, or None once the classes
    counted exceed ``limit``.

    The full-length classes on a vertex set S are the acyclic orientations
    of G[S] (Cartier-Foata), and by Stanley ("Acyclic orientations of
    graphs", 1973) there are a(S) = sum_j (-1)^(|S|-j) j! p_j(S) of them,
    where p_j(S) counts the partitions of S into j independent blocks.  The
    block holding S's top vertex v is v plus an independent J of S - N[v],
    so p(S) = y * sum_J p(S - v - J) as polynomials in y.  Each p(S) is one
    int at y = 2^w: a field holds at most Bell(m + 1), the partitions of
    every subset together, so the sums over the subsets of one size add up
    field by field without a carry.  Subsets are bitmasks over ``comp``'s
    vertices in order, filled in vertex by vertex; the count, which only
    grows, is checked as each vertex joins.
    """
    m = len(comp)
    nbr = {1 << p: mask for p, mask in enumerate(comp.dense_form())}
    bell = [1]  # Bell(k + 1) = sum_i C(k, i) Bell(i)
    for k in range(m + 1):
        bell.append(sum(math.comb(k, i) * b for i, b in enumerate(bell)))
    w = bell[m + 1].bit_length()
    field = (1 << w) - 1
    weights = [(-1) ** j * math.factorial(j) for j in range(m + 1)]

    def signed(packed):  # a(S) = (-1)^|S| signed(p(S))
        return sum(c * (packed >> j * w & field) for j, c in enumerate(weights))

    p = [1] * (1 << m)
    sums = [1] + [0] * m  # p(S) summed over |S| = k
    for v in range(m):
        top = 1 << v
        free = ~nbr[top]
        for s in range(top, top << 1):
            rest = s ^ top
            total = p[rest]
            # the independent subsets J of rest - N(v), grown in increasing bit order
            stack = [(rest & free, rest)]
            while stack:
                cand, left = stack.pop()
                while cand:
                    low = cand & -cand
                    cand ^= low
                    sub = left ^ low
                    total += p[sub]
                    more = cand & ~nbr[low]
                    if more:
                        stack.append((more, sub))
            p[s] = total << w
            sums[s.bit_count()] += p[s]
        if signed(sum(sums[2::2])) - signed(sum(sums[1::2])) > limit:
            return None
    return [(-1) ** k * signed(packed) for k, packed in enumerate(sums)]


def rank_sizes(graph, budget=None):
    """Rank sizes f_0, f_1, ..., counted without building an element.

    f_k sums the acyclic orientation counts of the induced subgraphs on
    k + 1 vertices.  Components contribute independently: the polynomials
    1 + sum_k f_k x^(k+1) of the components multiply.  Raises
    ``BudgetError`` exactly when sum_k f_k exceeds ``budget``
    (``DEFAULT_BUDGET`` when None).
    """
    if budget is None:
        budget = DEFAULT_BUDGET
    n = len(graph)
    if n == 0:
        raise GraphError("the boolean ideal is defined for nonempty graphs")
    if (1 << n) - 1 > budget:  # every nonempty vertex set holds a class
        raise _over_budget(graph, budget)
    poly = [1]
    for comp in graph.components():
        # the final count + 1 is at least sum(poly) * (1 + this component's count)
        counts = _length_counts(comp, (budget + 1) // sum(poly) - 1)
        if counts is None:
            raise _over_budget(graph, budget)
        product = [0] * (len(poly) + len(counts) - 1)
        for i, p in enumerate(poly):
            for j, c in enumerate(counts):
                product[i + j] += p * c
        poly = product
    return tuple(poly[1:])


def euler_characteristic(graph, budget=None):
    """Alternating sum of the rank sizes (the empty face is excluded)."""
    return sum((-1) ** r * f for r, f in enumerate(rank_sizes(graph, budget)))


def count_rank_path(n, k):
    """Closed-form count of length-k classes for the path on n vertices:
    sum_i C(n+1-i, k+1-i) * C(k-1, i-1), with the empty word counted at k=0.
    """
    if n < 1 or not 0 <= k <= n:
        raise GraphError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return 1
    return sum(
        math.comb(n + 1 - i, k + 1 - i) * math.comb(k - 1, i - 1)
        for i in range(1, k + 1)
    )
