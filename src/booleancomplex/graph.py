"""Finite simple graphs with stable small-integer labels.

Vertex labels are integers from 0 to ``MAX_LABEL``, so neighbourhoods fit
in single machine-word bitmasks.  A graph stores its vertices once, as the
keys of a dict from vertex to neighbour mask in ascending label order.  Graphs
are immutable value objects; every operation returns a new ``Graph`` and never
renames the surviving vertices.  In particular contracting the edge {s, t} keeps
``min(s, t)`` as the label of the merged vertex, which the word-poset
machinery downstream relies on.

The module also has the plain constructors behind the named families (paths,
forked paths, double forks, T-shapes, cycles, complete graphs, stars,
edgeless graphs; the family table itself is in ``beta``), dense forms for
order-preserving copies, with the edge surgeries and components on them that
the edge recursion runs, exact canonical keys for isomorphism classes
(paths and cycles keyed by walking them, every other graph by a search over
ordered lists of cell masks on its dense form, refined by neighbour counts),
one representative per isomorphism class for exhaustive sweeps, and a plain
text edge-list parser.
"""

from __future__ import annotations

MAX_LABEL = 63


class GraphError(ValueError):
    """Bad graph input (unknown vertex, invalid edge, malformed text...)."""


class InvalidEdgeError(GraphError):
    """An edge argument is not an edge of the graph."""


class UnknownVertexError(GraphError):
    """A vertex argument is not a vertex of the graph."""


class FamilyError(GraphError):
    """A family spec names an unknown family or an out-of-range rank."""


def _bits(mask):
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable finite simple graph on small integer labels.

    ``_adj`` maps each vertex to its neighbour mask, in ascending label order;
    every method that makes a graph keeps that order.  ``__eq__`` compares the
    dicts, which ignores order, but ``__hash__`` hashes keys and values as they
    lie, so equal graphs hash alike only because their dicts share one order.
    """

    __slots__ = ("_adj",)

    def __init__(self, edges=(), vertices=()):
        adj = {self._check_label(v): 0 for v in vertices}
        for e in edges:
            u, v = e
            u = self._check_label(u)
            v = self._check_label(v)
            if u == v:
                raise InvalidEdgeError(f"self-loop at vertex {u}")
            adj[u] = adj.get(u, 0) | (1 << v)
            adj[v] = adj.get(v, 0) | (1 << u)
        self._adj = dict(sorted(adj.items()))

    @staticmethod
    def _check_label(v):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= MAX_LABEL:
            raise GraphError(f"vertex label must be an integer in [0, {MAX_LABEL}], got {v!r}")
        return v

    @classmethod
    def _from_adj(cls, adj):
        """Wrap ``adj``, which the caller has put in ascending label order."""
        g = object.__new__(cls)
        g._adj = adj
        return g

    # ------------------------------------------------------------------
    # views

    def __len__(self):
        return len(self._adj)

    def __contains__(self, v):
        return v in self._adj

    @property
    def vertices(self):
        return tuple(self._adj)

    @property
    def edges(self):
        out = []
        for u, mask in self._adj.items():
            out.extend((u, u + 1 + w) for w in _bits(mask >> (u + 1)))
        return out

    def neighbor_mask(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in graph") from None

    def neighbors(self, v):
        return tuple(_bits(self.neighbor_mask(v)))

    def degree(self, v):
        return self.neighbor_mask(v).bit_count()

    def adjacent(self, u, v):
        return (self.neighbor_mask(u) >> self._check_label(v)) & 1 == 1

    def has_isolated_vertex(self):
        return not all(self._adj.values())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self):
        return hash((tuple(self._adj), tuple(self._adj.values())))

    def __repr__(self):
        return f"Graph(edges={self.edges!r}, vertices={list(self.vertices)!r})"

    # ------------------------------------------------------------------
    # edge and vertex surgery

    def _check_edge(self, e):
        u, v = e
        if not self.adjacent(u, v):
            raise InvalidEdgeError(f"{{{u}, {v}}} is not an edge of the graph")
        return u, v

    def _check_vertex(self, v):
        if v not in self:
            raise UnknownVertexError(f"vertex {v} not in graph")
        return v

    def add_edge(self, e):
        """New graph with the edge added; endpoints must already be vertices."""
        u, v = e
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise InvalidEdgeError(f"self-loop at vertex {u}")
        adj = dict(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(adj)

    def delete_edge(self, e):
        """Same vertices, the edge removed."""
        u, v = self._check_edge(e)
        adj = dict(self._adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._from_adj(adj)

    def contract_edge(self, e):
        """Simple contraction: merge the endpoints, drop loops and doubled
        edges.  The merged vertex keeps the smaller endpoint label."""
        u, v = self._check_edge(e)
        keep, drop = (u, v) if u < v else (v, u)
        kbit, dbit = 1 << keep, 1 << drop
        adj = {}
        for w, m in self._adj.items():
            if w == drop:
                continue
            if w == keep:
                m = (self._adj[u] | self._adj[v]) & ~(kbit | dbit)
            elif m & dbit:
                m = (m & ~dbit) | kbit
            adj[w] = m
        return Graph._from_adj(adj)

    def extract_edge(self, e):
        """Remove the edge together with both endpoints (induced subgraph on
        the rest; possibly empty)."""
        u, v = self._check_edge(e)
        return self._without((1 << u) | (1 << v))

    def delete_vertex(self, s):
        """Induced subgraph on the other vertices."""
        self._check_vertex(s)
        return self._without(1 << s)

    def _without(self, mask):
        """Induced subgraph on the vertices outside ``mask``."""
        return Graph._from_adj(
            {v: m & ~mask for v, m in self._adj.items() if not (mask >> v) & 1}
        )

    def relabel(self, mapping):
        """New graph with vertex ``v`` renamed ``mapping[v]`` (a bijection)."""
        try:
            old = {self._check_label(mapping[v]): v for v in self._adj}
        except KeyError as exc:
            raise GraphError(f"relabel mapping has no image for vertex {exc.args[0]}") from None
        if len(old) != len(self):
            raise GraphError("relabel mapping is not injective")
        return Graph._from_adj({
            w: sum(1 << mapping[u] for u in _bits(self._adj[v]))
            for w, v in sorted(old.items())
        })

    # ------------------------------------------------------------------
    # connectivity

    def components(self):
        """Maximal connected subgraphs, ordered by smallest vertex label."""
        # a component is closed under adjacency, so its masks stand as they are
        return [Graph._from_adj({w: self._adj[w] for w in _bits(comp)})
                for comp in _components(self._adj, sum(1 << v for v in self._adj))]

    def is_connected(self):
        return len(self) <= 1 or len(self.components()) == 1

    # ------------------------------------------------------------------
    # canonical keys

    def dense_form(self):
        """The neighbour masks with the vertices renamed 0..n-1 in ascending
        label order: equal for two graphs iff an order-preserving bijection
        maps one onto the other."""
        adj = self._adj
        # ascending distinct labels end at n - 1 exactly when they are 0..n-1
        if not adj or next(reversed(adj)) == len(adj) - 1:
            return tuple(adj.values())
        return _renumber(adj, sum(1 << v for v in adj))

    def canonical_key(self):
        """Byte string equal for two graphs iff they are isomorphic.

        The key is the vertex count and then the n-by-n adjacency matrix
        under some vertex order, row by row.  A connected graph of maximum
        degree at most 2 (a path or a cycle) is ordered by walking it, from
        an end if it has one; every such walk gives the same matrix.  Every
        other graph takes the least matrix among the leaves of a search over
        ordered partitions of its vertices into cells (McKay and Piperno,
        "Practical graph isomorphism, II", J. Symb. Comput. 2014): cells by
        degree, in ascending order, refined until every vertex of a cell has
        as many neighbours in each cell as the others do; then each vertex
        of the first cell of two or more is made a cell of its own, placed
        first, and the partition refined again, down to single vertices,
        whose order is a leaf.  Twin vertices branch once.  Each step reads
        only cell order and neighbour counts, never labels, so isomorphic
        graphs reach the same leaf matrices and equality of keys is exactly
        isomorphism.
        """
        n = len(self)
        if n == 0:
            return bytes([0])
        return bytes([n]) + _form_key(self.dense_form()).to_bytes(
            (n * n + 7) // 8, "big")


# ----------------------------------------------------------------------
# canonical search on dense forms; a cell is the vertex mask of one part of
# an ordered partition

def _form_key(form):
    """The least adjacency code (``_leaf_code``) over the leaves of the cell
    search on ``form``, or the code of its walk if it is a path or a cycle."""
    by_degree = {}
    for v, m in enumerate(form):
        k = m.bit_count()
        by_degree[k] = by_degree.get(k, 0) | (1 << v)
    if max(by_degree) <= 2:
        # a path (walked from an end) or a cycle: every walk along it gives
        # the same code; a walk that stops short of every vertex means the
        # graph is disconnected, so it takes the search
        ends = by_degree.get(0, 0) | by_degree.get(1, 0)
        v = (ends & -ends or 1).bit_length() - 1
        walk = [v]
        seen = 1 << v
        while step := form[v] & ~seen:
            v = step.bit_length() - 1
            walk.append(v)
            seen |= 1 << v
        if len(walk) == len(form):
            return _leaf_code(form, walk)

    best = None

    def search(cells):
        nonlocal best
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        else:
            code = _leaf_code(form, [c.bit_length() - 1 for c in cells])
            if best is None or code < best:
                best = code
            return
        tried = []
        rest = target
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            # twins branch into identical subtrees
            if any(form[v] & ~(1 << u) == form[u] & ~low for u in tried):
                continue
            tried.append(v)
            search(_refine(form, cells[:i] + [low, target ^ low] + cells[i + 1:], [low]))

    cells = [by_degree[k] for k in sorted(by_degree)]
    search(_refine(form, cells, cells[:]))
    return best


def _refine(form, cells, stack):
    """Split the ordered ``cells`` until each is equitable: pop a splitter
    mask off ``stack``, part every cell by its vertices' neighbour counts in
    the splitter, the parts in ascending count where the cell stood, and
    push every part."""
    n = len(form)
    while stack and len(cells) < n:
        s = stack.pop()
        out = []
        for c in cells:
            if c & (c - 1):
                parts = {}
                rest = c
                while rest:
                    low = rest & -rest
                    rest ^= low
                    k = (form[low.bit_length() - 1] & s).bit_count()
                    parts[k] = parts.get(k, 0) | low
                if len(parts) > 1:
                    split = [parts[k] for k in sorted(parts)]
                    out += split
                    stack += split
                    continue
            out.append(c)
        cells = out
    return cells


def _leaf_code(form, order):
    """The adjacency matrix of ``form`` with its vertices in ``order``, row
    by row, as one integer (the first entry in the top bit)."""
    n = len(form)
    rows = 0
    for v in order:
        rows = (rows << n) | form[v]
    # bit 0 of every row, so that (rows >> v) & ones is the column of v
    ones = ((1 << n * n) - 1) // ((1 << n) - 1)
    code = 0
    for i, v in enumerate(order):
        code |= ((rows >> v) & ones) << (n - 1 - i)
    return code


# ----------------------------------------------------------------------
# dense forms: neighbour masks over positions 0..n-1, as Graph.dense_form()
# gives them; the surgeries below equal the Graph surgeries' dense forms

def _components(adj, rest):
    """Split the vertex mask ``rest``, which no edge leaves, into the vertex
    masks of its components, least vertex first; ``adj[v]`` is the neighbour
    mask of vertex ``v`` (a dict by label or a dense form by position)."""
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grown = 0
            for w in _bits(frontier):
                grown |= adj[w]
            frontier = grown & ~comp
            comp |= frontier
        out.append(comp)
        rest &= ~comp
    return out


def _renumber(adj, keep):
    """The neighbour masks of the vertices in ``keep``, which no edge leaves,
    renamed 0..k-1 in ascending order."""
    pos = {v: i for i, v in enumerate(_bits(keep))}
    return tuple(sum(1 << pos[w] for w in _bits(adj[v])) for v in pos)


def _form_components(form):
    """The dense forms of the components, least position first."""
    comps = _components(form, (1 << len(form)) - 1)
    return [form] if len(comps) == 1 else [_renumber(form, c) for c in comps]


def _form_delete(form, p, q):
    """Delete the edge between positions p and q."""
    out = list(form)
    out[p] ^= 1 << q
    out[q] ^= 1 << p
    return tuple(out)


def _form_contract(form, p, q):
    """Simply contract the edge between positions p < q into p."""
    bp, low = 1 << p, (1 << q) - 1
    out = [m | bp if (m >> q) & 1 else m for m in form]
    out[p] = (form[p] | form[q]) & ~bp
    del out[q]
    # squeeze position q out: the bits above it move down by one
    return tuple((m & low) | ((m >> 1) & ~low) for m in out)


def _form_extract(form, p, q):
    """Remove positions p < q, and so every edge at them."""
    low, mid = (1 << p) - 1, (1 << (q - 1)) - 1
    # the bits between p and q move down by one, those above q by two
    return tuple((m & low) | ((m >> 1) & mid & ~low) | ((m >> 2) & ~mid)
                 for m in form[:p] + form[p + 1:q] + form[q + 1:])


# ----------------------------------------------------------------------
# graphs by shape (the family table in ``beta`` names them)

def path_graph(n):
    return Graph(edges=[(i, i + 1) for i in range(n - 1)], vertices=range(n))


def cycle_graph(n):
    if n < 3:
        raise FamilyError("cycle needs at least 3 vertices")
    return Graph(edges=[(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(
        edges=[(i, j) for i in range(n) for j in range(i + 1, n)], vertices=range(n)
    )


def star_graph(n):
    """Tree on n vertices with centre 0 of degree n - 1."""
    return Graph(edges=[(0, i) for i in range(1, n)], vertices=range(n))


def edgeless_graph(n):
    return Graph(vertices=range(n))


def forked_path_graph(n):
    """Path on n - 1 vertices with an extra leaf forking off one end."""
    g = path_graph(n - 1)
    return Graph(edges=g.edges + [(n - 3, n - 1)])


def double_fork_graph(n):
    """Path with two leaves forking off each end; n >= 5 vertices."""
    edges = [(0, 2), (1, 2), (n - 2, n - 3), (n - 1, n - 3)]
    edges += [(i, i + 1) for i in range(2, n - 3)]
    return Graph(edges=edges)


def tshape_graph(a, b, c):
    """Three paths of lengths a, b, c glued at a common centre vertex 0."""
    edges = []
    v = 0
    for arm in (a, b, c):
        prev = 0
        for _ in range(arm):
            v += 1
            edges.append((prev, v))
            prev = v
    return Graph(edges=edges, vertices=range(v + 1))


def isomorphism_classes(max_vertices):
    """One representative per isomorphism class on 1..max_vertices vertices:
    the first of each class among edge subsets of 0..n-1, in binary order.
    Each subset is keyed by its dense form, built from the mask; only a
    class's first member becomes a ``Graph``."""
    out = []
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for mask in range(1 << len(pairs)):
            form = [0] * n
            for b in _bits(mask):
                i, j = pairs[b]
                form[i] |= 1 << j
                form[j] |= 1 << i
            key = _form_key(form)
            if key not in seen:
                seen.add(key)
                out.append(Graph._from_adj(dict(enumerate(form))))
    return out


# ----------------------------------------------------------------------
# edge-list text format

def parse_edge_list(text):
    """Parse edge-list text into (graph, labels).

    One edge per line as "u v" (unsigned decimal labels); a line with a single
    label declares an isolated vertex.  Blank lines and '#' comments are
    ignored.  External labels are mapped to dense 0..n-1 in sorted order;
    ``labels[i]`` is the external label of internal vertex ``i``.
    """
    edges = []
    singles = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise GraphError(f"line {lineno}: expected integer labels, got {line!r}")
        nums = [int(p) for p in parts]
        if len(nums) == 1:
            singles.append(nums[0])
        elif len(nums) == 2:
            if nums[0] == nums[1]:
                raise GraphError(f"line {lineno}: self-loop {nums[0]}")
            edges.append((nums[0], nums[1]))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 labels, got {len(nums)}")
    labels = sorted({x for e in edges for x in e} | set(singles))
    if len(labels) > MAX_LABEL + 1:
        raise GraphError(f"at most {MAX_LABEL + 1} vertices are supported, got {len(labels)}")
    dense = {x: i for i, x in enumerate(labels)}
    graph = Graph(
        edges=[(dense[u], dense[v]) for u, v in edges],
        vertices=[dense[x] for x in singles],
    )
    return graph, tuple(labels)
