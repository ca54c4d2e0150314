"""Graph surgery, families, canonical keys, and the edge-list format."""

import hashlib
import random

import networkx as nx
import pytest

from booleancomplex import (
    FamilyError,
    Graph,
    GraphError,
    InvalidEdgeError,
    UnknownVertexError,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    family_graph,
    parse_edge_list,
    path_graph,
    star_graph,
)
from booleancomplex.beta import resolve_family
from booleancomplex.graph import (
    _form_components,
    _form_contract,
    _form_delete,
    _form_extract,
)
from helpers import (
    all_labeled_graphs,
    iso_classes,
    random_graph,
    random_permutation_relabel,
    refinement_key,
    to_networkx,
)


def edge_set(graph):
    return {frozenset(e) for e in graph.edges}


# ----------------------------------------------------------------------
# basics

def test_construction_and_views():
    g = Graph(edges=[(0, 2), (2, 1)], vertices=[5])
    assert g.vertices == (0, 1, 2, 5)
    assert edge_set(g) == {frozenset({0, 2}), frozenset({1, 2})}
    assert g.degree(2) == 2 and g.degree(5) == 0
    assert g.neighbors(2) == (0, 1)
    assert g.adjacent(0, 2) and not g.adjacent(0, 1)
    assert len(g) == 4


def test_rejects_bad_input():
    with pytest.raises(InvalidEdgeError):
        Graph(edges=[(1, 1)])
    with pytest.raises(GraphError):
        Graph(vertices=[-1])
    with pytest.raises(GraphError):
        Graph(vertices=[64])
    with pytest.raises(UnknownVertexError):
        path_graph(3).degree(9)
    with pytest.raises(GraphError, match="not injective"):
        path_graph(3).relabel({0: 5, 1: 5, 2: 6})
    with pytest.raises(GraphError, match="no image for vertex 2"):
        path_graph(3).relabel({0: 5, 1: 6})
    with pytest.raises(InvalidEdgeError):
        path_graph(3).add_edge((1, 1))
    with pytest.raises(UnknownVertexError):
        path_graph(3).add_edge((0, 9))
    with pytest.raises(UnknownVertexError):
        path_graph(3).delete_vertex(9)
    assert (Graph() == 3) is False
    assert Graph().canonical_key() == bytes([0])
    with pytest.raises(FamilyError):
        cycle_graph(2)


def test_parallel_edges_collapse():
    g = Graph(edges=[(0, 1), (1, 0), (0, 1)])
    assert g.edges == [(0, 1)]


# ----------------------------------------------------------------------
# the three edge operations plus vertex deletion

def test_delete_edge_examples():
    a3 = Graph(edges=[(1, 2), (2, 3)])
    assert edge_set(a3.delete_edge((1, 2))) == {frozenset({2, 3})}
    assert a3.delete_edge((1, 2)).vertices == (1, 2, 3)

    a2 = Graph(edges=[(1, 2)])
    assert a2.delete_edge((1, 2)).edges == []
    assert len(a2.delete_edge((1, 2))) == 2

    k3 = Graph(edges=[(1, 2), (1, 3), (2, 3)])
    assert edge_set(k3.delete_edge((1, 2))) == {frozenset({1, 3}), frozenset({2, 3})}


def test_delete_edge_rejects_non_edges():
    a3 = path_graph(3)
    with pytest.raises(InvalidEdgeError):
        a3.delete_edge((0, 2))


def test_contract_edge_examples():
    k3 = Graph(edges=[(1, 2), (1, 3), (2, 3)])
    c = k3.contract_edge((1, 2))
    assert c.vertices == (1, 3) and edge_set(c) == {frozenset({1, 3})}

    a3 = Graph(edges=[(1, 2), (2, 3)])
    c = a3.contract_edge((1, 2))  # merged vertex keeps the smaller label
    assert c.vertices == (1, 3) and edge_set(c) == {frozenset({1, 3})}

    a2 = Graph(edges=[(1, 2)])
    assert len(a2.contract_edge((1, 2))) == 1


def test_contract_is_simple_and_drops_one_vertex():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7))
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        c = g.contract_edge(e)
        assert len(c) == len(g) - 1
        assert min(e) in c and max(e) not in c
        for u, v in c.edges:
            assert u != v and c.adjacent(v, u)


def test_extract_edge_examples():
    a3 = Graph(edges=[(1, 2), (2, 3)])
    assert a3.extract_edge((1, 2)).vertices == (3,)

    a2 = Graph(edges=[(1, 2)])
    assert len(a2.extract_edge((1, 2))) == 0

    k4 = complete_graph(4)
    ex = k4.extract_edge((0, 1))
    assert ex.vertices == (2, 3) and edge_set(ex) == {frozenset({2, 3})}


def test_delete_vertex_examples():
    k3 = complete_graph(3)
    assert edge_set(k3.delete_vertex(0)) == {frozenset({1, 2})}
    assert len(Graph(vertices=[0]).delete_vertex(0)) == 0
    s4 = star_graph(4)
    assert s4.delete_vertex(0).edges == []
    assert len(s4.delete_vertex(0)) == 3


def test_extract_equals_double_vertex_deletion():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7))
        if not g.edges:
            continue
        s, t = rng.choice(g.edges)
        got, want = g.extract_edge((s, t)), g.delete_vertex(s).delete_vertex(t)
        assert got == want and hash(got) == hash(want)


def test_delete_then_readd_recovers():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7))
        if not g.edges:
            continue
        e = rng.choice(g.edges)
        back = g.delete_edge(e).add_edge(e)
        assert back == g and hash(back) == hash(g)


def test_relabel_round_trip_keeps_label_order_and_hash():
    # a graph's vertices are kept in ascending label order whatever the map,
    # and equal graphs hash alike
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8))
        images = rng.sample(range(64), len(g))
        forward = dict(zip(g.vertices, images))
        moved = g.relabel(forward)
        assert moved.vertices == tuple(sorted(images))
        back = moved.relabel({w: v for v, w in forward.items()})
        assert back == g and hash(back) == hash(g)
        assert back.vertices == g.vertices


# ----------------------------------------------------------------------
# components

def test_components_examples():
    g = Graph(edges=[(0, 1)], vertices=[2])  # A2 plus a point
    comps = g.components()
    assert [c.vertices for c in comps] == [(0, 1), (2,)]

    assert len(complete_graph(3).components()) == 1
    assert [c.vertices for c in edgeless_graph(3).components()] == [(0,), (1,), (2,)]


def test_components_match_networkx():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), p=0.25)
        ours = [set(c.vertices) for c in g.components()]
        theirs = sorted(
            (set(c) for c in nx.connected_components(to_networkx(g))), key=min
        )
        assert ours == theirs


# ----------------------------------------------------------------------
# canonical keys

def test_canonical_key_relabel_examples():
    assert path_graph(3).canonical_key() == Graph(edges=[(7, 5), (5, 9)]).canonical_key()
    assert complete_graph(3).canonical_key() != path_graph(3).canonical_key()
    assert edgeless_graph(2).canonical_key() != path_graph(2).canonical_key()


def test_dense_form_is_equal_exactly_under_order_preserving_relabels():
    path = path_graph(3)
    assert path.dense_form() == Graph(edges=[(3, 7), (7, 9)]).dense_form()
    middle_last = Graph(edges=[(0, 2), (2, 1)])  # the path 0-2-1
    assert middle_last.canonical_key() == path.canonical_key()
    assert middle_last.dense_form() != path.dense_form()


def renumbered(graph):
    """The dense form by its definition: vertices renamed 0..n-1 in order."""
    pos = {v: i for i, v in enumerate(graph.vertices)}
    return tuple(sum(1 << pos[w] for w in graph.neighbors(v)) for v in graph.vertices)


@pytest.mark.parametrize("graph", [
    Graph(edges=[(0, 1), (1, 2)]),                      # labels 0..n-1
    Graph(edges=[(0, 3), (1, 3)], vertices=[0, 1, 3]),  # a gap at the top
    Graph(edges=[(2, 3)]),                              # a gap at the bottom
    Graph(vertices=[5]),                                # one vertex
    Graph(),                                            # no vertex
])
def test_dense_form_edge_cases(graph):
    assert graph.dense_form() == renumbered(graph)


def test_form_surgeries_equal_the_graph_surgeries():
    # every class on up to six vertices under a seeded map onto labels up to 63,
    # so the positions of an edge differ from its labels
    rng = random.Random(71)
    for g in iso_classes(6):
        g = g.relabel(dict(zip(g.vertices, rng.sample(range(64), len(g)))))
        form = g.dense_form()
        assert form == renumbered(g)
        assert _form_components(form) == [c.dense_form() for c in g.components()]
        pos = {v: i for i, v in enumerate(g.vertices)}
        for e in g.edges:
            p, q = pos[e[0]], pos[e[1]]
            assert _form_delete(form, p, q) == g.delete_edge(e).dense_form()
            assert _form_contract(form, p, q) == g.contract_edge(e).dense_form()
            assert _form_extract(form, p, q) == g.extract_edge(e).dense_form()


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(23)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7))
        assert g.canonical_key() == random_permutation_relabel(rng, g).canonical_key()


def test_canonical_key_separates_all_small_classes():
    classes = iso_classes(5)
    assert len(classes) == 1 + 2 + 4 + 11 + 34  # classes on 1..5 vertices
    keys = [g.canonical_key() for g in classes]
    assert len(set(keys)) == len(keys)
    for a, b in zip(classes, classes[1:]):  # spot-check keys against VF2
        if len(a) == len(b):
            assert not nx.is_isomorphic(to_networkx(a), to_networkx(b))


def test_canonical_key_agrees_with_vf2_on_regular_graphs():
    # refinement-resistant inputs: cycles, complete graphs, Petersen
    pet = Graph(edges=list(nx.petersen_graph().edges()))
    rng = random.Random(31)
    for g in [cycle_graph(6), cycle_graph(9), complete_graph(8), pet]:
        assert g.canonical_key() == random_permutation_relabel(rng, g).canonical_key()
    assert cycle_graph(6).canonical_key() != Graph(
        edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    ).canonical_key()  # C6 vs two triangles, both 2-regular


def _spread(rng, g):
    """g relabelled onto distinct labels drawn from 0..63."""
    return g.relabel(dict(zip(g.vertices, rng.sample(range(64), len(g)))))


def _gnm(rng, n, m):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(edges=rng.sample(pairs, m), vertices=range(n))


def test_canonical_key_equality_matches_the_refinement_oracle():
    rng = random.Random(59)
    pool = []
    for g in iso_classes(6):
        pool += [g] + [_spread(rng, g) for _ in range(3)]
    for n in range(7, 17):
        for m in (n - 1, n + 2, 2 * n, n * (n - 1) // 4):
            g = _gnm(rng, n, m)
            pool += [g, _spread(rng, g), _gnm(rng, n, m)]
    for d, sizes in ((3, range(8, 17, 2)), (4, range(8, 17))):
        for n in sizes:
            for _ in range(2):
                g = nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30))
                g = Graph(edges=list(g.edges()))
                pool += [g, _spread(rng, g)]
    for k in range(3, 9):
        # two isomorphic components, the second a relabelled copy of the first
        h = random_graph(rng, k)
        twice = Graph(edges=h.edges + [(u + k, v + k)
                                       for u, v in random_permutation_relabel(rng, h).edges],
                      vertices=range(2 * k))
        pool += [twice, _spread(rng, twice)]
    sparse = Graph(edges=[(3, 17), (17, 40), (40, 63), (63, 3), (17, 63), (5, 40)])
    dense = Graph._from_adj(dict(enumerate(sparse.dense_form())))
    assert sparse.canonical_key() == dense.canonical_key()
    assert refinement_key(sparse) == refinement_key(dense)
    pool += [sparse, dense]

    pairs = {(g.canonical_key(), refinement_key(g)) for g in pool}
    # equal new keys exactly when equal oracle keys: the pairs are a bijection
    assert len({new for new, _ in pairs}) == len(pairs) == len({old for _, old in pairs})
    assert len(pairs) < len(pool)


def test_canonical_key_past_ten_vertices():
    rng = random.Random(37)
    for g in [path_graph(14), cycle_graph(12), complete_graph(12)]:
        assert g.canonical_key() == random_permutation_relabel(rng, g).canonical_key()
    two_hexagons = Graph(edges=[(i, (i + 1) % 6) for i in range(6)]
                         + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
    assert cycle_graph(12).canonical_key() != two_hexagons.canonical_key()


def test_canonical_key_walks_paths_and_cycles_up_to_64_vertices():
    # keyed by walking them, so 64 vertices cost no individualisation search
    rng = random.Random(41)
    shapes = [path_graph(n) for n in range(1, 65)] + [cycle_graph(n) for n in range(3, 65)]
    for g in shapes:
        key = g.canonical_key()
        assert random_permutation_relabel(rng, g).canonical_key() == key
        assert random_permutation_relabel(rng, g).canonical_key() == key
    for n in range(3, 65):
        assert path_graph(n).canonical_key() != cycle_graph(n).canonical_key()
    assert cycle_graph(3).canonical_key() == complete_graph(3).canonical_key()


def test_canonical_key_separates_disconnected_paths_and_cycles():
    # max degree 2 but disconnected: the walk stops short, the search decides
    def union(*parts):
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges]
            offset += len(part)
        return Graph(edges=edges, vertices=range(offset))

    for split, whole in [
        (union(cycle_graph(3), cycle_graph(3)), cycle_graph(6)),
        (union(path_graph(3), path_graph(2)), path_graph(5)),
        (union(path_graph(4), path_graph(1)), path_graph(5)),
    ]:
        assert len(split) == len(whole)
        assert split.canonical_key() != whole.canonical_key()
        assert split.canonical_key() == random_permutation_relabel(
            random.Random(43), split).canonical_key()


def test_sweep_representatives_are_pinned_up_to_six_vertices():
    # SHA-256 of every representative's edge list, in order, taken before
    # paths and cycles were keyed by walking them: a key change must not move
    # any sweep's representative or its order
    classes = iso_classes(6)
    assert len(classes) == 1 + 2 + 4 + 11 + 34 + 156
    digest = hashlib.sha256(repr([g.edges for g in classes]).encode()).hexdigest()
    assert digest == "8e730094b3b6a37f9f5db923b0bdf1c4f98ebf0fb74f06a075ce9db7d5ef6d24"


# ----------------------------------------------------------------------
# families

def test_family_paths_and_forks():
    a4 = family_graph("A:4")
    assert len(a4) == 4 and edge_set(a4) == {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}
    # A_n and B_n share one unlabeled graph
    for n in range(2, 9):
        assert family_graph(f"A:{n}").canonical_key() == family_graph(f"B:{n}").canonical_key()
    d4 = family_graph("D:4")
    assert d4.canonical_key() == star_graph(4).canonical_key()
    assert family_graph("affineA:3").canonical_key() == cycle_graph(4).canonical_key()
    assert family_graph("affineA:1").canonical_key() == path_graph(2).canonical_key()
    assert len(family_graph("affineE:8")) == 9
    assert family_graph("K:4") == complete_graph(4)
    assert family_graph("delta:3") == edgeless_graph(3)


def test_family_spec_parsing_and_ranges():
    assert resolve_family("affined:6") == ("affineD", 6)
    assert resolve_family("f4") == ("F4", 4)
    with pytest.raises(FamilyError):
        resolve_family("Z:3")
    with pytest.raises(FamilyError):
        resolve_family("A:x")
    with pytest.raises(FamilyError):
        family_graph("E:5")
    with pytest.raises(FamilyError):
        family_graph("cycle:2")
    with pytest.raises(FamilyError):
        family_graph("A")  # needs a rank
    with pytest.raises(FamilyError):
        family_graph("S:1")


# ----------------------------------------------------------------------
# edge-list text

def test_parse_edge_list_round_trip():
    text = """
    # a triangle and an isolated vertex
    0 1
    1 2
    2 0
    7
    """
    g, labels = parse_edge_list(text)
    assert labels == (0, 1, 2, 7)
    assert g.vertices == (0, 1, 2, 3)  # external 7 densified to 3
    assert g.degree(3) == 0


def test_parse_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("1 2 3")
    with pytest.raises(GraphError):
        parse_edge_list("a b")
    with pytest.raises(GraphError):
        parse_edge_list("4 4")
    with pytest.raises(GraphError):
        parse_edge_list("-1 2")
    # only ASCII decimal digits are labels: no sign, underscore or other script
    for text in ("+1 2", "1_0 2", "\u0663 1", "1 \uff12"):
        with pytest.raises(GraphError, match="expected integer labels"):
            parse_edge_list(text)


def test_parse_edge_list_refuses_too_many_vertices():
    # any labels will do for 64 vertices; the 65th is refused by count, not
    # by the internal label it would get
    path = "\n".join(f"{u} {u + 1}" for u in range(100, 163))
    g, labels = parse_edge_list(path)
    assert len(g) == 64 and labels[-1] == 163
    with pytest.raises(GraphError, match=r"^at most 64 vertices are supported, got 66$"):
        parse_edge_list(path + "\n163 164\n164 165")


def test_labeled_graph_counts():
    # 2^C(n,2) labeled graphs on n vertices
    assert sum(1 for _ in all_labeled_graphs(4)) == 64
