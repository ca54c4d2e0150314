"""Normal forms, enumeration and counting by rank, cover structure, and the
path counts.

Expected values marked by hand-enumeration were produced with the brute-force
oracles in helpers (breadth-first commuting swaps) and frozen here.
"""

import random
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from booleancomplex import (
    BudgetError,
    Graph,
    GraphError,
    UnknownElementError,
    admits_adjacent_pair,
    betti_gf2,
    build_h_matching,
    complete_graph,
    count_rank_path,
    cross_check,
    cycle_graph,
    edgeless_graph,
    enumerate_ideal,
    euler_characteristic,
    format_word,
    normalize,
    path_graph,
    rank_sizes,
    representatives,
    star_graph,
    top_betti,
    top_cycle_basis,
    trace_order,
    word_faces,
)
from booleancomplex import ideal as ideal_mod
from booleancomplex.beta import fibonacci
from booleancomplex.ideal import append_letter
from helpers import (
    brute_admits_adjacent_pair,
    brute_normal_form,
    commutation_class,
    iso_classes,
    random_graph,
    random_permutation_relabel,
    source_set_counts,
    word_face_index,
)

A2 = Graph(edges=[(1, 2)])
A3 = Graph(edges=[(1, 2), (2, 3)])  # path 1-2-3


# ----------------------------------------------------------------------
# normal forms

def test_normalize_examples():
    assert normalize((3, 1), A3) == (1, 3)        # 1 and 3 commute
    assert normalize((2, 1), A2) == (2, 1)        # no commutation available
    assert normalize((3, 1, 2), A3) == (1, 3, 2)  # brute-forced lexicographic min


def test_normalize_is_brute_force_minimum():
    rng = random.Random(17)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 7))
        letters = list(g.vertices)
        rng.shuffle(letters)
        word = tuple(letters[: rng.randint(1, len(letters))])
        assert normalize(word, g) == brute_normal_form(word, g)


def test_normalize_idempotent_and_class_constant():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6))
        letters = list(g.vertices)
        rng.shuffle(letters)
        word = tuple(letters[: rng.randint(1, len(letters))])
        canon = normalize(word, g)
        assert normalize(canon, g) == canon
        assert all(normalize(rep, g) == canon for rep in commutation_class(word, g))


def test_normalize_rejects_bad_words():
    with pytest.raises(GraphError):
        normalize((1, 1), A2)
    with pytest.raises(GraphError):
        normalize((9,), A2)


def test_append_letter_matches_normalize():
    rng = random.Random(29)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 7))
        letters = list(g.vertices)
        rng.shuffle(letters)
        k = rng.randint(1, len(letters) - 1)
        word = normalize(tuple(letters[:k]), g)
        x = letters[k]
        assert append_letter(word, x, g) == normalize(word + (x,), g)


def test_representatives_enumerate_the_class():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        letters = list(g.vertices)
        rng.shuffle(letters)
        word = tuple(letters[: rng.randint(1, len(letters))])
        reps = list(representatives(word, g))
        assert len(reps) == len(set(reps))
        assert set(reps) == commutation_class(word, g)


# ----------------------------------------------------------------------
# enumeration

def test_enumerate_a2():
    ideal = enumerate_ideal(A2)
    assert ideal.ranks[0] == ((1,), (2,))
    assert ideal.ranks[1] == ((1, 2), (2, 1))


def test_enumerate_delta2():
    ideal = enumerate_ideal(edgeless_graph(2))
    assert ideal.ranks[0] == ((0,), (1,))
    assert ideal.ranks[1] == ((0, 1),)  # letters commute: one class


def test_rank_sizes_examples():
    assert rank_sizes(A3) == (3, 5, 4)
    assert rank_sizes(A2) == (2, 2)
    assert rank_sizes(complete_graph(3)) == (3, 6, 6)
    assert rank_sizes(edgeless_graph(3)) == (3, 3, 1)


def test_maximal_element_counts():
    # no commutations: injective words; full commutation: a single class
    for n in range(1, 6):
        assert len(enumerate_ideal(complete_graph(n)).ranks[-1]) == (
            __import__("math").factorial(n)
        )
        assert len(enumerate_ideal(edgeless_graph(n)).ranks[-1]) == 1


def test_enumerate_rejects_empty_and_budget():
    with pytest.raises(GraphError):
        enumerate_ideal(Graph())
    with pytest.raises(BudgetError):
        enumerate_ideal(complete_graph(6), budget=100)
    # rank 0 counts towards the budget
    with pytest.raises(BudgetError):
        enumerate_ideal(Graph(vertices=[0]), budget=0)
    assert enumerate_ideal(A3, budget=12).element_count() == 12
    with pytest.raises(BudgetError):
        enumerate_ideal(A3, budget=11)


def test_budget_stops_inside_a_rank():
    # K6 has 6 vertices and 30 rank-1 words; budget 10 is refused by the
    # exact count before any ideal is enumerated
    misses = ideal_mod._enumerate.cache_info().misses
    with pytest.raises(BudgetError):
        enumerate_ideal(complete_graph(6), budget=10)
    assert ideal_mod._enumerate.cache_info().misses == misses


@pytest.mark.parametrize("build", [
    enumerate_ideal, top_betti, betti_gf2, top_cycle_basis,
    lambda g: build_h_matching(g, 0),
], ids=["enumerate_ideal", "top_betti", "betti_gf2", "top_cycle_basis", "build_h_matching"])
def test_every_build_refuses_k9_before_building(build):
    # K9's 986,409 elements are over the building default; the count refuses
    # them before any ideal is enumerated
    misses = ideal_mod._enumerate.cache_info().misses
    with pytest.raises(BudgetError, match=r"budget \(200000\)"):
        build(complete_graph(9))
    assert ideal_mod._enumerate.cache_info().misses == misses


def test_enumeration_counts_on_every_call(monkeypatch):
    # every call, a repeat on the kept ideal too, counts the graph against
    # its own budget: no count outlives the call that took it
    counts = []

    def spy(graph, budget=None):
        counts.append((graph, budget))
        return rank_sizes(graph, budget)

    monkeypatch.setattr(ideal_mod, "rank_sizes", spy)
    g = random_graph(random.Random(41), 9, p=0.3)
    total = sum(rank_sizes(g))
    first = enumerate_ideal(g)
    assert counts == [(g, ideal_mod.BUILD_BUDGET)]
    assert enumerate_ideal(g) is first
    assert enumerate_ideal(g, budget=total) is first
    assert counts[1:] == [(g, ideal_mod.BUILD_BUDGET), (g, total)]
    with pytest.raises(BudgetError, match=rf"budget \({total - 1}\)"):
        enumerate_ideal(g, budget=total - 1)
    assert counts[3:] == [(g, total - 1)]


def test_build_budget_is_exact_on_small_graphs():
    # the exact count decides on every graph, however small: a budget of
    # exactly the element count builds and one less is refused
    for g in [*iso_classes(5), path_graph(8), cycle_graph(8), complete_graph(7)]:
        c = sum(rank_sizes(g))
        assert enumerate_ideal(g, budget=c).element_count() == c, g
        with pytest.raises(BudgetError, match=rf"budget \({c - 1}\)"):
            enumerate_ideal(g, budget=c - 1)
    for g in (path_graph(8), cycle_graph(8)):
        assert enumerate_ideal(g).element_count() == sum(rank_sizes(g))


def test_only_the_last_ideal_is_kept():
    rng = random.Random(83)
    for _ in range(10):
        assert cross_check(random_graph(rng, 6)).agree
    assert ideal_mod._enumerate.cache_info().currsize == 1
    # betti_gf2 and top_cycle_basis share one build and its top reduction
    g = random_graph(rng, 7)
    misses = ideal_mod._enumerate.cache_info().misses
    vector = betti_gf2(g)
    first = top_cycle_basis(g)
    assert ideal_mod._enumerate.cache_info().misses == misses + 1
    ideal = enumerate_ideal(g)
    enumerate_ideal(path_graph(3))
    # g was evicted, so it is built again, to the same elements
    rebuilt = enumerate_ideal(g)
    assert rebuilt is not ideal
    assert (rebuilt.keys, rebuilt.ranks) == (ideal.keys, ideal.ranks)
    assert top_cycle_basis(g) == first
    assert betti_gf2(g) == vector
    assert ideal_mod._enumerate.cache_info().misses == misses + 3


# ----------------------------------------------------------------------
# counting without enumerating

def test_rank_sizes_count_matches_enumeration_up_to_six_vertices():
    classes = iso_classes(6)
    assert len(classes) == 208
    for g in classes:
        assert rank_sizes(g) == enumerate_ideal(g).rank_sizes(), g


@st.composite
def seven_and_eight_vertex_graphs(draw):
    n = draw(st.integers(7, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=16, unique=True))
    return Graph(edges=edges, vertices=range(n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seven_and_eight_vertex_graphs())
def test_rank_sizes_count_matches_enumeration_on_seven_and_eight_vertices(g):
    assert rank_sizes(g) == enumerate_ideal(g).rank_sizes()


def test_rank_sizes_budget_is_exact():
    assert rank_sizes(A3, budget=12) == (3, 5, 4)
    with pytest.raises(BudgetError):
        rank_sizes(A3, budget=11)
    with pytest.raises(BudgetError):
        rank_sizes(Graph(vertices=[0]), budget=0)
    with pytest.raises(GraphError):
        rank_sizes(Graph())
    # components multiply: with the empty word each edge has 1 + 2 + 2
    # classes, and 5 * 5 - 1 = 24
    two_edges = Graph(edges=[(0, 1), (2, 3)])
    assert rank_sizes(two_edges, budget=24) == (4, 8, 8, 4)
    with pytest.raises(BudgetError):
        rank_sizes(two_edges, budget=23)


def _connected(graph):
    return len(graph.components()) == 1


def test_length_counts_match_the_source_set_oracle_on_six_vertices():
    connected = [g for g in iso_classes(6) if _connected(g)]
    assert len(connected) == 143
    for g in connected:
        assert ideal_mod._length_counts(g, 10 ** 30) == source_set_counts(g), g


def test_length_counts_match_the_source_set_oracle_on_random_graphs():
    rng = random.Random(26)
    for n in range(9, 13):
        for p in (0.2, 0.35, 0.5):
            for _ in range(2):
                for comp in random_graph(rng, n, p).components():
                    assert ideal_mod._length_counts(comp, 10 ** 30) == (
                        source_set_counts(comp)), comp


def test_length_counts_match_the_source_set_oracle_on_families():
    # sparse graphs have the most partitions into independent blocks, so
    # they fill the widest fields of the packed sums
    graphs = [f(n) for n in range(2, 15) for f in (path_graph, star_graph)]
    graphs += [cycle_graph(n) for n in range(3, 15)]
    graphs += [complete_graph(n) for n in range(1, 11)]
    for g in graphs:
        assert ideal_mod._length_counts(g, 10 ** 30) == source_set_counts(g), g


def test_length_counts_refuse_exactly_past_the_limit():
    # a connected 12-vertex graph whose count is checked as each vertex
    # joins; the exact total lies past every earlier check
    g = Graph(edges=[(i, i + 1) for i in range(11)] + [(0, 5), (3, 9), (2, 11)])
    assert _connected(g)
    total = sum(source_set_counts(g)) - 1
    checks = [sum(source_set_counts(Graph(edges=[e for e in g.edges if max(e) < k],
                                          vertices=range(k)))) - 1
              for k in range(1, 12)]
    assert checks == sorted(checks) and checks[-1] < total
    counts = ideal_mod._length_counts(g, total)
    assert counts == source_set_counts(g)
    for limit in (total - 1, (checks[-1] + total) // 2, checks[-1], checks[5]):
        assert ideal_mod._length_counts(g, limit) is None
    assert sum(rank_sizes(g, budget=total)) == total
    with pytest.raises(BudgetError):
        rank_sizes(g, budget=total - 1)


def test_counting_builds_no_element():
    before = ideal_mod._enumerate.cache_info()
    rank_sizes(complete_graph(9))
    euler_characteristic(path_graph(9))
    after = ideal_mod._enumerate.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_euler_characteristic_examples():
    assert euler_characteristic(A2) == 0
    assert euler_characteristic(A3) == 2  # 3 - 5 + 4
    assert euler_characteristic(edgeless_graph(3)) == 1


def test_euler_characteristic_fibonacci_paths():
    for n in range(1, 11):
        assert euler_characteristic(path_graph(n)) == (-1) ** (n - 1) * fibonacci(n - 1) + 1


# ----------------------------------------------------------------------
# cover structure

def test_faces_are_distinct_and_one_rank_down():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        ideal = enumerate_ideal(g)
        for r in range(1, ideal.top_rank + 1):
            for w, faces in zip(ideal.ranks[r], ideal.face_table(r)):
                assert len(faces) == len(w) == r + 1
                assert len(set(faces)) == len(faces)


def test_face_deletion_is_class_well_defined():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6))
        letters = list(g.vertices)
        rng.shuffle(letters)
        word = tuple(letters[: rng.randint(2, len(letters))])
        x = rng.choice(word)
        targets = {
            normalize(tuple(c for c in rep if c != x), g)
            for rep in commutation_class(word, g)
        }
        assert len(targets) == 1


def test_covers_and_membership():
    ideal = enumerate_ideal(A3)
    assert word_faces((1, 2), A3) == [(2,), (1,)]
    # faces of 132 are {32, 12, 13}: the class of 21 is not among them
    assert ideal.is_cover((2, 1), (1, 3, 2)) is False
    assert ideal.is_cover((1, 3), (1, 3, 2))
    assert ideal.is_cover((1, 2), (1, 3, 2))  # delete 3 from representative 312
    with pytest.raises(UnknownElementError):
        ideal.flat_id((3, 1))  # not a normal form
    # no rank to read off: the empty word, and a word longer than the top rank
    for word in [(), (1, 2, 3, 4)]:
        with pytest.raises(UnknownElementError):
            ideal.flat_id(word)


def _is_cover_by_every_face(ideal, lower, upper):
    """The reference definition: normalise every face of ``upper``."""
    return (
        len(upper) == len(lower) + 1
        and lower in word_faces(upper, ideal.graph)
    )


def test_is_cover_matches_every_face_definition():
    rng = random.Random(59)
    graphs = list(iso_classes(4))
    graphs += [random_permutation_relabel(rng, g) for g in graphs for _ in range(2)]
    for g in graphs:
        ideal = enumerate_ideal(g)
        for r in range(1, ideal.top_rank + 1):
            for up in ideal.ranks[r]:
                for lo in ideal.ranks[r - 1]:
                    assert ideal.is_cover(lo, up) == _is_cover_by_every_face(ideal, lo, up)
                # and never within a rank, downwards or across a rank gap
                assert not ideal.is_cover(up, up)
                assert not ideal.is_cover(up, ideal.ranks[r - 1][0])
                if r >= 2:
                    assert not ideal.is_cover(ideal.ranks[r - 2][0], up)


# ----------------------------------------------------------------------
# element keys and the face tables they serve

def _relabelled_seven_vertex_graphs(seed, count):
    """Seeded G(7, 1/2) graphs relabelled onto labels up to 40."""
    rng = random.Random(seed)
    return [
        random_graph(rng, 7).relabel(dict(zip(range(7), rng.sample(range(41), 7))))
        for _ in range(count)
    ]


def test_element_keys_name_their_classes():
    for g in [*iso_classes(5), *_relabelled_seven_vertex_graphs(53, 2)]:
        ideal = enumerate_ideal(g)
        assert len(set(ideal.keys)) == len(ideal.keys) == ideal.element_count()
        for r, words in enumerate(ideal.ranks):
            for i, w in enumerate(words):
                flat = ideal.flat_id(w)
                assert flat - ideal.offsets[r] == i
                assert ideal.words[flat] == w
                for rep in representatives(w, g):
                    assert ideal.class_id(rep) == flat
                # the successor relation: appending a free letter
                for x in g.vertices:
                    if x not in w:
                        assert ideal.class_id(w + (x,)) == ideal.flat_id(append_letter(w, x, g))


def test_face_table_matches_word_faces():
    graphs = list(iso_classes(6)) + _relabelled_seven_vertex_graphs(61, 6)
    for g in graphs:
        ideal = enumerate_ideal(g)
        for r, faces in enumerate(word_face_index(g), start=1):
            assert ideal.face_table(r) == tuple(tuple(sorted(cell)) for cell in faces)


def test_ranks_are_sorted_normal_forms_by_construction():
    # the ranks built independently: every repetition-free word normalised,
    # deduplicated and sorted per length, with no key involved
    graphs = [*iso_classes(5), *_relabelled_seven_vertex_graphs(67, 2),
              edgeless_graph(6), complete_graph(6)]
    for g in graphs:
        expected = tuple(
            tuple(sorted({normalize(w, g) for w in permutations(g.vertices, k)}))
            for k in range(1, len(g) + 1)
        )
        assert ideal_mod._enumerate.__wrapped__(g).ranks == expected, g


def test_hot_paths_never_normalise(monkeypatch):
    # the reference definitions stay off every route: the routes read ids
    for original in (ideal_mod.normalize, ideal_mod.append_letter,
                     ideal_mod.admits_adjacent_pair):
        label = original.__name__

        def refuse(word, *args, label=label):
            raise AssertionError(f"{label} called on {word!r}")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "booleancomplex" and vars(module).get(label) is original:
                monkeypatch.setattr(module, label, refuse)
    ideal_mod._enumerate.cache_clear()
    rng = random.Random(71)
    report = cross_check(random_graph(rng, 6))
    assert report.agree and report.skipped == ()
    seven = _relabelled_seven_vertex_graphs(73, 1)[0]
    betti = betti_gf2(seven)
    assert len(top_cycle_basis(seven)) == betti[-1]


# ----------------------------------------------------------------------
# path rank counts

def test_count_rank_path_examples():
    assert count_rank_path(3, 2) == 5
    assert count_rank_path(3, 3) == 4
    assert count_rank_path(2, 1) == 2
    assert count_rank_path(5, 0) == 1
    with pytest.raises(GraphError):
        count_rank_path(3, 4)


def test_count_rank_path_matches_enumeration():
    for n in range(1, 9):
        counted = rank_sizes(path_graph(n))
        enumerated = enumerate_ideal(path_graph(n)).rank_sizes()
        for k in range(1, n + 1):
            assert counted[k - 1] == enumerated[k - 1] == count_rank_path(n, k)


# ----------------------------------------------------------------------
# the dependence order and the adjacent-pair blocks

def test_trace_order_examples():
    assert trace_order((1, 3), A3) == frozenset()
    assert trace_order((1, 2), A2) == frozenset({(0, 1)})
    assert trace_order((1, 3, 2), A3) == frozenset({(0, 2), (1, 2)})


def test_trace_order_constant_across_representatives():
    rng = random.Random(47)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6))
        letters = list(g.vertices)
        rng.shuffle(letters)
        word = tuple(letters[: rng.randint(2, len(letters))])
        relations = {
            frozenset(
                (rep[i], rep[j]) for i, j in trace_order(rep, g)
            )
            for rep in commutation_class(word, g)
        }
        assert len(relations) == 1  # letter-level order independent of rep


def test_admits_adjacent_pair_examples():
    assert admits_adjacent_pair((1, 2), (1, 2), A2)
    assert not admits_adjacent_pair((2, 1), (1, 2), A2)
    assert admits_adjacent_pair((1, 3, 2), (1, 2), A3)  # via representative 312
    assert not admits_adjacent_pair((1, 3), (1, 2), A3)  # letter 2 absent
    with pytest.raises(GraphError):
        admits_adjacent_pair((1, 2), (1, 3), A3)  # {1,3} is not an edge


def test_admits_adjacent_pair_matches_brute_force():
    for g in iso_classes(5):
        if not g.edges:
            continue
        ideal = enumerate_ideal(g)
        for edge in g.edges:
            for w in ideal.elements():
                assert admits_adjacent_pair(w, edge, g) == brute_admits_adjacent_pair(
                    w, edge, g
                ), (w, edge, g)


def test_admits_adjacent_pair_matches_brute_force_on_six_vertices():
    rng = random.Random(53)
    for _ in range(12):
        g = random_graph(rng, 6)
        if not g.edges:
            continue
        ideal = enumerate_ideal(g)
        edge = rng.choice(g.edges)
        for w in ideal.elements():
            assert admits_adjacent_pair(w, edge, g) == brute_admits_adjacent_pair(
                w, edge, g
            )


# ----------------------------------------------------------------------
# text forms

def test_format_and_parse_words():
    assert format_word((1, 2, 3)) == "123"
    assert format_word((3, 12, 7)) == "3-12-7"
