"""Sphere counts: the four routes, family closed forms, and their laws."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from booleancomplex import (
    BudgetError,
    CrossCheckError,
    FamilyError,
    Graph,
    GraphError,
    beta_complete,
    beta_euler,
    beta_family,
    beta_recursive,
    beta_subset_formula,
    complete_graph,
    cross_check,
    cycle_count,
    cycle_graph,
    edgeless_graph,
    family_graph,
    fibonacci,
    path_graph,
    spanning_forest_count,
    star_graph,
)
from booleancomplex import ideal as ideal_module
from booleancomplex.beta import FAMILIES, lucas, resolve_family, _pick_edge
from helpers import iso_classes, random_graph, random_tree

MEMO = {}  # shared across this module: beta does not depend on labels


def beta(g):
    return beta_recursive(g, MEMO).value


# ----------------------------------------------------------------------
# the recursion

def test_recursion_examples():
    assert beta(Graph(edges=[(0, 1)])) == 1          # the one-edge graph
    assert beta(edgeless_graph(3)) == 0
    assert beta(path_graph(5)) == 3


def test_recursion_rejects_empty():
    with pytest.raises(GraphError):
        beta_recursive(Graph())


def _under_frames(depth, call):
    """``call()`` run beneath ``depth`` extra Python frames."""
    return call() if depth == 0 else _under_frames(depth - 1, call)


def test_recursion_refuses_no_graph_at_any_call_depth():
    # deletions are walked in a loop, so K64 nests about 2n frames rather
    # than one per deleted edge, and a deep caller gets the same answer
    for n, calls in ((45, 2968), (46, 3103), (64, 6046)):
        top = beta_recursive(complete_graph(n))
        deep = _under_frames(800, lambda: beta_recursive(complete_graph(n)))
        assert top.value == deep.value == beta_complete(n)
        assert top.calls == deep.calls == calls
    memo = {}
    assert beta_recursive(complete_graph(64), memo).value == beta_complete(64)
    assert beta_recursive(complete_graph(12), memo).value == beta_complete(12)


def test_recursion_counts_calls():
    r = beta_recursive(path_graph(4))
    assert r.method == "recursion" and r.calls >= 3


def test_recursion_memoises_above_ten_vertices():
    # every connected subproblem is memoised by isomorphism class, whatever
    # its size (by dense form, or by canonical key once its degree sequence
    # repeats): unmemoised, A28 takes 20,317 calls
    r = beta_recursive(path_graph(28))
    assert r.value == fibonacci(27)
    assert r.calls < 200


def test_shared_memo_is_exact_across_relabellings():
    # relabelled copies share degree sequences with the classes met before
    # them, so this walks the keyed branch of the memo thousands of times
    memo = {}
    rng = random.Random(53)
    for g in iso_classes(6):
        want = beta_subset_formula(g).value
        assert beta_recursive(g, memo).value == want
        for _ in range(2):
            labels = rng.sample(range(64), len(g))
            copy = g.relabel(dict(zip(g.vertices, labels)))
            assert beta_recursive(copy, memo).value == want


def test_recursion_outputs_are_pinned_on_six_vertices():
    # value and calls of every run, and every form entry of the shared memo,
    # over each class on up to six vertices and two relabelled copies of it
    memo = {}
    rng = random.Random(67)
    runs = []
    for g in iso_classes(6):
        for h in [g] + [g.relabel(dict(zip(g.vertices, rng.sample(range(64), len(g)))))
                        for _ in range(2)]:
            r = beta_recursive(h, memo)
            runs.append((r.value, r.calls))
    forms = sorted((k, v) for k, v in memo.items() if isinstance(k, tuple))
    assert len(runs) == 624 and len(forms) == 517
    assert hashlib.sha256(repr((runs, forms)).encode()).hexdigest() == (
        "0487d8a793c994f309299fb5103306bdec8070519c34babd2fc2ff134d2bdec7")


def test_recursion_keys_only_on_a_shared_degree_sequence(monkeypatch):
    keys = 0
    canonical_key = Graph.canonical_key

    def counted(graph):
        nonlocal keys
        keys += 1
        return canonical_key(graph)

    monkeypatch.setattr(Graph, "canonical_key", counted)
    memo = {}
    # every subproblem of a path repeats only as an order-preserving copy
    assert beta_recursive(path_graph(28), memo).value == fibonacci(27)
    assert keys == 0
    labels = random.Random(59).sample(range(64), 28)
    shuffled = path_graph(28).relabel(dict(enumerate(labels)))
    assert beta_recursive(shuffled, memo).value == fibonacci(27)
    assert keys >= 1


def test_recursion_reaches_64_vertex_paths_and_cycles():
    # paths and cycles are keyed by walking them, so this takes milliseconds,
    # and a deep caller gets the same answer
    for g, spec in ((cycle_graph(64), "cycle:64"), (path_graph(64), "A:64")):
        top = beta_recursive(g)
        deep = _under_frames(800, lambda: beta_recursive(g))
        assert top.value == deep.value == beta_family(spec)
        assert top.calls == deep.calls


@st.composite
def mid_size_graphs(draw):
    n = draw(st.integers(11, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = draw(st.integers(n - 1, 16))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True))
    perm = draw(st.permutations(range(n)))
    return Graph(edges=edges, vertices=range(n)), dict(zip(range(n), perm))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mid_size_graphs())
def test_recursion_matches_subset_formula_above_ten_vertices(case):
    g, perm = case
    memo = {}
    want = beta_subset_formula(g).value
    assert beta_recursive(g, memo).value == want
    # a relabelled copy reads the shared memo and must give the same value
    assert beta_recursive(g.relabel(perm), memo).value == want


@st.composite
def connected_graphs_8_to_12(draw):
    # a random tree (so no vertex is isolated) plus up to seven more edges
    n = draw(st.integers(8, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    extra = draw(st.lists(st.sampled_from(rest), max_size=7, unique=True))
    return Graph(edges=sorted(edges) + extra, vertices=range(n))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(connected_graphs_8_to_12())
def test_euler_route_matches_recursion_on_8_to_12_vertices(g):
    assert beta_euler(g).value == beta(g)


def test_recursion_choice_independent():
    # the three-term recursion gives the same count whichever edge is cut
    rng = random.Random(61)

    def beta_any_edge(g):
        if len(g) == 0:
            return 1
        if g.has_isolated_vertex():
            return 0
        comps = g.components()
        if len(comps) > 1:
            return math.prod(beta_any_edge(c) for c in comps)
        if len(g) == 2:
            return 1
        e = rng.choice(g.edges)
        return (
            beta_any_edge(g.delete_edge(e))
            + beta_any_edge(g.contract_edge(e))
            + beta_any_edge(g.extract_edge(e))
        )

    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        assert beta_any_edge(g) == beta(g)


def test_pick_edge_prefers_leaves():
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])  # triangle with a tail
    assert set(_pick_edge(g.dense_form())) == {2, 3}


# ----------------------------------------------------------------------
# Euler route

def test_euler_examples():
    assert beta_euler(Graph(edges=[(1, 2)])).value == 1
    assert beta_euler(complete_graph(3)).value == 2
    assert beta_euler(edgeless_graph(2)).value == 0
    with pytest.raises(GraphError):
        beta_euler(Graph())


def test_euler_budget_propagates():
    with pytest.raises(BudgetError):
        beta_euler(complete_graph(6), budget=50)


def test_euler_counts_past_the_enumeration_budget():
    # K11's 108,505,111 classes are counted, never built
    assert beta_euler(complete_graph(11), budget=2 * 10**8).value == beta_complete(11)
    assert beta_complete(11) == 14_684_570


# ----------------------------------------------------------------------
# covering-subset route

def test_subset_formula_examples():
    assert beta_subset_formula(Graph(edges=[(1, 2)])).value == 1
    assert beta_subset_formula(path_graph(4)).value == 2  # {e1 e2 e3}, {e1 e3}
    assert beta_subset_formula(Graph(edges=[(0, 1)], vertices=[2])).value == 0
    with pytest.raises(GraphError):
        beta_subset_formula(Graph())


def test_subset_formula_edge_cap():
    big = complete_graph(8)  # 28 edges
    with pytest.raises(BudgetError):
        beta_subset_formula(big)


# ----------------------------------------------------------------------
# families

def test_complete_graph_recurrence():
    assert [beta_complete(n) for n in range(1, 7)] == [0, 1, 2, 9, 44, 265]
    assert beta_complete(2) == 1
    with pytest.raises(GraphError):
        beta_complete(0)


def test_family_closed_forms():
    assert beta_family("E:8") == 10
    assert beta_family("affineA:3") == 5
    assert beta_family("H4") == 2
    assert beta_family("K:5") == 44
    assert beta_family("S:6") == 1
    assert beta_family("delta:4") == 0
    assert beta_family("cycle:4") == cycle_count(3) == 5


def test_family_table_closed_forms_match_recursion():
    """Every row of the family table, at every valid rank whose graph has at
    most 10 vertices: the closed form equals the edge recursion, and the
    bare name resolves exactly when the row implies a rank."""
    checked = 0
    for name, row in FAMILIES.items():
        for n in range(1, 12):
            if not row.valid(n):
                continue
            spec = f"{name}:{n}"
            g = family_graph(spec)
            if len(g) <= 10:
                assert beta_recursive(g, MEMO).value == beta_family(spec), spec
                checked += 1
        if row.implied_rank is None:
            with pytest.raises(FamilyError):
                resolve_family(name)
        else:
            assert resolve_family(name) == (name, row.implied_rank)
            assert beta_family(name) == beta_family(f"{name}:{row.implied_rank}")
    assert checked > 100


def test_family_closed_form_rejects_bad_specs():
    from booleancomplex import FamilyError

    with pytest.raises(FamilyError):
        beta_family("E:5")
    with pytest.raises(FamilyError):
        beta_family("nonsense:3")
    # only ASCII decimal digits name a rank
    for spec in ("K:+5", "K:5_0", "K:\u0665", "K:-5", "K:"):
        with pytest.raises(FamilyError, match="bad rank"):
            resolve_family(spec)


def test_cycle_count_closed_form():
    for n in range(1, 12):
        assert cycle_count(n) == lucas(n + 1) - 2
    with pytest.raises(GraphError):
        cycle_count(0)


def test_fibonacci_convention():
    assert [fibonacci(k) for k in range(7)] == [0, 1, 1, 2, 3, 5, 8]
    with pytest.raises(GraphError):
        fibonacci(-1)


# ----------------------------------------------------------------------
# spanning forests

def test_spanning_forest_examples():
    assert spanning_forest_count(Graph(edges=[(0, 1)])) == 1
    assert spanning_forest_count(path_graph(4)) == 2
    assert spanning_forest_count(star_graph(4)) == 1
    with pytest.raises(GraphError):
        spanning_forest_count(complete_graph(3))
    with pytest.raises(GraphError):
        spanning_forest_count(Graph(edges=[(0, 1)], vertices=[2]))


def test_beta_of_trees_counts_spanning_forests():
    rng, labels = random.Random(67), random.Random(71)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 12))
        # the same tree on scattered labels up to 63
        scattered = t.relabel(dict(zip(t.vertices, labels.sample(range(64), len(t)))))
        for g in (t, scattered):
            assert beta(g) == spanning_forest_count(g)


# ----------------------------------------------------------------------
# laws of beta

def test_methods_agree_exhaustively_up_to_six_vertices():
    for g in iso_classes(6):
        want = beta(g)
        assert beta_euler(g).value == want, g
        assert beta_subset_formula(g).value == want, g


def test_methods_agree_on_random_seven_vertex_graphs():
    rng = random.Random(71)
    for _ in range(12):
        g = random_graph(rng, 7)
        want = beta(g)
        assert beta_euler(g).value == want
        assert beta_subset_formula(g).value == want


def test_monotone_under_edge_addition():
    rng = random.Random(73)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7))
        u, v = rng.sample(g.vertices, 2)
        if g.adjacent(u, v):
            continue
        assert beta(g.add_edge((u, v))) >= beta(g)


def test_edge_removal_strict_unless_isolated():
    for g in iso_classes(5):
        for e in g.edges:
            drop = beta(g.delete_edge(e))
            if g.has_isolated_vertex():
                assert drop == beta(g) == 0
            else:
                assert drop < beta(g)


def test_multiplicative_over_disjoint_union():
    rng = random.Random(79)
    for _ in range(40):
        a = random_graph(rng, rng.randint(1, 4))
        b = random_graph(rng, rng.randint(1, 4))
        shift = len(a.vertices)
        b_shifted = b.relabel({v: v + shift for v in b.vertices})
        union = Graph(
            edges=a.edges + b_shifted.edges,
            vertices=a.vertices + b_shifted.vertices,
        )
        assert beta(union) == beta(a) * beta(b)


def test_zero_exactly_on_isolated_vertices():
    for g in iso_classes(6):
        assert (beta(g) == 0) == g.has_isolated_vertex()


def test_no_four_vertex_graph_attains_four():
    values = {beta(g) for g in iso_classes(4) if len(g) == 4}
    assert 4 not in values
    assert max(values) == beta_complete(4) == 9


# ----------------------------------------------------------------------
# cross-checking

def test_cross_check_examples():
    assert cross_check(path_graph(4)).values["recursion"] == 2
    assert set(cross_check(path_graph(4)).values) == {
        "recursion", "euler", "subset_formula", "homology", "morse",
    }
    assert cross_check(edgeless_graph(4)).value == 0
    pendants = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    assert cross_check(pendants).value == 3  # ties the 5-path's count


def test_cross_check_raises_on_mismatch(monkeypatch):
    from booleancomplex import beta as beta_module

    monkeypatch.setattr(
        beta_module, "beta_euler", lambda g, budget=None: beta_module.BetaResult(99, "euler")
    )
    with pytest.raises(CrossCheckError) as err:
        beta_module.cross_check(path_graph(3))
    assert err.value.report.values["euler"] == 99
    assert not err.value.report.agree


def test_cross_check_skips_over_budget_methods():
    # 36 edges, and 986,409 elements: over the building default only
    report = cross_check(complete_graph(9))
    assert report.skipped == ("subset_formula", "homology", "morse")
    assert report.values == {"recursion": 133496, "euler": 133496}
    assert report.values["recursion"] == beta_complete(9)
    report = cross_check(complete_graph(7), budget=100)  # 13,699 elements
    assert report.skipped == ("euler", "homology", "morse")
    assert report.values == {"recursion": 1854, "subset_formula": 1854}
    # the recursion refuses no graph, so it alone reports past every budget
    report = cross_check(complete_graph(50))
    assert report.skipped == ("euler", "subset_formula", "homology", "morse")
    assert report.values == {"recursion": beta_complete(50)}


def test_five_routes_agree_past_seven_vertices():
    # every ideal here fits the building default, so no route is skipped
    graphs = [path_graph(9), cycle_graph(9), star_graph(9), random_graph(random.Random(5), 8)]
    reports = [cross_check(g) for g in graphs]
    assert all(r.skipped == () and len(r.values) == 5 for r in reports)
    assert [r.value for r in reports] == [fibonacci(8), cycle_count(8), 1, 157]


def test_cross_check_budget_does_not_enumerate_twice():
    # the ideal cache is keyed by the graph alone, so a non-default budget
    # enumerates nothing twice
    def misses(**kwargs):
        ideal_module._enumerate.cache_clear()
        cross_check(complete_graph(6), **kwargs)
        return ideal_module._enumerate.cache_info().misses

    assert misses(budget=10**6) == misses()
