"""Anchored matchings: construction, acyclicity, the three properties,
block structure of the edge split, and skeleton counts."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from booleancomplex import (
    BudgetError,
    Graph,
    GraphError,
    Matching,
    UnknownVertexError,
    admits_adjacent_pair,
    beta_recursive,
    build_h_matching,
    complete_graph,
    cycle_count,
    cycle_graph,
    edgeless_graph,
    enumerate_ideal,
    path_graph,
    skeleton_restriction_counts,
    skeleton_sphere_counts,
    star_graph,
    trace_order,
    verify_acyclic,
    verify_h_properties,
    word_faces,
)
from booleancomplex import ideal as ideal_mod
from helpers import commutation_class, iso_classes, random_graph

A2 = Graph(edges=[(1, 2)])
A3 = Graph(edges=[(1, 2), (2, 3)])


# ----------------------------------------------------------------------
# construction on the base cases

def test_raised_budget_reaches_every_sub_ideal(monkeypatch):
    # with a building default of 10, C5's ideal (120 elements) is over it;
    # the root's raised budget is the only one, as sub-ideals are derived
    monkeypatch.setattr(ideal_mod, "BUILD_BUDGET", 10)
    m = build_h_matching(cycle_graph(5), 0, budget=1000)
    assert len(m.unmatched_maximal) == cycle_count(4) == 9
    assert skeleton_sphere_counts(cycle_graph(5), m).unmatched[-1] == 9  # counts, builds none
    with pytest.raises(BudgetError):
        build_h_matching(cycle_graph(5), 0)


def test_edgeless_matching_pairs_through_the_pivot():
    d2 = Graph(vertices=[1, 2])
    m = build_h_matching(d2, 2)
    assert m.pairs == (((2,), (1, 2)),)
    assert m.unmatched_rank0 == (1,)
    assert m.unmatched_maximal == ()


def test_single_edge_matching():
    m = build_h_matching(A2, 1)  # anchor s=1, other vertex t=2
    assert m.unmatched_rank0 == (2,)
    assert m.unmatched_maximal == ((1, 2),)
    assert m.pairs == (((1,), (2, 1)),)
    m = build_h_matching(A2, 2)  # the other anchor: s=2, t=1
    assert m.unmatched_rank0 == (1,)
    assert m.unmatched_maximal == ((2, 1),)
    assert m.pairs == (((2,), (1, 2)),)


def test_single_vertex_matching_is_trivial():
    m = build_h_matching(Graph(vertices=[4]), 4)
    assert m.pairs == () and m.unmatched_rank0 == (4,)
    assert m.unmatched_maximal == ()


def test_path_three_matching_count():
    m = build_h_matching(A3, 1)
    assert len(m.unmatched_maximal) == 1 == beta_recursive(A3).value


def test_build_rejects_bad_anchor():
    with pytest.raises(UnknownVertexError):
        build_h_matching(A2, 9)
    with pytest.raises(GraphError):
        build_h_matching(Graph(), 0)


# ----------------------------------------------------------------------
# acyclicity

def _reversal_digraph(matching, ideal):
    """Hasse diagram with matched covers reversed, for the oracle check."""
    pair_set = set(matching.pairs)
    dg = nx.DiGraph()
    for r in range(1, ideal.top_rank + 1):
        for up in ideal.ranks[r]:
            for lo in word_faces(up, ideal.graph):
                if (lo, up) in pair_set:
                    dg.add_edge(lo, up)
                else:
                    dg.add_edge(up, lo)
    return dg


def test_constructed_matchings_are_acyclic_small_sweep():
    for g in iso_classes(4):
        ideal = enumerate_ideal(g)
        for s in g.vertices:
            assert verify_acyclic(build_h_matching(g, s), ideal)


def test_synthetic_cyclic_matching_detected():
    # two pairs on the ideal of the triangle that reverse into a 4-cycle:
    # 12 -> 123 -> 13 -> 132 -> 12
    k3 = complete_graph(3)
    k3 = k3.relabel({0: 1, 1: 2, 2: 3})
    bad = Matching(
        graph=k3,
        at_vertex=1,
        pairs=(((1, 2), (1, 2, 3)), ((1, 3), (1, 3, 2))),
        unmatched_rank0=(1,),
        unmatched_maximal=(),
    )
    # 12 matched twice on the path 1-2-3: a cycle through three ranks,
    # 1 -> 12 -> 123 -> 13 -> 1, no rank pair holds on its own
    doubly = Matching(
        graph=A3,
        at_vertex=1,
        pairs=(((1,), (1, 2)), ((1, 2), (1, 2, 3))),
        unmatched_rank0=(2,),
        unmatched_maximal=(),
    )
    for matching in (bad, doubly):
        ideal = enumerate_ideal(matching.graph)
        assert verify_acyclic(matching, ideal) is False
        # independent detector: networkx must find a directed cycle too
        cycle = nx.find_cycle(_reversal_digraph(matching, ideal))
        assert cycle
    report = verify_h_properties(doubly, enumerate_ideal(A3))
    assert report.h1 is False
    assert any(f.startswith("h1") and "matched twice ['12']" in f for f in report.failures)


def test_double_match_fails_h1_under_python_O():
    # no assert carries a checker's result: -O prints the same report
    script = (
        "from booleancomplex import Graph, Matching, enumerate_ideal, verify_h_properties\n"
        "a3 = Graph(edges=[(1, 2), (2, 3)])\n"
        "doubly = Matching(a3, 1, (((1,), (1, 2)), ((1, 2), (1, 2, 3))), (2,), ())\n"
        "report = verify_h_properties(doubly, enumerate_ideal(a3))\n"
        "print(report.h1, *report.failures, sep='\\n')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doubly = Matching(A3, 1, (((1,), (1, 2)), ((1, 2), (1, 2, 3))), (2,), ())
    report = verify_h_properties(doubly, enumerate_ideal(A3))
    assert done.stdout.splitlines() == [str(report.h1), *report.failures]
    assert "matched twice ['12']" in done.stdout


def test_reversal_digraph_agrees_with_verifier():
    rng = random.Random(83)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5))
        ideal = enumerate_ideal(g)
        m = build_h_matching(g, rng.choice(g.vertices))
        ours = verify_acyclic(m, ideal)
        theirs = nx.is_directed_acyclic_graph(_reversal_digraph(m, ideal))
        assert ours == theirs == True  # noqa: E712


def test_verify_acyclic_reads_one_cell_at_a_time(monkeypatch):
    # no rank's face table is held: every face_masks call names one key
    asked = []
    face_masks = ideal_mod.BooleanIdeal.face_masks

    def spy(self, r, keys=None):
        asked.append(keys)
        return face_masks(self, r, keys)

    monkeypatch.setattr(ideal_mod.BooleanIdeal, "face_masks", spy)
    for g in (complete_graph(5), random_graph(random.Random(61), 6)):
        ideal = enumerate_ideal(g)
        asked.clear()
        assert verify_acyclic(build_h_matching(g, g.vertices[0]), ideal)
        assert len(asked) == ideal.element_count() - len(ideal.ranks[0]), g
        assert all(keys is not None and len(keys) == 1 for keys in asked), g


def test_empty_matching_is_acyclic():
    ideal = enumerate_ideal(A3)
    empty = Matching(A3, 1, (), (1,), tuple(ideal.ranks[-1]))
    assert verify_acyclic(empty, ideal)


def test_verify_acyclic_rejects_non_covers():
    ideal = enumerate_ideal(A3)
    junk = Matching(A3, 1, (((1,), (1, 3, 2)),), (2,), ())
    with pytest.raises(GraphError):
        verify_acyclic(junk, ideal)
    with pytest.raises(GraphError):
        verify_h_properties(junk, ideal)
    # adjacent ranks, but 21 is not a face of 132 (its faces are 32, 12, 13)
    junk = Matching(A3, 1, (((2, 1), (1, 3, 2)),), (3,), ())
    with pytest.raises(GraphError):
        verify_acyclic(junk, ideal)
    with pytest.raises(GraphError):
        verify_h_properties(junk, ideal)


# ----------------------------------------------------------------------
# the anchored properties

def test_h_properties_on_a3():
    m = build_h_matching(A3, 1)
    report = verify_h_properties(m, enumerate_ideal(A3))
    assert (report.h1, report.h2, report.h3) == (True, True, True)
    assert report.failures == ()


def test_h_properties_on_k4_with_derangement_count():
    k4 = complete_graph(4)
    for s in k4.vertices:
        m = build_h_matching(k4, s)
        assert len(m.unmatched_maximal) == 9
        report = verify_h_properties(m, enumerate_ideal(k4))
        assert report.all_hold


def test_h1_fails_with_two_unmatched_rank0():
    d2 = Graph(vertices=[1, 2])
    nothing = Matching(d2, 2, (), (1,), ())
    report = verify_h_properties(nothing, enumerate_ideal(d2))
    assert report.h1 is False
    assert any("h1" in f for f in report.failures)
    # H2 expects no loose cell, but 2 and 12 contain s and are unmatched
    assert report.h2 is False
    assert any("h2" in f for f in report.failures)


def test_h3_fails_when_deletion_sits_right_of_anchor():
    # pair (1, 12) anchored at 1: the class of 12 is rigid, so the deleted
    # letter 2 can never be written left of 1, and 12 != 1 * 1
    m = Matching(A2, 1, (((1,), (1, 2)),), (2,), ((2, 1),))
    report = verify_h_properties(m, enumerate_ideal(A2))
    assert report.h3 is False
    assert any("h3" in f for f in report.failures)


def test_h3_fails_when_anchor_deleted_from_the_middle():
    # pair (2, 12) anchored at 1 deletes the anchor itself, but 12 != 2 * 1
    # (that product is the class of 21), so neither excuse applies
    m = Matching(A2, 1, (((2,), (1, 2)),), (1,), ((2, 1),))
    report = verify_h_properties(m, enumerate_ideal(A2))
    assert report.h3 is False


def test_h3_decided_on_ten_letter_words():
    # H3 reads the dependence order, so ten-letter words are decided too
    d10 = edgeless_graph(10)
    m = build_h_matching(d10, 9)
    report = verify_h_properties(m, enumerate_ideal(d10))
    assert (report.h1, report.h2, report.h3) == (True, True, True)
    assert report.failures == ()


def test_h3_order_test_matches_brute_force():
    # some representative writes d before s exactly when s does not precede
    # d in the dependence order: checked against every member of the class
    triples = 0
    for g in iso_classes(5):
        for word in enumerate_ideal(g).elements():
            order = trace_order(word, g)
            members = commutation_class(word, g)
            for i, s in enumerate(word):
                for j, d in enumerate(word):
                    if i == j:
                        continue
                    brute = any(rep.index(d) < rep.index(s) for rep in members)
                    assert ((i, j) not in order) == brute, (g, word, d, s)
                    triples += 1
    assert triples == 49_536


def test_matchings_pass_everything_on_every_graph_up_to_four():
    for g in iso_classes(4):
        ideal = enumerate_ideal(g)
        want = beta_recursive(g).value
        for s in g.vertices:
            m = build_h_matching(g, s)
            assert len(m.unmatched_maximal) == want
            assert verify_acyclic(m, ideal)
            assert verify_h_properties(m, ideal).all_hold


def test_matchings_are_pinned_up_to_five_vertices():
    # SHA-256 of every anchored matching of every class up to 5 vertices, as
    # built when the construction normalised words; building on element ids
    # must leave every pair, and its order, as it was
    digest = hashlib.sha256()
    count = 0
    for g in iso_classes(5):
        for s in g.vertices:
            m = build_h_matching(g, s)
            digest.update(repr((m.pairs, m.unmatched_rank0, m.unmatched_maximal)).encode())
            count += 1
    assert count == 231
    assert digest.hexdigest() == (
        "26a8e5bc21ad759c5d48eacf06e704baf13516018b86d8bcaedce3e2a13e0017"
    )


def test_matchings_are_pinned_on_six_vertices():
    # the same digest over the 936 anchored matchings of the 156 classes on
    # exactly 6 vertices, taken when every node enumerated its own ideal;
    # deriving each node's keys from its parent's must leave them as they were
    digest = hashlib.sha256()
    count = 0
    for g in iso_classes(6):
        if len(g) < 6:
            continue
        for s in g.vertices:
            m = build_h_matching(g, s)
            digest.update(repr((m.pairs, m.unmatched_rank0, m.unmatched_maximal)).encode())
            count += 1
    assert count == 936
    assert digest.hexdigest() == (
        "a5081b58c9fc32d1868208a0a54331e58448f909c2e3b63e29ba1c8945852976"
    )


def test_build_enumerates_only_the_root():
    # every node below the root derives its keys from its parent's, so one
    # build enumerates one ideal whichever base cases it reaches
    rng = random.Random(137)
    cases = [
        (cycle_graph(6), 0),
        (complete_graph(5), 2),
        (random_graph(rng, 7), 3),
        (Graph(edges=[(0, 1), (1, 2), (2, 3)], vertices=[0, 1, 2, 3, 4]), 4),  # isolated anchor
        (edgeless_graph(5), 1),
    ]
    for g, s in cases:
        ideal_mod._enumerate.cache_clear()
        m = build_h_matching(g, s)
        assert ideal_mod._enumerate.cache_info().misses == 1, g
        assert len(m.unmatched_maximal) == beta_recursive(g).value


def test_matchings_pass_everything_on_random_six_vertex_graphs():
    rng = random.Random(127)
    for _ in range(12):
        g = random_graph(rng, 6)
        ideal = enumerate_ideal(g)
        want = beta_recursive(g).value
        s = rng.choice(g.vertices)
        m = build_h_matching(g, s)
        assert len(m.unmatched_maximal) == want
        assert verify_acyclic(m, ideal)
        assert verify_h_properties(m, ideal).all_hold


# ----------------------------------------------------------------------
# the two-block split behind the edge recursion

def test_no_matched_pair_crosses_the_split():
    rng = random.Random(89)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 5))
        candidates = [v for v in g.vertices if g.degree(v) > 0]
        if not candidates:
            continue
        s = rng.choice(candidates)
        t = min(g.neighbors(s))
        m = build_h_matching(g, s)
        for lo, up in m.pairs:
            assert admits_adjacent_pair(lo, (s, t), g) == admits_adjacent_pair(
                up, (s, t), g
            )


def test_covers_leaving_the_block_delete_an_endpoint():
    rng = random.Random(97)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5))
        if not g.edges:
            continue
        s, t = rng.choice(g.edges)
        ideal = enumerate_ideal(g)
        for r in range(1, ideal.top_rank + 1):
            for up in ideal.ranks[r]:
                if not admits_adjacent_pair(up, (s, t), g):
                    continue
                for lo in word_faces(up, g):
                    if not admits_adjacent_pair(lo, (s, t), g):
                        (deleted,) = set(up) - set(lo)
                        assert deleted in (s, t)


def test_block_is_the_substitution_image():
    # the substitution identity the build relies on: alpha-x-gamma ->
    # alpha-s-t-gamma maps B(G/e)'s x-elements onto the block {alpha-s-t-gamma}
    # (the build finds the block by key reachability: s -> t and no longer
    # path from s to t); admits_adjacent_pair is the reference
    oriented = 0
    for g in iso_classes(6):
        ideal = enumerate_ideal(g)
        for s, t in g.edges:
            f_ideal = enumerate_ideal(g.contract_edge((s, t)))
            x = min(s, t)
            with_x = [w for w in f_ideal.elements() if x in w]
            for edge in ((s, t), (t, s)):
                image = set()
                for w in with_x:
                    i = w.index(x)
                    image.add(ideal.class_id(w[:i] + edge + w[i + 1:]))
                assert len(image) == len(with_x), (g, edge)
                block = {
                    i for i, w in enumerate(ideal.words)
                    if admits_adjacent_pair(w, edge, g)
                }
                assert image == block, (g, edge)
                oriented += 1
    assert oriented == 2760


def test_block_substitution_is_an_order_isomorphism():
    # order on the block of G matches the order on the anchor block of G/e
    rng = random.Random(131)
    extras = [g for g in (random_graph(rng, 5, p=0.5) for _ in range(6)) if g.edges]
    for g in [A3, complete_graph(3), star_graph(4), path_graph(4)] + extras[:2]:
        if not g.edges:
            continue
        s, t = g.edges[0]
        x = min(s, t)
        f = g.contract_edge((s, t))
        gi, fi = enumerate_ideal(g), enumerate_ideal(f)

        def below(ideal, word):
            out = {word}
            frontier = [word]
            while frontier:
                nxt = []
                for w in frontier:
                    if len(w) == 1:
                        continue
                    for face in word_faces(w, ideal.graph):
                        if face not in out:
                            out.add(face)
                            nxt.append(face)
                frontier = nxt
            return out

        def substitute(word):
            i = word.index(x)
            from booleancomplex import normalize

            return normalize(word[:i] + (s, t) + word[i + 1 :], g)

        block_g = [w for w in gi.elements() if admits_adjacent_pair(w, (s, t), g)]
        block_f = [w for w in fi.elements() if x in w]
        image = {substitute(w) for w in block_f}
        assert image == set(block_g)
        for a in block_f:
            for b in block_f:
                rel_f = a in below(fi, b)
                rel_g = substitute(a) in below(gi, substitute(b))
                assert rel_f == rel_g


# ----------------------------------------------------------------------
# skeleta

def test_skeleton_recursion_a3():
    m = build_h_matching(A3, 1)
    report = skeleton_sphere_counts(A3, m)
    assert report.rank_sizes == (3, 5, 4)
    # u0 = f0; the 1-skeleton has chi = 3 - 5 = -2 = 1 - u1, a wedge of 3
    # circles; the whole complex has chi = 3 - 5 + 4 = 2 = 1 + u2
    assert report.unmatched == (3, 3, 1)
    assert report.unmatched == skeleton_restriction_counts(m, enumerate_ideal(A3))


def test_skeleton_recursion_a2_and_delta3():
    m = build_h_matching(A2, 1)
    assert skeleton_sphere_counts(A2, m).unmatched[1] == 1

    d3 = edgeless_graph(3)
    m = build_h_matching(d3, 0)
    report = skeleton_sphere_counts(d3, m)
    assert report.rank_sizes == (3, 3, 1)
    # u0 = f0; the 1-skeleton is one triangle, chi = 3 - 3 = 0 = 1 - u1; the
    # whole complex is a simplex, chi = 3 - 3 + 1 = 1 = 1 + u2
    assert report.unmatched == (3, 1, 0)
    assert report.unmatched == skeleton_restriction_counts(m, enumerate_ideal(d3))

    # top rank 0: a single vertex is its own base point, so u0 = f0 = 1
    d1 = edgeless_graph(1)
    m = build_h_matching(d1, 0)
    report = skeleton_sphere_counts(d1, m)
    assert report.rank_sizes == (1,)
    assert report.unmatched == (1,)
    assert report.unmatched == skeleton_restriction_counts(m, enumerate_ideal(d1))


def test_direct_restriction_counts():
    # the restriction drops every pair reaching above rank r; what is left
    # unmatched at rank r is f_r minus the pairs matched downward into it
    m = build_h_matching(A3, 1)
    ideal = enumerate_ideal(A3)
    direct = skeleton_restriction_counts(m, ideal)
    assert direct[ideal.top_rank] == len(m.unmatched_maximal)
    assert direct == (3, 3, 1)
    # middle entries exceed the one unmatched + beta shape: the 1-skeleton of
    # this complex has Euler characteristic 3 - 5 = -2, a wedge of 3 circles
    assert 1 - direct[1] == 3 - 5

    # on every anchored matching up to 5 vertices the census equals the
    # recursion and each r-skeleton (r > 0) is a wedge of u_r r-spheres:
    # 1 + (-1)^r u_r = f_0 - f_1 + ... + (-1)^r f_r
    for g in iso_classes(5):
        ideal = enumerate_ideal(g)
        f = ideal.rank_sizes()
        for s in g.vertices:
            m = build_h_matching(g, s)
            direct = skeleton_restriction_counts(m, ideal)
            assert direct == skeleton_sphere_counts(g, m).unmatched, (g, s)
            assert direct[0] == f[0], (g, s)
            for r in range(1, len(f)):
                chi = sum((-1) ** k * f[k] for k in range(r + 1))
                assert 1 + (-1) ** r * direct[r] == chi, (g, s, r)
