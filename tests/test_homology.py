"""Mod-2 boundary maps, Betti numbers, cycle bases, and stored fixtures."""

import random

import pytest

from booleancomplex import (
    BudgetError,
    Gf2Chain,
    GraphError,
    Graph,
    an_fixture_suite,
    beta_recursive,
    betti_gf2,
    boundary_columns,
    build_h_matching,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_ideal,
    normalize,
    path_graph,
    top_betti,
    top_cycle_basis,
    verify_cycle,
)
from booleancomplex import ideal as ideal_mod
from booleancomplex.beta import cycle_count, fibonacci
from booleancomplex.homology import (
    _parse_block,
    gf2_kernel,
    gf2_rank,
    gf2_rref,
    load_an_generators,
)
from helpers import iso_classes, random_graph, reduced_homology, word_face_columns

A2 = Graph(edges=[(1, 2)])
A3 = Graph(edges=[(1, 2), (2, 3)])


def one_based_path(n):
    return Graph(edges=[(k, k + 1) for k in range(1, n)], vertices=range(1, n + 1))


def chain(graph, *cells):
    support = frozenset(normalize(c, graph) for c in cells)
    return Gf2Chain(len(cells[0]) - 1, support)


# ----------------------------------------------------------------------
# bitset elimination

def test_gf2_helpers():
    cols = [0b011, 0b110, 0b101]  # third is the sum of the first two
    assert gf2_rank(cols) == 2
    (combo,) = gf2_kernel(cols)
    assert combo == 0b111
    # three equal columns: the reduced basis, not the first one found
    assert gf2_kernel([0b1, 0b1, 0b1]) == [0b101, 0b110]
    assert gf2_rref([0b110, 0b011, 0b101]) == [0b101, 0b110]


# ----------------------------------------------------------------------
# boundary maps

def test_boundary_of_an_edge_cell():
    ideal = enumerate_ideal(A2)
    cols = boundary_columns(ideal, 1)
    assert len(ideal.ranks[0]) == 2 and len(cols) == 2
    j = ideal.ranks[1].index((1, 2))
    assert cols[j] == 0b11  # faces are the two vertices


def test_column_weights_are_rank_plus_one():
    rng = random.Random(101)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        ideal = enumerate_ideal(g)
        for k in range(1, ideal.top_rank + 1):
            assert {col.bit_count() for col in boundary_columns(ideal, k)} == {k + 1}


def test_boundary_rank_out_of_range():
    with pytest.raises(GraphError):
        boundary_columns(enumerate_ideal(A2), 2)  # face_masks refuses the rank


def test_boundary_squares_to_zero():
    for g in iso_classes(6):
        ideal = enumerate_ideal(g)
        for k in range(1, ideal.top_rank + 1):
            lower = boundary_columns(ideal, k - 1)
            for col in boundary_columns(ideal, k):
                acc = 0
                for i in _bits(col):
                    acc ^= lower[i]
                assert acc == 0


def test_boundary_squares_to_zero_random_seven():
    rng = random.Random(103)
    g = random_graph(rng, 7)
    ideal = enumerate_ideal(g)
    for k in range(1, ideal.top_rank + 1):
        lower = boundary_columns(ideal, k - 1)
        for col in boundary_columns(ideal, k):
            acc = 0
            for i in _bits(col):
                acc ^= lower[i]
            assert acc == 0


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ----------------------------------------------------------------------
# Betti numbers

def test_betti_examples():
    assert betti_gf2(path_graph(4)) == (0, 0, 0, 2)
    assert betti_gf2(edgeless_graph(3)) == (0, 0, 0)
    assert betti_gf2(complete_graph(3)) == (0, 0, 2)
    assert betti_gf2(Graph(vertices=[3])) == (0,)


def test_betti_build_budget(monkeypatch):
    # K9's 986,409 elements are over the building default
    with pytest.raises(BudgetError):
        betti_gf2(complete_graph(9))
    with pytest.raises(BudgetError):
        top_cycle_basis(complete_graph(9))
    # a basis built under a raised budget verifies under that budget
    monkeypatch.setattr(ideal_mod, "BUILD_BUDGET", 10)
    c5 = cycle_graph(5)
    basis = top_cycle_basis(c5, budget=1000)
    assert basis and all(verify_cycle(c5, c, budget=1000) for c in basis)
    with pytest.raises(BudgetError):
        verify_cycle(c5, basis[0])


def test_betti_past_seven_vertices():
    # a wedge of 9-spheres: nothing below the top, the closed form at the top
    for g, count in ((path_graph(10), fibonacci(9)), (cycle_graph(10), cycle_count(9))):
        assert betti_gf2(g) == (0,) * 9 + (count,), g
    assert (fibonacci(9), cycle_count(9)) == (34, 121)


def test_betti_concentrated_in_top_degree():
    for g in iso_classes(6):
        bt = betti_gf2(g)
        want = beta_recursive(g).value
        assert bt[:-1] == (0,) * (len(g) - 1)
        assert bt[-1] == want == top_betti(g)


def test_key_columns_and_top_reduction_match_the_word_face_oracle():
    # every class on up to 6 vertices, then seeded G(7, 1/2) and G(8, 0.3)
    rng = random.Random(127)
    graphs = [*iso_classes(6), *(random_graph(rng, 7) for _ in range(4)),
              *(random_graph(rng, 8, p=0.3) for _ in range(2))]
    for g in graphs:
        ideal = enumerate_ideal(g)
        columns = word_face_columns(ideal)
        assert [boundary_columns(ideal, k) for k in range(ideal.top_rank + 1)] == columns, g
        cells = ideal.ranks[ideal.top_rank]
        betti, cycles = reduced_homology(columns)
        basis = [frozenset(cells[i] for i in _bits(v)) for v in cycles]
        assert betti[-1] == len(basis) == top_betti(g)
        # each order on a fresh ideal, each call twice, so a reduction kept
        # on the wrong ideal or shared between calls would show
        for basis_first in (False, True):
            ideal_mod._enumerate.cache_clear()
            for _ in range(2):
                if basis_first:
                    chains = top_cycle_basis(g)
                    vector = betti_gf2(g)
                else:
                    vector = betti_gf2(g)
                    chains = top_cycle_basis(g)
                assert vector == betti, g
                assert [c.support for c in chains] == basis, g
                assert {c.dimension for c in chains} <= {ideal.top_rank}


def test_kernel_dimension_satisfies_rank_nullity():
    # two separate elimination routines must balance: nullity = cols - rank;
    # every vector must be a cycle and the basis already reduced, which the
    # word-face oracle relies on
    rng = random.Random(113)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        ideal = enumerate_ideal(g)
        cols = boundary_columns(ideal, ideal.top_rank)
        kernel = gf2_kernel(cols)
        assert len(kernel) == len(cols) - gf2_rank(cols)
        for vec in kernel:
            acc = 0
            for j in _bits(vec):
                acc ^= cols[j]
            assert acc == 0
        assert gf2_rref(kernel) == kernel


def test_top_betti_matches_unmatched_count():
    rng = random.Random(107)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6))
        m = build_h_matching(g, g.vertices[0])
        assert top_betti(g) == len(m.unmatched_maximal)


# ----------------------------------------------------------------------
# cycles

def test_boundary_of_single_edge_chain_is_nonzero():
    c = chain(A2, (1, 2))
    assert not verify_cycle(A2, c)


def test_a2_generator_is_a_cycle():
    c = chain(A2, (1, 2), (2, 1))
    assert verify_cycle(A2, c)


def test_a3_generator_is_a_cycle():
    y = chain(A3, (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    assert verify_cycle(A3, y)
    assert not verify_cycle(A3, chain(A3, (1, 2, 3)))


def test_verify_cycle_rejects_foreign_cells():
    with pytest.raises(GraphError):
        verify_cycle(A2, Gf2Chain(1, frozenset({(1, 2, 3)})))
    with pytest.raises(GraphError):
        verify_cycle(A2, Gf2Chain(0, frozenset({(1, 2)})))
    # chains arrive from outside: a dimension outside the complex is rejected
    top = enumerate_ideal(A3).top_rank
    for k in range(top + 1):
        assert verify_cycle(A3, Gf2Chain(k, frozenset()))  # the empty chain
    for k in (-1, top + 1, top + 2):
        with pytest.raises(GraphError):
            verify_cycle(A3, Gf2Chain(k, frozenset()))
        with pytest.raises(GraphError):
            verify_cycle(A3, Gf2Chain(k, frozenset({(1, 2, 3)})))


def test_top_cycle_basis_a2():
    (c,) = top_cycle_basis(A2)
    assert c.support == {(1, 2), (2, 1)}


def test_top_cycle_basis_a3_equals_stored_cycle():
    (c,) = top_cycle_basis(A3)
    y = chain(A3, (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    assert c.support == y.support


def test_top_cycle_basis_a4_spans_stored_generators():
    g = one_based_path(4)
    basis = top_cycle_basis(g)
    assert len(basis) == 2
    ideal = enumerate_ideal(g)
    cells = ideal.ranks[ideal.top_rank]
    index = {w: i for i, w in enumerate(cells)}

    def mask(support):
        acc = 0
        for w in support:
            acc |= 1 << index[w]
        return acc

    span = gf2_rref([mask(c.support) for c in basis])
    raw = load_an_generators()[4][1]
    for fixture in raw:
        vec = mask(fixture.support)
        for pivotless in span:
            low = pivotless & -pivotless
            if vec & low:
                vec ^= pivotless
        assert vec == 0  # fixture reduces to zero against the basis


def test_basis_members_are_cycles():
    rng = random.Random(109)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6))
        for c in top_cycle_basis(g):
            assert verify_cycle(g, c)


def test_stored_fixture_chains_verify():
    fixtures = load_an_generators()
    g5, gens5 = fixtures[5]
    assert all(verify_cycle(g5, c) for c in gens5)
    g6, gens6 = fixtures[6]
    assert all(verify_cycle(g6, c) for c in gens6)
    assert all(len(c.support) > 0 for c in gens5 + gens6)
    with pytest.raises(GraphError, match="malformed cycle block"):
        _parse_block("[12] junk")


def test_an_fixture_suite_all_green():
    rows = an_fixture_suite()
    assert [row.n for row in rows] == [2, 3, 4, 5, 6]
    assert [row.generator_count for row in rows] == [1, 1, 2, 3, 5]
    assert all(row.ok for row in rows)
