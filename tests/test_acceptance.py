"""Acceptance gate: ten numbered criteria, one test and one printed verdict
line each.  Everything is exact integer arithmetic.

Criterion 10 checks the skeleton counts: the top-down recursion and the direct
census of the matching restricted to the r-skeleton must agree, and both must
match the skeleton's Euler characteristic.  For the 3-path the 1-skeleton has
3 vertices and 5 edges, so it is a wedge of three circles.  See README,
"Skeleton counts".
"""

import random

import booleancomplex as bc
from booleancomplex.beta import cycle_count, fibonacci, lucas
from helpers import iso_classes, random_graph, random_tree

MEMO = {}


def _verdict(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def beta(g):
    return bc.beta_recursive(g, MEMO).value


def test_criterion_01_finite_table():
    checked = 0
    for n in range(2, 11):
        assert beta(bc.family_graph(f"A:{n}")) == fibonacci(n - 1) == bc.beta_family(f"A:{n}")
        assert beta(bc.family_graph(f"B:{n}")) == fibonacci(n - 1)
        checked += 2
    for n in range(4, 11):
        assert beta(bc.family_graph(f"D:{n}")) == fibonacci(n - 2) == bc.beta_family(f"D:{n}")
        checked += 1
    for spec, want in [("E:6", 4), ("E:7", 6), ("E:8", 10), ("F4", 2),
                       ("G2", 1), ("H3", 1), ("H4", 2), ("I2", 1)]:
        assert beta(bc.family_graph(spec)) == want == bc.beta_family(spec), spec
        checked += 1
    _verdict(1, True, f"finite families reproduce the table ({checked} rows)")


def test_criterion_02_affine_table():
    checked = 0
    for n in range(1, 9):
        want = cycle_count(n)
        assert want == lucas(n + 1) - 2
        assert beta(bc.family_graph(f"affineA:{n}")) == want == bc.beta_family(f"affineA:{n}")
        checked += 1
    for n in range(3, 11):
        assert beta(bc.family_graph(f"affineB:{n}")) == fibonacci(n - 2)
        checked += 1
    for n in range(2, 11):
        assert beta(bc.family_graph(f"affineC:{n}")) == fibonacci(n - 1)
        checked += 1
    for n in range(5, 11):
        assert beta(bc.family_graph(f"affineD:{n}")) == fibonacci(n - 3)
        checked += 1
    for spec, want in [("affineE:6", 7), ("affineE:7", 9), ("affineE:8", 16),
                       ("affineF4", 3), ("affineG2", 1)]:
        assert beta(bc.family_graph(spec)) == want == bc.beta_family(spec), spec
        checked += 1
    _verdict(2, True, f"affine families reproduce the table ({checked} rows)")


def test_criterion_03_complete_graphs():
    want = [0, 1, 2, 9, 44, 265]
    got_recurrence = [bc.beta_complete(n) for n in range(1, 7)]
    got_recursion = [beta(bc.complete_graph(n)) for n in range(1, 7)]
    ok = got_recurrence == want and got_recursion == want
    _verdict(3, ok, f"derangement counts {got_recursion}")


def test_criterion_04_method_agreement_sweep():
    classes = [g for g in iso_classes(5)]
    count5 = sum(1 for g in classes if len(g) == 5)
    assert count5 == 34
    for g in classes:
        bc.cross_check(g, memo=MEMO)  # raises loudly on any disagreement
    rng = random.Random(20250809)
    for _ in range(130):
        bc.cross_check(random_graph(rng, 6), memo=MEMO)
    for _ in range(70):
        bc.cross_check(random_graph(rng, 7), memo=MEMO)
    _verdict(4, True,
             f"recursion = euler = subsets = homology = matching on "
             f"{len(classes)} classes (34 on five vertices) + 200 random 6-7 vertex graphs")


def test_criterion_05_morse_validity_sweep():
    matchings = 0
    for g in iso_classes(5):
        ideal = bc.enumerate_ideal(g)
        want = beta(g)
        for s in g.vertices:
            m = bc.build_h_matching(g, s)
            assert bc.verify_acyclic(m, ideal), (g, s)
            report = bc.verify_h_properties(m, ideal)
            assert report.h1 and report.h2 and report.h3, (g, s, report.failures)
            unmatched = [w for w in ideal.elements() if not m.is_matched(w)]
            expected = {m.unmatched_rank0} | set(m.unmatched_maximal)
            assert set(unmatched) == expected
            assert len(m.unmatched_maximal) == want or len(g) == 1
            matchings += 1
    _verdict(5, True, f"{matchings} anchored matchings acyclic with H1-H3")


def test_criterion_06_euler_formula_for_paths():
    rows = []
    for n in range(1, 11):
        chi = bc.euler_characteristic(bc.path_graph(n))
        sizes = bc.enumerate_ideal(bc.path_graph(n)).rank_sizes()
        want = (-1) ** (n - 1) * fibonacci(n - 1) + 1
        assert chi == sum((-1) ** r * f for r, f in enumerate(sizes)) == want, n
        rows.append(chi)
    _verdict(6, True, f"chi over paths 1..10 = {rows}")


def test_criterion_07_path_rank_counts():
    for n in range(1, 9):
        counted = bc.rank_sizes(bc.path_graph(n))
        enumerated = bc.enumerate_ideal(bc.path_graph(n)).rank_sizes()
        for k in range(1, n + 1):
            assert counted[k - 1] == enumerated[k - 1] == bc.count_rank_path(n, k), (n, k)
    _verdict(7, True, "rank sizes match the closed form for paths up to 8")


def test_criterion_08_stored_generator_fixtures():
    rows = bc.an_fixture_suite()
    counts = [row.generator_count for row in rows]
    ok = (
        counts == [fibonacci(n - 1) for n in range(2, 7)]
        and counts == [1, 1, 2, 3, 5]
        and all(row.ok for row in rows)
    )
    _verdict(8, ok, f"stored cycles verified, counts {counts}, all spans cover the top cells")


def test_criterion_09_structural_corollaries():
    for n in range(2, 9):
        assert beta(bc.star_graph(n)) == 1 == bc.beta_family(f"S:{n}"), n

    for g in iso_classes(5):
        assert (beta(g) == 0) == g.has_isolated_vertex()
        for e in g.edges:
            same = beta(g.delete_edge(e)) == beta(g)
            assert same == g.has_isolated_vertex(), (g, e)

    rng = random.Random(1729)
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 12))
        assert beta(t) == bc.spanning_forest_count(t)

    four = {beta(g) for g in iso_classes(4) if len(g) == 4}
    assert 4 not in four

    _verdict(9, True,
             "stars, isolated-vertex laws, 100 tree forest counts, no beta=4 on four vertices")


def test_criterion_10_skeleton_counts():
    a3 = bc.path_graph(3)
    m = bc.build_h_matching(a3, 0)
    ideal = bc.enumerate_ideal(a3)
    via_recursion = bc.skeleton_sphere_counts(a3, m).unmatched[1]
    via_restriction = bc.skeleton_restriction_counts(m, ideal)[1]
    f = ideal.rank_sizes()
    # a connected 1-skeleton is a wedge of u_1 circles: 1 - u_1 = f_0 - f_1
    via_euler = 1 - (f[0] - f[1])
    ok = via_recursion == via_restriction == via_euler == 3
    _verdict(
        10, ok,
        f"1-skeleton unmatched rank-1 cells: recursion {via_recursion}, "
        f"direct restriction {via_restriction}, Euler characteristic "
        f"{via_euler} (the 1-skeleton has chi = {f[0]} - {f[1]} = "
        f"{f[0] - f[1]}, a wedge of 3 circles)",
    )
