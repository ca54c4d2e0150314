"""Mod-2 homology and explicit generating cycles.
==============================================

Collapsing tells how many spheres there are; homology over GF(2) exhibits
them.  Top cells have no coboundary, so the kernel of the top boundary map
IS the top homology, and a reduced-echelon basis of that kernel gives
canonical cycle representatives: each one, with its boundary faces, is an
actual sphere inside the complex.
"""

from booleancomplex import (
    Graph,
    an_fixture_suite,
    betti_gf2,
    boundary_columns,
    complete_graph,
    enumerate_ideal,
    format_word,
    path_graph,
    top_cycle_basis,
    verify_cycle,
)

a3 = Graph(edges=[(1, 2), (2, 3)])
ideal = enumerate_ideal(a3)

print("top boundary matrix of the path 1-2-3 (columns = 2-cells)")
cols = boundary_columns(ideal, 2)
cells = ideal.ranks[2]
faces = ideal.ranks[1]
header = "      " + " ".join(f"{format_word(c):>5s}" for c in cells)
print(header)
for i, f in enumerate(faces):
    row = " ".join(f"{(col >> i) & 1:>5d}" for col in cols)
    print(f"{format_word(f):>5s} {row}")

print("\nreduced Betti numbers")
for name, g in [
    ("path on 4", path_graph(4)),
    ("triangle", complete_graph(3)),
    ("3 isolated vertices", Graph(vertices=[0, 1, 2])),
]:
    print(f"  {name:22s} {betti_gf2(g)}")

print("\ncanonical top cycle bases")
for name, g in [("one edge", Graph(edges=[(1, 2)])), ("path 1-2-3", a3)]:
    for c in top_cycle_basis(g):
        text = " + ".join(f"[{format_word(w)}]" for w in c.words())
        print(f"  {name:12s} {text}")
        assert verify_cycle(g, c)

# The package ships explicitly written generating cycles for the path-graph
# complexes on up to six vertices; the suite re-proves everything about them:
# cycles, independence, the Fibonacci count, and that every maximal cell of
# the complex shows up in some cycle of their span.
print("\nstored generator fixtures")
for row in an_fixture_suite():
    print(f"  n={row.n}: {row.generator_count} generators, all checks pass: {row.ok}")
