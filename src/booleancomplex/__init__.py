"""Boolean complexes of finite simple graphs.

Words of distinct vertices modulo commutation of non-adjacent letters form a
ranked simplicial poset, the boolean ideal; its cell complex realises a wedge
of top-dimensional spheres.  This package counts and enumerates the ideal,
computes the sphere count five independent ways (edge recursion, Euler
characteristic, covering edge subsets, GF(2) homology, unmatched cells of an
anchored acyclic matching), builds those matchings, and extracts explicit
mod-2 generating cycles.  The named families and the routes are each one
table in ``beta``.
"""

from .graph import (
    FamilyError,
    Graph,
    GraphError,
    InvalidEdgeError,
    UnknownVertexError,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    parse_edge_list,
    path_graph,
    star_graph,
)
from .ideal import (
    BooleanIdeal,
    BudgetError,
    UnknownElementError,
    admits_adjacent_pair,
    count_rank_path,
    enumerate_ideal,
    euler_characteristic,
    format_word,
    normalize,
    rank_sizes,
    representatives,
    trace_order,
    word_faces,
)
from .beta import (
    BetaResult,
    CrossCheckError,
    CrossCheckReport,
    beta_complete,
    beta_euler,
    beta_family,
    beta_recursive,
    beta_subset_formula,
    cross_check,
    cycle_count,
    family_graph,
    fibonacci,
    spanning_forest_count,
)
from .morse import (
    HReport,
    Matching,
    SkeletonReport,
    build_h_matching,
    skeleton_restriction_counts,
    skeleton_sphere_counts,
    verify_acyclic,
    verify_h_properties,
)
from .homology import (
    Gf2Chain,
    an_fixture_suite,
    betti_gf2,
    boundary_columns,
    top_betti,
    top_cycle_basis,
    verify_cycle,
)

__version__ = "1.0.0"
