"""Exact characteristic polynomials of the degree/adjacency mixing matrix
a*D(G) + (1-a)*A(G) under graph operations, with closed-form identities
checked against a brute-force direct path and a numeric eigensolver.
"""

from .polynomials import (
    ALPHA,
    ALPHA_ONE,
    ALPHA_ZERO,
    AlphaPoly,
    BiPoly,
    DivisibilityError,
    FactoredSpectrum,
    LAM,
    PolyParseError,
    eval_alpha,
    exact_divide,
    format_bipoly,
    parse_bipoly,
    substitute_lambda,
)
from .graphs import (
    EdgeListError,
    FamilySpec,
    Graph,
    GraphParameterError,
    IncidenceMatrix,
    degree_profile,
    family_generate,
    format_edge_list,
    incidence_matrix,
    is_regular,
    is_semiregular_bipartite,
    parse_edge_list,
)
from .operations import (
    CoalescenceSpec,
    add_pendants_at,
    attach_pendants,
    coalesce,
    complement,
    disjoint_union,
    line_graph,
    q_graph,
    r_graph,
    subdivision,
    total_graph,
)
from .engine import (
    EquitabilityError,
    PolyMatrix,
    QuotientMatrix,
    alpha_matrix,
    charpoly_direct,
    charpoly_submatrix,
    charpoly_submatrix_multi,
    lam_identity_minus,
    polymatrix_det,
    quotient_matrix,
)
from .closedforms import (
    HypothesisNotMet,
    THEOREM_IDS,
    cf_coalescence,
    cf_complement_regular,
    cf_family_spectrum,
    cf_line_regular,
    cf_line_semiregular,
    cf_pendant_many,
    cf_pendant_one,
    cf_qgraph,
    cf_rgraph,
    cf_subdivision,
    cf_submatrix_spectrum,
    cf_total,
    classical_line_semiregular,
    verify_identity,
)
from .numeric import (
    NumericError,
    alpha_grid,
    check_equitable_inclusion,
    check_tg_eigenvalue_formulas,
    jacobi_eigenvalues,
    numeric_spectrum,
    roots_match,
)
from .verdict import VerdictReport

__version__ = "0.1.0"
