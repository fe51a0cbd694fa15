"""Kirchhoff polynomials, convergence thresholds and certificates.

Exact-arithmetic analysis of connected multigraphs: the Kirchhoff
polynomial by two independent routes, the convergence threshold of the
associated truncated integral with verifiable certificates (maximal
density, maximizing set, polytope witness, covering LP), the optimal
contraction, and numeric growth probes near the threshold.
"""

from .convergence import (
    CSV_HEADER,
    ConvergenceReport,
    NoCyclesError,
    PsiMismatchError,
    analyze,
    decimal6,
    make_doubled_2ngon,
    make_ngon,
    optimal_contraction,
    search_divergent,
    threshold,
)
from .graphs import (
    CycleBasis,
    GraphError,
    Multigraph,
    betti,
    bridges,
    contract_edges,
    cycle_basis_from_tree,
    delete_edges,
    fundamental_cycle_basis,
    genus,
    is_stable,
    parse_graph,
    spanning_trees,
    valences,
)
from .kirchhoff import (
    CycleForm,
    IntPolynomial,
    PolynomialError,
    cycle_form,
    inverse_decay_check,
    psi_det,
    psi_from_graph,
    psi_trees,
)
from .matroid import (
    CertificateError,
    CographicMatroid,
    DensityCertificate,
    MatroidError,
    build_witness,
    cover_lp_oracle,
    density,
    in_scaled_polytope,
)
from .probe import (
    GrowthVerdict,
    ProbeConfig,
    model_integral,
    truncated_J,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CertificateError",
    "CographicMatroid",
    "ConvergenceReport",
    "CycleBasis",
    "CycleForm",
    "DensityCertificate",
    "GraphError",
    "GrowthVerdict",
    "IntPolynomial",
    "MatroidError",
    "Multigraph",
    "NoCyclesError",
    "PolynomialError",
    "ProbeConfig",
    "PsiMismatchError",
    "analyze",
    "betti",
    "bridges",
    "build_witness",
    "contract_edges",
    "cover_lp_oracle",
    "cycle_basis_from_tree",
    "cycle_form",
    "decimal6",
    "delete_edges",
    "density",
    "fundamental_cycle_basis",
    "genus",
    "in_scaled_polytope",
    "inverse_decay_check",
    "is_stable",
    "make_doubled_2ngon",
    "make_ngon",
    "model_integral",
    "optimal_contraction",
    "parse_graph",
    "psi_det",
    "psi_from_graph",
    "psi_trees",
    "search_divergent",
    "spanning_trees",
    "threshold",
    "truncated_J",
    "valences",
    "__version__",
]
