"""Quasitoric manifolds from combinatorial data: twisted Dirac indices,
elliptic and Witten genera, facet colorings, and Lie-group symmetry bounds,
all over exact rationals."""

from .charpair import (
    CharacteristicPair,
    cp_pair,
    cube_pair,
    hirzebruch_pair,
    polygon_pair,
    s2xs2_pair,
    sphere_pair,
)
from .cohomology import (
    AdmissibilityReport,
    BundleSpec,
    IndexModel,
    PointModel,
    QuasitoricModel,
    check_admissible,
    is_even_class,
)
from .errors import (
    BudgetExceededError,
    HypothesisUnmetError,
    InternalConsistencyError,
    OracleUnavailableError,
    QtoricError,
    StructureError,
    ValidationError,
)
from .index import (
    ConnectedSumModel,
    IndexResult,
    ProductModel,
    admissible_splits,
    colored_index,
    elliptic_genus,
    exists_nonvanishing_signs,
    extend_bundles,
    phi_c,
    tensor_extend,
    verify_connected_sum_formula,
    verify_exhaustive_split_vanishing,
    verify_product_formula,
    witten_genus,
)
from .polynomial import GradedPolynomial, monomials_of_degree
from .polytope import (
    FacetColoring,
    SimplePolytope,
    ValidationReport,
    cube,
    facet_chromatic,
    greedy_coloring,
    interval,
    polygon,
    prism,
    simplex,
    verify_coloring,
)
from .qseries import QSeries, bundle_series, root_factor
from .symmetry import (
    GroupRecord,
    SymmetryReport,
    alpha,
    divisibility_candidates,
    kmss_bound,
    semisimple_products,
    simple_groups,
    symmetry_report,
)

__version__ = "0.1.0"
