"""Evolution families and extremal maps on the unit polydisc.

Truncated-jet arithmetic, infinitesimal generators with grid-certified
admissibility, piecewise-constant field evolution, sharp coefficient and
growth bound reports, and a budgeted coefficient search.  Every jet
product runs through one sparse numpy engine (``kernels``).
"""

__version__ = "0.1.0"

from .jets import (
    MAX_BASIS_SIZE,
    DomainError,
    JetMap,
    JetShapeError,
    MultiJet,
    Normalization,
    SingularityError,
    analytic_jet,
    check_jet_shape,
    compose,
    identity_map,
    jacobian,
    jet_distance,
    jet_from_json,
    jet_to_json,
    map_distance,
    map_from_json,
    map_to_json,
    matrix_solve,
    multiindices,
    rotate_map,
    series_in_var,
    variable_jet,
)
from .kernels import basis_tables, default_backend
from .fourier import ring_jacobian, torus_array, torus_grid
from .generators import (
    CHECK_TOL,
    MEMBERSHIP_TOL,
    REFERENCE_GRID,
    SHELL_GRID,
    AtomicMeasure,
    Generator,
    GridSpec,
    MembershipCertificate,
    MembershipError,
    convex_combination,
    dilation_generator,
    from_starlike,
    membership_check,
    perturb_starlike_delta,
    product_form,
    rotate_generator,
    shear_linear,
    shear_quadratic,
)
from .catalog import (
    CatalogReport,
    NamedMap,
    catalog_generator,
    catalog_get,
    catalog_names,
    minimal_dimension,
    verify_catalog,
)
from .bounds import (
    EQUALITY_TOL_CLOSED_FORM,
    EQUALITY_TOL_EVOLVED,
    BoundCheck,
    BoundReport,
    bieberbach_degree2_check,
    caratheodory_check,
    coeff_bound_report,
    generator_coeff_report,
    koebe_check,
    koebe_envelope,
    sample_rays,
)
from .evolution import (
    EvolutionResult,
    HerglotzField,
    IntegrationError,
    LimitResult,
    evolve_jet,
    evolve_point,
    evolve_report,
    limit_evaluator,
    parametric_limit,
    scaled_transition,
)
from .search import (
    FAMILIES,
    ProbeOutcome,
    SearchResult,
    SearchSpace,
    bang_bang_probe,
    decode_field,
    maximize,
    objective,
)
from .descriptions import field_from_json, generator_from_json, load_field, load_generator

__all__ = [
    "__version__",
    # jets
    "MAX_BASIS_SIZE", "DomainError", "JetMap", "JetShapeError", "MultiJet", "Normalization",
    "SingularityError", "analytic_jet", "check_jet_shape", "compose", "identity_map", "jacobian",
    "jet_distance", "jet_from_json", "jet_to_json", "map_distance",
    "map_from_json", "map_to_json", "matrix_solve",
    "multiindices", "rotate_map", "series_in_var", "variable_jet",
    # kernels / fourier
    "basis_tables", "default_backend",
    "ring_jacobian", "torus_array", "torus_grid",
    # generators
    "CHECK_TOL", "MEMBERSHIP_TOL", "REFERENCE_GRID", "SHELL_GRID", "AtomicMeasure", "Generator",
    "GridSpec", "MembershipCertificate", "MembershipError",
    "convex_combination", "dilation_generator", "from_starlike",
    "membership_check", "perturb_starlike_delta", "product_form",
    "rotate_generator", "shear_linear", "shear_quadratic",
    # catalog
    "CatalogReport", "NamedMap", "catalog_generator", "catalog_get",
    "catalog_names", "minimal_dimension", "verify_catalog",
    # bounds
    "EQUALITY_TOL_CLOSED_FORM", "EQUALITY_TOL_EVOLVED",
    "BoundCheck", "BoundReport", "bieberbach_degree2_check",
    "caratheodory_check", "coeff_bound_report", "generator_coeff_report",
    "koebe_check", "koebe_envelope", "sample_rays",
    # evolution
    "EvolutionResult", "HerglotzField", "IntegrationError", "LimitResult",
    "evolve_jet", "evolve_point", "evolve_report", "limit_evaluator", "parametric_limit",
    "scaled_transition",
    # search
    "FAMILIES", "ProbeOutcome", "SearchResult", "SearchSpace",
    "bang_bang_probe", "decode_field", "maximize", "objective",
    # descriptions
    "field_from_json", "generator_from_json", "load_field", "load_generator",
]
