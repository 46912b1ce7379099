"""Exact orbit-space computations for Hermann actions.

The package works in the dual basis of a graded restricted root system:
points are rational coefficient tuples, pairings are exact fractions of
pi, and every numerical statement carries a certified interval.
"""

from .alcove import (
    ActiveRoots,
    AlcovePoint,
    Face,
    NonTermination,
    Wall,
    active_roots,
    active_walls,
    alcove_barycenter,
    alcove_vertices,
    faces,
    fundamental_alcove,
    point_in_alcove,
    reduce_to_alcove,
)
from .datum import (
    BadParameters,
    CATALOG,
    GradedRootDatum,
    ParseError,
    Sector,
    UnknownKey,
    ValidationError,
    catalog,
    parse_datum,
    positive_sector_roots,
    serialize_datum,
    validate,
)
from .exact import (
    DimensionMismatch,
    GramMatrix,
    PoleError,
    PrecisionExhausted,
    RealInterval,
    SingularGram,
    cot_eval,
    dual_basis,
    format_interval,
    parse_rational,
)
from .geometry import (
    InternalInconsistency,
    MeanCurvature,
    MinimalOrbit,
    NoConvergence,
    OrbitReport,
    SpectrumReport,
    TriState,
    cot_terms,
    find_minimal,
    is_austere,
    is_minimal,
    is_totally_geodesic,
    mean_curvature,
    orbit_report,
    scan_austere,
    shape_spectrum,
    symmetry_flags,
    type_label,
)
from .roots import (
    CartanLabel,
    ClosureBudgetExceeded,
    Component,
    RootSystem,
    WeylGroup,
    build_root_system,
    cartan_matrix,
    contains_minus_identity,
    decompose_and_classify,
    tits_minus_identity,
    verify_axioms,
    weyl_group,
)

__version__ = "0.1.0"


def __getattr__(name):
    # diagram, and xml.etree with it, is imported on first use
    if name in ("RankTooHigh", "render_svg"):
        from . import diagram
        return getattr(diagram, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
