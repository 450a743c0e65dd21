"""Quivers with potential from surface triangulations.

From a triangulation of a closed marked surface this package builds the
adjacency quiver with its potential, computes a finite basis for the quotient
of the complete path algebra by the cyclic-derivative relations over a prime
field, derives string and skewed-gentle word presentations, and produces
machine-checkable certificates for band growth (freely composable band pairs)
and for fourth-syzygy periodicity of modules.
"""

from .surface import (
    MarkedSurface,
    Arc,
    Triangulation,
    ValidationReport,
    validate_triangulation,
    valency,
    has_self_folded,
    excluded_for_certificates,
    triangulation_to_json,
    triangulation_from_json,
)
from .qp import (
    Arrow,
    Quiver,
    Potential,
    ArrowMaps,
    Relation,
    RelationSet,
    build_quiver,
    build_potential,
    arrow_maps,
    cyclic_derivative,
    jacobian_relations,
    canonical_rotation,
    quiver_to_dot,
)
from .algebra import (
    FDAlgebra,
    NonStabilizationError,
    compute_basis,
    cartan_matrix,
    check_weakly_symmetric,
)
from .strings import (
    Letter,
    ForbiddenWord,
    WordPresentation,
    StringCheck,
    Incompatibility,
    CounterExample,
    FreeComposability,
    BandCensus,
    direct,
    inverse,
    special,
    invert_word,
    parse_word,
    format_word,
    sphere5_presentation,
    string_quotient,
    is_string,
    is_band,
    free_composability,
    build_xi,
    build_eta,
    rho1,
    rho2,
    enumerate_bands,
    growth_report,
)
from .homology import (
    FDModule,
    simple_module,
    projective_cover,
    syzygy,
    syzygy_chain,
    iso_check,
    check_periodicity,
    tube_rank,
)
from . import fixtures
from . import certificates

__version__ = "0.1.0"
