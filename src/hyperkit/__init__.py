"""hyperkit: finite hypergroups and the composition of boundary conditions.

The basic object is a table of convex structure constants with a unit
and an involution.  On top of that sit constructions from groups and
fusion rings, character theory with Haar orthogonality and duality for
commutative tables, hypergroupoids for composing boundary conditions
between several phases, and the enumeration of admissible index values
of the form 1 plus a sum of Jones values.
"""

from .constructions import (
    CayleyGroup,
    DimensionVector,
    FusionRing,
    cayley_group,
    conjugacy_class_hypergroup,
    conjugacy_classes,
    double_coset_hypergroup,
    double_cosets,
    from_fusion_ring,
    fusion_realizable_two_element,
    fusion_ring,
    group_hypergroup,
    pf_dimensions,
    two_element,
    two_element_parameter,
    validate_cayley,
    validate_fusion_ring,
)
from .core import (
    DEFAULT_TOL,
    HypergroupTable,
    Mixture,
    ValidationReport,
    Violation,
    haar,
    is_commutative,
    mixture,
    multiply,
    multiply_mixtures,
    point_mass,
    table_isomorphism,
    tables_equal,
    validate,
    weights,
    with_labels,
)
from .errors import (
    AxiomError,
    HypergroupError,
    NumericalError,
    PreconditionError,
    StructureError,
)
from .groupoid import (
    BoundaryState,
    Hypergroupoid,
    compose,
    double_coset_groupoid,
    from_hypergroup,
    juxtapose_chain,
    juxtapose_steps,
    point_state,
    unit_state,
    validate_groupoid,
)
from .io import (
    QuadraticLiteral,
    canonical_text,
    infer_involution,
    match_quadratic,
    parse_character_table,
    parse_document,
    parse_fusion_ring,
    parse_group,
    parse_groupoid,
    parse_hypergroup,
    serialize_character_table,
    serialize_fusion_ring,
    serialize_group,
    serialize_groupoid,
    serialize_hypergroup,
)
from .quantize import (
    AdmissibleIndex,
    AdmissibleIndexSet,
    JonesSpectrum,
    check_ghj_dimension,
    enumerate_admissible,
    jones_index_of,
    jones_spectrum,
    jones_value,
)
from .registry import (
    builtin_fusion_rings,
    builtin_groupoids,
    builtin_groups,
    builtin_hypergroups,
)
from .reprs import (
    DEFAULT_SEED,
    CharacterTable,
    DualityReport,
    RegularRep,
    character_matched_isomorphism,
    characters,
    dual_hypergroup,
    orthogonality_check,
    regular_representation,
)

__version__ = "0.1.0"
