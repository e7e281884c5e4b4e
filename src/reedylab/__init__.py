"""reedylab: exact computation with finite-dimensional algebras,
triangular decompositions and quasi-hereditary structure."""

from .fields import Field, PrimeField, Rationals, field_of, prime_field, rationals
from .linalg import Matrix, Subspace, contains, kernel, rref, span, subspace_intersect, subspace_sum
from .algebra import (
    Algebra,
    AlgebraError,
    AlgSubspace,
    IdempotentFrame,
    corner,
    full_subalgebra,
    ideal_closure,
    is_elementary,
    is_primitive_idempotent,
    plain_subspace,
    quotient,
    quotient_frame,
    radical,
    radical_generic,
    subalgebra_closure,
    tensor_algebras,
    tensor_dim_over_corner,
    validate,
)
from .modules import (
    ModuleRep,
    induce_module,
    is_projective_module,
    module_from_subspace,
    projective_module,
    quotient_module,
    regular_module,
    restrict_module,
    simple_module,
)
from .qh import (
    WeightOrder,
    delta_subalgebra_check,
    exact_borel_check,
    heredity_chain_verify,
    heredity_ideal_check,
    order_from_degrees,
    qh_order_search,
    standard_modules,
)
from .reedy import (
    ReedyStructure,
    characterization_crosscheck,
    induced_corner,
    induced_quotient,
    layer_check,
    recursive_check,
    reedy_heredity_bottom,
    search_reedy,
    verify_reedy,
)
from .constructors import (
    MonotoneMap,
    QuiverPresentation,
    a2_presentation,
    build_dual_extension,
    build_matrix_algebra,
    build_quiver_algebra,
    build_simplex_algebra,
    build_tensor_reedy,
    diamond_presentation,
    matrix_diag_frame,
    monotone_maps,
    simplex_block_dim,
)

__version__ = "0.1.0"
