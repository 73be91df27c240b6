"""Means and quasi-means on metric spaces with finite group actions,
contractivity-constant estimation, and certified dyadic contractions."""

from .dyadics import (
    ChainDecomposition,
    Dyadic,
    chain_decompose,
    grid_steps,
    height,
    nearest_dyadic,
    parse_dyadic,
    validate_chain,
)
from .errors import (
    CapacityError,
    EquimeanError,
    GroupConstructionError,
    HypothesisError,
    MembershipError,
    PrecisionError,
    SamplingError,
    ToleranceError,
)
from .groups import (
    ActionReport,
    FiniteGroup,
    GroupAction,
    Subgroup,
    action_from_json,
    check_action,
    coordinate_permutation_action,
    cyclic,
    dihedral,
    enumerate_subgroups,
    full_subgroup,
    group_from_json,
    is_fixed_by,
    klein_four,
    make_group,
    negation_action,
    orbit,
    plane_rotation_action,
    reflection_action,
    rotation_action,
    stabilizer,
    subgroup_closure,
    swap_axes_action,
    symmetric,
    trivial_action,
    trivial_subgroup,
)
from .homotopy import (
    ContractionBuilder,
    GHomotopy,
    HolderReport,
    LevelBoundReport,
    equivariant_contraction,
    fixed_set_deformation,
    straight_line_extension,
    symmetrize,
    verify_claim1,
    verify_holder,
)
from .means import (
    LambdaConfig,
    LambdaEstimate,
    LawReport,
    QuasiMeanMap,
    SolomonicSearch,
    arithmetic_mean,
    check_anonymity,
    check_equivariance,
    check_strict_betweenness,
    check_unanimity,
    collapse_to_quasi_mean,
    constant_mean,
    contractivity_ratio,
    derive_divisor_mean,
    dictator_mean,
    estimate_lambda,
    geometric_mean,
    mean_from_name,
    min_plus_halfsquare_mean,
    orbit_average_point,
    quasi_mean,
    sample_tuples,
    solomonic_witness_search,
)
from .rng import Xoshiro256StarStar, as_rng
from .spaces import (
    Box,
    Circle,
    FinitePoints,
    Interval,
    MetricSpace,
    Point,
    Product,
    as_point,
    distance,
    is_convex,
    space_from_json,
    tuple_diameter,
)

__version__ = "0.1.0"

# The grid scan has one lane, through numpy. perfbench/run.py reads this
# name and, unless it says "numpy", runs perfbench/lanes.py, which needs
# the per-map kernel codes this package no longer has.
KERNEL_IMPLEMENTATION = "numpy"
