import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import equimean

# every public name of ``equimean``, by home module; the lazy package must
# keep exactly these
PUBLIC_API = {
    "dyadics": ["ChainDecomposition", "Dyadic", "chain_decompose", "grid_steps", "nearest_dyadic",
                "parse_dyadic", "validate_chain"],
    "errors": ["CapacityError", "EquimeanError", "GroupConstructionError", "HypothesisError",
               "MembershipError", "PrecisionError", "SamplingError", "ToleranceError"],
    "groups": ["ActionReport", "FiniteGroup", "GroupAction", "Subgroup", "action_from_json",
               "check_action", "coordinate_permutation_action", "cyclic", "dihedral",
               "enumerate_subgroups", "full_subgroup", "klein_four", "negation_action", "orbit",
               "plane_rotation_action", "reflection_action", "rotation_action", "stabilizer",
               "subgroup_closure", "swap_axes_action", "symmetric", "trivial_action"],
    "homotopy": ["ContractionBuilder", "GHomotopy", "HolderReport", "LevelBoundReport",
                 "equivariant_contraction", "fixed_set_deformation", "straight_line_extension",
                 "symmetrize", "verify_claim1", "verify_holder"],
    "laws": ["LawReport", "check_anonymity", "check_equivariance", "check_laws",
             "check_strict_betweenness", "check_unanimity", "contractivity_ratio",
             "orbit_average_point", "quasi_mean", "sample_tuples"],
    "means": ["LambdaConfig", "LambdaEstimate", "QuasiMeanMap", "arithmetic_mean",
              "collapse_to_quasi_mean", "constant_mean", "derive_divisor_mean", "dictator_mean",
              "estimate_lambda", "geometric_mean", "mean_from_name", "min_plus_halfsquare_mean"],
    "rng": ["Xoshiro256StarStar", "as_rng"],
    "search": ["SolomonicSearch", "solomonic_witness_search"],
    "spaces": ["Box", "Circle", "FinitePoints", "Interval", "MetricSpace", "Point", "Product",
               "as_point", "distance", "is_convex", "space_from_json", "tuple_diameter"],
}


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(equimean.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)


def test_all_lists_the_public_names():
    assert sorted(equimean.__all__) == sorted(n for names in PUBLIC_API.values() for n in names)


def test_each_public_name_is_its_home_modules_object():
    listed = dir(equimean)
    for module, names in PUBLIC_API.items():
        home = importlib.import_module(f"equimean.{module}")
        for name in names:
            assert getattr(equimean, name) is getattr(home, name), name
            assert name in listed, name


def test_import_equimean_loads_no_submodule():
    out = run_python("""
        import sys
        import equimean
        assert [m for m in sys.modules if m.startswith("equimean.")] == [], "import"
        assert equimean.KERNEL_IMPLEMENTATION == "numpy"
        assert getattr(equimean, "no_such_name", "unknown") == "unknown"
        assert "ContractionBuilder" in dir(equimean)
        assert [m for m in sys.modules if m.startswith("equimean.")] == [], "dir"
        print(equimean.__version__)
        from equimean import Dyadic
        assert sorted(m for m in sys.modules if m.startswith("equimean.")) == [
            "equimean.dyadics", "equimean.errors"], "Dyadic"
        from equimean import homotopy
        assert homotopy.ContractionBuilder is equimean.ContractionBuilder
    """)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == equimean.__version__ != ""
