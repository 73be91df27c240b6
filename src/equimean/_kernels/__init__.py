"""Grid-scan kernel with a compiled core and a numpy fallback.

The compiled extension is preferred when the build produced it; otherwise
the numpy lane runs. The compiled lane scores every ordered grid pair; the
numpy lane scores each unordered pair once and returns the same result bit
for bit. ``IMPLEMENTATION`` names the active lane and both lanes are
exposed for the comparison benchmark and tests.

The numpy lane (``fallback``) is imported inside the functions that run
it, so importing this package, and the CLI with it, loads no numpy.
"""

try:
    from . import _gridscan as _compiled
except ImportError:
    _compiled = None

IMPLEMENTATION = "cython" if _compiled is not None else "numpy"

# cells per row block of the numpy grid scans (here and in the batch lane
# of ``means``): a block's few float64 temporaries (128 KB each) stay in a
# per-core cache instead of streaming through memory
BLOCK_CELLS = 16_384

KERNEL_CODES = {
    "arith2": 0,
    "geom": 1,
    "minsq": 2,
    "dict0": 3,
    "dict1": 4,
    "const": 5,
}


def grid_scan_interval(kernel: str, param: float, a: float, b: float,
                       step: float, excluded: float):
    """Max contractivity ratio of a built-in binary mean over the square
    grid on [a, b]; returns (max_ratio, argmax_x, argmax_y, pairs), where
    pairs counts ordered pairs and the argmax is the first maximum in
    row-major order."""
    code = KERNEL_CODES[kernel]
    if _compiled is not None:
        return _compiled.grid_scan(code, param, a, b, step, excluded)
    from . import fallback

    return fallback.grid_scan(code, param, a, b, step, excluded)


def grid_scan_both(kernel: str, param: float, a: float, b: float,
                   step: float, excluded: float) -> dict:
    """Run every available lane (for benchmarks and agreement tests)."""
    from . import fallback

    code = KERNEL_CODES[kernel]
    out = {"numpy": fallback.grid_scan(code, param, a, b, step, excluded)}
    if _compiled is not None:
        out["cython"] = _compiled.grid_scan(code, param, a, b, step, excluded)
    return out
