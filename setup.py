"""Build script: compiles the optional grid-scan extension when Cython is available.

The package works without the extension (the numpy fallback runs in its
place, imported only when a grid scan needs it); to force a local build run

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [
            Extension(
                "equimean._kernels._gridscan",
                ["src/equimean/_kernels/_gridscan.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    ext_modules = []

setup(ext_modules=ext_modules)
