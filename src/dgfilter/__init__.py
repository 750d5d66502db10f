"""Stable modal filtering for nodal discontinuous Galerkin methods on LGL grids.

Import from the submodules (``dgfilter.operators``, ``dgfilter.filters``,
``dgfilter.equations``, ...); the package root exports ``__version__``,
``THREAD_VARS`` and :func:`console_main`, the command-line entry, and
imports no numpy.
"""

import os

__version__ = "0.1.0"

# the BLAS and OpenMP thread variables that a command-line run reads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def console_main() -> int:
    """The ``dgfilter`` console script and ``python -m dgfilter.cli``:
    :func:`dgfilter.cli.main` at one BLAS thread unless one of ``THREAD_VARS``
    is set, as the thread count moves the last bits of some study CSVs. The
    variables are set before numpy loads, so they reach OpenBLAS, MKL and
    OpenMP builds alike; importing the package sets none.
    """
    if not any(name in os.environ for name in THREAD_VARS):
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from .cli import main

    return main()
