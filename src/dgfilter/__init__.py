"""Stable modal filtering for nodal discontinuous Galerkin methods on LGL grids.

Import from the submodules (``dgfilter.operators``, ``dgfilter.filters``,
``dgfilter.equations``, ...); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
