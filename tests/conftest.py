"""Each test starts with no held operator set.

``build_operators`` hands its last set back to the next call at the same
degree. A test that patches the build chain (``lgl_nodes_weights``,
``derivative_matrix``, ``vandermonde``, ``_legendre_table``, ``ctypes.CDLL``
or the benchmark tracer's table) must build its own set, and a set built
under a patch must not reach the next test, whatever order the tests run in.
"""

import pytest

from dgfilter import operators


@pytest.fixture(autouse=True)
def fresh_operator_sets():
    operators._held = None
    yield
    operators._held = None
