"""Settings and helpers shared by the test modules.

Every ``hypothesis`` property runs under one profile: no deadline (a
property may run a solver), a derandomized example sequence and no example
database, so each run draws the same examples and leaves no
``.hypothesis/`` directory behind.  The ``traced_peak`` fixture counts the
memory of a 2-d run the same way for every memory test.
"""

import tracemalloc

import pytest
from hypothesis import settings

from khessian.grid2d import build_grid

settings.register_profile("khessian", deadline=None, derandomize=True, database=None)
settings.load_profile("khessian")


def _traced_peak(domain, h, run):
    """(grid, held, peak): traced bytes of grid = build_grid(domain, h) and run(grid).

    Both are counted from before the grid: held once it is built, peak the highest
    through the build and the run.  A run on build_grid(domain, 1/32) first fills the
    first-call caches, which a later run does not pay again.
    """
    run(build_grid(domain, 1.0 / 32.0))
    tracemalloc.start()
    try:
        grid = build_grid(domain, h)
        held = tracemalloc.get_traced_memory()[0]
        run(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return grid, held, peak


@pytest.fixture
def traced_peak():
    """The shared memory count of a 2-d run (_traced_peak)."""
    return _traced_peak
