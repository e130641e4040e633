"""Settings shared by the test modules.

Every ``hypothesis`` property runs under one profile: no deadline (a
property may run a solver), a derandomized example sequence and no example
database, so each run draws the same examples and leaves no
``.hypothesis/`` directory behind.
"""

from hypothesis import settings

settings.register_profile("khessian", deadline=None, derandomize=True, database=None)
settings.load_profile("khessian")
