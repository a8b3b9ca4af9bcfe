"""Shared test settings.

Every hypothesis test runs under one profile: no per-example deadline
(simulations take as long as they take), examples derived from the test
itself rather than a random seed, and no example database, so a run
depends on nothing but the source.  Each test sets only max_examples,
and the differential tests against the frozen copy also leave out the
shrink phase (frozen_baseline.NO_SHRINK).
"""

from hypothesis import settings

settings.register_profile("hybridnoc", deadline=None, derandomize=True, database=None)
settings.load_profile("hybridnoc")
