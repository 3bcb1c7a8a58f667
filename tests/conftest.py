"""Shared pytest configuration.

Property tests run under one hypothesis profile: derandomized so that
every run draws the same examples, with no per-example deadline (the
scalar reference arithmetic is slow on purpose) and a bounded example
count so that the tier-1 run stays short.  No example database is kept.
"""

from hypothesis import settings

settings.register_profile(
    "punits", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("punits")
