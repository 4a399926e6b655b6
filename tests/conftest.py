"""Shared test settings: one hypothesis profile for every run.

It prints the reproduction blob of a failing example, so the example can be
replayed with ``@reproduce_failure``; example counts and randomness stay as
each test sets them.
"""

from hypothesis import settings

settings.register_profile("repo", print_blob=True)
settings.load_profile("repo")
