"""Hypothesis settings shared by the property tests: a fixed derandomized
case list, no per-example deadline (timings vary on small machines) and
no example database, so every run replays the same cases."""

from hypothesis import settings

settings.register_profile("wfg", derandomize=True, deadline=None, database=None,
                          max_examples=100)
settings.load_profile("wfg")
