"""Shared test settings: property tests replay the same examples on every
run and stay within a bounded budget."""

from hypothesis import settings

settings.register_profile("shortpacket", derandomize=True, deadline=None, max_examples=10)
settings.load_profile("shortpacket")
