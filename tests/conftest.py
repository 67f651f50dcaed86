"""Hypothesis runs derandomized, so a tier-1 run gives the same result every
time: same seed, same bytes."""

from hypothesis import settings

settings.register_profile("specsum", derandomize=True, deadline=None)
settings.load_profile("specsum")
