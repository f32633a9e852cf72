"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci selects a derandomized run
without the example database, so a failing CI run replays the same
examples locally with the same variable set."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
