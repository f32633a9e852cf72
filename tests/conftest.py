"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci selects a derandomized run
without the example database, so a failing CI run replays the same
examples locally with the same variable set."""
import os

from hypothesis import Phase, settings

settings.register_profile("ci", derandomize=True, database=None)
# the ci examples without shrinking, for tests/mutants.py: a mutant is
# killed by its first failing example, the smallest one is not needed
settings.register_profile("mutants", settings.get_profile("ci"), phases=[Phase.explicit, Phase.generate])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
