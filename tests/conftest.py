"""Test-wide Hypothesis settings: a failing property test prints the
``@reproduce_failure`` line that replays its example."""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
