"""Test-wide Hypothesis settings, under which a failing property test prints
the ``@reproduce_failure`` line that replays its example, and shared
fixtures."""

import pytest
from hypothesis import settings

from bcpoly import GaussianRational

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture
def gaussian_rationals_built(monkeypatch):
    """A list to which every ``GaussianRational`` built from then on in the
    test appends its constructor arguments."""
    built = []
    init = GaussianRational.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    return built
