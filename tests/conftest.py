"""Shared fixtures for the test suite.

``make_dataset`` lives in ``support.py`` (not here) so test modules can
import it without racing ``benchmarks/conftest.py`` for the top-level
``conftest`` module name when pytest runs from the repo root.
"""

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster import ClusterSpec, SimulatedCluster

from support import make_dataset

# Tier-1 draws the same hypothesis examples on every run: a property
# test that fails does so every time, never as a one-off flake.  The
# ``explore`` profile (``pytest --hypothesis-profile=explore``, a CI job
# of its own) draws random ones; a failure it finds becomes an
# ``@example`` on the test.  A test's own ``@settings(max_examples=...)``
# wins over either profile's.
settings.register_profile("default", derandomize=True, deadline=None)
settings.register_profile("explore", derandomize=False, deadline=None,
                          max_examples=300)
settings.load_profile("default")


@pytest.fixture
def spec():
    """Default cluster spec without jitter, for deterministic assertions."""
    return ClusterSpec(jitter_sigma=0.0)


@pytest.fixture
def engine(spec):
    return SimulatedCluster(spec, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_dataset(spec):
    return make_dataset(spec=spec)
