"""The serving tier replays compiled forward plans, which exist only on the
optimized engine: pin it for every serve test, whatever the CI leg selected
(a test about another engine flips the switch itself, inside the pin)."""

import pytest


@pytest.fixture(autouse=True)
def serve_on_optimized_engine(optimized_engine):
    yield
