"""Fixtures shared across test packages."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS


@pytest.fixture(scope="session")
def driver_result():
    """``driver_result(name)``: that driver's serial ``run()``, computed once.

    The drivers are deterministic and have one scale, so every test that
    needs the plain serial result of a table/figure (shape assertions,
    engine parity, the archived-output check) reads the same object
    instead of paying for the run again.
    """
    registry = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
    results = {}

    def get(name):
        if name not in results:
            results[name] = registry[name].run()
        return results[name]

    return get
