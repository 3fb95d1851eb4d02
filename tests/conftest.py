"""Fixtures shared across test packages."""

import pytest

from repro.experiments import driver


@pytest.fixture(scope="session")
def driver_result():
    """``driver_result(name)``: that driver's serial ``run()``, computed once.

    The drivers are deterministic and have one scale, so every test that
    needs the plain serial result of a table/figure (shape assertions,
    engine parity, the archived-output check) reads the same object
    instead of paying for the run again.
    """
    results = {}

    def get(name):
        if name not in results:
            results[name] = driver(name).run()
        return results[name]

    return get
