"""Full-scale (5000-iteration) validation runs.

The Table 2/3 numbers themselves are checked against the paper's by the
``table2.*`` / ``table3.*`` rows of ``repro.experiments.claims``.
"""

import pytest

from repro.workloads import NekrsValidationSetup


@pytest.fixture(scope="module")
def fullscale():
    setup = NekrsValidationSetup(train_iterations=5000)
    return setup.run_original(), setup.run_miniapp()


def test_writes_and_reads_balance_at_scale(fullscale):
    for result in fullscale:
        assert abs(result.snapshots_written - result.snapshots_read) <= 2
