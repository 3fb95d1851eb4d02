"""End-to-end tests of every table/figure driver.

The acceptance criteria — what the paper reports for each artifact —
are the rows of :data:`repro.experiments.claims.CLAIMS`, one test each;
the rest check the rendered output and the registry.
"""

import fnmatch
import inspect
import pathlib
import re

import pytest

from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS, driver
from repro.experiments.claims import CLAIMS, render_markdown

NAMES = sorted([*ALL_EXPERIMENTS, *EXTENSION_EXPERIMENTS])
ROOT = pathlib.Path(__file__).parents[2]
FULL_OUTPUT = ROOT / "experiments_full_output.txt"
EXPERIMENTS_MD = ROOT / "EXPERIMENTS.md"


def test_registry_covers_every_artifact():
    assert set(ALL_EXPERIMENTS) == {
        "table1",
        "table2",
        "table3",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
    }


def test_table1_all_kernels_present(driver_result):
    result = driver_result("table1")
    assert result.all_present
    assert len(result.rows) == 16
    assert "MatMulSimple2D" in result.render()


def test_fig3_render(driver_result):
    text = driver_result("fig3").render()
    assert "8 nodes" in text and "512 nodes" in text


def test_fig4_render(driver_result):
    assert "filesystem at 512 nodes" in driver_result("fig4").render()


def test_fig5_render(driver_result):
    assert "non-local read" in driver_result("fig5").render()


def test_fig6_render(driver_result):
    assert "128 nodes" in driver_result("fig6").render()


def _claim_param(claim):
    if not claim.known_miss:
        return pytest.param(claim, id=claim.id)
    xfail = pytest.mark.xfail(strict=True, reason=claim.known_miss)
    return pytest.param(claim, id=claim.id, marks=xfail)


@pytest.mark.parametrize("claim", [_claim_param(c) for c in CLAIMS])
def test_claim_holds(claim, driver_result):
    value, passed = claim.evaluate(driver_result(claim.figure))
    assert passed, f"{claim.id}: measured {value!r}, tolerance {claim.bounds()}"


def test_experiments_md_holds_the_rendered_claims(driver_result):
    rendered = render_markdown(driver_result)
    assert rendered in EXPERIMENTS_MD.read_text(), "regenerate EXPERIMENTS.md's claims tables"


def test_experiments_md_names_only_claims_that_exist():
    """The calibration and sensitivity tables name claims by hand (``fig4.filesystem.*``
    is a pattern): each name must match a row of ``CLAIMS``."""
    ids = [c.id for c in CLAIMS]
    text = EXPERIMENTS_MD.read_text()
    named = set(re.findall(r"`((?:table|fig)\d[ab]?\.[^`]+)`", text))
    unknown = sorted(n for n in named if not fnmatch.filter(ids, n))
    assert named and not unknown, unknown


@pytest.mark.parametrize("name", NAMES)
def test_archived_output_is_what_the_driver_prints(name, driver_result):
    assert driver_result(name).render() + "\n" in FULL_OUTPUT.read_text()


def test_no_driver_takes_a_scale_parameter():
    """One scale: ``run()`` takes what selects *what* is run, never how long."""
    for name in NAMES:
        extra = set(inspect.signature(driver(name).run).parameters) - {
            "backends", "rates", "seed", "sweep", "telemetry",
        }
        assert not extra, (name, extra)


def test_cli_main_runs(capsys):
    from repro.cli import main

    assert main(["sweep", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_cli_unknown_experiment():
    from repro.cli import main

    with pytest.raises(ConfigError, match="unknown experiments"):
        main(["sweep", "bogus"])
