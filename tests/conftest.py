"""Shared pytest configuration: markers and differential-suite gating.

Markers
-------
``slow``
    Paper-reproduction tests that run a full compositional-aggregation
    pipeline (seconds, not milliseconds).  They are part of tier-1 and run by
    default; deselect them during quick iteration with ``-m "not slow"``.
``differential``
    The cross-validation suite under ``tests/differential/``: seeded random
    Arcade models whose measures are checked against three independent
    oracles (flat composition, the reduced compositional pipeline, and the
    Monte-Carlo simulator).  Skipped by default to keep tier-1 fast; enable
    with ``--run-differential``.
``chaos``
    The recovery suite under ``tests/chaos/``: a pipeline run on a cache
    archive with an entry corrupted on disk must recover to bit-identical
    results.  Skipped by default; enable with ``--run-chaos``.
"""

import pytest


@pytest.fixture(scope="session")
def dds_full_evaluator():
    """The full DDS compositional-aggregation run (the suite's most expensive
    artefact) — built once and shared by the case-study and golden tests."""
    from repro.casestudies.dds import build_dds_evaluator

    return build_dds_evaluator()


@pytest.fixture(scope="session")
def dds_modular_evaluator():
    from repro.casestudies.dds import build_dds_modular_evaluator

    return build_dds_modular_evaluator()


@pytest.fixture(scope="session")
def rcs_modular_evaluator():
    from repro.casestudies.rcs import build_rcs_modular_evaluator

    return build_rcs_modular_evaluator()


@pytest.fixture(scope="session")
def dds_branching_evaluator():
    """The full DDS run under branching-bisimulation reduction (the paper's
    actual CADP equivalence) — shared by the branching golden pins."""
    from repro.casestudies.dds import build_dds_evaluator

    return build_dds_evaluator(reduction="branching")


@pytest.fixture(scope="session")
def rcs_branching_modular_evaluator():
    from repro.casestudies.rcs import build_rcs_modular_evaluator

    return build_rcs_modular_evaluator(reduction="branching")


def pytest_addoption(parser):
    parser.addoption(
        "--run-differential",
        action="store_true",
        default=False,
        help="run the differential cross-validation suite (tests/differential/)",
    )
    parser.addoption(
        "--run-chaos",
        action="store_true",
        default=False,
        help="run the chaos recovery suite (tests/chaos/)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: full pipeline runs that take seconds (run by default)"
    )
    config.addinivalue_line(
        "markers",
        "differential: randomised cross-validation suite (needs --run-differential)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: corrupted-cache recovery suite (needs --run-chaos)",
    )


def pytest_collection_modifyitems(config, items):
    skip_differential = pytest.mark.skip(
        reason="differential suite disabled (pass --run-differential to enable)"
    )
    skip_chaos = pytest.mark.skip(
        reason="chaos suite disabled (pass --run-chaos to enable)"
    )
    for item in items:
        if "differential" in item.keywords and not config.getoption(
            "--run-differential"
        ):
            item.add_marker(skip_differential)
        if "chaos" in item.keywords and not config.getoption("--run-chaos"):
            item.add_marker(skip_chaos)
