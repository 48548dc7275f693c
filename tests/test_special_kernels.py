"""The ``scipy.special`` kernels that replace ``scipy.stats`` in ``repro``.

``poisson_window`` and ``batch_means`` evaluate the Poisson quantile and
mass function and the Student-t quantile with the ``scipy.special``
expressions ``scipy.stats`` itself uses, so importing ``repro`` never loads
``scipy.stats`` (about half of the import time).  This module is the only
place that still imports ``scipy.stats``: as the oracle the kernels must
match byte for byte.  The last test checks, in a fresh interpreter, that
``scipy.stats`` and the simulation engines stay out of ``sys.modules``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
from repro.ctmc import poisson_window
from repro.errors import AnalysisError
from repro.simulation import batch_means

#: Uniformisation means of the paper models: Lambda * t of the DDS
#: reliability and of the four RCS mission times.
PAPER_MEANS = (6.0, 30.6, 306.0, 3060.0, 5361.0)
#: 400 geometric means from 1e-3 to 1e6, plus the paper's.
WINDOW_MEANS = tuple(np.geomspace(1e-3, 1e6, 400)) + PAPER_MEANS
WINDOW_EPSILONS = (1e-4, 1e-8, 1e-10, 1e-12, 1e-14)


def scipy_stats_window(mean: float, epsilon: float) -> tuple[int, int, np.ndarray]:
    """``poisson_window`` as it was written on ``scipy.stats.poisson``."""
    left = int(stats.poisson.ppf(epsilon / 2.0, mean))
    right = int(stats.poisson.ppf(1.0 - epsilon / 2.0, mean))
    right = max(right, left + 1)
    ks = np.arange(left, right + 1)
    return left, right, stats.poisson.pmf(ks, mean)


@pytest.mark.parametrize("epsilon", WINDOW_EPSILONS)
def test_poisson_window_is_byte_equal_to_scipy_stats(epsilon):
    for mean in WINDOW_MEANS:
        left, right, weights = poisson_window(mean, epsilon)
        expected_left, expected_right, expected = scipy_stats_window(mean, epsilon)
        assert (left, right) == (expected_left, expected_right), mean
        assert weights.dtype == expected.dtype, mean
        assert weights.tobytes() == expected.tobytes(), mean


def test_poisson_window_of_zero_mean_is_a_point_mass():
    left, right, weights = poisson_window(0.0, 1e-12)
    assert (left, right, weights.tolist()) == (0, 0, [1.0])


@pytest.mark.parametrize("mean", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_poisson_window_rejects_bad_mean(mean):
    with pytest.raises(AnalysisError, match=f"mean must be finite and non-negative, got {mean}"):
        poisson_window(mean, 1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, -1e-12, math.nan, math.inf])
def test_poisson_window_rejects_epsilon_outside_unit_interval(epsilon):
    with pytest.raises(AnalysisError, match=f"epsilon must lie in \\(0, 1\\), got {epsilon}"):
        poisson_window(5.0, epsilon)


def test_poisson_window_rejects_epsilon_below_double_precision():
    with pytest.raises(AnalysisError, match="epsilon=1e-17 is below double precision"):
        poisson_window(5.0, 1e-17)


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_batch_means_critical_value_is_byte_equal_to_scipy_stats(confidence):
    rng = np.random.default_rng(17)
    for df in range(1, 301):
        # One sample per batch, so the batch means are the samples.
        values = rng.random(df + 1)
        interval = batch_means(values, batches=df + 1, confidence=confidence)
        critical = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
        spread = float(values.std(ddof=1))
        assert interval.half_width == critical * spread / math.sqrt(df + 1), df


IMPORT_PROBE = """
import json, sys
import repro
from repro.casestudies.dds import build_dds_evaluator, dds_sweep_factory
from repro.casestudies.rcs import build_rcs_modular_evaluator

ENGINES = ("restart", "vectorised", "engine", "compiled")

def loaded():
    return {
        "scipy.stats": "scipy.stats" in sys.modules,
        "engines": sorted(e for e in ENGINES if f"repro.simulation.{e}" in sys.modules),
    }

build_dds_evaluator()
build_rcs_modular_evaluator()
after_evaluators = loaded()
dds_sweep_factory()
after_sweep = loaded()
evaluator = repro.ArcadeEvaluator(
    repro.quickstart_model(), backend="simulate", sim_replications=64
)
unreliability = evaluator.unreliability(100.0)
print(json.dumps({
    "after_evaluators": after_evaluators,
    "after_sweep": after_sweep,
    "after_simulation": loaded(),
    "unreliability": unreliability,
}))
"""


def test_paper_inputs_load_neither_scipy_stats_nor_the_simulation_engines():
    # A fresh interpreter: this test session has imported scipy.stats itself.
    source = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(completed.stdout)
    assert report["after_evaluators"] == {"scipy.stats": False, "engines": []}
    assert report["after_sweep"]["scipy.stats"] is False
    # The simulate backend still works, and loads the engines on first use.
    assert report["after_simulation"] == {
        "scipy.stats": False,
        "engines": ["compiled", "engine", "restart", "vectorised"],
    }
    assert 0.0 <= report["unreliability"] <= 1.0
