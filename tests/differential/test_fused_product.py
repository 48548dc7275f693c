"""The fused maximal-progress product against the unfused step pipeline.

Every composer step builds its product with
``compose(..., maximal_progress=True)``: the Markovian moves of unstable
pairs are dropped during exploration, so states reachable only through a
cut edge are never built.  The oracle is the step pipeline it replaces,
*product → hide → maximal-progress cut → restrict to reachable*
(:func:`product_oracle.cut_product`).  The two number their states
differently (BFS order of the cut graph versus of the full graph), so they
are compared through the pair-code bijection.

For every step of every corpus model (repairable and no-repair pipelines)
under every reduction mode, and of the paper's DDS and RCS runs, this
asserts:

1. the same pair-code set and initial pair, the same interactive and
   Markovian edge multisets (rates compared bit for bit), the same labels
   and state names, the same signature;
2. the reduced automata of both have the same numbers of states and
   transitions;

and, for the corpus, that the measures of the whole evaluation agree with
an evaluation whose composer takes the unfused path
(:func:`product_oracle.use_unfused_composer`) to 1e-12 relative.  They are
not byte-identical in general: a permuted numbering can regroup a
floating-point sum.

Run with ``pytest tests/differential/test_fused_product.py
--run-differential``.
"""

import pytest

from product_oracle import (
    canonical_form,
    cut_product,
    fused_product,
    use_unfused_composer,
)

from repro.analysis import ArcadeEvaluator
from repro.casestudies.dds import build_dds_evaluator
from repro.casestudies.rcs import build_rcs_modular_evaluator
from repro.composer import composer as composer_module
from repro.composer.composer import Composer
from repro.ioimc import compose

from .test_differential import CORPUS, HORIZON, REDUCTIONS, build_model

pytestmark = pytest.mark.differential


class StepChecker:
    """Checks every product a composer builds against the unfused oracle.

    The composer decides the hidden set (``_hidable_signals``) right before
    it builds the step's product, so recording it there gives the checker
    everything the step does.
    """

    def __init__(self, monkeypatch) -> None:
        self.steps = 0
        self._composer = None
        self._hidden: list[str] = []
        hidable_signals = Composer._hidable_signals

        def recording_hidable(composer, left, right, blocks):
            hidden = hidable_signals(composer, left, right, blocks)
            self._composer, self._hidden = composer, hidden
            return hidden

        def checking_compose(left, right, name=None, *, maximal_progress=False):
            assert maximal_progress, "composer steps must build the cut product"
            self.check(left, right, name)
            return compose(left, right, name=name, maximal_progress=True)

        monkeypatch.setattr(Composer, "_hidable_signals", recording_hidable)
        monkeypatch.setattr(composer_module, "compose", checking_compose)

    def check(self, left, right, name) -> None:
        fused, fused_pairs = fused_product(left, right, self._hidden, name)
        oracle, oracle_pairs = cut_product(left, right, self._hidden, name)
        assert canonical_form(fused, fused_pairs) == canonical_form(
            oracle, oracle_pairs
        ), f"step {name!r}: fused product differs from the unfused pipeline"
        reduced = self._composer._reduce(fused).summary()
        reduced_oracle = self._composer._reduce(oracle).summary()
        assert (reduced["states"], reduced["transitions"]) == (
            reduced_oracle["states"],
            reduced_oracle["transitions"],
        ), f"step {name!r}: reduced sizes differ"
        self.steps += 1


def _measures(model, reduction):
    evaluator = ArcadeEvaluator(model, reduction=reduction)
    return evaluator.unavailability(), evaluator.unreliability(HORIZON)


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("family,seed", CORPUS)
def test_fused_product_matches_unfused_pipeline(family, seed, reduction, monkeypatch):
    model = build_model(family, seed)
    checker = StepChecker(monkeypatch)
    fused = _measures(model, reduction)
    assert checker.steps > 0

    use_unfused_composer(monkeypatch)
    unfused = _measures(model, reduction)
    assert fused == pytest.approx(unfused, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case_study", ["dds", "rcs"])
def test_paper_model_steps_match_unfused_pipeline(case_study, monkeypatch):
    """Every step of the paper's DDS and modular RCS runs (strong)."""
    checker = StepChecker(monkeypatch)
    if case_study == "dds":
        build_dds_evaluator().availability()
    else:
        build_rcs_modular_evaluator().unavailability()
    assert checker.steps > 0
