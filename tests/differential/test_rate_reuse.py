"""Re-gathered steps against cold runs: rate reuse is bit-identical.

A composer step that misses the quotient cache only because rates changed
re-gathers its rates through a stored
:class:`~repro.composer.cache.StepSkeleton` instead of rebuilding the
product (see ``docs/caching.md``, "Rate-only misses re-gather").  For every
model of the 54-model corpus under every reduction mode, the repairable and
the no-repair pipelines are composed with all rates scaled by 1, 2 and 3 on
one shared cache: the second run stores the skeletons, the third re-gathers.
The third run must equal a cold (uncached) run at the same rates:

1. the same step trajectory (descriptions, sizes, hidden sets);
2. the same final I/O-IMC, byte for byte — CSR arrays, rate bits, state
   names and labels;
3. the same CTMC, and the same availability, unreliability at 10 h and
   MTTF, compared with ``==``.

A hand-built model adds the case where the scaling makes two components'
rates equal: the step that lumps them re-gathers but minimises to a coarser
quotient, so every later step sees a new structure and takes the cold path.

Run with ``pytest tests/differential/test_rate_reuse.py --run-differential``.
"""

import dataclasses

import pytest

from repro.arcade import ArcadeModel, BasicComponent, RepairStrategy, RepairUnit, down
from repro.arcade.expressions import And, Or
from repro.arcade.semantics import translate_model
from repro.composer import QuotientCache, compose_model
from repro.ctmc import mean_time_to_failure, steady_state_availability, unreliability
from repro.distributions import Exponential
from repro.ioimc import IOIMC

from .test_differential import CORPUS, HORIZON, REDUCTIONS, build_model

pytestmark = pytest.mark.differential

FACTORS = (1.0, 2.0, 3.0)


def scaled(translated, factor: float, blocks=None):
    """``translated`` with the Markovian rates of ``blocks`` (default: all)
    multiplied by ``factor``."""
    scaled_blocks = {}
    for name, block in translated.blocks.items():
        if blocks is None or name in blocks:
            block = IOIMC(
                block.name,
                block.signature,
                block.num_states,
                block.initial,
                block.interactive,
                [[(rate * factor, target) for rate, target in row] for row in block.markovian],
                block.labels,
                block.state_names,
            )
        scaled_blocks[name] = block
    return dataclasses.replace(translated, blocks=scaled_blocks)


def trajectory(system):
    return [
        (
            step.description,
            step.states_before_reduction,
            step.transitions_before_reduction,
            step.states_after_reduction,
            step.transitions_after_reduction,
            step.hidden_actions,
        )
        for step in system.statistics.steps
    ]


def ioimc_bytes(automaton):
    """Everything an I/O-IMC stores, with every array as dtype + bytes."""
    index = automaton.index()
    interactive = index.interactive_csr
    markovian = index.markovian_csr
    columns = (
        interactive.indptr,
        interactive.source,
        interactive.action,
        interactive.target,
        markovian.indptr,
        markovian.source,
        markovian.rate,
        markovian.target,
    )
    return (
        automaton.name,
        automaton.signature,
        automaton.num_states,
        automaton.initial,
        index.actions,
        [(column.dtype.str, column.tobytes()) for column in columns],
        list(automaton.labels.items()),
        [automaton.state_name(state) for state in automaton.states()],
    )


def ctmc_bytes(ctmc):
    source, rate, target = ctmc.edge_arrays()
    return (
        ctmc.num_states,
        source.tobytes(),
        rate.tobytes(),
        target.tobytes(),
        ctmc.initial_distribution.tobytes(),
        list(ctmc.labels.items()),
    )


def measures(repairable, no_repair):
    return (
        steady_state_availability(repairable.ctmc),
        unreliability(no_repair.ctmc, HORIZON),
        mean_time_to_failure(repairable.ctmc),
    )


def assert_warm_equals_cold(pipelines, reduction, *, blocks=None):
    """Compose the repairable and no-repair ``(translated, order)``
    pipelines at each factor on one cache; the last factor's runs must
    equal cold runs.  Returns the runs at the last two factors."""
    cache = QuotientCache()

    def run(factor, shared):
        return [
            compose_model(
                scaled(translated, factor, blocks),
                reduction=reduction,
                cache=shared,
                order=order,
            )
            for translated, order in pipelines
        ]

    runs = [run(factor, cache) for factor in FACTORS]
    previous, warm = runs[-2], runs[-1]
    cold = run(FACTORS[-1], None)
    assert cache.regathers > 0
    assert any(step.regathered for step in warm[0].statistics.steps)
    for warm_run, cold_run in zip(warm, cold):
        assert trajectory(warm_run) == trajectory(cold_run)
        assert ioimc_bytes(warm_run.ioimc) == ioimc_bytes(cold_run.ioimc)
        assert ctmc_bytes(warm_run.ctmc) == ctmc_bytes(cold_run.ctmc)
    assert measures(*warm) == measures(*cold)
    return previous, warm


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("family,seed", CORPUS)
def test_regathered_run_equals_cold_run(family, seed, reduction):
    model = build_model(family, seed)
    pipelines = (
        (translate_model(model), None),
        (translate_model(model.without_repair()), None),
    )
    assert_warm_equals_cold(pipelines, reduction)


def _equal_at_three_model() -> ArcadeModel:
    """c0 (with its repair unit) runs at a third of c1's rates, so scaling
    c0 by 3 makes the two components interchangeable."""
    model = ArcadeModel(name="equal_at_three")
    rates = {"c0": (0.125, 0.5), "c1": (0.375, 1.5), "c2": (0.25, 1.0)}
    for name, (failure, repair) in rates.items():
        model.add_component(
            BasicComponent(
                name,
                time_to_failures=Exponential(failure),
                time_to_repairs=Exponential(repair),
            )
        )
        model.add_repair_unit(RepairUnit(f"rep_{name}", [name], RepairStrategy.DEDICATED))
    model.set_system_down(And([Or([down("c0"), down("c1")]), down("c2")]))
    model.validate()
    return model


@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_rates_made_equal_lump_coarser_and_later_steps_run_cold(reduction):
    model = _equal_at_three_model()
    translated = translate_model(model)
    gate = next(name for name in translated.blocks if name.startswith("_sys."))
    pipelines = (
        (translated, [["c0", "rep_c0", "c1", "rep_c1", gate], "c2", "rep_c2", "_sys"]),
        (translate_model(model.without_repair()), [["c0", "c1", gate], "c2", "_sys"]),
    )
    previous, warm = assert_warm_equals_cold(
        pipelines, reduction, blocks={"c0", "rep_c0"}
    )
    before = previous[0].statistics.steps
    after = warm[0].statistics.steps
    coarser = next(
        position
        for position, (old, new) in enumerate(zip(before, after))
        if new.states_after_reduction < old.states_after_reduction
    )
    # The lumping step keeps its structure (its key differs only in rates),
    # so it re-gathers; from then on every operand is new and runs cold.
    assert after[coarser].regathered and not after[coarser].cache_hit
    assert after[coarser + 1 :]
    for step in after[coarser + 1 :]:
        assert not step.regathered and not step.cache_hit
    assert all(step.regathered or step.cache_hit for step in after[:coarser])
