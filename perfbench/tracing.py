"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public functions of each pipeline layer where the
pipeline calls them — the module globals of the calling module, e.g.
``repro.composer.composer.compose`` — and records one span per call:
``(name, start, end, parent, attrs)``.  Spans stay in memory; the runner
writes them out when the run ends.  :meth:`Tracer.installed` restores the
original functions on exit, so untraced evaluations in the same process run
the library exactly as users do.

A layer's self time is its span's duration minus the durations of its
direct children.  Every call happens inside the root span the runner opens,
and calls nest (the pipeline is serial), so the self times of one
evaluation add up to its root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

#: Name of the root span wrapping one evaluation; its self time is the part
#: of the evaluation no layer span covers.
ROOT = "analysis"


def _partition_sizes(args, kwargs, result) -> dict:
    return {"states_in": args[0].num_states, "states_out": result.num_blocks}


def _product_size(args, kwargs, result) -> dict:
    return {"states_out": result.num_states}


def _lumped_states(args, kwargs, result) -> dict:
    return {"ctmc_states": result.quotient.num_states}


#: (span name, module, attribute, attrs recorder).  An attribute with a dot
#: is a method on a class of that module.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("arcade.semantics.translate", "repro.analysis.evaluator", "translate_model", None),
    ("ioimc.composition.product", "repro.composer.composer", "compose", _product_size),
    ("ioimc.hiding.hide", "repro.composer.composer", "hide", None),
    ("lumping.reductions.cut", "repro.composer.composer", "maximal_progress_cut", None),
    ("lumping.reductions.cut", "repro.composer.composer", "eliminate_vanishing_chains", None),
    ("lumping.reductions.cut", "repro.ctmc.extraction", "maximal_progress_cut", None),
    ("lumping.partition", "repro.lumping.strong", "strong_bisimulation_partition", _partition_sizes),
    ("lumping.partition", "repro.lumping.branching", "branching_bisimulation_partition", _partition_sizes),
    ("lumping.quotient", "repro.lumping.strong", "quotient_by_partition", None),
    ("lumping.quotient", "repro.lumping.branching", "quotient_modulo_inert_tau", None),
    ("composer.cache.rebase", "repro.composer.composer", "rebase_actions", None),
    ("composer", "repro.composer.composer", "Composer.compose", None),
    ("ctmc.extraction.extract", "repro.composer.composer", "extract_ctmc", None),
    ("ctmc.lumping.lump", "repro.composer.composer", "lump", _lumped_states),
    ("ctmc.steady_state.scc", "repro.ctmc.steady_state", "bottom_strongly_connected_components", None),
    ("ctmc.steady_state.stationary", "repro.ctmc.steady_state", "stationary_of_irreducible", None),
    ("ctmc.transient.transient", "repro.ctmc.absorbing", "transient_distribution", None),
    ("ctmc.transient.transient", "repro.ctmc.measures", "transient_distribution", None),
    ("sweep.driver", "repro.sweep.driver", "run_sweep", None),
    ("sweep.driver.evaluation", "repro.sweep.driver", "evaluate_point", None),
)

#: Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRIC = {
    ROOT: "analysis.self_s",
    "arcade.semantics.translate": "arcade.semantics.translate_s",
    "ioimc.composition.product": "ioimc.composition.product_s",
    "ioimc.hiding.hide": "ioimc.hiding.hide_s",
    "lumping.reductions.cut": "lumping.reductions.cut_s",
    "lumping.partition": "lumping.partition_s",
    "lumping.quotient": "lumping.quotient_s",
    "composer.cache.rebase": "composer.cache.rebase_s",
    "composer": "composer.self_s",
    "ctmc.extraction.extract": "ctmc.extraction.extract_s",
    "ctmc.lumping.lump": "ctmc.lumping.lump_s",
    "ctmc.steady_state.scc": "ctmc.steady_state.scc_s",
    "ctmc.steady_state.stationary": "ctmc.steady_state.stationary_s",
    "ctmc.transient.transient": "ctmc.transient.transient_s",
    "sweep.driver": "sweep.driver.self_s",
    "sweep.driver.evaluation": "sweep.driver.self_s",
}

#: Call counts: span name -> metric.
CALL_COUNT_METRIC = {
    "arcade.semantics.translate": "arcade.semantics.calls",
    "ioimc.composition.product": "ioimc.composition.calls",
    "lumping.partition": "lumping.calls",
    "ctmc.transient.transient": "ctmc.transient.calls",
    "sweep.driver.evaluation": "sweep.driver.evaluations",
}

#: Summed span attributes: (span name, attr) -> metric.
ATTR_SUM_METRIC = {
    ("ioimc.composition.product", "states_out"): "ioimc.composition.states_out",
    ("lumping.partition", "states_in"): "lumping.states_in",
    ("lumping.partition", "states_out"): "lumping.states_out",
    ("ctmc.lumping.lump", "ctmc_states"): "ctmc.lumping.ctmc_states",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder for one serial process."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, function: Callable, recorder: Callable | None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if recorder is not None:
                    record.attrs.update(recorder(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals: list[tuple[Any, str, Any]] = []
        try:
            for name, module_name, attribute, recorder in TARGETS:
                owner: Any = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                originals.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, recorder))
            yield self
        finally:
            for owner, leaf, original in reversed(originals):
                setattr(owner, leaf, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self time per layer plus the call counts and summed state counts.

    ``spans`` is one evaluation: a single root span and its descendants.
    Every metric of the three tables is present, 0 for layers the
    evaluation never entered.
    """
    metrics: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    metrics.update({name: 0 for name in CALL_COUNT_METRIC.values()})
    metrics.update({name: 0 for name in ATTR_SUM_METRIC.values()})
    for span, own in zip(spans, self_times(spans)):
        metrics[SELF_TIME_METRIC[span.name]] += own
        if span.name in CALL_COUNT_METRIC:
            metrics[CALL_COUNT_METRIC[span.name]] += 1
        for attr, value in span.attrs.items():
            metrics[ATTR_SUM_METRIC[(span.name, attr)]] += value
    return metrics


def spans_as_records(spans: list[Span], origin: float) -> list[dict]:
    """JSON-ready spans, times in seconds from ``origin``."""
    return [
        {
            "name": span.name,
            "start": span.start - origin,
            "end": span.end - origin,
            "parent": span.parent,
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for span in spans
    ]
