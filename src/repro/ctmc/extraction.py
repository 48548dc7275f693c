"""Conversion of a closed I/O-IMC into a labelled CTMC.

This is the third step of the evaluation approach of Section 4: once the
composer has produced a single I/O-IMC for the whole system and every signal
has been hidden, the model contains only internal (tau) and Markovian
transitions.  Under the maximal-progress assumption the internal transitions
are taken in zero time, so the model is equivalent to a CTMC over its
*tangible* states (states without urgent transitions):

1. Markovian transitions of unstable states are removed (maximal progress);
2. every vanishing (unstable) state is replaced by the tangible state its
   tau-transitions lead to — the models produced by the Arcade translation
   are *confluent*, i.e. all maximal tau-paths from a vanishing state end in
   the same tangible state, which is verified here;
3. only the labels of the tangible states are kept: vanishing states are
   occupied for zero time, so their atomic propositions cannot contribute to
   any (time-based) measure.  In Arcade models the system-failure condition
   can never hold *only* during a vanishing instant (repairs take positive
   time), so no failure information is lost.

The conversion runs on the CSR tables of the automaton's
:class:`~repro.ioimc.indexed.TransitionIndex`: tangibility is the index's
stability bit, the Markovian edges whose target is already tangible — the
vast majority after reduction — are renumbered wholesale, and only edges
into *vanishing* targets walk the tau-resolution (memoised per target).  The
resulting edge columns feed :meth:`repro.ctmc.CTMC.from_arrays`, so no
Python per-transition loop is left between the final I/O-IMC and the chain.
"""

from __future__ import annotations

import numpy as np

from ..errors import NondeterminismError
from ..ioimc import IOIMC
from ..lumping.reductions import maximal_progress_cut
from ..nputil import csr_indptr, unique_sorted
from .ctmc import CTMC


def extract_ctmc(automaton: IOIMC, *, on_nondeterminism: str = "error") -> CTMC:
    """Convert a closed I/O-IMC into a labelled CTMC.

    Parameters
    ----------
    automaton:
        The fully composed I/O-IMC.  It must be *closed*: no input actions may
        remain and every output should have been hidden.  Remaining outputs
        are tolerated and treated like internal actions (they cannot
        synchronise with anything anymore).
    on_nondeterminism:
        ``"error"`` (default) raises :class:`NondeterminismError` when a
        vanishing state can reach two different tangible states via internal
        moves; ``"uniform"`` resolves the choice uniformly at random instead.
    """
    if automaton.signature.inputs:
        raise NondeterminismError(
            "the I/O-IMC still has input actions "
            f"{sorted(automaton.signature.inputs)}; it is not a closed system"
        )
    automaton = maximal_progress_cut(automaton)
    index = automaton.index()
    interactive_csr = index.interactive_csr
    markovian_csr = index.markovian_csr()

    # With no inputs left every interactive transition is urgent, so the
    # tangible states are exactly the index's stable ones.
    tangible_flags = index.stable_flags
    tangible = np.flatnonzero(tangible_flags)
    tangible_of = np.full(automaton.num_states, -1, dtype=np.int64)
    tangible_of[tangible] = np.arange(len(tangible), dtype=np.int64)

    # Urgent successor CSR (sources are the vanishing states, by definition).
    urgent = ~index.input_flags[interactive_csr.action]
    urgent_source = interactive_csr.source[urgent]
    urgent_target = interactive_csr.target[urgent]
    urgent_indptr = csr_indptr(urgent_source, automaton.num_states)

    # Resolve a state to the distribution over tangible states reached by
    # exhausting urgent transitions.  With confluence this is a single state.
    resolution: dict[int, dict[int, float]] = {}

    def resolve(state: int) -> dict[int, float]:
        cached = resolution.get(state)
        if cached is not None:
            return cached
        resolution[state] = {}  # guard against tau-cycles
        if tangible_flags[state]:
            result = {state: 1.0}
        else:
            targets = urgent_target[
                urgent_indptr[state] : urgent_indptr[state + 1]
            ].tolist()
            combined: dict[int, float] = {}
            per_branch = 1.0 / len(targets)
            reachable_tangibles: set[int] = set()
            for target in targets:
                for tangible_state, weight in resolve(target).items():
                    combined[tangible_state] = (
                        combined.get(tangible_state, 0.0) + per_branch * weight
                    )
                    reachable_tangibles.add(tangible_state)
            if len(reachable_tangibles) > 1:
                if on_nondeterminism == "error":
                    names = [automaton.state_name(s) for s in sorted(reachable_tangibles)]
                    raise NondeterminismError(
                        f"vanishing state {automaton.state_name(state)} can reach "
                        f"{len(reachable_tangibles)} different tangible states "
                        f"({', '.join(names[:5])}...); the model is not confluent"
                    )
            result = combined
        resolution[state] = result
        return result

    # Markovian sources are all tangible (maximal progress cut above); edges
    # whose target is tangible too — the common case — map wholesale.  Edges
    # into vanishing targets go through the (memoised) tau-resolution; each
    # unique vanishing target resolves once.
    edge_source = tangible_of[markovian_csr.source]
    edge_rate = markovian_csr.rate
    edge_target = tangible_of[markovian_csr.target]
    vanishing_edges = np.flatnonzero(edge_target < 0)
    if len(vanishing_edges):
        confluent_of = np.full(automaton.num_states, -1, dtype=np.int64)
        branching: dict[int, dict[int, float]] = {}
        for state in unique_sorted(markovian_csr.target[vanishing_edges]).tolist():
            resolved = resolve(state)
            if len(resolved) == 1:
                confluent_of[state] = tangible_of[next(iter(resolved))]
            else:
                branching[state] = resolved
        if not branching:
            edge_target = np.where(
                edge_target >= 0, edge_target, confluent_of[markovian_csr.target]
            )
        else:
            # Rare (only reachable with on_nondeterminism="uniform"): expand
            # the affected edges in place so the edge order — and hence the
            # bit-exact rate accumulation — is preserved.
            sources, rates, targets = [], [], []
            for position in range(len(edge_source)):
                target = int(markovian_csr.target[position])
                if edge_target[position] >= 0:
                    sources.append(int(edge_source[position]))
                    rates.append(float(edge_rate[position]))
                    targets.append(int(edge_target[position]))
                    continue
                for tangible_state, weight in resolve(target).items():
                    sources.append(int(edge_source[position]))
                    rates.append(float(edge_rate[position]) * weight)
                    targets.append(int(tangible_of[tangible_state]))
            edge_source = np.array(sources, dtype=np.int64)
            edge_rate = np.array(rates, dtype=np.float64)
            edge_target = np.array(targets, dtype=np.int64)

    initial_resolution = resolve(automaton.initial)
    if len(initial_resolution) == 1:
        initial: int | list[float] = int(tangible_of[next(iter(initial_resolution))])
    else:
        vector = [0.0] * len(tangible)
        for tangible_state, weight in initial_resolution.items():
            vector[int(tangible_of[tangible_state])] = weight
        initial = vector

    labels = {}
    for state, props in automaton.labels.items():
        if tangible_flags[state] and props:
            labels[int(tangible_of[state])] = frozenset(props)
    names = [automaton.state_name(state) for state in tangible.tolist()]
    return CTMC.from_arrays(
        len(tangible), edge_source, edge_rate, edge_target, initial, labels, names
    )


__all__ = ["extract_ctmc"]
