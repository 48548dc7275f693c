"""Vectorised replication engine: thousands of trajectories in lockstep.

The scalar :class:`~repro.simulation.engine.ArcadeSimulator` executes one
trajectory at a time through a heap of events; python-level overhead per
event makes rare-event replication counts (10^6 and up) unreachable.  This
engine runs a whole *batch* of replications simultaneously over numpy state
matrices (one row per replication, one column per component / repair unit):
every iteration selects each replication's next event with a batched
``(time, event_id)`` argmin and executes all selected events grouped by
target, so the python overhead per iteration is shared by the whole batch
while the per-replication semantics stay exactly those of the scalar
engine.

The engine is a *masked mirror* of the scalar control flow: every handler
(`_handle_failure`, `_propagate`, the repair-queue logic, spare management)
iterates components and units in the same model order and splits its row
mask exactly where the scalar code branches.  Because replications are
independent, this preserves each replication's *own* sequence of random
draws, which enables the two draw modes:

``mode="matched"``
    Each replication ``i`` draws from its own
    :func:`~repro.simulation.rng.trajectory_generator` stream, one scalar
    draw at a time with the very numpy calls the scalar engine makes.  A
    scalar run with the same stream is **bit-identical** — the differential
    tier compares full event logs and trace times for equality.

``mode="batched"``
    All replications share one generator and every draw point consumes one
    *array* per distribution family (exponential delays, uniform branch
    picks, :meth:`~repro.distributions.phase_type.PhaseType.sample_batch`
    repair draws).  This is the fast path; it is validated statistically
    (confidence-interval coverage of the compositional ground truth).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..arcade.model import ArcadeModel
from ..arcade.operational_modes import OMGroupKind
from ..arcade.repair_unit import RepairStrategy
from ..distributions.phase_type import PhaseType
from ..errors import ModelError
from ..nputil import unique_sorted
from .compiled import MODE_DF, MODE_NONE, CompiledComponent, CompiledModel, compile_model
from ..telemetry.trace import incr, observe
from ..telemetry.trace import span as telemetry_span
from .engine import SimulationEstimate, SimulationTrace
from .rng import make_generator, trajectory_generators
from .stats import StoppingReport, run_until_relative_error

_NO_EVENT = np.iinfo(np.int64).max


# --------------------------------------------------------------------------- #
# draw brokers
# --------------------------------------------------------------------------- #
class _MatchedDraws:
    """One independent generator per replication, consumed in scalar order.

    Every method makes, per row, exactly the numpy call the scalar engine
    makes at the same program point, so a replication's stream advances
    identically in both engines.
    """

    mode = "matched"

    def __init__(self, generators: list[np.random.Generator]) -> None:
        self.generators = list(generators)

    def initial_phase(self, rows: np.ndarray, dist: PhaseType) -> np.ndarray:
        probabilities = np.asarray(dist.initial)
        return np.array(
            [
                int(self.generators[row].choice(dist.num_phases, p=probabilities))
                for row in rows
            ],
            dtype=np.int64,
        )

    def exponential(self, rows: np.ndarray, scale: float) -> np.ndarray:
        return np.array([float(self.generators[row].exponential(scale)) for row in rows])

    def uniform(self, rows: np.ndarray, high: float) -> np.ndarray:
        return np.array([float(self.generators[row].uniform(0.0, high)) for row in rows])

    def failure_mode(self, rows: np.ndarray, compiled: CompiledComponent) -> np.ndarray:
        probabilities = np.asarray(compiled.failure_mode_probabilities)
        return np.array(
            [
                int(
                    self.generators[row].choice(
                        compiled.num_failure_modes, p=probabilities
                    )
                )
                for row in rows
            ],
            dtype=np.int64,
        )

    def repair_delay(self, rows: np.ndarray, dist: PhaseType) -> np.ndarray:
        return np.array([dist.sample(self.generators[row]) for row in rows])


class _BatchedDraws:
    """One shared generator, one array draw per call (the fast path)."""

    mode = "batched"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    @staticmethod
    def _pick(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        picked = np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")
        return np.minimum(picked, cumulative.size - 1)

    def initial_phase(self, rows: np.ndarray, dist: PhaseType) -> np.ndarray:
        cumulative = np.cumsum(np.asarray(dist.initial))
        return self._pick(cumulative, self.rng.random(rows.size)).astype(np.int64)

    def exponential(self, rows: np.ndarray, scale: float) -> np.ndarray:
        return self.rng.exponential(scale, rows.size)

    def uniform(self, rows: np.ndarray, high: float) -> np.ndarray:
        return self.rng.uniform(0.0, high, rows.size)

    def failure_mode(self, rows: np.ndarray, compiled: CompiledComponent) -> np.ndarray:
        cumulative = np.cumsum(np.asarray(compiled.failure_mode_probabilities))
        return self._pick(cumulative, self.rng.random(rows.size)).astype(np.int64)

    def repair_delay(self, rows: np.ndarray, dist: PhaseType) -> np.ndarray:
        return dist.sample_batch(self.rng, rows.size)


# --------------------------------------------------------------------------- #
# runtime state
# --------------------------------------------------------------------------- #
class _Runtime:
    """Row-per-replication state matrices plus the masked event handlers.

    The attribute list in ``_ROW_ARRAYS`` is the complete per-replication
    state; :meth:`clone_rows` (used by RESTART) copies exactly these.
    """

    _ROW_ARRAYS = (
        "down", "active", "waiting", "mode", "phase",
        "fail_time", "fail_eid", "fail_kind", "fail_mode_sel", "fail_target",
        "repairing", "rep_time", "rep_eid", "queued_seq",
        "eid_counter", "seq_counter",
        "now", "last_change", "sysdown",
        "down_time", "up_time", "failures", "first_fail", "events", "done",
    )

    def __init__(
        self,
        compiled: CompiledModel,
        size: int,
        broker,
        *,
        logs: list[list] | None = None,
    ) -> None:
        self.cm = compiled
        self.broker = broker
        self.logs = logs
        C = compiled.num_components
        U = compiled.num_units
        # component state
        self.down = np.zeros((size, C), dtype=bool)
        self.active = np.broadcast_to(
            np.array([c.initially_active for c in compiled.components]), (size, C)
        ).copy()
        self.waiting = np.zeros((size, C), dtype=bool)
        self.mode = np.full((size, C), MODE_NONE, dtype=np.int8)
        self.phase = np.zeros((size, C), dtype=np.int16)
        # scheduled failure / phase-advance event per component
        self.fail_time = np.full((size, C), np.inf)
        self.fail_eid = np.full((size, C), -1, dtype=np.int64)
        self.fail_kind = np.zeros((size, C), dtype=np.int8)  # 0=failure 1=phase
        self.fail_mode_sel = np.zeros((size, C), dtype=np.int8)
        self.fail_target = np.zeros((size, C), dtype=np.int16)
        # repair units
        self.repairing = np.full((size, U), -1, dtype=np.int16)
        self.rep_time = np.full((size, U), np.inf)
        self.rep_eid = np.full((size, U), -1, dtype=np.int64)
        self.queued_seq = np.full((size, C), -1, dtype=np.int64)
        # per-replication counters (mirror the scalar itertools.count and
        # the queue arrival order)
        self.eid_counter = np.zeros(size, dtype=np.int64)
        self.seq_counter = np.zeros(size, dtype=np.int64)
        # trace bookkeeping
        self.now = np.zeros(size)
        self.last_change = np.zeros(size)
        self.sysdown = np.zeros(size, dtype=bool)
        self.down_time = np.zeros(size)
        self.up_time = np.zeros(size)
        self.failures = np.zeros(size, dtype=np.int64)
        self.first_fail = np.full(size, np.nan)
        self.events = np.zeros(size, dtype=np.int64)
        self.done = np.zeros(size, dtype=bool)
        # per-unit helper tables
        self._member_cols = [np.array(unit.members, dtype=np.int64) for unit in compiled.units]
        priority_used = {RepairStrategy.PRIORITY_NON_PREEMPTIVE, RepairStrategy.PRIORITY_PREEMPTIVE}
        self._member_rank = [
            np.array(unit.priority_rank, dtype=np.int64)
            if unit.strategy in priority_used
            else np.zeros(len(unit.members), dtype=np.int64)
            for unit in compiled.units
        ]
        self._priority_by_col = []
        for unit in compiled.units:
            table = np.zeros(C, dtype=np.int64)
            for member in unit.unit.components:
                table[compiled.index[member]] = unit.unit.priority_of(member)
            self._priority_by_col.append(table)
        # columns whose pending failure delay can be re-drawn in a single
        # matrix pass: one operational state, one (exponential) phase and one
        # failure mode, so only the delay and event id change on a redraw
        simple: list[int] = []
        scales: list[float] = []
        for column, component in enumerate(compiled.components):
            if (
                len(component.ttf) == 1
                and component.ttf[0] is not None
                and component.num_failure_modes == 1
                and component.ttf[0].num_phases == 1
            ):
                totals, _, _ = component.ttf[0]._phase_tables()
                if totals[0] > 0:
                    simple.append(column)
                    scales.append(1.0 / totals[0])
        self._redraw_simple = np.array(simple, dtype=np.int64)
        self._redraw_scales = np.array(scales)
        self._redraw_generic = np.array(
            [c for c in range(C) if c not in set(simple)], dtype=np.int64
        )
        # initial failure schedules, in model order like the scalar engine
        rows = np.arange(size)
        for column in range(C):
            self._schedule_failure(column, rows, preserve_phase=False)
        self.sysdown[:] = self.cm.system_down(self.down, self.mode)

    @property
    def size(self) -> int:
        return self.done.size

    # ------------------------------------------------------------------ #
    # event selection / main step
    # ------------------------------------------------------------------ #
    def _select(self):
        """Next event per live replication: lexicographic ``(time, eid)`` min.

        The scalar heap orders by ``(time, event_id)`` and skips stale
        entries; here timers are overwritten in place so no stale entries
        exist and the same order falls out of an argmin with event-id
        tie-breaking.
        """
        live = np.nonzero(~self.done)[0]
        times = np.concatenate([self.fail_time[live], self.rep_time[live]], axis=1)
        eids = np.concatenate([self.fail_eid[live], self.rep_eid[live]], axis=1)
        best = times.min(axis=1)
        tied = times == best[:, None]
        column = np.argmin(np.where(tied, eids, _NO_EVENT), axis=1)
        return live, best, column

    def _finalize(self, rows: np.ndarray, horizon: float) -> None:
        """Record the tail segment up to ``horizon`` and retire the rows."""
        if rows.size == 0:
            return
        tail = horizon - self.last_change[rows]
        was_down = self.sysdown[rows]
        self.down_time[rows[was_down]] += tail[was_down]
        self.up_time[rows[~was_down]] += tail[~was_down]
        self.done[rows] = True

    def _dispatch(self, rows: np.ndarray, times: np.ndarray, columns: np.ndarray) -> None:
        """Execute the selected event of every row (grouped by target)."""
        self.now[rows] = times
        self.events[rows] += 1
        C = self.cm.num_components
        for column in unique_sorted(columns):
            group = rows[columns == column]
            if column < C:
                kinds = self.fail_kind[group, column]
                if self.logs is not None:
                    name = self.cm.names[column]
                    for row, kind in zip(group, kinds):
                        self.logs[row].append(
                            (self.now[row], "failure" if kind == 0 else "phase", name)
                        )
                failed = group[kinds == 0]
                if failed.size:
                    self._handle_failure(
                        column, failed, self.fail_mode_sel[failed, column]
                    )
                advanced = group[kinds == 1]
                if advanced.size:
                    self.phase[advanced, column] = self.fail_target[advanced, column]
                    self._schedule_failure(column, advanced, preserve_phase=True)
            else:
                unit = int(column - C)
                if self.logs is not None:
                    name = self.cm.unit_names[unit]
                    for row in group:
                        self.logs[row].append((self.now[row], "repair", name))
                self._handle_repair(unit, group)

    def _update_system_state(self, rows: np.ndarray) -> None:
        """Re-evaluate the fault tree and record up/down segment changes."""
        is_down = self.cm.system_down(self.down[rows], self.mode[rows])
        flipped = is_down != self.sysdown[rows]
        changed = rows[flipped]
        if changed.size == 0:
            return
        segment = self.now[changed] - self.last_change[changed]
        was_down = self.sysdown[changed]
        self.down_time[changed[was_down]] += segment[was_down]
        self.up_time[changed[~was_down]] += segment[~was_down]
        newly_down = changed[~was_down]
        self.failures[newly_down] += 1
        first = newly_down[np.isnan(self.first_fail[newly_down])]
        self.first_fail[first] = self.now[first]
        self.sysdown[changed] = is_down[flipped]
        self.last_change[changed] = self.now[changed]

    def step(self, horizon: float) -> bool:
        """Advance every live replication by one event; False when all done."""
        live, times, columns = self._select()
        if live.size == 0:
            return False
        over = ~(np.isfinite(times) & (times <= horizon))
        self._finalize(live[over], horizon)
        rows = live[~over]
        if rows.size == 0:
            return bool((~self.done).any())
        self._dispatch(rows, times[~over], columns[~over])
        self._update_system_state(rows)
        return True

    # ------------------------------------------------------------------ #
    # component behaviour (masked mirrors of the scalar handlers)
    # ------------------------------------------------------------------ #
    def _operational_state_index(self, column: int, rows: np.ndarray) -> np.ndarray:
        compiled = self.cm.components[column]
        index = np.zeros(rows.size, dtype=np.int64)
        for kind, num_modes, triggers in compiled.groups:
            if kind is OMGroupKind.ACTIVE_INACTIVE:
                mode_index = self.active[rows, column].astype(np.int64)
            else:
                mode_index = np.zeros(rows.size, dtype=np.int64)
                down = self.down[rows]
                mode = self.mode[rows]
                for level, trigger in enumerate(triggers, start=1):
                    mode_index[trigger(down, mode)] = level
            index = index * num_modes + mode_index
        return index

    def _schedule_failure(
        self, column: int, rows: np.ndarray, *, preserve_phase: bool
    ) -> None:
        rows = rows[~self.down[rows, column]]
        if rows.size == 0:
            return
        compiled = self.cm.components[column]
        if len(compiled.ttf) == 1:
            states = np.zeros(rows.size, dtype=np.int64)
        else:
            states = self._operational_state_index(column, rows)
        for state in unique_sorted(states):
            group = rows[states == state]
            dist = compiled.ttf[state]
            if dist is None:
                self.fail_eid[group, column] = -1
                self.fail_time[group, column] = np.inf
                continue
            self._schedule_from(column, group, compiled, dist, preserve_phase)

    def _schedule_from(
        self,
        column: int,
        rows: np.ndarray,
        compiled: CompiledComponent,
        dist: PhaseType,
        preserve_phase: bool,
    ) -> None:
        phases = self.phase[rows, column].astype(np.int64)
        if preserve_phase:
            fresh = phases >= dist.num_phases
        else:
            fresh = np.ones(rows.size, dtype=bool)
        if fresh.any():
            phases[fresh] = self.broker.initial_phase(rows[fresh], dist)
        self.phase[rows, column] = phases
        totals, cumulatives, targets = dist._phase_tables()
        for current in unique_sorted(phases):
            group = rows[phases == current]
            total = totals[current]
            if total <= 0:  # a dead phase: the component can never fail from here
                self.fail_eid[group, column] = -1
                self.fail_time[group, column] = np.inf
                continue
            delay = self.broker.exponential(group, 1.0 / total)
            choice = self.broker.uniform(group, total)
            picked = np.minimum(
                np.searchsorted(cumulatives[current], choice, side="left"),
                cumulatives[current].size - 1,
            )
            target = targets[current][picked]
            event_id = self.eid_counter[group]
            self.eid_counter[group] = event_id + 1
            self.fail_eid[group, column] = event_id
            self.fail_time[group, column] = self.now[group] + delay
            absorbing = target < 0
            self.fail_kind[group, column] = np.where(absorbing, 0, 1).astype(np.int8)
            self.fail_target[group, column] = np.where(absorbing, 0, target).astype(
                np.int16
            )
            struck = group[absorbing]
            if struck.size:
                self.fail_mode_sel[struck, column] = self.broker.failure_mode(
                    struck, compiled
                ).astype(np.int8)

    def _handle_failure(self, column: int, rows: np.ndarray, modes) -> None:
        self.down[rows, column] = True
        self.mode[rows, column] = modes
        self.fail_eid[rows, column] = -1
        self.fail_time[rows, column] = np.inf
        self._notify_repair_unit(column, rows)
        self._propagate(column, rows)

    def _handle_repair(self, unit: int, rows: np.ndarray) -> None:
        repaired = self.repairing[rows, unit].copy()
        self.repairing[rows, unit] = -1
        self.rep_eid[rows, unit] = -1
        self.rep_time[rows, unit] = np.inf
        for column in unique_sorted(repaired[repaired >= 0]):
            group = rows[repaired == column]
            compiled = self.cm.components[column]
            if compiled.destructive_fdep is not None:
                redestroyed = compiled.destructive_fdep(
                    self.down[group], self.mode[group]
                )
            else:
                redestroyed = np.zeros(group.size, dtype=bool)
            struck = group[redestroyed]
            if struck.size:
                # Fig. 3: repairing a component whose dependency source is
                # still down immediately destroys it again.
                self.mode[struck, column] = MODE_DF
                self._notify_repair_unit(column, struck)
            healed = group[~redestroyed]
            if healed.size:
                self.down[healed, column] = False
                self.mode[healed, column] = MODE_NONE
                self.waiting[healed, column] = False
                self._schedule_failure(column, healed, preserve_phase=False)
                self._propagate(column, healed)
        self._start_next_repair(unit, rows)

    def _propagate(self, changed: int, rows: np.ndarray) -> None:
        """Re-evaluate dependencies after components changed up/down status."""
        for column, compiled in enumerate(self.cm.components):
            if column == changed:
                continue
            if compiled.destructive_fdep is not None:
                standing = rows[~self.down[rows, column]]
                if standing.size:
                    hit = compiled.destructive_fdep(
                        self.down[standing], self.mode[standing]
                    )
                    struck = standing[hit]
                    if struck.size:
                        self._handle_failure(column, struck, MODE_DF)
            if compiled.has_dynamic_modes:
                # A mode switch may change the failure rates: re-draw the
                # remaining time of the *current* phase under the new mode,
                # keeping the reached phase.  Rows just destroyed by the
                # dependency above are down now and drop out, exactly like
                # the scalar ``continue``.
                live = rows[~self.down[rows, column]]
                if live.size:
                    self._schedule_failure(column, live, preserve_phase=True)
        # Spare management.
        for primary, spares in self.cm.spare_units:
            spare_cols = np.array(spares, dtype=np.int64)
            snapshot = self.active[rows[:, None], spare_cols[None, :]].copy()
            primary_down = self.down[rows, primary]
            needing = rows[primary_down]
            if needing.size:
                serving = (
                    ~self.down[needing[:, None], spare_cols]
                    & self.active[needing[:, None], spare_cols]
                )
                uncovered = needing[~serving.any(axis=1)]
                if uncovered.size:
                    standing = ~self.down[uncovered[:, None], spare_cols]
                    any_spare = standing.any(axis=1)
                    uncovered = uncovered[any_spare]
                    first = np.argmax(standing[any_spare], axis=1)
                    for position in unique_sorted(first):
                        spare = spares[position]
                        group = uncovered[first == position]
                        dormant = group[~self.active[group, spare]]
                        if dormant.size:
                            self.active[dormant, spare] = True
                            self._schedule_failure(
                                spare, dormant, preserve_phase=True
                            )
            covered = rows[~primary_down]
            if covered.size:
                was_active = snapshot[~primary_down]
                for position, spare in enumerate(spares):
                    group = covered[was_active[:, position]]
                    if group.size:
                        self.active[group, spare] = False
                        standing = group[~self.down[group, spare]]
                        if standing.size:
                            self._schedule_failure(
                                spare, standing, preserve_phase=True
                            )

    # ------------------------------------------------------------------ #
    # repair units
    # ------------------------------------------------------------------ #
    def _notify_repair_unit(self, column: int, rows: np.ndarray) -> None:
        unit = self.cm.components[column].repair_unit
        if unit < 0:
            return
        self.waiting[rows, column] = True
        enqueue = rows[
            (self.queued_seq[rows, column] < 0) & (self.repairing[rows, unit] != column)
        ]
        if enqueue.size:
            self.queued_seq[enqueue, column] = self.seq_counter[enqueue]
            self.seq_counter[enqueue] += 1
        idle = rows[self.repairing[rows, unit] < 0]
        busy = rows[self.repairing[rows, unit] >= 0]
        if idle.size:
            self._start_next_repair(unit, idle)
        compiled_unit = self.cm.units[unit]
        if compiled_unit.strategy is RepairStrategy.PRIORITY_PREEMPTIVE and busy.size:
            current = self.repairing[busy, unit].astype(np.int64)
            priority = self._priority_by_col[unit]
            preempted = busy[priority[column] > priority[current]]
            if preempted.size:
                displaced = self.repairing[preempted, unit].astype(np.int64)
                # The displaced job goes to the back of the queue with a
                # fresh arrival number (the scalar engine re-appends it).
                self.queued_seq[preempted, displaced] = self.seq_counter[preempted]
                self.seq_counter[preempted] += 1
                self.repairing[preempted, unit] = -1
                self.rep_eid[preempted, unit] = -1
                self.rep_time[preempted, unit] = np.inf
                self.queued_seq[preempted, column] = -1
                self._begin_repair(unit, column, preempted)

    def _start_next_repair(self, unit: int, rows: np.ndarray) -> None:
        rows = rows[self.repairing[rows, unit] < 0]
        if rows.size == 0:
            return
        members = self._member_cols[unit]
        sequences = self.queued_seq[rows[:, None], members[None, :]]
        queued = sequences >= 0
        waiting = queued.any(axis=1)
        rows, sequences, queued = rows[waiting], sequences[waiting], queued[waiting]
        if rows.size == 0:
            return
        # Highest priority first, FCFS within a priority class; plain FCFS
        # units have an all-zero rank so the key degenerates to the arrival
        # sequence number (the scalar ``pop(0)``).
        key = np.where(queued, sequences + self._member_rank[unit][None, :], _NO_EVENT)
        chosen = np.argmin(key, axis=1)
        for position in unique_sorted(chosen):
            column = int(members[position])
            group = rows[chosen == position]
            self.queued_seq[group, column] = -1
            self._begin_repair(unit, column, group)

    def _begin_repair(self, unit: int, column: int, rows: np.ndarray) -> None:
        compiled = self.cm.components[column]
        modes = self.mode[rows, column].astype(np.int64)
        modes[modes == MODE_NONE] = 0  # the scalar engine defaults to "m1"
        for code in unique_sorted(modes):
            group = rows[modes == code]
            if code == MODE_DF:
                dist = compiled.ttr_df
                tag = "df"
            else:
                dist = compiled.ttr[code]
                tag = f"m{code + 1}"
            if dist is None:
                raise ModelError(
                    f"component {compiled.name} has no repair distribution for mode {tag}"
                )
            delay = self.broker.repair_delay(group, dist)
            event_id = self.eid_counter[group]
            self.eid_counter[group] = event_id + 1
            self.repairing[group, unit] = column
            self.rep_eid[group, unit] = event_id
            self.rep_time[group, unit] = self.now[group] + delay

    # ------------------------------------------------------------------ #
    # cloning (importance splitting)
    # ------------------------------------------------------------------ #
    def clone_rows(self, sources: np.ndarray) -> np.ndarray:
        """Copy ``sources`` (with their timers) into fresh rows.

        Retired rows (``done``) are recycled first; the matrices only grow —
        geometrically, to amortise the copies — when no free slots remain.
        Splitting runs spawn clones continuously, so without slot reuse the
        state would grow with every clone ever created instead of with the
        peak concurrent population.
        """
        if self.logs is not None:
            raise ModelError("cloning is not supported while event logging is active")
        free = np.nonzero(self.done)[0]
        if free.size < sources.size:
            grow = max(sources.size - free.size, self.size)
            for attribute in self._ROW_ARRAYS:
                array = getattr(self, attribute)
                padding = np.zeros((grow,) + array.shape[1:], dtype=array.dtype)
                setattr(self, attribute, np.concatenate([array, padding], axis=0))
            self.done[-grow:] = True
            free = np.nonzero(self.done)[0]
        slots = free[: sources.size]
        for attribute in self._ROW_ARRAYS:
            array = getattr(self, attribute)
            array[slots] = array[sources]
        return slots

    def redraw_failure_delays(self, rows: np.ndarray) -> None:
        """Re-draw pending failure delays (phase kept) to decorrelate clones.

        Valid because per-phase holding times are exponential, hence
        memoryless; *repair* residuals are general phase-type remainders and
        must be inherited, so they are left untouched.

        Single-state, single-phase, single-mode columns (the common case —
        every exponential component) are re-drawn in one matrix pass under
        the batched broker; the rest fall back to the per-column scheduler.
        The fast path draws one exponential per (row, column) cell whether
        or not the cell has a pending failure, which is harmless for the
        batched stream but would break matched-mode draw parity, so matched
        brokers always take the generic path.
        """
        columns = np.arange(self.cm.num_components)
        if self.broker.mode == "batched" and self._redraw_simple.size:
            grid = np.ix_(rows, self._redraw_simple)
            pending = self.fail_eid[grid] >= 0
            if pending.any():
                delays = (
                    self.broker.rng.exponential(
                        1.0, (rows.size, self._redraw_simple.size)
                    )
                    * self._redraw_scales
                )
                times = self.fail_time[grid]
                times[pending] = (self.now[rows][:, None] + delays)[pending]
                self.fail_time[grid] = times
                # Fresh per-row event ids keep the (time, eid) tie-break
                # deterministic; their exact values carry no meaning in
                # batched mode, only per-row uniqueness and monotonicity.
                base = self.eid_counter[rows]
                fresh = base[:, None] + np.cumsum(pending, axis=1) - 1
                eids = self.fail_eid[grid]
                eids[pending] = fresh[pending]
                self.fail_eid[grid] = eids
                self.eid_counter[rows] = base + pending.sum(axis=1)
            columns = self._redraw_generic
        for column in columns:
            pending = rows[self.fail_eid[rows, column] >= 0]
            if pending.size:
                self._schedule_failure(column, pending, preserve_phase=True)


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchResult:
    """Per-replication outcome arrays of one vectorised batch."""

    horizon: float
    down_time: np.ndarray
    up_time: np.ndarray
    failures: np.ndarray
    first_failure_time: np.ndarray  # NaN = never failed
    down_at_end: np.ndarray
    events: np.ndarray

    @property
    def replications(self) -> int:
        return self.down_time.size

    def unavailability_samples(self) -> np.ndarray:
        """Per-replication fraction of the horizon spent down."""
        return self.down_time / self.horizon

    def traces(self) -> list[SimulationTrace]:
        """Scalar-engine-compatible traces, for differential comparison."""
        return [
            SimulationTrace(
                horizon=self.horizon,
                down_time=float(self.down_time[row]),
                up_time=float(self.up_time[row]),
                failures=int(self.failures[row]),
                first_failure_time=(
                    None
                    if np.isnan(self.first_failure_time[row])
                    else float(self.first_failure_time[row])
                ),
                down_at_end=bool(self.down_at_end[row]),
                events=int(self.events[row]),
            )
            for row in range(self.replications)
        ]

    def estimate(self) -> SimulationEstimate:
        return SimulationEstimate(
            runs=self.replications,
            horizon=self.horizon,
            mean_unavailability=float(np.mean(self.unavailability_samples())),
            unreliability=float(np.mean(~np.isnan(self.first_failure_time))),
            point_unavailability=float(np.mean(self.down_at_end)),
            total_events=int(self.events.sum()),
        )


class VectorisedSimulator:
    """Batch Monte-Carlo executor for Arcade models.

    Parameters
    ----------
    model:
        The Arcade model to simulate.
    seed:
        Seed of the engine stream (batched mode) and of the per-trajectory
        seed sequences (matched mode).
    mode:
        ``"batched"`` (default, fast) or ``"matched"`` (bit-identical to the
        scalar engine, used by the differential tier).
    """

    def __init__(
        self, model: ArcadeModel, *, seed: int = 0, mode: str = "batched"
    ) -> None:
        if mode not in ("batched", "matched"):
            raise ModelError(f"unknown draw mode {mode!r}")
        self.model = model
        self.compiled = compile_model(model)
        self.seed = seed
        self.mode = mode
        self.rng = make_generator(seed)

    def _broker(self, replications: int, first_index: int):
        if self.mode == "matched":
            generators = trajectory_generators(self.seed, first_index + replications)
            return _MatchedDraws(generators[first_index:])
        return _BatchedDraws(self.rng)

    def run_batch(
        self,
        horizon: float,
        replications: int,
        *,
        first_index: int = 0,
        log: list | None = None,
    ) -> BatchResult:
        """Run ``replications`` trajectories up to ``horizon``.

        In matched mode replication ``i`` uses the trajectory stream
        ``first_index + i``; in batched mode the engine stream continues
        across calls.  ``log``, when given, is extended with one event list
        per replication in the scalar engine's ``(time, kind, name)``
        format.
        """
        if replications < 1:
            raise ModelError("run_batch needs at least one replication")
        with telemetry_span(
            "simulate.batch", horizon=horizon, replications=replications
        ) as batch_span:
            started = time.perf_counter()
            logs = None
            if log is not None:
                logs = [[] for _ in range(replications)]
                log.extend(logs)
            runtime = _Runtime(
                self.compiled,
                replications,
                self._broker(replications, first_index),
                logs=logs,
            )
            while runtime.step(horizon):
                pass
            total_events = int(runtime.events.sum())
            elapsed = time.perf_counter() - started
            batch_span.set(events=total_events)
            incr("simulate.events", total_events)
            if elapsed > 0:
                observe("simulate.events_per_second", total_events / elapsed)
            return BatchResult(
                horizon=horizon,
                down_time=runtime.down_time,
                up_time=runtime.up_time,
                failures=runtime.failures,
                first_failure_time=runtime.first_fail,
                down_at_end=runtime.sysdown.copy(),
                events=runtime.events,
            )

    def estimate(self, horizon: float, replications: int) -> SimulationEstimate:
        """Drop-in replacement for :meth:`ArcadeSimulator.estimate`."""
        return self.run_batch(horizon, replications).estimate()

    def estimate_until(
        self,
        horizon: float,
        *,
        rel_error: float,
        confidence: float = 0.99,
        batch_size: int = 1024,
        max_replications: int = 1 << 20,
        batches: int = 32,
        abs_error: float = 0.0,
    ) -> StoppingReport:
        """Keep adding batches until the unavailability CI is tight enough.

        ``abs_error`` is the absolute half-width fallback for degenerate
        all-zero estimates (no replication ever saw the system down) — see
        :func:`repro.simulation.stats.run_until_relative_error`.
        """
        state = {"next": 0}

        def draw(count: int) -> np.ndarray:
            result = self.run_batch(
                horizon, count, first_index=state["next"]
            ).unavailability_samples()
            state["next"] += count
            return result

        return run_until_relative_error(
            draw,
            rel_error=rel_error,
            confidence=confidence,
            batch_size=batch_size,
            max_replications=max_replications,
            batches=batches,
            abs_error=abs_error,
        )


__all__ = ["BatchResult", "VectorisedSimulator"]
