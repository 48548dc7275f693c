"""Tests for the CTMC solvers (steady state, transient, absorbing, lumping)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.ctmc import (
    CTMC,
    bottom_strongly_connected_components,
    extract_ctmc,
    interval_unavailability,
    lump,
    make_absorbing,
    mean_time_to_failure,
    point_availability,
    poisson_window,
    reliability,
    stationary_of_irreducible,
    steady_state_availability,
    steady_state_distribution,
    transient_distribution,
    unreliability,
)
from repro.ctmc.csl import Atomic, CSLChecker, Not, ProbabilisticUntil, SteadyState, eventually
import repro.ctmc.steady_state as steady_state_module
from repro.ctmc.steady_state import _GTH_LIMIT, _balance_system, absorption_probabilities
from repro.errors import AnalysisError, ModelError, NondeterminismError
from repro.ioimc import IOIMCBuilder, Signature

from lumping_oracle import (
    absorption_probabilities_reference,
    lump_reference,
    mean_time_to_failure_reference,
    pair_rates_reference,
)


def two_state_machine(failure_rate=0.01, repair_rate=1.0) -> CTMC:
    """The classic repairable single machine (up <-> down)."""
    return CTMC(
        2,
        [(0, failure_rate, 1), (1, repair_rate, 0)],
        initial=0,
        labels={1: frozenset({"down"})},
        state_names=["up", "down"],
    )


class TestConstruction:
    def test_parallel_transitions_are_summed(self):
        chain = CTMC(2, [(0, 1.0, 1), (0, 2.0, 1)])
        assert chain.num_transitions == 1
        assert chain.exit_rate(0) == pytest.approx(3.0)

    def test_self_loops_dropped(self):
        chain = CTMC(2, [(0, 1.0, 0), (0, 1.0, 1)])
        assert chain.num_transitions == 1

    def test_rejects_negative_rate(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, -1.0, 1)])

    def test_rejects_bad_initial_distribution(self):
        with pytest.raises(ModelError):
            CTMC(2, [(0, 1.0, 1)], initial=[0.5, 0.2])

    def test_absorbing_states(self):
        chain = CTMC(3, [(0, 1.0, 1), (1, 1.0, 2)])
        assert chain.absorbing_states() == [2]


class TestSteadyState:
    def test_two_state_machine(self):
        chain = two_state_machine(0.01, 1.0)
        distribution = steady_state_distribution(chain)
        expected_down = 0.01 / 1.01
        assert distribution[1] == pytest.approx(expected_down, rel=1e-9)
        assert steady_state_availability(chain) == pytest.approx(1 - expected_down, rel=1e-9)

    def test_birth_death_chain(self):
        # M/M/1/3 queue: arrivals 1, service 2 => pi_i ~ (1/2)^i
        rates = []
        for i in range(3):
            rates.append((i, 1.0, i + 1))
            rates.append((i + 1, 2.0, i))
        chain = CTMC(4, rates)
        distribution = steady_state_distribution(chain)
        weights = np.array([0.5**i for i in range(4)])
        expected = weights / weights.sum()
        assert np.allclose(distribution, expected, rtol=1e-9)

    def test_reducible_chain_with_two_bsccs(self):
        # State 0 jumps to absorbing state 1 or 2 with equal rates.
        chain = CTMC(3, [(0, 1.0, 1), (0, 1.0, 2)], initial=0)
        distribution = steady_state_distribution(chain)
        assert distribution[1] == pytest.approx(0.5)
        assert distribution[2] == pytest.approx(0.5)

    def test_bscc_detection(self):
        chain = CTMC(3, [(0, 1.0, 1), (1, 1.0, 0), (0, 1.0, 2)])
        # the {0,1} class leaks into 2, so it must not be a BSCC
        assert bottom_strongly_connected_components(chain) == [[2]]

    def test_large_chain_uses_sparse_path(self):
        # Chain of 2000 states in a ring: uniform stationary distribution.
        size = 2000
        transitions = [(i, 1.0, (i + 1) % size) for i in range(size)]
        chain = CTMC(size, transitions)
        distribution = steady_state_distribution(chain)
        assert distribution[0] == pytest.approx(1.0 / size, rel=1e-6)

    def test_sparse_path_rejects_an_inaccurate_solve(self, monkeypatch):
        size = _GTH_LIMIT + 100
        chain = CTMC(size, [(i, 1.0 + i % 3, (i + 1) % size) for i in range(size)])
        states = list(range(size))
        exact = stationary_of_irreducible(chain, states)

        def perturbed(system, rhs):
            solution = exact.copy()
            solution[0] *= 1.5
            return solution

        monkeypatch.setattr(
            steady_state_module, "sparse_linalg", SimpleNamespace(spsolve=perturbed)
        )
        with pytest.raises(AnalysisError, match="residual"):
            stationary_of_irreducible(chain, states)

    def test_gth_path_rejects_an_inaccurate_solution(self, monkeypatch):
        size = 40
        chain = CTMC(size, [(i, 1.0 + i % 3, (i + 1) % size) for i in range(size)])
        states = list(range(size))
        exact = stationary_of_irreducible(chain, states)
        real_gth = steady_state_module._gth

        def perturbed(rates):
            assert np.array_equal(real_gth(rates), exact)
            solution = exact.copy()
            solution[0] *= 1.5
            return solution / solution.sum()

        monkeypatch.setattr(steady_state_module, "_gth", perturbed)
        with pytest.raises(AnalysisError, match=r"GTH .*residual \|\|pi Q\|\|_inf"):
            stationary_of_irreducible(chain, states)

    def test_paper_dds_passes_the_residual_check(self, dds_full_evaluator):
        chain = dds_full_evaluator.ctmc
        (states,) = bottom_strongly_connected_components(chain)
        assert len(states) > _GTH_LIMIT
        distribution = stationary_of_irreducible(chain, states)
        assert distribution.sum() == pytest.approx(1.0)


def _tarjan_scc(num_states: int, successors: list[list[int]]) -> list[int]:
    """Iterative Tarjan strongly-connected-components; returns component ids.

    The oracle :func:`reference_bsccs` is built on.
    """
    index_counter = 0
    stack: list[int] = []
    on_stack = [False] * num_states
    indices = [-1] * num_states
    lowlink = [0] * num_states
    component_of = [-1] * num_states
    num_components = 0

    for root in range(num_states):
        if indices[root] != -1:
            continue
        work = [(root, iter(successors[root]))]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, iterator = work[-1]
            advanced = False
            for successor in iterator:
                if indices[successor] == -1:
                    indices[successor] = lowlink[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(successors[successor])))
                    advanced = True
                    break
                if on_stack[successor]:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component_of[member] = num_components
                    if member == node:
                        break
                num_components += 1
    return component_of


def reference_bsccs(chain: CTMC) -> list[list[int]]:
    """BSCCs by Tarjan over the transition list (sorted state lists)."""
    successors: list[list[int]] = [[] for _ in range(chain.num_states)]
    for source, _, target in chain.transitions():
        successors[source].append(target)
    component_of = _tarjan_scc(chain.num_states, successors)
    is_bottom = [True] * (max(component_of) + 1)
    for source, _, target in chain.transitions():
        if component_of[source] != component_of[target]:
            is_bottom[component_of[source]] = False
    members: list[list[int]] = [[] for _ in is_bottom]
    for state, component in enumerate(component_of):
        members[component].append(state)
    return [sorted(states) for index, states in enumerate(members) if is_bottom[index]]


def random_multi_bscc_chain(seed: int) -> CTMC:
    """A random chain with several bottom classes and a transient part.

    Bottom classes are rate cycles of one to four states (a one-state class
    is a sink without a self-loop); transient states carry random edges
    among themselves (so non-bottom cycles occur) and into the bottom
    classes.  State numbers are shuffled so no class is contiguous.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=rng.integers(1, 5)).tolist()
    num_transient = int(rng.integers(0, 15))
    num_states = sum(sizes) + num_transient
    relabel = rng.permutation(num_states).tolist()
    transitions = []
    bottom_states = []
    start = num_transient
    for size in sizes:
        members = list(range(start, start + size))
        bottom_states.extend(members)
        if size > 1:
            for position, state in enumerate(members):
                transitions.append(
                    (state, float(rng.uniform(0.1, 2.0)), members[(position + 1) % size])
                )
        start += size
    for state in range(num_transient):
        targets = set(rng.integers(0, num_states, size=rng.integers(1, 4)).tolist())
        targets.add(int(rng.choice(bottom_states)))
        for target in sorted(targets - {state}):
            transitions.append((state, float(rng.uniform(0.1, 2.0)), target))
    return CTMC(
        num_states,
        [(relabel[source], rate, relabel[target]) for source, rate, target in transitions],
        initial=relabel[0],
    )


class TestBSCCsAgainstTarjan:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_chains_match_the_tarjan_oracle(self, seed):
        chain = random_multi_bscc_chain(seed)
        bsccs = bottom_strongly_connected_components(chain)
        assert sorted(map(tuple, bsccs)) == sorted(map(tuple, reference_bsccs(chain)))
        assert all(members == sorted(members) for members in bsccs)
        assert [members[0] for members in bsccs] == sorted(
            members[0] for members in bsccs
        )

    def test_corpus_has_several_bsccs_and_transient_states(self):
        shapes = []
        for seed in range(40):
            chain = random_multi_bscc_chain(seed)
            bsccs = reference_bsccs(chain)
            shapes.append((len(bsccs), chain.num_states - sum(map(len, bsccs))))
        assert max(count for count, _ in shapes) >= 3
        assert sum(1 for _, transient in shapes if transient > 0) >= 20


def reference_rate_matrix(chain: CTMC) -> sparse.csr_matrix:
    """``R`` assembled from the transition triples, one Python list each."""
    rows, cols, data = [], [], []
    for source, rate, target in chain.transitions():
        rows.append(source)
        cols.append(target)
        data.append(rate)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(chain.num_states, chain.num_states)
    )


def reference_generator(chain: CTMC) -> sparse.csr_matrix:
    """``Q`` with its diagonal written one state at a time into a ``lil`` matrix."""
    generator = reference_rate_matrix(chain).tolil()
    exit_rates = np.asarray(generator.sum(axis=1)).flatten()
    for state in range(chain.num_states):
        generator[state, state] -= exit_rates[state]
    return generator.tocsr()


def reference_balance_system(chain: CTMC, states: list[int]) -> sparse.csc_matrix:
    """The sparse stationary solve's system, built per state through ``lil``."""
    index = {state: position for position, state in enumerate(states)}
    size = len(states)
    rows, cols, data = [], [], []
    exit_rates = np.zeros(size)
    for source, rate, target in chain.transitions():
        if source in index and target in index:
            rows.append(index[target])
            cols.append(index[source])
            data.append(rate)
            exit_rates[index[source]] += rate
    generator_t = sparse.csr_matrix((data, (rows, cols)), shape=(size, size)).tolil()
    for position in range(size):
        generator_t[position, position] -= exit_rates[position]
    generator_t = generator_t.tocsr()
    return sparse.vstack(
        [generator_t[:-1, :], sparse.csr_matrix(np.ones((1, size)))]
    ).tocsc()


def reference_gth(rates: np.ndarray) -> np.ndarray:
    """GTH elimination updating the whole leading block at every step."""
    size = rates.shape[0]
    matrix = rates.copy().astype(float)
    np.fill_diagonal(matrix, 0.0)
    for n in range(size - 1, 0, -1):
        total = matrix[n, :n].sum()
        matrix[:n, :n] += np.outer(matrix[:n, n], matrix[n, :n]) / total
        matrix[:n, n] /= total
    solution = np.zeros(size)
    solution[0] = 1.0
    for n in range(1, size):
        solution[n] = solution[:n] @ matrix[:n, n]
    return solution / solution.sum()


def reference_stationary(chain: CTMC, states: list[int]) -> np.ndarray:
    """Dense GTH on the sub-chain, assembled from the transition triples."""
    if len(states) == 1:
        return np.array([1.0])
    index = {state: position for position, state in enumerate(states)}
    rates = np.zeros((len(states), len(states)))
    for source, rate, target in chain.transitions():
        if source in index and target in index:
            rates[index[source], index[target]] += rate
    return reference_gth(rates)


def reference_transient(chain: CTMC, time: float, epsilon: float = 1e-12) -> np.ndarray:
    """Uniformisation stepping ``current @ P`` (a fresh transpose per step)."""
    distribution = np.array(chain.initial_distribution, dtype=float)
    rate = chain.uniformization_rate()
    identity = sparse.identity(chain.num_states, format="csr")
    probability_matrix = (identity + reference_generator(chain) / rate).tocsr()
    left, right, weights = poisson_window(rate * time, epsilon)
    result = np.zeros_like(distribution)
    current = distribution.copy()
    for step in range(right + 1):
        if step >= left:
            result += weights[step - left] * current
        if step < right:
            current = current @ probability_matrix
    return result / result.sum()


#: Shapes of the random irreducible chains the solvers are pinned on.
CHAIN_KINDS = ("sparse", "banded", "dense", "blocks", "ring")


def random_irreducible_chain(kind: str, seed: int) -> CTMC:
    """A seeded irreducible chain of the given sparsity shape.

    ``sparse`` is a shuffled Hamiltonian cycle plus a few chords; ``banded``
    a birth-death chain with extra edges inside a narrow band; ``dense``
    has most pairs connected; ``blocks`` joins dense blocks in a ring by
    one edge each and shuffles the numbering; ``ring`` is the cycle
    ``0 -> 1 -> ... -> 0`` alone, so every GTH pivot row and column holds
    a single nonzero.
    """
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 48))
    pairs: set[tuple[int, int]] = set()
    if kind == "sparse":
        cycle = rng.permutation(size).tolist()
        pairs.update(zip(cycle, cycle[1:] + cycle[:1]))
        for _ in range(size // 3):
            pairs.add(tuple(rng.integers(0, size, size=2).tolist()))
    elif kind == "banded":
        width = int(rng.integers(1, 4))
        for state in range(size - 1):
            pairs.update({(state, state + 1), (state + 1, state)})
        for source in range(size):
            for target in range(max(0, source - width), min(size, source + width + 1)):
                if rng.random() < 0.6:
                    pairs.add((source, target))
    elif kind == "dense":
        for source in range(size):
            for target in range(size):
                if rng.random() < 0.85 or target == (source + 1) % size:
                    pairs.add((source, target))
    elif kind == "blocks":
        relabel = rng.permutation(size).tolist()
        cuts = np.sort(rng.choice(np.arange(1, size), size=size // 6, replace=False))
        blocks = [block.tolist() for block in np.split(np.arange(size), cuts)]
        for block in blocks:
            for position, source in enumerate(block):
                pairs.add((source, block[(position + 1) % len(block)]))
                for target in block:
                    if rng.random() < 0.7:
                        pairs.add((source, target))
        for block, successor in zip(blocks, blocks[1:] + blocks[:1]):
            pairs.add((int(rng.choice(block)), int(rng.choice(successor))))
        pairs = {(relabel[source], relabel[target]) for source, target in pairs}
    else:
        pairs.update((state, (state + 1) % size) for state in range(size))
    pairs = {(source, target) for source, target in pairs if source != target}
    return CTMC(
        size,
        shuffled_transitions(rng, pairs),
        initial=int(rng.integers(0, size)),
        labels={0: frozenset({"down"})},
    )


def shuffled_transitions(rng, pairs: set[tuple[int, int]]) -> list[tuple[int, float, int]]:
    """The pairs in random order with rates spread over six decades, so
    that summing a state's exit rates in another order changes the bits."""
    pairs = sorted(pairs)
    rates = 10.0 ** rng.uniform(-4.0, 2.0, size=len(pairs))
    return [
        (pairs[index][0], float(rates[index]), pairs[index][1])
        for index in rng.permutation(len(pairs))
    ]


def assert_same_sparse(actual, expected):
    """Same format, shape, dtypes and bytes of the compressed arrays."""
    assert actual.format == expected.format
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestSolversAgainstOracles:
    """The fill-aware GTH, the hoisted-transpose uniformisation and the
    array-built generators are pinned byte for byte to the dense, per-step
    and ``lil`` constructions they replaced."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_stationary_matches_dense_gth(self, kind, seed):
        chain = random_irreducible_chain(kind, seed)
        states = list(range(chain.num_states))
        assert bottom_strongly_connected_components(chain) == [states]
        got = stationary_of_irreducible(chain, states)
        assert got.tobytes() == reference_stationary(chain, states).tobytes()

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_transient_matches_per_step_transpose(self, kind, seed):
        chain = random_irreducible_chain(kind, seed)
        time = float(np.random.default_rng(seed).uniform(1.0, 200.0)) / chain.uniformization_rate()
        got = transient_distribution(chain, time)
        assert got.tobytes() == reference_transient(chain, time).tobytes()

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("kind", CHAIN_KINDS)
    def test_generators_match_lil_construction(self, kind, seed):
        chain = random_irreducible_chain(kind, seed)
        assert_same_sparse(chain.rate_matrix(), reference_rate_matrix(chain))
        assert_same_sparse(chain.generator_matrix(), reference_generator(chain))
        states = list(range(chain.num_states))
        assert_same_sparse(
            _balance_system(chain, states)[0], reference_balance_system(chain, states)
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_generators_match_on_reducible_chains(self, seed):
        # Absorbing states have no diagonal entry; BSCCs are scattered subsets.
        chain = random_multi_bscc_chain(seed)
        assert_same_sparse(chain.generator_matrix(), reference_generator(chain))
        for states in bottom_strongly_connected_components(chain):
            assert_same_sparse(
                _balance_system(chain, states)[0], reference_balance_system(chain, states)
            )
            got = stationary_of_irreducible(chain, states)
            assert got.tobytes() == reference_stationary(chain, states).tobytes()

    def test_generator_of_chain_without_transitions(self):
        chain = CTMC(3, [])
        assert_same_sparse(chain.rate_matrix(), reference_rate_matrix(chain))
        assert_same_sparse(chain.generator_matrix(), reference_generator(chain))

    def test_sparse_path_system_matches_lil_construction(self):
        rng = np.random.default_rng(7)
        size = _GTH_LIMIT + 100
        cycle = rng.permutation(size).tolist()
        pairs = set(zip(cycle, cycle[1:] + cycle[:1]))
        pairs.update(
            (int(source), int(target))
            for source, target in rng.integers(0, size, size=(4 * size, 2))
            if source != target
        )
        chain = CTMC(size, shuffled_transitions(rng, pairs))
        states = list(range(size))
        assert_same_sparse(
            _balance_system(chain, states)[0], reference_balance_system(chain, states)
        )
        assert_same_sparse(chain.generator_matrix(), reference_generator(chain))

    @pytest.mark.slow
    def test_rcs_pump_chain(self, rcs_modular_evaluator):
        chain = rcs_modular_evaluator.evaluators["pumps"].ctmc
        assert chain.num_states == 1164
        (states,) = bottom_strongly_connected_components(chain)
        got = stationary_of_irreducible(chain, states)
        assert got.tobytes() == reference_stationary(chain, states).tobytes()
        assert_same_sparse(chain.generator_matrix(), reference_generator(chain))
        assert transient_distribution(chain, 500.0).tobytes() == (
            reference_transient(chain, 500.0).tobytes()
        )

    @pytest.mark.slow
    def test_absorbing_pump_chain_at_long_horizon(self, rcs_modular_evaluator):
        pumps = rcs_modular_evaluator.evaluators["pumps"].ctmc
        chain = make_absorbing(pumps, pumps.states_with_label("down"))
        time = 5000.0 / chain.uniformization_rate()
        assert transient_distribution(chain, time).tobytes() == (
            reference_transient(chain, time).tobytes()
        )

    def test_corpus_shapes(self):
        # The ring's rows hold one nonzero each; dense rows of eight or more
        # entries reach numpy's blocked pairwise summation.
        ring = reference_rate_matrix(random_irreducible_chain("ring", 3)).toarray()
        assert ((ring > 0).sum(axis=1) == 1).all()
        widest = max(
            np.diff(reference_rate_matrix(random_irreducible_chain("dense", seed)).indptr).max()
            for seed in range(40)
        )
        assert widest >= 16


class TestTransient:
    def test_two_state_closed_form(self):
        failure, repair = 0.2, 1.0
        chain = two_state_machine(failure, repair)
        total = failure + repair
        for t in (0.1, 1.0, 5.0):
            expected_down = failure / total * (1 - math.exp(-total * t))
            distribution = transient_distribution(chain, t)
            assert distribution[1] == pytest.approx(expected_down, rel=1e-7)

    def test_time_zero_returns_initial(self):
        chain = two_state_machine()
        assert transient_distribution(chain, 0.0)[0] == 1.0

    def test_point_availability(self):
        chain = two_state_machine(0.5, 0.0001)
        assert point_availability(chain, 100.0) < 0.01 + 0.05

    def test_negative_time_rejected(self):
        with pytest.raises(AnalysisError):
            transient_distribution(two_state_machine(), -1.0)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "measure", [transient_distribution, unreliability, point_availability]
    )
    def test_non_finite_time_rejected(self, measure, time):
        with pytest.raises(AnalysisError, match=f"got {time}"):
            measure(two_state_machine(), time)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -1e-12, 2.0, math.nan])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(AnalysisError, match="epsilon"):
            transient_distribution(two_state_machine(), 1.0, epsilon=epsilon)

    def test_interval_unavailability_closed_form(self):
        failure, repair, horizon = 0.2, 1.0, 5.0
        total = failure + repair
        expected = failure / total - failure * (1 - math.exp(-total * horizon)) / (
            total**2 * horizon
        )
        chain = two_state_machine(failure, repair)
        assert interval_unavailability(chain, horizon) == pytest.approx(expected, rel=1e-4)


class TestAbsorbing:
    def test_unreliability_of_single_component(self):
        chain = two_state_machine(0.1, 5.0)
        # With "down" made absorbing, unreliability is 1 - exp(-0.1 t).
        for t in (1.0, 10.0):
            assert unreliability(chain, t) == pytest.approx(1 - math.exp(-0.1 * t), rel=1e-7)
            assert reliability(chain, t) == pytest.approx(math.exp(-0.1 * t), rel=1e-7)

    def test_mttf_single_component(self):
        chain = two_state_machine(0.1, 5.0)
        assert mean_time_to_failure(chain) == pytest.approx(10.0, rel=1e-9)

    def test_mttf_infinite_when_unreachable(self):
        chain = CTMC(2, [(0, 1.0, 1), (1, 1.0, 0)], labels={})
        assert mean_time_to_failure(chain) == math.inf

    def test_make_absorbing_removes_exits(self):
        chain = two_state_machine()
        absorbing = make_absorbing(chain, [1])
        assert absorbing.exit_rate(1) == 0.0

    def test_two_component_series_mttf(self):
        # Two independent exponential failures in series: MTTF = 1/(l1+l2).
        chain = CTMC(
            2,
            [(0, 0.3, 1), (0, 0.2, 1)],
            labels={1: frozenset({"down"})},
        )
        assert mean_time_to_failure(chain) == pytest.approx(2.0, rel=1e-9)


class TestLumping:
    def test_symmetric_states_merge(self):
        # Two parallel identical components with dedicated repair: the states
        # "only A down" and "only B down" are lumpable.
        rate, repair = 0.1, 1.0
        transitions = [
            (0, rate, 1),
            (0, rate, 2),
            (1, repair, 0),
            (2, repair, 0),
            (1, rate, 3),
            (2, rate, 3),
            (3, repair, 1),
            (3, repair, 2),
        ]
        chain = CTMC(4, transitions, labels={3: frozenset({"down"})})
        result = lump(chain)
        assert result.quotient.num_states == 3
        assert steady_state_availability(result.quotient) == pytest.approx(
            steady_state_availability(chain), rel=1e-9
        )

    def test_labels_respected(self):
        chain = CTMC(
            2,
            [(0, 1.0, 1), (1, 1.0, 0)],
            labels={1: frozenset({"down"})},
        )
        result = lump(chain)
        assert result.quotient.num_states == 2


class TestCSL:
    def test_steady_state_operator(self):
        chain = two_state_machine(0.01, 1.0)
        checker = CSLChecker(chain)
        formula = SteadyState("<", 0.02, Atomic("down"))
        assert checker.holds_initially(formula)

    def test_bounded_eventually(self):
        chain = two_state_machine(0.1, 5.0)
        checker = CSLChecker(chain)
        probabilities = checker.until_probabilities(Not(Atomic("down")), Atomic("down"), 10.0)
        assert probabilities[0] == pytest.approx(1 - math.exp(-1.0), rel=1e-6)

    def test_probabilistic_until_satisfaction_set(self):
        chain = two_state_machine(0.1, 5.0)
        checker = CSLChecker(chain)
        formula = eventually(">=", 0.99, Atomic("down"), time=None)
        assert 0 in checker.satisfaction_set(formula)


@settings(max_examples=25, deadline=None)
@given(
    failure=st.floats(min_value=1e-4, max_value=2.0),
    repair=st.floats(min_value=0.1, max_value=10.0),
    t=st.floats(min_value=0.01, max_value=50.0),
)
def test_transient_matches_closed_form_property(failure, repair, t):
    """Uniformisation agrees with the closed-form 2-state solution everywhere."""
    chain = two_state_machine(failure, repair)
    total = failure + repair
    expected_down = failure / total * (1 - math.exp(-total * t))
    assert transient_distribution(chain, t)[1] == pytest.approx(expected_down, rel=1e-6, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.01, max_value=5.0),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_steady_state_is_probability_vector(data):
    """For any generated chain the long-run distribution is a valid distribution."""
    transitions = [(s, r, t) for s, r, t in data if s != t]
    chain = CTMC(6, transitions)
    distribution = steady_state_distribution(chain)
    assert abs(distribution.sum() - 1.0) < 1e-8
    assert (distribution >= -1e-12).all()


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.01, max_value=5.0),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=0,
        max_size=30,
    )
)
def test_from_arrays_matches_loop_constructor(data):
    """Both constructors store exactly what a dict accumulation would.

    Pairs interned in first-occurrence order, rates summed in edge order,
    self-loops dropped — pinned because extract_ctmc and lump build every
    chain through the array path.
    """
    loop_built = CTMC(6, list(data), labels={1: frozenset({"down"})})
    array_built = CTMC.from_arrays(
        6,
        np.array([s for s, _, _ in data], dtype=np.int64),
        np.array([r for _, r, _ in data], dtype=np.float64),
        np.array([t for _, _, t in data], dtype=np.int64),
        labels={1: frozenset({"down"})},
    )
    expected = pair_rates_reference(data)
    for chain in (loop_built, array_built):
        assert [(s, t, r) for s, r, t in chain.transitions()] == expected
        source, rate, target = chain.edge_arrays()
        assert (source.dtype, rate.dtype, target.dtype) == (np.int64, np.float64, np.int64)
        assert rate.tobytes() == np.array([r for _, _, r in expected], dtype=np.float64).tobytes()
    assert array_built.labels == loop_built.labels
    assert (array_built.initial_distribution == loop_built.initial_distribution).all()


def _build_with_rate(constructor, value):
    if constructor == "triples":
        return CTMC(2, [(0, 1.0, 1), (1, value, 0)])
    return CTMC.from_arrays(
        2, np.array([0, 1]), np.array([1.0, value]), np.array([1, 0])
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("constructor", ["triples", "arrays"])
def test_constructors_reject_non_finite_or_non_positive_rates(constructor, value):
    with pytest.raises(ModelError, match=f"finite and positive, got {value}$"):
        _build_with_rate(constructor, value)


# --------------------------------------------------------------------------- #
# final lumping and the absorbing solvers against their scalar oracles
# --------------------------------------------------------------------------- #
#: Rates whose ``%.9e`` quantisation flips under a relative nudge of 1e-10:
#: 1.00000000049 rounds to 1.000000000, its nudged copy to 1.000000001.
STRADDLING_RATES = [0.5, 1.0, 2.0, 1.00000000049, 3.0000000015]


@st.composite
def random_chains(draw, rates=st.sampled_from(STRADDLING_RATES), max_states=10):
    """Small chains with a few labels and a point or spread initial
    distribution.  By default the rates repeat and straddle the ``%.9e``
    boundary, so states lump; any rate strategy can be passed instead."""
    size = draw(st.integers(min_value=1, max_value=max_states))
    state = st.integers(min_value=0, max_value=size - 1)
    base = draw(st.lists(rates, min_size=1, max_size=3))
    edges = draw(
        st.lists(
            st.tuples(state, st.sampled_from(base), st.booleans(), state),
            min_size=size,
            max_size=4 * size,
        )
    )
    transitions = [
        (source, rate * (1 + 1e-10) if nudged else rate, target)
        for source, rate, nudged, target in edges
    ]
    labels = {
        s: frozenset({"down"}) for s in draw(st.sets(state, max_size=max(1, size // 3)))
    }
    spread = draw(
        st.none()
        | st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=size, max_size=size
        )
    )
    if spread is None:
        initial = draw(state)
    else:
        total = sum(spread)
        initial = [weight / total for weight in spread]
    names = [f"x{index}" for index in range(size)]
    return CTMC(size, transitions, initial, labels, names)


def assert_same_chain(actual: CTMC, expected: CTMC) -> None:
    assert actual.num_states == expected.num_states
    for column, reference in zip(actual.edge_arrays(), expected.edge_arrays()):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()
    assert actual.initial_distribution.tobytes() == expected.initial_distribution.tobytes()
    assert list(actual.labels.items()) == list(expected.labels.items())
    assert actual.state_names == expected.state_names


@settings(max_examples=300, deadline=None)
@given(chain=random_chains())
def test_lump_matches_round_based_dict_oracle(chain):
    result = lump(chain)
    expected = lump_reference(chain)
    assert result.block_of_state == expected.block_of_state
    assert_same_chain(result.quotient, expected.quotient)


#: Unrepeated rates of mixed magnitude, so that summation order shows.
SOLVER_RATES = st.floats(min_value=1e-3, max_value=10.0)


def solver_outcome(solve, *args):
    """The result's bytes, or the error it raised (singular systems)."""
    try:
        return np.asarray(solve(*args), dtype=np.float64).tobytes()
    except AnalysisError as error:
        return str(error)


# A transient state without exits makes both assemblies exactly singular.
@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
@settings(max_examples=150, deadline=None)
@given(chain=random_chains(rates=SOLVER_RATES))
def test_mttf_matches_per_edge_oracle_bytes(chain):
    assert solver_outcome(mean_time_to_failure, chain) == solver_outcome(
        mean_time_to_failure_reference, chain
    )


@settings(max_examples=150, deadline=None)
@given(chain=random_chains(rates=SOLVER_RATES))
def test_absorption_probabilities_match_per_edge_oracle_bytes(chain):
    # Absorbing down states leave more of the chain transient.
    for variant in (chain, make_absorbing(chain, chain.states_with_label("down"))):
        bsccs = bottom_strongly_connected_components(variant)
        assert solver_outcome(
            absorption_probabilities, variant, bsccs
        ) == solver_outcome(absorption_probabilities_reference, variant, bsccs)


def test_absorption_probabilities_reject_exitless_transient_states():
    # Declared transient, state 0 has no exit: it cannot reach the BSCC.
    chain = CTMC(3, [(1, 1.0, 2), (2, 1.0, 1)], initial=[0.5, 0.5, 0.0])
    bsccs = [[1, 2]]
    with pytest.raises(AnalysisError, match="no outgoing transition"):
        absorption_probabilities(chain, bsccs)


# --------------------------------------------------------------------------- #
# extraction's loud failures
# --------------------------------------------------------------------------- #
class TestExtractionFailures:
    def test_open_system_with_inputs_is_rejected(self):
        builder = IOIMCBuilder("open", Signature.create(inputs={"go"}))
        builder.state("s", initial=True)
        builder.interactive("s", "go", "t")
        builder.markovian("t", 1.0, "s")
        with pytest.raises(NondeterminismError, match=r"input actions \['go'\]"):
            extract_ctmc(builder.build())

    def test_vanishing_state_reaching_two_tangible_states_is_named(self):
        builder = IOIMCBuilder("choice", Signature.create(internals={"tau"}))
        builder.state("up", initial=True)
        builder.markovian("up", 1.0, "choose")
        builder.interactive("choose", "tau", "left")
        builder.interactive("choose", "tau", "right")
        builder.markovian("left", 1.0, "up")
        builder.markovian("right", 2.0, "up")
        with pytest.raises(
            NondeterminismError,
            match="vanishing state choose can reach 2 different tangible states",
        ):
            extract_ctmc(builder.build())

    def test_vanishing_state_on_a_tau_cycle_is_named(self):
        builder = IOIMCBuilder("divergent", Signature.create(internals={"tau"}))
        builder.state("up", initial=True)
        builder.markovian("up", 1.0, "spin")
        builder.interactive("spin", "tau", "spun")
        builder.interactive("spun", "tau", "spin")
        with pytest.raises(NondeterminismError, match="vanishing state spin reaches no"):
            extract_ctmc(builder.build())

    def test_confluent_vanishing_chain_resolves(self):
        builder = IOIMCBuilder("chain", Signature.create(internals={"tau"}))
        builder.state("up", initial=True)
        builder.markovian("up", 1.0, "via")
        builder.interactive("via", "tau", "down")
        builder.markovian("down", 2.0, "up")
        builder.label("down", "down")
        chain = extract_ctmc(builder.build())
        assert chain.state_names == ["up", "down"]
        assert list(chain.transitions()) == [(0, 1.0, 1), (1, 2.0, 0)]
