"""Property tests for the shared numpy helpers of :mod:`repro.nputil`.

``unique_sorted`` is pinned against ``np.unique`` (values and dtype),
``first_occurrence_renumber`` and ``label_codes`` against the dict-based
numbering of the oracle ``lumping_oracle.from_keys``, and both branches of
``dedupe_packed_triples`` against a Python ``sorted(set(...))``.  The last
test keeps every plain dedupe in the package on the sort-based kernel: from
numpy 2.3 on a bare ``np.unique`` (and ``np.union1d``, which calls it) takes
a much slower hash-table path.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lumping_oracle import from_keys

from repro.ioimc import IOIMC, Signature
from repro.lumping.partition import label_codes
from repro.nputil import dedupe_packed_triples, first_occurrence_renumber, unique_sorted

SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


# --------------------------------------------------------------------------- #
# unique_sorted
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.int64),
        np.array([], dtype=bool),
        np.array([7], dtype=np.int64),
        np.array([3, -1, 3, -128, 0, 127], dtype=np.int8),
        np.array([5, 5, 1, 2**31 - 1, -(2**31)], dtype=np.int32),
        np.array([2**62, -(2**62), 0, 2**62], dtype=np.int64),
        np.array([2**64 - 1, 0, 2**63, 0], dtype=np.uint64),
        np.array([200, 3, 3, 255], dtype=np.uint8),
        np.array([True, False, True, True]),
        np.array([True, True]),
        np.arange(-5, 20, dtype=np.int64),  # already sorted
        np.full(50, -3, dtype=np.int16),  # all equal
        np.array([[4, -2, 4], [9, -2, 0]], dtype=np.int64),  # 2-D: flattened
        np.int64(11),  # 0-d
    ],
    ids=lambda values: f"{values.dtype}{list(np.shape(values))}",
)
def test_unique_sorted_matches_np_unique(values):
    expected = np.unique(values)
    got = unique_sorted(values)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_unique_sorted_random_keys_and_input_untouched():
    rng = np.random.default_rng(20081)
    for size in (1, 2, 17, 1000):
        for high in (2, 50, 2**40):
            values = rng.integers(-high, high, size=size)
            before = values.copy()
            assert np.array_equal(unique_sorted(values), np.unique(values))
            assert np.array_equal(values, before)


# --------------------------------------------------------------------------- #
# first-occurrence numbering
# --------------------------------------------------------------------------- #
def test_first_occurrence_renumber_matches_partition_from_keys():
    rng = np.random.default_rng(7)
    for size in (1, 5, 300):
        for high in (1, 3, 40, 2**50):
            values = rng.integers(0, high, size=size)
            expected = from_keys(values.tolist()).block_of
            assert first_occurrence_renumber(values).tolist() == expected


def _labelled_automaton(labels, num_states):
    signature = Signature.create()
    return IOIMC(
        "labelled",
        signature,
        num_states,
        0,
        [[] for _ in range(num_states)],
        [[] for _ in range(num_states)],
        labels=labels,
    )


@pytest.mark.parametrize(
    "labels, num_states",
    [
        ({}, 4),
        ({2: {"down"}, 5: {"down"}, 1: {"red"}}, 7),
        ({0: {"down"}, 3: {"down", "red"}, 2: {"red", "down"}}, 5),
        ({0: {"a"}, 1: {"b"}, 2: {"a"}}, 3),  # no unlabelled state at all
        ({4: {"x"}}, 5),  # the unlabelled code occurs first
    ],
)
def test_label_codes_number_like_label_keys(labels, num_states):
    automaton = _labelled_automaton(labels, num_states)
    expected = from_keys([automaton.label_of(state) for state in automaton.states()]).block_of
    codes = label_codes(automaton)
    assert codes.dtype == np.int64
    assert first_occurrence_renumber(codes).tolist() == expected


# --------------------------------------------------------------------------- #
# dedupe_packed_triples
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "b_span, c_span, packed",
    [(7, 11, True), (5, 2**40, False)],
    ids=["packed", "lexsort-fallback"],
)
def test_dedupe_packed_triples_both_branches(b_span, c_span, packed):
    rng = np.random.default_rng(3)
    size = 400
    a = rng.integers(0, 2**30 if not packed else 9, size=size)
    b = rng.integers(0, b_span, size=size)
    c = rng.integers(0, min(c_span, 13) if packed else c_span, size=size)
    # Repeat a slice so duplicates are guaranteed on either branch.
    a, b, c = (np.concatenate([column, column[:100]]) for column in (a, b, c))
    max_ab = int((a * b_span + b).max()) + 1
    assert (c_span <= (2**62) // max_ab) is packed

    got = dedupe_packed_triples(a, b, c, b_span, c_span)
    expected = sorted(set(zip(a.tolist(), b.tolist(), c.tolist())))
    assert list(zip(*(column.tolist() for column in got))) == expected


def test_dedupe_packed_triples_empty():
    empty = np.empty(0, dtype=np.int64)
    got = dedupe_packed_triples(empty, empty, empty, 3, 4)
    assert all(len(column) == 0 for column in got)


# --------------------------------------------------------------------------- #
# guard: no plain dedupe off the kernel
# --------------------------------------------------------------------------- #
def _hash_path_calls(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            continue
        plain_unique = node.func.attr == "unique" and not any(
            keyword.arg and keyword.arg.startswith("return_")
            for keyword in node.keywords
        )
        if plain_unique or node.func.attr == "union1d":
            relative = path.relative_to(SOURCE_ROOT.parent)
            found.append(f"{relative}:{node.lineno}: np.{node.func.attr}")
    return found


def test_no_plain_np_unique_outside_the_kernel():
    modules = [
        path for path in sorted(SOURCE_ROOT.rglob("*.py")) if path.name != "nputil.py"
    ]
    assert len(modules) > 50
    offenders = [call for path in modules for call in _hash_path_calls(path)]
    assert not offenders, (
        "plain np.unique / np.union1d take numpy's hash path; use "
        "repro.nputil.unique_sorted instead:\n" + "\n".join(offenders)
    )
