"""Small shared numpy helpers for the CSR-based engines.

The vectorised refinement (:mod:`repro.lumping.refinement`) and the batched
product construction (:mod:`repro.ioimc.composition`) both operate on flat
CSR adjacency arrays (see :mod:`repro.ioimc.indexed`).  The helpers here are
the handful of index-arithmetic idioms they share.

Every plain dedupe in the library goes through :func:`unique_sorted`.  From
numpy 2.3 on, a bare ``np.unique(x)`` (no ``return_*`` flag) takes a
hash-table path that is several times slower than sorting on the ``int64``
key arrays these engines produce; the ``return_index``/``return_inverse``/
``return_counts`` variants are sort-based already and stay on ``np.unique``.
``tests/test_nputil.py`` pins the kernel against ``np.unique`` and fails on
any plain ``np.unique``/``np.union1d`` call elsewhere in the package.
"""

from __future__ import annotations

import numpy as np


def unique_sorted(values) -> np.ndarray:
    """The sorted distinct entries of ``values``, flattened.

    Same result as ``np.unique(values)`` for integer and bool input, dtype
    included, computed by one ``np.sort`` plus an adjacent-difference mask
    (numpy's hash path for the plain call is 4-25x slower on the key arrays
    of this pipeline).
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def gather_row_indices(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Edge indices of the CSR ``rows``, concatenated in row order.

    For ``rows = [r0, r1, ...]`` returns
    ``[indptr[r0] .. indptr[r0+1]-1, indptr[r1] .. indptr[r1+1]-1, ...]`` —
    the standard repeat/arange expansion, entirely vectorised.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)


def reachable_pairs(
    indptr: np.ndarray, target: np.ndarray, owners: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Sorted packed ``owner * num_nodes + member`` reachability codes.

    ``member`` is reachable from ``owner`` (one of the sorted, distinct
    ``owners``) in zero or more steps along the edges of the CSR graph
    ``(indptr, target)``, so every owner reaches itself.  Batched frontier
    expansion: each step expands the frontier of every owner at once and
    keeps only the pairs not seen before, so cycles converge.
    """
    owner = owners.astype(np.int64)
    member = owner
    seen = owner * num_nodes + member
    while len(member):
        picked = gather_row_indices(indptr, member)
        if not len(picked):
            break
        counts = indptr[member + 1] - indptr[member]
        codes = unique_sorted(np.repeat(owner, counts) * num_nodes + target[picked])
        # Both sides are sorted and distinct: assume_unique keeps isin off
        # its internal plain np.unique (numpy's hash path).
        fresh = codes[~np.isin(codes, seen, assume_unique=True)]
        if not len(fresh):
            break
        seen = unique_sorted(np.concatenate([seen, fresh]))
        owner, member = np.divmod(fresh, num_nodes)
    return seen


def first_occurrence_renumber(values: np.ndarray) -> np.ndarray:
    """Renumber integer ``values`` to 0..k-1 by order of first occurrence.

    The numbering ``dict.setdefault`` gives equal keys met in order: block
    ids of a partition are canonicalised this way.
    """
    _, first_index, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    return rank[inverse]


def csr_indptr(source: np.ndarray, num_rows: int) -> np.ndarray:
    """Row-offset array of a CSR table from its per-edge source column.

    ``source`` must already be grouped by row (ascending); the result has
    ``num_rows + 1`` ``int64`` entries with the usual
    ``indptr[r]:indptr[r+1]`` row spans.
    """
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=num_rows), out=indptr[1:])
    return indptr


def dedupe_packed_triples(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    b_span: int,
    c_span: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(a, b, c)`` int64 triples lexicographically and drop duplicates.

    ``b_span``/``c_span`` are exclusive upper bounds on ``b``/``c``.  Packs
    the triple into one ``int64`` key when the ranges allow it (a single
    :func:`unique_sorted` sort); falls back to ``np.lexsort`` when packing
    would overflow.
    """
    ab = a * b_span + b
    max_ab = int(ab.max()) + 1 if len(ab) else 1
    if c_span <= (2**62) // max_ab:
        packed = unique_sorted(ab * c_span + c)
        ab, c = np.divmod(packed, c_span)
    else:
        order = np.lexsort((c, ab))
        ab, c = ab[order], c[order]
        keep = np.empty(len(c), dtype=bool)
        keep[:1] = True
        np.logical_or(np.diff(ab) != 0, np.diff(c) != 0, out=keep[1:])
        ab, c = ab[keep], c[keep]
    a, b = np.divmod(ab, b_span)
    return a, b, c


def rows_from_edges(source: np.ndarray, first, second, num_rows: int) -> list[list]:
    """Split aligned edge columns into per-row lists of ``(first, second)``.

    ``source`` must be sorted ascending (edges grouped by row); ``first`` and
    ``second`` are Python lists aligned with it.  This is how the row views
    of an :class:`~repro.ioimc.IOIMC` are rebuilt from its CSR columns: one
    ``zip`` over the whole edge set, then one slice per row.
    """
    indptr = csr_indptr(source, num_rows)
    flat = list(zip(first, second))
    bounds = indptr.tolist()  # plain ints: list slicing is ~2x faster than int64
    return [flat[start:end] for start, end in zip(bounds, bounds[1:])]


def round_rates_to_ids(sums: np.ndarray) -> tuple[np.ndarray, int]:
    """Intern float rate sums to small ids after 10-significant-digit rounding.

    Applies exactly the ``float(f"{rate:.9e}")`` quantisation of the
    round-based reference refinements in the tests, formatting only the
    *unique* sums through Python.
    Returns ``(id_per_sum, number_of_distinct_ids)``.
    """
    unique_sums, inverse = np.unique(sums, return_inverse=True)
    rounded = np.array(
        [float(f"{value:.9e}") for value in unique_sums.tolist()], dtype=np.float64
    )
    _, rate_ids = np.unique(rounded, return_inverse=True)
    distinct = int(rate_ids.max()) + 1 if len(rate_ids) else 0
    return rate_ids[inverse], distinct


__all__ = [
    "csr_indptr",
    "dedupe_packed_triples",
    "first_occurrence_renumber",
    "gather_row_indices",
    "reachable_pairs",
    "round_rates_to_ids",
    "rows_from_edges",
    "unique_sorted",
]
