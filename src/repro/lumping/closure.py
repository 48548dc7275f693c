"""Rate-quantisation and quotient machinery shared by the abstracting
(weak and branching) bisimulation engines.

Both tau-abstracting minimisation passes of this package are built from the
same ingredients, so the engines differ only in *which* internal moves they
abstract from.  Both read the full tau closure as one CSR table,
:meth:`repro.ioimc.indexed.TransitionIndex.tau_closure_csr`, computed by
the batched frontier expansion the branching engine also runs over its inert
edges (:func:`repro.nputil.reachable_pairs`).  Shared here:

* :func:`markovian_profile_ids` — per-round grouping of stable states by
  their quantised cumulative-rate profiles.  A *profile* is the set of
  ``(landing block, quantised rate sum)`` pairs of one stable state, where
  the landing state of a Markovian edge is supplied by the caller: the weak
  engine redistributes a rate to the tau-sinks of its target
  (:mod:`repro.lumping.weak`), the branching engine attributes it to the
  direct target (:mod:`repro.lumping.branching`).  Rates are summed in
  transition order and quantised by the engine's shared
  :func:`repro.lumping.refinement.rate_profile_codes`, so every notion —
  strong, weak, branching and final CTMC lumping — groups rates
  identically;
* :func:`quotient_modulo_inert_tau` — the quotient construction both
  notions share: internal moves that stay inside an equivalence class are
  inert and dropped, the interactive moves of a class are the *union* of its
  members' non-inert moves, and the Markovian behaviour of a class is taken
  from its first stable member.  It runs on the CSR quotient core of
  :class:`repro.ioimc.IOIMC` that strong lumping uses too.
"""

from __future__ import annotations

import numpy as np

from ..ioimc import IOIMC
from ..nputil import gather_row_indices
from .refinement import group_states_by_code_sets, rate_profile_codes
from .strong import LumpingResult


def markovian_profile_ids(
    posts: np.ndarray,
    markovian_csr,
    landing_of_edge: np.ndarray,
    block: np.ndarray,
    num_blocks: int,
    num_states: int,
) -> tuple[np.ndarray, int]:
    """Group the stable states ``posts`` by their quantised rate profiles.

    ``landing_of_edge`` maps every edge of ``markovian_csr`` to the state
    whose current block receives the edge's rate.  Returns a dense
    ``profile_of_post`` array (``int64`` per state, meaningful at ``posts``)
    and the number of distinct profile groups; two posts share a profile id
    iff their ``{(block[landing], quantised cumulative rate)}`` sets are
    equal.  Profiles are grouped per call with the same ``np.unique``-based
    set grouping the refinement engine itself uses.
    """
    profile_of_post = np.zeros(num_states, dtype=np.int64)
    profile_groups = 1
    if len(posts):
        picked_rates = gather_row_indices(markovian_csr.indptr, posts)
        profile_sources, profile_codes = rate_profile_codes(
            markovian_csr.source[picked_rates],
            block[landing_of_edge[picked_rates]],
            markovian_csr.rate[picked_rates],
            num_blocks,
        )
        gids = group_states_by_code_sets(
            len(posts),
            np.searchsorted(posts, profile_sources),
            profile_codes,
            np.zeros(len(posts), dtype=np.int64),
        )
        profile_of_post[posts] = gids
        profile_groups = int(gids.max()) + 1 if len(gids) else 1
    return profile_of_post, profile_groups


def quotient_modulo_inert_tau(automaton: IOIMC, partition) -> LumpingResult:
    """Quotient for a tau-abstracting partition: union of non-inert moves,
    stable rates, restricted to the reachable classes.

    The interactive moves of a class are the union of its members' moves into
    *other* classes (plus non-internal self-class moves): under a weak or
    branching partition two members need not enable the same direct
    transitions — one may reach a class only through a tau-chain passing
    another member — so taking a single representative's outgoing transitions
    can disconnect weakly-reachable classes (that bug survived in the seed
    until the differential suite caught it).

    The Markovian behaviour, name and labels of a class are taken from its
    first *stable* member: all stable members of a class agree on their
    cumulative rates by construction of either partition, and unstable
    members cannot let time pass (maximal progress).

    Built on the CSR arrays by the quotient core strong lumping uses too
    (:meth:`repro.ioimc.IOIMC.relabel_states`), with the inert edges —
    internal moves whose endpoints share a class — masked out.  The result's
    ``block_of_state`` maps every state to its class in the restricted
    quotient, or to ``-1`` if its class is unreachable.
    """
    index = automaton.index()
    csr = index.interactive_csr
    block = np.asarray(partition.block_of, dtype=np.int64)
    inert = index.internal_flags[csr.action] & (block[csr.source] == block[csr.target])
    quotient = automaton._quotient(
        block, partition.num_blocks, ~inert, union_labels=False
    )
    restricted, new_of_old = quotient._restrict_to_reachable()
    return LumpingResult(restricted, tuple(new_of_old[block].tolist()))


__all__ = ["markovian_profile_ids", "quotient_modulo_inert_tau"]
