"""Leaf fingerprints and renaming witnesses of the quotient cache.

:func:`repro.composer.cache.positional_form` gives every leaf block a
name-free digest and its visible actions in slot order.  Hand-built
relabelled replicas must land on the same digest, and pairing their slots
must be a witness that genuinely maps one onto the other; anything that
changes structure, kinds, rates or labels must change the digest.  The
verification guard of :meth:`~repro.composer.cache.QuotientCache.leaf_fingerprint`
is covered alongside.
"""

import pytest

from repro.composer.cache import QuotientCache, positional_form, rebase_actions
from repro.ioimc import IOIMC, IOIMCBuilder, Signature, TAU


def _pump(fail: str, repair: str, rate: float = 0.25, *, name: str = "pump") -> IOIMC:
    """A tiny repairable component: up --rate--> down --fail!--> wait --repair?--> up."""
    builder = IOIMCBuilder(
        name,
        Signature.create(inputs={repair}, outputs={fail}),
    )
    builder.state("up", initial=True)
    builder.markovian("up", rate, "down")
    builder.interactive("down", fail, "wait")
    builder.interactive("wait", repair, "up")
    return builder.build()


def _witness(source: IOIMC, target: IOIMC) -> dict[str, str]:
    """The slot pairing of two leaves with equal positional digests."""
    source_digest, source_slots = positional_form(source)
    target_digest, target_slots = positional_form(target)
    assert source_digest == target_digest
    return dict(zip(source_slots, target_slots))


class TestCanonicalForm:
    """The positional form: the cache's one canonical (slot) coordinate
    system for leaf blocks."""

    def test_relabelled_automata_share_a_digest(self):
        a = _pump("p1.failed", "p1.repaired", name="p1")
        b = _pump("p2.failed", "p2.repaired", name="p2")
        assert positional_form(a)[0] == positional_form(b)[0]

    def test_witness_maps_slot_for_slot(self):
        a = _pump("p1.failed", "p1.repaired")
        b = _pump("p2.failed", "p2.repaired")
        assert _witness(a, b) == {"p1.failed": "p2.failed", "p1.repaired": "p2.repaired"}

    def test_rebase_through_witness_reproduces_the_target(self):
        a = _pump("p1.failed", "p1.repaired")
        b = _pump("p2.failed", "p2.repaired")
        rebased = rebase_actions(a, _witness(a, b))
        assert rebased.signature == b.signature
        assert [sorted(row) for row in rebased.interactive] == [
            sorted(row) for row in b.interactive
        ]
        assert rebased.markovian == b.markovian
        assert positional_form(rebased) == positional_form(b)

    def test_rate_change_changes_the_digest(self):
        assert (
            positional_form(_pump("f", "r", 0.25))[0]
            != positional_form(_pump("f", "r", 0.3))[0]
        )

    def test_kind_swap_changes_the_digest(self):
        a = _pump("f", "r")
        swapped = IOIMCBuilder(
            "swapped", Signature.create(inputs={"f"}, outputs={"r"})
        )
        swapped.state("up", initial=True)
        swapped.markovian("up", 0.25, "down")
        swapped.interactive("down", "f", "wait")
        swapped.interactive("wait", "r", "up")
        assert positional_form(a)[0] != positional_form(swapped.build())[0]

    def test_labels_are_part_of_the_digest(self):
        plain = _pump("f", "r")
        builder = IOIMCBuilder("labelled", Signature.create(inputs={"r"}, outputs={"f"}))
        builder.state("up", initial=True)
        builder.markovian("up", 0.25, "down")
        builder.state("down", labels={"down"})
        builder.interactive("down", "f", "wait")
        builder.interactive("wait", "r", "up")
        assert positional_form(plain)[0] != positional_form(builder.build())[0]

    def test_structure_change_changes_the_digest(self):
        builder = IOIMCBuilder("extra", Signature.create(inputs={"r"}, outputs={"f"}))
        builder.state("up", initial=True)
        builder.markovian("up", 0.25, "down")
        builder.interactive("down", "f", "wait")
        builder.interactive("wait", "r", "up")
        builder.interactive("down", "f", "up")  # an extra edge
        assert positional_form(_pump("f", "r"))[0] != positional_form(builder.build())[0]

    def test_tau_is_pinned_and_never_in_the_witness(self):
        def with_tau(fail: str) -> IOIMC:
            builder = IOIMCBuilder(
                "t", Signature.create(outputs={fail}, internals={TAU})
            )
            builder.state("a", initial=True)
            builder.interactive("a", TAU, "b")
            builder.interactive("b", fail, "a")
            return builder.build()

        a, b = with_tau("x.f"), with_tau("y.f")
        assert positional_form(a)[0] == positional_form(b)[0]
        assert positional_form(a)[1] == ("x.f",)  # tau holds no slot
        assert _witness(a, b) == {"x.f": "y.f"}  # tau maps implicitly to itself
        fingerprint = QuotientCache().leaf_fingerprint(a)
        assert fingerprint is not None and TAU not in fingerprint.slots

    def test_no_witness_across_different_digests(self):
        cache = QuotientCache()
        slow = cache.leaf_fingerprint(_pump("f", "r", 0.25))
        fast = cache.leaf_fingerprint(_pump("g", "s", 0.5))
        # Different keys: no step of one is ever served to the other.
        assert slow.key != fast.key

    def test_rebase_rejects_non_injective_renames(self):
        a = _pump("f", "r")
        with pytest.raises(ValueError):
            rebase_actions(a, {"f": "r"})


class TestPositionalLeafForm:
    def test_replicas_share_digest_and_aligned_slots(self):
        a = _pump("p1.failed", "p1.repaired")
        b = _pump("p2.failed", "p2.repaired")
        digest_a, slots_a = positional_form(a)
        digest_b, slots_b = positional_form(b)
        assert digest_a == digest_b
        assert dict(zip(slots_a, slots_b)) == {
            "p1.failed": "p2.failed",
            "p1.repaired": "p2.repaired",
        }

    def test_natural_name_alignment(self):
        # Lexicographically "x10" < "x9", but the replicas must still pair
        # index for index.
        a = _pump("x9.f", "x9.r")
        b = _pump("x10.f", "x10.r")
        digest_a, slots_a = positional_form(a)
        digest_b, slots_b = positional_form(b)
        assert digest_a == digest_b
        assert dict(zip(slots_a, slots_b)) == {"x9.f": "x10.f", "x9.r": "x10.r"}

    def test_leaf_fingerprint_verifies_against_the_representative(self):
        cache = QuotientCache()
        fp_a = cache.leaf_fingerprint(_pump("p1.failed", "p1.repaired"))
        fp_b = cache.leaf_fingerprint(_pump("p2.failed", "p2.repaired"))
        assert fp_a is not None and fp_b is not None
        assert fp_a.key == fp_b.key
        assert fp_a.slots != fp_b.slots

    def test_leaf_fingerprint_rejects_foreign_internals(self):
        builder = IOIMCBuilder(
            "internal", Signature.create(outputs={"f"}, internals={"step"})
        )
        builder.state("a", initial=True)
        builder.interactive("a", "step", "b")
        builder.interactive("b", "f", "a")
        assert QuotientCache().leaf_fingerprint(builder.build()) is None
