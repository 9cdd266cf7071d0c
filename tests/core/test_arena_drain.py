"""Activation-arena staging and the zero-copy batched drain.

Covers the arena data structure itself (`repro.utils.arena`) and the
acceptance property of PR 3's tentpole: at float64, the arena + backend
drain path produces the same gradients, metrics and parameter updates as
the original concatenate path, to round-off.
"""

import numpy as np
import pytest

from repro.backend import BlockedBackend, use_backend
from repro.core.messages import ActivationMessage
from repro.core.models import tiny_cnn_architecture
from repro.core.scheduling import StalenessPriorityPolicy
from repro.core.server import CentralServer
from repro.core.split import SplitSpec
from repro.utils.arena import ActivationArena
from repro.utils.perf import counters


@pytest.fixture
def spec():
    architecture = tiny_cnn_architecture(image_size=8, num_blocks=2, base_filters=4,
                                         dense_units=16)
    return SplitSpec(architecture, client_blocks=1)


def make_messages(spec, count, batch_size=4, seed=0, image_size=8):
    shape = spec.architecture.block_output_shape(spec.client_blocks)
    rng = np.random.default_rng(seed)
    return [
        ActivationMessage(
            end_system_id=index,
            batch_id=index,
            activations=rng.standard_normal((batch_size, *shape)),
            labels=rng.integers(0, 10, batch_size),
            arrival_time=float(index),
        )
        for index in range(count)
    ]


class TestActivationArena:
    def test_stage_and_gather_zero_copy(self, spec):
        arena = ActivationArena()
        messages = make_messages(spec, 4)
        for message in messages:
            assert arena.stage(message)
        gathered = arena.gather(messages)
        assert gathered is not None
        total = sum(message.batch_size for message in messages)
        assert gathered.activations.shape[0] == total
        assert gathered.labels.shape[0] == total
        # Zero-copy: the view shares memory with an arena bucket, not
        # with any message payload.
        assert not gathered.activations.flags.owndata
        for message, (start, stop) in zip(messages, gathered.segments):
            np.testing.assert_array_equal(
                gathered.activations[start:stop], message.activations
            )
            np.testing.assert_array_equal(gathered.labels[start:stop], message.labels)

    def test_gather_handles_permuted_drain_order(self, spec):
        arena = ActivationArena()
        messages = make_messages(spec, 3)
        for message in messages:
            arena.stage(message)
        shuffled = [messages[2], messages[0], messages[1]]
        gathered = arena.gather(shuffled)
        assert gathered is not None
        for message, (start, stop) in zip(shuffled, gathered.segments):
            np.testing.assert_array_equal(
                gathered.activations[start:stop], message.activations
            )

    def test_unstaged_message_falls_back(self, spec):
        arena = ActivationArena()
        staged, unstaged = make_messages(spec, 2)
        arena.stage(staged)
        assert arena.gather([staged, unstaged]) is None

    def test_ragged_shapes_use_separate_buckets_and_fall_back(self, spec):
        arena = ActivationArena()
        small = make_messages(spec, 1, batch_size=2)[0]
        shape = spec.architecture.block_output_shape(spec.client_blocks)
        ragged = ActivationMessage(
            end_system_id=9, batch_id=9,
            activations=np.zeros((2, shape[0], shape[1] + 1, shape[2])),
            labels=np.zeros(2, dtype=np.int64),
        )
        assert arena.stage(small) and arena.stage(ragged)
        assert arena.gather([small, ragged]) is None
        # Same-bucket gathers still work.
        assert arena.gather([small]) is not None

    def test_discard_leaves_hole_then_recovers_when_idle(self, spec):
        arena = ActivationArena()
        first, middle, last = make_messages(spec, 3)
        for message in (first, middle, last):
            arena.stage(message)
        arena.discard(middle)
        # The remaining segments are no longer contiguous.
        assert arena.gather([first, last]) is None
        arena.release([first, last])
        # All live messages released -> the bucket rewinds and restages
        # from the start without growing.
        assert arena.staged_messages == 0
        again = make_messages(spec, 2, seed=3)
        for message in again:
            assert arena.stage(message)
        assert arena.gather(again) is not None

    def test_grow_preserves_staged_payloads(self, spec):
        arena = ActivationArena(initial_rows=4)
        messages = make_messages(spec, 6, batch_size=3)
        before = counters.get("arena_grows")
        for message in messages:
            assert arena.stage(message)
        assert counters.get("arena_grows") > before
        gathered = arena.gather(messages)
        assert gathered is not None
        for message, (start, stop) in zip(messages, gathered.segments):
            np.testing.assert_array_equal(
                gathered.activations[start:stop], message.activations
            )

    def test_per_message_churn_compacts_instead_of_growing(self, spec):
        """A standing backlog drained one message at a time must not grow
        the bucket unboundedly: holes are compacted on demand."""
        arena = ActivationArena(initial_rows=8)
        messages = make_messages(spec, 40, batch_size=4)  # 4 rows per message
        grows_before = counters.get("arena_grows")
        compactions_before = counters.get("arena_compactions")
        live = []
        for message in messages:
            assert arena.stage(message)
            live.append(message)
            if len(live) > 2:
                arena.discard(live.pop(0))  # FIFO per-message pop
        # One initial doubling (8 -> 16 rows) is expected; after that the
        # churn is absorbed by compaction, not growth.
        assert counters.get("arena_grows") - grows_before == 1
        assert counters.get("arena_compactions") > compactions_before
        # Compaction preserved the live payloads byte-for-byte.
        gathered = arena.gather(live)
        assert gathered is not None
        for message, (start, stop) in zip(live, gathered.segments):
            np.testing.assert_array_equal(
                gathered.activations[start:stop], message.activations
            )
            np.testing.assert_array_equal(gathered.labels[start:stop], message.labels)

    def test_compaction_with_staging_order_unlike_sequence_order(self, spec):
        """Compaction must move segments in row order, not sequence order.

        Staging order can differ from message-sequence order (network
        reordering); moving a lower-sequence-but-higher-row segment first
        would overwrite a not-yet-moved segment's rows.
        """
        arena = ActivationArena(initial_rows=12)  # 3 x 4-row messages
        second, first, third, fourth = make_messages(spec, 4, batch_size=4)
        # Stage in an order where row position and sequence disagree:
        # rows 0-4 hold the *higher*-sequence message.
        assert arena.stage(first)   # rows 0-4, higher sequence
        assert arena.stage(second)  # rows 4-8, lower sequence
        assert arena.stage(third)   # rows 8-12
        arena.discard(third)        # hole at the tail
        compactions = counters.get("arena_compactions")
        assert arena.stage(fourth)  # needs room -> compaction, not growth
        assert counters.get("arena_compactions") == compactions + 1
        gathered = arena.gather([first, second, fourth])
        assert gathered is not None
        for message, (start, stop) in zip([first, second, fourth], gathered.segments):
            np.testing.assert_array_equal(
                gathered.activations[start:stop], message.activations
            )
            np.testing.assert_array_equal(gathered.labels[start:stop], message.labels)

    def test_grow_counts_replaced_bucket_against_cap_only_once(self):
        """A growth that fits once the old bucket is freed must succeed."""
        def raw(batch_id):
            return ActivationMessage(
                end_system_id=0, batch_id=batch_id,
                activations=np.full((4, 100), float(batch_id)),
                labels=np.full(4, batch_id, dtype=np.int64),
            )
        # Bucket rows are 808 bytes; 8 initial rows = 6464 B, doubled =
        # 12928 B.  The cap admits the doubled bucket alone but not old
        # and new together.
        arena = ActivationArena(initial_rows=8, max_bytes=16000)
        first, second, third = raw(1), raw(2), raw(3)
        assert arena.stage(first) and arena.stage(second)  # bucket full
        grows = counters.get("arena_grows")
        assert arena.stage(third)
        assert counters.get("arena_grows") == grows + 1
        gathered = arena.gather([first, second, third])
        assert gathered is not None
        assert arena.allocated_bytes <= 16000

    def test_max_bytes_rejects_staging(self, spec):
        arena = ActivationArena(max_bytes=64)
        message = make_messages(spec, 1)[0]
        before = counters.get("arena_stage_rejected")
        assert not arena.stage(message)
        assert counters.get("arena_stage_rejected") == before + 1
        assert arena.gather([message]) is None

    def test_reset_clears_segments_keeps_buckets(self, spec):
        arena = ActivationArena()
        messages = make_messages(spec, 2)
        for message in messages:
            arena.stage(message)
        allocated = arena.allocated_bytes
        arena.reset()
        assert arena.staged_messages == 0
        assert arena.allocated_bytes == allocated
        assert arena.gather(messages) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivationArena(initial_rows=0)
        with pytest.raises(ValueError):
            ActivationArena(max_bytes=0)


class TestServerArenaIntegration:
    def test_receive_stages_and_drain_is_zero_copy(self, spec):
        server = CentralServer(spec, seed=0)
        before = counters.get("arena_gather_zero_copy")
        for message in make_messages(spec, 5):
            assert server.receive(message)
        assert server.arena.staged_messages == 5
        results = server.process_pending_batch(now=4.0)
        assert len(results) == 5
        assert counters.get("arena_gather_zero_copy") == before + 1
        # Rows are recycled after the drain.
        assert server.arena.staged_messages == 0

    def test_use_arena_false_disables_staging(self, spec):
        server = CentralServer(spec, use_arena=False, seed=0)
        assert server.arena is None
        for message in make_messages(spec, 3):
            server.receive(message)
        assert len(server.process_pending_batch(now=2.0)) == 3

    def test_process_next_discards_staged_row(self, spec):
        server = CentralServer(spec, seed=0)
        for message in make_messages(spec, 2):
            server.receive(message)
        server.process_next(now=1.0)
        assert server.arena.staged_messages == 1
        server.process_next(now=1.0)
        assert server.arena.staged_messages == 0

    def test_flush_queue_releases_arena(self, spec):
        server = CentralServer(spec, seed=0)
        messages = make_messages(spec, 4)
        for message in messages:
            server.receive(message)
        flushed = server.flush_queue()
        assert [message.batch_id for message in flushed] == [m.batch_id for m in messages]
        assert server.arena.staged_messages == 0
        assert not server.has_pending()

    def test_queue_drop_does_not_stage(self, spec):
        server = CentralServer(spec, max_queue_size=1, seed=0)
        first, second = make_messages(spec, 2)
        assert server.receive(first)
        assert not server.receive(second)
        assert server.arena.staged_messages == 1


class TestArenaBackendEquivalence:
    """Acceptance: arena + blocked-backend drains == concatenate path at float64."""

    @pytest.mark.parametrize("count", [6, 500])
    def test_drain_matches_concatenate_path_to_round_off(self, spec, count):
        messages = make_messages(spec, count, batch_size=3, seed=42)

        def clone(msgs):
            return [
                ActivationMessage(
                    end_system_id=m.end_system_id,
                    batch_id=m.batch_id,
                    activations=m.activations.copy(),
                    labels=m.labels.copy(),
                    arrival_time=m.arrival_time,
                    # Descending creation times: the staleness policy
                    # drains in *reverse* staging order, so the arena
                    # batch (storage order) is a permutation of the
                    # concatenate batch (drain order).
                    created_at=float(len(msgs) - index),
                )
                for index, m in enumerate(msgs)
            ]

        # Path A: staged arrivals drained through the arena view with the
        # tiled backend (tiny block_rows so tiling actually engages).
        with use_backend(BlockedBackend(block_rows=2)):
            arena_server = CentralServer(spec, queue_policy=StalenessPriorityPolicy(),
                                         seed=123)
            for message in clone(messages):
                arena_server.receive(message)
            arena_results = arena_server.process_pending_batch(now=float(count))
        assert counters.get("arena_gather_zero_copy") > 0

        # Path B: the original concatenate path on the reference backend.
        with use_backend("numpy"):
            plain_server = CentralServer(spec, queue_policy=StalenessPriorityPolicy(),
                                         use_arena=False, seed=123)
            for message in clone(messages):
                plain_server.receive(message)
            plain_results = plain_server.process_pending_batch(now=float(count))

        assert len(arena_results) == len(plain_results) == count
        assert arena_server.samples_processed == plain_server.samples_processed == 3 * count
        for (msg_a, reply_a), (msg_b, reply_b) in zip(arena_results, plain_results):
            assert msg_a.batch_id == msg_b.batch_id
            assert reply_a.end_system_id == reply_b.end_system_id
            np.testing.assert_allclose(reply_a.gradient, reply_b.gradient,
                                       rtol=1e-12, atol=1e-12)
            assert reply_a.loss == pytest.approx(reply_b.loss, rel=1e-12)
            assert reply_a.accuracy == pytest.approx(reply_b.accuracy)
        for key, value in arena_server.state_dict().items():
            np.testing.assert_allclose(value, plain_server.state_dict()[key],
                                       rtol=1e-12, atol=1e-12)
