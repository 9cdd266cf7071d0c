"""The shared drop-accounting invariant (repro.obs.invariants)."""

import pytest

from repro.obs.invariants import (
    DropBalance,
    assert_drop_balance,
    drop_balance,
    drop_balance_from_metrics,
)


def balanced(**overrides):
    values = dict(notified=0, queue_dropped=0, transport_dropped=0,
                  nack_dropped=0, sync_dropped=0, failover_dropped=0,
                  deduped=0, gave_up=0, leaked=0)
    values.update(overrides)
    return DropBalance(**values)


class TestDropBalance:
    def test_expected_signs(self):
        balance = balanced(queue_dropped=5, transport_dropped=3,
                           nack_dropped=1, sync_dropped=2,
                           failover_dropped=4, deduped=2, gave_up=1)
        assert balance.expected == 5 + 3 - 1 - 2 + 4 - 2 + 1
        assert balanced(notified=8, queue_dropped=8).holds

    def test_leak_violates_even_when_balanced(self):
        assert not balanced(leaked=1).holds

    def test_describe_is_the_canonical_message(self):
        balance = balanced(notified=2, queue_dropped=1)
        assert balance.describe() == (
            "drop accounting out of balance: notified=2 expected=1 "
            "(queue=1, transport=0, nack=0, sync=0, failover=0, "
            "deduped=0, gave_up=0)")

    def test_as_dict_round_trips_through_metrics(self):
        balance = balanced(notified=3, queue_dropped=2, gave_up=1)
        metrics = {
            "clients.drops_notified": 3, "cluster.queue_dropped": 2,
            "traffic.dropped_messages": 0, "traffic.nack_dropped": 0,
            "traffic.sync_dropped": 0, "engine.failover_dropped": 0,
            "engine.deduped": 0, "engine.gave_up": 1,
            "clients.pending_batches": 0,
        }
        assert drop_balance_from_metrics(metrics) == balance
        assert balance.as_dict()["holds"] == 1

    def test_from_metrics_names_what_is_missing(self):
        with pytest.raises(KeyError, match="clients.drops_notified"):
            drop_balance_from_metrics({})

    def test_table_mentions_status(self):
        assert "BALANCED" in balanced().table()
        assert "VIOLATED" in balanced(notified=1).table()


class _StubQueue:
    def __init__(self, dropped):
        self.dropped = dropped


class _StubShard:
    def __init__(self, dropped):
        self.queue = _StubQueue(dropped)


class _StubEndSystem:
    system_id = 0

    def __init__(self, notified, pending=0):
        self.drops_notified = notified
        self.pending_batch_ids = tuple(range(pending))
        self.pending_batches = pending


class _Stub:
    """Duck-typed trainer exposing just what drop_balance reads."""

    def __init__(self, notified=0, queue=0, transport=0, nack=0, sync=0,
                 failover=0, deduped=0, gave_up=0, pending=0, outstanding=None):
        self.transport = type("T", (), {})()
        self.transport.log = type("L", (), {
            "dropped_messages": transport, "nack_dropped": nack,
            "sync_dropped": sync})()
        self.engine = type("E", (), {})()
        self.engine.stats = type("S", (), {
            "failover_dropped": failover, "deduped": deduped,
            "gave_up": gave_up})()
        # The engine's ledger; by default it holds what the client stores.
        self.engine.outstanding = {
            (0, batch_id): "downlink"
            for batch_id in range(pending if outstanding is None else outstanding)}
        self.cluster = type("C", (), {})()
        self.cluster.shards = [_StubShard(queue)]
        self.end_systems = [_StubEndSystem(notified, pending)]


class TestLiveEvaluation:
    def test_balanced_trainer_passes(self):
        record = assert_drop_balance(_Stub(notified=2, queue=2))
        assert record.holds

    def test_imbalance_raises_with_canonical_message(self):
        with pytest.raises(AssertionError,
                           match="drop accounting out of balance"):
            assert_drop_balance(_Stub(notified=1))

    def test_leak_raises(self):
        with pytest.raises(AssertionError, match="3 pending activations leaked"):
            assert_drop_balance(_Stub(pending=3))

    def test_ledger_entry_without_a_stored_activation_is_a_leak(self):
        # client_blocks == 0: the client stores nothing, the ledger still knows.
        assert drop_balance(_Stub(outstanding=2)).leaked == 2
        with pytest.raises(AssertionError, match="2 pending activations leaked"):
            assert_drop_balance(_Stub(outstanding=2))

    def test_stored_activation_missing_from_the_ledger_raises(self):
        with pytest.raises(AssertionError, match=r"missing from the engine's "
                                                 r"ledger: \[\(0, 1\), \(0, 2\)\]"):
            assert_drop_balance(_Stub(pending=3, outstanding=1))

    def test_drop_balance_reads_all_terms(self):
        record = drop_balance(_Stub(notified=5, queue=1, transport=2, nack=1,
                                    sync=1, failover=3, deduped=1, gave_up=2))
        assert record.notified == 5
        assert record.expected == 1 + 2 - 1 - 1 + 3 - 1 + 2
        assert record.holds
