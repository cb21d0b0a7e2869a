"""Batched delivery: same-(node, cycle) arrivals coalesce into one event."""

import pytest

from repro.common.errors import ConfigError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.interconnect.base import Network
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork


class _DirectNet(Network):
    """Minimal concrete Network: send = deliver next cycle."""

    def send(self, message):
        self.deliver_at(self.scheduler.now + 1, message)


def make_net():
    sched = Scheduler()
    stats = StatsRegistry()
    net = _DirectNet("n", sched, stats)
    return sched, stats, net


def msg(dst, addr=0):
    return Message(src=0, dst=dst, kind="x", addr=addr)


class TestDeliverAt:
    def test_same_node_same_cycle_coalesce(self):
        sched, stats, net = make_net()
        got = []
        net.register(1, got.append)
        a, b, c = msg(1, 0x10), msg(1, 0x20), msg(1, 0x30)
        net.deliver_at(5, a)
        net.deliver_at(5, b)
        net.deliver_at(5, c)
        sched.run()
        assert got == [a, b, c]  # arrival order preserved
        assert net.deliveries_coalesced == 2
        assert stats.counter("net.n.coalesced_deliveries") == 2

    def test_different_cycles_do_not_coalesce(self):
        sched, _, net = make_net()
        seen = []
        net.register(1, lambda m: seen.append(sched.now))
        net.deliver_at(5, msg(1))
        net.deliver_at(6, msg(1))
        sched.run()
        assert seen == [5, 6]
        assert net.deliveries_coalesced == 0

    def test_different_nodes_do_not_coalesce(self):
        sched, _, net = make_net()
        got = {1: [], 2: []}
        net.register(1, got[1].append)
        net.register(2, got[2].append)
        net.deliver_at(5, msg(1))
        net.deliver_at(5, msg(2))
        sched.run()
        assert len(got[1]) == 1 and len(got[2]) == 1
        assert net.deliveries_coalesced == 0

    def test_key_is_released_after_delivery(self):
        """A later send to the same (node, cycle-number) in a fresh
        cycle must not append to an already-delivered batch."""
        sched, _, net = make_net()
        seen = []
        net.register(1, lambda m: seen.append((sched.now, m.addr)))
        net.deliver_at(3, msg(1, 0xA))
        sched.run()
        net.deliver_at(7, msg(1, 0xB))
        sched.run()
        assert seen == [(3, 0xA), (7, 0xB)]


class TestBatchHandlers:
    def test_batch_handler_gets_multi_message_batches(self):
        sched, _, net = make_net()
        singles, batches = [], []
        net.register(1, singles.append)
        net.register_batch(1, lambda batch: batches.append(list(batch)))
        net.deliver_at(4, msg(1, 0x1))
        net.deliver_at(4, msg(1, 0x2))
        sched.run()
        assert singles == []
        assert len(batches) == 1 and [m.addr for m in batches[0]] == [1, 2]

    def test_lone_arrival_bypasses_batch_handler(self):
        sched, _, net = make_net()
        singles, batches = [], []
        net.register(1, singles.append)
        net.register_batch(1, batches.append)
        net.deliver_at(4, msg(1))
        sched.run()
        assert len(singles) == 1 and batches == []

    def test_batch_falls_back_to_plain_handler(self):
        sched, _, net = make_net()
        got = []
        net.register(1, got.append)
        net.deliver_at(4, msg(1, 0x1))
        net.deliver_at(4, msg(1, 0x2))
        sched.run()
        assert [m.addr for m in got] == [1, 2]

    def test_duplicate_batch_registration_rejected(self):
        _, _, net = make_net()
        net.register_batch(1, lambda batch: None)
        with pytest.raises(ConfigError):
            net.register_batch(1, lambda batch: None)


class TestTorusBatching:
    def test_final_hop_coalesces(self):
        sched = Scheduler()
        stats = StatsRegistry()
        net = TorusNetwork("t", sched, stats, 4, NetworkConfig())
        got = []
        net.register(3, got.append)
        # Two messages from different sources landing on node 3; if the
        # torus schedules them onto the same arrival cycle they must
        # still all arrive, in order, regardless of coalescing.
        for src in (0, 1, 2):
            net.send(Message(src=src, dst=3, kind="x", addr=src))
        sched.run()
        assert sorted(m.addr for m in got) == [0, 1, 2]
