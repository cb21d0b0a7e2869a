"""Ordered broadcast tree (snooping address network)."""

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.interconnect.broadcast import BroadcastTreeNetwork
from repro.interconnect.message import Message


def make_net(num_nodes=4):
    sched = Scheduler()
    stats = StatsRegistry()
    net = BroadcastTreeNetwork("a", sched, stats, num_nodes, NetworkConfig())
    return sched, stats, net


class TestBroadcastDelivery:
    def test_each_request_is_one_delivery_of_the_senders_message(self):
        sched, _, net = make_net(4)
        got = []
        net.bus = got.append
        sent = Message(src=1, dst=-1, kind="req", addr=0x40)
        net.send(sent)
        sched.run()
        assert len(got) == 1 and got[0] is sent

    def test_bus_sees_requests_in_root_order(self):
        sched, _, net = make_net(4)
        got = []
        net.bus = lambda m: got.append((m.src, sched.now))
        # Two senders race; the root serialises them.
        net.send(Message(src=0, dst=-1, kind="req", addr=0x40))
        net.send(Message(src=3, dst=-1, kind="req", addr=0x80))
        sched.run()
        assert [src for src, _ in got] == [0, 3]
        assert got[0][1] < got[1][1]

    def test_root_serialisation_spaces_broadcasts(self):
        sched, _, net = make_net(2)
        arrivals = []
        net.bus = lambda m: arrivals.append(sched.now)
        for _ in range(3):
            net.send(Message(src=0, dst=-1, kind="req", size_bytes=8))
        sched.run()
        assert len(arrivals) == 3
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        ser = NetworkConfig().serialization_cycles(8)
        assert all(g >= ser for g in gaps)

    def test_bandwidth_counted_up_and_down(self):
        sched, stats, net = make_net(4)
        net.bus = lambda m: None
        net.send(Message(src=2, dst=-1, kind="req", size_bytes=8))
        sched.run()
        assert stats.counter("net.a.link.2-root") == 8
        for n in range(4):
            assert stats.counter(f"net.a.link.root-{n}") == 8

    def test_order_count_increments(self):
        sched, _, net = make_net(2)
        net.bus = lambda m: None
        assert net.order_count == 0
        net.send(Message(src=0, dst=-1, kind="req"))
        sched.run()
        assert net.order_count == 1

    def test_unlink_cuts_the_bus(self):
        _, _, net = make_net(2)
        net.bus = lambda m: None
        net.unlink()
        assert net.bus is None
