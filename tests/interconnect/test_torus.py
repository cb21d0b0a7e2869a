"""2D torus: topology, routing, bandwidth accounting, fault hooks."""

from hypothesis import given, settings, strategies as st

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.interconnect.base import FaultAction
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork, grid_shape


def make_torus(num_nodes=8, **net_kwargs):
    sched = Scheduler()
    stats = StatsRegistry()
    net = TorusNetwork("t", sched, stats, num_nodes, NetworkConfig(**net_kwargs))
    return sched, stats, net


class TestGridShape:
    def test_eight_nodes_is_2x4(self):
        assert grid_shape(8) == (2, 4)

    def test_square_counts(self):
        assert grid_shape(4) == (2, 2)
        assert grid_shape(16) == (4, 4)

    def test_primes_degenerate_to_ring(self):
        assert grid_shape(7) == (1, 7)

    def test_single_node(self):
        assert grid_shape(1) == (1, 1)


class TestRouting:
    @given(
        st.integers(min_value=2, max_value=16),
        st.data(),
    )
    @settings(max_examples=60)
    def test_route_reaches_destination(self, num_nodes, data):
        _, _, net = make_torus(num_nodes)
        src = data.draw(st.integers(min_value=0, max_value=num_nodes - 1))
        dst = data.draw(st.integers(min_value=0, max_value=num_nodes - 1))
        path = net.route(src, dst)
        assert path[0] == src
        assert path[-1] == dst
        # Dimension-order bound: at most half of each dimension.
        assert len(path) - 1 <= net.cols // 2 + net.rows // 2 + 2

    def test_route_to_self_is_trivial(self):
        _, _, net = make_torus(8)
        assert net.route(3, 3) == [3]

    def test_wraparound_is_shorter(self):
        _, _, net = make_torus(8)  # 2x4: nodes 0..3 top row
        # 0 -> 3 should wrap (1 hop) rather than go 0-1-2-3.
        assert len(net.route(0, 3)) == 2

    def test_prime_node_count_degenerates_to_ring(self):
        _, _, net = make_torus(7)  # grid_shape(7) == (1, 7)
        assert (net.rows, net.cols) == (1, 7)
        # 0 -> 5: wrapping backwards (2 hops) beats 5 forward hops.
        assert net.route(0, 5) == [0, 6, 5]
        # 0 -> 3: forward is shortest.
        assert net.route(0, 3) == [0, 1, 2, 3]

    def test_route_serves_fresh_copies_from_one_memo(self):
        sched, _, net = make_torus(8)
        first = net.route(0, 5)
        second = net.route(0, 5)
        assert first == second
        assert first is not second  # caller-safe copy, shared memo
        for n in range(8):
            net.register(n, lambda m: None)
        net.send(Message(src=0, dst=5, kind="x"))
        sched.run()
        # send() walked the same memoised path route() built.
        assert net.obs_snapshot()["path_memo_entries"] == 1


class TestDelivery:
    def test_message_arrives_once(self):
        sched, _, net = make_torus(8)
        got = []
        for n in range(8):
            net.register(n, lambda m, n=n: got.append((n, m.uid)))
        msg = Message(src=0, dst=5, kind="x", addr=0, size_bytes=8)
        net.send(msg)
        sched.run()
        assert got == [(5, msg.uid)]

    def test_local_delivery(self):
        sched, _, net = make_torus(8)
        got = []
        for n in range(8):
            net.register(n, lambda m, n=n: got.append(n))
        net.send(Message(src=2, dst=2, kind="x"))
        sched.run()
        assert got == [2]

    def test_latency_scales_with_hops(self):
        sched, _, net = make_torus(8)
        times = {}
        for n in range(8):
            net.register(n, lambda m, n=n: times.setdefault(n, sched.now))
        net.send(Message(src=0, dst=1, kind="a", size_bytes=8))
        net.send(Message(src=0, dst=2, kind="b", size_bytes=8))
        sched.run()
        assert times[2] > times[1]

    def test_serialization_delays_back_to_back(self):
        sched, _, net = make_torus(8, link_bandwidth_gbps=1.0, cpu_freq_ghz=2.0)
        arrivals = []
        for n in range(8):
            net.register(n, lambda m: arrivals.append(sched.now))
        for _ in range(3):
            net.send(Message(src=0, dst=1, kind="x", size_bytes=72))
        sched.run()
        # 72B at 0.5 B/cycle = 144 cycles serialisation per message.
        assert arrivals[1] - arrivals[0] >= 144
        assert arrivals[2] - arrivals[1] >= 144


class TestBandwidthAccounting:
    def test_bytes_counted_per_link(self):
        sched, stats, net = make_torus(8)
        for n in range(8):
            net.register(n, lambda m: None)
        net.send(Message(src=0, dst=1, kind="x", size_bytes=72))
        sched.run()
        assert stats.counter("net.t.link.0-1") == 72
        assert net.total_bytes() == 72
        assert net.max_link_bytes() == 72

    def test_multihop_counts_every_link(self):
        sched, stats, net = make_torus(8)
        for n in range(8):
            net.register(n, lambda m: None)
        net.send(Message(src=0, dst=2, kind="x", size_bytes=10))
        sched.run()
        assert net.total_bytes() == 20  # two hops


class TestFaultHooks:
    def _wired(self):
        sched, stats, net = make_torus(4)
        got = []
        for n in range(4):
            net.register(n, lambda m, n=n: got.append((n, m)))
        return sched, stats, net, got

    def test_drop(self):
        sched, stats, net, got = self._wired()
        net.set_fault_hook(lambda m: (FaultAction.DROP, None))
        net.send(Message(src=0, dst=1, kind="x"))
        sched.run()
        assert got == []
        assert stats.counter("net.t.faults.dropped") == 1

    def test_duplicate(self):
        sched, _, net, got = self._wired()
        net.set_fault_hook(lambda m: (FaultAction.DUPLICATE, None))
        net.send(Message(src=0, dst=1, kind="x"))
        net.set_fault_hook(None)
        sched.run()
        assert [n for n, _ in got] == [1, 1]
        assert got[0][1].uid != got[1][1].uid

    def test_misroute(self):
        sched, _, net, got = self._wired()
        net.set_fault_hook(lambda m: (FaultAction.MISROUTE, 3))
        net.send(Message(src=0, dst=1, kind="x"))
        sched.run()
        assert [n for n, _ in got] == [3]

    def test_hook_can_mutate_payload(self):
        sched, _, net, got = self._wired()

        def corrupt(m):
            m.data[0] ^= 0xFF
            return (FaultAction.DELIVER, None)

        net.set_fault_hook(corrupt)
        net.send(Message(src=0, dst=1, kind="x", data=[1, 2, 3]))
        sched.run()
        assert got[0][1].data[0] == 1 ^ 0xFF
