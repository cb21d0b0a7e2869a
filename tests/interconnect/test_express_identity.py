"""Express message plane vs a per-hop timetable reference.

The torus (``repro.interconnect.torus``) reserves a message's whole
link path at ``send()`` time and posts one final-delivery event.  It
must still deliver exactly what per-hop simulation would: every
message at the cycle and node a hop-by-hop timetable gives, the
messages of each (cycle, node) batch in send order, and the same
per-link byte counters.  :func:`reference` recomputes that timetable
in send order straight from grid coordinates:

* XY routing with the shortest wraparound (ties go forward);
* per hop ``start = max(free_at, t)``, ``free_at = start + ser`` and
  ``t' = start + ser + link_latency + switch_latency``;
* a self-send is delivered at ``now + switch_latency``;
* the fault hook is applied once, at send.

The timetable is checked on random traffic programs and on the data
network of whole-system protocol runs.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig, ProtocolKind, SystemConfig
from repro.interconnect.base import FaultAction
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork, grid_shape
from repro.system.builder import build_system
from repro.workloads import WORKLOAD_NAMES

CONFIG = NetworkConfig()


def fault_plan(i, dst, num_nodes):
    """Destinations the ``i``-th send actually goes to under the test
    hook: dropped, duplicated, misrouted to the next node, or kept."""
    if i % 7 == 3:
        return []
    if i % 7 == 5:
        return [dst, dst]
    if i % 11 == 10:
        return [(dst + 1) % num_nodes]
    return [dst]


def _hook(num_nodes):
    """The torus-side twin of :func:`fault_plan`."""
    counter = itertools.count()

    def hook(m):
        i = next(counter)
        dsts = fault_plan(i, m.dst, num_nodes)
        if not dsts:
            return (FaultAction.DROP, None)
        if len(dsts) == 2:
            return (FaultAction.DUPLICATE, None)
        if dsts[0] != m.dst:
            return (FaultAction.MISROUTE, dsts[0])
        return (FaultAction.DELIVER, None)

    return hook


def _xy_links(src, dst, rows, cols):
    """Directed links of the XY route: columns first, then rows, each
    the shorter way round the ring."""
    (r, c), (dr, dc) = divmod(src, cols), divmod(dst, cols)
    links = []
    for size, moving_col in ((cols, True), (rows, False)):
        cur, goal = (c, dc) if moving_col else (r, dr)
        step = 1 if (goal - cur) % size <= (cur - goal) % size else -1
        while cur != goal:
            nxt = (cur + step) % size
            a = r * cols + cur if moving_col else cur * cols + c
            b = r * cols + nxt if moving_col else nxt * cols + c
            links.append(f"{a}-{b}")
            cur = nxt
        if moving_col:
            c = dc
    return links


def reference(num_nodes, ops, with_hook=False):
    """Per-hop timetable of ``ops`` (see the module docstring).

    Returns the expected delivery (cycle, node, tag) triples in handler
    order, the per-link byte counters, and the number of (cycle, node)
    delivery batches.
    """
    rows, cols = grid_shape(num_nodes)
    free_at, link_bytes = {}, {}
    batches = {}  # (cycle, node) -> tags; insertion order = post order
    sends = sorted(enumerate(ops), key=lambda op: op[1][0])
    for i, (tag, (now, src, dst, size)) in enumerate(sends):
        for node in fault_plan(i, dst, num_nodes) if with_hook else [dst]:
            t = now
            if node == src:
                t += CONFIG.switch_latency
            ser = CONFIG.serialization_cycles(size)
            for link in _xy_links(src, node, rows, cols):
                start = max(free_at.get(link, 0), t)
                free_at[link] = start + ser
                t = start + ser + CONFIG.link_latency + CONFIG.switch_latency
                link_bytes[link] = link_bytes.get(link, 0) + size
            batches.setdefault((t, node), []).append(tag)
    # Deliveries run cycle by cycle; within a cycle, batches run in the
    # order their first message was sent (sorted() is stable).
    deliveries = [
        (cycle, node, tag)
        for (cycle, node), tags in sorted(batches.items(), key=lambda b: b[0][0])
        for tag in tags
    ]
    return deliveries, dict(sorted(link_bytes.items())), len(batches)


def run_traffic(num_nodes, ops, with_hook=False):
    """Drive one torus with a fixed traffic program; return observables.

    ``ops`` is a list of (time, src, dst, size) sends, injected from
    scheduled events so timing matches real controller usage.  Returns
    the delivery (cycle, node, tag) triples in handler order, the
    per-link byte counters, and the scheduler's event count.
    """
    sched = Scheduler()
    stats = StatsRegistry()
    net = TorusNetwork("t", sched, stats, num_nodes, CONFIG)
    deliveries = []
    for n in range(num_nodes):
        net.register(n, lambda m, n=n: deliveries.append((sched.now, n, m.addr)))
    if with_hook:
        net.set_fault_hook(_hook(num_nodes))

    def inject(tag, src, dst, size):
        net.send(Message(src=src, dst=dst, kind="x", addr=tag, size_bytes=size))

    for i, (t, src, dst, size) in enumerate(ops):
        sched.post_at(t, inject, (i, src, dst, size))
    sched.run()
    prefix = "net.t.link."
    links = {
        key[len(prefix) :]: value
        for key, value in sorted(stats.counters_with_prefix(prefix).items())
    }
    return deliveries, links, sched.events_processed


@st.composite
def traffic(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # bursty
                node,
                node,  # includes self-sends
                st.sampled_from([8, 16, 72]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return num_nodes, ops


class TestTorusExpressIdentity:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=traffic())
    def test_random_traffic_identical(self, case):
        num_nodes, ops = case
        deliveries, links, events = run_traffic(num_nodes, ops)
        expected, expected_links, batches = reference(num_nodes, ops)
        assert deliveries == expected
        assert links == expected_links
        # One event per send and one per delivery batch: no hop events.
        assert events == len(ops) + batches

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=traffic())
    def test_random_traffic_identical_with_armed_fault_hook(self, case):
        """Drop, duplicate and misroute act once, at send time."""
        num_nodes, ops = case
        deliveries, links, events = run_traffic(num_nodes, ops, with_hook=True)
        expected, expected_links, batches = reference(
            num_nodes, ops, with_hook=True
        )
        assert deliveries == expected
        assert links == expected_links
        assert events == len(ops) + batches

    def test_contended_link_reservation_order(self):
        """Three same-cycle senders share link 0-1: per-link FIFO
        follows global send order."""
        ops = [(5, 0, 1, 72), (5, 0, 1, 72), (5, 0, 1, 72)]
        deliveries, _, _ = run_traffic(4, ops)
        assert deliveries == reference(4, ops)[0]
        times = [t for t, _, _ in deliveries]
        tags = [tag for _, _, tag in deliveries]
        assert tags == [0, 1, 2]  # send order
        assert times[0] < times[1] < times[2]  # serialised, not parallel

    def test_self_send_bypasses_links(self):
        deliveries, links, _ = run_traffic(4, [(0, 2, 2, 72)])
        assert deliveries == [(CONFIG.switch_latency, 2, 0)]
        assert links == {}


class TestTorusSystemTimetable:
    """Whole-system traffic: the data network of a protocol run
    (requests, forwards, data responses, DVMC inform traffic) matches
    the per-hop timetable of the sends it saw, on the 2x2 and the
    paper's 2x4 torus."""

    @pytest.mark.parametrize("num_nodes", [4, 8])
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    @pytest.mark.parametrize("workload", sorted(WORKLOAD_NAMES))
    def test_system_traffic_matches_reference(
        self, workload, protocol, num_nodes, monkeypatch
    ):
        sends = []  # (time, src, dst, size) in send order
        deliveries = []  # (cycle, node, send index) in handler order
        in_flight = {}  # id(message) -> send index
        send = TorusNetwork.send
        deliver_batch = TorusNetwork._deliver_batch

        def recording_send(net, message):
            in_flight[id(message)] = len(sends)
            sends.append(
                (net.scheduler.now, message.src, message.dst, message.size_bytes)
            )
            send(net, message)

        def recording_deliver_batch(net, key, batch):
            for message in batch:
                deliveries.append(
                    (net.scheduler.now, message.dst, in_flight.pop(id(message)))
                )
            deliver_batch(net, key, batch)

        monkeypatch.setattr(TorusNetwork, "send", recording_send)
        monkeypatch.setattr(TorusNetwork, "_deliver_batch", recording_deliver_batch)
        config = SystemConfig.protected(
            protocol=protocol, num_nodes=num_nodes
        ).with_seed(13)
        system = build_system(config, workload=workload, ops=40)
        assert system.run().completed
        end = system.scheduler.now

        expected, expected_links, _ = reference(num_nodes, sends)
        assert deliveries == [d for d in expected if d[0] <= end]
        assert len(deliveries) > len(sends) // 2
        prefix = "net.data.link."
        links = {
            key[len(prefix) :]: value
            for key, value in sorted(
                system.stats.counters_with_prefix(prefix).items()
            )
        }
        assert links == expected_links
