"""Property-based delivery guarantees for the torus."""

from hypothesis import given, settings, strategies as st

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork


@given(
    st.integers(min_value=2, max_value=12),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=143), st.integers(min_value=0, max_value=143)),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=60, deadline=None)
def test_every_message_delivered_exactly_once(num_nodes, raw_pairs):
    sched = Scheduler()
    net = TorusNetwork("p", sched, StatsRegistry(), num_nodes, NetworkConfig())
    received = []
    for n in range(num_nodes):
        net.register(n, lambda m, n=n: received.append((n, m.uid)))
    sent = []
    for raw_src, raw_dst in raw_pairs:
        msg = Message(
            src=raw_src % num_nodes,
            dst=raw_dst % num_nodes,
            kind="x",
            size_bytes=8,
        )
        sent.append(msg)
        net.send(msg)
    sched.run()
    assert sorted(uid for _, uid in received) == sorted(m.uid for m in sent)
    for msg in sent:
        deliveries = [n for n, uid in received if uid == msg.uid]
        assert deliveries == [msg.dst]


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=30, deadline=None)
def test_per_link_fifo(num_nodes):
    """Messages between the same pair arrive in send order."""
    sched = Scheduler()
    net = TorusNetwork("p", sched, StatsRegistry(), num_nodes, NetworkConfig())
    order = []
    for n in range(num_nodes):
        net.register(n, lambda m: order.append(m.addr))
    for i in range(6):
        net.send(Message(src=0, dst=num_nodes - 1, kind="x", addr=i))
    sched.run()
    assert order == sorted(order)
