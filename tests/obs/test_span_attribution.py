"""Trace ids reach the spans they name.

A trace id travels as an argument: the core passes its op's id with
each cache request, and a miss hands it to the transaction it starts.
An ownership change that a transaction completes therefore names that
transaction's op, and each miss opens one MSHR span, which closes when
its transaction ends.
"""

from dataclasses import replace

import pytest

from repro.common.types import block_of
from repro.config import CacheConfig, ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.obs.spans import K_MSHR, K_OWNER
from repro.system.builder import build_system

NODES = 4


def recorded_run(config, ops=150):
    system = build_system(config, workload="oltp", ops=ops, spans=True)
    system.run()
    return system


@pytest.mark.parametrize("model", list(ConsistencyModel), ids=lambda m: m.name)
@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
def test_cache_ownership_instants_name_an_op_on_their_block(protocol, model):
    named = 0
    for seed in (1, 2, 3):
        config = SystemConfig.protected(
            model=model, protocol=protocol, num_nodes=NODES
        ).with_seed(seed)
        spans = recorded_run(config).spans
        names = spans.track_names()
        ops = spans.op_spans()
        for tid, track, kind, t0, _t1, block, _b, _c in spans.events():
            if kind == K_OWNER and tid and names[track].startswith("cache."):
                named += 1
                op_addr = ops[tid][4]
                assert block_of(op_addr) == block, (seed, tid, t0, hex(block))
    assert named


@pytest.mark.parametrize("protocol", list(ProtocolKind), ids=lambda p: p.name)
def test_each_miss_counts_once_and_closes_its_mshr_span(protocol):
    """A 1 KB L1 makes many misses wait for a dirty victim's writeback
    before their transaction starts; such a miss is still one miss,
    one transaction and one MSHR span, and every span closes when its
    transaction completes, before the run ends."""
    config = replace(
        SystemConfig.protected(protocol=protocol, num_nodes=NODES).with_seed(5),
        l1=CacheConfig(size_bytes=1024, associativity=2),
    )
    system = recorded_run(config)
    stats = system.stats
    home = "dir" if protocol is ProtocolKind.DIRECTORY else "snoopmem"
    misses = sum(
        stats.counter(f"l1.{n}.misses") + stats.counter(f"l1.{n}.replay_misses")
        for n in range(NODES)
    )
    transactions = sum(
        stats.counter(f"{home}.{n}.gets") + stats.counter(f"{home}.{n}.getm")
        for n in range(NODES)
    )
    spans = system.spans
    mshr = [span for span in spans.events() if span[2] == K_MSHR]
    assert misses == transactions == len(mshr)
    assert sum(stats.counter(f"l1.{n}.writebacks") for n in range(NODES))
    assert all(t1 < spans.end_time for _tid, _tr, _k, _t0, t1, *_ in mshr)
    assert not any(ctrl._mshr_tokens for ctrl in system.cache_controllers)
