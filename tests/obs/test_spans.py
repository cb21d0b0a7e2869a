"""Flight-recorder well-formedness: spans close, nest, and export.

Two layers of properties:

* **Mechanics** (hypothesis-driven): random open/close/instant/span
  scripts against a bare :class:`SpanRecorder` — every opened span is
  closed or force-closed, ring accounting balances, sampling admits
  exactly every Nth op, and the Chrome export round-trips through
  ``json``.
* **Whole-system** (parametrized over protocol x model):
  a recorded run leaves no dangling spans, every child span nests
  inside its transaction's root interval, trace ids are unique, and
  the exported trace is valid Chrome ``trace_event`` JSON.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.spans import K_MSHR, K_WB, SpanRecorder
from repro.system.builder import build_system


# ---------------------------------------------------------------------------
# Mechanics (hypothesis)
# ---------------------------------------------------------------------------

#: One recorder action: (op_code, small_int payload).  Codes: 0 = new_op,
#: 1 = open, 2 = close oldest open, 3 = instant, 4 = span, 5 = clock skip.
_ACTIONS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=120
)


@given(
    actions=_ACTIONS,
    capacity=st.integers(16, 48),
    sample=st.integers(1, 4),
)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_recorder_script_invariants(actions, capacity, sample):
    rec = SpanRecorder(capacity=capacity, sample=sample)
    now = 0
    horizon = 0
    open_tokens = []
    emitted = 0
    sampled_tids = []
    for code, arg in actions:
        if code == 0:
            tid = rec.new_op(0, arg % 4, 0, 0x100 + arg, len(sampled_tids), now)
            if tid:
                sampled_tids.append(tid)
        elif code == 1:
            open_tokens.append(rec.open(0, arg % 4, K_MSHR, now, 0x100 + arg))
        elif code == 2 and open_tokens:
            rec.close(open_tokens.pop(0), now)
            emitted += 1
        elif code == 3:
            rec.instant(0, arg % 4, K_WB, now, 0x100 + arg)
            emitted += 1
        elif code == 4:
            # Express-plane style: the end time is known at emission
            # and may lie in the simulated future.
            rec.span(0, arg % 4, K_WB, now, now + arg)
            horizon = max(horizon, now + arg)
            emitted += 1
        else:
            now += arg
    horizon = max(horizon, now)

    assert rec.open_count() == len(open_tokens)
    rec.finalize(horizon)
    # Every opened span was closed -- by its site or by finalize.
    assert rec.open_count() == 0
    emitted += len(open_tokens)
    stats = rec.stats()
    assert stats["force_closed"] == len(open_tokens)
    assert stats["spans_kept"] == min(emitted, capacity)
    assert stats["dropped_spans"] == emitted - stats["spans_kept"]
    events = rec.events()
    assert len(events) == stats["spans_kept"]
    for _tid, track, _kind, t0, t1, _a, _b, _c in events:
        assert 0 <= t0 <= t1 <= horizon
        assert 0 <= track < 4

    # Trace ids are unique and consecutive from 1.
    assert sampled_tids == sorted(set(sampled_tids))
    assert sampled_tids == list(range(1, len(sampled_tids) + 1))

    # Chrome export round-trips through json with one entry per record
    # plus two metadata events per track.
    trace = json.loads(json.dumps(to_chrome_trace(rec)))
    assert len(trace["traceEvents"]) == len(rec.records()) + 2 * len(
        rec.track_names()
    )
    for ev in trace["traceEvents"]:
        assert ev["ph"] in ("M", "X", "i")
        if ev["ph"] == "X":
            assert ev["dur"] > 0


@given(stride=st.integers(1, 8), ops=st.integers(0, 64))
@settings(max_examples=40)
def test_sampling_admits_every_nth_op(stride, ops):
    rec = SpanRecorder(capacity=4096, sample=stride)
    tids = [rec.new_op(0, 0, 0, 0x40 * i, i, i) for i in range(ops)]
    sampled = [t for t in tids if t]
    # Ops 0, stride, 2*stride, ... are the sampled ones.
    assert sampled == [tids[i] for i in range(0, ops, stride)]
    assert rec.stats()["seen_ops"] == ops
    # tid_for answers exactly for sampled (node, seq) pairs.
    for seq, tid in enumerate(tids):
        assert rec.tid_for(0, seq) == tid
    # Infra spans are recorded only at full sampling.
    assert rec.trace_infra == (stride == 1)


def test_ring_grows_lazily_and_wraps():
    rec = SpanRecorder(capacity=1024)
    assert rec._size == 0  # nothing allocated until first emission
    for i in range(1500):
        rec.instant(0, 0, K_WB, i)
    assert rec._size == rec.capacity
    stats = rec.stats()
    assert stats["spans_kept"] == 1024
    assert stats["dropped_spans"] == 476
    events = rec.events()
    # Oldest-first after wrapping: the survivors are the last 1024.
    assert [e[3] for e in events] == list(range(476, 1500))


# ---------------------------------------------------------------------------
# Whole-system well-formedness
# ---------------------------------------------------------------------------

MODELS = [ConsistencyModel.SC, ConsistencyModel.TSO, ConsistencyModel.RMO]


def recorded_run(protocol, model):
    config = SystemConfig.protected(
        protocol=protocol, model=model, num_nodes=4
    ).with_seed(11)
    system = build_system(config, workload="oltp", ops=30, span_sample=1)
    system.run()
    return system.spans


def assert_wellformed(rec):
    assert rec is not None and rec.finalized
    # Every opened span closed (finalize force-closes stragglers).
    assert rec.open_count() == 0
    roots = rec.op_spans()
    # Unique, consecutive trace ids.
    assert sorted(roots) == list(range(1, len(roots) + 1))
    assert rec.stats()["spans_kept"] > 0
    for tid, track, _kind, t0, t1, _a, _b, _c in rec.events():
        # A span starts during the run; express-plane flights may end
        # at a precomputed delivery time just past the final event.
        assert 0 <= t0 <= t1
        assert t0 <= rec.end_time
        assert 0 <= track < len(rec.track_names())
        if tid:
            # Child spans nest inside their transaction's root span.
            _rt, r0, r1, _cls, _addr, _seq, _node = roots[tid]
            assert r0 <= t0 and t1 <= r1


class TestSystemSpanWellformedness:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    @pytest.mark.parametrize("model", MODELS)
    def test_protocol_model_grid(self, protocol, model):
        assert_wellformed(recorded_run(protocol, model))

    def test_chrome_export_round_trips(self, tmp_path):
        rec = recorded_run(ProtocolKind.DIRECTORY, ConsistencyModel.TSO)
        out = tmp_path / "trace.json"
        written = write_chrome_trace(str(out), rec)
        trace = json.loads(out.read_text())
        assert written == len(trace["traceEvents"]) > 0
        tracks = rec.track_names()
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert names == set(tracks)
        for ev in trace["traceEvents"]:
            if ev["ph"] != "M":
                assert 0 <= ev["tid"] < len(tracks)
                assert ev["ts"] >= 0
        # One root span per sampled transaction rides along.
        ops = [
            ev
            for ev in trace["traceEvents"]
            if ev["ph"] != "M" and ev["args"]["kind"] == "op"
        ]
        assert len(ops) == len(rec.op_spans())

    def test_sampled_run_stays_wellformed(self):
        config = SystemConfig.protected(num_nodes=4).with_seed(11)
        system = build_system(config, workload="oltp", ops=30, span_sample=16)
        system.run()
        rec = system.spans
        assert rec is not None and not rec.trace_infra
        assert_wellformed(rec)
        # Sampling admits roughly every 16th op.
        stats = rec.stats()
        assert 0 < stats["traced_ops"] <= stats["seen_ops"] // 16 + 1
