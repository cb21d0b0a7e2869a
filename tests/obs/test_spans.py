"""Flight-recorder well-formedness: spans close, nest, and export.

Two layers of properties:

* **Mechanics**: random open/close/instant/span scripts (hypothesis)
  against a bare :class:`SpanRecorder` — every opened span is closed
  or force-closed, ring accounting balances, and the Chrome export
  round-trips through ``json`` — plus the recorder's two bounds (the
  span ring and the op table) at their full :data:`CAPACITY`.
* **Whole-system** (parametrized over protocol x model):
  a recorded run leaves no dangling spans, every child span nests
  inside its transaction's root interval, trace ids are unique, every
  retired op has one, the checkers' op-less spans and network flights
  are kept, and the exported trace is valid Chrome ``trace_event`` JSON.
"""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fuzz as fuzz
from repro.common.types import OpType
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.fuzz import FuzzCase, run_case_recorded
from repro.obs import spans
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.spans import (
    CAPACITY,
    K_EPOCH,
    K_MET,
    K_MSG,
    K_MSHR,
    K_WB,
    OP_CLASS,
    OP_CLASS_NAMES,
    SpanRecorder,
)
from repro.system.builder import build_system


# ---------------------------------------------------------------------------
# Mechanics (hypothesis)
# ---------------------------------------------------------------------------

#: One recorder action: (op_code, small_int payload).  Codes: 0 = new_op,
#: 1 = open, 2 = close oldest open, 3 = instant, 4 = span, 5 = clock skip.
_ACTIONS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=120)


@given(actions=_ACTIONS, capacity=st.integers(16, 48))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_recorder_script_invariants(actions, capacity):
    # A small capacity lets a short script wrap the ring and fill the
    # op table.
    with mock.patch.object(spans, "CAPACITY", capacity):
        rec = SpanRecorder()
        now = 0
        horizon = 0
        open_tokens = []
        emitted = 0
        offered = 0
        tids = []
        for code, arg in actions:
            if code == 0:
                offered += 1
                tid = rec.new_op(0, arg % 4, 0, 0x100 + arg, len(tids), now)
                if tid:
                    tids.append(tid)
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

        # Every op gets a trace id until the op table is full; trace ids
        # are unique and consecutive from 1.
        assert len(tids) == min(offered, capacity)
        assert stats["dropped_ops"] == offered - len(tids)
        assert tids == list(range(1, len(tids) + 1))

        # Chrome export round-trips through json with one entry per
        # record plus two metadata events per track.
        trace = json.loads(json.dumps(to_chrome_trace(rec)))
        assert len(trace["traceEvents"]) == len(rec.records()) + 2 * len(
            rec.track_names()
        )
        for ev in trace["traceEvents"]:
            assert ev["ph"] in ("M", "X", "i")
            if ev["ph"] == "X":
                assert ev["dur"] > 0


def test_ring_keeps_the_last_capacity_spans():
    rec = SpanRecorder()
    for i in range(CAPACITY + 476):
        rec.instant(0, 0, K_WB, i)
    stats = rec.stats()
    assert stats["spans_kept"] == CAPACITY
    assert stats["dropped_spans"] == 476
    events = rec.events()
    # Oldest-first after wrapping: the survivors are the last CAPACITY.
    assert [e[3] for e in events] == list(range(476, CAPACITY + 476))


def test_op_table_refuses_ops_past_capacity():
    rec = SpanRecorder()
    tids = [rec.new_op(0, 1, 0, 0x40, seq, seq) for seq in range(CAPACITY + 1)]
    assert tids[:-1] == list(range(1, CAPACITY + 1))
    assert tids[-1] == 0
    assert rec.stats()["dropped_ops"] == 1
    assert rec.tid_for(1, CAPACITY) == 0
    assert rec.tid_for(1, CAPACITY - 1) == CAPACITY


def test_op_class_codes_follow_op_type():
    # One table: codes count up in OpType order and name each class by
    # its OpType value, which is how the Chrome export labels op roots.
    assert list(OP_CLASS) == list(OpType)
    assert list(OP_CLASS.values()) == list(range(len(OpType)))
    assert OP_CLASS_NAMES == tuple(op.value for op in OpType)
    rec = SpanRecorder()
    track = rec.track("core.0")
    for seq, op in enumerate(OpType):
        rec.new_op(track, 0, OP_CLASS[op], 0x40, seq, seq)
    trace = to_chrome_trace(rec)
    names = [ev["name"] for ev in trace["traceEvents"] if ev["ph"] != "M"]
    assert names == [f"{op.value}@0x40#{seq}" for seq, op in enumerate(OpType)]


def test_chrome_export_names_stbar_ops():
    rec = SpanRecorder()
    rec.new_op(rec.track("core.0"), 0, OP_CLASS[OpType.STBAR], 0, 7, 3)
    (op,) = [ev for ev in to_chrome_trace(rec)["traceEvents"] if ev["ph"] != "M"]
    assert op["name"] == "stbar@0x0#7"


# ---------------------------------------------------------------------------
# Whole-system well-formedness
# ---------------------------------------------------------------------------

MODELS = [ConsistencyModel.SC, ConsistencyModel.TSO, ConsistencyModel.RMO]


def recorded_system(protocol, model):
    config = SystemConfig.protected(
        protocol=protocol, model=model, num_nodes=4
    ).with_seed(11)
    system = build_system(config, workload="oltp", ops=30, spans=True)
    system.run()
    return system


def recorded_run(protocol, model):
    return recorded_system(protocol, model).spans


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

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_every_retired_op_has_a_trace_id(self, protocol):
        system = recorded_system(protocol, ConsistencyModel.TSO)
        rec = system.spans
        retired = sum(
            value
            for key, value in system.stats.counters().items()
            if key.startswith("core.") and key.endswith(".retired")
        )
        stats = rec.stats()
        assert stats["traced_ops"] == retired > 0
        assert stats["dropped_ops"] == 0
        for tid, (_track, _t0, _t1, _cls, _addr, seq, node) in rec.op_spans().items():
            assert rec.tid_for(node, seq) == tid

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_op_less_checker_spans_are_recorded(self, protocol):
        # Coherence epochs and MET records that no traced op caused
        # carry trace id 0; a recorded run keeps them with the rest.
        rec = recorded_run(protocol, ConsistencyModel.TSO)
        kinds = {kind for tid, _track, kind, *_ in rec.events() if tid == 0}
        assert {K_EPOCH, K_MET} <= kinds

    def test_op_less_flights_are_recorded(self):
        # The CC checker's Inform-Epochs belong to no op (trace id 0);
        # the data network records their flights with the rest, one
        # K_MSG span per message sent.
        with open("tests/corpus/repro-sc-707947-7b56de7e.json") as fh:
            case = FuzzCase.from_json(json.load(fh)["case"])
        systems = []

        def build_and_keep(*args, **kwargs):
            systems.append(build_system(*args, **kwargs))
            return systems[-1]

        with mock.patch.object(fuzz, "build_system", build_and_keep):
            _, rec = run_case_recorded(case)
        flights = sum(1 for _tid, _track, kind, *_ in rec.events() if kind == K_MSG)
        assert flights == systems[0].data_network.messages_sent == 526

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
        # One root span per transaction rides along.
        ops = [
            ev
            for ev in trace["traceEvents"]
            if ev["ph"] != "M" and ev["args"]["kind"] == "op"
        ]
        assert len(ops) == len(rec.op_spans())
