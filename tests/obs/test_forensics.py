"""Violation forensics: anchor parsing, causal slices, post-mortems.

The forensics walker never touches a live system — everything it needs
is in the flight recorder.  These tests drive it two ways: against a
hand-built recorder whose causal structure is known exactly, and
against a real recorded replay of a committed fuzz reproducer.
"""

import dataclasses
import json

import pytest

from repro.common.types import block_of
from repro.config import SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.fuzz import FuzzCase, case_programs, run_case_recorded
from repro.obs.forensics import (
    causal_slice,
    parse_detail,
    post_mortem,
    resolve_anchor,
)
from repro.obs.spans import K_MSHR, K_OWNER, OP_CLASS_NAMES, SpanRecorder
from repro.system.builder import build_system
from repro.verify import Trace, record_program

ONLINE_DETAIL = (
    "online: [cycle 411] UO violation at node 2: "
    "load-replay-mismatch (load 0x20000: executed 0x9, replayed 0xe)"
)
ORACLE_DETAIL = (
    "oracle: [cycle 500] CC violation at node 1: "
    "edge T1#3:store@0x4040 -> T0#2:load@0x4040 breaks coherence order"
)


class TestParseDetail:
    def test_online_format(self):
        anchor = parse_detail(ONLINE_DETAIL)
        assert anchor is not None
        assert anchor.checker == "UO"
        assert anchor.cycle == 411
        assert anchor.node == 2
        assert anchor.addr == 0x20000
        assert anchor.op_class == 0  # load

    def test_oracle_edge_format(self):
        anchor = parse_detail(ORACLE_DETAIL)
        assert anchor is not None
        assert anchor.checker == "CC"
        assert anchor.cycle == 500
        # The anchor is the first edge endpoint ...
        assert anchor.node == 1
        assert anchor.addr == 0x4040
        assert anchor.op_class == 1  # store
        # ... and the rest become resolution hints.
        assert (0, 2, "load", 0x4040) in anchor.hints

    def test_garbage_rejected(self):
        assert parse_detail("") is None
        assert parse_detail("no violation here") is None

    def test_oracle_op_names_resolve_to_the_recorded_op(self):
        """The oracle names an op ``T<core>#<index>``, and the index is
        the core's ``seq``: on a random case, whose programs interleave
        ``Compute`` ops, every recorded access resolves to the op of its
        own class and address."""
        case = FuzzCase(model="TSO", seed=84186, nodes=4, ops=20)
        trace = Trace()
        programs = [
            record_program(core, program, trace)
            for core, program in enumerate(case_programs(case))
        ]
        # No checkers: the anchor comes from the detail alone.
        config = SystemConfig.unprotected(
            model=ConsistencyModel.TSO, num_nodes=case.nodes
        ).with_seed(case.seed)
        system = build_system(config, programs=programs, spans=True)
        system.run()
        ops = system.spans.op_spans()
        events = trace.accesses()
        assert events
        for event in events:
            detail = f"T{event.core}#{event.index}:{event.kind}@{event.addr:#x}"
            anchor = resolve_anchor(system.spans, detail)
            _, _, _, op_class, addr, seq, node = ops[anchor.tid]
            assert (OP_CLASS_NAMES[op_class], addr, seq, node) == (
                event.kind,
                event.addr,
                event.index,
                event.core,
            )


def seeded_recorder():
    """A recorder with two transactions touching the same block."""
    rec = SpanRecorder()
    core0 = rec.track("core.0")
    core1 = rec.track("core.1")
    cache = rec.track("cache.0")
    tid_a = rec.new_op(core0, 0, 1, 0x4000, 5, 100)  # store on node 0
    tid_b = rec.new_op(core1, 1, 0, 0x4000, 9, 120)  # load on node 1
    token = rec.open(tid_a, cache, K_MSHR, 110, 0x4000)
    rec.close(token, 150)
    rec.instant(tid_b, cache, K_OWNER, 160, 0x4000, 2, 0)
    rec.violation("UO", 0, 170, addr=0x4000, seq=5, detail="test")
    rec.finalize(200)
    return rec, tid_a, tid_b


class TestResolveAndSlice:
    def test_recorded_violation_wins(self):
        rec, tid_a, _ = seeded_recorder()
        anchor = resolve_anchor(rec, detail="")
        assert anchor is not None
        assert anchor.source == "recorder"
        assert anchor.tid == tid_a
        assert anchor.addr == 0x4000

    def test_slice_finds_remote_same_block_transaction(self):
        rec, tid_a, tid_b = seeded_recorder()
        anchor = resolve_anchor(rec)
        sliced = causal_slice(rec, anchor, window=1000)
        assert sliced.anchor.tid == tid_a
        assert tid_b in sliced.related
        # The anchor's own records are on its timeline, not "related".
        assert tid_a not in sliced.related

    def test_post_mortem_names_the_essentials(self):
        rec, _, _ = seeded_recorder()
        report = post_mortem(rec)
        assert "UO" in report
        assert "0x4000" in report
        assert "seq 5" in report
        assert "causally-related transactions" in report

    def test_post_mortem_without_violation(self):
        rec = SpanRecorder()
        rec.finalize(10)
        report = post_mortem(rec)
        assert "no violation" in report.lower()


class TestRecordedReplay:
    @pytest.fixture(scope="class")
    def corpus_replay(self):
        with open("tests/corpus/repro-tso-831801-f90fb907.json") as fh:
            data = json.load(fh)
        case = FuzzCase.from_json(data["case"])
        result, recorder = run_case_recorded(case)
        return data, result, recorder

    def test_replay_records_full_fidelity(self, corpus_replay):
        _, _, recorder = corpus_replay
        assert recorder is not None
        stats = recorder.stats()
        assert stats["traced_ops"] > 0 and stats["spans_kept"] > 0
        # Nothing was refused a trace id or evicted from the ring, and
        # the op-less infrastructure spans (trace id 0) are there too.
        assert stats["dropped_ops"] == stats["dropped_spans"] == 0
        assert any(rec[0] == 0 for rec in recorder.events())

    def test_post_mortem_anchors_on_violating_load(self, corpus_replay):
        data, result, recorder = corpus_replay
        report = post_mortem(
            recorder, detail=result.detail or data["detail"]
        )
        assert "violating op : load@0x20000" in report
        assert "transaction timeline" in report
        assert "causally-related transactions" in report


class TestOracleEdgeHints:
    def test_hints_relate_ops_of_their_own_class_and_block(self):
        """An oracle edge names its far endpoint by core, index, class
        and address.  On the SC reproducer that index belongs to an
        ``stbar``; the slice must relate the endpoint's store on the
        block instead."""
        with open("tests/corpus/repro-sc-707947-7b56de7e.json") as fh:
            data = json.load(fh)
        result, recorder = run_case_recorded(FuzzCase.from_json(data["case"]))
        anchor = resolve_anchor(recorder, result.detail or data["detail"])
        assert anchor.hints
        sliced = causal_slice(recorder, anchor)
        unhinted = causal_slice(recorder, dataclasses.replace(anchor, hints=[]))

        def named(op):
            return op[6], OP_CLASS_NAMES[op[3]], block_of(op[4])

        hinted = {(node, kind, block_of(addr)) for node, _, kind, addr in anchor.hints}
        assert hinted <= {named(op) for op in sliced.related.values()}
        for tid in sliced.related.keys() - unhinted.related.keys():
            assert named(sliced.related[tid]) in hinted
