"""Offline trace recording and golden-reference checking."""

from repro.config import SystemConfig
from repro.fuzz import FuzzCase, case_programs
from repro.obs.spans import OP_CLASS_NAMES
from repro.processor.operations import (
    Atomic,
    Batch,
    Compute,
    Load,
    Membar,
    SetModel,
    Store,
)
from repro.system.builder import build_system
from repro.verify import Trace, TraceChecker, TraceEvent, record_program
from repro.verify.trace import dump_jsonl, event_from_dict, event_to_dict, load_jsonl
from repro.workloads import lock_addr, shared_addr
from repro.workloads.primitives import lock_acquire, lock_release
from repro.consistency.models import ConsistencyModel


def run_traced(programs, **kw):
    trace = Trace()
    wrapped = [
        record_program(i, program, trace) for i, program in enumerate(programs)
    ]
    config = SystemConfig.protected(num_nodes=len(programs), **kw)
    system = build_system(config, programs=wrapped)
    result = system.run(max_cycles=5_000_000)
    assert result.completed
    return trace, result


class TestRecording:
    def test_records_ops_in_program_order(self):
        def prog():
            yield Store(0x2_0000, 1)
            value = yield Load(0x2_0000)
            yield Atomic(0x2_0000, 9)

        def idle():
            yield Load(0x2_0040)

        trace, _ = run_traced([prog(), idle()])
        core0 = trace.per_core()[0]
        assert [e.kind for e in core0] == ["store", "load", "atomic"]
        assert core0[1].value == 1  # the load saw the store
        assert core0[2].old_value == 1

    def test_batch_ops_recorded_individually(self):
        def prog():
            yield Store(0x2_0000, 3)
            yield Batch([Load(0x2_0000), Load(0x2_0004)])

        def idle():
            yield Load(0x2_0040)

        trace, _ = run_traced([prog(), idle()])
        kinds = [e.kind for e in trace.per_core()[0]]
        assert kinds == ["store", "load", "load"]

    def test_indexes_are_the_cores_seqs(self):
        """``Compute`` takes no index, and a ``setmodel`` event shares
        the index of the op that follows it."""

        def prog():
            yield Store(0x2_0000, 1)
            yield Compute(5)
            yield SetModel(ConsistencyModel.TSO)
            yield Load(0x2_0000)
            yield Compute(3)
            yield Batch([Load(0x2_0000), Load(0x2_0004)])
            yield Membar()

        def idle():
            yield Load(0x2_0040)

        trace, _ = run_traced([prog(), idle()], model=ConsistencyModel.PSO)
        assert [(e.index, e.kind) for e in trace.per_core()[0]] == [
            (0, "store"),
            (1, "setmodel"),
            (1, "load"),
            (2, "load"),
            (3, "load"),
            (4, "membar"),
        ]

    def test_random_case_indexes_name_the_recorded_ops(self):
        """A random case interleaves ``Compute`` ops; every event's
        (core, index) resolves through the flight recorder to the op of
        the same class and address."""
        case = FuzzCase(model="TSO", seed=84186, nodes=4, ops=20)
        trace = Trace()
        programs = [
            record_program(core, program, trace)
            for core, program in enumerate(case_programs(case))
        ]
        config = SystemConfig.protected(
            model=ConsistencyModel.TSO, num_nodes=case.nodes
        ).with_seed(case.seed)
        system = build_system(config, programs=programs, spans=True)
        system.run()
        ops = system.spans.op_spans()
        for core, stream in trace.per_core().items():
            assert [e.index for e in stream] == list(range(len(stream)))
            for event in stream:
                tid = system.spans.tid_for(core, event.index)
                _, _, _, op_class, addr, _, _ = ops[tid]
                assert (OP_CLASS_NAMES[op_class], addr) == (event.kind, event.addr)


class TestRoundTripInvariants:
    """record_program -> Trace: structural invariants of the round trip."""

    def _workload_trace(self, workload="oltp", cores=2, ops=30):
        from repro.workloads import make_program

        trace = Trace()
        programs = [
            record_program(
                n,
                make_program(workload, n, cores, ConsistencyModel.TSO, 5, ops),
                trace,
            )
            for n in range(cores)
        ]
        config = SystemConfig.protected(num_nodes=cores)
        system = build_system(config, programs=programs)
        result = system.run(max_cycles=5_000_000)
        assert result.completed
        return trace

    def test_per_core_partitions_events(self):
        trace = self._workload_trace()
        streams = trace.per_core()
        # Partition: every event lands in exactly one stream, none lost.
        assert sum(len(s) for s in streams.values()) == len(trace.events)
        for core, stream in streams.items():
            assert all(e.core == core for e in stream)

    def test_per_core_indexes_are_strictly_increasing(self):
        """Program-order ranks: the core's seqs, so ``0..n-1`` per core
        (non-memory ops take no rank)."""
        trace = self._workload_trace()
        for stream in trace.per_core().values():
            indexes = [e.index for e in stream if e.kind != "setmodel"]
            assert indexes == list(range(len(indexes)))

    def test_event_kinds_and_values_well_formed(self):
        trace = self._workload_trace()
        for event in trace.events:
            assert event.kind in ("load", "store", "atomic")
            assert event.addr >= 0 and event.value is not None
            # old_value is the atomic's swapped-out value, only ever
            # set for atomics.
            if event.kind != "atomic":
                assert event.old_value is None

    def test_per_core_is_stable_across_calls(self):
        trace = self._workload_trace()
        first = {
            core: [(e.index, e.kind, e.addr, e.value) for e in stream]
            for core, stream in trace.per_core().items()
        }
        second = {
            core: [(e.index, e.kind, e.addr, e.value) for e in stream]
            for core, stream in trace.per_core().items()
        }
        assert first == second


class TestGoldenChecks:
    def test_clean_execution_passes(self):
        lock = lock_addr(0)
        counter = shared_addr(0)

        def worker():
            for _ in range(5):
                yield from lock_acquire(lock, ConsistencyModel.TSO)
                value = yield Load(counter)
                yield Store(counter, value + 1)
                yield from lock_release(lock, ConsistencyModel.TSO)

        trace, result = run_traced([worker(), worker()])
        assert not result.violations
        assert TraceChecker(trace).check() == []

    def test_out_of_thin_air_detected(self):
        trace = Trace()
        trace.events.append(TraceEvent(0, 0, "store", 0x100, 5))
        trace.events.append(TraceEvent(1, 0, "load", 0x100, 77))  # never written
        violations = TraceChecker(trace).check()
        assert any(v.rule == "out-of-thin-air" for v in violations)

    def test_uniprocessor_ordering_violation_detected(self):
        trace = Trace()
        trace.events.append(TraceEvent(0, 0, "store", 0x100, 5))
        trace.events.append(TraceEvent(0, 1, "store", 0x100, 6))
        trace.events.append(TraceEvent(0, 2, "load", 0x100, 5))  # stale!
        violations = TraceChecker(trace).check()
        assert any(v.rule == "uniprocessor-ordering" for v in violations)

    def test_shared_words_skipped_conservatively(self):
        trace = Trace()
        trace.events.append(TraceEvent(0, 0, "store", 0x100, 5))
        trace.events.append(TraceEvent(1, 0, "store", 0x100, 6))
        trace.events.append(TraceEvent(0, 1, "load", 0x100, 6))  # remote value: legal
        assert TraceChecker(trace).check() == []

    def test_initial_value_is_legal(self):
        trace = Trace()
        trace.events.append(TraceEvent(0, 0, "load", 0x100, 0))
        assert TraceChecker(trace).check() == []

    def test_workload_traces_are_clean(self):
        """Cross-validation: simulated workloads pass the offline oracle."""
        from repro.workloads import make_program

        trace = Trace()
        programs = [
            record_program(
                n,
                make_program("oltp", n, 2, ConsistencyModel.TSO, 3, 80),
                trace,
            )
            for n in range(2)
        ]
        config = SystemConfig.protected(num_nodes=2)
        system = build_system(config, programs=programs)
        result = system.run(max_cycles=5_000_000)
        assert result.completed and not result.violations
        assert TraceChecker(trace).check() == []


class TestCodecRoundTrip:
    """JSONL round-trips must preserve ordering metadata: fence kinds
    and masks, RMW old-value pairing, and model switches — the offline
    oracle's verdict depends on all of them."""

    def _fault_injected_trace(self, tmp_path):
        from repro.faults.injector import FaultInjector, FaultKind, FaultPlan
        from repro.fuzz import case_programs, FuzzCase

        trace = Trace()
        case = FuzzCase(model="RMO", seed=77, nodes=3, ops=30)
        programs = [
            record_program(i, p, trace)
            for i, p in enumerate(case_programs(case))
        ]
        config = (
            SystemConfig.protected(model=ConsistencyModel.RMO)
            .with_nodes(3)
            .with_seed(case.seed)
        )
        system = build_system(config, programs=programs)
        injector = FaultInjector(system, seed=case.seed)
        injector.arm(FaultPlan(FaultKind.WB_REORDER, 4_000))
        system.run(max_cycles=2_000_000, allow_incomplete=True)
        return trace

    def test_fault_injected_run_round_trips_exactly(self, tmp_path):
        trace = self._fault_injected_trace(tmp_path)
        assert trace.events, "the run must have produced events"
        path = str(tmp_path / "trace.jsonl")
        dump_jsonl(trace.events, path)
        again = load_jsonl(path)
        assert len(again.events) == len(trace.events)
        for a, b in zip(trace.events, again.events):
            assert a == b, (a, b)
        # Ordering metadata specifically survives.
        kinds = {e.kind for e in trace.events}
        masked = [e for e in again.events if e.kind in ("membar", "stbar")]
        if masked:
            originals = [
                e for e in trace.events if e.kind in ("membar", "stbar")
            ]
            assert [e.mask for e in masked] == [e.mask for e in originals]
        atomics = [e for e in again.events if e.kind == "atomic"]
        for event in atomics:
            assert event.old_value is not None, "RMW pairing lost in codec"
        assert "load" in kinds and "store" in kinds

    def test_oracle_verdict_survives_round_trip(self, tmp_path):
        from repro.oracle import check_trace

        trace = self._fault_injected_trace(tmp_path)
        path = str(tmp_path / "trace.jsonl")
        dump_jsonl(trace.events, path)
        again = load_jsonl(path)
        before = check_trace(trace, ConsistencyModel.RMO)
        after = check_trace(again, ConsistencyModel.RMO)
        assert before.decided == after.decided
        assert before.admissible == after.admissible


class TestJsonlCodec:
    def test_event_dict_round_trip(self):
        ev = TraceEvent(2, 5, "atomic", 0x40, 7, old_value=3)
        assert event_from_dict(event_to_dict(ev)) == ev

    def test_file_round_trip_is_exact(self, tmp_path):
        events = [
            TraceEvent(0, 0, "load", 0x10, 1),
            TraceEvent(1, 0, "store", 0x14, 2),
            TraceEvent(0, 1, "atomic", 0x10, 3, old_value=1),
        ]
        path = tmp_path / "trace.jsonl"
        assert dump_jsonl(events, str(path)) == 3
        assert load_jsonl(str(path)).events == events
