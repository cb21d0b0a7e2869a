"""Core pipeline behaviour across consistency models."""

import pytest

from repro.common.types import MembarMask
from repro.config import DVMCConfig, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.processor.operations import (
    Atomic,
    Batch,
    Compute,
    Load,
    Membar,
    SetModel,
    Stbar,
    Store,
)
from repro.system.builder import build_system

from tests.conftest import idle_program

ADDR = 0x2_0000


def run_programs(programs, model=ConsistencyModel.TSO, dvmc=True, **kw):
    config = (
        SystemConfig.protected(model=model, **kw)
        if dvmc
        else SystemConfig.unprotected(model=model, **kw)
    )
    config = config.with_nodes(len(programs))
    system = build_system(config, programs=programs)
    result = system.run(max_cycles=2_000_000)
    return system, result


class TestSingleCoreExecution:
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    def test_store_load_round_trip(self, model):
        seen = []

        def prog():
            yield Store(ADDR, 0x1234)
            value = yield Load(ADDR)
            seen.append(value)

        system, result = run_programs([prog()], model=model)
        assert result.completed
        assert seen == [0x1234]
        assert not result.violations

    @pytest.mark.parametrize("model", list(ConsistencyModel))
    def test_store_forwarding_before_drain(self, model):
        """A load right after a store must see it (LSQ/WB forwarding)."""
        seen = []

        def prog():
            for i in range(8):
                yield Store(ADDR + 4 * i, i + 1)
            for i in range(8):
                seen.append((yield Load(ADDR + 4 * i)))

        _, result = run_programs([prog()], model=model)
        assert seen == [1, 2, 3, 4, 5, 6, 7, 8]
        assert not result.violations

    def test_atomic_swap_value(self):
        seen = []

        def prog():
            yield Store(ADDR, 7)
            old = yield Atomic(ADDR, 9)
            seen.append(old)
            seen.append((yield Load(ADDR)))

        _, result = run_programs([prog()])
        assert seen == [7, 9]

    def test_compute_advances_time(self):
        def prog():
            yield Compute(500)
            yield Store(ADDR, 1)

        system, result = run_programs([prog()])
        assert result.cycles >= 500

    def test_batch_returns_all_results(self):
        seen = []

        def prog():
            yield Store(ADDR, 5)
            yield Store(ADDR + 4, 6)
            values = yield Batch([Load(ADDR), Load(ADDR + 4)])
            seen.extend(values)

        _, result = run_programs([prog()])
        assert seen == [5, 6]

    def test_membar_and_stbar_complete(self):
        def prog():
            yield Store(ADDR, 1)
            yield Membar(MembarMask.ALL)
            yield Store(ADDR + 4, 2)
            yield Stbar()
            yield Store(ADDR + 8, 3)

        _, result = run_programs([prog()], model=ConsistencyModel.PSO)
        assert result.completed and not result.violations


class TestWriteBufferPresence:
    def test_sc_has_no_write_buffer(self):
        def prog():
            yield Store(ADDR, 1)

        system, _ = run_programs([prog()], model=ConsistencyModel.SC)
        assert system.cores[0].wb is None

    @pytest.mark.parametrize(
        "model,in_order",
        [
            (ConsistencyModel.TSO, True),
            (ConsistencyModel.PSO, False),
            (ConsistencyModel.RMO, False),
        ],
    )
    def test_wb_policy_matches_model(self, model, in_order):
        def prog():
            yield Store(ADDR, 1)

        system, _ = run_programs([prog()], model=model)
        assert system.cores[0].wb is not None
        assert system.cores[0].wb.in_order == in_order


class TestModelSwitching:
    def test_switch_changes_table_and_policy(self):
        def prog():
            yield Store(ADDR, 1)
            yield SetModel(ConsistencyModel.TSO)
            yield Store(ADDR, 2)
            yield SetModel(ConsistencyModel.PSO)
            yield Store(ADDR, 3)

        system, result = run_programs([prog()], model=ConsistencyModel.PSO)
        assert result.completed and not result.violations
        assert system.stats.counter("core.0.model_switches") == 2
        assert system.cores[0].model is ConsistencyModel.PSO

    def test_switch_to_sc_drops_write_buffer(self):
        def prog():
            yield Store(ADDR, 1)
            yield SetModel(ConsistencyModel.SC)
            yield Store(ADDR, 2)

        system, result = run_programs([prog()], model=ConsistencyModel.TSO)
        assert result.completed
        assert system.cores[0].wb is None

    @pytest.mark.parametrize(
        "start,target",
        [
            (ConsistencyModel.TSO, ConsistencyModel.SC),
            (ConsistencyModel.SC, ConsistencyModel.RMO),
            (ConsistencyModel.PSO, ConsistencyModel.TSO),
        ],
    )
    def test_switch_rederives_ordering_views(self, start, target):
        # A switched core decodes, forwards and gates exactly like a
        # core built under the target model, and its write buffer (if
        # any) drains under the same policy, issue cap and UO gate.
        def prog():
            yield Store(ADDR, 1)
            yield SetModel(target)
            yield Store(ADDR, 2)

        def wb_policy(core):
            wb = core.wb
            if wb is None:
                return None
            return wb.in_order, wb.max_outstanding, wb.require_verified

        switched = run_programs([prog()], model=start)[0].cores[0]
        fresh = run_programs([idle_program()], model=target)[0].cores[0]
        views = (
            "model",
            "table",
            "_load_ordered",
            "_role_of",
            "_store_row",
            "_store_si",
            "_fwd_speculative",
        )
        assert {v: getattr(switched, v) for v in views} == {
            v: getattr(fresh, v) for v in views
        }
        assert wb_policy(switched) == wb_policy(fresh)

    def test_switch_from_sc_creates_write_buffer(self):
        def prog():
            yield Store(ADDR, 1)
            yield SetModel(ConsistencyModel.RMO)
            yield Store(ADDR, 2)

        system, result = run_programs([prog()], model=ConsistencyModel.SC)
        assert result.completed
        assert system.cores[0].wb is not None and not system.cores[0].wb.in_order


class TestMultiCore:
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    def test_message_passing_with_barrier(self, model):
        """Producer/consumer with a full membar: the consumer must see
        the payload once it sees the flag, under every model."""
        seen = []

        def producer():
            yield Store(ADDR, 0xDA7A)
            yield Membar(MembarMask.ALL)
            yield Store(ADDR + 64, 1)  # flag, different block

        def consumer():
            while (yield Load(ADDR + 64)) != 1:
                yield Compute(5)
            yield Membar(MembarMask.ALL)
            seen.append((yield Load(ADDR)))

        _, result = run_programs([producer(), consumer()], model=model)
        assert seen == [0xDA7A]
        assert not result.violations

    def test_quiescence_waits_for_wb_drain(self):
        def prog():
            for i in range(6):
                yield Store(ADDR + 64 * i, i)

        system, result = run_programs([prog(), idle_program()])
        assert result.completed
        assert system.cores[0].wb.empty


class TestVerificationCacheBackpressure:
    @pytest.mark.parametrize("vc_entries", [1, 2])
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    def test_store_runs_stall_on_full_vc(self, model, vc_entries):
        """Runs of stores longer than the VC stall the verify stage,
        which resumes as each store performs and frees its entry."""
        blocks = 24
        seen = {0: [], 1: []}

        def prog(core):
            base = ADDR + core * 0x1_0000
            for i in range(blocks):
                yield Store(base + 64 * i, core << 8 | i)
            for i in range(blocks):
                seen[core].append((yield Load(base + 64 * i)))

        config = SystemConfig.protected(
            model=model, dvmc=DVMCConfig(verification_cache_entries=vc_entries)
        ).with_nodes(2)
        system = build_system(config, programs=[prog(0), prog(1)])
        result = system.run(max_cycles=2_000_000)
        assert result.completed
        for core in (0, 1):
            assert seen[core] == [core << 8 | i for i in range(blocks)]
            assert system.stats.counter(f"core.{core}.vc_full_stalls") > 0
        assert not result.violations


class TestStatsCollection:
    def test_op_counters(self):
        def prog():
            yield Store(ADDR, 1)
            yield Load(ADDR)
            yield Atomic(ADDR, 2)
            yield Membar(MembarMask.ALL)

        system, _ = run_programs([prog()])
        assert system.stats.counter("core.0.ops.store") == 1
        assert system.stats.counter("core.0.ops.load") == 1
        assert system.stats.counter("core.0.ops.atomic") == 1
        assert system.stats.counter("core.0.ops.membar") == 1
        assert system.stats.counter("core.0.retired") == 4
