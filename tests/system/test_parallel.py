"""Parallel run orchestrator: ordering, determinism, error surfacing."""

import dataclasses
import pickle

import pytest

from repro.common.errors import ConfigError
from repro.config import SystemConfig
from repro.faults.campaign import run_campaign
from repro.faults.injector import FaultKind
from repro.parallel import (
    ParallelRunError,
    RunMetrics,
    RunSpec,
    execute_run_spec,
    resolve_jobs,
    run_points,
)
from repro.system.experiments import measure


def _double(spec):
    """Trivial picklable worker used by ordering/error tests."""
    return spec * 2


def _boom(spec):
    raise ValueError(f"boom on {spec}")


SMALL_SPECS = [
    RunSpec(SystemConfig.protected(num_nodes=2).with_seed(3), "oltp", 30),
    RunSpec(SystemConfig.unprotected(num_nodes=2).with_seed(4), "jbb", 30),
]


class TestResolveJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_auto(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ConfigError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)


class TestRunPoints:
    def test_serial_path_preserves_order(self):
        assert run_points([3, 1, 2], jobs=1, worker=_double) == [6, 2, 4]

    def test_parallel_results_keyed_by_spec(self):
        specs = list(range(7))
        assert run_points(specs, jobs=2, worker=_double) == [
            s * 2 for s in specs
        ]

    def test_worker_exception_is_structured(self):
        with pytest.raises(ParallelRunError) as excinfo:
            run_points([1, 2], jobs=2, worker=_boom)
        assert excinfo.value.index in (0, 1)
        assert "boom" in excinfo.value.reason

    def test_serial_worker_exception_is_plain(self):
        # jobs=1 is the in-process path: no pool wrapping.
        with pytest.raises(ValueError):
            run_points([1], jobs=1, worker=_boom)

    def test_run_spec_round_trip(self):
        spec = RunSpec(SystemConfig.unprotected(num_nodes=2), "jbb", 40)
        metrics = execute_run_spec(spec)
        assert isinstance(metrics, RunMetrics)
        assert metrics.completed
        assert metrics.cycles > 0
        assert metrics.events_processed > 0
        assert metrics.counters["l1.0.accesses"] > 0


class TestRunSpecsAcrossProcesses:
    """Every run executes: no spec is served from a stored result."""

    def test_run_metrics_pickle_bit_identical(self):
        # Pool workers hand results back by pickling them.
        fresh = execute_run_spec(SMALL_SPECS[0])
        shipped = pickle.loads(pickle.dumps(fresh))
        assert shipped == fresh
        assert dataclasses.asdict(shipped) == dataclasses.asdict(fresh)
        assert all(
            type(v) is type(fresh.counters[k]) for k, v in shipped.counters.items()
        )

    def test_parallel_sweeps_equal_serial(self):
        serial = run_points(SMALL_SPECS, jobs=1)
        first = run_points(SMALL_SPECS, jobs=2)
        again = run_points(SMALL_SPECS, jobs=2)  # the same warm pool
        assert first == serial
        assert again == serial

    def test_retired_cache_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calls = []

        def counting_worker(spec):
            calls.append(spec)
            return execute_run_spec(spec)

        for value in (str(tmp_path / "cache"), "1"):
            monkeypatch.setenv("REPRO_CACHE", value)
            run_points(SMALL_SPECS[:1], jobs=1, worker=counting_worker)
        assert calls == SMALL_SPECS[:1] * 2
        assert list(tmp_path.iterdir()) == []


class TestMeasureDeterminism:
    def test_parallel_equals_serial(self):
        """jobs=4 and jobs=1 produce identical Measurement fields
        (guards the orchestrator's ordering guarantee)."""
        config = SystemConfig.protected(num_nodes=2)
        serial = measure(config, "jbb", ops=40, seeds=2, jobs=1)
        parallel = measure(config, "jbb", ops=40, seeds=2, jobs=4)
        assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)

    def test_env_jobs_equals_serial(self, monkeypatch):
        config = SystemConfig.unprotected(num_nodes=2)
        serial = measure(config, "oltp", ops=40, seeds=2, jobs=1)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = measure(config, "oltp", ops=40, seeds=2)
        assert dataclasses.asdict(serial) == dataclasses.asdict(parallel)


class TestCampaignDeterminism:
    def test_parallel_campaign_equals_serial(self):
        config = SystemConfig.protected(num_nodes=2)
        kwargs = dict(
            workload="jbb",
            ops=40,
            kinds=(FaultKind.MSG_DROP, FaultKind.MEM_DATA_FLIP),
            trials_per_kind=1,
            seed=5,
        )
        serial = run_campaign(config, jobs=1, **kwargs)
        parallel = run_campaign(config, jobs=2, **kwargs)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]
