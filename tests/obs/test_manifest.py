"""Manifest determinism and config hashing."""

import json

from repro.config import SystemConfig
from repro.obs.manifest import (
    SCHEMA_VERSION,
    config_hash,
    regime_flags,
    run_manifest,
    write_manifest,
)


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        a = SystemConfig.protected()
        b = SystemConfig.protected()
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_config_changes(self):
        base = SystemConfig.protected()
        assert config_hash(base) != config_hash(base.with_seed(99))
        assert config_hash(base) != config_hash(base.with_nodes(4))


class TestRunManifest:
    def test_deterministic_for_same_run(self):
        config = SystemConfig.protected().with_seed(7)
        a = run_manifest(config, workload="oltp", ops=100)
        b = run_manifest(config, workload="oltp", ops=100)
        assert a == b

    def test_seed_defaults_from_config(self):
        config = SystemConfig.protected().with_seed(7)
        manifest = run_manifest(config, workload="oltp", ops=100)
        assert manifest["seed"] == 7
        assert manifest["schema"] == SCHEMA_VERSION

    def test_extra_entries_are_kept_verbatim(self):
        manifest = run_manifest(extra={"pass": "bench", "jobs": 2})
        assert manifest["extra"] == {"pass": "bench", "jobs": 2}

    def test_regime_flag_keys(self):
        # Only switches a builder still reads; a retired regime leaves
        # the manifest with its flag (and bumps SCHEMA_VERSION).
        assert set(regime_flags({})) == {
            "obs",
            "obs_trace",
            "obs_spans",
            "obs_spans_cap",
            "obs_spans_sample",
        }
        assert run_manifest()["regimes"] == regime_flags()

    def test_json_safe(self):
        manifest = run_manifest(SystemConfig.protected(), workload="jbb")
        round_tripped = json.loads(json.dumps(manifest, sort_keys=True))
        assert round_tripped == manifest


class TestWriteManifest:
    def test_written_file_round_trips(self, tmp_path):
        path = tmp_path / "artifacts" / "manifest.json"
        manifest = run_manifest(SystemConfig.protected(), workload="oltp")
        write_manifest(str(path), manifest)
        assert json.loads(path.read_text()) == manifest

    def test_two_writes_are_byte_identical(self, tmp_path):
        config = SystemConfig.protected()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(str(a), run_manifest(config, workload="oltp", ops=50))
        write_manifest(str(b), run_manifest(config, workload="oltp", ops=50))
        assert a.read_bytes() == b.read_bytes()
