"""Manifest determinism and config hashing."""

import json

from repro.config import SystemConfig
from repro.obs import manifest as manifest_module
from repro.obs.manifest import (
    SCHEMA_VERSION,
    code_fingerprint,
    config_hash,
    regime_flags,
    run_manifest,
    write_manifest,
)


def _fake_package(root):
    """A small ``repro``-shaped source tree at ``root``."""
    files = {
        "__init__.py": "",
        "obs/__init__.py": "",
        "obs/manifest.py": "SCHEMA_VERSION = 4\n",
        "sim/core.py": "def step():\n    return 1\n",
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _fingerprint_of(monkeypatch, root):
    """``code_fingerprint()`` as computed for a package rooted at ``root``."""
    monkeypatch.setattr(
        manifest_module, "__file__", str(root / "obs" / "manifest.py")
    )
    monkeypatch.setattr(manifest_module, "_code_fp", None)
    return code_fingerprint()


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        a = SystemConfig.protected()
        b = SystemConfig.protected()
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_config_changes(self):
        base = SystemConfig.protected()
        assert config_hash(base) != config_hash(base.with_seed(99))
        assert config_hash(base) != config_hash(base.with_nodes(4))


class TestCodeFingerprint:
    def test_memoised_sha256_hex(self):
        fp = code_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0
        assert code_fingerprint() == fp
        assert manifest_module._code_fp == fp

    def test_recorded_in_every_manifest(self):
        assert run_manifest()["code_fingerprint"] == code_fingerprint()

    def test_any_source_edit_moves_it(self, tmp_path, monkeypatch):
        root = _fake_package(tmp_path / "repro")
        before = _fingerprint_of(monkeypatch, root)
        core = root / "sim" / "core.py"
        core.write_text("def step():\n    return 2\n")
        assert _fingerprint_of(monkeypatch, root) != before
        core.write_text("def step():\n    return 1\n")
        assert _fingerprint_of(monkeypatch, root) == before

    def test_a_renamed_source_moves_it(self, tmp_path, monkeypatch):
        root = _fake_package(tmp_path / "repro")
        before = _fingerprint_of(monkeypatch, root)
        (root / "sim" / "core.py").rename(root / "sim" / "cpu.py")
        assert _fingerprint_of(monkeypatch, root) != before

    def test_only_python_sources_count(self, tmp_path, monkeypatch):
        root = _fake_package(tmp_path / "repro")
        before = _fingerprint_of(monkeypatch, root)
        (root / "sim" / "notes.md").write_text("scratch")
        (root / "__pycache__").mkdir()
        (root / "__pycache__" / "core.cpython-311.pyc").write_bytes(b"\0\1")
        assert _fingerprint_of(monkeypatch, root) == before

    def test_independent_of_where_the_tree_lives(self, tmp_path, monkeypatch):
        # No absolute paths: two checkouts of the same source agree.
        here = _fingerprint_of(monkeypatch, _fake_package(tmp_path / "a" / "repro"))
        there = _fingerprint_of(
            monkeypatch, _fake_package(tmp_path / "b" / "c" / "repro")
        )
        assert here == there


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
