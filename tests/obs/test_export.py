"""Exporters: Prometheus text rendering and the phase table."""

from repro.obs.export import (
    format_phase_table,
    sanitize_metric_name,
    to_prometheus,
    write_prometheus,
)


def sample_snapshot():
    return {
        "counters": {"run.events": 100},
        "phases": {
            "exclusive": {"simulate": 0.75, "verify": 0.25},
            "inclusive": {"simulate": 0.75, "verify": 0.25},
        },
        "layers": {
            "scheduler": {"pending": 3, "note": "strings are skipped"},
            "caches": {"l1.0": {"hit_rate": 0.5}},
        },
    }


class TestSanitize:
    def test_dotted_names_become_legal(self):
        assert sanitize_metric_name("run.events") == "run_events"
        assert sanitize_metric_name("l1.0/hits") == "l1_0_hits"

    def test_leading_digit_is_prefixed(self):
        assert sanitize_metric_name("0bad")[0].isdigit() is False


class TestToPrometheus:
    def test_counters_become_total_series(self):
        text = to_prometheus(sample_snapshot())
        assert "# TYPE repro_run_events_total counter" in text
        assert "repro_run_events_total 100" in text

    def test_numeric_leaves_become_gauges(self):
        text = to_prometheus(sample_snapshot())
        assert "repro_phases_exclusive_simulate 0.75" in text
        assert "repro_layers_caches_l1_0_hit_rate 0.5" in text

    def test_strings_are_not_exported(self):
        assert "strings are skipped" not in to_prometheus(sample_snapshot())

    def test_every_line_is_exposition_format(self):
        for line in to_prometheus(sample_snapshot()).strip().splitlines():
            assert line.startswith("# TYPE ") or len(line.split(" ")) == 2

    def test_write_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "metrics.prom"
        write_prometheus(str(path), sample_snapshot())
        assert "repro_run_events_total 100" in path.read_text()


class TestPhaseTable:
    def test_lists_phases_by_share(self):
        table = format_phase_table(sample_snapshot())
        lines = table.splitlines()
        assert "simulate" in lines[1]
        assert "75.0%" in lines[1]
        assert "verify" in lines[2]
        assert lines[-1].startswith("total")

    def test_empty_snapshot_degrades_gracefully(self):
        assert "no phase data" in format_phase_table({})
