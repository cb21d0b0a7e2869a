"""Observability plane: exporters, span recorder, post-mortems.

Observability has one switch, set when a machine is built:
``build_system(..., spans=True)`` gives it a flight recorder, which is
off by default and never changes the run (asserted by
``tests/integration/test_spans_identity.py``).  Everything else is
always on and costs nothing per event: every machine adds the wall
seconds of its four run phases to ``System.phase_s``, and every layer
keeps an ``obs_snapshot()`` view of its own state.  The plane keeps no
counter store of its own: a snapshot exports the machine's
:class:`~repro.common.stats.StatsRegistry` beside those views
(``repro.cli run --obs-dir DIR``).  With the recorder off, a run calls
nothing in this package, which the ledger's exact ``layer.obs.calls``
count gate (0 on every workload) keeps so.

Layout:

* :mod:`repro.obs.export` — run snapshots, Prometheus-style text
  exporter (imported on demand; no cost on the simulation path).
* :mod:`repro.obs.fuzz_counters` — the differential fuzz outcome
  names.
* :mod:`repro.obs.manifest` — per-run provenance manifest (config
  hash, seed, git sha, python/platform).
* :mod:`repro.obs.spans` — transaction flight recorder: ints-only
  causal spans following each memory operation across core, write
  buffer, caches, interconnect, directory/snooping homes, SafetyNet
  and the DVMC checkers.
* :mod:`repro.obs.chrome_trace` — Chrome/Perfetto ``trace_event``
  JSON exporter for recorded spans (open in ``chrome://tracing``).
* :mod:`repro.obs.forensics` — violation post-mortems: walks the
  recorder backwards from a violating operation and extracts the
  minimal causal slice (``repro.cli explain``).

The full memory-operation stream for the offline oracle is recorded
by :func:`repro.verify.trace.record_program` (``repro.cli run
--op-trace FILE``), not by this package.
"""
