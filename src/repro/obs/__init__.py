"""Observability plane: phase timing, exporters, span recorder.

Everything here is *off by default* and guaranteed not to change
simulation results.  Observability belongs to one machine and is set
when it is built: ``build_system(..., obs=True)`` gives it a phase
timer and the kernel and checker obs counters, and
``build_system(..., span_sample=N)`` a flight recorder.  The plane
keeps no counter store of its own: a snapshot exports the machine's
:class:`~repro.common.stats.StatsRegistry` beside each layer's
``obs_snapshot()`` view.  An observed or recorded run produces
bit-identical violations and statistics to the same run without
either (asserted by ``tests/integration/test_obs_identity.py`` and
``tests/integration/test_spans_identity.py``); the ledger's exact
``layer.obs.calls`` count gate keeps the disabled path's cost fixed
per machine built.

Layout:

* :mod:`repro.obs.phases` — :class:`PhaseTimer`, attributing wall time
  to simulate / verify / drain / serialize.
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

from __future__ import annotations

from repro.obs.phases import NULL_TIMER, NullPhaseTimer, PhaseTimer

__all__ = ["NULL_TIMER", "NullPhaseTimer", "PhaseTimer"]
