"""Performance benchmark: kernel, serial, parallel and cached timings.

Runs a fixed workload mix — a 4-point (config × workload) grid with
perturbed seeds per point, the same shape as the paper-figure sweeps —
through six measurement passes:

* **kernel-only**: a synthetic event storm through the calendar-queue
  ``Scheduler`` with no simulation payload, isolating raw event-kernel
  throughput (``kernel_events_per_sec``);
* **serial** (``jobs=1``): the reference pass — ``events_per_sec`` and
  the regression baseline come from here;
* **parallel** (``jobs=N``): same specs through the persistent worker
  pool; must be bit-identical to serial;
* **cached**: same specs again against a freshly primed result cache;
  every point must hit (``cache_hits == runs``) and decode
  bit-identically;
* **observed** (``REPRO_OBS=1``): same specs with the observability
  plane on; the deterministic payload must stay bit-identical
  (``identical`` covers serial, parallel, cached and observed) and the
  wall-clock delta is recorded as ``obs_overhead_pct`` (gated in
  ``check_perf_regression.py``);
* **spans** (``REPRO_OBS_SPANS=1``): same specs with the transaction
  flight recorder on in its default sampled always-on configuration
  (op stride 64, infra spans off); the deterministic payload must stay
  bit-identical (``spans_identical``) and the wall-clock delta is
  recorded as ``span_overhead_pct`` (gated at ≤3% in
  ``check_perf_regression.py``; forensic reruns use stride 1 and pay
  more, which is fine — they only happen on a violation).

Timing methodology: one untimed warmup sweep runs first, then the
serial, observed and spans passes run *interleaved* — each of four
reps times one sweep of each back to back, so a slow background window
on a shared host penalises all three alike — and each pass reports its
best rep (minimum wall clock, the standard estimator under additive
background noise; the runs are deterministic so the metrics are the
same every rep).  The gated overhead percentages
(``obs_overhead_pct``, ``span_overhead_pct``) are *not* ratios of
those minima — independent minima can come from different host
windows, crediting one mode with a fast window the other never
sampled.  They are the median over reps of the paired per-rep ratio
(mode sweep over the serial sweep of the same rep), which cancels
within-rep host speed and discards between-sweep shifts; the sweep
order inside each rep is reshuffled deterministically per rep so a
host-speed oscillation with a period near the rep length cannot hand
the same phase to the same mode every rep.  The kernel storms report
the best of two.  Parallel
and cached passes stay single-shot: their numbers gate correctness
(bit-identity, cache hits), not throughput.

A ``tracemalloc`` pass over one representative run reports allocation
deltas (``alloc_blocks``/``alloc_kib``) so slot/regression wins on hot
record classes are visible in the JSON trajectory.

Everything lands in a machine-readable ``BENCH_perf.json`` at the repo
root so the perf trajectory is tracked across PRs.  The parallel
speedup claim is only made when the host actually has more than one
CPU (on a 1-core box ``speedup`` is null and ``speedup_note`` says
why).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py
    PYTHONPATH=src python benchmarks/bench_perf.py --jobs 2 --ops 20 --seeds 1
    REPRO_JOBS=4 PYTHONPATH=src python benchmarks/bench_perf.py
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
import tracemalloc
from typing import List

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.common.events import Scheduler  # noqa: E402
from repro.config import SystemConfig  # noqa: E402
from repro.interconnect import message as message_pool  # noqa: E402
from repro.parallel import (  # noqa: E402
    ResultCache,
    RunSpec,
    execute_run_spec,
    resolve_jobs,
    run_points,
)

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_perf.json"
)


def workload_mix(ops: int, seeds: int) -> List[RunSpec]:
    """The fixed 4-point grid: {Base, DVMC} × {oltp, jbb}."""
    points = [
        (SystemConfig.unprotected(), "oltp"),
        (SystemConfig.protected(), "oltp"),
        (SystemConfig.unprotected(), "jbb"),
        (SystemConfig.protected(), "jbb"),
    ]
    return [
        RunSpec(config.with_seed(seed), workload, ops)
        for config, workload in points
        for seed in range(1, seeds + 1)
    ]


def bench_kernel(events: int = 200_000) -> float:
    """Raw calendar-queue throughput: schedule/execute ``events`` events.

    The callback reschedules itself at small pseudo-random strides (the
    same-cycle / near-future pattern the simulator produces) plus an
    occasional far-future hop that exercises the overflow heap, so the
    number measures the kernel the simulator actually runs on.  The
    chains reschedule through :meth:`Scheduler.post` — the no-handle
    fast path every hot component uses — so the ceiling tracks the
    production scheduling path, not the handle-returning API.
    """
    sched = Scheduler()
    state = {"left": events, "x": 12345}

    def tick() -> None:
        if state["left"] <= 0:
            return
        state["left"] -= 1
        x = (state["x"] * 1103515245 + 12345) & 0x7FFFFFFF
        state["x"] = x
        delay = x % 7  # mostly same-cycle / near-future
        if x % 997 == 0:
            delay = 5000  # rare overflow-heap excursion
        sched.post(delay, tick)

    for _ in range(8):  # a few concurrent event chains
        sched.post(0, tick)
    t0 = time.perf_counter()
    sched.run()
    elapsed = time.perf_counter() - t0
    return sched.events_processed / elapsed if elapsed else 0.0


def write_obs_artifacts(out_dir: str, spec: RunSpec, metrics) -> None:
    """Export one observed run's snapshot + provenance manifest."""
    from repro.obs.export import to_prometheus
    from repro.obs.manifest import run_manifest, write_manifest

    os.makedirs(out_dir, exist_ok=True)
    manifest = run_manifest(
        spec.config,
        workload=spec.workload,
        ops=spec.ops,
        seed=spec.config.seed,
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    snapshot = metrics.obs or {}
    with open(os.path.join(out_dir, "metrics.prom"), "w") as fh:
        fh.write(to_prometheus(snapshot))
    with open(os.path.join(out_dir, "snapshot.json"), "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"obs artifacts written to {os.path.abspath(out_dir)}/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker count (0 = auto; default: REPRO_JOBS, then auto)",
    )
    parser.add_argument("--ops", type=int, default=60, help="ops per core")
    parser.add_argument("--seeds", type=int, default=2, help="seeds per point")
    parser.add_argument("--out", default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--obs-artifacts",
        default=None,
        metavar="DIR",
        help="write the observed pass's manifest.json / metrics.prom / "
        "snapshot.json under DIR (CI uploads them as artifacts)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=4,
        help="interleaved timing reps per pass; each pass reports its "
        "best rep, so more reps tightens the minimum on noisy hosts",
    )
    args = parser.parse_args(argv)

    jobs = resolve_jobs(args.jobs, default=0)
    cpu_count = os.cpu_count() or 1
    specs = workload_mix(args.ops, args.seeds)
    print(
        f"bench_perf: {len(specs)} runs "
        f"(4 points x {args.seeds} seeds, ops={args.ops}), "
        f"jobs={jobs}, cpus={cpu_count}"
    )

    kernel_events_per_sec = max(bench_kernel() for _ in range(2))

    # One untimed warmup pass: imports, code objects, memo tables and
    # branch caches all settle before any timed pass, so the serial and
    # observed passes (whose ratio is the gated obs_overhead_pct) start
    # from the same warmed state.
    run_points(specs, jobs=1)

    def timed_sweep(env=None):
        """One timed serial sweep of ``specs`` under env overrides."""
        saved = {}
        if env:
            for key, value in env.items():
                saved[key] = os.environ.get(key)
                os.environ[key] = value
        try:
            gc.collect()
            t0 = time.perf_counter()
            metrics = run_points(specs, jobs=1)
            return metrics, time.perf_counter() - t0
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    # Interleaved timing: each rep runs one serial, one observed
    # (REPRO_OBS=1: observability plane on) and one spans
    # (REPRO_OBS_SPANS=1: flight recorder on) sweep back to back, so a
    # slow background window on a shared host penalises all three
    # alike; each pass reports its best rep (minimum wall clock).  The
    # runs are deterministic, so the metrics are the same every rep —
    # only the wall clock varies.  Per-rep times are kept so the gated
    # overhead ratios can be computed from *paired* reps (see below)
    # instead of from minima that may come from different host windows.
    # The sweep order is reshuffled every rep (deterministically, from
    # the rep index) so no mode sits at a fixed offset inside the rep:
    # a host whose speed oscillates with a period near the rep length
    # would otherwise hand the same phase of that oscillation to the
    # same mode every rep, biasing even paired ratios.
    modes = [
        ("serial", None),
        ("obs", {"REPRO_OBS": "1"}),
        ("spans", {"REPRO_OBS_SPANS": "1"}),
    ]
    results: dict = {}
    rep_times: dict = {name: [] for name, _ in modes}
    for rep in range(args.reps):
        order = list(modes)
        random.Random(rep).shuffle(order)
        for name, env in order:
            results[name], s = timed_sweep(env)
            rep_times[name].append(s)
    serial, observed, spans = results["serial"], results["obs"], results["spans"]
    serial_reps = rep_times["serial"]
    serial_s = min(serial_reps)
    obs_s, spans_s = min(rep_times["obs"]), min(rep_times["spans"])

    def overhead_pct(mode_reps: List[float]) -> float:
        """Median of per-rep overhead ratios vs the serial sweep.

        The two sweeps of rep *i* ran within the same short window, so
        their ratio cancels whatever the host was doing then; the
        median over reps discards the reps where the host shifted
        speed between the two sweeps, and the per-rep order shuffle
        keeps any periodic host-speed pattern from biasing the whole
        series one way.  A ratio of independent minima has no such
        pairing — on a noisy host the serial minimum can come from a
        lucky fast window no other mode sampled, inflating every gated
        percentage with pure scheduling luck.
        """
        ratios = sorted(
            m / s for m, s in zip(mode_reps, serial_reps) if s > 0.0
        )
        if not ratios:
            return 0.0
        mid = len(ratios) // 2
        if len(ratios) % 2:
            median = ratios[mid]
        else:
            median = (ratios[mid - 1] + ratios[mid]) / 2.0
        return (median - 1.0) * 100.0

    t0 = time.perf_counter()
    parallel = run_points(specs, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    # Cached pass: prime a throwaway cache from the serial results,
    # then re-run the whole mix against it — every point must hit.
    cache_dir = tempfile.mkdtemp(prefix="bench_perf_cache_")
    try:
        cache = ResultCache(cache_dir)
        for spec, metrics in zip(specs, serial):
            cache.put(spec, metrics)
        t0 = time.perf_counter()
        cached = run_points(specs, jobs=1, cache=cache)
        cached_s = time.perf_counter() - t0
        cache_hits = cache.hits
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Observed must leave the deterministic payload untouched
    # (RunMetrics equality ignores the obs field).  The paired-rep delta
    # of observed vs serial is the observability plane's overhead, gated
    # in check_perf_regression.py.
    obs_overhead_pct = overhead_pct(rep_times["obs"])

    # The flight recorder must leave the deterministic payload untouched
    # (RunMetrics equality — recorder state never reaches the counters);
    # its paired-rep delta vs serial is the always-on recorder cost at
    # the default sampling stride, gated at ≤3% in
    # check_perf_regression.py.
    spans_identical = serial == spans
    span_overhead_pct = overhead_pct(rep_times["spans"])

    identical = serial == parallel == cached == observed

    if not identical:
        rows = zip(serial, parallel, cached, observed)
        for i, (a, b, c, o) in enumerate(rows):
            if not (a == b == c == o):
                print(
                    f"MISMATCH at spec #{i}:\n  serial:   {a}"
                    f"\n  parallel: {b}\n  cached:   {c}"
                    f"\n  observed: {o}"
                )

    if args.obs_artifacts:
        write_obs_artifacts(args.obs_artifacts, specs[0], observed[0])

    # Allocation pass: tracemalloc snapshot delta over one run (slots on
    # hot record classes show up here as fewer blocks per event).
    alloc_spec = specs[0]
    pool_before = message_pool.pool_stats()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    alloc_metrics = execute_run_spec(alloc_spec)
    peak_bytes = tracemalloc.get_traced_memory()[1]
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    diff = after.compare_to(before, "filename")
    alloc_blocks = sum(stat.count_diff for stat in diff)
    alloc_kib = sum(stat.size_diff for stat in diff) / 1024.0
    alloc_events = alloc_metrics.events_processed
    pool_after = message_pool.pool_stats()
    messages_allocated = pool_after["allocated"] - pool_before["allocated"]
    messages_reused = pool_after["reused"] - pool_before["reused"]
    pool_total = messages_allocated + messages_reused
    msg_pool_reuse_pct = (
        100.0 * messages_reused / pool_total if pool_total else 0.0
    )

    events = sum(m.events_processed for m in serial)
    events_per_sec = events / serial_s if serial_s else 0.0
    coalesced = sum(
        v
        for m in serial
        for k, v in m.counters.items()
        if k.endswith(".coalesced_deliveries")
    )
    if cpu_count > 1:
        speedup = serial_s / parallel_s if parallel_s else 0.0
        speedup_note = None
    else:
        # One CPU: the pool serialises anyway, a "speedup" would be noise.
        speedup = None
        speedup_note = "single-CPU host; parallel speedup not claimed"

    payload = {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "cached_s": round(cached_s, 4),
        "obs_s": round(obs_s, 4),
        "spans_s": round(spans_s, 4),
        "obs_overhead_pct": round(obs_overhead_pct, 2),
        "span_overhead_pct": round(span_overhead_pct, 2),
        "spans_identical": spans_identical,
        "jobs": jobs,
        "events_per_sec": round(events_per_sec, 1),
        "kernel_events_per_sec": round(kernel_events_per_sec, 1),
        "messages_allocated": messages_allocated,
        "msg_pool_reuse_pct": round(msg_pool_reuse_pct, 1),
        "speedup": None if speedup is None else round(speedup, 3),
        "speedup_note": speedup_note,
        "events": events,
        "coalesced_deliveries": coalesced,
        "cache_hits": cache_hits,
        "alloc_blocks": alloc_blocks,
        "alloc_kib": round(alloc_kib, 1),
        "alloc_peak_kib": round(peak_bytes / 1024.0, 1),
        "alloc_events": alloc_events,
        "runs": len(specs),
        "ops": args.ops,
        "seeds": args.seeds,
        "identical": identical,
        "cpu_count": cpu_count,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    speed_txt = (
        f"speedup {speedup:.2f}x" if speedup is not None else speedup_note
    )
    print(
        f"kernel   {kernel_events_per_sec:12,.0f} events/sec\n"
        f"serial   {serial_s:8.2f} s   ({events_per_sec:,.0f} events/sec, "
        f"{coalesced} coalesced deliveries)\n"
        f"parallel {parallel_s:8.2f} s   (jobs={jobs}, {speed_txt})\n"
        f"cached   {cached_s:8.2f} s   ({cache_hits}/{len(specs)} hits)\n"
        f"observed {obs_s:8.2f} s   (REPRO_OBS=1, "
        f"{obs_overhead_pct:+.1f}% vs serial)\n"
        f"spans    {spans_s:8.2f} s   (REPRO_OBS_SPANS=1, "
        f"{span_overhead_pct:+.1f}% vs serial, "
        f"identical: {spans_identical})\n"
        f"msgpool  {messages_allocated:,} records allocated, "
        f"{msg_pool_reuse_pct:.1f}% of sends reused a pooled record\n"
        f"alloc    {alloc_blocks:,} blocks retained "
        f"({alloc_kib:,.0f} KiB, peak {peak_bytes / 1024.0:,.0f} KiB) "
        f"over {alloc_events:,} events\n"
        f"metrics identical: {identical} "
        f"(serial == parallel == cached == observed)\n"
        f"[written to {os.path.abspath(args.out)}]"
    )
    return 0 if identical and spans_identical and cache_hits == len(specs) else 1


if __name__ == "__main__":
    sys.exit(main())
