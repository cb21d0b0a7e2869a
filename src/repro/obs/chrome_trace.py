"""Chrome/Perfetto ``trace_event`` export of recorded spans.

Converts a :class:`~repro.obs.spans.SpanRecorder` into the JSON object
format understood by ``chrome://tracing`` and https://ui.perfetto.dev:
one *thread* (track) per node / link / checker, complete ("X") events
for spans, instant ("i") events for zero-duration records, and thread
metadata naming each track.  Simulated cycles map 1:1 onto trace
microseconds, so durations read directly as cycle counts.

The export is deterministic for a fixed recorder (events are sorted by
start time, then track) and round-trips through ``json`` — asserted by
``tests/obs/test_spans.py``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.obs.spans import K_OP, KIND_NAMES, OP_CLASS_NAMES, SpanRecorder


def _op_class_name(code: int) -> str:
    if 0 <= code < len(OP_CLASS_NAMES):
        return OP_CLASS_NAMES[code]
    return str(code)


def to_chrome_trace(recorder: SpanRecorder) -> Dict:
    """The recorder's contents as a ``trace_event`` JSON object."""
    events: List[Dict] = []
    tracks = recorder.track_names()
    for track_id, name in enumerate(tracks):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": track_id,
                "args": {"name": name},
            }
        )
        # Track order in the viewer follows sort_index, not name.
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 0,
                "tid": track_id,
                "args": {"sort_index": track_id},
            }
        )
    spans = sorted(recorder.records(), key=lambda r: (r[3], r[1], r[2]))
    for tid, track, kind, t0, t1, a, b, c in spans:
        kind_name = KIND_NAMES[kind] if kind < len(KIND_NAMES) else str(kind)
        if kind == K_OP:
            name = f"{_op_class_name(a)}@0x{b:x}#{c}"
        elif a:
            name = f"{kind_name}@0x{a:x}"
        else:
            name = kind_name
        args = {"trace_id": tid, "a": a, "b": b, "c": c, "kind": kind_name}
        if t1 > t0:
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "pid": 0,
                    "tid": track,
                    "ts": t0,
                    "dur": t1 - t0,
                    "args": args,
                }
            )
        else:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": name,
                    "pid": 0,
                    "tid": track,
                    "ts": t0,
                    "args": args,
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "recorder": recorder.stats(),
            "source": "repro transaction flight recorder",
        },
    }


def write_chrome_trace(path: str, recorder: SpanRecorder) -> int:
    """Write the trace JSON at ``path``; returns events written."""
    trace = to_chrome_trace(recorder)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(trace["traceEvents"])
