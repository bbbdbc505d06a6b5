"""Spans around the benchmark's own calls into clonelab.

Nothing inside clonelab is wrapped.  Each call the benchmark makes into a
module goes through `Tracer.call`, which, when tracing is on, records a
span named `<module>.<function>` under the current job span.  Calls one
module makes into another count inclusively under the module called.
Spans stay in memory until `write` is called once at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []   # (id, name, group, start, end, parent, job)
        self.busy: Counter = Counter()   # group -> inclusive seconds
        self.calls: Counter = Counter()  # group -> calls made by jobs
        self.setup_calls: Counter = Counter()  # group -> calls made while building the jobs
        self.overhead = 0.0              # seconds spent recording spans
        self._job: str | None = None
        self._parent: int | None = None

    def call(self, group: str, fn, *args, **kwargs):
        """Call fn, recording a span charged to the per-layer group."""
        if not self.enabled:
            return fn(*args, **kwargs)
        enter = time.perf_counter()
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(
                (len(self.spans), name, group, start, end, self._parent, self._job)
            )
            self.busy[group] += end - start
            (self.setup_calls if self._job == "setup" else self.calls)[group] += 1
            self.overhead += (start - enter) + (time.perf_counter() - end)

    def open_job(self, job_id: str, kind: str) -> int | None:
        """Start the job span; module spans recorded until close_job are its children."""
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans.append([sid, f"job.{kind}", "job", time.perf_counter(), None, None, job_id])
        self._job, self._parent = job_id, sid
        return sid

    def close_job(self, sid: int | None) -> None:
        if sid is None:
            return
        span = self.spans[sid]
        span[4] = time.perf_counter()
        self.spans[sid] = tuple(span)
        self._job = self._parent = None

    def self_time(self) -> float:
        """Job span time not covered by module spans: the benchmark's own glue."""
        total = 0.0
        for span in self.spans:
            if span[2] == "job":
                total += span[4] - span[3]
            elif span[5] is not None:
                total -= span[4] - span[3]
        return total

    def write(self, path: Path, meta: dict) -> None:
        fields = ("id", "name", "group", "start", "end", "parent", "job")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, out)
