"""In-memory spans around the benchmark's calls into switchlab.

A span records its name, start, end, parent (``"setup"`` or ``"job"``), the
job id and whether the call raised.  Spans stay in memory until the run
ends; nothing is written while jobs are timed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: Every span name the workloads use; each gets .calls, .busy_s and .fail.
SPAN_NAMES = (
    "orbits.generators_for",
    "orbits.partition_from_actions",
    "orbits.partitions_equal",
    "randomlab.random_graph",
    "randomlab.check_theta",
    "randomlab.check_theta_sampled",
    "switches.monochromatize",
    "switches.apply_word.long",
    "switches.inverse_word",
    "switches.edge_kill_word",
    "switches.apply_word.kill",
    "switches.json",
    "graphs.is_isomorphic",
    "graphs.json",
    "graphs.new_graph",
)

LAYERS = ("orbits", "randomlab", "switches", "graphs")


class Tracer:
    """Calls a switchlab function; when enabled, also records a span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.job: int | None = None
        self.spans: list[tuple] = []
        self.jobs: list[tuple[int, float, float]] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self.spans.append((name, start, time.perf_counter(), self.job, failed))

    def job_span(self, job: int, start: float, end: float) -> None:
        if self.enabled:
            self.jobs.append((job, start, end))

    def summary(self, scale) -> dict:
        """Per span name: calls, busy seconds and failures; plus job time,
        the part of it that spans cover, and time per layer.  Each duration
        is multiplied by ``scale(job)`` (``job`` is None for set-up spans)."""
        per_name = {name: {"calls": 0, "busy_s": 0.0, "fail": 0} for name in SPAN_NAMES}
        in_jobs = defaultdict(float)
        for name, start, end, job, failed in self.spans:
            took = (end - start) * scale(job)
            entry = per_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "fail": 0})
            entry["calls"] += 1
            entry["busy_s"] += took
            entry["fail"] += failed
            if job is not None:
                in_jobs[name.split(".")[0]] += took
        job_s = sum((end - start) * scale(job) for job, start, end in self.jobs)
        covered = sum(in_jobs.values())
        return {
            "spans": per_name,
            "job_s": job_s,
            "covered_s": covered,
            "layer_s": {layer: in_jobs[layer] for layer in LAYERS},
        }

    def write(self, path) -> None:
        """One JSON object per span; job spans have name "job" and their
        layer spans name the job as parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, start, end in self.jobs:
                fh.write(json.dumps({"name": "job", "start": start, "end": end,
                                     "parent": None, "job": job}) + "\n")
            for name, start, end, job, failed in self.spans:
                parent = "setup" if job is None else "job"
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "failed": failed}) + "\n")
