"""Layer-by-layer accounting for traced benchmark runs.

Driver side, :class:`Spans` wraps the public calls of each layer (the crawl
pipeline, checkpointing, the sinks) and records one span per call.
Worker side, ``ray.timeline()`` lists every task and actor-method execution
with its start and duration; :func:`layer_metrics` sums those by name inside
each traced job's window. A span's self time is its duration minus the part
of it during which some task was executing.
"""

from __future__ import annotations

import functools
import time

# driver-side spans: (layer metric prefix, owner attribute path)
SPAN_TARGETS = (
    ("pipeline.run", "newsray.pipeline", "CrawlPipeline.run"),
    ("pipeline.run_wave", "newsray.pipeline", "CrawlPipeline.run_wave"),
    ("pipeline.finalize", "newsray.pipeline", "CrawlPipeline.finalize_streaming"),
    ("checkpoint.write_frontier_in", "newsray.checkpoint", "write_frontier_in"),
    ("checkpoint.write_wave", "newsray.checkpoint", "write_wave"),
    ("checkpoint.restore", "newsray.checkpoint", "restore"),
    ("sink.write_documents_ds", "newsray.sink", "write_documents_ds"),
    ("sink.day_grouped_export_ds", "newsray.sink", "day_grouped_export_ds"),
    ("sink.read_documents", "newsray.sink", "read_documents"),
)

# worker-side layers: name -> (count suffix, test on the task name, which
# is a Ray Data operator chain or Actor.method, and the driver span the task
# must start inside, or None)
EXCHANGE = {"map", "reduce", "_sample_block", "_split_single_block"}  # sort/shuffle sub-tasks
TASKS = {
    "pipeline.wave_op": ("tasks", lambda n: "fetch_parse" in n, None),
    "pipeline.finalize_op": ("tasks", lambda n: "final_filter" in n, None),
    # the politeness schedule's sort/groupby/repartition exchange of a wave
    "pipeline.schedule": ("tasks", lambda n: n in EXCHANGE, "pipeline.run_wave"),
    "seen.claim_insert": ("calls", lambda n: n.endswith("SeenShard.claim_insert"), None),
    "seen.record_title_claim": ("calls", lambda n: n.endswith("SeenShard.record_title_claim"), None),
    "seen.resolve_titles": ("calls", lambda n: n.endswith("SeenShard.resolve_titles"), None),
    "frontier.reserve": ("calls", lambda n: n.endswith("HostScheduler.reserve"), None),
    "pipeline.fuzzy_add": ("calls", lambda n: n.endswith("FuzzyTitleBuffer.add"), None),
    "pipeline.fuzzy_scan": ("calls", lambda n: n.endswith("FuzzyTitleBuffer.scan"), None),
    "lineage.incr_many": ("calls", lambda n: n.endswith("MetricsActor.incr_many"), None),
}


class Spans:
    """In-memory span log. ``job`` tags each span with the traced job that
    is running; no span is recorded while ``job`` is None."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float, int]] = []
        self.job: int | None = None

    def install(self) -> None:
        import importlib

        for name, module, path in SPAN_TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name: str, fn):
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if spans.job is None:
                return fn(*args, **kwargs)
            job, t0 = spans.job, time.time()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.rows.append((name, t0, time.time(), job))

        return traced

    def record(self, name: str, t0: float, t1: float) -> None:
        if self.job is not None:
            self.rows.append((name, t0, t1, self.job))


def task_intervals(timeline: list[dict]) -> list[tuple[str, float, float]]:
    """(name, start, end) in seconds of every task and actor-method
    execution, from a ``ray.timeline()`` event list."""
    out = []
    for e in timeline:
        cat = e.get("cat", "")
        if e.get("ph") == "X" and cat.startswith("task::"):
            t0 = e["ts"] / 1e6
            out.append((cat[len("task::") :], t0, t0 + e["dur"] / 1e6))
    return out


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(
    timeline: list[dict], spans: list[tuple], windows: list[tuple[int, float, float]]
) -> dict[str, float]:
    """Per-layer counts and times, each the mean over the traced jobs.
    ``windows`` holds (job id, start, end) of every traced timed region; a
    job may have several (one per query of a suite pass)."""
    tasks = task_intervals(timeline)
    jobs = {job for job, _, _ in windows}
    n = max(len(jobs), 1)

    def inside(t: float, within: list | tuple = windows) -> bool:
        return any(lo <= t <= hi for _, lo, hi in within)

    span_windows = {
        within: [(job, s0, s1) for name, s0, s1, job in spans if name == within and job in jobs]
        for _, _, within in TASKS.values()
        if within
    }
    out: dict[str, float] = {"ray.tasks": 0.0, "ray.deserialize_s": 0.0}
    for layer, (count, _, _) in TASKS.items():
        out[f"{layer}.{count}"] = 0.0
        out[f"{layer}.busy_s"] = 0.0

    def add(key: str, v: float) -> None:
        out[key] = out.get(key, 0.0) + v / n

    for name, t0, t1 in tasks:
        if inside(t0):
            add("ray.tasks", 1)
            for layer, (count, match, within) in TASKS.items():
                if match(name) and (within is None or inside(t0, span_windows[within])):
                    add(f"{layer}.{count}", 1)
                    add(f"{layer}.busy_s", t1 - t0)
    for e in timeline:
        if e.get("ph") == "X" and e.get("cat") == "task:deserialize_arguments":
            if inside(e["ts"] / 1e6):
                add("ray.deserialize_s", e["dur"] / 1e6)
    for name, s0, s1, job in spans:
        if job not in jobs:
            continue
        add(f"{name}.wall_s", s1 - s0)
        if name.startswith("query."):
            inner = [(a, b) for _n, a, b in tasks if s0 <= a <= s1]
            add(f"{name}.tasks", len(inner))
            add(f"{name}.busy_s", sum(b - a for a, b in inner))
        else:
            add(f"{name}.count", 1)
            busy = [(a, b) for _n, a, b in tasks if b > s0 and a < s1]
            add(f"{name}.self_s", (s1 - s0) - _covered(s0, s1, busy))
    return out
