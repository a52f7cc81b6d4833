"""Lineage/metrics collector actor (north_rule: per-partition lineage +
metrics). Stage functions push ONE batched increment RPC per batch
(``incr_many``, the actor's one write method), FIRE-AND-FORGET: a
synchronous ``ray.get`` serialized every wave task through this one
actor's queue (measured ~30% of crawl wall at bench scale). Counters are diagnostics; the wave loop's terminate-on-empty
decision confirms zero with an exact data-plane count, and ``run()``
re-reads the totals after the last barrier so the recorded wave_metrics
cannot under-report from delivery lag (pipeline.py). ``wave_totals``
serves the wave loop; ``snapshot`` serves the benchmark harness."""

from __future__ import annotations

from collections import defaultdict

import ray


@ray.remote(num_cpus=0)
class MetricsActor:
    def __init__(self) -> None:
        self.counters: dict = defaultdict(int)

    def incr_many(self, wave: int, counts: dict) -> None:
        for name, n in counts.items():
            self.counters[(wave, name)] += n

    def snapshot(self) -> dict:
        return {f"{w}:{n}": v for (w, n), v in sorted(self.counters.items())}

    def wave_totals(self, wave: int) -> dict:
        return {n: v for (w, n), v in self.counters.items() if w == wave}
