"""Per-host politeness/priority scheduling + skew handling (SURVEY.md §2.3
T7, §4.1, north_rule).

The reference's politeness is ``time.sleep(1-2s)`` between sequential page
fetches inside each per-site process. Here politeness is a first-class
distributed structure: ``HostScheduler`` shard actors (hash-partitioned by
host) hold a per-host token bucket (``next_free_t`` virtual clock) and the
per-host robots fetch budget. The scheduling stage is a
``groupby(host).map_groups`` — ONE batched RPC per host per wave, rows
released in ``discovered_seq`` order, so budget cuts and release times are
deterministic regardless of cluster parallelism.

The clock is VIRTUAL: release timestamps are computed, never slept on —
fetches against the synthetic web run at full speed while the politeness
invariant (per-host spacing ≥ delay) stays assertable. Against a real web
the fetch actor sleeps until ``released_at`` (same schedule, wall clock).

Skew: a hot host (the reference's aggregator site holds ~half the frontier)
produces one giant group. Scheduling work is O(n) arithmetic so the group
itself is cheap; the heavy stages (fetch/parse) run AFTER an explicit
``repartition`` that spreads the hot host's released rows across blocks —
the "skew splitting" of north_rule: one token bucket per host, many fetch
workers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .seen import stable_hash64
from .sites import SITES


@ray.remote(num_cpus=0)
class HostScheduler:
    """One shard of the politeness/budget state (hosts hash-partition here)."""

    def __init__(self, host_budget: int | None = None):
        self.next_free: dict[str, float] = {}
        self.used: dict[str, int] = {}
        self.host_budget = host_budget

    def reserve(self, host: str, n: int, delay: float) -> tuple[float, int]:
        """Grant up to ``n`` fetch slots for ``host``: returns (start_t,
        granted). Caller assigns release times start_t + i*delay in seq
        order; ungranted rows are budget-dropped."""
        used = self.used.get(host, 0)
        granted = n
        if self.host_budget is not None:
            granted = max(0, min(n, self.host_budget - used))
        start = self.next_free.get(host, 0.0)
        self.next_free[host] = start + granted * delay
        self.used[host] = used + granted
        return start, granted

    def replay(self, grants: list[tuple[str, int, float]]) -> None:
        """Rebuild the state from past grants, (host, n, delay) in wave
        order: ``reserve`` again over each, so the clocks and budget
        counters come out bit for bit as the live calls left them."""
        for host, n, delay in grants:
            self.reserve(host, n, delay)


def make_scheduler_pool(
    n_shards: int, host_budget: int | None, num_cpus: float = 0.0
) -> list:
    return [
        HostScheduler.options(num_cpus=num_cpus).remote(host_budget)
        for i in range(n_shards)
    ]


def scheduler_shard_of(host: str, n_shards: int) -> int:
    return stable_hash64("h:" + host) % n_shards


def host_delay(site: str) -> float:
    return SITES[site].politeness_delay if site in SITES else 1.0


def replay_grants(schedulers: list, wave_flogs: list[pa.Table]) -> None:
    """Rebuild the pool's politeness state from fetch logs, one table
    (host, site) per wave in wave order: a host's grant in a wave is its
    fetch count there (every released row is fetched and logged), replayed
    on the shard ``scheduler_shard_of`` picks for the pool's CURRENT size —
    one ``replay`` call per shard."""
    n = len(schedulers)
    by: dict[int, list[tuple[str, int, float]]] = {}
    for t in wave_flogs:
        counts = t.group_by(["host", "site"]).aggregate([([], "count_all")])
        for host, site, k in zip(
            counts["host"].to_pylist(), counts["site"].to_pylist(),
            counts["count_all"].to_pylist(),
        ):
            by.setdefault(scheduler_shard_of(host, n), []).append((host, k, host_delay(site)))
    ray.get([schedulers[sid].replay.remote(g) for sid, g in by.items()])


class ScheduleGroup:
    """``map_groups`` callable over host groups: sort by seq, reserve slots
    from the host's scheduler shard, stamp ``released_at_virtual``, drop
    budget-overflow rows.

    Returns ARROW with the schema metadata stripped: pandas-derived blocks
    carry a ``b'pandas'`` schema-metadata dict that makes the schema
    UNHASHABLE, which downstream shuffle reduces hit as "Failed to hash the
    schemas (for deduplication): unhashable type: 'dict'" on every merge
    (VERDICT r2 polish (a) — the warning spam source)."""

    def __init__(self, schedulers: list):
        self.schedulers = schedulers

    def __call__(self, g: pd.DataFrame):
        if len(g) == 0:
            g = g.assign(released_at_virtual=np.zeros(0))
            return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)
        host = g["host"].iloc[0]
        delay = host_delay(g["site"].iloc[0])
        g = g.sort_values("discovered_seq", kind="mergesort")
        shard = self.schedulers[scheduler_shard_of(host, len(self.schedulers))]
        start, granted = ray.get(shard.reserve.remote(host, len(g), delay))
        g = g.iloc[:granted].copy()
        g["released_at_virtual"] = start + np.arange(len(g)) * delay
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)
