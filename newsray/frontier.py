"""Per-host politeness/priority scheduling + skew handling (SURVEY.md §2.3
T7, §4.1, north_rule).

The reference's politeness is ``time.sleep(1-2s)`` between sequential page
fetches inside each per-site process. Here politeness is a first-class
distributed structure in the crawl's one actor pool: each seen shard
(seen.py ``SeenShard``) also holds the per-host token bucket (``next_free``
virtual clock) and robots fetch budget of the hosts that
``shard_of("h:" + host, n)`` routes to it. The scheduling stage is a
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

from .seen import shard_of
from .sites import SITES


def host_shard(shards: list, host: str):
    """The pool shard holding ``host``'s politeness state."""
    return shards[shard_of("h:" + host, len(shards))]


def host_delay(site: str) -> float:
    return SITES[site].politeness_delay if site in SITES else 1.0


def replay_grants(shards: list, wave_flogs: list[pa.Table]) -> None:
    """Rebuild the pool's politeness state from fetch logs, one table
    (host, site) per wave in wave order: a host's grant in a wave is its
    fetch count there (every released row is fetched and logged), replayed
    on the shard ``host_shard`` picks for the pool's CURRENT size — one
    ``replay`` call per shard."""
    by: dict = {}
    for t in wave_flogs:
        counts = t.group_by(["host", "site"]).aggregate([([], "count_all")])
        for host, site, k in zip(
            counts["host"].to_pylist(), counts["site"].to_pylist(),
            counts["count_all"].to_pylist(),
        ):
            by.setdefault(host_shard(shards, host), []).append((host, k, host_delay(site)))
    ray.get([shard.replay.remote(g) for shard, g in by.items()])


class ScheduleGroup:
    """``map_groups`` callable over host groups: sort by seq, reserve slots
    from the host's pool shard, stamp ``released_at_virtual``, drop
    budget-overflow rows.

    Returns ARROW with the schema metadata stripped: pandas-derived blocks
    carry a ``b'pandas'`` schema-metadata dict that makes the schema
    UNHASHABLE, which downstream shuffle reduces hit as "Failed to hash the
    schemas (for deduplication): unhashable type: 'dict'" on every merge
    (VERDICT r2 polish (a) — the warning spam source)."""

    def __init__(self, shards: list):
        self.shards = shards

    def __call__(self, g: pd.DataFrame):
        if len(g) == 0:
            g = g.assign(released_at_virtual=np.zeros(0))
            return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)
        host = g["host"].iloc[0]
        delay = host_delay(g["site"].iloc[0])
        g = g.sort_values("discovered_seq", kind="mergesort")
        shard = host_shard(self.shards, host)
        start, granted = ray.get(shard.reserve.remote(host, len(g), delay))
        g = g.iloc[:granted].copy()
        g["released_at_virtual"] = start + np.arange(len(g)) * delay
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)
