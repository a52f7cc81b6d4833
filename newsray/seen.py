"""Sharded URL/title-seen set: cuckoo filter + exact backing store, held in
an actor pool (SURVEY.md §2.3 T1/T2, §2.7 D1/D2, north_rule).

The reference keeps one in-memory ``set[str]`` per crawler process, seeded by
re-parsing its own output file. Here the seen-set is a first-class
distributed structure: N shard actors, hash-partitioned by a STABLE hash of
the key (blake2b — never Python ``hash()``, which is per-process salted).
Each shard holds

* a cuckoo filter (2-choice bucketed fingerprints, public Fan et al. 2014
  design) — the fast membership path that at 10^10-URL scale is the only
  structure that fits in RAM, and
* an exact backing set — the authority that resolves cuckoo false
  positives, so the URL-seen *set equality* gate stays exact
  (SURVEY §7.5.5). At design scale the exact layer is a spillable per-shard
  store; at test scale a Python set.

The wave's gate stage claims URL keys greedily (``claim_insert``: a lower
seq overtakes and retracts the earlier claimant) and records title
claimants (``record_title_claim``), resolved at the wave barrier
(``resolve_titles``); ``WaveMinStage`` is the batched ``map_batches`` side,
one round-trip per (batch × shard). A shard keeps no log: the wave's
checkpointed rows carry its accepted claims, and a restore re-routes them
with ``shard_of`` over the pool's current size (``restore_keys``).

The shards are the crawl's only actors, so they also hold its other keyed
state, co-located under the same routing function: each shard keeps the
politeness token bucket and robots budget of the hosts that
``shard_of("h:" + host, n)`` routes to it (``reserve`` / ``replay``,
driven by frontier.py), and shard 0 keeps the per-wave counters
(``incr_many`` / ``wave_totals`` / ``snapshot``; the pipeline's
``metrics`` handle).
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict

import ray


def stable_hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "little"
    )


def shard_of(key: str, n_shards: int) -> int:
    return stable_hash64(key) % n_shards


def seen_keys(space: str, sites: list, vals: list) -> list[str]:
    """Namespaced shard keys, ``'<space>:<site>\\x1f<value>'`` (space 'u'
    for URLs, 't' for titles)."""
    return [f"{space}:{s}\x1f{v}" for s, v in zip(sites, vals)]


def restore_keys(shards: list, keys: list[str]) -> None:
    """Route each key with ``shard_of`` over the pool's CURRENT size and
    insert it: one bulk ``SeenShard.restore`` call per shard. Keys from a
    pool of any other size land where this pool's lookups route them."""
    n = len(shards)
    by: dict[int, list[str]] = {}
    for k in keys:
        by.setdefault(shard_of(k, n), []).append(k)
    ray.get([shards[sid].restore.remote(ks) for sid, ks in by.items()])


class CuckooFilter:
    """Bucketed cuckoo filter: 16-bit fingerprints, bucket size 4, two
    candidate buckets ``i`` and ``i ^ h(fp)``, bounded eviction chain.
    No false negatives; false positives resolved by the exact backing set."""

    # Plain Python lists beat tiny-array numpy by ~10× for single-key ops —
    # this filter serves per-key RPCs, not vectorized scans.

    def __init__(self, capacity: int, bucket_size: int = 4, max_kicks: int = 500):
        n = 1
        while n * bucket_size < capacity * 1.25:
            n <<= 1
        self.n_buckets = n
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.table: list[list[int]] = [[] for _ in range(n)]  # fingerprints per bucket
        self.count = 0
        self._rng = random.Random(0xC0FFEE)  # eviction choice only
        # memoized alt-index hash per fingerprint value (≤65535 entries)
        self._alt_cache: dict[int, int] = {}

    def _fp_index(self, key: str) -> tuple[int, int]:
        h = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        fp = (int.from_bytes(h[:2], "little") % 65535) + 1  # never 0 (=empty)
        i1 = int.from_bytes(h[2:10], "little") % self.n_buckets
        return fp, i1

    def _alt(self, i: int, fp: int) -> int:
        hv = self._alt_cache.get(fp)
        if hv is None:
            hv = int.from_bytes(
                hashlib.blake2b(fp.to_bytes(2, "little"), digest_size=8).digest(),
                "little",
            )
            self._alt_cache[fp] = hv
        return (i ^ hv) % self.n_buckets

    def contains(self, key: str) -> bool:
        fp, i1 = self._fp_index(key)
        if fp in self.table[i1]:
            return True
        return fp in self.table[self._alt(i1, fp)]

    def insert(self, key: str) -> bool:
        fp, i1 = self._fp_index(key)
        for i in (i1, self._alt(i1, fp)):
            row = self.table[i]
            if len(row) < self.bucket_size:
                row.append(fp)
                self.count += 1
                return True
        # evict along a bounded chain
        i = i1 if self._rng.getrandbits(1) else self._alt(i1, fp)
        cur = fp
        for _ in range(self.max_kicks):
            slot = self._rng.randrange(self.bucket_size)
            cur, self.table[i][slot] = self.table[i][slot], cur
            i = self._alt(i, cur)
            row = self.table[i]
            if len(row) < self.bucket_size:
                row.append(cur)
                self.count += 1
                return True
        return False  # table effectively full (callers size capacity up front)


@ray.remote(num_cpus=0)
class SeenShard:
    """One shard of the distributed seen-set. Keys are namespaced by the
    caller ('u:<site>\\x1f<canon_url>' / 't:<site>\\x1f<title>'). Also
    holds the politeness state of the hosts routed here and, on shard 0,
    the wave counters (module docstring)."""

    def __init__(
        self, shard_id: int, capacity: int = 1 << 16, host_budget: int | None = None
    ):
        self.shard_id = shard_id
        self.cuckoo = CuckooFilter(capacity)
        self.exact: set[str] = set()
        # greedy claim state (URL keyspace): key -> winning seq, plus the
        # seqs whose provisional acceptance a lower-seq claim retracted
        self.claims: dict[str, int] = {}
        self.retracted: set[int] = set()
        # deferred title contention: key -> every claimant
        # seq this wave; winners picked at the wave barrier once the URL
        # retractions are known (resolve_titles)
        self.tclaims: dict[str, set[int]] = {}
        # If an insert ever fails (table beyond design load), the cuckoo can
        # produce FALSE NEGATIVES; from then on every membership answer must
        # consult the exact store (correctness over speed — SURVEY §7.5.5).
        self.cuckoo_degraded = False
        # politeness: per-host virtual clock and robots budget used
        self.next_free: dict[str, float] = {}
        self.used: dict[str, int] = {}
        self.host_budget = host_budget
        # (wave, name) -> count; only shard 0's are ever incremented
        self.counters: dict = defaultdict(int)

    def _insert(self, k: str) -> None:
        if not self.cuckoo.insert(k):
            self.cuckoo_degraded = True
        self.exact.add(k)

    def _seen_before(self, k: str) -> bool:
        if self.cuckoo_degraded:
            return k in self.exact
        return self.cuckoo.contains(k) and k in self.exact

    def begin_wave(self) -> None:
        self.claims = {}
        self.retracted = set()
        self.tclaims = {}

    # -- one-phase greedy claim with retraction (URL keyspace) --------------
    #
    # A wave's duplicate candidates must resolve deterministically to the
    # minimum discovered_seq (SURVEY §7.5.1), without a register/resolve
    # barrier or a shuffle: all copies of a key hash-route to THIS shard,
    # and keys claim GREEDILY in arrival order: the first claimant of a key
    # this wave wins provisionally; if a lower-seq claimant arrives later it
    # takes the key and the earlier seq is RETRACTED. The driver collects
    # the (tiny) retraction set at the wave barrier and filters those rows
    # out of the wave's doc/frontier outputs — the final accepted set is
    # exactly the per-key wave minimum. Exactly the oracle's semantics: a
    # retracted row's URL stays seen, and its outputs never leave the wave.
    # A retried task re-presenting its win gets True again.

    def claim_insert(self, keys: list[str], seqs: list[int]) -> list[bool]:
        out = []
        for k, s in zip(keys, seqs):
            cur = self.claims.get(k)
            if cur is None:
                if self._seen_before(k):
                    out.append(False)  # seen in an earlier wave
                    continue
                self._insert(k)
                self.claims[k] = s
                out.append(True)
            elif s == cur:
                out.append(True)  # replayed task re-presenting its win
            elif s < cur:
                self.retracted.add(cur)
                self.claims[k] = s  # key already in exact store; keep it
                out.append(True)
            else:
                out.append(False)  # a lower seq already holds the key
        return out

    def wave_retractions(self) -> list[int]:
        return sorted(self.retracted)

    # -- deferred title contention ------------------------------------------
    #
    # With URL dedup itself greedy (claim_insert above), a title claimant's
    # validity isn't knowable in-task: its URL claim may be retracted later
    # by a lower-seq duplicate, and the title must then fall to the next
    # VALID claimant — one the greedy protocol would already have rejected.
    # So the shard records EVERY same-wave claimant and resolves at the wave
    # barrier, when the URL retraction set is final:
    #   winner(key) = min(claimants(key) − url_retracted)
    # The key is inserted into the seen store only at resolve time and only
    # if a valid winner exists — a title held solely by URL-retracted rows
    # stays unseen (exactly the oracle: those rows never reach the title
    # check), and resolve returns every non-winning claimant seq for the
    # wave's drop filter. Replay-safe: claimant sets are idempotent.

    def record_title_claim(self, keys: list[str], seqs: list[int]) -> list[bool]:
        out = []
        tc = self.tclaims
        for k, s in zip(keys, seqs):
            holders = tc.get(k)
            if holders is not None:
                holders.add(s)
                out.append(True)  # contender — barrier decides
                continue
            if self._seen_before(k):
                out.append(False)  # held since an earlier wave: dead for sure
                continue
            tc[k] = {s}
            out.append(True)
        return out

    def resolve_titles(self, url_retracted: list[int]) -> list[int]:
        dead = set(url_retracted)
        drops: list[int] = []
        for k, holders in self.tclaims.items():
            valid = holders - dead
            if valid:
                winner = min(valid)
                drops.extend(s for s in holders if s != winner)
                if not self._seen_before(k):  # idempotent on driver retry
                    self._insert(k)
            else:
                drops.extend(holders)  # no valid holder: key stays unseen
        return sorted(set(drops))

    # -- politeness state of the hosts routed here ----------------------------

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
        """Rebuild the politeness state from past grants, (host, n, delay)
        in wave order: ``reserve`` again over each, so the clocks and budget
        counters come out bit for bit as the live calls left them."""
        for host, n, delay in grants:
            self.reserve(host, n, delay)

    # -- per-wave counters (shard 0) ------------------------------------------
    # fire-and-forget, at-least-once diagnostics (pipeline.run_wave / run)

    def incr_many(self, wave: int, counts: dict) -> None:
        for name, n in counts.items():
            self.counters[(wave, name)] += n

    def snapshot(self) -> dict:
        return {f"{w}:{n}": v for (w, n), v in sorted(self.counters.items())}

    def wave_totals(self, wave: int) -> dict:
        return {n: v for (w, n), v in self.counters.items() if w == wave}

    def dump(self) -> list[str]:
        """Full dump (sorted for determinism) — audits/tests, not checkpoints."""
        return sorted(self.exact)

    def restore(self, keys: list[str]) -> int:
        """Bulk insert (checkpoint restore, output bootstrap); idempotent."""
        for k in keys:
            if k not in self.exact:
                self._insert(k)
        return len(self.exact)


def make_seen_pool(
    n_shards: int,
    capacity_per_shard: int = 1 << 16,
    host_budget: int | None = None,
) -> list:
    """Shard actors reserve no CPU (``num_cpus=0``): a fractional
    reservation quantizes away whole task slots at small cluster sizes.
    ``host_budget`` is the per-host fetch budget every shard's ``reserve``
    enforces."""
    return [SeenShard.remote(i, capacity_per_shard, host_budget) for i in range(n_shards)]


class WaveMinStage:
    """``map_batches`` callables of the wave protocol over one keyspace:
    each batch's keys go to their shards in one blocking RPC per shard, and
    the rows whose claim the shard accepts stay. The per-key wave minimum
    comes out of the claim's retractions, dropped at the wave barrier."""

    def __init__(self, shards: list, keyspace: str, site_col: str, key_col: str):
        self.shards = shards
        self.keyspace = keyspace
        self.site_col = site_col
        self.key_col = key_col

    def _keys(self, batch) -> list[str]:
        return seen_keys(
            self.keyspace, batch[self.site_col].to_pylist(), batch[self.key_col].to_pylist()
        )

    def _by_shard(self, keys: list[str]) -> dict[int, list[int]]:
        n = len(self.shards)
        by: dict[int, list[int]] = {}
        for idx, k in enumerate(keys):
            by.setdefault(shard_of(k, n), []).append(idx)
        return by

    def claim(self, batch):
        """One-phase greedy claim: first claimant wins provisionally, lower
        seq overtakes + retracts; retractions collected at the wave
        barrier."""
        return self._verdict_filter(batch, "claim_insert")

    def record(self, batch):
        """Deferred contention: record every same-wave claimant, dropping
        only keys already held from earlier waves; the barrier's
        resolve_titles picks winners once URL retractions are known."""
        return self._verdict_filter(batch, "record_title_claim")

    def _verdict_filter(self, batch, method: str):
        import pyarrow as pa

        if batch.num_rows == 0:
            return batch
        keys = self._keys(batch)
        seqs = batch["discovered_seq"].to_pylist()
        by = self._by_shard(keys)
        futs, idxs = [], []
        for sid, rows in by.items():
            futs.append(
                getattr(self.shards[sid], method).remote(
                    [keys[r] for r in rows], [seqs[r] for r in rows]
                )
            )
            idxs.append(rows)
        mask = [False] * len(keys)
        for rows, res in zip(idxs, ray.get(futs)):
            for r, ok in zip(rows, res):
                mask[r] = ok
        return batch.filter(pa.array(mask, pa.bool_()))
