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
* an exact backing set — the checkpointed authority that resolves cuckoo
  false positives, so the URL-seen *set equality* gate stays exact
  (SURVEY §7.5.5). At design scale the exact layer is a spillable per-shard
  store; at test scale a Python set.

``check_and_insert`` is the batched RPC the dedup ``map_batches`` stage
calls: one round-trip per (batch × shard), ≥1k keys per call.
"""

from __future__ import annotations

import hashlib
import random

import ray


def stable_hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "little"
    )


def shard_of(key: str, n_shards: int) -> int:
    return stable_hash64(key) % n_shards


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
    caller ('u:<site>\\x1f<canon_url>' / 't:<site>\\x1f<title>')."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16):
        self.shard_id = shard_id
        self.cuckoo = CuckooFilter(capacity)
        self.exact: set[str] = set()
        # insertion-ordered log backing INCREMENTAL checkpoints: a wave dumps
        # only log[offset:] (bytes per wave ∝ new URLs, not total URLs)
        self.log: list[str] = []
        # replay-safety (Ray Data tasks are retryable): the (key -> seq)
        # accepted in the CURRENT wave, so a re-executed block gets the same
        # verdicts instead of silently dropping its rows
        self.wave_min: dict[str, int] = {}
        self.wave_accepted: dict[str, int] = {}
        # greedy claim state (URL keyspace in the fused protocol): key ->
        # winning seq, plus the seqs whose provisional acceptance a
        # lower-seq claim retracted
        self.claims: dict[str, int] = {}
        self.retracted: set[int] = set()
        # deferred title contention (fused protocol): key -> every claimant
        # seq this wave; winners picked at the wave barrier once the URL
        # retractions are known (resolve_titles)
        self.tclaims: dict[str, set[int]] = {}
        # If an insert ever fails (table beyond design load), the cuckoo can
        # produce FALSE NEGATIVES; from then on every membership answer must
        # consult the exact store (correctness over speed — SURVEY §7.5.5).
        self.cuckoo_degraded = False

    def _insert(self, k: str) -> None:
        if not self.cuckoo.insert(k):
            self.cuckoo_degraded = True
        self.exact.add(k)
        self.log.append(k)

    def _seen_before(self, k: str) -> bool:
        if self.cuckoo_degraded:
            return k in self.exact
        return self.cuckoo.contains(k) and k in self.exact

    def check_and_insert(self, keys: list[str]) -> list[bool]:
        """For each key: True = first sighting (inserted now). Cuckoo fast
        path; exact set resolves false positives and is the authority."""
        out = []
        for k in keys:
            new = not self._seen_before(k)
            if new:
                self._insert(k)
            out.append(new)
        return out

    # -- two-phase within-wave min-seq protocol (shuffle-free dedup) --------
    #
    # A wave's duplicate candidates must resolve deterministically to the
    # minimum discovered_seq (SURVEY §7.5.1). Instead of a hash-partitioned
    # groupby (an all-to-all shuffle per wave), the pipeline exploits that
    # all copies of a key already hash-route to THIS shard:
    #   phase 1 (register_wave_min) runs inside the previous execution —
    #     every candidate reports (key, seq); the shard keeps the per-key
    #     minimum. The execution's materialize barrier guarantees all
    #     registrations land before phase 2 starts.
    #   phase 2 (resolve_insert) accepts exactly the row whose seq equals
    #     the registered wave-minimum AND whose key is new across waves,
    #     then inserts it (cuckoo + exact).

    def begin_wave(self) -> None:
        self.wave_min = {}
        self.wave_accepted = {}
        self.claims = {}
        self.retracted = set()
        self.tclaims = {}

    def register_wave_min(self, keys: list[str], seqs: list[int]) -> int:
        wm = self.wave_min
        for k, s in zip(keys, seqs):
            prev = wm.get(k)
            if prev is None or s < prev:
                wm[k] = s
        return len(wm)

    def resolve_insert(self, keys: list[str], seqs: list[int]) -> list[bool]:
        out = []
        wm = self.wave_min
        acc = self.wave_accepted
        for k, s in zip(keys, seqs):
            if wm.get(k) != s:
                out.append(False)  # a same-wave duplicate with smaller seq wins
                continue
            if self._seen_before(k):
                # replay-safe: if a retried task re-presents the exact row
                # this wave already accepted, say True again — otherwise a
                # re-executed block would silently drop rows whose URLs stay
                # marked seen (never recrawled)
                out.append(acc.get(k) == s)
                continue
            self._insert(k)
            acc[k] = s
            out.append(True)
        return out

    # -- one-phase greedy claim with retraction (title keyspace) ------------
    #
    # The two-phase min-seq protocol needs a materialize barrier between
    # register and resolve — one extra streaming execution per wave. Titles
    # instead claim GREEDILY in arrival order inside the URL-resolve pass:
    # the first claimant of a key this wave wins provisionally; if a
    # lower-seq claimant arrives later it takes the key and the earlier
    # seq is RETRACTED. The driver collects the (tiny) retraction set at the
    # wave barrier and filters those rows out of the wave's doc/frontier
    # outputs — the final accepted set is exactly the per-key wave minimum,
    # with one fewer execution per wave. Exactly the oracle's semantics:
    # a retracted row's URL stays seen (URL insert precedes the title
    # check), the title key stays seen (the winner holds it), and the
    # retracted row's outputs never leave the wave.

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

    # -- deferred title contention (fused one-execution wave protocol) ------
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

    def contains(self, keys: list[str]) -> list[bool]:
        return [k in self.exact for k in keys]

    def dump(self) -> list[str]:
        """Full dump (sorted for determinism) — audits/tests, not checkpoints."""
        return sorted(self.exact)

    def dump_since(self, offset: int) -> list[str]:
        """Incremental checkpoint payload: insertions after ``offset``
        (insertion order). The checkpoint manifest tracks per-shard offsets,
        so per-wave checkpoint bytes ∝ newly-seen keys, not total keys."""
        return self.log[offset:]

    def log_len(self) -> int:
        return len(self.log)

    def restore(self, keys: list[str]) -> int:
        for k in keys:
            if k not in self.exact:
                self._insert(k)
        return len(self.exact)

    def size(self) -> int:
        return len(self.exact)


def make_seen_pool(
    n_shards: int, capacity_per_shard: int = 1 << 16, num_cpus: float = 0.0
) -> list:
    """Shard actors reserve no CPU by default (``num_cpus=0``, like the
    other state actors): a fractional reservation quantizes away whole task
    slots at small cluster sizes. Pass ``num_cpus`` to reserve a share."""
    return [
        SeenShard.options(num_cpus=num_cpus).remote(i, capacity_per_shard)
        for i in range(n_shards)
    ]


class WaveMinStage:
    """``map_batches`` callables for the two-phase protocol above. Both block
    on the shard RPCs (ray.get) so the enclosing execution's barrier
    guarantees completion ordering."""

    def __init__(self, shards: list, keyspace: str, site_col: str, key_col: str):
        self.shards = shards
        self.keyspace = keyspace
        self.site_col = site_col
        self.key_col = key_col

    def _keys(self, batch) -> list[str]:
        sites = batch[self.site_col].to_pylist()
        vals = batch[self.key_col].to_pylist()
        return [f"{self.keyspace}:{s}\x1f{v}" for s, v in zip(sites, vals)]

    def _by_shard(self, keys: list[str]) -> dict[int, list[int]]:
        n = len(self.shards)
        by: dict[int, list[int]] = {}
        for idx, k in enumerate(keys):
            by.setdefault(shard_of(k, n), []).append(idx)
        return by

    def register(self, batch):
        if batch.num_rows == 0:
            return batch
        keys = self._keys(batch)
        seqs = batch["discovered_seq"].to_pylist()
        futs = [
            self.shards[sid].register_wave_min.remote(
                [keys[r] for r in rows], [seqs[r] for r in rows]
            )
            for sid, rows in self._by_shard(keys).items()
        ]
        ray.get(futs)  # barrier within the task: registrations are durable
        return batch

    def resolve(self, batch):
        return self._verdict_filter(batch, "resolve_insert")

    def claim(self, batch):
        """One-phase greedy claim (no prior register pass): first claimant
        wins provisionally, lower seq overtakes + retracts; retractions
        collected at the wave barrier."""
        return self._verdict_filter(batch, "claim_insert")

    def record(self, batch):
        """Deferred contention (fused wave protocol): record every same-wave
        claimant, dropping only keys already held from earlier waves; the
        barrier's resolve_titles picks winners once URL retractions are
        known."""
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


class SeenFilterStage:
    """``map_batches`` callable: batched check-and-insert against the shard
    pool; keeps rows whose key is new. Handles are captured at construction
    (broadcast once, not per batch)."""

    def __init__(self, shards: list, keyspace: str, site_col: str, key_col: str):
        self.shards = shards
        self.keyspace = keyspace
        self.site_col = site_col
        self.key_col = key_col

    def __call__(self, batch):
        import pyarrow as pa

        if batch.num_rows == 0:
            return batch
        sites = batch[self.site_col].to_pylist()
        vals = batch[self.key_col].to_pylist()
        keys = [f"{self.keyspace}:{s}\x1f{v}" for s, v in zip(sites, vals)]
        n = len(self.shards)
        by_shard: dict[int, list[int]] = {}
        for idx, k in enumerate(keys):
            by_shard.setdefault(shard_of(k, n), []).append(idx)
        futs, idxs = [], []
        for sid, rows in by_shard.items():
            futs.append(self.shards[sid].check_and_insert.remote([keys[r] for r in rows]))
            idxs.append(rows)
        mask = [False] * len(keys)
        for rows, res in zip(idxs, ray.get(futs)):
            for r, new in zip(rows, res):
                mask[r] = new
        return batch.filter(pa.array(mask))
