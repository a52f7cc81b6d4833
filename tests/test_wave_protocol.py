"""Unit tests for the wave-protocol building blocks: greedy claim with
retraction, the cost-striping permutation and the finalize fuzzy scan. The
shard tests run on the undecorated actor class — no Ray session needed."""

from __future__ import annotations

import pyarrow as pa
from conftest import tables

from newsray.seen import SeenShard


def _shard(capacity: int = 1 << 12):
    cls = SeenShard.__ray_actor_class__ if hasattr(SeenShard, "__ray_actor_class__") else SeenShard
    sh = cls.__new__(cls)
    cls.__init__(sh, 0, capacity)
    return sh


def test_claim_greedy_min_seq_with_retraction():
    sh = _shard()
    sh.begin_wave()
    # arrival order: seq 20 first (provisional win), then 10 (overtakes),
    # then 30 (loses), on the same title key
    assert sh.claim_insert(["t:k"], [20]) == [True]
    assert sh.claim_insert(["t:k"], [10]) == [True]
    assert sh.claim_insert(["t:k"], [30]) == [False]
    assert sh.wave_retractions() == [20]
    # replay of the winner stays True; replay of the retracted seq is False
    assert sh.claim_insert(["t:k"], [10]) == [True]
    assert sh.claim_insert(["t:k"], [20]) == [False]
    # next wave: the key is cross-wave seen regardless of retraction
    sh.begin_wave()
    assert sh.claim_insert(["t:k"], [5]) == [False]
    assert sh.wave_retractions() == []


def test_checkpoint_rows_keep_every_url_claim_and_title_winners():
    """The checkpointed rows of a wave with retracted seqs 2 and 3: fetch-log
    and useen rows stay whatever their seq (a retracted row's URL stays
    seen), while doc and tseen rows of retracted seqs go, so the tseen rows
    left are the title winners and a title held only by retracted seqs
    ("b") stays unseen."""
    from newsray.pipeline import WAVE_SCHEMA, checkpoint_rows

    kinds = ["flog", "useen", "useen", "tseen", "tseen", "tseen", "doc", "doc"]
    seqs = [2, 2, 3, 1, 2, 3, 1, 3]
    titles = [None, None, None, "a", "a", "b", None, None]
    n = len(kinds)
    b = pa.table(
        {
            f.name: {"rowkind": kinds, "discovered_seq": seqs, "title": titles}.get(
                f.name, [None] * n
            )
            for f in WAVE_SCHEMA
        },
        schema=WAVE_SCHEMA,
    )
    out = checkpoint_rows(b, pa.array([2, 3], pa.int64()))
    got = list(zip(out["rowkind"].to_pylist(), out["discovered_seq"].to_pylist()))
    assert got == [("flog", 2), ("useen", 2), ("useen", 3), ("tseen", 1), ("doc", 1)]
    assert checkpoint_rows(b, None) is b


def test_stripe_spreads_cost_classes():
    """Contiguous slices of a striped block each carry every k-th row — the
    expensive head-of-block rows (listings) land in distinct slices."""
    from newsray.pipeline import make_stripe

    k = 4
    n = 32
    b = pa.table({"i": list(range(n))})
    out = make_stripe(k)(b)
    vals = out["i"].to_pylist()
    assert sorted(vals) == list(range(n))  # a permutation, nothing dropped
    slice_len = n // k
    for j in range(k):
        sl = vals[j * slice_len : (j + 1) * slice_len]
        # each slice holds one residue class → consecutive originals split
        assert {v % k for v in sl} == {j}
        assert sl == sorted(sl)  # relative order preserved (stable)


def _fuzzy_scan_tables(tables: list[pa.Table], drop: frozenset = frozenset()):
    """Reference caller of the finalize scan loop over driver-side (site,
    discovered_seq, title) tables: one run per site, with that site's
    threshold; returns every site's accepted seqs."""
    import numpy as np
    import pyarrow.compute as pc

    from newsray.pipeline import _fuzzy_scan_runs
    from newsray.sites import SITES

    live = [t for t in tables if t.num_rows]
    if not live:
        return np.empty(0, dtype=np.int64)
    t = pa.concat_tables(live)
    drop_arr = pa.array(sorted(drop), pa.int64())
    return np.concatenate(
        [
            _fuzzy_scan_runs(
                SITES[site].fuzzy_threshold,
                [t.filter(pc.equal(t["site"], site)).sort_by("discovered_seq")],
                drop_arr,
            )
            for site in pc.unique(t["site"]).to_pylist()
        ]
    )


def test_fuzzy_scan_tables_replay_and_retraction_safe():
    """The finalize scan dedupes replayed pushes (same seq twice — task
    retries / repeated finalize) and excludes retracted seqs, preserving
    the sequential first-accepted-wins semantics."""
    from newsray.sites import SITES

    site = next(s for s, c in SITES.items() if c.fuzzy_dedup)
    t = pa.table(
        {
            "site": [site] * 3,
            "discovered_seq": [10, 20, 30],
            "title": ["알파 경제 뉴스 속보", "알파 경제 뉴스 속보", "완전히 다른 제목 하나"],
        }
    )
    base = _fuzzy_scan_tables([t], frozenset())
    # seq 20 is an exact repeat of 10's title -> dropped; 10 and 30 accepted
    assert list(base) == [10, 30]
    # replayed push of the same projection: identical result
    assert list(_fuzzy_scan_tables([t, t], frozenset())) == [10, 30]
    # retraction of the first winner promotes nothing retroactively wrong:
    # 10 is excluded up front, so 20 becomes the first holder of that title
    assert list(_fuzzy_scan_tables([t, t], frozenset({10}))) == [20, 30]


def test_deferred_title_resolution_honors_url_retractions():
    """Fused-protocol cascade: the minimum title claimant can lose its URL
    claim to a lower-seq duplicate AFTER claiming the title; the title must
    then fall to the next VALID claimant, and a title whose every claimant
    was URL-retracted must stay unseen for later waves."""
    sh = _shard()
    sh.begin_wave()
    # three same-wave claimants of title T: seqs 100 (will be URL-retracted),
    # 120, 130; plus title X claimed only by 100
    assert sh.record_title_claim(["t:T", "t:T", "t:T", "t:X"], [100, 120, 130, 100]) == [
        True, True, True, True,
    ]
    drops = sh.resolve_titles([100])  # URL retraction kills seq 100
    # T falls to 120; 130 loses; 100's claims die with it
    assert 130 in drops and 120 not in drops
    assert "t:T" in sh.exact
    assert "t:X" not in sh.exact  # no valid holder -> stays unseen
    # next wave: T is held, X is free
    sh.begin_wave()
    assert sh.record_title_claim(["t:T", "t:X"], [200, 201]) == [False, True]
    assert sh.resolve_titles([]) == []
    assert "t:X" in sh.exact


def _naive_fuzzy_scan(t: pa.Table, thr: int, drop: set) -> list[int]:
    """Reference: the sequential first-accepted-wins loop, written out over
    the whole table sorted by seq."""
    from newsray.textfns import fuzzy_is_dup, normalize_for_fuzzy

    t = t.sort_by("discovered_seq")
    mem: list[str] = []
    out = []
    for sq, ti in zip(t["discovered_seq"].to_pylist(), t["title"].to_pylist()):
        if sq in drop:
            continue
        if normalize_for_fuzzy(ti) in mem or fuzzy_is_dup(ti, mem, thr):
            continue
        mem.append(normalize_for_fuzzy(ti))
        out.append(sq)
    return out


def test_fuzzy_scan_task_merges_block_and_file_runs(ray_session, tmp_path):
    """The finalize scan task k-way-merges many out-of-order runs — wave
    blocks in the object store and checkpoint rows files read with a
    pruned read, each mixed with rows it must ignore (other rowkinds,
    other sites) — and equals the single-table scan and a written-out
    reference loop, with and without a retraction drop set."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    from newsray.pipeline import SCAN_SLICE, fuzzy_scan_site
    from newsray.sites import SITES

    site = next(s for s, c in SITES.items() if c.fuzzy_dedup)
    other = next(s for s, c in SITES.items() if not c.fuzzy_dedup)
    thr = SITES[site].fuzzy_threshold
    rng = np.random.default_rng(7)
    n = SCAN_SLICE + 2000

    def hangul(k: int) -> str:
        return "".join(chr(0xAC00 + int(c)) for c in rng.integers(0, 11172, k))

    # unique titles (1 in 40), exact repeats and one-syllable variants of
    # 20 stems: both dedup paths (exact short-circuit, fuzzy LCS) fire
    stems = [hangul(10) for _ in range(20)]
    seqs = rng.permutation(n * 3)[:n].astype("int64")  # unsorted arrival
    titles = []
    for s in seqs:
        stem = stems[int(s) % 20]
        if s % 40 == 0:
            titles.append(hangul(10))
        elif s % 3 == 0:
            titles.append(stem[:4] + hangul(1) + stem[5:])
        else:
            titles.append(stem)
    t = pa.table({"site": [site] * n, "discovered_seq": seqs, "title": titles})

    def wave_rows(part: pa.Table) -> pa.Table:
        m = part.num_rows
        noise = pa.table(
            {
                "rowkind": ["doc"] * m + ["flog"] * m,
                "site": [other] * m + [site] * m,
                "discovered_seq": pa.concat_arrays(
                    [part["discovered_seq"].combine_chunks()] * 2
                ),
                "title": ["다른 사이트 제목"] * m + [None] * m,
            }
        )
        docs = part.append_column("rowkind", pa.array(["doc"] * m)).select(
            noise.column_names
        )
        return pa.concat_tables([noise, docs])

    # one run longer than a slice, then 40 short ones; two short runs are
    # replayed in the other medium (duplicate seqs across runs)
    big = SCAN_SLICE + 100
    cuts = sorted(rng.choice(np.arange(big + 1, n), size=40, replace=False).tolist())
    parts = [t.slice(a, b - a) for a, b in zip([0, big, *cuts], [big, *cuts, n])]
    parts += [parts[1], parts[2]]
    blocks = [_ray.put(wave_rows(p)) for p in parts[::2]]
    files = []
    for i, p in enumerate(parts[1::2]):
        f = str(tmp_path / f"rows_{i}.parquet")
        pq.write_table(wave_rows(p), f)
        files.append(f)
    assert len(blocks) > 10 and len(files) > 10

    for drop in (set(), {int(s) for s in seqs[::37]}):
        drop_arr = pa.array(sorted(drop), pa.int64())
        got = list(_ray.get(fuzzy_scan_site.remote(site, thr, blocks, files, drop_arr)))
        want = list(_fuzzy_scan_tables([t], frozenset(drop)))
        assert got == want
        assert got == _naive_fuzzy_scan(t, thr, drop)
        assert 0 < len(got) < n - len(drop)  # the scan really deduped


def test_crawl_exact_over_many_small_blocks(ray_session):
    """End-to-end: a fuzzy-site crawl cut into many small blocks (many
    runs for the finalize scan's merge) still matches the sequential
    oracle exactly."""
    import pyarrow.compute as pc
    import ray as _ray

    from newsray.oracle import run_oracle
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import SyntheticWeb, WebParams

    params, policy = WebParams(only_sites=("google", "nate")), CrawlPolicy()
    pipe = CrawlPipeline(
        PipelineConfig(web_params=params, policy=policy, repartition_blocks=16)
    )
    res = pipe.run()

    def google_docs(t) -> bool:
        m = pc.and_(pc.equal(t["rowkind"], "doc"), pc.equal(t["site"], "google"))
        return pc.any(m).as_py()

    blocks = [r for d in pipe._wave_ds for r in d.to_arrow_refs()]
    runs = [t for t in _ray.get(blocks) if t.num_rows and google_docs(t)]
    assert len(runs) >= 8, len(runs)  # the scan merges many google runs
    got = sorted(
        u for b in res["articles_ds"].iter_batches(batch_format="pyarrow")
        for u in b["url"].to_pylist()
    )
    ora = run_oracle(SyntheticWeb(params), policy)
    assert got == sorted(r["url"] for r in ora.articles)
    pipe.shutdown()


def test_pipeline_starts_only_state_actors(ray_session, monkeypatch):
    """A pipeline starts exactly its seen shards, which also hold the
    politeness state and the counters (``n_sched_shards`` has no effect);
    a crawl over a fuzzy site, finalize included, starts no further actor.
    Counts actor creations of newsray classes as the driver submits them
    (the GCS registers actors asynchronously)."""
    import ray.actor

    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import WebParams

    started: list[str] = []
    create = ray.actor.ActorClass._remote

    def counted(cls, *args, **kwargs):
        meta = cls.__ray_metadata__
        if meta.modified_class.__module__.startswith("newsray."):
            started.append(meta.class_name)
        return create(cls, *args, **kwargs)

    monkeypatch.setattr(ray.actor.ActorClass, "_remote", counted)
    cfg = PipelineConfig(
        web_params=WebParams(only_sites=("google",)),
        policy=CrawlPolicy(max_waves=2),
        n_seen_shards=3,
        n_sched_shards=2,
    )
    pipe = CrawlPipeline(cfg)
    assert started == ["SeenShard"] * cfg.n_seen_shards
    res = pipe.run()
    assert res["articles_ds"].count() > 0
    assert started == ["SeenShard"] * cfg.n_seen_shards
    pipe.shutdown()


def test_task_retry_side_effects_replay_safe(ray_session):
    """Chaos test: fetch tasks die mid-wave and Ray retries them, so their
    URL claims arrive after the rest of the wave's; the claim-with-
    retraction protocol must still pick each key's minimum seq, and only
    the retried attempt's rows reach the materialized wave that the fuzzy
    scan reads — so the final output still equals the sequential oracle."""
    import ray as _ray

    from newsray.oracle import run_oracle
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import SyntheticWeb, WebParams

    @_ray.remote
    class FailOnce:
        def __init__(self):
            self.fired = 0

        def take(self) -> bool:
            self.fired += 1
            return self.fired <= 2  # kill the first two attempts' batches

        def count(self) -> int:
            return self.fired

    name = "nr_fault_once"
    inj = FailOnce.options(name=name).remote()
    params = WebParams(only_sites=("google", "nate", "naver"))
    policy = CrawlPolicy()
    res = CrawlPipeline(
        PipelineConfig(web_params=params, policy=policy, fault_inject_actor=name)
    ).run()
    assert _ray.get(inj.count.remote()) >= 3  # injections actually fired
    ora = run_oracle(SyntheticWeb(params), policy)
    arts, _, flog = tables(res)
    got = sorted(zip(flog["discovered_seq"].to_pylist(),
                     flog["canon_url"].to_pylist()))
    # fetch-log rows from killed attempts are re-emitted by the retry; the
    # LOG may carry replays (lineage is at-least-once) but the accepted
    # ARTICLE set must be exactly the oracle's
    assert sorted(set(got)) == ora.fetch_order()
    assert sorted(arts["url"].to_pylist()) == sorted(
        r["url"] for r in ora.articles
    )
    _ray.kill(inj)
