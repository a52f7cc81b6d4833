"""Synthetic-web determinism + cuckoo filter / seen-shard properties
(SURVEY.md §5.5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsray.seen import CuckooFilter, shard_of, stable_hash64
from newsray.sites import SITES
from newsray.synth import SyntheticWeb, WebParams


def test_seed_frontier_mirrors_reference_counts():
    web = SyntheticWeb(WebParams())
    seeds = web.seeds()
    assert len(seeds) == 86
    per_site = {}
    for s in seeds:
        per_site[s["site"]] = per_site.get(s["site"], 0) + 1
    assert per_site == {
        "daum": 15, "naver": 10, "nate": 4, "yna": 16, "voa": 6,
        "google": 8, "fnnews": 1, "fntoday": 14, "gukje": 3, "skydaily": 9,
    }


def test_fetch_is_pure_and_deterministic():
    a, b = SyntheticWeb(WebParams()), SyntheticWeb(WebParams())
    urls = [
        "https://news.daum.test/sec/breakingnews0",
        "https://news.google.test/sec/topic0",
        "https://news.skydaily.test/sec/photo0",
    ]
    for u in urls:
        assert a.fetch(u) == b.fetch(u)
        assert a.fetch(u) == a.fetch(u)  # idempotent


def test_hot_host_skew():
    """The google host must dominate the frontier (~50%) to exercise skew
    splitting (FIXTURES.md §3)."""
    web = SyntheticWeb(WebParams())
    counts = {}
    for site, cfg in SITES.items():
        total = 0
        for seed_rank, cat in web.sections(cfg):
            for p in range(1, web.n_pages(cfg, seed_rank, cat) + 1):
                total += web.n_articles(cfg, seed_rank, p)
        counts[site] = total
    share = counts["google"] / sum(counts.values())
    assert share > 0.30, counts


def test_euc_kr_payload_roundtrip():
    web = SyntheticWeb(WebParams())
    status, enc, payload = web.fetch("https://news.skydaily.test/sec/photo0")
    assert status == 200 and enc == "euc-kr"
    assert payload.decode("euc-kr")  # decodable; Hangul keywords survive


def test_empty_page_termination_signal():
    web = SyntheticWeb(WebParams())
    cfg = SITES["nate"]
    n = web.n_pages(cfg, 0, "recent")
    status, enc, payload = web.fetch(f"https://news.nate.test/sec/recent{0}/p{n + 1}")
    assert status == 200 and b"item" not in payload  # empty listing


def test_stable_hash_is_process_independent():
    # regression pin: values must never depend on PYTHONHASHSEED
    assert stable_hash64("u:nate\x1fhttps://news.nate.test/art/x") == stable_hash64(
        "u:nate\x1fhttps://news.nate.test/art/x"
    )
    assert shard_of("abc", 4) == stable_hash64("abc") % 4


@settings(max_examples=20, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=30), min_size=1, max_size=200, unique=True))
def test_cuckoo_no_false_negatives(keys):
    cf = CuckooFilter(capacity=4096)
    for k in keys:
        assert cf.insert(k)
    for k in keys:
        assert cf.contains(k)


def test_cuckoo_false_positive_rate_reasonable():
    cf = CuckooFilter(capacity=1 << 14)
    rng = random.Random(7)
    inserted = [f"key-{i}" for i in range(5000)]
    for k in inserted:
        cf.insert(k)
    probes = [f"other-{rng.random()}" for _ in range(5000)]
    fp = sum(cf.contains(p) for p in probes)
    assert fp / len(probes) < 0.05


def test_seen_shard_check_and_insert(ray_session):
    import ray

    from newsray.seen import SeenShard

    shard = SeenShard.remote(0, 1 << 12)
    first = ray.get(shard.check_and_insert.remote(["a", "b", "a", "c"]))
    assert first == [True, True, False, True]
    second = ray.get(shard.check_and_insert.remote(["a", "d"]))
    assert second == [False, True]
    dump = ray.get(shard.dump.remote())
    assert dump == ["a", "b", "c", "d"]
    # restore into a fresh shard → same membership
    shard2 = SeenShard.remote(1, 1 << 12)
    ray.get(shard2.restore.remote(dump))
    assert ray.get(shard2.check_and_insert.remote(["a", "e"])) == [False, True]


def test_seen_shard_degraded_cuckoo_stays_exact(ray_session):
    """If the cuckoo overflows (insert failure → possible false negatives),
    the shard must fall back to the exact store — no duplicate acceptance."""
    import ray

    from newsray.seen import SeenShard

    shard = SeenShard.remote(0, 64)  # tiny capacity → guaranteed overflow
    keys = [f"k{i}" for i in range(2000)]
    first = ray.get(shard.check_and_insert.remote(keys))
    assert all(first)
    again = ray.get(shard.check_and_insert.remote(keys))
    assert not any(again)  # exact even though the filter is saturated
    # two-phase protocol under saturation
    ray.get(shard.begin_wave.remote())
    more = [f"m{i}" for i in range(500)] + keys[:500]
    seqs = list(range(len(more)))
    ray.get(shard.register_wave_min.remote(more, seqs))
    res = ray.get(shard.resolve_insert.remote(more, seqs))
    assert res[:500] == [True] * 500  # new keys accepted
    assert res[500:] == [False] * 500  # cross-wave seen rejected exactly


def test_one_phase_seen_filter_stage(ray_session):
    """The classic single-phase filter (used where min-seq determinism is
    not required, e.g. ad-hoc dedup over an already-unique stream)."""
    import pyarrow as pa
    import ray

    from newsray.seen import SeenFilterStage, make_seen_pool

    shards = make_seen_pool(2, 1 << 10)
    stage = SeenFilterStage(shards, "u", "site", "canon_url")
    t = pa.Table.from_pydict(
        {"site": ["a", "a", "b"], "canon_url": ["u1", "u1", "u1"]}
    )
    out = stage(t)
    # first (a,u1) wins within the batch order; (b,u1) is a different key
    assert out.num_rows == 2
    out2 = stage(t)
    assert out2.num_rows == 0
