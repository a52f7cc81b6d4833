"""Pipeline-vs-oracle conformance (SURVEY.md §5.1, north_rule gates):

(a) crawl-order equality — seq-sorted fetch log;
(b) URL-seen and title-seen set equality;
(c) per-row span-sequence equality (kind, text, media_ref, order);
plus politeness spacing, budget equality and dedup idempotence.
"""

import pytest
from conftest import tables

from newsray.extract import article_spans
from newsray.oracle import run_oracle
from newsray.pipeline import CrawlPipeline, PipelineConfig
from newsray.policy import CrawlPolicy
from newsray.seen import shard_of
from newsray.sites import SITES
from newsray.synth import SyntheticWeb, WebParams

MINI_SITES = ("nate", "naver", "google", "skydaily")  # 1- & 2-hop, paginated,
# title-seen, fuzzy, recency, euc-kr — every semantic family in ~3 waves


@pytest.fixture(scope="module")
def full_run(ray_session):
    params, policy = WebParams(), CrawlPolicy()
    pipe = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    res = pipe.run()
    ora = run_oracle(SyntheticWeb(params), policy)
    return pipe, res, ora


def test_crawl_order_equality(full_run):
    pipe, res, ora = full_run
    flog = tables(res)[2]
    got = sorted(
        zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist())
    )
    assert got == ora.fetch_order()
    assert len(got) == len(set(got))  # no re-fetch within a run


def test_url_and_title_seen_set_equality(full_run):
    import ray

    pipe, res, ora = full_run
    url_seen, title_seen = pipe.dump_seen()
    assert url_seen == ora.url_seen
    assert title_seen == ora.title_seen
    # dump_seen unions the shards, so it cannot see a key stored on a shard
    # that lookups never consult: check each key's placement directly
    n = len(pipe.seen_shards)
    for i, keys in enumerate(ray.get([s.dump.remote() for s in pipe.seen_shards])):
        assert all(shard_of(k, n) == i for k in keys), i


def test_article_rows_equal(full_run):
    _, res, ora = full_run
    arts = tables(res)[0]
    got = sorted(
        zip(
            arts["discovered_seq"].to_pylist(),
            arts["url"].to_pylist(),
            arts["title"].to_pylist(),
            arts["time"].to_pylist(),
            arts["img"].to_pylist(),
            arts["summary"].to_pylist(),
            arts["date_group"].to_pylist(),
        )
    )
    want = sorted(
        (
            r["discovered_seq"],
            r["url"],
            r["title"],
            r["time"],
            r["img"],
            r["summary"],
            r["date_group"],
        )
        for r in ora.articles
    )
    assert got == want


def test_span_sequence_equality(full_run):
    """input_hint invariant: per-row (kind, text, media_ref, order) equality
    between pipeline `documents` rows and oracle-extracted articles."""
    _, res, ora = full_run
    docs = {row["doc_id"]: row["spans"] for row in tables(res)[1].to_pylist()}
    assert len(docs) == len(ora.articles)
    for rec in ora.articles:
        want = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in article_spans(rec, SITES[rec["site"]])
        ]
        got = [
            (s["kind"], s["text"], s["media_ref"], s["offset"])
            for s in docs[rec["url"]]
        ]
        assert got == want, rec["url"]
    # structural sanity on every row: offsets are 0..n-1, kinds in order
    order = {"title": 0, "time": 1, "summary": 2, "image": 3, "link": 4}
    for doc_id, spans in docs.items():
        assert [s["offset"] for s in spans] == list(range(len(spans)))
        kinds = [order[s["kind"]] for s in spans]
        assert kinds == sorted(kinds)
        assert spans[0]["kind"] == "title" and spans[-1]["kind"] == "link"


def test_politeness_spacing(full_run):
    """Per-host fetch release times spaced ≥ the site's politeness delay."""
    _, res, _ = full_run
    flog = tables(res)[2].to_pylist()
    by_host: dict[str, list[float]] = {}
    for r in flog:
        by_host.setdefault(r["host"], []).append(r["released_at_virtual"])
    for host, times in by_host.items():
        site = [s for s, c in SITES.items() if c.host == host][0]
        delay = SITES[site].politeness_delay
        times.sort()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= delay - 1e-9 for g in gaps), (host, min(gaps))


def test_budget_equality(ray_session):
    """Per-host robots budget: pipeline drops the same fetches the oracle
    drops (wave order, seq order within wave)."""
    params = WebParams(only_sites=MINI_SITES)
    policy = CrawlPolicy(host_budget=7)
    pipe = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    res = pipe.run()
    ora = run_oracle(SyntheticWeb(params), policy)
    arts, _, flog = tables(res)
    got = sorted(zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist()))
    assert got == ora.fetch_order()
    assert sorted(arts["url"].to_pylist()) == sorted(
        r["url"] for r in ora.articles
    )


def test_rerun_idempotence(ray_session):
    """Re-running against the previous run's seen state emits nothing new —
    the reference's cross-run behavior (its output file is its seen set)."""
    import ray

    params = WebParams(only_sites=("naver", "fnnews"))
    policy = CrawlPolicy()
    p1 = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    r1 = p1.run()
    assert tables(r1)[0].num_rows > 0
    dumps = ray.get([s.dump.remote() for s in p1.seen_shards])
    p2 = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    for shard, keys in zip(p2.seen_shards, dumps):
        ray.get(shard.restore.remote(keys))
    r2 = p2.run()
    assert tables(r2)[0].num_rows == 0  # every candidate already seen


def test_streaming_finalize_matches_oracle_without_driver_collect(ray_session):
    """run() produces exactly the oracle's article set and span rows, read
    straight from its datasets (``articles_ds``, ``documents_ds``)."""
    params, policy = WebParams(only_sites=MINI_SITES), CrawlPolicy()
    pipe = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    res = pipe.run()
    arts = res["articles_ds"].to_pandas()
    ora = run_oracle(SyntheticWeb(params), policy)
    got = sorted(zip(arts["discovered_seq"], arts["url"], arts["title"]))
    want = sorted((r["discovered_seq"], r["url"], r["title"]) for r in ora.articles)
    assert got == want
    # span rows survive the distributed pivot
    n_spans = sum(len(r["spans"]) for r in res["documents_ds"].take_all())
    from newsray.extract import article_spans

    assert n_spans == sum(len(article_spans(r, SITES[r["site"]])) for r in ora.articles)


def test_robots_and_drop_paths_exercised(full_run):
    """The corpus must actually hit every drop path the engine implements —
    a gate that never fires is untested code (robots, off-host, invalid,
    junk-time, seen-dup, relevance, budgetless run)."""
    _, _, ora = full_run
    by_counter: dict[str, int] = {}
    for (site, counter), v in ora.metrics.items():
        by_counter[counter] = by_counter.get(counter, 0) + v
    for counter in (
        "dropped_robots",
        "dropped_offhost",
        "dropped_invalid",
        "dropped_seen_url",
        "dropped_seen_title",
        "dropped_relevance",
        "dropped_time",
        "dropped_recency",
        "dropped_fuzzy",
        "accepted",
    ):
        assert by_counter.get(counter, 0) > 0, counter
