"""S5 existing-output bootstrap: the reference's get_existing_links — seed
the URL-seen set from prior day-grouped JSON exports (no checkpoint), with
the reference's exact corruption tolerance (Google_Crawler.py:112-145)."""

import json
import os

import pytest
from conftest import tables


def test_get_existing_links_tolerance(tmp_path):
    from newsray.sink import get_existing_links

    # missing file -> created with an empty list, empty set returned
    p = tmp_path / "naver_News.json"
    assert get_existing_links(str(p)) == set()
    assert json.load(open(p)) == []

    # non-list payload -> reset (empty)
    p.write_text('{"not": "a list"}')
    assert get_existing_links(str(p)) == set()

    # decode error -> start fresh
    p.write_text("{corrupted json!!")
    assert get_existing_links(str(p)) == set()

    # malformed entries skipped, good urls extracted
    p.write_text(json.dumps([
        {"date": "d1", "articles": [{"url": "http://a.test/1", "title": "t"},
                                    {"no_url": True}, "not-a-dict"]},
        {"articles": "not-a-list"},
        "not-a-dict",
        {"date": "d2", "articles": [{"url": "http://a.test/2"}]},
    ]))
    assert get_existing_links(str(p)) == {"http://a.test/1", "http://a.test/2"}


@pytest.fixture(scope="module")
def first_run(ray_session, tmp_path_factory):
    """One mini crawl + its day-grouped JSON export."""
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.sink import day_grouped_export_ds
    from newsray.synth import WebParams

    params = WebParams(only_sites=("nate", "naver"))
    policy = CrawlPolicy()
    res = CrawlPipeline(PipelineConfig(web_params=params, policy=policy)).run()
    out_dir = str(tmp_path_factory.mktemp("dayjson"))
    day_grouped_export_ds(res["articles_ds"], out_dir)
    return params, policy, tables(res)[0], out_dir


def test_bootstrap_rerun_matches_preseeded_oracle(first_run):
    """Reference rerun semantics: listings re-fetch, URL-seen articles never
    re-emit — but a title whose run-1 winner is now URL-suppressed CAN go to
    the runner-up (titles are per-run in the reference too, only URLs load
    from the output file). So the fidelity statement is full equivalence
    with the oracle under the same pre-seeded URL set, plus a strictly
    smaller article set."""
    from newsray.oracle import run_oracle
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.synth import SyntheticWeb

    params, policy, arts1, out_dir = first_run
    assert arts1.num_rows > 0

    pipe2 = CrawlPipeline(
        PipelineConfig(web_params=params, policy=policy, bootstrap_output_dir=out_dir)
    )
    arts2, _, flog2 = tables(pipe2.run())
    assert arts2.num_rows < arts1.num_rows
    # listings still fetched (the reference re-fetches everything)
    assert flog2.num_rows > 0

    # full equivalence with the oracle under the same pre-seeded seen set
    pre = {(s, u) for s, u in zip(arts1["site"].to_pylist(),
                                  arts1["url"].to_pylist())}
    ora = run_oracle(SyntheticWeb(params), policy, pre_seen_urls=pre)
    assert sorted(arts2["url"].to_pylist()) == sorted(
        r["url"] for r in ora.articles
    )
    po = sorted(zip(flog2["discovered_seq"].to_pylist(),
                    flog2["canon_url"].to_pylist()))
    assert po == ora.fetch_order()


def test_bootstrap_tolerates_one_corrupt_site_file(first_run, tmp_path):
    """One corrupt site file starts THAT site fresh; others stay seeded
    (per-site isolation, as in the reference's per-crawler readers)."""
    import shutil

    from newsray.pipeline import CrawlPipeline, PipelineConfig

    params, policy, arts1, out_dir = first_run
    broken = str(tmp_path / "broken")
    shutil.copytree(out_dir, broken)
    with open(os.path.join(broken, "nate_News.json"), "w") as f:
        f.write("{definitely not json")

    pipe = CrawlPipeline(
        PipelineConfig(web_params=params, policy=policy, bootstrap_output_dir=broken)
    )
    arts = tables(pipe.run())[0]
    sites = set(arts["site"].to_pylist())
    # nate re-emits (its seen set reset), naver stays suppressed
    n1_nate = sum(1 for s in arts1["site"].to_pylist() if s == "nate")
    assert sites == ({"nate"} if n1_nate else set())
    n_nate = sum(1 for s in arts["site"].to_pylist() if s == "nate")
    assert n_nate == n1_nate


def test_bootstrap_survives_checkpoint_resume(first_run, tmp_path):
    """A bootstrapped, checkpointed crawl keeps the seeded URLs with its
    wave 0 input: killed after wave 0 and resumed (the checkpoint wins, the
    exports are not re-read), it equals the oracle under the same
    pre-seeded URL set, in fetch order, articles and seen sets."""
    import shutil

    from newsray import checkpoint as ckpt
    from newsray.oracle import run_oracle
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import SyntheticWeb

    params, policy, arts1, out_dir = first_run
    exports = str(tmp_path / "exports")
    shutil.copytree(out_dir, exports)
    ck = str(tmp_path / "ck")
    killed = CrawlPipeline(
        PipelineConfig(
            web_params=params, policy=CrawlPolicy(max_waves=1), checkpoint_dir=ck,
            bootstrap_output_dir=exports,
        )
    )
    killed.run()
    assert os.path.exists(os.path.join(ck, "wave_000", "seen_in.parquet"))
    shutil.rmtree(exports)  # a resume reads the seeded URLs from the checkpoint
    resumed = CrawlPipeline(
        PipelineConfig(
            web_params=params, policy=policy, checkpoint_dir=ck,
            bootstrap_output_dir=exports, n_seen_shards=3,
        )
    )
    assert ckpt.restore(resumed, ck)
    assert resumed.dump_seen() == killed.dump_seen()
    arts, _, flog = tables(resumed.run())
    assert resumed.start_wave == 1

    pre = set(zip(arts1["site"].to_pylist(), arts1["url"].to_pylist()))
    ora = run_oracle(SyntheticWeb(params), policy, pre_seen_urls=pre)
    assert sorted(arts["url"].to_pylist()) == sorted(r["url"] for r in ora.articles)
    po = sorted(zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist()))
    assert po == ora.fetch_order()
    assert resumed.dump_seen() == (ora.url_seen, ora.title_seen)
    killed.shutdown()
    resumed.shutdown()
