"""The committed reference-site fixture pack (tests/fixtures/refsites): one
webfixture entry per reference site carrying the reference's REAL CSS
selectors and saved pages in each site's real DOM shape. For every site the
FULL wave-loop pipeline and the sequential oracle crawl the fixture and must
agree; per-site expected URL sets pin the selector semantics themselves
(data-title unquote, og:image fallback, nth-of-type bylines, item fallback,
h4 title fallback, euc-kr payloads, fuzzy + recency drops) so both paths
cannot drift together."""

from __future__ import annotations

import os

import pytest
from conftest import tables

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "refsites")

# site → urls the crawl must accept (and nothing else)
EXPECTED = {
    "r_naver": {
        "https://real.naver.test/view/101",  # regex relevance
        "https://real.naver.test/view/103",
    },  # /view/102 carries the exclude keyword
    "r_daum": {
        "https://real.daum.test/v/201",  # span.tit_txt title
        "https://real.daum.test/v/202",  # data-title unquote fallback
    },  # /v/203 excluded (substring variant)
    "r_nate": {
        "https://real.nate.test/view/301",
        "https://real.nate.test/view/303",
    },  # /view/302 irrelevant
    "r_yna": {
        "https://real.yna.test/view/401",  # relevant only WITH p.lead text
        "https://real.yna.test/view/403",
    },
    "r_voa": {"https://real.voa.test/a/501"},  # title+summary post-fetch gate
    "r_google": {
        "https://real.google.test/articles/g601",  # './' href quirk
        "https://real.google.test/articles/g603",  # h4 title fallback
    },  # g602 fuzzy-dropped, g604 outside the 2-day recency window
    "r_fnnews": {
        "https://real.fnnews.test/v/701",
        "https://real.fnnews.test/v/703",
    },
    "r_fntoday": {
        "https://real.fntoday.test/v/801",
        "https://real.fntoday.test/v/803",
    },  # /v/802 excluded (wordset variant)
    "r_gukje": {
        "https://real.gukje.test/v/901",  # em:nth-of-type(3) byline time
        "https://real.gukje.test/v/903",
    },
    "r_skydaily": {"https://real.skydaily.test/v/1001"},  # euc-kr + summary gate
}


@pytest.fixture(scope="module")
def refsites(ray_session):
    """Register the fixture sites once for the module; unregister after so
    the rest of the suite sees only the synthetic ten."""
    from newsray.webfixture import FixtureWeb

    web = FixtureWeb(FIXTURE)
    yield web
    from newsray.sites import HOST_TO_SITE, SITE_RANK, SITES

    for s in EXPECTED:
        cfg = SITES.pop(s, None)
        SITE_RANK.pop(s, None)
        if cfg is not None:
            HOST_TO_SITE.pop(cfg.host, None)


def _crawl(only_sites):
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import WebParams

    params = WebParams(fixture_dir=FIXTURE, only_sites=only_sites)
    policy = CrawlPolicy()
    res = CrawlPipeline(PipelineConfig(web_params=params, policy=policy)).run()
    from newsray.oracle import run_oracle
    from newsray.webfixture import build_web

    ora = run_oracle(build_web(params), policy)
    arts, _, flog = tables(res)
    return arts, flog, ora


@pytest.mark.parametrize("site", sorted(EXPECTED))
def test_refsite_pipeline_matches_oracle(refsites, site):
    arts, flog, ora = _crawl((site,))
    got_order = sorted(
        zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist())
    )
    assert got_order == ora.fetch_order()
    got_urls = sorted(arts["url"].to_pylist())
    assert got_urls == sorted(r["url"] for r in ora.articles)
    assert set(got_urls) == EXPECTED[site], site
    # every accepted article parsed a real timestamp and carries its site
    assert all(a["time"] is not None and a["site"] == site for a in arts.to_pylist())


def test_refsite_all_ten_one_run(refsites):
    """All ten fixture sites in ONE crawl (cross-site seq interleaving)."""
    arts, _, ora = _crawl(tuple(sorted(EXPECTED)))
    got = sorted(arts["url"].to_pylist())
    assert got == sorted(r["url"] for r in ora.articles)
    want = sorted(u for urls in EXPECTED.values() for u in urls)
    assert got == want


def test_refsite_selector_details(refsites):
    """Pin the per-field extraction the selectors exist for."""
    arts, _, _ = _crawl(("r_daum", "r_google", "r_naver"))
    by_url = {a["url"]: a for a in arts.to_pylist()}
    # daum: data-title URL-decode fallback produced the real title
    assert by_url["https://real.daum.test/v/202"]["title"] == "정상회담 앞둔 북한 동향"
    # daum: og:image present → meta content wins; absent → thumbnail fallback
    assert by_url["https://real.daum.test/v/201"]["img"].endswith("/img/201.jpg")
    assert by_url["https://real.daum.test/v/202"]["img"].endswith("/img/202.jpg")
    # google: h4 fallback title + ISO-Z→KST time
    g3 = by_url["https://real.google.test/articles/g603"]
    assert g3["title"] == "정상회담 앞둔 북한 동향"
    assert (g3["time"].hour, g3["time"].minute) == (7, 0)  # 22:00Z + 9h
    # naver: detail-page data-date-time + <br>→newline summary cleanup
    n3 = by_url["https://real.naver.test/view/103"]
    assert (n3["time"].hour, n3["time"].minute) == (8, 10)
    assert "\n" in n3["summary"]
