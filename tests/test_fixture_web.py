"""End-to-end real-HTML crawl: the FULL wave-loop pipeline AND the
sequential oracle crawl a fixture-backed web (saved news-shaped HTML +
CSS selectors + the reference's keyword-config format), and their outputs
must be equal — the §2.9 "add a real site with zero code" story, gated by
the same conformance invariants as the synthetic corpus."""

from __future__ import annotations

import json
import os
import shutil

import pytest
from conftest import tables

FIX = os.path.join(os.path.dirname(__file__), "fixtures")

DEMO_RANK = 63  # top of the make_seq site-rank space; never collides

MANIFEST_SITES = [
    {
        "site": "demo",
        "host": "news.demo.test",
        "n_seeds": 1,
        "site_rank": DEMO_RANK,
        "relevance": "wordset",
        "check_exclude": True,
        "match_target": "title",
        "detail_hop": True,
        "has_summary": True,
        "time_formats": ["ymd_dash_hms"],
        "categories": ["latest"],
        "selectors": {
            "item": "div.section_latest_article ul li.sa_item",
            "link": "a.sa_text_title",
            "time": "span.sa_time",
            "time_attr": "data-date-time",
            "img": "img.sa_thumb",
            "lead": "p.sa_lead",
            "art_title": "h2#title_area",
            "art_time": "span.media_end_head_info_datestamp_time",
            "art_time_attr": "data-date-time",
            "art_summary": "div#dic_area",
            "art_img": "img#img1",
            "art_img_attr": "data-src",
        },
    }
]


@pytest.fixture()
def fixture_dir(tmp_path):
    d = tmp_path / "web"
    d.mkdir()
    shutil.copy(os.path.join(FIX, "real_listing.html"), d / "listing.html")
    shutil.copy(os.path.join(FIX, "real_article.html"), d / "article.html")
    (d / "News_keyword.json").write_text(
        json.dumps(
            {
                "keywords": [
                    {"category": "나라이름별", "items": ["북한", "미사일"]},
                    {"category": "단체", "items": ["정상회담"]},
                ],
                "exclude_keywords": [{"category": "쇼핑", "items": ["쇼핑"]}],
            },
            ensure_ascii=False,
        ),
        encoding="utf-8",
    )
    manifest = {
        "sites": MANIFEST_SITES,
        "seeds": [
            {
                "site": "demo",
                "url": "https://news.demo.test/sec/latest0",
                "category": "latest",
                "seed_rank": 0,
            }
        ],
        "pages": {
            "https://news.demo.test/sec/latest0": {"file": "listing.html"},
            # only the relevant candidate's detail page exists; the others
            # 404 (drop-and-continue, reference behavior)
            "https://news.demo.test/news/view/2025041801": {"file": "article.html"},
        },
    }
    (d / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    yield str(d)
    # un-register the dynamic site so other tests see the reference ten
    from newsray.sites import HOST_TO_SITE, SITE_RANK, SITES

    SITES.pop("demo", None)
    SITE_RANK.pop("demo", None)
    HOST_TO_SITE.pop("news.demo.test", None)


def test_fixture_web_pipeline_matches_oracle(ray_session, fixture_dir):
    from newsray.oracle import run_oracle
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import WebParams
    from newsray.webfixture import build_web

    params = WebParams(fixture_dir=fixture_dir)
    policy = CrawlPolicy()
    pipe = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    res = pipe.run()
    ora = run_oracle(build_web(params), policy)

    arts, docs, flog = tables(res)
    got = sorted(zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist()))
    assert got == ora.fetch_order()
    # listing + the ONE relevant article's detail fetch (others 404 / dropped)
    assert len(got) >= 2

    assert sorted(arts["url"].to_pylist()) == sorted(r["url"] for r in ora.articles)
    assert arts.num_rows == 1  # exactly the ≥2-include, no-exclude candidate
    rec = arts.to_pylist()[0]
    assert rec["title"] == "북한 미사일 발사 정황 포착"
    assert rec["time"].hour == 9 and rec["time"].minute == 30
    assert "\n" in rec["summary"]  # <br> → newline via the selector engine
    assert rec["img"].endswith("2025041801.jpg")

    # span-sequence invariant holds on real HTML too
    docs = docs.to_pylist()
    assert len(docs) == 1
    kinds = [s["kind"] for s in docs[0]["spans"]]
    assert kinds == ["title", "time", "summary", "image", "link"]
