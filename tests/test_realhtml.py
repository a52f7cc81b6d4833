"""Real-HTML extraction surface (SURVEY §2.9):

* the CSS-selector-lite engine (htmlsel.py) against hand-written
  news-shaped fixture HTML;
* SelectorSet-driven listing/article extraction producing the SAME item
  shapes the synthetic regex path produces, flowing through the standard
  finalize_article / article_spans tail.
"""

from __future__ import annotations

import os

from newsray.canonicalize import canonicalize, is_valid_href
from newsray.datefns import DEFAULT_NOW
from newsray.extract import (
    SelectorSet,
    article_spans,
    finalize_article,
    parse_article_for,
    parse_listing_for,
)
from newsray.htmlsel import parse_html, select, select_one
from newsray.sites import SiteConfig

FIX = os.path.join(os.path.dirname(__file__), "fixtures")

DEMO_SELECTORS = SelectorSet(
    item="div.section_latest_article ul li.sa_item",
    link="a.sa_text_title",
    title_attr=None,
    time="span.sa_time",
    time_attr="data-date-time",
    img="img.sa_thumb",
    img_attr="src",
    lead="p.sa_lead",
    art_title="h2#title_area",
    art_time="span.media_end_head_info_datestamp_time",
    art_time_attr="data-date-time",
    art_summary="div#dic_area",
    art_img="img#img1",
    art_img_attr="data-src",
)

DEMO_SITE = SiteConfig(
    site="demo",
    host="news.demo.test",
    n_seeds=1,
    relevance="wordset",
    check_exclude=True,
    match_target="title",
    has_summary=True,
    time_formats=("ymd_dash_hms",),
    categories=("latest",),
    selectors=DEMO_SELECTORS,
)


def _read(name: str) -> str:
    with open(os.path.join(FIX, name), encoding="utf-8") as f:
        return f.read()


# -- selector engine ---------------------------------------------------------


def test_selector_engine_basics():
    root = parse_html(_read("real_listing.html"))
    assert len(select(root, "li.sa_item")) == 5  # incl. ad + other section
    assert len(select(root, "div.section_latest_article ul li.sa_item")) == 4
    assert len(select(root, "li.sa_item.ad_item")) == 1
    assert select_one(root, "#wrap") is not None
    assert len(select(root, "span[data-date-time]")) == 3
    t = select_one(root, 'span[data-date-time=2025-04-18 08:10:00]')
    assert t is not None and t.text.strip() == "08:10"
    # comma alternation + child combinator
    assert len(select(root, "div.other_section a, div.section_latest_article a")) == 5
    assert len(select(root, "ul.sa_list > li")) == 4


def test_selector_engine_text_and_attrs():
    root = parse_html(_read("real_article.html"))
    h = select_one(root, "h2#title_area")
    assert h.text.strip() == "북한 미사일 발사 정황 포착"
    img = select_one(root, "img#img1")
    assert img.get("data-src", "").endswith("2025041801.jpg")
    body = select_one(root, "div#dic_area")
    assert "<br" in body.inner_html()  # summary keeps <br> for html_to_text


# -- SelectorSet extraction through the standard pipeline tail ---------------


def test_real_listing_extraction():
    items = parse_listing_for(DEMO_SITE, _read("real_listing.html"))
    assert len(items) == 4  # scoped to the latest-articles section
    assert [i.dom_idx for i in items] == [0, 1, 2, 3]
    assert items[0].title == "북한 미사일 발사 정황 포착"
    assert items[0].time_raw == "2025-04-18 09:30:00"
    assert items[0].img == "//img.demo.test/thumb/2025041801.jpg"
    assert "발사 정황을 포착" in items[0].lead
    assert not is_valid_href(items[2].href)  # javascript: ad link drops
    # relative + query-stripped canonicalization over real hrefs
    base = "https://news.demo.test/sec/latest"
    canon1, host1 = canonicalize(items[1].href, base)
    assert canon1 == "https://news.demo.test/news/view/2025041802"
    assert host1 == "news.demo.test"


def test_real_article_through_finalize_and_spans():
    detail = parse_article_for(DEMO_SITE, _read("real_article.html"))
    assert detail["title"] == "북한 미사일 발사 정황 포착"
    assert detail["time_raw"] == "2025-04-18 09:30:00"
    assert detail["img"].endswith("2025041801.jpg")
    rec = finalize_article(
        DEMO_SITE,
        "https://news.demo.test/news/view/2025041801",
        detail["title"],
        detail["time_raw"],
        detail["summary"],
        detail["img"],
        7,
        DEFAULT_NOW,
    )
    assert rec is not None
    assert rec["time"].hour == 9 and rec["time"].minute == 30
    assert "\n" in rec["summary"]  # <br> became newline (M8)
    spans = article_spans(rec, DEMO_SITE)
    kinds = [s["kind"] for s in spans]
    assert kinds == ["title", "time", "summary", "image", "link"]
    assert [s["offset"] for s in spans] == [0, 1, 2, 3, 4]
