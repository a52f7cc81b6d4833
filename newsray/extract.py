"""Payload parsing + article/span assembly (SURVEY.md §2.2 M1-M3, M8-M10).

The reference parses listing/detail HTML with per-site CSS selectors; here a
compiled-regex extractor plays that role over the synthetic-web payloads
(BeautifulSoup is not available in this sandbox and regex extraction is the
faster scale path anyway). The *structure* is what matters: a listing page
yields DOM-ordered items (href, title, optional time/img/lead), a detail
page yields (title, time_raw, summary, img).

The scalar builders at the bottom are shared verbatim by the Ray pipeline
and the sequential oracle: ``finalize_article`` is the one per-article tail
for listing items and article pages alike, and ``article_spans`` defines
the span sequence, so the per-row invariant ``(kind, text, media_ref,
order)`` holds by construction wherever both paths accept the same
article.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime

from .canonicalize import absolutize
from .datefns import day_group_label, iso, parse_cascade
from .sites import SiteConfig

_ITEM_RE = re.compile(
    r'<li class="item"><a class="lnk" href="([^"]*)">(.*?)</a>(.*?)</li>', re.S
)
_TSTAMP_RE = re.compile(r'<span class="tstamp">(.*?)</span>', re.S)
_THUMB_RE = re.compile(r'<img class="thumb" src="([^"]*)"')
_LEAD_RE = re.compile(r'<p class="lead">(.*?)</p>', re.S)
_HEADLINE_RE = re.compile(r'<h1 class="headline">(.*?)</h1>', re.S)
_PUBLISHED_RE = re.compile(r'<span class="published">(.*?)</span>', re.S)
_BODY_RE = re.compile(r'<div class="article-body"><p>(.*?)</p></div>', re.S)
_OG_RE = re.compile(r'<img class="og" src="([^"]*)"')


@dataclass
class ListingItem:
    dom_idx: int
    href: str
    title: str
    time_raw: str | None = None
    img: str | None = None
    lead: str | None = None


def decode_payload(payload: bytes, encoding: str) -> str:
    """Encoding is data (one reference site is euc-kr, another sniffs)."""
    try:
        return payload.decode(encoding or "utf-8")
    except (UnicodeDecodeError, LookupError):
        return payload.decode("utf-8", errors="replace")


def parse_listing(html: str) -> list[ListingItem]:
    items: list[ListingItem] = []
    for dom_idx, m in enumerate(_ITEM_RE.finditer(html)):
        href, title, extras = m.group(1), m.group(2).strip(), m.group(3)
        ts = _TSTAMP_RE.search(extras)
        img = _THUMB_RE.search(extras)
        lead = _LEAD_RE.search(extras)
        items.append(
            ListingItem(
                dom_idx=dom_idx,
                href=href,
                title=title,
                time_raw=ts.group(1).strip() if ts else None,
                img=img.group(1) if img else None,
                lead=lead.group(1).strip() if lead else None,
            )
        )
    return items


# ---------------------------------------------------------------------------
# CSS-selector-driven extraction over REAL HTML (SURVEY §2.9 extension
# surface): a SiteConfig carries a SelectorSet and ONE engine parses any
# site's pages — the rebuild's equivalent of the reference's per-script
# BeautifulSoup selects (Naver_Crawler.py:109-117, Daum_crawler.py:95-100,
# Google_Crawler.py:163-204). The synthetic-corpus sites keep the compiled
# regex fast path (selectors=None).
# ---------------------------------------------------------------------------

from dataclasses import dataclass as _dataclass


@_dataclass(frozen=True)
class SelectorSet:
    """Declarative per-site CSS selectors. ``item`` scopes a listing entry;
    the others resolve within it (or the article page for ``art_*``).
    ``*_attr`` pulls an attribute instead of element text.

    Fallback surface (each mirrors a reference crawler's exact cascade):
    * ``item_fallback`` — tried when ``item`` matches nothing
      (``article`` → ``div.XlKvRb, div.NiLAwe``, Google_Crawler.py:163-166);
    * ``link="&"`` — the item element IS the anchor
      (``.item_newsheadline2`` is an ``<a>``, Daum_crawler.py:88;
      ``div.picarticle a``, SkyDaily_Crawler.py:148);
    * ``title_fallback`` — secondary title element
      (``h3, h4`` when the link text is empty, Google_Crawler.py:200-204);
    * ``title_fallback_attr`` (+ ``title_unquote``) — attribute fallback,
      URL-decoded (``data-title`` + unquote, Daum_crawler.py:98-100);
      when ANY title selector is configured and the whole cascade comes up
      empty the item is SKIPPED (``if not text_content: return False``);
    * ``art_img_fallback`` / ``art_img_fallback_attr`` — second-chance
      article image (``meta[property="og:image"]`` then
      ``img[alt="thumbnail"]``, Daum_crawler.py:64-68)."""

    item: str
    item_fallback: str | None = None
    link: str = "a"  # "&" → the item element itself is the anchor
    title: str | None = None  # None → the link's text
    title_attr: str | None = None
    title_fallback: str | None = None
    title_fallback_attr: str | None = None
    title_unquote: bool = False
    time: str | None = None
    time_attr: str | None = None
    img: str | None = None
    img_attr: str = "src"
    lead: str | None = None
    art_title: str | None = None
    art_time: str | None = None
    art_time_attr: str | None = None
    art_summary: str | None = None
    art_img: str | None = None
    art_img_attr: str = "src"
    art_img_fallback: str | None = None
    art_img_fallback_attr: str = "src"


def _sel_value(scope, selector: str | None, attr: str | None):
    from .htmlsel import select_one

    if selector is None:
        return None
    el = select_one(scope, selector)
    if el is None:
        return None
    if attr:
        return el.get(attr)
    return el.text.strip()


def parse_listing_selectors(html: str, sel: SelectorSet) -> list[ListingItem]:
    from urllib.parse import unquote

    from .htmlsel import parse_html, select, select_one

    root = parse_html(html)
    item_els = select(root, sel.item)
    if not item_els and sel.item_fallback:
        item_els = select(root, sel.item_fallback)
    has_title_sel = bool(
        sel.title or sel.title_attr or sel.title_fallback or sel.title_fallback_attr
    )
    items: list[ListingItem] = []
    for dom_idx, el in enumerate(item_els):
        a = el if sel.link == "&" else select_one(el, sel.link)
        if a is None:
            continue
        if has_title_sel:
            title = _sel_value(el, sel.title or sel.link, sel.title_attr)
            if not title and sel.title_fallback:
                title = _sel_value(el, sel.title_fallback, None)
            if not title and sel.title_fallback_attr:
                v = el.get(sel.title_fallback_attr)
                if v:
                    title = unquote(v) if sel.title_unquote else v
            if not title:  # configured cascade exhausted → item skipped
                continue
        else:
            title = a.text.strip()
        img_el = select_one(el, sel.img) if sel.img else None
        lead_el = select_one(el, sel.lead) if sel.lead else None
        items.append(
            ListingItem(
                dom_idx=dom_idx,
                href=a.get("href") or "",
                title=title,
                time_raw=_sel_value(el, sel.time, sel.time_attr),
                img=img_el.get(sel.img_attr) if img_el is not None else None,
                lead=lead_el.inner_html().strip() if lead_el is not None else None,
            )
        )
    return items


def parse_article_selectors(html: str, sel: SelectorSet) -> dict:
    from .htmlsel import parse_html, select_one

    root = parse_html(html)
    summ_el = select_one(root, sel.art_summary) if sel.art_summary else None
    img_el = select_one(root, sel.art_img) if sel.art_img else None
    img = (img_el.get(sel.art_img_attr) or "") if img_el is not None else ""
    if not img and sel.art_img_fallback:  # Daum's og:image → thumbnail cascade
        fb = select_one(root, sel.art_img_fallback)
        if fb is not None:
            img = fb.get(sel.art_img_fallback_attr) or ""
    return {
        "title": _sel_value(root, sel.art_title, None) or "",
        "time_raw": _sel_value(root, sel.art_time, sel.art_time_attr),
        "summary": summ_el.inner_html().strip() if summ_el is not None else None,
        "img": img,
    }


def parse_listing_for(cfg: SiteConfig, html: str) -> list[ListingItem]:
    """Dispatch: selector-driven engine for real-HTML sites, compiled-regex
    fast path for the synthetic corpus (both produce the same item shape)."""
    if cfg.selectors is not None:
        return parse_listing_selectors(html, cfg.selectors)
    return parse_listing(html)


def parse_article_for(cfg: SiteConfig, html: str) -> dict:
    if cfg.selectors is not None:
        return parse_article_selectors(html, cfg.selectors)
    return parse_article(html)


def parse_article(html: str) -> dict:
    t = _HEADLINE_RE.search(html)
    p = _PUBLISHED_RE.search(html)
    b = _BODY_RE.search(html)
    g = _OG_RE.search(html)
    return {
        "title": t.group(1).strip() if t else "",
        "time_raw": p.group(1).strip() if p else None,
        "summary": b.group(1).strip() if b else None,
        "img": g.group(1) if g else "",
    }


# ---------------------------------------------------------------------------
# shared scalar assembly (pipeline + oracle)
# ---------------------------------------------------------------------------


def finalize_article(
    cfg: SiteConfig,
    canon_url: str,
    title: str,
    time_raw: str | None,
    summary: str | None,
    img: str | None,
    seq: int,
    now: datetime,
) -> dict | None:
    """Time-parse (drop on failure), image absolutization, summary cleanup,
    day-group label — the per-record tail every site shares. None = dropped."""
    from .textfns import html_to_text

    ts = parse_cascade(time_raw, cfg.time_formats, now)
    if ts is None:
        return None  # unparseable time → record dropped (reference behavior)
    img_abs = ""
    if img:
        img_abs = absolutize(img, f"https://{cfg.host}/")
    summ = html_to_text(summary) if (cfg.has_summary and summary) else None
    return {
        "site": cfg.site,
        "title": title,
        "time": ts,
        "img": img_abs,
        "url": canon_url,
        "original_url": canon_url,
        "summary": summ,
        "date_group": day_group_label(ts, cfg.weekday_style),
        "discovered_seq": seq,
    }


def article_spans(rec: dict, cfg: SiteConfig) -> list[dict]:
    """Interleaved span sequence for the `documents` table. Order-significant;
    absent fields DROP their span; ``offset`` = position after drops."""
    spans: list[dict] = []

    def add(kind: str, text: str, media_ref: str) -> None:
        spans.append(
            {"kind": kind, "text": text, "media_ref": media_ref, "offset": len(spans)}
        )

    add("title", rec["title"], "")
    add("time", iso(rec["time"]), "")
    if cfg.has_summary and rec.get("summary"):
        add("summary", rec["summary"], "")
    if rec.get("img"):
        add("image", "", rec["img"])
    add("link", "", rec["url"])
    return spans


# ---------------------------------------------------------------------------
# discovery-order sequencing (SURVEY §2.9 / §7.5.1)
# ---------------------------------------------------------------------------


def make_seq(site_rank: int, depth: int, seed_rank: int, page_no: int, dom_idx: int) -> int:
    """Deterministic total discovery order: site → depth → seed → page → DOM.
    Packs into int64; crawl-order equality compares fetch logs sorted by it."""
    assert 0 <= depth < 256 and 0 <= seed_rank < 4096 and 0 <= page_no < 4096
    assert 0 <= dom_idx < (1 << 24) and 0 <= site_rank < 64
    return (
        (site_rank << 56)
        | (depth << 48)
        | (seed_rank << 36)
        | (page_no << 24)
        | dom_idx
    )
