"""Deterministic synthetic web + keyword config (SURVEY.md §7.2 step 1).

The reference crawls ten real news sites; in this sealed sandbox the web is
replaced by a DETERMINISTIC PURE FUNCTION ``canon_url -> page`` — no stored
corpus, no memory growth, any frontier size. The fetcher actor holds only
the small parameter block and *generates* each page's payload on demand;
the oracle consumes the identical function, so pipeline-vs-oracle equality
is meaningful. At 10^10-URL scale the same fetcher interface is backed by
real HTTP (SURVEY §2.1 S3).

Everything is keyed off ``blake2b(seed, …)`` — stable across processes and
PYTHONHASHSEED (``random.Random`` seeded per article/page, never shared).

The synthetic web deliberately exercises every semantic corner in
SURVEY §2: URL quirks (query strings, protocol-relative, ``./``-relative,
host-dot forms, javascript: junk), duplicate hrefs within and across pages,
cross-host links, all relevance classes (≥2-include / 1-include /
include+exclude / no-match), ≥8 timestamp formats incl. unparseable junk,
missing/relative images, ``<br>``-laced summaries, exact- and fuzzy-duplicate
titles, euc-kr payloads, empty-page pagination termination, and a hot host
(google) holding ~half the frontier for skew-splitting tests.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from .datefns import DEFAULT_NOW
from .sites import SITES, SiteConfig

# ---------------------------------------------------------------------------
# keyword config (mirrors News_keyword.json proportions: 486 include in 6
# categories / 259 exclude in 9 categories; synthetic tokens, incl. Hangul)
# ---------------------------------------------------------------------------

_SYL = ("ba", "do", "ki", "mu", "ne", "po", "ra", "su", "ta", "vo")
_HANGUL = ("북한", "미사일", "정상회담", "외교", "안보", "제재", "핵실험", "통일", "연합훈련", "접경")
_HANGUL_EXC = ("연예", "스포츠", "날씨", "광고", "쇼핑")
_INC_CATS = ("country", "org", "disaster", "person", "misc", "weapon")
_EXC_CATS = ("ent", "sport", "ad", "shop", "life", "auto", "game", "photo", "etc")


def _words(prefix: str, n: int, rng: random.Random) -> list[str]:
    out: set[str] = set()
    while len(out) < n:
        out.add(prefix + "".join(rng.choice(_SYL) for _ in range(3)))
    return sorted(out)


def load_keyword_config(path: str) -> tuple[list[str], list[str], list[dict]]:
    """Ingest the reference's keyword-config file format — a JSON object
    ``{"keywords": [{"category": str, "items": [str, ...]}, ...],
    "exclude_keywords": [...]}`` — flattening category lists in order
    (loader parity: Daum_crawler.py:17-23; the same shape is loaded
    identically by all ten reference crawlers). Returns
    (includes, excludes, rows) with rows shaped for the `keywords` table."""
    import json

    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    includes = [item for cat in data["keywords"] for item in cat["items"]]
    excludes = [item for cat in data["exclude_keywords"] for item in cat["items"]]
    rows = [
        {"keyword": item, "category": cat["category"], "polarity": "include"}
        for cat in data["keywords"]
        for item in cat["items"]
    ] + [
        {"keyword": item, "category": cat["category"], "polarity": "exclude"}
        for cat in data["exclude_keywords"]
        for item in cat["items"]
    ]
    return includes, excludes, rows


def build_keywords(seed: int = 42, n_include: int = 486, n_exclude: int = 259):
    """Return (includes, excludes, rows) — rows for the `keywords` table."""
    rng = random.Random(seed * 7919 + 13)
    includes = _words("k", n_include - len(_HANGUL), rng) + list(_HANGUL)
    excludes = _words("x", n_exclude - len(_HANGUL_EXC), rng) + list(_HANGUL_EXC)
    rows = [
        {"keyword": k, "category": _INC_CATS[i % len(_INC_CATS)], "polarity": "include"}
        for i, k in enumerate(includes)
    ] + [
        {"keyword": k, "category": _EXC_CATS[i % len(_EXC_CATS)], "polarity": "exclude"}
        for i, k in enumerate(excludes)
    ]
    return includes, excludes, rows


# ---------------------------------------------------------------------------
# parameter block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WebParams:
    seed: int = 42
    now: datetime = DEFAULT_NOW
    articles_per_listing: int = 8
    hot_factor: int = 12  # google listings carry hot_factor× more items
    extra_sections: int = 0  # extra seed sections per site beyond the 86
    p_junk_href: float = 0.02
    p_robots_path: float = 0.02  # hrefs under /priv/ — robots-disallowed by default policy
    p_dup_in_page: float = 0.05
    p_dup_cross_page: float = 0.04
    p_cross_host: float = 0.03
    p_junk_time: float = 0.04
    p_exact_dup_title: float = 0.04
    p_fuzzy_dup_title: float = 0.05
    n_include: int = 486
    n_exclude: int = 259
    # restrict the seed frontier to a subset of sites (mini fixtures); the
    # synthetic web itself still serves every host
    only_sites: tuple[str, ...] | None = None
    # real-HTML mode: path to a fixture dir (webfixture.FixtureWeb) — the
    # web backend serves saved pages instead of the synthetic generator
    fixture_dir: str | None = None


def _h(params: WebParams, *parts) -> int:
    key = "\x1f".join(str(p) for p in (params.seed, *parts)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _rng(params: WebParams, *parts) -> random.Random:
    return random.Random(_h(params, *parts))


# ---------------------------------------------------------------------------
# the synthetic web
# ---------------------------------------------------------------------------

_LISTING_RE = re.compile(r"^/sec/([a-z]+)(\d+)(?:/p(\d+))?$")
_ARTICLE_RE = re.compile(r"^/art/([a-z0-9]+)$")


@dataclass
class SyntheticWeb:
    """``fetch(canon_url) -> (status, encoding, payload bytes)`` — pure."""

    params: WebParams = field(default_factory=WebParams)

    def __post_init__(self) -> None:
        p = self.params
        self.includes, self.excludes, self.keyword_rows = build_keywords(
            p.seed, p.n_include, p.n_exclude
        )
        rng = random.Random(p.seed * 104729 + 7)
        self._filler = _words("f", 400, rng) + ["속보", "단독", "오늘", "전망", "분석"]

    # -- structure ---------------------------------------------------------

    def sections(self, cfg: SiteConfig) -> list[tuple[int, str]]:
        """(seed_rank, category) pairs for a site; reference-equal counts at
        extra_sections=0, scaled breadth for benchmarks otherwise."""
        n = cfg.n_seeds + self.params.extra_sections
        return [(i, cfg.categories[i % len(cfg.categories)]) for i in range(n)]

    def seed_url(self, cfg: SiteConfig, seed_rank: int) -> str:
        cat = cfg.categories[seed_rank % len(cfg.categories)]
        return f"https://{cfg.host}/sec/{cat}{seed_rank}"

    def n_pages(self, cfg: SiteConfig, seed_rank: int, category: str) -> int:
        h = _h(self.params, cfg.site, "npages", seed_rank)
        if cfg.paginate_until_empty and category == "breakingnews":
            return 2 + h % 4  # until-empty termination path
        if cfg.page_cap > 1:
            return 1 + h % cfg.page_cap
        return 1

    def n_articles(self, cfg: SiteConfig, seed_rank: int, page_no: int) -> int:
        base = self.params.articles_per_listing
        if cfg.hot:
            base *= self.params.hot_factor
        h = _h(self.params, cfg.site, "nart", seed_rank, page_no)
        return max(1, base - h % max(1, base // 3))

    # -- article identity & content ---------------------------------------

    def _aid(self, cfg: SiteConfig, seed_rank: int, page_no: int, j: int) -> str:
        tag = _h(self.params, cfg.site, "aid", seed_rank, page_no, j) % 10**6
        return f"{cfg.site}{seed_rank}p{page_no}i{j}n{tag}"

    def article_id(self, cfg: SiteConfig, seed_rank: int, page_no: int, j: int) -> str:
        """Resolve listing slot (seed_rank, page_no, j) to an article id —
        occasionally an EARLIER article's id (cross-page duplicate URL)."""
        rng = _rng(self.params, cfg.site, "slot", seed_rank, page_no, j)
        if page_no > 1 and rng.random() < self.params.p_dup_cross_page:
            pj = rng.randrange(self.n_articles(cfg, seed_rank, page_no - 1))
            return self.article_id(cfg, seed_rank, page_no - 1, pj)
        return self._aid(cfg, seed_rank, page_no, j)

    def _base_title(self, cfg: SiteConfig, aid: str) -> str:
        rng = _rng(self.params, cfg.site, "title", aid)
        cls = rng.random()
        fill = [rng.choice(self._filler) for _ in range(rng.randint(3, 7))]
        words = list(fill)
        if cls < 0.45:  # relevant: ≥2 distinct includes, no exclude
            for k in rng.sample(self.includes, rng.randint(2, 4)):
                words.insert(rng.randrange(len(words) + 1), k)
        elif cls < 0.65:  # one include only
            words.insert(rng.randrange(len(words) + 1), rng.choice(self.includes))
        elif cls < 0.80:  # ≥2 includes but with an exclude term
            for k in rng.sample(self.includes, 2):
                words.insert(rng.randrange(len(words) + 1), k)
            words.insert(rng.randrange(len(words) + 1), rng.choice(self.excludes))
        # else: pure filler
        if rng.random() < 0.10:  # embedded (substring-only) keyword form
            words.append(rng.choice(self._filler) + rng.choice(self.includes))
        return " ".join(words)

    def title(self, cfg: SiteConfig, aid: str) -> str:
        rng = _rng(self.params, cfg.site, "tdup", aid)
        r = rng.random()
        if r < self.params.p_exact_dup_title:
            return self._base_title(cfg, self._peer_aid(cfg, aid, rng))
        if r < self.params.p_exact_dup_title + self.params.p_fuzzy_dup_title:
            src = self._base_title(cfg, self._peer_aid(cfg, aid, rng))
            return src + " " + rng.choice(self._filler)  # near-dup perturbation
        return self._base_title(cfg, aid)

    def _peer_aid(self, cfg: SiteConfig, aid: str, rng: random.Random) -> str:
        m = re.match(rf"{cfg.site}(\d+)p(\d+)i(\d+)n\d+", aid)
        assert m is not None
        sr, p, j = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if j > 0:
            return self._aid(cfg, sr, p, rng.randrange(j))
        if p > 1:
            return self._aid(cfg, sr, p - 1, 0)
        return self._aid(cfg, sr, p, j)  # no earlier peer → itself (no-op dup)

    def published_ts(self, cfg: SiteConfig, aid: str) -> datetime:
        rng = _rng(self.params, cfg.site, "ts", aid)
        ago = rng.uniform(0, 5 * 86400)  # last 5 days → ~40% fail 2-day recency
        ts = self.params.now - timedelta(seconds=ago)
        return ts.replace(microsecond=0)

    def time_raw(self, cfg: SiteConfig, aid: str) -> str:
        rng = _rng(self.params, cfg.site, "traw", aid)
        if rng.random() < self.params.p_junk_time:
            return "곧 업데이트"
        ts = self.published_ts(cfg, aid)
        fmt = cfg.time_formats[rng.randrange(len(cfg.time_formats))]
        return {
            "ymd_dot_hms": lambda: ts.strftime("%Y.%m.%d. %H:%M:%S"),
            "hm_today": lambda: ts.strftime("%H:%M"),
            "ymd_dash_hms": lambda: ts.strftime("%Y-%m-%d %H:%M:%S"),
            "ymd_dash_hm": lambda: ts.strftime("%Y-%m-%d %H:%M"),
            "ymd_dot_hm": lambda: ts.strftime("%Y.%m.%d %H:%M"),
            "md_hm_yearinject": lambda: ts.strftime("%m-%d %H:%M"),
            "korean_ymd": lambda: f"{ts.year}년 {ts.month}월 {ts.day}일",
            "iso_z_kst": lambda: (ts - timedelta(hours=9)).strftime(
                "%Y-%m-%dT%H:%M:%SZ"
            ),
            "pipe_ymd_dash_hm": lambda: f"기자 {rng.choice(self._filler)} | "
            + ts.strftime("%Y-%m-%d %H:%M"),
        }[fmt]()

    def summary(self, cfg: SiteConfig, aid: str) -> str:
        rng = _rng(self.params, cfg.site, "sum", aid)
        words = [rng.choice(self._filler) for _ in range(rng.randint(8, 20))]
        if rng.random() < 0.5:  # summaries can carry keywords (voa/skydaily
            words.insert(0, rng.choice(self.includes))  # match on title+summary)
        if rng.random() < 0.3:
            words.insert(0, rng.choice(self.includes))
        txt = " ".join(words)
        if cfg.site == "naver" and rng.random() < 0.5:
            mid = len(words) // 2
            txt = " ".join(words[:mid]) + "<br>" + " ".join(words[mid:])
        return txt

    def img_url(self, cfg: SiteConfig, aid: str) -> str:
        rng = _rng(self.params, cfg.site, "img", aid)
        r = rng.random()
        if r < 0.10:
            return ""  # missing → image span dropped
        if r < 0.30:
            return f"/thumb/{aid}.jpg"  # relative → absolutized
        return f"https://{cfg.host}/thumb/{aid}.jpg"

    # -- raw href forms a listing emits ------------------------------------

    def raw_href(self, cfg: SiteConfig, aid: str, rng: random.Random) -> str:
        base = f"/art/{aid}"
        r = rng.random()
        if r < self.params.p_robots_path:
            return f"/priv/art/{aid}"  # served by fetch(), blocked by robots
        if r < 0.25:
            return f"https://{cfg.host}{base}?utm_source=rss&ref=list"
        if r < 0.40:
            return f"//{cfg.host}{base}"
        if r < 0.55 and cfg.hot:
            return f".{base}"  # './art/x' aggregator-style relative
        if r < 0.70:
            return base  # site-relative
        return f"https://{cfg.host}{base}"

    # -- payload rendering --------------------------------------------------

    def listing_items(self, cfg: SiteConfig, seed_rank: int, page_no: int):
        """The DOM-ordered item list of one listing page (href may be junk /
        duplicate / cross-host; title shown on the listing)."""
        items = []
        n = self.n_articles(cfg, seed_rank, page_no)
        for j in range(n):
            rng = _rng(self.params, cfg.site, "item", seed_rank, page_no, j)
            r = rng.random()
            if r < self.params.p_junk_href:
                items.append(("javascript:void(0)", "광고 link", None))
                continue
            if r < self.params.p_junk_href + self.params.p_cross_host:
                # fixture-registered sites are excluded: the synthetic corpus
                # must not depend on what a reused worker process crawled
                # earlier (sites.SiteConfig.fixture)
                other = [
                    s for s in SITES.values() if s.site != cfg.site and not s.fixture
                ]
                ocfg = other[rng.randrange(len(other))]
                oaid = self._aid(ocfg, 0, 1, rng.randrange(4))
                items.append((f"https://{ocfg.host}/art/{oaid}", self.title(ocfg, oaid), oaid))
                continue
            if j > 0 and r > 1.0 - self.params.p_dup_in_page:
                j2 = rng.randrange(j)
                aid = self.article_id(cfg, seed_rank, page_no, j2)
            else:
                aid = self.article_id(cfg, seed_rank, page_no, j)
            items.append((self.raw_href(cfg, aid, rng), self.title(cfg, aid), aid))
        return items

    def render_listing(self, cfg: SiteConfig, seed_rank: int, page_no: int) -> str:
        rows = []
        for href, title, aid in self.listing_items(cfg, seed_rank, page_no):
            extras = ""
            if aid is not None and not cfg.detail_hop:
                # single-hop sites expose time/img (and yna: lead) on the listing
                extras = (
                    f'<span class="tstamp">{self.time_raw(cfg, aid)}</span>'
                    f'<img class="thumb" src="{self.img_url(cfg, aid)}"/>'
                )
                if cfg.match_target == "title+lead":
                    extras += f'<p class="lead">{self.summary(cfg, aid)}</p>'
            rows.append(
                f'<li class="item"><a class="lnk" href="{href}">{title}</a>{extras}</li>'
            )
        body = "\n".join(rows)
        return (
            f"<html><head><title>{cfg.site} s{seed_rank} p{page_no}</title></head>"
            f'<body><ul class="list-{cfg.site}">\n{body}\n</ul></body></html>'
        )

    def render_article(self, cfg: SiteConfig, aid: str) -> str:
        return (
            "<html><body>"
            f'<h1 class="headline">{self.title(cfg, aid)}</h1>'
            f'<span class="published">{self.time_raw(cfg, aid)}</span>'
            f'<div class="article-body"><p>{self.summary(cfg, aid)}</p></div>'
            f'<img class="og" src="{self.img_url(cfg, aid)}"/>'
            "</body></html>"
        )

    # -- the fetch function -------------------------------------------------

    def fetch(self, canon_url: str) -> tuple[int, str, bytes]:
        """Serve a canonical URL. (status, encoding, payload). 404 → b''.

        Pages beyond a section's last populated page (up to the site's cap+1)
        return an EMPTY listing — the pagination-termination signal the
        reference relies on; anything else is 404.
        """
        m = re.match(r"^https://([^/]+)(/.*)$", canon_url)
        if m is None:
            return 404, "utf-8", b""
        host, path = m.group(1), m.group(2)
        from .sites import HOST_TO_SITE

        site = HOST_TO_SITE.get(host)
        if site is None:
            return 404, "utf-8", b""
        cfg = SITES[site]
        lm = _LISTING_RE.match(path)
        if lm is not None:
            cat, seed_rank = lm.group(1), int(lm.group(2))
            page_no = int(lm.group(3)) if lm.group(3) else 1
            n = cfg.n_seeds + self.params.extra_sections
            if seed_rank >= n or cfg.categories[seed_rank % len(cfg.categories)] != cat:
                return 404, cfg.encoding, b""
            npages = self.n_pages(cfg, seed_rank, cat)
            if page_no > npages:
                html = (
                    f"<html><body><ul class=\"list-{cfg.site}\"></ul></body></html>"
                )
                return 200, cfg.encoding, html.encode(cfg.encoding)
            html = self.render_listing(cfg, seed_rank, page_no)
            return 200, cfg.encoding, html.encode(cfg.encoding)
        if path.startswith("/priv/art/"):
            aid = path.rsplit("/", 1)[-1]
            if aid.startswith(cfg.site):
                return 200, cfg.encoding, self.render_article(cfg, aid).encode(cfg.encoding)
            return 404, cfg.encoding, b""
        am = _ARTICLE_RE.match(path)
        if am is not None:
            aid = am.group(1)
            if not aid.startswith(cfg.site):
                return 404, cfg.encoding, b""
            html = self.render_article(cfg, aid)
            return 200, cfg.encoding, html.encode(cfg.encoding)
        return 404, cfg.encoding, b""

    # -- seed frontier ------------------------------------------------------

    def seeds(self) -> list[dict]:
        """The 86-URL (± extra_sections) seed frontier, reference-ordered."""
        out = []
        for site in SITES:
            if self.params.only_sites is not None and site not in self.params.only_sites:
                continue
            cfg = SITES[site]
            for seed_rank, cat in self.sections(cfg):
                out.append(
                    {
                        "site": site,
                        "url": self.seed_url(cfg, seed_rank),
                        "category": cat,
                        "seed_rank": seed_rank,
                    }
                )
        return out
