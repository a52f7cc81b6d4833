"""Per-site extractor plugin registry.

The reference implements each news site as a separate script whose semantics
differ along a small matrix (SURVEY.md §2.2 M4/M5/M7, §2.3, §2.6):

* relevance variant — (a) word-boundary set membership, (b) substring
  containment, (c) regex include + word-set exclude, (d) no exclude check;
* match target — title only, title+lead, or title+fetched summary;
* one- vs two-hop (detail fetch for time/summary/image or not);
* timestamp format cascade (≥8 distinct formats incl. year injection,
  Korean dates, ISO-Z→KST);
* pagination cap / empty-page termination;
* cross-run exact-title dedup (3 sites), in-run fuzzy title dedup (1 site),
  2-day recency window (1 site);
* politeness delay, payload encoding.

Here that matrix becomes declarative ``SiteConfig`` data consumed by ONE
extraction engine — the rebuild's user-extension surface: registering a new
``SiteConfig`` is the equivalent of the reference's "copy a script and edit
the selectors" (SURVEY.md §2.9).

Sites mirror the reference's ten (seed counts 15/10/4/16/6/8/1/14/3/9 =
86 seeds; cf. the module-level URL lists in each reference crawler, e.g.
Daum_crawler.py:34-50, Naver_Crawler.py:34-45).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SiteConfig:
    site: str
    host: str
    n_seeds: int
    # relevance semantics (SURVEY M7)
    relevance: str  # 'wordset' | 'substring' | 'regex'
    check_exclude: bool
    match_target: str  # 'title' | 'title+lead' | 'title+summary'
    min_include_matches: int = 2
    min_floor_on_small_lists: bool = False  # google: min(2, len(include))
    # hop structure (SURVEY S4)
    detail_hop: bool = False
    has_summary: bool = False
    # dedup semantics (SURVEY D2/D3)
    title_seen: bool = False
    fuzzy_dedup: bool = False
    fuzzy_threshold: int = 35
    # recency filter (SURVEY M6)
    recency_days: int | None = None
    # pagination (SURVEY S2/O4): max listing pages per seed; 0 = until empty
    page_cap: int = 1
    paginate_until_empty: bool = False
    # time parsing cascade: ordered strptime-style format names (datefns.py)
    time_formats: tuple[str, ...] = ()
    # sink semantics (SURVEY O1): sort articles time-desc inside day groups
    sort_in_group: bool = False
    # day-group label weekday style: 'korean' or 'english' (Daum regroups with
    # an English %A weekday at save time, inconsistent with its own header —
    # a quirk we preserve)
    weekday_style: str = "korean"
    # physical
    encoding: str = "utf-8"
    politeness_delay: float = 1.0
    hot: bool = False  # known hot host (skew-splitting hint)
    categories: tuple[str, ...] = field(default_factory=tuple)
    # real-HTML extraction (SURVEY §2.9): a CSS SelectorSet
    # (extract.SelectorSet) switches this site from the synthetic-corpus
    # regex parser to the selector engine (htmlsel.py) — "adding a real
    # site" is registering a SiteConfig with selectors, nothing else
    selectors: object | None = None
    # True for sites registered from a fixture manifest (webfixture).
    # The SYNTHETIC web's cross-host link pool must exclude these: a Ray
    # worker that served a fixture crawl keeps the registration, and the
    # synthetic corpus must render identically on every process no matter
    # what it crawled before (synth.SyntheticWeb.listing_items).
    fixture: bool = False


SITES: dict[str, SiteConfig] = {}


def register(cfg: SiteConfig) -> SiteConfig:
    SITES[cfg.site] = cfg
    return cfg


register(
    SiteConfig(
        site="daum",
        host="news.daum.test",
        n_seeds=15,
        relevance="substring",
        check_exclude=True,
        match_target="title",
        detail_hop=True,
        has_summary=True,
        page_cap=1,
        paginate_until_empty=True,  # only for its 'breakingnews' category
        time_formats=("ymd_dot_hms", "hm_today"),
        sort_in_group=True,
        weekday_style="english",
        politeness_delay=2.0,
        categories=("breakingnews", "politics", "economy", "society", "world"),
    )
)
register(
    SiteConfig(
        site="naver",
        host="news.naver.test",
        n_seeds=10,
        relevance="regex",
        check_exclude=True,
        match_target="title",
        detail_hop=True,
        has_summary=True,
        title_seen=True,
        time_formats=("ymd_dash_hms",),
        politeness_delay=1.0,
        categories=("politics", "economy", "society", "world", "it"),
    )
)
register(
    SiteConfig(
        site="nate",
        host="news.nate.test",
        n_seeds=4,
        relevance="wordset",
        check_exclude=True,
        match_target="title",
        title_seen=True,
        page_cap=10,
        time_formats=("md_hm_yearinject", "ymd_dot_hm"),
        politeness_delay=1.0,
        categories=("recent", "politics"),
    )
)
register(
    SiteConfig(
        site="yna",
        host="news.yna.test",
        n_seeds=16,
        relevance="regex",
        check_exclude=True,
        match_target="title+lead",
        title_seen=True,
        has_summary=True,  # lead paragraph from the listing
        page_cap=5,
        time_formats=("md_hm_yearinject", "ymd_dash_hm"),
        politeness_delay=1.0,
        categories=("nk", "politics", "economy"),
    )
)
register(
    SiteConfig(
        site="voa",
        host="news.voa.test",
        n_seeds=6,
        relevance="substring",
        check_exclude=False,  # no exclude check in the reference variant
        match_target="title+summary",
        detail_hop=True,
        has_summary=True,
        time_formats=("korean_ymd",),
        politeness_delay=1.0,
        categories=("korea", "world"),
    )
)
register(
    SiteConfig(
        site="google",
        host="news.google.test",
        n_seeds=8,
        relevance="substring",
        check_exclude=True,
        match_target="title",
        min_floor_on_small_lists=True,
        fuzzy_dedup=True,
        recency_days=2,
        time_formats=("iso_z_kst",),
        sort_in_group=True,
        politeness_delay=1.5,
        hot=True,  # ~50% of synthetic frontier URLs — exercises skew splitting
        categories=("topic", "search"),
    )
)
register(
    SiteConfig(
        site="fnnews",
        host="news.fnnews.test",
        n_seeds=1,
        relevance="wordset",
        check_exclude=True,
        match_target="title",
        time_formats=("ymd_dot_hm",),
        politeness_delay=1.0,
        categories=("all",),
    )
)
register(
    SiteConfig(
        site="fntoday",
        host="news.fntoday.test",
        n_seeds=14,
        relevance="wordset",
        check_exclude=True,
        match_target="title",
        time_formats=("pipe_ymd_dash_hm",),
        politeness_delay=1.0,
        categories=("politics", "society"),
    )
)
register(
    SiteConfig(
        site="gukje",
        host="news.gukje.test",
        n_seeds=3,
        relevance="wordset",
        check_exclude=False,
        match_target="title",
        page_cap=5,
        time_formats=("ymd_dot_hm",),
        politeness_delay=1.0,
        categories=("main",),
    )
)
register(
    SiteConfig(
        site="skydaily",
        host="news.skydaily.test",
        n_seeds=9,
        relevance="wordset",
        check_exclude=False,
        match_target="title+summary",
        detail_hop=True,
        has_summary=True,
        time_formats=("ymd_dash_hm", "ymd_dot_hm", "md_hm_yearinject"),
        encoding="euc-kr",
        politeness_delay=1.0,
        categories=("photo", "politics"),
    )
)

# deterministic global ordering of sites (discovered_seq high bits)
SITE_ORDER: tuple[str, ...] = tuple(SITES)
SITE_RANK: dict[str, int] = {s: i for i, s in enumerate(SITE_ORDER)}

HOST_TO_SITE: dict[str, str] = {c.host: c.site for c in SITES.values()}
