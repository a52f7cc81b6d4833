"""The crawl's one finalize (`pipeline.relevance_finalize`) against the
oracle's per-row rule, over random listing items (``cand`` rows) and two-hop
article pages (``detail`` rows, made by `pipeline.fetch_parse` from served
pages): relevance, then hop, then `finalize_article`, then the recency
window. No Ray session: both stages are plain functions over Arrow tables."""

import random
from datetime import timedelta

import pyarrow as pa
import pyarrow.compute as pc

from newsray import pipeline
from newsray.datefns import within_last_days
from newsray.extract import finalize_article, parse_article
from newsray.oracle import make_matcher
from newsray.pipeline import ARTICLE_COLS, WAVE_SCHEMA, fetch_parse, relevance_finalize
from newsray.policy import CrawlPolicy
from newsray.sites import SITES
from newsray.synth import SyntheticWeb, WebParams

BUILTIN = ("daum", "naver", "nate", "yna", "voa", "google", "fnnews", "fntoday", "gukje", "skydaily")
JUNK_TIMES = [
    None, "", "   ", "곧 업데이트", "garbage", "24:00", "13-01 10:00", "02-29 10:00",
    "2024년 2월 30일", "2025-4-18T00:30:00Z", "2025-04-18T00:30:00", "2025.04.18. 09:30",
    " 2025-04-18 09:30 ", "a | b | 2025-04-18 09:30",
]
SUMMARIES = [None, "", "   ", "<br>", " <br/> ", "앞<br>뒤", "<p>x</p> y", "한 <b>두</b><BR />셋"]
IMAGES = [
    None, "", "  ", "/thumb/a.jpg", "thumb/b.jpg", "./img/c.jpg", "//cdn.test/x.jpg",
    "https://news.nate.test./x.jpg", "https://news.google.test\t./y.jpg",
    "  https://news.voa.test/z.jpg ", "https://news.yna.test/a/../b.jpg",
]


class _PageWeb:
    """Serves the article pages a test made up; keywords from a real web."""

    def __init__(self, web: SyntheticWeb):
        self.includes, self.excludes = web.includes, web.excludes
        self.pages: dict[str, str] = {}

    def fetch(self, canon_url: str):
        return 200, "utf-8", self.pages[canon_url].encode()


def _page_html(title, time_raw, summary, img) -> str:
    parts = ["<html><body>"]
    if title is not None:
        parts.append(f'<h1 class="headline">{title}</h1>')
    if time_raw is not None:
        parts.append(f'<span class="published">{time_raw}</span>')
    if summary is not None:
        parts.append(f'<div class="article-body"><p>{summary}</p></div>')
    if img is not None:
        parts.append(f'<img class="og" src="{img}"/>')
    return "".join(parts) + "</body></html>"


def _recency_edges(now) -> list[str]:
    """iso_z_kst stamps (UTC, read +9h) at both edges of a 2-day window."""
    out = []
    for d in (
        timedelta(days=-2), timedelta(days=-2, seconds=-1), timedelta(days=1),
        timedelta(days=1, minutes=1), timedelta(0), timedelta(days=-30),
    ):
        out.append((now + d - timedelta(hours=9)).strftime("%Y-%m-%dT%H:%M:%SZ"))
    return out


def test_one_finalize_matches_oracle_rule():
    wp, policy = WebParams(seed=9301), CrawlPolicy()
    now = policy.now
    web = SyntheticWeb(wp)
    eng = pipeline._Engine(wp, policy)
    eng.web = pages = _PageWeb(web)
    key = (wp, repr(policy))
    pipeline._ENGINES[key] = eng
    matchers = {s: make_matcher(web, SITES[s]) for s in BUILTIN}
    rng = random.Random(5)

    def title():
        r = rng.random()
        if r < 0.1:
            return ""
        words = rng.sample(web.includes, rng.randint(0, 3)) + ["속보", "t%d" % rng.randrange(99)]
        if rng.random() < 0.15:
            words.append(rng.choice(web.excludes))
        rng.shuffle(words)
        return " ".join(words)

    def time_raw(cfg, aid):
        r = rng.random()
        if r < 0.25:
            return rng.choice(JUNK_TIMES)
        if r < 0.4:
            return rng.choice(_recency_edges(now))
        return web.time_raw(cfg, aid)

    def lead():
        r = rng.random()
        if r < 0.4:
            return rng.choice(SUMMARIES)
        return " ".join(rng.sample(web.includes, rng.randint(0, 2))) + " <br>본문 <i>끝</i>"

    try:
        cands, article_rows = [], []
        for i in range(1500):
            site = rng.choice(BUILTIN)
            cfg = SITES[site]
            aid = f"a{i}"
            canon = f"https://{cfg.host}/art/{aid}"
            seq = 1000 + i
            if cfg.detail_hop and rng.random() < 0.5:
                # an article page fetched a wave after its listing item
                listing_time = time_raw(cfg, aid) if rng.random() < 0.5 else None
                page_time = None if rng.random() < 0.3 else time_raw(cfg, aid)
                page_title = None if rng.random() < 0.2 else title()
                pages.pages[canon] = _page_html(
                    page_title, page_time, lead(), rng.choice(IMAGES)
                )
                article_rows.append(
                    {
                        "site": site, "category": "c", "kind": "article",
                        "canon_url": canon, "host": cfg.host, "seed_rank": 0,
                        "page_no": 1, "discovered_seq": seq,
                        "title": title() if rng.random() < 0.8 else None,
                        "time_raw": listing_time, "released_at_virtual": 0.0,
                    }
                )
            else:  # a listing item past the gate and the claims
                cands.append(
                    {
                        "site": site, "category": "c", "seed_rank": 0, "page_no": 1,
                        "discovered_seq": seq, "href": f"/art/{aid}", "title": title(),
                        "time_raw": time_raw(cfg, aid), "img": rng.choice(IMAGES),
                        "lead": lead(), "base_url": f"https://{cfg.host}/sec/c0",
                        "canon_url": canon, "host": cfg.host,
                    }
                )

        # the oracle's per-row rule (oracle.run_oracle)
        want_docs, want_front = {}, set()
        n = {"relevance": 0, "time": 0, "recency": 0, "title_target_detail": 0}

        def tail(cfg, canon, ti, traw, summ, img, seq):
            rec = finalize_article(cfg, canon, ti, traw, summ, img, seq, now)
            if rec is None:
                n["time"] += 1
            elif cfg.recency_days is not None and not within_last_days(
                rec["time"], now, cfg.recency_days
            ):
                n["recency"] += 1
            else:
                want_docs[seq] = tuple(rec[c] for c in ARTICLE_COLS)

        for c in cands:
            cfg = SITES[c["site"]]
            if cfg.match_target in ("title", "title+lead"):
                target = c["title"]
                if cfg.match_target == "title+lead" and c["lead"]:
                    target = c["title"] + " " + pipeline.html_to_text(c["lead"])
                if not matchers[cfg.site].relevant(target):
                    n["relevance"] += 1
                    continue
            if cfg.detail_hop:
                want_front.add(
                    (c["site"], c["canon_url"], c["discovered_seq"], c["title"], c["time_raw"])
                )
                continue
            tail(cfg, c["canon_url"], c["title"], c["time_raw"], c["lead"], c["img"],
                 c["discovered_seq"])
        for row in article_rows:
            cfg = SITES[row["site"]]
            page = parse_article(pages.pages[row["canon_url"]])
            ti = row["title"] or page["title"]
            if cfg.match_target == "title+summary":
                target = ti
                if page["summary"]:
                    target = ti + " " + pipeline.html_to_text(page["summary"])
                if not matchers[cfg.site].relevant(target):
                    n["relevance"] += 1
                    continue
            elif not matchers[cfg.site].relevant(ti):
                n["title_target_detail"] += 1  # checked on its listing item only
            traw = page["time_raw"]
            if traw is None:
                traw = row["time_raw"]
            tail(cfg, row["canon_url"], ti, traw, page["summary"], page["img"],
                 row["discovered_seq"])
        # every branch of the rule is exercised
        assert all(v > 20 for v in n.values()), n
        assert len(want_docs) > 200 and len(want_front) > 50

        # the pipeline: fetch_parse makes the detail rows, and the one
        # finalize takes them with the claimed cands, in random batches
        fetched = fetch_parse(
            pa.Table.from_pylist(article_rows), wp, policy
        )
        details = fetched.filter(pc.equal(fetched["rowkind"], "detail"))
        assert details.num_rows == len(article_rows)
        rows = pa.concat_tables(
            [pipeline.wave_rows("cand", pa.Table.from_pylist(cands).to_pydict()), details]
        )
        order = list(range(rows.num_rows))
        rng.shuffle(order)
        rows = rows.take(pa.array(order))
        cuts = sorted(rng.sample(range(1, rows.num_rows), 5))
        outs = [
            relevance_finalize(rows.slice(a, b - a), wp, policy)
            for a, b in zip([0, *cuts], [*cuts, rows.num_rows])
        ]
        out = pa.concat_tables(outs)
        assert out.schema == WAVE_SCHEMA
        assert set(out["rowkind"].to_pylist()) == {"doc", "frontier"}
        docs = out.filter(pc.equal(out["rowkind"], "doc"))
        got_docs = {
            r["discovered_seq"]: tuple(r[c] for c in ARTICLE_COLS)
            for r in docs.select(ARTICLE_COLS).to_pylist()
        }
        assert docs.num_rows == len(got_docs)
        assert got_docs == want_docs
        front = out.filter(pc.equal(out["rowkind"], "frontier")).to_pylist()
        assert {
            (r["site"], r["canon_url"], r["discovered_seq"], r["title"], r["time_raw"])
            for r in front
        } == want_front
        assert len(front) == len(want_front)
    finally:
        pipeline._ENGINES.pop(key, None)
