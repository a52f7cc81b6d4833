"""The Ray-Data-native crawl pipeline: BFS wave loop over the frontier
(SURVEY.md §3.5, §7).

Each wave is exactly TWO streaming Dataset executions; the next frontier
hands off LAZILY (its filter/relabel runs inside the next wave's plan over
this wave's materialized outputs — zero extra executions per wave):

    A: frontier ──groupby(host)→ politeness/budget schedule (actor RPC, 1/host)
             ──repartition→ skew-spread released rows
             ──map_batches(fetch+parse, fused)→ items/docs  [payload never leaves the stage]
             ──map_batches(candidate gate)→ validity/canonicalize/robots
             ──URL wave-min REGISTER ──materialize barrier──
    B: cands ──URL RESOLVE+insert (cuckoo shards; shuffle-free within-wave
               min-seq dedup — see seen.py)
             ──greedy title CLAIM (title-seen sites; one-phase, retraction
               set collected at the wave barrier)
             ──map_batches(relevance + finalize)→ docs + next-frontier rows

Design notes for 10^10-URL scale:

* ``payload: binary`` exists only INSIDE the fused fetch+parse stage — it is
  never a column of any materialized/checkpointed dataset (SURVEY §7.5.8).
* Stateful crawl state lives in two actor pools: the sharded cuckoo-filter
  seen-set (seen.py) and the per-host politeness/budget schedulers
  (frontier.py). The per-batch transform stages are stateless Ray tasks
  whose heavy setup (keyword automata, the synthetic-web generator; in
  production: HTTP session pools) is cached once per worker PROCESS in
  ``_ENGINES`` — amortized like an actor pool, but elastic and with zero
  per-wave pool spin-up.
* Wave barriers are inherent to BFS frontier feedback; what crosses a wave
  boundary is bounded metadata (frontier rows, article spans), not bytes.
* The only per-wave all-to-all exchange is groupby(host) for politeness
  (ONE batched RPC per host per wave); exact dedup is shuffle-free via the
  shards' two-phase min-seq protocol. A hot host's released rows are spread
  across blocks by an explicit repartition before the heavy fetch/parse
  stages (north_rule skew splitting: one token bucket per host, many fetch
  workers).
* Datasets downstream of seen-filter stages are materialized exactly once
  before branching — re-executing a lazy plan with actor side effects would
  double-insert into the shards.
* Every wave checkpoints under an atomic manifest (checkpoint.py): resume
  re-fetches nothing and drops nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlparse

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .canonicalize import canonicalize, canonicalize_batch
from .datefns import within_last_days
from .extract import (
    article_spans,
    decode_payload,
    finalize_article,
    make_seq,
    parse_article_for,
    parse_listing_for,
)
from .frontier import ScheduleGroup, make_scheduler_pool
from .oracle import effective_page_cap, make_matcher
from .policy import CrawlPolicy
from .seen import WaveMinStage, make_seen_pool, stable_hash64
from .sites import SITE_RANK, SITES
from .synth import SyntheticWeb, WebParams
from .textfns import KeywordMatcher, fuzzy_is_dup, html_to_text, normalize_for_fuzzy

# unified wave-output schema (the fused fetch+parse stage emits all rowkinds)
WAVE_SCHEMA = pa.schema(
    [
        ("rowkind", pa.string()),  # 'cand' | 'next' | 'doc' | 'frontier' | 'flog'
        ("site", pa.string()),
        ("category", pa.string()),
        ("seed_rank", pa.int32()),
        ("page_no", pa.int32()),
        ("discovered_seq", pa.int64()),
        ("href", pa.string()),
        ("title", pa.string()),
        ("time_raw", pa.string()),
        ("img", pa.string()),
        ("lead", pa.string()),
        ("base_url", pa.string()),
        ("canon_url", pa.string()),
        ("host", pa.string()),
        ("time", pa.timestamp("us")),
        ("summary", pa.string()),
        ("url", pa.string()),
        ("original_url", pa.string()),
        ("date_group", pa.string()),
        ("released_at_virtual", pa.float64()),
    ]
)

ARTICLE_COLS = [
    "site",
    "title",
    "time",
    "img",
    "url",
    "original_url",
    "summary",
    "date_group",
    "discovered_seq",
]

FRONTIER_COLS = [
    "site",
    "category",
    "kind",
    "canon_url",
    "host",
    "seed_rank",
    "page_no",
    "discovered_seq",
    "title",
    # the listing's raw timestamp rides to the detail fetch: sites whose
    # time lives ONLY on the listing (Daum_crawler.py:111 vs its
    # detail-extract :55-73) finalize with it when the article page has no
    # time element — detail time wins when both exist
    "time_raw",
]

FRONTIER_SCHEMA = pa.schema(
    [
        ("site", pa.string()),
        ("category", pa.string()),
        ("kind", pa.string()),
        ("canon_url", pa.string()),
        ("host", pa.string()),
        ("seed_rank", pa.int32()),
        ("page_no", pa.int32()),
        ("discovered_seq", pa.int64()),
        ("title", pa.string()),
        ("time_raw", pa.string()),
    ]
)

FETCH_LOG_SCHEMA = pa.schema(
    [
        ("discovered_seq", pa.int64()),
        ("canon_url", pa.string()),
        ("host", pa.string()),
        ("site", pa.string()),
        ("released_at_virtual", pa.float64()),
    ]
)


# ---------------------------------------------------------------------------
# per-worker-process engine cache (setup once per process, like an actor's
# __init__, but shared by every stateless task stage on that worker)
# ---------------------------------------------------------------------------

_ENGINES: dict = {}

# vector twins of textfns.html_to_text's regexes (summary cleanup)
import re as _re

_BR_PAT = _re.compile(r"<br\s*/?>", _re.IGNORECASE)
_TAG_PAT = _re.compile(r"<[^>]+>")

# diagnostic switch: skip all metrics RPCs (bench A/B only — wave metrics
# come back empty; never set in normal runs)
import os as _os

_NO_METRICS = bool(_os.environ.get("NEWSRAY_NO_METRICS"))


class _Engine:
    def __init__(self, web_params: WebParams, policy: CrawlPolicy):
        from .webfixture import build_web

        # web backend per params: synthetic generator or saved-HTML fixture
        # dir (which also registers its SiteConfigs in THIS process — Ray
        # workers included, so dynamic sites need no code changes)
        self.web = build_web(web_params)
        self.policy = policy
        self.matchers: dict[str, KeywordMatcher] = {
            site: make_matcher(self.web, SITES[site]) for site in SITES
        }


def get_engine(web_params: WebParams, policy: CrawlPolicy) -> _Engine:
    key = (web_params, repr(policy))
    eng = _ENGINES.get(key)
    if eng is None:
        eng = _Engine(web_params, policy)
        _ENGINES[key] = eng
    return eng


def _empty_wave_dict() -> dict[str, list]:
    return {name: [] for name in WAVE_SCHEMA.names}


# ---------------------------------------------------------------------------
# stage bodies (stateless tasks; heavy state via get_engine)
# ---------------------------------------------------------------------------


def fetch_parse(batch: pa.Table, web_params: WebParams, policy: CrawlPolicy) -> pa.Table:
    """Fused fetch + parse over released frontier rows. The page payload is
    generated (in production: HTTP-fetched by a session held in worker
    state), parsed, and DROPPED inside this one stage — item/doc metadata is
    all that flows on. Two-hop article pages are finalized here (post-fetch
    relevance on title+summary, time-parse drop, recency window).

    Hot path: per-rowkind columnar builders (appending only the fields a
    rowkind uses, null columns added once at assembly) — ~2× the naive
    21-column-per-row emit loop."""
    eng = get_engine(web_params, policy)
    names = WAVE_SCHEMA.names

    # flog builder (6 live cols)
    f_site, f_canon, f_host, f_seq, f_rel = [], [], [], [], []
    # cand builder (11 live cols)
    c_site, c_cat, c_seed, c_page, c_seq = [], [], [], [], []
    c_href, c_title, c_traw, c_img, c_lead, c_base = [], [], [], [], [], []
    # next-page + two-hop doc rows are rare → generic dict rows
    misc_rows: list[dict] = []

    for row in batch.to_pylist():
        cfg = SITES[row["site"]]
        f_site.append(cfg.site)
        f_canon.append(row["canon_url"])
        f_host.append(row["host"])
        f_seq.append(row["discovered_seq"])
        f_rel.append(row.get("released_at_virtual"))
        status, enc, payload = eng.web.fetch(row["canon_url"])
        if status != 200:
            continue
        html = decode_payload(payload, enc)
        if row["kind"] == "listing":
            items = parse_listing_for(cfg, html)
            cap = effective_page_cap(cfg, row["category"])
            if items and row["page_no"] + 1 <= cap:
                nxt = row["page_no"] + 1
                nxt_url = f"https://{cfg.host}/sec/{row['category']}{row['seed_rank']}/p{nxt}"
                canon, h = canonicalize(nxt_url, nxt_url)
                misc_rows.append(
                    {
                        "rowkind": "next",
                        "site": cfg.site,
                        "category": row["category"],
                        "seed_rank": row["seed_rank"],
                        "page_no": nxt,
                        "discovered_seq": make_seq(
                            SITE_RANK[cfg.site], 0, row["seed_rank"], nxt, 0
                        ),
                        "canon_url": canon,
                        "host": h,
                    }
                )
            site, cat, seed, page = cfg.site, row["category"], row["seed_rank"], row["page_no"]
            base = row["canon_url"]
            seq0 = make_seq(SITE_RANK[site], 1, seed, page, 0)
            for item in items:
                c_site.append(site)
                c_cat.append(cat)
                c_seed.append(seed)
                c_page.append(page)
                c_seq.append(seq0 + item.dom_idx)
                c_href.append(item.href)
                c_title.append(item.title)
                c_traw.append(item.time_raw)
                c_img.append(item.img)
                c_lead.append(item.lead)
                c_base.append(base)
        else:  # two-hop article detail page
            detail = parse_article_for(cfg, html)
            title = row["title"] or detail["title"]
            if cfg.match_target == "title+summary":
                target = title
                if detail["summary"]:
                    target = title + " " + html_to_text(detail["summary"])
                if not eng.matchers[cfg.site].relevant(target):
                    continue
            traw = detail["time_raw"]
            if traw is None:  # time only on the listing (e.g. Daum)
                traw = row.get("time_raw")
            rec = finalize_article(
                cfg,
                row["canon_url"],
                title,
                traw,
                detail["summary"],
                detail["img"],
                row["discovered_seq"],
                policy.now,
            )
            if rec is None:
                continue
            if cfg.recency_days is not None and not within_last_days(
                rec["time"], policy.now, cfg.recency_days
            ):
                continue
            rec["rowkind"] = "doc"
            misc_rows.append(rec)

    def _assemble(n: int, live: dict) -> pa.Table:
        cols = {}
        for name, typ in zip(names, WAVE_SCHEMA.types):
            if name in live:
                cols[name] = pa.array(live[name], typ)
            else:
                cols[name] = pa.nulls(n, typ)
        return pa.Table.from_pydict(cols, schema=WAVE_SCHEMA)

    parts = []
    if f_site:
        parts.append(
            _assemble(
                len(f_site),
                {
                    "rowkind": ["flog"] * len(f_site),
                    "site": f_site,
                    "canon_url": f_canon,
                    "host": f_host,
                    "discovered_seq": f_seq,
                    "released_at_virtual": f_rel,
                },
            )
        )
    if c_site:
        parts.append(
            _assemble(
                len(c_site),
                {
                    "rowkind": ["cand"] * len(c_site),
                    "site": c_site,
                    "category": c_cat,
                    "seed_rank": c_seed,
                    "page_no": c_page,
                    "discovered_seq": c_seq,
                    "href": c_href,
                    "title": c_title,
                    "time_raw": c_traw,
                    "img": c_img,
                    "lead": c_lead,
                    "base_url": c_base,
                },
            )
        )
    if misc_rows:
        out = _empty_wave_dict()
        for r in misc_rows:
            for name in names:
                out[name].append(r.get(name))
        parts.append(pa.Table.from_pydict(out, schema=WAVE_SCHEMA))
    if not parts:
        return pa.Table.from_pydict(_empty_wave_dict(), schema=WAVE_SCHEMA)
    return pa.concat_tables(parts)


def cand_gate(batch: pa.Table, policy: CrawlPolicy) -> pa.Table:
    """Candidate gate: href validity → canonicalize → off-host → robots;
    fills canon_url/host. Output keeps the WAVE_SCHEMA column order."""
    if batch.num_rows == 0:
        return batch
    hrefs = batch["href"].to_pylist()
    bases = batch["base_url"].to_pylist()
    sites = batch["site"].to_pylist()
    valid, canon, hosts = canonicalize_batch(hrefs, bases)
    keep = [
        ok and h == SITES[s].host and policy.allowed(h, urlparse(c).path)
        for ok, c, h, s in zip(valid, canon, hosts, sites)
    ]
    batch = batch.set_column(
        batch.column_names.index("canon_url"), "canon_url", pa.array(canon, pa.string())
    )
    batch = batch.set_column(
        batch.column_names.index("host"), "host", pa.array(hosts, pa.string())
    )
    return batch.filter(pa.array(keep, pa.bool_()))


def add_bucket(batch: pa.Table, key_cols: list[str], n_buckets: int) -> pa.Table:
    """Hash-bucket column for the shuffle-based dedup alternative (the
    two-phase actor protocol replaced it in the wave loop; kept as the
    explicit-exchange variant for cluster configurations where the seen
    shards would be the bottleneck)."""
    if batch.num_rows == 0:
        return batch.append_column("bucket", pa.array([], pa.int64()))
    cols = [batch[c].to_pylist() for c in key_cols]
    b = [
        stable_hash64("\x1f".join(str(v) for v in vals)) % n_buckets
        for vals in zip(*cols)
    ]
    return batch.append_column("bucket", pa.array(b, pa.int64()))


def dedup_min_seq(g: pd.DataFrame, subset: list[str]) -> pd.DataFrame:
    """Within-wave exact dedup: min-discovered_seq row wins (deterministic
    regardless of block arrival order — SURVEY §7.5.1)."""
    g = g.sort_values("discovered_seq", kind="mergesort")
    return g.drop_duplicates(subset=subset, keep="first")


def relevance_finalize(
    batch: pa.Table, web_params: WebParams, policy: CrawlPolicy
) -> pa.Table:
    """Pre-fetch keyword relevance (title / title+lead targets), then:
    single-hop survivors are finalized into doc rows; two-hop survivors
    become next-wave frontier rows (rowkind='frontier').

    Fully columnar: relevance runs per site sub-batch
    (KeywordMatcher.relevant_batch), and the finalize tail — the timestamp
    cascade, recency window, image absolutization, summary cleanup and
    day-group labels — runs VECTORIZED per site over pandas/pyarrow columns
    (datefns.parse_cascade_series etc.). The scalar ``finalize_article``
    stays the semantic reference (oracle + two-hop path); the vector twins
    are property-tested equivalent in tests/test_functions.py."""
    from .canonicalize import absolutize
    from .datefns import day_group_labels_series, parse_cascade_series

    eng = get_engine(web_params, policy)
    n = batch.num_rows
    if n == 0:
        return pa.Table.from_pydict(_empty_wave_dict(), schema=WAVE_SCHEMA)
    sites = batch["site"].to_pylist()
    titles = batch["title"].to_pylist()
    leads = batch["lead"].to_pylist()
    # 1) vectorized relevance per site group
    by_site: dict[str, list[int]] = {}
    for i, s in enumerate(sites):
        by_site.setdefault(s, []).append(i)
    keep = [True] * n
    for site, idxs in by_site.items():
        cfg = SITES[site]
        if cfg.match_target not in ("title", "title+lead"):
            continue  # title+summary sites check post-fetch (in fetch_parse)
        targets = []
        for i in idxs:
            t = titles[i] or ""
            if cfg.match_target == "title+lead" and leads[i]:
                t = t + " " + html_to_text(leads[i])
            targets.append(t)
        for i, ok in zip(idxs, eng.matchers[site].relevant_batch(targets)):
            keep[i] = ok
    kept = batch.filter(pa.array(keep, pa.bool_()))

    parts: list[pa.Table] = []
    # 2a) two-hop survivors → next-wave frontier rows (column swap only)
    is_hop = pa.array(
        [SITES[s].detail_hop for s in kept["site"].to_pylist()], pa.bool_()
    )
    hop = kept.filter(is_hop)
    if hop.num_rows:
        hop = hop.set_column(
            hop.column_names.index("rowkind"),
            "rowkind",
            pa.array(["frontier"] * hop.num_rows),
        )
        parts.append(hop.select(WAVE_SCHEMA.names))

    # 2b) single-hop survivors → vector finalize per site
    fin = kept.filter(pc.invert(is_hop))
    for site in sorted(set(fin["site"].to_pylist())):
        cfg = SITES[site]
        sub = fin.filter(pc.equal(fin["site"], site))
        ts = parse_cascade_series(sub["time_raw"].to_pylist(), cfg.time_formats, policy.now)
        ok = ts.notna()
        if cfg.recency_days is not None:
            import pandas as pd

            now = pd.Timestamp(policy.now)
            ok &= (now - ts) <= pd.Timedelta(days=cfg.recency_days)
            ok &= ts <= now + pd.Timedelta(days=1)
        mask = pa.array(ok.to_numpy(), pa.bool_())
        sub = sub.filter(mask)
        if sub.num_rows == 0:
            continue
        ts = ts[ok.to_numpy()].reset_index(drop=True)
        base = f"https://{cfg.host}/"
        # strip BEFORE the fast-path test so an absolute URL with stray
        # whitespace is byte-identical to absolutize()'s output (ADVICE r2)
        img_abs = [
            "" if not v else (
                v.strip()
                if v.strip().startswith("https://") and ".test./" not in v
                else absolutize(v, base)
            )
            for v in sub["img"].to_pylist()
        ]
        if cfg.has_summary:
            import pandas as pd

            lead_s = pd.Series(sub["lead"].to_pylist(), dtype="object")
            cleaned = (
                lead_s.str.replace(_BR_PAT, "\n", regex=True)
                .str.replace(_TAG_PAT, "", regex=True)
                .str.strip()
            )
            summ = cleaned.where(lead_s.notna() & (lead_s != ""), None).tolist()
        else:
            summ = [None] * sub.num_rows
        labels = day_group_labels_series(ts, cfg.weekday_style).tolist()
        m = sub.num_rows
        live = {
            "rowkind": ["doc"] * m,
            "site": [site] * m,
            "title": sub["title"].to_pylist(),
            "time": pa.Array.from_pandas(ts, type=pa.timestamp("us")),
            "img": img_abs,
            "url": sub["canon_url"].to_pylist(),
            "original_url": sub["canon_url"].to_pylist(),
            "summary": summ,
            "date_group": labels,
            "discovered_seq": sub["discovered_seq"],
        }
        cols = {}
        for name, typ in zip(WAVE_SCHEMA.names, WAVE_SCHEMA.types):
            if name in live:
                v = live[name]
                cols[name] = v if isinstance(v, (pa.Array, pa.ChunkedArray)) else pa.array(v, typ)
            else:
                cols[name] = pa.nulls(m, typ)
        parts.append(pa.Table.from_pydict(cols, schema=WAVE_SCHEMA))

    if not parts:
        return pa.Table.from_pydict(_empty_wave_dict(), schema=WAVE_SCHEMA)
    return pa.concat_tables(parts)


def make_stripe(k: int):
    """Reorder a block's rows into residue-class order (0,k,2k,…,1,k+1,…):
    Ray's repartition(shuffle=True) splits each block into CONTIGUOUS row
    ranges, so seq-sorted scheduler output keeps cost locality — e.g. every
    expensive listing row of a wave (each fans out ~10^2-10^3 items) sits at
    the front of its host's block and lands in ONE downstream task (measured:
    a 30 s straggler holding ~1/3 of the wave's output). Striping makes each
    contiguous slice carry every k-th row — a deterministic cost-mix, no
    extra shuffle, row set unchanged."""
    import numpy as np

    def stripe(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n <= 2:
            return b
        idx = np.argsort(np.arange(n) % k, kind="stable")
        return b.take(pa.array(idx))

    return stripe


# -- rowkind views of one materialized wave ---------------------------------
# The live wave (run_wave) and checkpoint restore derive docs, the fetch log
# and the next frontier from a wave's rows with these same batch functions;
# ``drop`` is the wave's retracted-seq set (None once rows are checkpointed,
# which already excludes it).


def drop_retracted(b: pa.Table, drop: pa.Array | None = None) -> pa.Table:
    if drop is None or b.num_rows == 0:
        return b
    return b.filter(pc.invert(pc.is_in(b["discovered_seq"], value_set=drop)))


def keep_docs(b: pa.Table, drop: pa.Array | None = None) -> pa.Table:
    return drop_retracted(b.filter(pc.equal(b["rowkind"], "doc")), drop)


def flog_rows(b: pa.Table, wave: int) -> pa.Table:
    t = b.filter(pc.equal(b["rowkind"], "flog")).select(FETCH_LOG_SCHEMA.names)
    return t.append_column("wave", pa.array([wave] * t.num_rows, pa.int32()))


def to_frontier(b: pa.Table, drop: pa.Array | None = None) -> pa.Table:
    b = b.filter(pc.is_in(b["rowkind"], value_set=pa.array(["next", "frontier"])))
    b = drop_retracted(b, drop)
    kind = pc.if_else(
        pc.equal(b["rowkind"], "next"), pa.scalar("listing"), pa.scalar("article")
    )
    return b.append_column("kind", kind).select(FRONTIER_COLS).cast(FRONTIER_SCHEMA)


def checkpoint_rows(b: pa.Table, drop: pa.Array | None = None) -> pa.Table:
    """A wave's checkpointed rows: flog rows unchanged, every other rowkind
    (doc / next / frontier) minus the retracted seqs."""
    if drop is None or b.num_rows == 0:
        return b
    keep = pc.or_(
        pc.equal(b["rowkind"], "flog"),
        pc.invert(pc.is_in(b["discovered_seq"], value_set=drop)),
    )
    return b.filter(keep)


# ---------------------------------------------------------------------------
# pipeline driver
# ---------------------------------------------------------------------------


@dataclass
class PipelineConfig:
    web_params: WebParams = field(default_factory=WebParams)
    policy: CrawlPolicy = field(default_factory=CrawlPolicy)
    n_seen_shards: int = 4
    n_sched_shards: int = 2
    batch_size: int | None = None  # fetch+parse batch rows; None = one batch
    # per block (repartition_blocks controls task granularity / skew spread)
    cand_batch_size: int = 8192  # candidate-stage rows per batch
    dedup_buckets: int = 16
    repartition_blocks: int = 16
    checkpoint_dir: str | None = None
    seen_capacity_per_shard: int = 1 << 18
    # per-site fuzzy projection buffers spill to sorted parquet runs past
    # this many buffered rows (bounds actor RSS on the hot fuzzy site)
    fuzzy_spill_rows: int = 1 << 20
    # optional CPU reservation per state actor (0 = unreserved; a nonzero
    # fraction quantizes away whole task slots at very small cluster sizes)
    actor_num_cpus: float = 0.0
    # chaos hook (tests): name of a Ray actor whose take() decides whether a
    # fetch task raises AFTER its side effects committed — proves the wave
    # protocol's side effects (claims, fuzzy pushes, metrics) replay safely
    # under Ray's task retry. None (production) = zero cost.
    fault_inject_actor: str | None = None
    # S5 existing-output bootstrap: seed the URL-seen shards from a prior
    # run's day-grouped JSON exports (the reference's get_existing_links —
    # the no-checkpoint migration path). Checkpoint restore wins when both
    # are configured; like the reference, a bootstrapped rerun re-fetches
    # listings but never re-emits a seen article.
    bootstrap_output_dir: str | None = None


class CrawlPipeline:
    """Driver object owning the actor pools + wave loop. Does NOT call
    ray.init(); the caller owns the session."""

    def __init__(self, cfg: PipelineConfig):
        from .webfixture import build_web

        self.cfg = cfg
        self.web = build_web(cfg.web_params)  # driver-side: seeds only
        self.seen_shards = make_seen_pool(
            cfg.n_seen_shards, cfg.seen_capacity_per_shard, cfg.actor_num_cpus
        )
        self.schedulers = make_scheduler_pool(
            cfg.n_sched_shards, cfg.policy.host_budget, cfg.actor_num_cpus
        )
        from .lineage import MetricsActor

        self.metrics = MetricsActor.remote()
        self._fuzzy_sites = pa.array([s for s, c in SITES.items() if c.fuzzy_dedup])
        # one buffer actor PER fuzzy site (the scan is per-site sequential;
        # per-site actors bound RSS via spill and scan sites in parallel)
        self.fuzzy_bufs: dict[str, "ray.actor.ActorHandle"] = {
            s: FuzzyTitleBuffer.remote(
                s,
                spill_rows=cfg.fuzzy_spill_rows,
                fuzzy_threshold=SITES[s].fuzzy_threshold,
            )
            for s in self._fuzzy_sites.to_pylist()
        }
        self.retracted_seqs: set[int] = set()
        self.wave_metrics: list[dict] = []
        self.fetch_logs: list[pa.Table] = []
        self.doc_tables: list[pa.Table] = []
        self.start_wave = 0
        self._frontier0: pa.Table | None = None
        self._restored = False
        self._bootstrapped = False
        # rows files of checkpoint-restored waves: their docs' fuzzy
        # projections re-push via a DISTRIBUTED pruned read in
        # finalize_streaming (never a driver loop over wave tables)
        self._restored_row_files: list[str] = []

    def dump_seen(self) -> tuple[set, set]:
        """(url_seen, title_seen) as (site, value) tuples — for equality
        checks against the oracle and for external audits."""
        url_seen: set = set()
        title_seen: set = set()
        for keys in ray.get([s.dump.remote() for s in self.seen_shards]):
            for k in keys:
                space, rest = k.split(":", 1)
                site, val = rest.split("\x1f", 1)
                (url_seen if space == "u" else title_seen).add((site, val))
        return url_seen, title_seen

    def bootstrap_seen(self, out_dir: str) -> int:
        """Seed the URL-seen shards from a prior run's day-grouped JSON
        exports — the reference's S5 ``get_existing_links`` (defensive
        per-site parse, `sink.get_existing_links`) for users migrating WITH
        existing outputs but WITHOUT a checkpoint. Exported ``url`` IS the
        canonical URL (articles store canon_url in both url fields), so the
        keys match the wave protocol's claim keys exactly. Returns the
        number of URLs seeded."""
        from .seen import shard_of
        from .sink import load_existing_links

        links = load_existing_links(out_dir)
        keys = [
            f"u:{site}\x1f{url}"
            for site, urls in sorted(links.items())
            for url in sorted(urls)
        ]
        n = len(self.seen_shards)
        by: dict[int, list[str]] = {}
        for k in keys:
            by.setdefault(shard_of(k, n), []).append(k)
        ray.get(
            [self.seen_shards[sid].restore.remote(ks) for sid, ks in by.items()]
        )
        return len(keys)

    def seed_frontier(self) -> pa.Table:
        rows = []
        for s in self.web.seeds():
            cfg = SITES[s["site"]]
            canon, host = canonicalize(s["url"], s["url"])
            rows.append(
                {
                    "site": s["site"],
                    "category": s["category"],
                    "kind": "listing",
                    "canon_url": canon,
                    "host": host,
                    "seed_rank": s["seed_rank"],
                    "page_no": 1,
                    "discovered_seq": make_seq(SITE_RANK[s["site"]], 0, s["seed_rank"], 1, 0),
                    "title": None,
                    "time_raw": None,
                }
            )
        return pa.Table.from_pylist(rows, schema=FRONTIER_SCHEMA)

    # -- one wave -----------------------------------------------------------

    def run_wave(self, wave: int, frontier: ray.data.Dataset, n_est: int | None = None):
        """Returns (docs_ds, next_frontier_ds, flog_ds, rows_ds,
        n_retracted). All four outputs are DISTRIBUTED rowkind views over
        the wave's one materialized execution — article rows, fetch-log
        rows and the next frontier never aggregate on the driver (the
        driver sees counts and the tiny title-retraction set; per-wave
        driver state is O(hosts)). ``rows_ds`` is what the wave checkpoints
        (checkpoint.write_wave); restore rebuilds the other three from it.

        ONE fused heavy streaming execution per wave, ZERO candidate
        shuffles: schedule (groupby host — the one unavoidable exchange,
        one politeness/budget RPC per host) → repartition (skew-spread) →
        fused fetch+parse → candidate gate → greedy URL CLAIM → deferred
        title RECORD → vectorized relevance + finalize, materialized.

        Within-wave exact URL dedup (min-discovered_seq wins) is the
        shards' greedy claim-with-retraction (seen.py claim_insert):
        duplicates of a key hash-route to one shard, the first claimant
        wins provisionally, a lower seq overtakes and RETRACTS the earlier
        one, and the wave barrier's broadcast filter drops retracted seqs
        from the wave's outputs — exactly the per-key minimum with no
        register/resolve barrier in between. Title contention (title-seen
        sites) cannot resolve greedily in the same pass — a claimant's
        validity depends on whether its URL claim survives — so shards
        record every claimant and ``resolve_titles`` picks
        min(claimants − url_retracted) per key at the barrier (title keys
        insert only then, so a title held solely by URL-retracted rows
        stays unseen, matching the oracle). The barrier work is two tiny
        RPC rounds; both retraction sets ride the same drop filter.

        The next frontier (filter + relabel of pagination and two-hop
        rows) stays a lazy, metadata-sized plan over the wave's blocks.
        """
        cfg = self.cfg
        wp, policy = cfg.web_params, cfg.policy
        metrics = self.metrics
        ray.get([sh.begin_wave.remote() for sh in self.seen_shards])

        # block count adapted to the wave's size: splitting a 5-row late-wave
        # frontier into 16 blocks manufactures schemaless EMPTY blocks that
        # spam the executor's schema-mismatch warning + the sort-reduce
        # schema-hash failure (VERDICT r2 polish (a)) and pay per-task fixed
        # cost for nothing; the estimate is the driver's over-count, so big
        # waves keep the full fan-out
        n_blocks = cfg.repartition_blocks
        if n_est is not None:
            n_blocks = max(1, min(cfg.repartition_blocks, int(n_est)))

        tsites = [s for s, c in SITES.items() if c.title_seen]
        tsites_arr = pa.array(tsites)
        url_wave = WaveMinStage(self.seen_shards, "u", "site", "canon_url")
        title_wave = WaveMinStage(self.seen_shards, "t", "site", "title")

        # -- execution A: schedule → fetch+parse → gate → URL register ------
        sched_fn = ScheduleGroup(self.schedulers)
        fuzzy_bufs, fuzzy_arr = self.fuzzy_bufs, self._fuzzy_sites

        def push_fuzzy_proj(out: pa.Table) -> list:
            """Side-channel each fuzzy site's doc (site, seq, title) rows to
            that site's buffer actor so finalize's scan needs no extra doc
            pass. Returns the pending refs (ray.get'd with the metrics RPC —
            counts and scan input are durable before the execution
            barrier)."""
            if not fuzzy_bufs or out.num_rows == 0:
                return []
            m = pc.and_(
                pc.equal(out["rowkind"], "doc"),
                pc.is_in(out["site"], value_set=fuzzy_arr),
            )
            if not pc.any(m).as_py():
                return []
            proj = out.filter(m).select(FUZZY_PROJ_COLS)
            refs = []
            for site, buf in fuzzy_bufs.items():
                sub = proj.filter(pc.equal(proj["site"], site))
                if sub.num_rows:
                    refs.append(buf.add.remote(sub))
            return refs

        fault_actor = cfg.fault_inject_actor

        def fetch_parse_m(b: pa.Table) -> pa.Table:
            out = fetch_parse(b, wp, policy)
            refs = push_fuzzy_proj(out)
            if fault_actor is not None and b.num_rows:
                # chaos hook: die AFTER this batch's side effects commit —
                # Ray's task retry must reproduce the batch with claims /
                # fuzzy pushes / metrics all replay-safe (tested end-to-end)
                if refs:
                    ray.get(refs)
                    refs = []
                if ray.get(ray.get_actor(fault_actor).take.remote()):
                    raise RuntimeError("injected transient fault (test hook)")
            if _NO_METRICS:
                if refs:
                    ray.get(refs)
                return out
            kinds = out["rowkind"]
            # ONE batched increment per batch, FIRE-AND-FORGET: a synchronous
            # ray.get here serialized every task of the wave through the one
            # metrics actor's queue — measured ~30% of crawl wall at bench
            # scale (A/B, min-of-3: 36.1 s sync vs 25.2 s async). Counters
            # are DIAGNOSTICS; the loop's only correctness-bearing use (the
            # terminate-on-empty decision) confirms zero with an exact
            # data-plane count (run(): nxt.count()), and run() re-reads the
            # totals after the last barrier to repair any delivery lag in
            # the recorded wave_metrics. Fuzzy pushes below stay synchronous:
            # finalize's scan consumes them, so they must be durable at the
            # wave barrier.
            metrics.incr_many.remote(
                wave,
                {
                    "pages_fetched": b.num_rows,
                    "items_parsed": int(pc.sum(pc.equal(kinds, "cand")).as_py() or 0),
                    "docs_emitted": int(pc.sum(pc.equal(kinds, "doc")).as_py() or 0),
                    "next_rows": int(pc.sum(pc.equal(kinds, "next")).as_py() or 0),
                },
            )
            if refs:
                ray.get(refs)
            return out

        def gate_claim_finalize(b: pa.Table) -> pa.Table:
            is_cand = pc.equal(b["rowkind"], "cand")
            others = b.filter(pc.invert(is_cand))
            cands = cand_gate(b.filter(is_cand), policy)
            n_admitted = cands.num_rows
            cands = url_wave.claim(cands)  # greedy URL dedup w/ retraction
            is_t = pc.is_in(cands["site"], value_set=tsites_arr)
            t_rows = cands.filter(is_t)
            if t_rows.num_rows:
                t_rows = title_wave.record(t_rows)  # deferred contention
            merged = pa.concat_tables(
                [t_rows.select(WAVE_SCHEMA.names),
                 cands.filter(pc.invert(is_t)).select(WAVE_SCHEMA.names)]
            )
            fin = relevance_finalize(merged, wp, policy)
            refs = push_fuzzy_proj(fin)
            if not _NO_METRICS:
                # fire-and-forget, same rationale as fetch_parse_m
                metrics.incr_many.remote(
                    wave,
                    {
                        "cand_admitted": n_admitted,
                        "docs_emitted": int(
                            pc.sum(pc.equal(fin["rowkind"], "doc")).as_py() or 0
                        ),
                        "frontier_rows": int(
                            pc.sum(pc.equal(fin["rowkind"], "frontier")).as_py()
                            or 0
                        ),
                    },
                )
            if refs:
                ray.get(refs)
            return pa.concat_tables(
                [others.select(WAVE_SCHEMA.names), fin.select(WAVE_SCHEMA.names)]
            )

        parsed = (
            frontier
            .repartition(n_blocks)  # parallel sort-map input
            .groupby("host")
            .map_groups(lambda g: sched_fn(g), batch_format="pandas")
            .map_batches(make_stripe(n_blocks), batch_format="pyarrow")
            .repartition(n_blocks, shuffle=True)  # skew-spread
            .map_batches(
                fetch_parse_m,
                batch_format="pyarrow",
                batch_size=cfg.batch_size,
                # worker-death retries are Ray's default; application-level
                # retry is opted in only under the chaos hook (a real UDF
                # exception is a bug and should fail loudly, while transient
                # fetch-infra errors are already handled in-stage)
                **(
                    {"retry_exceptions": True, "max_retries": 3}
                    if cfg.fault_inject_actor
                    else {}
                ),
            )
            # batch_size=None: inherit the fused task's output batches — an
            # explicit batch_size larger than the upstream block size makes
            # Ray COALESCE all blocks into one task (serial wave!)
            .map_batches(gate_claim_finalize, batch_format="pyarrow")
            .materialize()  # wave barrier: claims + finalize durable
        )
        # retraction sets, both O(same-wave key collisions), tiny:
        # URL claims overtaken by a lower seq, then the deferred title
        # contention resolved against them (two RPC rounds, driver sees
        # only seqs); both ride one broadcast drop filter
        retracted: set[int] = set()
        for seqs in ray.get([sh.wave_retractions.remote() for sh in self.seen_shards]):
            retracted.update(seqs)
        r_u = sorted(retracted)
        for seqs in ray.get(
            [sh.resolve_titles.remote(r_u) for sh in self.seen_shards]
        ):
            retracted.update(seqs)
        self.retracted_seqs.update(retracted)
        drop = pa.array(sorted(retracted), pa.int64()) if retracted else None

        # every view stays LAZY over the wave's materialized blocks: the
        # next frontier's filters execute inside the NEXT wave's exec A
        # plan — no per-wave control materialize, no extra execution ramp.
        # The driver's loop uses the metrics counters as a safe
        # OVER-estimate of its row count (an extra empty wave is a no-op;
        # see run()).
        def view(fn, **kw):
            return parsed.map_batches(fn, batch_format="pyarrow", fn_kwargs=kw)

        return (
            view(keep_docs, drop=drop),
            view(to_frontier, drop=drop),
            view(flog_rows, wave=wave),
            view(checkpoint_rows, drop=drop),
            len(retracted),
        )

    # -- full run -------------------------------------------------------------

    def run(self, frontier: pa.Table | None = None, streaming_finalize: bool = True) -> dict:
        from . import checkpoint as ckpt

        cfg = self.cfg
        # a re-submitted job with an existing checkpoint RESUMES (ADVICE r2:
        # without this a rerun started at wave 0 over advanced seen-log
        # offsets and silently corrupted the delta chain); explicit
        # checkpoint.restore() calls set _restored so this is a no-op then
        if cfg.checkpoint_dir and not self._restored and frontier is None:
            # restore() returns False for an EMPTY checkpoint dir (a fresh
            # run that will start checkpointing forward) — that must not
            # swallow a configured bootstrap, so track "state actually
            # restored" separately from "restore attempted"
            restored_state = ckpt.restore(self, cfg.checkpoint_dir)
            self._restored = True
        else:
            restored_state = self._restored
        # S5 existing-output bootstrap (no-checkpoint migration path): an
        # ACTUAL checkpoint restore carries strictly more state, so it wins;
        # an empty checkpoint dir does not
        if (
            cfg.bootstrap_output_dir
            and not restored_state
            and not self._bootstrapped
        ):
            self.bootstrap_seen(cfg.bootstrap_output_dir)
            self._bootstrapped = True
        if frontier is None:
            frontier = self._frontier0 if self._frontier0 is not None else self.seed_frontier()
        seed = frontier if isinstance(frontier, pa.Table) else None
        if seed is not None:
            n_frontier = seed.num_rows
            frontier = ray.data.from_arrow(seed)
        else:
            n_frontier = frontier.count()
        wave = self.start_wave
        while n_frontier > 0 and wave < cfg.policy.max_waves:
            if cfg.checkpoint_dir:
                ckpt.write_frontier_in(cfg.checkpoint_dir, wave, seed)
            docs, nxt, flog, rows, n_retracted = self.run_wave(
                wave, frontier, n_est=n_frontier
            )
            self.doc_tables.append(docs)
            self.fetch_logs.append(flog)
            totals = ray.get(self.metrics.wave_totals.remote(wave))
            # Estimate from the (fire-and-forget) counters: normally an
            # OVER-estimate (ignores retracted frontier rows — an extra
            # empty wave is a no-op), but delivery can lag the barrier, so
            # the only decision that terminates the crawl — zero — is
            # CONFIRMED with an exact data-plane count over the wave's
            # materialized parents (cheap rowkind filters, once per crawl
            # at termination). A lagged non-zero estimate merely shades the
            # next wave's block-count hint.
            n_next = int(totals.get("next_rows", 0)) + int(
                totals.get("frontier_rows", 0)
            )
            if n_next == 0:
                n_next = int(nxt.count())
            self.wave_metrics.append(
                {
                    "wave": wave,
                    "frontier": n_frontier,
                    "fetched": int(totals.get("pages_fetched", 0)),
                    "candidates": int(totals.get("items_parsed", 0)),
                    "docs": int(totals.get("docs_emitted", 0)),
                    "retracted": n_retracted,
                    "next_frontier_est": n_next,
                }
            )
            if cfg.checkpoint_dir:
                ckpt.write_wave(
                    cfg.checkpoint_dir, wave, rows,
                    self.seen_shards, self.schedulers, self.wave_metrics[-1],
                )
            frontier = nxt
            n_frontier = n_next
            wave += 1
        # every wave's executions are complete: one final counter read per
        # wave repairs any fire-and-forget delivery lag in the recorded
        # diagnostics (checkpoint-restored waves predate this session's
        # metrics actor and keep their stored values)
        if not _NO_METRICS:
            for m in self.wave_metrics:
                if m["wave"] < self.start_wave:
                    continue
                t = ray.get(self.metrics.wave_totals.remote(m["wave"]))
                m["fetched"] = int(t.get("pages_fetched", 0))
                m["candidates"] = int(t.get("items_parsed", 0))
                m["docs"] = int(t.get("docs_emitted", 0))
            # ... and persist the repaired values: the per-wave checkpoints
            # were written mid-run with possibly-lagged counters, and a
            # resumed run reads its diagnostics from them
            if cfg.checkpoint_dir:
                ckpt.repair_wave_metrics(
                    cfg.checkpoint_dir,
                    [m for m in self.wave_metrics if m["wave"] >= self.start_wave],
                )
        return self.finalize_streaming() if streaming_finalize else self.finalize()

    def shutdown(self) -> None:
        """Kill this pipeline's actor pools (seen shards, schedulers,
        metrics, fuzzy buffers). Call when the run's results have been
        consumed: result datasets stay readable (their wave parents are
        materialized; the remaining lazy stages are pure filters), but a new
        run needs a new pipeline. Long sessions that build pipelines in a
        loop (bench samples) must call this — dataset lineage keeps actor
        handles reachable, so pools otherwise accumulate for the session's
        lifetime."""
        for a in (
            *self.seen_shards,
            *self.schedulers,
            self.metrics,
            *self.fuzzy_bufs.values(),
        ):
            try:
                ray.kill(a)
            except Exception:
                pass

    # -- post-crawl assembly --------------------------------------------------

    FLOG_W_SCHEMA = pa.schema(list(FETCH_LOG_SCHEMA) + [pa.field("wave", pa.int32())])

    def finalize(self) -> dict:
        """Materializing finalize (tests / small runs): pulls docs + fetch
        log to the driver as Arrow tables."""
        tbls = [
            t if isinstance(t, pa.Table) else _collect(t, WAVE_SCHEMA)
            for t in self.doc_tables
        ]
        docs = (
            pa.concat_tables(tbls)
            if tbls
            else pa.Table.from_pydict(_empty_wave_dict(), schema=WAVE_SCHEMA)
        )
        ftbls = [
            t if isinstance(t, pa.Table) else _collect(t, self.FLOG_W_SCHEMA)
            for t in self.fetch_logs
        ]
        flog = pa.concat_tables(ftbls) if ftbls else None
        arts = docs.select(ARTICLE_COLS).sort_by("discovered_seq")
        arts = _fuzzy_pass(arts)
        return {
            "articles": arts,
            "documents": articles_to_documents(arts),
            "fetch_log": flog,
            "wave_metrics": self.wave_metrics,
        }

    def finalize_streaming(self) -> dict:
        """Scale-path finalize: article/document rows never aggregate on the
        driver. The order-dependent fuzzy near-dup scan (sequential by
        reference semantics — SURVEY §7.4/§7.5.2) consumes the (site, seq,
        title) projections the wave stages already side-channelled to the
        buffer actor — so it needs NO extra pass over the doc datasets —
        and returns only the accepted seq set, which a parallel broadcast
        filter applies inside the one finalize execution. This replaces a
        ``groupby(site).map_groups`` formulation whose sort/exchange
        machinery cost ~11 s of pure overhead at bench scale for ~3 s of
        actual work.

        The articles are materialized ONCE, in the object store (never
        collected to the driver): the two sinks consume them three times
        (fingerprint, documents write, day-grouped export), and a lazy
        result would re-run the final filter over every wave's docs — and
        re-read restored checkpoint files — on each pass. ``documents_ds``
        is a lazy span pivot over those blocks."""
        import time as _time

        _t0 = _time.time()
        fuzzy_sites = self._fuzzy_sites
        doc_ds_list = [
            ray.data.from_arrow(t) if isinstance(t, pa.Table) else t
            for t in self.doc_tables
        ] or [ray.data.from_arrow(WAVE_SCHEMA.empty_table())]
        docs_ds = doc_ds_list[0]
        for d in doc_ds_list[1:]:
            docs_ds = docs_ds.union(d)

        kept_refs: list = []
        if self.fuzzy_bufs:
            # waves restored from a checkpoint never ran their stages here,
            # so their projections aren't in the buffers yet: re-push them
            # with a DISTRIBUTED pruned read over the checkpoint rows files
            # (4 narrow columns, doc rows only; map_batches pushes straight
            # to the site buffers — no wave table ever lands on the
            # driver); the scan's same-seq skip makes a repeated finalize
            # idempotent
            if self._restored_row_files:
                bufs = self.fuzzy_bufs

                def push_restored(b: pa.Table) -> pa.Table:
                    b = b.filter(pc.equal(b["rowkind"], "doc"))
                    refs = []
                    for site, buf in bufs.items():
                        sub = b.filter(pc.equal(b["site"], site))
                        if sub.num_rows:
                            refs.append(buf.add.remote(sub.select(FUZZY_PROJ_COLS)))
                    if refs:
                        ray.get(refs)  # durable before the pass's barrier
                    return pa.Table.from_pydict(
                        {"n": pa.array([b.num_rows], pa.int64())}
                    )

                (
                    ray.data.read_parquet(
                        self._restored_row_files, columns=["rowkind", *FUZZY_PROJ_COLS]
                    )
                    .map_batches(push_restored, batch_format="pyarrow")
                    .sum("n")  # execution barrier; driver sees one int
                )
                self._restored_row_files = []
            # also accept plain driver-side tables (test paths append them)
            extras = []
            for t in self.doc_tables:
                if isinstance(t, pa.Table) and t.num_rows:
                    for site, buf in self.fuzzy_bufs.items():
                        sub = t.filter(pc.equal(t["site"], site))
                        if sub.num_rows:
                            extras.append(
                                buf.add.remote(sub.select(FUZZY_PROJ_COLS))
                            )
            if extras:
                ray.get(extras)
            drop = list(self.retracted_seqs)
            kept_refs = [b.scan.remote(drop) for b in self.fuzzy_bufs.values()]
        self.finalize_metrics = {"fuzzy_scan_kickoff": round(_time.time() - _t0, 3)}

        def final_filter(b: pa.Table) -> pa.Table:
            if kept_refs and b.num_rows:
                is_f = pc.is_in(b["site"], value_set=fuzzy_sites)
                if pc.any(is_f).as_py():
                    import numpy as np

                    kept = pa.array(
                        np.concatenate(ray.get(kept_refs)), pa.int64()
                    )
                    ok = pc.is_in(b["discovered_seq"], value_set=kept)
                    b = b.filter(pc.or_(pc.invert(is_f), ok))
            return b.select(ARTICLE_COLS).cast(ARTS_SCHEMA)

        arts_ds = docs_ds.map_batches(final_filter, batch_format="pyarrow").materialize()
        _hs = {s: c.has_summary for s, c in SITES.items()}  # driver snapshot
        documents_ds = arts_ds.map_batches(
            lambda b, hs=_hs: _spans_batch(b, hs), batch_format="pyarrow"
        )
        return RunResult(
            {
                "articles_ds": arts_ds,
                "documents_ds": documents_ds,
                "fetch_logs": self.fetch_logs,
                "wave_metrics": self.wave_metrics,
                "finalize_metrics": self.finalize_metrics,
            }
        )


ARTS_SCHEMA = pa.schema(
    [(name, WAVE_SCHEMA.field(name).type) for name in ARTICLE_COLS]
)


class RunResult(dict):
    """``finalize_streaming``'s result. The dataset keys (``articles_ds``,
    ``documents_ds``, ``fetch_logs``) are real entries; the legacy
    materializing keys of the ``finalize()`` shape (``articles``,
    ``documents``, ``fetch_log``) are computed ON FIRST ACCESS and cached —
    so ``run()`` can default to the streaming finalize while driver-side
    materialization stays strictly opt-in (a scale consumer that only reads
    the ``*_ds`` keys never triggers a collect).

    The lazy keys behave like real entries for every dict idiom, not just
    ``[]``: ``in`` / ``get`` / iteration / ``len`` / ``keys`` all see them
    (``in``/``keys``/``len`` without materializing; ``get``/``items``/
    ``values`` materialize like ``[]`` does — they hand out the value).
    One caveat a subclass cannot fix: a RAW ``dict(res)`` copy uses
    CPython's dict fast path and sees only realized entries — copy with
    ``{k: res[k] for k in res}`` if the legacy keys must ride along."""

    _LAZY = ("articles", "documents", "fetch_log")

    def __contains__(self, key) -> bool:
        return dict.__contains__(self, key) or key in self._LAZY

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError as e:
            # a KeyError for a DIFFERENT key was raised while materializing
            # a lazy value (e.g. the backing 'fetch_logs' entry is missing):
            # that is a broken invariant, not an absent key — surface it
            if e.args and e.args[0] != key:
                raise
            return default

    def __iter__(self):
        yield from dict.__iter__(self)
        yield from (k for k in self._LAZY if not dict.__contains__(self, k))

    def __len__(self) -> int:
        return dict.__len__(self) + sum(
            1 for k in self._LAZY if not dict.__contains__(self, k)
        )

    # real LIVE views (set algebra on keys works; items/values hand out the
    # value, materializing lazy entries on iteration exactly like [])
    def keys(self):
        from collections.abc import KeysView

        return KeysView(self)

    def items(self):
        from collections.abc import ItemsView

        return ItemsView(self)

    def values(self):
        from collections.abc import ValuesView

        return ValuesView(self)

    def __missing__(self, key):
        if key == "articles":
            v = _collect(self["articles_ds"], ARTS_SCHEMA).sort_by("discovered_seq")
        elif key == "documents":
            v = articles_to_documents(self["articles"])
        elif key == "fetch_log":
            ftbls = [
                t if isinstance(t, pa.Table) else _collect(t, CrawlPipeline.FLOG_W_SCHEMA)
                for t in self["fetch_logs"]
            ]
            v = pa.concat_tables(ftbls) if ftbls else None
        else:
            raise KeyError(key)
        self[key] = v
        return v


FUZZY_PROJ_COLS = ["site", "discovered_seq", "title"]


def _fuzzy_scan_tables(tables: list[pa.Table], drop: frozenset) -> "np.ndarray":
    """The order-dependent fuzzy near-dup scan, off the driver: concatenates
    (site, discovered_seq, title) projection tables and runs each fuzzy
    site's sequential first-accepted-wins scan in discovered_seq order —
    the reference's scan order, threshold verbatim — returning ONLY the
    accepted seqs (int64). Replay-safe: repeated pushes of the same seq
    (task retries, repeated finalize) collapse via the sorted same-seq
    skip; retracted seqs are excluded up front. Exact normalized repeats
    short-circuit before the bit-parallel LCS."""
    import numpy as np

    live = [t for t in tables if t.num_rows]
    if not live:
        return np.empty(0, dtype=np.int64)
    t = pa.concat_tables(live)
    accepted: list[int] = []
    for site in pc.unique(t["site"]).to_pylist():
        sub = t.filter(pc.equal(t["site"], site))
        order = pc.sort_indices(sub["discovered_seq"])
        seqs = sub["discovered_seq"].take(order).to_pylist()
        titles = sub["title"].take(order).to_pylist()
        thr = SITES[site].fuzzy_threshold
        mem: list[str] = []
        mem_exact: set[str] = set()
        prev = None
        for sq, ti in zip(seqs, titles):
            if sq == prev or sq in drop:
                continue
            prev = sq
            norm = normalize_for_fuzzy(ti)
            if norm in mem_exact or fuzzy_is_dup(ti, mem, thr):
                continue
            mem.append(norm)
            mem_exact.add(norm)
            accepted.append(sq)
    return np.asarray(accepted, dtype=np.int64)


def _fuzzy_scan_runs(thr: int, runs: list, drop: frozenset) -> "np.ndarray":
    """The per-site sequential first-accepted-wins scan over a k-way MERGE
    of seq-sorted runs (spill files + the in-memory tail): the scan's input
    never concatenates into one table, so scan memory is bounded by the
    accepted-title memory (inherent to the semantics) plus one read batch
    per run. Same replay/retraction contract as `_fuzzy_scan_tables`:
    duplicate seqs are adjacent in merge order and skipped; retracted seqs
    are dropped up front; exact normalized repeats short-circuit before the
    bit-parallel LCS."""
    import heapq

    import numpy as np

    mem: list[str] = []
    mem_exact: set[str] = set()
    prev = None
    accepted: list[int] = []
    for sq, ti in heapq.merge(*runs, key=lambda x: x[0]):
        if sq == prev or sq in drop:
            continue
        prev = sq
        norm = normalize_for_fuzzy(ti)
        if norm in mem_exact or fuzzy_is_dup(ti, mem, thr):
            continue
        mem.append(norm)
        mem_exact.add(norm)
        accepted.append(sq)
    return np.asarray(accepted, dtype=np.int64)


@ray.remote(num_cpus=0)
class FuzzyTitleBuffer:
    """ONE actor PER FUZZY SITE accumulating that site's (site, seq, title)
    doc projections as the wave stages emit them — three narrow columns per
    fuzzy doc, never on the driver — and SPILLING to seq-sorted parquet
    runs past ``spill_rows`` so the hot fuzzy site (the reference's google,
    ~half the frontier) never holds its whole projection in actor RSS.
    The scan k-way-merges the sorted spill runs with the in-memory tail
    (`_fuzzy_scan_runs`) — streaming, not concat-and-sort. Per-site actors
    also let multiple fuzzy sites scan in parallel. num_cpus=0 like the
    other state actors — a fractional reservation quantizes away whole
    task slots at small cluster sizes."""

    def __init__(self, site: str, spill_dir: str | None = None,
                 spill_rows: int = 1 << 20, fuzzy_threshold: int | None = None):
        self.site = site
        # threshold is passed IN by the driver (which sees dynamically
        # registered plugin sites in SITES) — this actor process's module
        # copy may never have seen the registration
        self.fuzzy_threshold = (
            fuzzy_threshold
            if fuzzy_threshold is not None
            else SITES[site].fuzzy_threshold
        )
        self.spill_rows = spill_rows
        self._spill_dir = spill_dir  # created lazily on first spill
        self._tables: list[pa.Table] = []
        self._rows = 0
        self._spills: list[str] = []

    def add(self, t: pa.Table) -> None:
        if t.num_rows == 0:
            return
        self._tables.append(t)
        self._rows += t.num_rows
        if self._rows >= self.spill_rows:
            self._spill()

    def _spill(self) -> None:
        import os
        import tempfile

        import pyarrow.parquet as pq

        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix=f"newsray_fuzzy_{self.site}_")
        os.makedirs(self._spill_dir, exist_ok=True)
        t = pa.concat_tables(self._tables).sort_by("discovered_seq")
        path = os.path.join(self._spill_dir, f"run_{len(self._spills):06d}.parquet")
        pq.write_table(t, path)
        self._spills.append(path)
        self._tables, self._rows = [], 0

    def stats(self) -> dict:
        """Introspection for tests: in-memory rows stay < spill_rows."""
        return {"buffered_rows": self._rows, "n_spills": len(self._spills)}

    def scan(self, drop: list[int]) -> "np.ndarray":
        import pyarrow.parquet as pq

        def file_run(path):
            f = pq.ParquetFile(path)
            for batch in f.iter_batches(
                columns=["discovered_seq", "title"], batch_size=8192
            ):
                yield from zip(
                    batch["discovered_seq"].to_pylist(), batch["title"].to_pylist()
                )

        runs = [file_run(p) for p in self._spills]
        live = [t for t in self._tables if t.num_rows]
        if live:
            tail = pa.concat_tables(live).sort_by("discovered_seq")
            runs.append(
                iter(
                    zip(
                        tail["discovered_seq"].to_pylist(),
                        tail["title"].to_pylist(),
                    )
                )
            )
        return _fuzzy_scan_runs(self.fuzzy_threshold, runs, frozenset(drop))


def _fuzzy_pass(arts: pa.Table) -> pa.Table:
    """Order-dependent fuzzy title dedup for fuzzy-enabled sites; sequential
    by definition (SURVEY §7.5.2) — one pass over the accepted set, per
    site, in discovered_seq order, threshold preserved verbatim. Exact
    normalized-title repeats short-circuit (ratio 100 ≥ any threshold)
    before the bit-parallel LCS scan."""
    fuzzy_sites = {s for s, c in SITES.items() if c.fuzzy_dedup}
    if not fuzzy_sites:
        return arts
    keep = []
    mem: dict[str, list[str]] = {s: [] for s in fuzzy_sites}
    mem_exact: dict[str, set] = {s: set() for s in fuzzy_sites}
    for s, t in zip(arts["site"].to_pylist(), arts["title"].to_pylist()):
        if s in fuzzy_sites:
            cfg = SITES[s]
            norm = normalize_for_fuzzy(t)
            if norm in mem_exact[s] or fuzzy_is_dup(t, mem[s], cfg.fuzzy_threshold):
                keep.append(False)
                continue
            mem[s].append(norm)
            mem_exact[s].add(norm)
        keep.append(True)
    return arts.filter(pa.array(keep, pa.bool_()))


def _spans_batch(b: pa.Table, has_summary: dict | None = None) -> pa.Table:
    """Flat article rows → interleaved span rows, built COLUMNARLY: flat
    kind/text/media_ref/offset arrays + one ListArray.from_arrays — ~6× the
    per-row dict construction (`extract.article_spans` stays the semantic
    definition; conformance tests assert byte-equality against it).

    ``has_summary`` is the site→flag map captured in the DRIVER process:
    when this runs as a worker-side map_batches UDF, dynamically registered
    plugin sites exist only in the driver's SITES dict, so the caller must
    snapshot it (falls back to this process's SITES for driver-local
    calls)."""
    from .schema import DOCUMENTS, SPAN_STRUCT

    n = b.num_rows
    if n == 0:
        return pa.Table.from_pydict(
            {"doc_id": [], "spans": []}, schema=DOCUMENTS
        )
    _hs = (
        has_summary
        if has_summary is not None
        else {s: c.has_summary for s, c in SITES.items()}
    )
    sites = b["site"].to_pylist()
    titles = b["title"].to_pylist()
    times = b["time"].to_pylist()
    summaries = b["summary"].to_pylist()
    imgs = b["img"].to_pylist()
    urls = b["url"].to_pylist()

    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    offs: list[int] = []
    offsets = [0]
    for i in range(n):
        k = 0
        kinds.append("title"); texts.append(titles[i]); refs.append(""); offs.append(k); k += 1
        kinds.append("time"); texts.append(times[i].isoformat()); refs.append(""); offs.append(k); k += 1
        if _hs[sites[i]] and summaries[i]:
            kinds.append("summary"); texts.append(summaries[i]); refs.append(""); offs.append(k); k += 1
        if imgs[i]:
            kinds.append("image"); texts.append(""); refs.append(imgs[i]); offs.append(k); k += 1
        kinds.append("link"); texts.append(""); refs.append(urls[i]); offs.append(k); k += 1
        offsets.append(offsets[-1] + k)

    struct = pa.StructArray.from_arrays(
        [
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.string()),
            pa.array(refs, pa.string()),
            pa.array(offs, pa.int32()),
        ],
        fields=list(SPAN_STRUCT),
    )
    spans = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    return pa.Table.from_arrays(
        [pa.array(urls, pa.string()), spans], schema=DOCUMENTS
    )


def articles_to_documents(arts: pa.Table) -> pa.Table:
    """Span pivot: flat article rows → interleaved documents rows
    (input_hint schema). Large tables pivot in parallel via a short Ray
    map_batches; small ones locally."""
    from .schema import DOCUMENTS

    if arts.num_rows > 20000 and ray.is_initialized():
        hs = {s: c.has_summary for s, c in SITES.items()}  # driver snapshot
        ds = (
            ray.data.from_arrow(arts)
            .repartition(16)
            .map_batches(
                lambda b: _spans_batch(b, hs),
                batch_format="pyarrow",
                batch_size=8192,
            )
        )
        return _collect(ds, DOCUMENTS)
    return _spans_batch(arts)


def day_grouped(arts: pa.Table) -> list[dict]:
    """The reference's day-grouped sink shape (A1/O1): one entry per
    (site, date_group); articles time-desc within the group for
    sort-in-group sites, else discovery order."""
    df = arts.to_pandas()
    out = []
    for (site, dg), g in sorted(
        df.groupby(["site", "date_group"]), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        cfg = SITES[site]
        if cfg.sort_in_group:
            g = g.sort_values("time", ascending=False, kind="mergesort")
        else:
            g = g.sort_values("discovered_seq", kind="mergesort")
        out.append(
            {
                "site": site,
                "date": dg,
                "articles": g.drop(columns=["date_group"]).to_dict("records"),
            }
        )
    return out


def _collect(ds: ray.data.Dataset, schema: pa.Schema) -> pa.Table:
    refs = ds.to_arrow_refs()
    blocks = ray.get(refs)
    tables = []
    for t in blocks:
        if isinstance(t, pd.DataFrame):  # empty/edge blocks can come back pandas
            if len(t) == 0:
                continue
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows > 0:
            tables.append(t)
    if not tables:
        return pa.Table.from_pydict({n: [] for n in schema.names}, schema=schema)
    out = pa.concat_tables(
        [t.select(schema.names) for t in tables], promote_options="permissive"
    )
    return out.cast(schema)
