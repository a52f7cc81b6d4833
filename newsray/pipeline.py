"""The Ray-Data-native crawl pipeline: BFS wave loop over the frontier
(SURVEY.md §3.5, §7).

Each wave is ONE fused streaming Dataset execution, materialized at the
wave barrier; the next frontier hands off LAZILY (its filter/relabel runs
inside the next wave's plan over this wave's materialized blocks — zero
extra executions per wave):

    frontier ──groupby(host)→ politeness/budget schedule (actor RPC, 1/host)
             ──repartition→ skew-spread released rows
             ──map_batches(fetch+parse, fused)→ listing items, next pages and
               two-hop article pages as rows  [payload never leaves the stage]
             ──map_batches(gate + claim + finalize)→ validity/canonicalize/robots,
               greedy URL CLAIM with retraction (cuckoo shards; a lower seq
               overtakes and retracts the earlier claimant — see seen.py),
               deferred title RECORD (title-seen sites), then the one
               finalize over listing items and article pages alike:
               relevance, hop, ``extract.finalize_article``, recency
               → docs + next-frontier rows
             ──materialize── barrier: title contention resolved, retracted
               seqs dropped from every view by one broadcast filter

Design notes for 10^10-URL scale:

* ``payload: binary`` exists only INSIDE the fused fetch+parse stage — it is
  never a column of any materialized/checkpointed dataset (SURVEY §7.5.8).
* Stateful crawl state lives in one actor pool, the seen shards (seen.py):
  each holds its slice of the cuckoo-filter seen-set and the per-host
  politeness/budget state of the hosts routed to it (frontier.py), and
  shard 0 also holds the per-wave counters. The per-batch transform stages
  are stateless Ray tasks whose heavy setup (keyword automata, the
  synthetic-web generator; in production: HTTP session pools) is cached
  once per worker PROCESS in ``_ENGINES`` — amortized like an actor pool, but elastic and with zero
  per-wave pool spin-up. The order-dependent fuzzy-title scan is a plain
  task per fuzzy site at finalize, over the rows the waves already hold.
* Wave barriers are inherent to BFS frontier feedback; what crosses a wave
  boundary is bounded metadata (frontier rows, article spans), not bytes.
* The only per-wave all-to-all exchange is groupby(host) for politeness
  (ONE batched RPC per host per wave); exact dedup is shuffle-free via the
  shards' claim-with-retraction. A hot host's released rows are spread
  across blocks by an explicit repartition before the heavy fetch/parse
  stages (north_rule skew splitting: one token bucket per host, many fetch
  workers).
* Datasets downstream of seen-claim stages are materialized exactly once
  before branching — re-executing a lazy plan with actor side effects would
  double-insert into the shards.
* Every wave checkpoints under an atomic manifest (checkpoint.py): resume
  re-fetches nothing and drops nothing.
* After the barrier, work is sized by rows, not by the wave's fetch
  fan-out: finalize's one article map and the checkpoint rows write
  coalesce the waves' blocks into tasks of ``POST_BARRIER_ROWS`` rows, and
  the sinks inherit the articles' blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import ray
import ray.data

from .canonicalize import canonicalize, canonicalize_batch
from .datefns import within_last_days
from .extract import (
    decode_payload,
    finalize_article,
    make_seq,
    parse_article_for,
    parse_listing_for,
)
from .frontier import ScheduleGroup
from .oracle import effective_page_cap, make_matcher
from .policy import CrawlPolicy
from .seen import WaveMinStage, make_seen_pool, restore_keys, seen_keys
from .sites import SITE_RANK, SITES
from .synth import WebParams
from .textfns import KeywordMatcher, fuzzy_is_dup, html_to_text, normalize_for_fuzzy

# unified wave-row schema: every rowkind of a wave's stages
WAVE_SCHEMA = pa.schema(
    [
        # 'flog' | 'next' | 'doc' | 'frontier' | 'useen' | 'tseen', and the
        # transient 'cand' (listing item) and 'detail' (two-hop article
        # page), which relevance_finalize consumes inside the wave's fused
        # task: neither reaches a materialized wave or a checkpoint
        ("rowkind", pa.string()),
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

# Rows per task and per output block after the wave barrier (finalize's
# article map, the checkpoint rows write). Each Ray task costs 10-30 ms of
# fixed scheduling and (de)serialization, and a wave block after the
# fetch fan-out often holds a few hundred rows: one task per such block
# makes finalize, the checkpoint and both sinks scale with waves x fan-out
# instead of with the data. At scale the block count is rows / this.
POST_BARRIER_ROWS = 8192

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


def wave_rows(kind: str, cols: dict) -> pa.Table:
    """A WAVE_SCHEMA table of ``kind`` rows: ``cols`` maps column names to
    equal-length lists or Arrow arrays; every other column is null."""
    n = len(next(iter(cols.values())))
    arrays = []
    for f in WAVE_SCHEMA:
        v = [kind] * n if f.name == "rowkind" else cols.get(f.name)
        if v is None:
            v = pa.nulls(n, f.type)
        elif not isinstance(v, (pa.Array, pa.ChunkedArray)):
            v = pa.array(v, f.type)
        arrays.append(v)
    return pa.Table.from_arrays(arrays, schema=WAVE_SCHEMA)


def _append(cols: dict, *vals) -> None:
    """Append one row's ``vals`` to ``cols``' lists, in their key order."""
    for col, v in zip(cols.values(), vals):
        col.append(v)


# ---------------------------------------------------------------------------
# stage bodies (stateless tasks; heavy state via get_engine)
# ---------------------------------------------------------------------------


def fetch_parse(batch: pa.Table, web_params: WebParams, policy: CrawlPolicy) -> pa.Table:
    """Fused fetch + parse over released frontier rows. The page payload is
    generated (in production: HTTP-fetched by a session held in worker
    state), parsed, and DROPPED inside this one stage — row metadata is
    all that flows on: a ``flog`` row per fetch, a ``cand`` row per listing
    item, a ``next`` row for a listing's next page, and a ``detail`` row per
    two-hop article page (the listing's title first, the page's time or
    else the listing's, the page's image, its summary in ``lead``).
    Relevance and finalize happen once, in ``relevance_finalize``."""
    eng = get_engine(web_params, policy)
    flog = {c: [] for c in ("site", "canon_url", "host", "discovered_seq", "released_at_virtual")}
    cand = {
        c: []
        for c in (
            "site", "category", "seed_rank", "page_no", "discovered_seq", "href",
            "title", "time_raw", "img", "lead", "base_url",
        )
    }
    nxt = {c: [] for c in ("site", "category", "seed_rank", "page_no", "discovered_seq", "canon_url", "host")}
    detail = {c: [] for c in ("site", "discovered_seq", "canon_url", "title", "time_raw", "img", "lead")}

    for row in batch.to_pylist():
        cfg = SITES[row["site"]]
        site = cfg.site
        _append(
            flog, site, row["canon_url"], row["host"], row["discovered_seq"],
            row.get("released_at_virtual"),
        )
        status, enc, payload = eng.web.fetch(row["canon_url"])
        if status != 200:
            continue
        html = decode_payload(payload, enc)
        if row["kind"] == "listing":
            items = parse_listing_for(cfg, html)
            cat, seed, page = row["category"], row["seed_rank"], row["page_no"]
            if items and page + 1 <= effective_page_cap(cfg, cat):
                nxt_url = f"https://{cfg.host}/sec/{cat}{seed}/p{page + 1}"
                canon, h = canonicalize(nxt_url, nxt_url)
                seq = make_seq(SITE_RANK[site], 0, seed, page + 1, 0)
                _append(nxt, site, cat, seed, page + 1, seq, canon, h)
            base = row["canon_url"]
            seq0 = make_seq(SITE_RANK[site], 1, seed, page, 0)
            for item in items:
                _append(
                    cand, site, cat, seed, page, seq0 + item.dom_idx, item.href,
                    item.title, item.time_raw, item.img, item.lead, base,
                )
        else:  # two-hop article detail page
            art = parse_article_for(cfg, html)
            traw = art["time_raw"]
            if traw is None:  # time only on the listing (e.g. Daum)
                traw = row.get("time_raw")
            _append(
                detail, site, row["discovered_seq"], row["canon_url"],
                row["title"] or art["title"], traw, art["img"], art["summary"],
            )

    return pa.concat_tables(
        [
            wave_rows(kind, cols)
            for kind, cols in (("flog", flog), ("cand", cand), ("next", nxt), ("detail", detail))
        ]
    )


def cand_gate(batch: pa.Table, policy: CrawlPolicy) -> pa.Table:
    """Candidate gate: href validity → canonicalize → off-host → robots;
    fills canon_url/host. Output keeps the WAVE_SCHEMA column order."""
    if batch.num_rows == 0:
        return batch
    hrefs = batch["href"].to_pylist()
    bases = batch["base_url"].to_pylist()
    sites = batch["site"].to_pylist()
    valid, canon, hosts, paths = canonicalize_batch(hrefs, bases)
    keep = [
        ok and h == SITES[s].host and policy.allowed(h, path)
        for ok, h, path, s in zip(valid, hosts, paths, sites)
    ]
    batch = batch.set_column(
        batch.column_names.index("canon_url"), "canon_url", pa.array(canon, pa.string())
    )
    batch = batch.set_column(
        batch.column_names.index("host"), "host", pa.array(hosts, pa.string())
    )
    return batch.filter(pa.array(keep, pa.bool_()))


# the columns relevance_finalize reads per row
_FINALIZE_IN = ["rowkind", "site", "discovered_seq", "canon_url", "title", "time_raw", "img", "lead"]


def relevance_finalize(
    batch: pa.Table, web_params: WebParams, policy: CrawlPolicy
) -> pa.Table:
    """The wave's one finalize, the oracle's per-row tail over claimed
    listing items (``cand``) and two-hop article pages (``detail``):

    1. keyword relevance, checked once per article: on its ``cand`` row for
       title and title+lead sites, on its ``detail`` row (title plus page
       summary) for title+summary sites;
    2. a two-hop ``cand`` becomes a next-wave ``frontier`` row;
    3. every other row goes through ``extract.finalize_article`` (time
       cascade, image, summary, day label) and ``within_last_days`` and
       leaves as a ``doc`` row."""
    eng = get_engine(web_params, policy)
    now = policy.now
    hop: list[int] = []
    docs: list[dict] = []
    for i, r in enumerate(batch.select(_FINALIZE_IN).to_pylist()):
        cfg = SITES[r["site"]]
        is_cand = r["rowkind"] == "cand"
        # title+summary sites check the article page, the others the item
        if is_cand != (cfg.match_target == "title+summary"):
            target = r["title"]
            if cfg.match_target != "title" and r["lead"]:
                target = target + " " + html_to_text(r["lead"])
            if not eng.matchers[cfg.site].relevant(target):
                continue
        if is_cand and cfg.detail_hop:
            hop.append(i)
            continue
        rec = finalize_article(
            cfg, r["canon_url"], r["title"], r["time_raw"], r["lead"], r["img"],
            r["discovered_seq"], now,
        )
        if rec is None:
            continue
        if cfg.recency_days is not None and not within_last_days(
            rec["time"], now, cfg.recency_days
        ):
            continue
        docs.append(rec)
    fr = batch.take(pa.array(hop, pa.int64()))
    return pa.concat_tables(
        [
            wave_rows("frontier", {c: fr[c] for c in FRONTIER_COLS if c != "kind"}),
            wave_rows("doc", {c: [d[c] for d in docs] for c in ARTICLE_COLS}),
        ]
    )


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
# The live wave (run_wave) and checkpoint restore derive the fetch log and
# the next frontier from a wave's rows with these same batch functions, and
# finalize derives the docs; ``drop`` is the retracted-seq set (None once
# rows are checkpointed, which already excludes it). Restore also folds
# the flog, useen and tseen rows back into politeness and seen-set state.


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
    """A wave's checkpointed rows: flog and useen rows unchanged, every
    other rowkind (doc / next / frontier / tseen) minus the retracted seqs.
    So the kept useen rows are every URL key the wave inserted, and the
    kept tseen rows are exactly the title winners (``resolve_titles``): a
    title held only by retracted rows stays unseen."""
    if drop is None or b.num_rows == 0:
        return b
    keep = pc.or_(
        pc.is_in(b["rowkind"], value_set=pa.array(["flog", "useen"])),
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
    # no effect: politeness state lives in the seen shards. Kept only
    # because perfbench/session.py (PIPE_KW) still passes it; the benchmark
    # PR of ROADMAP item 10 drops it there and here.
    n_sched_shards: int = 2
    # fetch+parse runs one batch per block, so this sets its task
    # granularity and skew spread
    repartition_blocks: int = 16
    checkpoint_dir: str | None = None
    seen_capacity_per_shard: int = 1 << 18
    # chaos hook (tests): name of a Ray actor whose take() decides whether a
    # fetch task raises mid-wave — proves the wave protocol's output is
    # unchanged when Ray's task retry re-runs a batch late in the wave.
    # None (production) = zero cost.
    fault_inject_actor: str | None = None
    # S5 existing-output bootstrap: seed the URL-seen shards from a prior
    # run's day-grouped JSON exports (the reference's get_existing_links —
    # the no-checkpoint migration path). Checkpoint restore wins when both
    # are configured: a checkpointed run keeps the seeded URLs with its
    # wave 0 input, so a resume neither re-reads the exports nor loses
    # them. Like the reference, a bootstrapped rerun re-fetches listings
    # but never re-emits a seen article.
    bootstrap_output_dir: str | None = None


class CrawlPipeline:
    """Driver object owning the actor pools + wave loop. Does NOT call
    ray.init(); the caller owns the session."""

    def __init__(self, cfg: PipelineConfig):
        from .webfixture import build_web

        self.cfg = cfg
        self.web = build_web(cfg.web_params)  # driver-side: seeds only
        # the crawl's only actors: seen set, politeness state, counters
        self.seen_shards = make_seen_pool(
            cfg.n_seen_shards, cfg.seen_capacity_per_shard, cfg.policy.host_budget
        )
        self.metrics = self.seen_shards[0]  # the shard holding the counters
        self._fuzzy_sites = pa.array([s for s, c in SITES.items() if c.fuzzy_dedup])
        self.retracted_seqs: set[int] = set()
        self.wave_metrics: list[dict] = []
        self.fetch_logs: list[pa.Table] = []
        self.start_wave = 0
        self._frontier0: pa.Table | None = None
        self._restored = False
        # the (site, canon_url) pairs bootstrap_seen seeded, None if it did
        # not run: wave 0 checkpoints them as input
        self._bootstrapped: pa.Table | None = None
        # where finalize_streaming reads the crawl's doc rows: the live
        # waves' materialized datasets and the rows files of
        # checkpoint-restored waves (never a driver copy of either)
        self._wave_ds: list[ray.data.Dataset] = []
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
        keys match the wave protocol's claim keys exactly. A checkpointed
        run keeps the seeded pairs with wave 0's input, so a resume restores
        them too. Returns the number of URLs seeded."""
        from .sink import load_existing_links

        sites, urls = [], []
        for site, seen in sorted(load_existing_links(out_dir).items()):
            for url in sorted(seen):
                sites.append(site)
                urls.append(url)
        restore_keys(self.seen_shards, seen_keys("u", sites, urls))
        self._bootstrapped = pa.table(
            {"site": pa.array(sites, pa.string()), "canon_url": pa.array(urls, pa.string())}
        )
        return len(urls)

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
        """Returns (next_frontier_ds, flog_ds, rows_ds, n_retracted). The
        three outputs are DISTRIBUTED rowkind views over the wave's one
        materialized execution — fetch-log rows and the next frontier never
        aggregate on the driver (the driver sees counts and the tiny
        title-retraction set; per-wave driver state is O(hosts)).
        ``rows_ds`` is what the wave checkpoints (checkpoint.write_wave),
        and all a restore needs: the fetch log, the next frontier, the
        politeness state (a fold over the fetch log) and the seen set (its
        useen / tseen claim rows). The wave's doc rows stay in its
        materialized blocks (``_wave_ds``), which finalize_streaming
        reads.

        ONE fused heavy streaming execution per wave, ZERO candidate
        shuffles: schedule (groupby host — the one unavoidable exchange,
        one politeness/budget RPC per host) → repartition (skew-spread) →
        fused fetch+parse → candidate gate → greedy URL CLAIM → deferred
        title RECORD → the one relevance + finalize, materialized.

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

        sched_fn = ScheduleGroup(self.seen_shards)
        fault_actor = cfg.fault_inject_actor

        def fetch_parse_m(b: pa.Table) -> pa.Table:
            out = fetch_parse(b, wp, policy)
            if fault_actor is not None and b.num_rows:
                # chaos hook: die after the fetch, before this batch's
                # claims and counters — the retry re-runs the batch later in
                # the wave, so its claims arrive in another order (tested
                # end-to-end)
                if ray.get(ray.get_actor(fault_actor).take.remote()):
                    raise RuntimeError("injected transient fault (test hook)")
            kinds = out["rowkind"]
            # ONE batched increment per batch, FIRE-AND-FORGET: a synchronous
            # ray.get here serialized every task of the wave through the
            # counter shard's queue — measured ~30% of crawl wall at bench
            # scale (A/B, min-of-3: 36.1 s sync vs 25.2 s async). Counters
            # are DIAGNOSTICS; the loop's only correctness-bearing use (the
            # terminate-on-empty decision) confirms zero with an exact
            # data-plane count (run(): nxt.count()), and run() re-reads the
            # totals after the last barrier to repair any delivery lag in
            # the recorded wave_metrics.
            metrics.incr_many.remote(
                wave,
                {
                    "pages_fetched": b.num_rows,
                    "items_parsed": int(pc.sum(pc.equal(kinds, "cand")).as_py() or 0),
                    "next_rows": int(pc.sum(pc.equal(kinds, "next")).as_py() or 0),
                },
            )
            return out

        def gate_claim_finalize(b: pa.Table) -> pa.Table:
            kinds = b["rowkind"]
            is_cand = pc.equal(kinds, "cand")
            is_detail = pc.equal(kinds, "detail")
            others = b.filter(pc.invert(pc.or_(is_cand, is_detail)))
            cands = cand_gate(b.filter(is_cand), policy)
            n_admitted = cands.num_rows
            cands = url_wave.claim(cands)  # greedy URL dedup w/ retraction
            is_t = pc.is_in(cands["site"], value_set=tsites_arr)
            t_rows = cands.filter(is_t)
            if t_rows.num_rows:
                t_rows = title_wave.record(t_rows)  # deferred contention
            # the claims this batch made, as rows: the checkpoint's seen set
            claimed = [
                wave_rows(kind, {c: t[c] for c in ("site", key, "discovered_seq")})
                for kind, t, key in (("useen", cands, "canon_url"), ("tseen", t_rows, "title"))
            ]
            # the claimed listing items and this batch's article pages (their
            # URLs were claimed as listing items a wave earlier) finalize as one
            merged = pa.concat_tables(
                [t_rows, cands.filter(pc.invert(is_t)), b.filter(is_detail)]
            )
            fin = relevance_finalize(merged, wp, policy)
            # fire-and-forget, same rationale as fetch_parse_m
            metrics.incr_many.remote(
                wave,
                {
                    "cand_admitted": n_admitted,
                    "docs_emitted": int(
                        pc.sum(pc.equal(fin["rowkind"], "doc")).as_py() or 0
                    ),
                    "frontier_rows": int(
                        pc.sum(pc.equal(fin["rowkind"], "frontier")).as_py() or 0
                    ),
                },
            )
            return pa.concat_tables([others, *claimed, fin])

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
        # the wave's blocks, for finalize (no new execution)
        self._wave_ds.append(parsed)
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
        def view(fn, batch_size=None, **kw):
            return parsed.map_batches(
                fn, batch_format="pyarrow", batch_size=batch_size, fn_kwargs=kw
            )

        return (
            view(to_frontier, drop=drop),
            # consumers collect the fetch log (to_arrow_refs), whose schema
            # probe re-runs the view and stops it at the first block: one
            # task per POST_BARRIER_ROWS rows leaves no task in flight for
            # that stop to cancel (such cancels went with Ray driver aborts,
            # a failed reference-count check in its core worker)
            view(flog_rows, batch_size=POST_BARRIER_ROWS, wave=wave),
            view(checkpoint_rows, drop=drop),
            len(retracted),
        )

    # -- full run -------------------------------------------------------------

    def run(self) -> dict:
        """The wave loop, then finalize. With ``checkpoint_dir`` set, a
        re-submitted job RESUMES from the checkpoint's last completed wave
        (at any shard counts), and every wave it runs is checkpointed; an
        explicit checkpoint.restore() call first makes the auto-restore a
        no-op."""
        from . import checkpoint as ckpt

        cfg = self.cfg
        if cfg.checkpoint_dir and not self._restored:
            # restore() returns False for an EMPTY checkpoint dir (a fresh
            # run that will start checkpointing forward) — that must not
            # swallow a configured bootstrap, so track "state actually
            # restored" separately from "restore attempted"
            restored_state = ckpt.restore(self, cfg.checkpoint_dir)
            self._restored = True
        else:
            restored_state = self._restored
        # S5 existing-output bootstrap (no-checkpoint migration path): an
        # ACTUAL checkpoint restore carries strictly more state (its wave 0
        # input holds the keys a bootstrap seeded), so it wins; an empty
        # checkpoint dir does not
        if (
            cfg.bootstrap_output_dir
            and not restored_state
            and self._bootstrapped is None
        ):
            self.bootstrap_seen(cfg.bootstrap_output_dir)
        seed = self._frontier0 if self._frontier0 is not None else self.seed_frontier()
        n_frontier = seed.num_rows
        frontier = ray.data.from_arrow(seed)
        wave = self.start_wave
        while n_frontier > 0 and wave < cfg.policy.max_waves:
            if cfg.checkpoint_dir:
                ckpt.write_frontier_in(cfg.checkpoint_dir, wave, self._bootstrapped)
            nxt, flog, rows, n_retracted = self.run_wave(wave, frontier, n_est=n_frontier)
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
                ckpt.write_wave(cfg.checkpoint_dir, wave, rows, self.wave_metrics[-1])
            frontier = nxt
            n_frontier = n_next
            wave += 1
        # every wave's executions are complete: one final counter read per
        # wave repairs any fire-and-forget delivery lag in the recorded
        # diagnostics (checkpoint-restored waves predate this pipeline's
        # counter shard and keep their stored values)
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
        return self.finalize_streaming()

    def shutdown(self) -> None:
        """Kill this pipeline's actor pool (the seen shards, which also hold
        the politeness state and counters). Call when the run's results have
        been consumed: result datasets stay readable (their wave parents are
        materialized; the remaining lazy stages are pure filters), but a new
        run needs a new pipeline. Long sessions that build pipelines in a
        loop (bench samples) must call this — dataset lineage keeps actor
        handles reachable, so pools otherwise accumulate for the session's
        lifetime."""
        for a in self.seen_shards:
            try:
                ray.kill(a)
            except Exception:
                pass

    # -- post-crawl assembly --------------------------------------------------

    FLOG_W_SCHEMA = pa.schema(list(FETCH_LOG_SCHEMA) + [pa.field("wave", pa.int32())])

    def finalize_streaming(self) -> dict:
        """The crawl's one finalize: article/document rows never aggregate
        on the driver. The order-dependent fuzzy near-dup scan (sequential by
        reference semantics — SURVEY §7.4/§7.5.2) is ONE task per fuzzy
        site (`fuzzy_scan_site`) over the rows the crawl already holds: the
        live waves' materialized blocks (object-store refs) and the
        restored waves' checkpoint rows files. It returns only the accepted
        seq set.

        The articles come from the same two sources — a union of the live
        waves' materialized datasets and a read of the restored rows files
        — in ONE map, ``final_filter``, over batches of
        ``POST_BARRIER_ROWS`` rows: doc rows minus the run's retracted
        seqs, fuzzy sites cut to the accepted seqs, projected to
        ``ARTS_SCHEMA``. The map starts once the scans are done (waited on
        here, not inside a map task, where a blocking get would hold a task
        slot), so every task reads the keep-sets without waiting.

        The articles are materialized ONCE, in the object store (never
        collected to the driver), in about one block per
        ``POST_BARRIER_ROWS`` input rows: the two sinks consume them three
        times (fingerprint, documents write, day-grouped export), each pass
        one task per block. ``documents_ds`` is a lazy span pivot over
        those blocks.

        Returns a plain dict of datasets and diagnostics: ``articles_ds``,
        ``documents_ds``, ``fetch_logs`` (one Dataset per wave, restored
        waves included) and ``wave_metrics``. No driver-table form exists;
        a caller that needs tables reads the datasets."""
        import numpy as np

        fuzzy_sites = self._fuzzy_sites
        drop = (
            pa.array(sorted(self.retracted_seqs), pa.int64()) if self.retracted_seqs else None
        )
        blocks = [r for d in self._wave_ds for r in d.to_arrow_refs()]
        # the threshold is passed from the driver, which sees dynamically
        # registered plugin sites in SITES
        kept_refs = [
            fuzzy_scan_site.remote(
                site, SITES[site].fuzzy_threshold, blocks, self._restored_row_files, drop
            )
            for site in fuzzy_sites.to_pylist()
        ]

        def final_filter(b: pa.Table) -> pa.Table:
            b = keep_docs(b, drop)
            if kept_refs and b.num_rows:
                is_f = pc.is_in(b["site"], value_set=fuzzy_sites)
                if pc.any(is_f).as_py():
                    kept = pa.array(np.concatenate(ray.get(kept_refs)), pa.int64())
                    ok = pc.is_in(b["discovered_seq"], value_set=kept)
                    b = b.filter(pc.or_(pc.invert(is_f), ok))
            return b.select(ARTICLE_COLS).cast(ARTS_SCHEMA)

        files = self._restored_row_files
        sources = list(self._wave_ds)
        if files:
            # the doc rows only, so that the claim and fetch-log rows the
            # files also hold do not count towards the map's batches
            sources.append(
                ray.data.read_parquet(
                    files, override_num_blocks=len(files), filter=pds.field("rowkind") == "doc"
                )
            )
        if not sources:
            sources.append(ray.data.from_arrow(WAVE_SCHEMA.empty_table()))
        rows = sources[0].union(*sources[1:]) if len(sources) > 1 else sources[0]
        if kept_refs:
            ray.wait(kept_refs, num_returns=len(kept_refs), fetch_local=False)
        arts_ds = rows.map_batches(
            final_filter, batch_format="pyarrow", batch_size=POST_BARRIER_ROWS
        ).materialize()
        _hs = {s: c.has_summary for s, c in SITES.items()}  # driver snapshot
        documents_ds = arts_ds.map_batches(
            lambda b, hs=_hs: _spans_batch(b, hs), batch_format="pyarrow"
        )
        return {
            "articles_ds": arts_ds,
            "documents_ds": documents_ds,
            "fetch_logs": self.fetch_logs,
            "wave_metrics": self.wave_metrics,
        }


ARTS_SCHEMA = pa.schema(
    [(name, WAVE_SCHEMA.field(name).type) for name in ARTICLE_COLS]
)


SCAN_COLS = ["discovered_seq", "title"]
SCAN_SLICE = 8192  # rows per Arrow slice a scan run is read in


def _fuzzy_scan_runs(thr: int, runs: list[pa.Table], drop: pa.Array | None) -> "np.ndarray":
    """The order-dependent fuzzy near-dup scan of ONE site: sequential
    first-accepted-wins in discovered_seq order — the reference's scan
    order, threshold verbatim — over a k-way MERGE of seq-sorted runs
    (tables holding ``SCAN_COLS``), returning ONLY the accepted seqs
    (int64). Runs are read in Arrow slices of at most ``SCAN_SLICE`` rows,
    so besides the runs themselves the scan holds the accepted-title memory
    (inherent to the semantics) plus one slice per run. Retracted seqs
    (``drop``) are excluded up front; a seq present twice (a replayed or
    repeated input) is scanned once; exact normalized repeats
    short-circuit before the bit-parallel LCS."""
    import heapq

    import numpy as np

    def rows(run: pa.Table):
        for b in run.to_batches(max_chunksize=SCAN_SLICE):
            b = drop_retracted(b, drop)
            yield from zip(b["discovered_seq"].to_pylist(), b["title"].to_pylist())

    mem: list[str] = []
    mem_exact: set[str] = set()
    prev = None
    accepted: list[int] = []
    for sq, ti in heapq.merge(*map(rows, runs), key=lambda x: x[0]):
        if sq == prev:
            continue
        prev = sq
        norm = normalize_for_fuzzy(ti)
        if norm in mem_exact or fuzzy_is_dup(ti, mem, thr):
            continue
        mem.append(norm)
        mem_exact.add(norm)
        accepted.append(sq)
    return np.asarray(accepted, dtype=np.int64)


@ray.remote
def fuzzy_scan_site(
    site: str, thr: int, blocks: list, row_files: list[str], drop: pa.Array | None
) -> "np.ndarray":
    """One fuzzy site's finalize scan as a plain task: one seq-sorted run
    per wave block (object-store refs, fetched one at a time and cut to the
    site's doc rows) and per checkpoint rows file (a pruned read of the
    same rows), merged by `_fuzzy_scan_runs`."""
    import pyarrow.parquet as pq

    def site_docs(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(t["rowkind"], "doc"), pc.equal(t["site"], site))
        return t.filter(m).select(SCAN_COLS).sort_by("discovered_seq")

    runs = [site_docs(t) for t in map(ray.get, blocks) if t.num_rows]
    runs += [
        pq.read_table(
            f, columns=SCAN_COLS, filters=[("rowkind", "=", "doc"), ("site", "=", site)]
        ).sort_by("discovered_seq")
        for f in row_files
    ]
    return _fuzzy_scan_runs(thr, runs, drop)


def _spans_batch(b: pa.Table, has_summary: dict) -> pa.Table:
    """Flat article rows → interleaved span rows, built COLUMNARLY: flat
    kind/text/media_ref/offset arrays + one ListArray.from_arrays — ~6× the
    per-row dict construction (`extract.article_spans` stays the semantic
    definition; conformance tests assert byte-equality against it).

    ``has_summary`` is the site→flag map captured in the DRIVER process:
    this runs as a worker-side map_batches UDF, and dynamically registered
    plugin sites exist only in the driver's SITES dict, so the caller must
    snapshot it."""
    from .schema import DOCUMENTS, SPAN_STRUCT

    n = b.num_rows
    if n == 0:
        return pa.Table.from_pydict(
            {"doc_id": [], "spans": []}, schema=DOCUMENTS
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
        if has_summary[sites[i]] and summaries[i]:
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
