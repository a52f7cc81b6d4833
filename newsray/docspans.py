"""Interleaved-document span pivot over the generic documents table
(BASELINE.json input_hint shape: doc_id:string +
spans:list<struct<kind,text,media_ref,offset>>).

The crawl pipeline produces this table natively (its ``documents_ds``);
this module produces the same shape from the driver's flat `documents`
parquet, so the two sources union into one corpus (see __ray_entry__.entry).

For the driver's DuckDB gate the registered queries return the EXPLODED
flat view (doc_id, span_offset, kind, text, media_ref) — every column a SQL
type — while the nested list<struct> shape remains the pipeline's product
(entry(), ``documents_ds``, sink.write_documents_ds). The crawl queries
read the crawl's production outputs — ``articles_ds``, the ``documents_ds``
span pivot, the per-wave ``fetch_logs`` and the files
``sink.day_grouped_export_ds`` writes — so the gate checks the paths that
run."""

from __future__ import annotations

import pyarrow as pa

from .golden import CRAWL_SITES, DAY_GROUPS_SCHEMA, golden_sql
from .registry import register
from .schema import DOCUMENTS, SPAN_STRUCT
from .tabular import read


def spanify_batch(b: pa.Table) -> pa.Table:
    doc_ids, spans = [], []
    for doc_id, text, source in zip(
        b["doc_id"].to_pylist(), b["text"].to_pylist(), b["source"].to_pylist()
    ):
        title = " ".join(text.split(" ")[:6])
        doc_ids.append(f"synth://{source}/{doc_id}")
        spans.append(
            [
                {"kind": "title", "text": title, "media_ref": "", "offset": 0},
                {"kind": "summary", "text": text, "media_ref": "", "offset": 1},
                {"kind": "link", "text": "", "media_ref": f"synth://{source}/{doc_id}", "offset": 2},
            ]
        )
    return pa.Table.from_pydict(
        {"doc_id": pa.array(doc_ids, pa.string()), "spans": pa.array(spans, pa.list_(SPAN_STRUCT))},
        schema=DOCUMENTS,
    )


def explode_spans_batch(b: pa.Table) -> pa.Table:
    """Nested documents rows → one row per span (SQL-typed columns)."""
    ids, offs, kinds, texts, refs = [], [], [], [], []
    for doc_id, spans in zip(b["doc_id"].to_pylist(), b["spans"].to_pylist()):
        for s in spans:
            ids.append(doc_id)
            offs.append(s["offset"])
            kinds.append(s["kind"])
            texts.append(s["text"])
            refs.append(s["media_ref"])
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids, pa.string()),
            "span_offset": pa.array(offs, pa.int32()),
            "kind": pa.array(kinds, pa.string()),
            "text": pa.array(texts, pa.string()),
            "media_ref": pa.array(refs, pa.string()),
        }
    )


@register(
    "documents_interleaved",
    sql="""
    WITH base AS (
      SELECT 'synth://' || source || '/' || CAST(doc_id AS VARCHAR) AS did,
             array_to_string((string_split(text, ' '))[1:6], ' ') AS title,
             text
      FROM documents
    )
    SELECT did AS doc_id, CAST(0 AS INTEGER) AS span_offset,
           'title' AS kind, title AS text, '' AS media_ref FROM base
    UNION ALL
    SELECT did, CAST(1 AS INTEGER), 'summary', text, '' FROM base
    UNION ALL
    SELECT did, CAST(2 AS INTEGER), 'link', '', did FROM base
    """,
)
def documents_interleaved(sf_dir: str):
    """Flat documents → interleaved span rows (input_hint schema), returned
    span-EXPLODED so the DuckDB oracle can hash-check every value."""
    ds = read(sf_dir, "documents", ["doc_id", "text", "source"])
    return ds.map_batches(spanify_batch, batch_format="pyarrow").map_batches(
        explode_spans_batch, batch_format="pyarrow"
    )


# one mini-crawl serves all four crawl queries (the driver calls them
# separately)
_CRAWL_CACHE: dict = {}


def _mini_crawl() -> dict:
    key = CRAWL_SITES
    if key not in _CRAWL_CACHE:
        from .pipeline import CrawlPipeline, PipelineConfig
        from .policy import CrawlPolicy
        from .synth import WebParams

        cfg = PipelineConfig(
            web_params=WebParams(only_sites=CRAWL_SITES), policy=CrawlPolicy()
        )
        _CRAWL_CACHE[key] = CrawlPipeline(cfg).run()
    return _CRAWL_CACHE[key]


@register("crawl_articles", sql=golden_sql("crawl_articles"))
def crawl_articles(sf_dir: str):
    """The flagship crawl's flat article table (every column a SQL type),
    hash-diffed against a parquet dump of the SEQUENTIAL reference-semantics
    oracle crawler (oracle.run_oracle — an independent implementation; the
    dump mechanics live in golden.py). sf_dir-independent: the crawl's input
    is the deterministic synthetic frontier (BASELINE.json north_star)."""
    return _mini_crawl()["articles_ds"]


@register("crawl_documents", sql=golden_sql("crawl_documents"))
def crawl_documents(sf_dir: str):
    """The flagship crawl end-to-end, returned as span-EXPLODED interleaved
    document rows (doc_id, span_offset, kind, text, media_ref) and
    hash-diffed against the sequential oracle's span dump — the per-row
    span-sequence invariant (kind, text, media_ref, order) of the crawl's
    own ``documents_ds`` pivot as a driver gate, on top of the pytest
    conformance suite."""
    return _mini_crawl()["documents_ds"].map_batches(
        explode_spans_batch, batch_format="pyarrow"
    )


@register("crawl_fetch_log", sql=golden_sql("crawl_fetch_log"))
def crawl_fetch_log(sf_dir: str):
    """The crawl's politeness-stamped fetch lineage (SURVEY T7/S3/A2) as a
    flat SQL-typed table — hash-diffed against an independent sequential
    recompute of the per-host virtual clock over the oracle's fetch order
    (golden.golden_crawl_fetch_log). Covers the released_at_virtual spacing
    invariant the seen shards' politeness state (SeenShard.reserve)
    enforces distributed."""
    logs = _mini_crawl()["fetch_logs"]
    return logs[0].union(*logs[1:]).select_columns(
        ["wave", "site", "host", "canon_url", "discovered_seq", "released_at_virtual"]
    )


@register("crawl_refsites_articles", sql=golden_sql("crawl_refsites_articles"))
def crawl_refsites_articles(sf_dir: str):
    """The REAL-HTML fixture crawl (tests/fixtures/refsites: all ten
    reference sites with their real CSS selectors — SURVEY §2.9) run through
    the full distributed wave-loop pipeline, hash-diffed against the
    sequential oracle's crawl of the same saved pages
    (golden.golden_crawl_refsites_articles). This puts the selector engine +
    the per-site variant matrix — the user-facing extension surface — behind
    the driver gate; sf_dir-independent like the other crawl queries."""
    key = ("refsites",)
    if key not in _CRAWL_CACHE:
        from .golden import REFSITES_DIR
        from .pipeline import CrawlPipeline, PipelineConfig
        from .policy import CrawlPolicy
        from .synth import WebParams

        cfg = PipelineConfig(
            web_params=WebParams(fixture_dir=REFSITES_DIR), policy=CrawlPolicy()
        )
        _CRAWL_CACHE[key] = CrawlPipeline(cfg).run()
    return _CRAWL_CACHE[key]["articles_ds"]


def read_day_groups(out_dir: str) -> pa.Table:
    """The day-grouped JSON files of an export dir, exploded flat to
    ``golden.DAY_GROUPS_SCHEMA`` rows in file order: sites sorted, day
    groups and articles in their stored order (``pos_in_group`` is the
    list index), iso times parsed, an omitted summary null."""
    import json
    import os
    from datetime import datetime

    from .sites import SITES

    rows = []
    for site in sorted(SITES):
        with open(os.path.join(out_dir, f"{site}_News.json"), encoding="utf-8") as f:
            for g in json.load(f):
                for pos, a in enumerate(g["articles"]):
                    rows.append(
                        {
                            **a,
                            "site": site,
                            "date_group": g["date"],
                            "pos_in_group": pos,
                            "time": datetime.fromisoformat(a["time"]),
                        }
                    )
    return pa.Table.from_pylist(rows, schema=DAY_GROUPS_SCHEMA)


@register("crawl_day_groups", sql=golden_sql("crawl_day_groups"))
def crawl_day_groups(sf_dir: str):
    """The reference's day-grouped per-site export (SURVEY K1/K2/O1/O2): the
    crawl's articles through ``sink.day_grouped_export_ds`` into a temp dir,
    read back flat — (site, date_group, pos_in_group, article fields) — and
    hash-diffed against an independent plain-dict recompute of the
    save-time grouping over the oracle's accepted articles."""
    import tempfile

    from .sink import day_grouped_export_ds

    with tempfile.TemporaryDirectory() as d:
        day_grouped_export_ds(_mini_crawl()["articles_ds"], d)
        return read_day_groups(d)
