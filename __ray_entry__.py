"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in newsray/) calls ray.init()/ray.shutdown().

- ``entry()``      — flagship pipeline: the Ray-Data crawl engine over a
                     mini deterministic synthetic web, unioned with the
                     span-pivoted sf0.001 documents table, returning one
                     interleaved-document Dataset (input_hint schema).
- ``queries()``    — every implemented operator from SURVEY.md §2 plus the
                     training-data extensions (dedup family, ANN, text
                     analysis, multimodal plumbing), keyed by name.
- ``oracle_sql()`` — DuckDB-runnable ANSI SQL for the SQL-expressible
                     subset; column names match the Ray results exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from newsray.registry import ORACLE_SQL, QUERIES, load_all

load_all()


def entry() -> Any:
    """Flagship: crawl a mini synthetic web with the wave-loop pipeline and
    union the result with the span-pivoted sf0.001 documents — one
    interleaved corpus in the input_hint schema."""
    import ray.data as rd

    from newsray.docspans import spanify_batch
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.synth import WebParams

    cfg = PipelineConfig(
        web_params=WebParams(only_sites=("nate", "naver", "skydaily")),
        policy=CrawlPolicy(),
    )
    crawl_docs = CrawlPipeline(cfg).run()["documents_ds"]

    flat = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text", "source"]
    ).map_batches(spanify_batch, batch_format="pyarrow")
    return crawl_docs.union(flat)


def queries() -> dict[str, Callable[[str], Any]]:
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    return dict(ORACLE_SQL)
