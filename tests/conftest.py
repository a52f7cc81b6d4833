"""Session-scoped Ray fixture — ONE ray.init per pytest session."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


def tables(res: dict):
    """A crawl result's (articles sorted by discovered_seq, documents, fetch
    log) as Arrow tables. Each dataset is materialized before its blocks
    are read, so no schema probe re-runs (and cancels) a lazy plan."""
    import pyarrow as pa
    import ray

    def table(*dss):  # permissive: empty blocks can come back column-less
        blocks = [b for ds in dss for b in ray.get(ds.materialize().to_arrow_refs())]
        return pa.concat_tables(blocks, promote_options="permissive")

    arts = table(res["articles_ds"])
    arts = arts.sort_by("discovered_seq") if arts.num_rows else arts
    return arts, table(res["documents_ds"]), table(*res["fetch_logs"])
