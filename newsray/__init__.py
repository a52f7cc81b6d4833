"""newsray — a Ray-Data-native crawl/curation engine.

A from-scratch rebuild of the capabilities of WashingManager/News-Crawler
(reference at /root/reference, studied for WHAT it computes, not HOW):
a distributed URL-frontier + fetch scheduler expressed as ray.data.Dataset
pipelines of ``map_batches`` over zero-copy Arrow batches, with stateful
stages (sharded cuckoo-filter URL-seen set, per-host politeness/priority
scheduling) in actor pools, writing interleaved text+media documents
(``doc_id: string``, ``spans: list<struct<kind,text,media_ref,offset>>``).

Nothing in this package calls ``ray.init()`` — the caller owns the session.
"""

__version__ = "0.1.0"


def _install_log_filters() -> None:
    """Silence ONE known-benign Ray Data warning: sort/aggregate exchanges
    materialize empty output partitions as zero-column blocks, and the
    executor then logs "Operator produced a RefBundle with a different
    schema ... new schema: ." once per empty partition (see Ray 2.49
    ``streaming_executor_state.dedupe_schemas_with_validation``; reproduced
    with a bare ``ds.sort`` on a tiny keyed dataset — it is not caused by
    UDF output typing). Empty ranges arise whenever a sort-exchange has
    more output partitions than distinct keys (any coarse hash-bucket
    exchange: the ``groupby("_jb")`` of `tabular.bucket_groups` and
    `tabular.bucket_join`), and the zero-column block is built by
    Ray's ``merge_sorted_blocks`` / ``_empty_table()`` — user code never
    sees it. Two spellings, by reduce block type: Arrow empties print as
    "new schema: ." and pandas empties (``map_groups(batch_format=
    "pandas")`` normalizes the reduce to pandas blocks) print as
    "new schema: PandasBlockSchema(names=[], types=[])". The filter
    matches ONLY these zero-column forms; a genuine schema divergence
    (non-empty differing schema) still warns."""
    import logging

    class _EmptyPartitionSchemaFilter(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not (
                "RefBundle with a different schema" in msg
                and (
                    "new schema: ." in msg
                    or "new schema: PandasBlockSchema(names=[], types=[])" in msg
                )
            )

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyPartitionSchemaFilter())


_install_log_filters()
