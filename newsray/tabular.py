"""Shared helpers for the tabular operator suite over the driver's testdata
star schema (TESTDATA.md). All readers prune columns at the read."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd


def read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    """Column-pruned parquet read with a METADATA-FREE schema: pandas-written
    parquet carries a b'pandas' schema-metadata dict that makes pyarrow
    schemas UNHASHABLE, so every block merge inside the read task and every
    downstream shuffle reduce logs "Failed to hash the schemas (for
    deduplication)" and falls off the dedup fast path. Passing an explicit
    clean (pruned) schema removes the metadata at the source — one local
    footer read, no extra per-batch work."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    full = pq.read_schema(path)
    names = columns if columns is not None else full.names
    clean = pa.schema([pa.field(n, full.field(n).type) for n in names])
    return rd.read_parquet(path, schema=clean, columns=columns)


def from_pandas_clean(df) -> pa.Table:
    """pandas → arrow WITHOUT the b'pandas' schema-metadata dict (which makes
    pyarrow schemas unhashable — see `read`). Used by map_batches/map_groups
    UDFs whose output feeds a shuffle, so every reduce keeps Ray's
    schema-dedup fast path instead of logging a hash failure per merge."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def token_set_counts(
    texts: pa.ChunkedArray | pa.Array,
    term_sets,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Whitespace-tokenize a string column and count, per row, (a) the total
    token count and (b) how many tokens fall in each of the given term sets
    — entirely with Arrow kernels (``split_pattern`` → ``list_flatten`` →
    ``is_in``) plus one ``np.bincount`` per set. This is the shared kernel
    for the full-corpus text gates (lang-ID, quality, corpus_clean stages
    1-2): zero Python per row, same semantics as ``text.split(' ')``
    (consecutive spaces yield empty-string tokens). Returns
    ``(n_tokens[int64 per row], [counts[int64 per row] per term set])``."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(texts, " ")
    n = len(toks)
    dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype("int64")
    flat = pc.list_flatten(toks)
    rows = np.repeat(np.arange(n, dtype="int64"), dl)
    out: list[np.ndarray] = []
    for terms in term_sets:
        m = pc.is_in(flat, value_set=pa.array(list(terms), pa.string())).to_numpy(
            zero_copy_only=False
        )
        out.append(
            np.bincount(rows[m], minlength=n).astype("int64")
            if m.any()
            else np.zeros(n, dtype="int64")
        )
    return dl, out


def day_str(ts_series) -> np.ndarray:
    """Vectorized 'YYYY-MM-DD' from a pandas datetime series: numpy's
    datetime64[D]→str cast is C-level and ~50× faster than pandas
    ``dt.strftime`` (which formats row-by-row through CPython); used by every
    per-batch day-bucketing partial so the day key costs nanoseconds/row."""
    return ts_series.to_numpy().astype("datetime64[D]").astype(str)


def round_col(batch: pa.Table, col: str, digits: int) -> pa.Table:
    """Round a float column half-away-from-zero, matching SQL ROUND (numpy
    rounds half-to-even, which would disagree with the DuckDB oracle)."""
    x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
    scale = 10.0**digits
    r = np.floor(np.abs(x) * scale + 0.5) / scale * np.sign(x)
    i = batch.column_names.index(col)
    return batch.set_column(i, col, pa.array(r, pa.float64()))


#: target bytes per bucket group — each bucketed join/window loads ONE group
#: (~input_bytes / B) into a single pandas frame, so B must grow with the
#: DATA, not just the cluster: on a fixed-size cluster streaming 100 TB a
#: cluster-only B would make every group a driver-sized frame in a worker.
TARGET_GROUP_BYTES = 256 * 1024 * 1024


def n_buckets(min_b: int = 32, size_bytes: int | None = None) -> int:
    """Hash-join / window bucket count: power of two covering BOTH axes —
    ≈2 buckets per cluster CPU (parallelism) AND ``size_bytes /
    TARGET_GROUP_BYTES`` (memory: one bucket group must fit a worker heap).
    Callers pass the pruned input's ``Dataset.size_bytes()`` estimate; with
    no size hint the cluster floor alone applies (small/test inputs)."""
    cpu = 8.0
    try:
        import ray

        if ray.is_initialized():
            cpu = float(ray.cluster_resources().get("CPU", 8.0))
    except Exception:
        pass
    target = max(min_b, int(cpu) * 2)
    if size_bytes:
        target = max(target, -(-int(size_bytes) // TARGET_GROUP_BYTES))
    b = 1
    while b < target:
        b <<= 1
    return b


def idempotent_partitioned_build(out_dir: str, want: dict, build_fn) -> str:
    """ONE home for the fingerprint-markered idempotent partitioned-index
    build (ANN signature index, RAG chunk index, lexical postings — three
    call sites that previously each carried their own copy):

    * the marker (`_built.json`, committed LAST) holds the caller's
      fingerprint dict; a matching marker serves the existing tree;
    * the build is CONCURRENCY-SAFE: each builder writes a COMPLETE tree
      into a private ``<out_dir>.build-<pid>`` dir (marker included), then
      swaps it in whole. Racing builders each produce a complete identical
      index and the swap is last-complete-tree-wins — never the mixed
      half-and-half directory a shared in-place write would leave;
    * a loser whose swap collides re-checks the winner's marker and serves
      the winner's tree.

    ``build_fn(tmp_dir)`` must write the partitioned data into ``tmp_dir``
    (e.g. ``ds.write_parquet(tmp_dir, partition_cols=[...])``)."""
    import json
    import os
    import shutil

    def _marker_matches() -> bool:
        try:
            with open(os.path.join(out_dir, "_built.json")) as f:
                return json.load(f) == want
        except (json.JSONDecodeError, OSError):
            return False

    if _marker_matches():
        return out_dir
    tmp = f"{out_dir}.build-{os.getpid()}"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    build_fn(tmp)
    with open(os.path.join(tmp, "_built.json"), "w") as f:
        json.dump(want, f)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rename(tmp, out_dir)
    except OSError:
        # a racing builder swapped its (complete, identical-fingerprint)
        # tree in between our rmtree and rename: serve theirs
        if not _marker_matches():
            raise
        shutil.rmtree(tmp, ignore_errors=True)
    return out_dir


def partition_files(idx_dir: str, key: str, values) -> list[str]:
    """Parquet files of ONLY the hive partitions ``{key}={v}`` for the given
    values — the pruned-read step shared by every partitioned index probe."""
    import os

    return [
        os.path.join(d, f)
        for v in sorted(values)
        if os.path.isdir(d := os.path.join(idx_dir, f"{key}={v}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
