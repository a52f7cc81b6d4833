"""Shared helpers for the tabular operator suite over the driver's testdata
star schema (TESTDATA.md). All readers prune columns at the read."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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


def hash_bucket(tok: str, nb: int) -> int:
    """Deterministic (seed-free) token → bucket: md5-low-bits mod nb."""
    return int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:8], 16) % nb


def key_buckets(cols: list, nb: int) -> pa.Array:
    """Bucket in ``[0, nb)`` of each row's key: ``key & (nb-1)`` for one
    integer column; for string keys (several joined with ``\\x1f``)
    `hash_bucket`, computed once per DISTINCT value via dictionary encoding
    (pyarrow has no md5 kernel, so the Python loop runs over the dictionary
    only). A null key lands in bucket 0."""
    if len(cols) == 1 and pa.types.is_integer(cols[0].type):
        k = pc.cast(cols[0], pa.int64())
        return pc.fill_null(pc.bit_wise_and(k, pa.scalar(nb - 1, pa.int64())), 0)
    s = cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, "\x1f")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    d = s.dictionary_encode()
    uniq = [hash_bucket(t, nb) for t in d.dictionary.to_pylist()]
    lut = np.array(uniq + [0], dtype="int64")
    idx = d.indices.fill_null(len(uniq)).to_numpy(zero_copy_only=False)
    return pa.array(lut[idx], pa.int64())


def bucket_join(left, right, on, nb: int, reduce, out) -> rd.Dataset:
    """The one bucketed hash join (both sides data-sized, nothing
    broadcast): each side is tagged with its key's bucket (`key_buckets`)
    and a side id, null-padded to one shared schema, the two are unioned,
    ONE ``groupby(bucket)`` co-locates every key's rows, and
    ``reduce(l, r)`` runs once per bucket group.

    * ``left``/``right``: ``(Dataset, {column: pa type})`` — the columns
      the side hands to ``reduce``, keys included. Declared, not probed:
      a bucket holding one side only still gets the other side's frame.
    * ``on``: key column name(s), present on both sides with one type.
    * ``reduce(l, r)``: two pandas frames holding exactly each side's
      declared columns with their real dtypes (an absent side is a typed
      empty frame); returns a DataFrame.
    * ``out``: the output schema (``{column: pa type}``); each group's
      result is cast to it, so an empty result is a typed empty block and
      no block carries pandas metadata.

    Map-side combines (per-batch DISTINCT, count partials) stay the
    caller's own ``map_batches`` before the call: Ray fuses them with the
    tag map."""
    keys = [on] if isinstance(on, str) else list(on)
    sides = [pa.schema(left[1]), pa.schema(right[1])]
    out = pa.schema(out)
    for k in keys:
        if sides[0].field(k).type != sides[1].field(k).type:
            raise ValueError(f"bucket_join: key {k!r} differs in type between sides")
    # padded name of each side's declared column: the keys are shared,
    # payloads are side-prefixed so the two sides may reuse a name
    inner = [
        [f.name if f.name in keys else f"{i}.{f.name}" for f in s] for i, s in enumerate(sides)
    ]
    padded = {name: f.type for s, names in zip(sides, inner) for f, name in zip(s, names)}
    union = pa.schema([("_jb", pa.int64()), ("_side", pa.int8()), *padded.items()])

    def tag(i: int):
        mine = dict(zip(inner[i], sides[i].names))

        def join_tag(b: pa.Table) -> pa.Table:
            n = b.num_rows
            cols = [key_buckets([b[k] for k in keys], nb), pa.array(np.full(n, i, "int8"))]
            for name, typ in padded.items():
                cols.append(pc.cast(b[mine[name]], typ) if name in mine else pa.nulls(n, typ))
            return pa.Table.from_arrays(cols, schema=union)

        return join_tag

    def join_bucket(g: pa.Table) -> pa.Table:
        frames = [
            g.filter(pc.equal(g["_side"], i)).select(inner[i]).rename_columns(s.names).to_pandas()
            for i, s in enumerate(sides)
        ]
        res = pa.Table.from_pandas(reduce(*frames), schema=out, preserve_index=False)
        return res.replace_schema_metadata(None)

    return (
        left[0]
        .map_batches(tag(0), batch_format="pyarrow")
        .union(right[0].map_batches(tag(1), batch_format="pyarrow"))
        .groupby("_jb")
        .map_groups(join_bucket, batch_format="pyarrow")
    )


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
