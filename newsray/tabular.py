"""Shared helpers for the tabular operator suite over the driver's testdata
star schema (TESTDATA.md). All readers prune columns at the read.

The one hash exchange: `bucket_groups` (one dataset) and its two-sided
form `bucket_join` tag rows with `key_buckets`, the one key → bucket
function, and run ONE ``groupby`` on that bucket with a per-bucket pandas
reduce cast to a declared schema. Range partitions and groupbys on real
keys stay with their operators."""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
import tempfile
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
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


class TokenWindows(NamedTuple):
    """The token windows of a string column (`token_windows`): window ``i``
    is the bytes ``data[start[i]:end[i]]`` of input row ``row[i]`` (rows
    ascending, windows in text order within a row); ``n`` is each input
    row's token count."""

    row: np.ndarray
    start: np.ndarray
    end: np.ndarray
    data: np.ndarray
    n: np.ndarray

    def slices(self) -> list[bytes]:
        """Each window's bytes, for hashing."""
        b = self.data.tobytes()
        return [b[s:e] for s, e in zip(self.start.tolist(), self.end.tolist())]

    def strings(self) -> pa.Array:
        """Each window's text as one Arrow string array (a byte gather)."""
        lens = self.end - self.start
        off = np.zeros(len(lens) + 1, np.int64)
        np.cumsum(lens, out=off[1:])
        idx = np.repeat(self.start - off[:-1], lens) + np.arange(off[-1])
        big = pa.LargeStringArray.from_buffers(
            len(lens), pa.py_buffer(off), pa.py_buffer(self.data[idx])
        )
        return big.cast(pa.string())  # raises rather than wrap past 2 GiB


def token_windows(
    texts: pa.ChunkedArray | pa.Array, k: int = 1, stride: int = 1
) -> TokenWindows:
    """THE tokenizer of the text operators: split a (non-null) string
    column on ``' '`` once with Arrow (``text.split(' ')``, DuckDB's
    ``string_split``: consecutive spaces give empty tokens) and cut each
    row's tokens into windows. Covering rule: windows start at token 0,
    stride, 2·stride, … up to the first window that reaches the row's last
    token, each holding min(k, remaining) tokens — so a row of ≤ k tokens
    gives one window of all of them (callers that need full windows drop
    rows with ``n < k``), and ``k=1`` gives every token. A window is a byte
    range of the column's data buffer, tokens and separating spaces, so
    callers hash it without re-joining strings and gather text
    (`TokenWindows.strings`) only where text is the output."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    toks = pc.split_pattern(arr, " ")
    n = np.asarray(pc.list_value_length(toks), np.int64)
    tlen = np.asarray(pc.binary_length(pc.list_flatten(toks)), np.int64)
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], width)[arr.offset : arr.offset + len(arr) + 1]
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None else np.zeros(0, np.uint8)
    # a token starts at its row's first byte plus the lengths of the row's
    # earlier tokens, one separating space each
    first = np.cumsum(n) - n  # each row's first token
    tok_row = np.repeat(np.arange(len(n)), n)
    step = np.cumsum(tlen + 1) - (tlen + 1)
    tstart = offs[:-1].astype(np.int64)[tok_row] + step - step[first][tok_row]
    nwin = 1 + -(-np.maximum(n - k, 0) // stride)
    row = np.repeat(np.arange(len(n)), nwin)
    lead = (np.arange(len(row)) - np.repeat(np.cumsum(nwin) - nwin, nwin)) * stride
    lo = first[row] + lead
    hi = first[row] + np.minimum(lead + k, n[row]) - 1
    return TokenWindows(row, tstart[lo], tstart[hi] + tlen[hi], data, n)


def token_set_counts(
    texts: pa.ChunkedArray | pa.Array,
    term_sets,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per row, the token count and how many tokens fall in each of the
    given term sets: `token_windows` tokens → ``is_in`` → one
    ``np.bincount`` per set. The shared counter of the full-corpus text
    gates (lang-ID, quality, BM25, corpus_clean stages 1-2). Returns
    ``(n_tokens[int64 per row], [counts[int64 per row] per term set])``."""
    w = token_windows(texts)
    toks = w.strings()
    out = []
    for terms in term_sets:
        m = pc.is_in(toks, value_set=pa.array(list(terms), pa.string()))
        out.append(np.bincount(w.row[m.to_numpy(zero_copy_only=False)], minlength=len(w.n)))
    return w.n, out


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


def n_buckets(size_bytes: int | None = None) -> int:
    """Hash-join / window bucket count: the smallest power of two covering
    BOTH axes — 2 buckets per cluster CPU (parallelism) AND ``size_bytes /
    TARGET_GROUP_BYTES`` (memory: one bucket group must fit a worker heap).
    Callers pass the pruned input's ``Dataset.size_bytes()``. No fixed
    floor: each group pays its own reduce call."""
    cpu = ray.cluster_resources().get("CPU", 8) if ray.is_initialized() else 8
    target = max(int(cpu) * 2, -(-int(size_bytes or 0) // TARGET_GROUP_BYTES))
    return 1 << (target - 1).bit_length()


def hash_bucket(tok: str, nb: int) -> int:
    """Deterministic (seed-free) token → bucket: md5-low-bits mod nb."""
    return int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:8], 16) % nb


def key_buckets(cols: list, nb: int) -> pa.Array:
    """THE key → bucket function of every hash exchange: the bucket in
    ``[0, nb)`` (``nb`` a power of two, as `n_buckets` gives) of each
    row's key.

    * one integer column: ``key & (nb-1)``;
    * several integer columns: the columns folded into one 64-bit value
      with a multiply-xor mix, then ``& (nb-1)``;
    * string keys (several joined with ``\\x1f``): `hash_bucket`, computed
      once per DISTINCT value via dictionary encoding (pyarrow has no md5
      kernel, so the Python loop runs over the dictionary only).

    A null integer counts as 0; a null string key lands in bucket 0."""
    mask = nb - 1
    if all(pa.types.is_integer(c.type) for c in cols):
        ks = [pc.fill_null(pc.cast(c, pa.int64()), 0) for c in cols]
        if len(ks) == 1:
            return pc.bit_wise_and(ks[0], pa.scalar(mask, pa.int64()))
        h = np.zeros(len(ks[0]), dtype="uint64")
        for k in ks:
            h = (h ^ k.to_numpy(zero_copy_only=False).view("uint64")) * np.uint64(
                0x9E3779B97F4A7C15
            )
            h ^= h >> np.uint64(29)
        return pa.array((h & np.uint64(mask)).astype("int64"), pa.int64())
    s = cols[0] if len(cols) == 1 else pc.binary_join_element_wise(*cols, "\x1f")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    d = s.dictionary_encode()
    uniq = [hash_bucket(t, nb) for t in d.dictionary.to_pylist()]
    lut = np.array(uniq + [0], dtype="int64")
    idx = d.indices.fill_null(len(uniq)).to_numpy(zero_copy_only=False)
    return pa.array(lut[idx], pa.int64())


def _reduce_buckets(tagged: rd.Dataset, frames, reduce, out) -> rd.Dataset:
    """The exchange step of `bucket_groups` and `bucket_join`: ONE
    ``groupby("_jb")`` over rows tagged with their `key_buckets` bucket,
    then ``reduce(*frames(group))`` once per bucket group (Ray never calls
    it on an empty group), each result cast to ``out``. An empty result is
    ``out``'s typed empty block, and no block carries pandas metadata."""
    out = pa.schema(out)

    def bucket(g: pa.Table) -> pa.Table:
        res = reduce(*frames(g))
        if len(res) == 0:
            return out.empty_table()
        res = pa.Table.from_pandas(res, schema=out, preserve_index=False)
        return res.replace_schema_metadata(None)

    bucket.__name__ = reduce.__name__  # names the operator in Dataset.stats()
    return tagged.groupby("_jb").map_groups(bucket, batch_format="pyarrow")


def bucket_groups(ds: rd.Dataset, on, nb: int, reduce, out) -> rd.Dataset:
    """The one bucketed exchange of ONE dataset: each row is tagged with
    its key's bucket (`key_buckets` over the ``on`` columns), ONE
    ``groupby(bucket)`` co-locates every key's rows, and ``reduce(frame)``
    runs once per bucket group on a pandas frame of the rows' own columns.

    * ``on``: key column name(s). A caller whose key is expensive to hash
      (an md5 hex) may pass one integer column it already computes.
    * ``reduce(frame)``: returns a DataFrame holding ``out``'s columns.
    * ``out``: the output schema (``{column: pa type}``); see
      `_reduce_buckets`.

    A coarse bucket holds MANY keys: ``reduce`` groups by the real key
    inside the frame (vectorized pandas), so no Ray group is ever one
    tiny key. Map-side work stays the caller's own ``map_batches``
    before the call: Ray fuses it with the tag map."""
    keys = [on] if isinstance(on, str) else list(on)

    def bucket_tag(b: pa.Table) -> pa.Table:
        return b.append_column("_jb", key_buckets([b[k] for k in keys], nb))

    return _reduce_buckets(
        ds.map_batches(bucket_tag, batch_format="pyarrow"),
        lambda g: [g.drop_columns("_jb").to_pandas()],
        reduce,
        out,
    )


def bucket_join(left, right, on, nb: int, reduce, out) -> rd.Dataset:
    """The two-sided form of `bucket_groups`, the one bucketed hash join
    (both sides data-sized, nothing broadcast): each side is tagged with
    its key's bucket and a side id, null-padded to one shared schema, the
    two are unioned, and ``reduce(l, r)`` runs once per bucket group.

    * ``left``/``right``: ``(Dataset, {column: pa type})`` — the columns
      the side hands to ``reduce``, keys included. Declared, not probed:
      a bucket holding one side only still gets the other side's frame.
    * ``on``: key column name(s), present on both sides with one type.
    * ``reduce(l, r)``: two pandas frames holding exactly each side's
      declared columns with their real dtypes (an absent side is a typed
      empty frame); returns a DataFrame.
    * ``out``: the output schema, as for `bucket_groups`.

    Map-side combines (per-batch DISTINCT, count partials) stay the
    caller's own ``map_batches`` before the call: Ray fuses them with the
    tag map."""
    keys = [on] if isinstance(on, str) else list(on)
    sides = [pa.schema(left[1]), pa.schema(right[1])]
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

    def side_frames(g: pa.Table) -> list:
        return [
            g.filter(pc.equal(g["_side"], i)).select(inner[i]).rename_columns(s.names).to_pandas()
            for i, s in enumerate(sides)
        ]

    return _reduce_buckets(
        left[0]
        .map_batches(tag(0), batch_format="pyarrow")
        .union(right[0].map_batches(tag(1), batch_format="pyarrow")),
        side_frames,
        reduce,
        out,
    )


@functools.cache
def _code_digest() -> str:
    """blake2b of every ``newsray/*.py`` source, once per process: an index
    marker names the code that built the index."""
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, "rb") as f:
            h.update(os.path.basename(path).encode() + b"\0" + f.read())
    return h.hexdigest()


def idempotent_partitioned_build(out_dir: str, want: dict, build_fn) -> str:
    """ONE home for the fingerprint-markered idempotent partitioned-index
    build (ANN signature index, RAG chunk index, lexical postings).
    ``build_fn(tmp_dir)`` writes a COMPLETE tree into a private ``mkdtemp``
    dir (e.g. ``ds.write_parquet(tmp_dir, partition_cols=[...])``); the
    marker ``_built.json``, written last, holds the caller's fingerprint,
    ``_code`` (the ``_code_digest`` of the code that built it) and
    ``_partitions``, the partition dirs the build wrote. The old tree is
    renamed aside and the new one in, so a reader sees a complete tree or
    none and nothing is copied; a matching marker serves the existing (or
    a racing winner's) tree. Build and aside dirs go on every exit."""
    want = {**want, "_code": _code_digest()}

    def _marker_matches() -> bool:
        try:
            with open(os.path.join(out_dir, "_built.json")) as f:
                got = json.load(f)
        except (json.JSONDecodeError, OSError):
            return False
        # a marker without _partitions is an older format's: rebuild
        return got.pop("_partitions", None) is not None and got == want

    if _marker_matches():
        return out_dir
    parent, name = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}.build-", dir=parent)
    aside = None
    try:
        build_fn(tmp)
        n_parts = sum(e.is_dir() for e in os.scandir(tmp))
        with open(os.path.join(tmp, "_built.json"), "w") as f:
            json.dump({**want, "_partitions": n_parts}, f)
        aside = tempfile.mkdtemp(prefix=f"{name}.old-", dir=parent)
        try:
            os.rename(out_dir, aside)  # onto an empty dir: allowed, atomic
        except FileNotFoundError:
            pass
        try:
            os.rename(tmp, out_dir)
            tmp = None
        except OSError:
            # a racing builder renamed its tree in between our two renames
            if not _marker_matches():
                raise
    finally:
        for d in (tmp, aside):
            if d is not None:
                shutil.rmtree(d, ignore_errors=True)
    return out_dir


def partition_files(idx_dir: str, key: str, values) -> list[str]:
    """Parquet files of ONLY the hive partitions ``{key}={v}`` for the given
    values — the pruned-read step shared by every partitioned index probe.
    Raises, never answers empty, on a missing or swapped tree or one short
    of the partition dirs its marker lists."""
    ino = os.stat(idx_dir).st_ino
    files = [
        os.path.join(d, f)
        for v in sorted(values)
        if os.path.isdir(d := os.path.join(idx_dir, f"{key}={v}"))
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    if not files:
        with open(os.path.join(idx_dir, "_built.json")) as f:
            built = json.load(f).get("_partitions")
        found = sum(e.is_dir() for e in os.scandir(idx_dir))
        if found != built:
            raise RuntimeError(f"{idx_dir}: marker lists {built} partitions, found {found}")
    if os.stat(idx_dir).st_ino != ino:
        raise FileNotFoundError(f"{idx_dir} was swapped while probed")
    return files
