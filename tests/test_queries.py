"""Driver-contract checks: a fast subset of __ray_entry__.queries() compared
against oracle_sql() via DuckDB at sf0.001 (the same comparison the driver
runs at sf0.01), plus structural checks for rows-only operators."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()

ORACLE_SUBSET = [
    "pricing_summary",
    "events_daily_counts",
    "newest_50_events",
    "top3_by_event_type",
    "distinct_flag_status",
    "customers_per_region",
    "revenue_by_priority",
    "last_click_before_purchase",
    "clicks_near_purchase",
    "hourly_user_windows",
    "user_session_counts",
    "doc_token_counts",
    "doc_fingerprints",
    "doc_lang_id",
    "doc_quality",
    "relevant_docs",
    "doc_split_assign",
    "stratified_sample_by_source",
    "doc_repetition",
    "pack_sequences",
    "doc_distinctive_terms",
    "events_window_funcs",
    "customers_without_orders",
    "doc_chunks",
    "bm25_topk",
    "doc_bigram_lm_score",
    "doc_token_entropy",
    "customers_with_urgent_orders",
    "customer_order_counts",
    "value_percentiles",
    "user_funnel_counts",
    "top3_docs_by_source",
    "events_rollup",
    "exact_substring_dups",
    "dedup_exact_first",
    "media_meta",
    "knn_brute_cosine",
    "doc_pii_redact",
    "deterministic_shuffle",
    "doc_length_histogram",
    "term_lookup_indexed",
    "user_activity_full",
    "daily_events_7d_ma",
    "top10_customers_by_revenue",
]


@pytest.fixture(scope="module")
def harness(ray_session):
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return entrymod, con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _to_pandas(res) -> pd.DataFrame:
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


@pytest.mark.parametrize("name", ORACLE_SUBSET)
def test_query_matches_oracle(harness, name):
    entrymod, con = harness
    fn = entrymod.queries()[name]
    sql = entrymod.oracle_sql()[name]
    got = _normalize(_to_pandas(fn(SF)))
    want = _normalize(con.execute(sql).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_rows_only_ops_structural(harness):
    entrymod, _ = harness
    qs = entrymod.queries()
    pairs = _to_pandas(qs["dedup_minhash_lsh"](SF))
    assert set(pairs.columns) == {"doc_a", "doc_b", "jaccard"}
    assert (pairs["doc_a"] < pairs["doc_b"]).all()
    assert (pairs["jaccard"] >= 0.5).all()

    emb = _to_pandas(qs["dedup_embedding_cosine"](SF))
    assert (emb["vec_a"] < emb["vec_b"]).all()
    assert (emb["cos_sim"] >= 0.45).all()

    knn = _to_pandas(qs["knn_lsh_cosine"](SF))
    assert len(knn) <= 10 and 0 not in set(knn["vec_id"])
    # LSH recall sanity: every LSH hit's score ≤ the brute-force best
    brute = _to_pandas(qs["knn_brute_cosine"](SF))
    assert knn["cos_sim"].max() <= brute["cos_sim"].max() + 1e-3

    ivf = _to_pandas(qs["knn_ivf_cosine"](SF))
    assert len(ivf) <= 10 and 0 not in set(ivf["vec_id"])
    assert (ivf["cos_sim"].to_numpy()[:-1] >= ivf["cos_sim"].to_numpy()[1:]).all()
    assert ivf["cos_sim"].max() <= brute["cos_sim"].max() + 1e-9

    media = _to_pandas(qs["media_features"](SF))
    assert len(media) == 500
    assert (media["width"] >= 16).all() and (media["n_bytes"] > 8).all()

    spans = _to_pandas(qs["documents_interleaved"](SF))
    assert len(spans) == 1500  # 500 docs × 3 exploded span rows
    one = spans[spans["doc_id"] == spans.iloc[0]["doc_id"]].sort_values("span_offset")
    assert list(one["kind"]) == ["title", "summary", "link"]
    assert list(one["span_offset"]) == [0, 1, 2]


def test_every_query_has_unique_registered_name(harness):
    entrymod, _ = harness
    qs, oracle = entrymod.queries(), entrymod.oracle_sql()
    assert set(oracle) <= set(qs)
    assert len(qs) >= 25


def test_minhash_clusters_consistent_with_pairs(harness):
    entrymod, _ = harness
    qs = entrymod.queries()
    pairs = _to_pandas(qs["dedup_minhash_lsh"](SF))
    clusters = _to_pandas(qs["dedup_minhash_clusters"](SF))
    lab = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
    # every near-dup pair ends up in one component
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        assert lab[a] == lab[b]
    # cluster id is the component minimum; exactly one keeper per cluster
    grp = clusters.groupby("cluster_id")
    for cid, g in grp:
        assert cid == g["doc_id"].min()
        assert int(g["is_keeper"].sum()) == 1


def test_corpus_clean_matches_sequential_golden(harness):
    """The composite cleaning cascade (lang → quality → exact → near-dup)
    vs its independent sequential recompute, exact at sf0.01 (the golden's
    fixed scale — its LSH stage needs the corpus the dump was built for)."""
    entrymod, _ = harness
    from newsray.cleanse import VERDICTS, golden_corpus_clean

    sf = "/root/testdata/sf0.01"
    got = _to_pandas(entrymod.queries()["corpus_clean"](sf))
    want = golden_corpus_clean(sf).to_pandas()
    assert set(got["verdict"]).issubset(set(VERDICTS))
    got = _normalize(got)
    want = _normalize(want)
    pd.testing.assert_frame_equal(got, want)


def test_hll_sketch_accuracy_vs_exact(harness):
    """The HLL estimate must stay within sketch tolerance of the exact
    per-day distinct count (m=256 → ~6.5 % expected std error)."""
    entrymod, con = harness
    got = _to_pandas(entrymod.queries()["approx_distinct_users_daily"](SF))
    exact = con.execute(
        "SELECT strftime(ts, '%Y-%m-%d') AS day, "
        "COUNT(DISTINCT user_id) AS n FROM events GROUP BY 1"
    ).df()
    m = got.merge(exact, on="day")
    assert len(m) == len(got) and len(m) > 0
    rel = (m["approx_distinct"] - m["n"]).abs() / m["n"]
    assert rel.max() < 0.2, rel.describe()


def test_histogram_quantile_sketch_accuracy(harness):
    """The histogram quantile estimate must sit within half a bin width of
    the nearest-rank order statistic it approximates."""
    import math

    import numpy as np

    entrymod, con = harness
    from newsray.sketch import HIST_WIDTH, _QS

    got = _to_pandas(entrymod.queries()["approx_value_quantiles_daily"](SF))
    ev = con.execute(
        "SELECT strftime(ts, '%Y-%m-%d') AS day, value FROM events"
    ).df()
    assert len(got) == ev["day"].nunique() > 0
    for _, row in got.iterrows():
        vals = np.sort(ev.loc[ev["day"] == row["day"], "value"].to_numpy())
        for lbl, q in _QS:
            want = vals[max(1, math.ceil(q * len(vals))) - 1]
            assert abs(row[f"p{lbl}"] - want) <= HIST_WIDTH / 2 + 1e-9, (
                row["day"], lbl, row[f"p{lbl}"], want)


def test_revenue_by_priority_hash_deterministic(harness):
    """VERDICT round-2 red row: the revenue sum must be bit-identical under
    ANY Ray block layout. Exact int64 10^-4-dollar units make summation
    order irrelevant — assert identical bytes across repeated runs with
    varying target block sizes (different splits → different partial-sum
    orders)."""
    import hashlib

    from ray.data import DataContext

    entrymod, _ = harness
    fn = entrymod.queries()["revenue_by_priority"]
    ctx = DataContext.get_current()
    orig = ctx.target_max_block_size
    digests = set()
    try:
        for blk in (64 * 1024, 1 * 1024 * 1024, orig):
            ctx.target_max_block_size = blk
            df = _normalize(_to_pandas(fn(SF)))
            digests.add(
                hashlib.md5(
                    df.to_csv(index=False, float_format="%.10f").encode()
                ).hexdigest()
            )
    finally:
        ctx.target_max_block_size = orig
    assert len(digests) == 1, "revenue hash varies with block layout"


def test_n_buckets_scales_with_data_size(ray_session):
    """VERDICT #3: bucket counts must grow with the DATA, not only the
    cluster — one bucket group must stay ~TARGET_GROUP_BYTES regardless of
    input scale on a fixed-size cluster."""
    from newsray.dedup_ops import emb_grid_buckets
    from newsray.tabular import TARGET_GROUP_BYTES, n_buckets

    small = n_buckets(size_bytes=1)
    big = n_buckets(size_bytes=1024 * TARGET_GROUP_BYTES)
    assert big >= 1024 and big > small
    # derived B stays a power of two (bucket masks use & (B-1))
    assert big & (big - 1) == 0
    # hint-less: the smallest power of two >= 2 x cluster CPUs, no fixed floor
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    want = next(1 << k for k in range(64) if 1 << k >= 2 * cpus)
    assert n_buckets() == n_buckets(size_bytes=None) == want
    # the embedding pair grid: per-cell side capped at 8192
    assert emb_grid_buckets(1_000) == 8  # small corpora keep the floor
    assert emb_grid_buckets(1 << 20) > 8
    # split_contamination's gram partition (VERDICT r3 #2: was a fixed 256)
    from newsray.textan import GRAM_EXPANSION, contamination_buckets

    cb_small = contamination_buckets(1)
    cb_big = contamination_buckets(1024 * TARGET_GROUP_BYTES)
    assert cb_big > cb_small and cb_big & (cb_big - 1) == 0
    assert cb_big >= 1024 * GRAM_EXPANSION
    assert contamination_buckets(None) == contamination_buckets(0)  # hint-less


@pytest.mark.parametrize(
    "name",
    [
        "dedup_minhash_lsh",
        "dedup_simhash",
        "dedup_minhash_clusters",
        "dedup_keep_best",
        "corpus_clean",
        "exact_substring_dups",
        "split_contamination",
        "events_rollup",
        "user_session_counts",
        "customer_order_counts",
        "doc_bigram_lm_score",
        "doc_distinctive_terms",
        "deterministic_shuffle",
        "user_activity_full",
        "customers_without_orders",
        "customers_with_urgent_orders",
        "revenue_by_priority",
        "top10_customers_by_revenue",
        "last_click_before_purchase",
        "hourly_user_windows",
        "events_window_funcs",
        "user_funnel_counts",
    ],
)
def test_bucket_count_invariance(harness, name, monkeypatch):
    """The coarse hash-bucket partitioning in every bucketed operator is an
    INTERNAL exchange detail: forcing wildly different bucket counts must
    produce identical results (the round-3 split_contamination lesson,
    asserted for the round-4 bucketed plans). n_buckets is imported late
    inside each operator (and in textan.contamination_buckets), so patching
    the module function reaches them. 2 is the count at one CPU."""
    import hashlib

    import newsray.tabular as tabular
    from newsray.textan import contamination_buckets

    entrymod, _ = harness
    fn = entrymod.queries()[name]
    real = tabular.n_buckets
    digests = set()
    for forced in (2, 64):
        monkeypatch.setattr(tabular, "n_buckets", lambda size_bytes=None, f=forced: f)
        assert contamination_buckets(1 << 40) == forced
        try:
            df = _normalize(_to_pandas(fn(SF)))
        finally:
            monkeypatch.setattr(tabular, "n_buckets", real)
        digests.add(
            hashlib.md5(
                df.to_csv(index=False, float_format="%.10f").encode()
            ).hexdigest()
        )
    assert len(digests) == 1, f"{name} output varies with bucket count"


def _keyed_frames(rng, keys, n_left, n_right):
    """Seeded left/right frames over a shared key pool: duplicate keys on
    both sides, several rows per key, and keys only one side holds."""
    lk = rng.choice(keys, n_left)
    rk = rng.choice(keys[len(keys) // 3 :], n_right)  # some left keys never match
    left = pd.DataFrame({"name": [f"n{i}" for i in range(n_left)]})
    right = pd.DataFrame({"pn": rng.integers(1, 9, n_right), "score": rng.random(n_right)})
    return left, right, lk, rk


def _with_key(df, on, keys):
    if len(on) == 1:
        return df.assign(**{on[0]: keys})
    parts = [k.split("|") for k in keys]
    return df.assign(**{c: [p[i] for p in parts] for i, c in enumerate(on)})


def _inner(on):
    return lambda l, r: l.merge(r, on=on)


def _full_outer(on):
    def fn(l, r):
        m = l.merge(r, on=on, how="outer", indicator=True)
        m["matched"] = m["_merge"] == "both"
        return m

    return fn


def _partial_sums(on):
    def fn(l, r):
        s = r.groupby(on, as_index=False)["pn"].sum()
        m = l.merge(s, on=on, how="left")
        m["pn"] = m["pn"].fillna(0)
        return m

    return fn


@pytest.mark.parametrize("kind", ["int", "str", "str2"])
@pytest.mark.parametrize("nb", [4, 64])
@pytest.mark.parametrize("reduce", [_inner, _full_outer, _partial_sums])
@pytest.mark.parametrize("empty", [None, "left", "right"])
def test_bucket_join_matches_pandas_merge(ray_session, kind, nb, reduce, empty):
    """`tabular.bucket_join` equals one pandas merge of the whole inputs,
    for int keys (negatives included), string keys and a two-string key;
    nb=64 exceeds the 12-key pool, so many buckets hold one side only (the
    absent side must still reach ``reduce`` as a typed frame). The output
    blocks carry the declared types and no pandas metadata."""
    import numpy as np
    import ray
    import ray.data

    from newsray.tabular import bucket_join

    rng = np.random.default_rng(11)
    if kind == "int":
        on, pool, ktype = ["k"], np.arange(-6, 6, dtype="int64"), {"k": pa.int64()}
    elif kind == "str":
        on, pool, ktype = ["k"], np.array([f"w{i}" for i in range(12)]), {"k": pa.string()}
    else:
        on = ["w1", "w2"]
        pool = np.array([f"a{i % 3}|b{i}" for i in range(12)])
        ktype = {"w1": pa.string(), "w2": pa.string()}
    left, right, lk, rk = _keyed_frames(rng, pool, 40, 60)
    left, right = _with_key(left, on, lk), _with_key(right, on, rk)
    if empty == "left":
        left = left.iloc[:0]
    elif empty == "right":
        right = right.iloc[:0]
    lschema = {**ktype, "name": pa.string()}
    rschema = {**ktype, "pn": pa.int64(), "score": pa.float64()}
    fn = reduce(on)
    out = {**lschema, **rschema}
    if reduce is _partial_sums:
        out = {**lschema, "pn": pa.int64()}
    elif reduce is _full_outer:
        out["matched"] = pa.bool_()

    def ds(df, schema):
        t = pa.Table.from_pandas(df, schema=pa.schema(schema), preserve_index=False)
        return ray.data.from_arrow([t.slice(0, len(df) // 2), t.slice(len(df) // 2)])

    got = bucket_join((ds(left, lschema), lschema), (ds(right, rschema), rschema), on, nb, fn, out)
    # a task with no input rows yields a column-less block
    blocks = [b for b in ray.get(got.materialize().to_arrow_refs()) if b.num_columns]
    assert blocks
    for b in blocks:
        assert b.schema == pa.schema(out)
        assert b"pandas" not in (b.schema.metadata or {})
    want = pa.Table.from_pandas(fn(left, right), schema=pa.schema(out), preserve_index=False)
    got_df = _normalize(pa.concat_tables(blocks).to_pandas())
    pd.testing.assert_frame_equal(got_df, _normalize(want.to_pandas()), check_exact=True)


@pytest.mark.parametrize("kind", ["int", "int2", "str"])
@pytest.mark.parametrize("nb", [4, 64])
def test_bucket_groups_matches_pandas_groupby(ray_session, kind, nb):
    """`tabular.bucket_groups` equals one pandas groupby over the whole
    input, for one int key (negatives and nulls included), two int keys and
    a string key; nb=64 exceeds the key pool, so many buckets are empty.
    ``reduce`` sees exactly the input's columns (no bucket column), and
    every output block carries the declared types and no pandas metadata."""
    import numpy as np
    import ray
    import ray.data

    from newsray.tabular import bucket_groups

    rng = np.random.default_rng(7)
    n = 300
    if kind == "int":
        on, ktype = ["k"], {"k": pa.int64()}
        keys = {"k": pa.array(rng.integers(-9, 9, n), pa.int64()).to_pylist()}
        keys["k"][::37] = [None] * len(keys["k"][::37])
    elif kind == "int2":
        on, ktype = ["band", "val"], {"band": pa.int64(), "val": pa.int64()}
        keys = {"band": rng.integers(0, 4, n), "val": rng.integers(0, 5, n)}
    else:
        on, ktype = ["k"], {"k": pa.string()}
        keys = {"k": [f"w{i}" for i in rng.integers(0, 15, n)]}
    schema = pa.schema({**ktype, "v": pa.int64()})
    t = pa.table({**keys, "v": rng.integers(0, 100, n)}, schema=schema)
    out = {**ktype, "n": pa.int64(), "s": pa.int64()}

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == schema.names
        return g.groupby(on, as_index=False, dropna=False).agg(n=("v", "size"), s=("v", "sum"))

    ds = ray.data.from_arrow([t.slice(0, n // 3), t.slice(n // 3)])
    got = bucket_groups(ds, on, nb, agg, out)
    blocks = [b for b in ray.get(got.materialize().to_arrow_refs()) if b.num_columns]
    assert blocks
    for b in blocks:
        assert b.schema == pa.schema(out)
        assert b"pandas" not in (b.schema.metadata or {})
    want = pa.Table.from_pandas(agg(t.to_pandas()), schema=pa.schema(out), preserve_index=False)
    got_df = _normalize(pa.concat_tables(blocks).to_pandas())
    pd.testing.assert_frame_equal(got_df, _normalize(want.to_pandas()), check_exact=True)


def test_bucket_groups_all_empty_reduce_is_typed(ray_session):
    """A reduce that returns nothing for every bucket (here an untyped
    empty frame) still gives blocks of the declared schema."""
    import ray
    import ray.data

    from newsray.tabular import bucket_groups

    ds = ray.data.from_arrow(pa.table({"k": pa.array(range(40), pa.int64())}))
    out = {"k": pa.int64(), "label": pa.string(), "ts": pa.timestamp("us")}
    got = bucket_groups(ds, "k", 4, lambda g: pd.DataFrame(), out).materialize()
    assert got.count() == 0
    blocks = [b for b in ray.get(got.to_arrow_refs()) if b.num_columns]
    assert blocks and all(b.schema == pa.schema(out) for b in blocks)


MEDIA_AT_CPUS = """
import sys

import pyarrow as pa
import ray
import ray.data

ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from newsray import ragprep
from newsray.dedup_ops import ngram_jaccard_by_source
from newsray.golden import GOLDENS
from newsray.multimodal import media_features, video_frame_sample

sf = sys.argv[2]
ragprep.CHUNK_INDEX_ROOT = sys.argv[3]  # empty: the chunk index is built cold
for fn in (media_features, video_frame_sample, ragprep.chunk_embed_index,
           ngram_jaccard_by_source):
    got = pa.concat_tables(b for b in ray.get(fn(sf).to_arrow_refs()) if b.num_columns)
    want = GOLDENS[fn.__name__](sf)
    order = [(c, "ascending") for c in want.column_names]
    same = got.select(want.column_names).sort_by(order).equals(want.sort_by(order))
    print(fn.__name__, want.num_rows, same, flush=True)
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_media_actor_pools_finish_at_one_and_two_cpus(num_cpus, tmp_path):
    """The three actor-pool queries and ngram_jaccard_by_source finish,
    equal to their golden recompute, in a session of one or two CPUs: the
    pools must not hold the CPUs the read feeding them needs (the media
    pools hung before at 1 and 2 CPUs, and the chunk index's embedder pool
    at 2), and the n-gram query's one exchange has no union feeding it (a
    union-into-`bucket_join` plan hangs at 1 CPU, ROADMAP item 2). The
    chunk index is built cold in a fresh root. A fresh process owns the
    small session; the timeout is the deadline."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    r = subprocess.run(
        [sys.executable, "-c", MEDIA_AT_CPUS, str(num_cpus), sf, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=root,
        env={**os.environ, "PYTHONPATH": root},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    names = ("media", "video", "chunk", "ngram")
    got = [ln.split() for ln in r.stdout.splitlines() if ln.startswith(names)]
    assert [(name, ok) for name, _, ok in got] == [
        ("media_features", "True"),
        ("video_frame_sample", "True"),
        ("chunk_embed_index", "True"),
        ("ngram_jaccard_by_source", "True"),
    ], r.stdout


def _percentile_events(d, col) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    d.mkdir()
    table = pa.table({"value": pa.array(col, pa.float64())})
    pq.write_table(table, d / "events.parquet", row_group_size=4096)
    return str(d)


def _duckdb_percentiles(sf_dir: str) -> tuple:
    import duckdb

    return duckdb.connect().execute(
        "SELECT quantile_disc(value, 0.50), quantile_disc(value, 0.90),"
        f" quantile_disc(value, 0.99) FROM read_parquet('{sf_dir}/events.parquet')"
    ).fetchone()


def test_value_percentiles_selection_nulls_dups_rounds(ray_session, tmp_path, monkeypatch):
    """Radix-select percentiles return the exact nearest-rank element at
    every fetch cap: nulls stay outside the offset population
    (quantile_disc semantics), a heavy duplicate run and 30,000 adjacent
    doubles sharing their top 48 key bits resolve, and a cap of 16 or 0
    forces more histogram passes (at 0 all four run, with no fetch). The
    plan never runs more than four histogram passes and one fetch pass."""
    import math

    import numpy as np
    import ray.data as rd

    import newsray.sketch as sketch

    rng = np.random.RandomState(7)
    dups = np.concatenate([rng.normal(100.0, 25.0, 20_000), np.full(5_000, 123.456)])
    first = np.float64(1.2345).view(np.uint64) >> np.uint64(16) << np.uint64(16)
    adjacent = rng.permutation((first + np.arange(30_000, dtype=np.uint64)).view(np.float64))
    passes = []
    real_map_batches = rd.Dataset.map_batches

    def counted(self, fn, *a, **kw):
        passes.append(fn.__name__)
        return real_map_batches(self, fn, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "map_batches", counted)
    for name, vals in (("dups", dups), ("adjacent", adjacent)):
        d = _percentile_events(tmp_path / name, vals.tolist() + [None] * 500)
        s = np.sort(vals)
        want = [s[max(0, math.ceil(q * len(s)) - 1)] for _, q in sketch.EXACT_QS]
        assert want == list(_duckdb_percentiles(d))
        for cap in (1 << 18, 16, 0):
            monkeypatch.setattr(sketch, "_FETCH_CAP", cap)
            passes.clear()
            got = list(sketch.value_percentiles(d).to_pylist()[0].values())
            assert got == want, (name, cap, got, want)
            hist = passes.count("hist")  # a fetch ends every plan of < 4 passes
            assert hist <= 4 and passes == ["hist"] * hist + ["fetch"] * (hist < 4), passes
            if cap == 0:
                assert passes == ["hist"] * 4, (name, passes)


def test_value_percentiles_nonfinite_zeros_empty(ray_session, tmp_path, monkeypatch):
    """The key order is the engine's ORDER BY total order: (a) ±inf place
    as DuckDB's quantile_disc places them; (b) −0.0 and 0.0 are one value,
    read as 0.0; (c) NaN sorts after +inf (DuckDB's quantile_disc is
    comparator-unstable with NaNs, so the reference is numpy's sort, which
    also puts NaN last); (d) an empty or all-null population returns one
    all-NULL row, like the SQL aggregate. Each at the default fetch cap
    and at 0, where all four histogram passes run."""
    import math

    import numpy as np

    import newsray.sketch as sketch

    rng = np.random.RandomState(11)
    inf = np.concatenate([np.full(40, -np.inf), rng.uniform(0, 100, 3000), np.full(700, np.inf)])
    zeros = np.concatenate([np.full(300, -0.0), np.full(300, 0.0), rng.normal(0, 1, 400)])
    nan = np.concatenate(
        [rng.normal(0, 1, 960), np.full(20, np.inf), np.full(10, np.nan), np.full(10, -np.nan)]
    )
    dirs = {
        name: _percentile_events(tmp_path / name, vals.tolist())
        for name, vals in (("inf", rng.permutation(inf)), ("zeros", zeros), ("nan", nan))
    }
    empty = [_percentile_events(tmp_path / n, c) for n, c in (("e", []), ("n", [None] * 64))]
    for cap in (1 << 18, 0):
        monkeypatch.setattr(sketch, "_FETCH_CAP", cap)
        got = {n: list(sketch.value_percentiles(d).to_pylist()[0].values()) for n, d in dirs.items()}
        assert got["inf"] == list(_duckdb_percentiles(dirs["inf"])), (cap, got)
        assert got["inf"][2] == np.inf
        assert got["zeros"] == list(_duckdb_percentiles(dirs["zeros"])), (cap, got)
        assert got["zeros"][0] == 0.0 and math.copysign(1, got["zeros"][0]) == 1, got
        s = np.sort(nan)
        want = [s[math.ceil(q * len(s)) - 1] for _, q in sketch.EXACT_QS]
        assert want[1] < np.inf and math.isnan(want[2])
        assert got["nan"][:2] == want[:2] and math.isnan(got["nan"][2]), (cap, got)
        for d in empty:
            row = sketch.value_percentiles(d).to_pylist()
            assert row == [{"p50": None, "p90": None, "p99": None}], (cap, d, row)


def test_doc_pii_redact_on_real_pii(ray_session, tmp_path):
    """The synthetic corpus has no emails/phones, so the gate only proves
    the denylist rule; this pins the email/phone rules on crafted text —
    counts from the ORIGINAL text, replacements applied in rule order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from newsray.textan import doc_pii_redact

    texts = [
        "reach bob.smith+x@corp.example.com or alice@ex.org today",
        "call 010-1234-5678 and 02-555-0199 about the customer line",
        "clean text with no identifiers at all",
    ]
    d = tmp_path / "sfpii"
    d.mkdir()
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array(texts)}
        ),
        d / "documents.parquet",
    )
    got = doc_pii_redact(str(d)).to_pandas().sort_values("doc_id")
    assert got["clean_text"].tolist() == [
        "reach <EMAIL> or <EMAIL> today",
        "call <PHONE> and <PHONE> about the <ENT> <ENT>",
        "clean text with no identifiers at all",
    ]
    assert got["n_email"].tolist() == [2, 0, 0]
    assert got["n_phone"].tolist() == [0, 2, 0]
    assert got["n_entity"].tolist() == [0, 2, 0]


def test_dedup_keep_best_matches_sequential_golden(ray_session):
    """Keep-best near-dup resolution vs its independent union-find +
    longest/min-id recompute, exact at sf0.001: every cluster keeps exactly
    one member, the longest (ties to the lowest doc_id)."""
    from newsray.dedup_ops import dedup_keep_best
    from newsray.golden import golden_dedup_keep_best

    got = _normalize(_to_pandas(dedup_keep_best(SF)))
    want = _normalize(golden_dedup_keep_best(SF).to_pandas())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    one_keeper = got.groupby("cluster_id")["kept"].sum()
    assert (one_keeper == 1).all()


def test_deterministic_shuffle_negative_ids(ray_session, tmp_path):
    """Sign parity of the Knuth-hash key: uint64 wraparound (mod 2^64, and
    2^32 | 2^64) must equal the oracle's double-modded HUGEINT arithmetic
    for NEGATIVE doc_ids too."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from newsray.registry import ORACLE_SQL
    from newsray.textan import deterministic_shuffle

    d = tmp_path / "sfneg"
    d.mkdir()
    ids = [-5, -1, 0, 1, 7, -4093, 4093, 2**40, -(2**40)]
    pq.write_table(
        pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "text": pa.array(["x"] * len(ids))}
        ),
        d / "documents.parquet",
    )
    got = _normalize(_to_pandas(deterministic_shuffle(str(d))))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = _normalize(con.execute(ORACLE_SQL["deterministic_shuffle"]).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_broadcast_lookups_drop_unknown_keys(ray_session, tmp_path):
    """The broadcast dimension lookups of customers_per_region and
    supplier_balance_by_nation drop a row whose key the dimension lacks,
    as the SQL inner join does: one customer and one supplier carry a
    nation key absent from `nation`, and one nation a region key absent
    from `region`."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from newsray.registry import ORACLE_SQL
    from newsray.relops import customers_per_region, supplier_balance_by_nation

    bad = {"customer": "c_nationkey", "supplier": "s_nationkey", "nation": "n_regionkey"}
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier"):
        table = pq.read_table(f"{SF}/{t}.parquet")
        if t in bad:  # the first row points at a key no dimension row holds
            col = table[bad[t]]
            keys = pc.if_else(pa.array([True] + [False] * (len(col) - 1)), 99, col)
            table = table.set_column(table.schema.get_field_index(bad[t]), bad[t], keys)
        pq.write_table(table, tmp_path / f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')")
    for fn in (customers_per_region, supplier_balance_by_nation):
        got = _normalize(_to_pandas(fn(str(tmp_path))))
        want = _normalize(con.execute(ORACLE_SQL[fn.__name__]).df())
        pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def test_postings_lookup_reads_only_term_partitions(ray_session):
    """The postings lookup must read strictly fewer partition dirs than the
    index holds (term-hash pruning — the 10^10-scale access path), every
    file it reads must live in a queried bucket, and the build must be
    idempotent under its fingerprint marker."""
    import hashlib
    import os

    from newsray.lexical import (
        LOOKUP_TERMS,
        POSTINGS_BUCKETS,
        POSTINGS_ROOT,
        build_postings_index,
        postings_dirs,
    )
    from newsray.tabular import hash_bucket

    out = os.path.join(POSTINGS_ROOT, hashlib.md5(SF.encode()).hexdigest()[:12])
    idx = build_postings_index(SF, out)
    all_parts = {
        int(d.split("=", 1)[1]) for d in os.listdir(idx) if d.startswith("tb=")
    }
    files, buckets = postings_dirs(idx, LOOKUP_TERMS)
    assert buckets == {hash_bucket(t, POSTINGS_BUCKETS) for t in LOOKUP_TERMS}
    read_parts = {int(p.split("tb=")[1].split(os.sep)[0]) for p in files}
    assert read_parts <= buckets and read_parts <= all_parts
    assert len(read_parts) < len(all_parts)  # strict pruning
    # idempotent: a second build serves the same marker, no rewrite
    mtime = os.path.getmtime(os.path.join(idx, "_built.json"))
    assert build_postings_index(SF, out) == idx
    assert os.path.getmtime(os.path.join(idx, "_built.json")) == mtime


def test_term_lookup_indexed_empty_is_dataset(ray_session, monkeypatch):
    """When the query terms hash to no materialized partition, the postings
    lookup returns an empty Dataset with the result schema — the same type
    as every other lookup result and as knn_lsh_indexed's empty probe."""
    import ray.data as rd

    from newsray import lexical

    monkeypatch.setattr(lexical, "postings_dirs", lambda idx, terms: ([], set()))
    out = lexical.term_lookup_indexed(SF)
    assert isinstance(out, rd.Dataset)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "score"]


def test_idempotent_partitioned_build_race_loser(tmp_path, monkeypatch):
    """The shared index-build contract: a builder whose swap collides with
    a racing winner (the winner renames its complete tree + matching marker
    in between the loser's two renames) serves the winner's tree and cleans
    its own temp dirs — never a mixed in-place write, never an error for an
    identical fingerprint. The marker names the code that built the tree:
    the same fingerprint under another code digest rebuilds."""
    import json
    import os

    from newsray.tabular import _code_digest, idempotent_partitioned_build

    out = str(tmp_path / "idx")
    want = {"v": 2}
    code = {"_code": _code_digest()}
    # stale prior build (fingerprint mismatch -> rebuild path)
    os.makedirs(out)
    with open(os.path.join(out, "_built.json"), "w") as f:
        json.dump({"v": 1}, f)

    def build(tmp_dir):
        with open(os.path.join(tmp_dir, "part.parquet"), "w") as f:
            f.write("data")

    real_rename = os.rename

    def winner_reappears(src, dst):
        real_rename(src, dst)
        if src == out:  # the racing winner renames ITS complete tree in
            os.makedirs(out)
            with open(os.path.join(out, "_built.json"), "w") as f:
                json.dump({**want, **code, "_partitions": 0}, f)

    monkeypatch.setattr(os, "rename", winner_reappears)
    got = idempotent_partitioned_build(out, want, build)
    assert got == out
    assert json.load(open(os.path.join(out, "_built.json"))) == {**want, **code, "_partitions": 0}
    assert not os.path.exists(os.path.join(out, "part.parquet"))  # the winner's tree
    assert os.listdir(tmp_path) == ["idx"]  # loser's build and aside dirs removed
    # and a plain rebuild-on-mismatch still works with rename restored
    monkeypatch.setattr(os, "rename", real_rename)
    got = idempotent_partitioned_build(out, {"v": 3}, build)
    marker = {"v": 3, **code, "_partitions": 0}
    assert json.load(open(os.path.join(out, "_built.json"))) == marker
    assert os.path.exists(os.path.join(out, "part.parquet"))
    assert os.listdir(tmp_path) == ["idx"]
    # the same fingerprint built by other code is rebuilt, not served
    os.remove(os.path.join(out, "part.parquet"))
    with open(os.path.join(out, "_built.json"), "w") as f:
        json.dump({**marker, "_code": "0" * 32}, f)
    idempotent_partitioned_build(out, {"v": 3}, build)
    assert json.load(open(os.path.join(out, "_built.json"))) == marker
    assert os.path.exists(os.path.join(out, "part.parquet"))
    assert os.listdir(tmp_path) == ["idx"]

    def broken(tmp_dir):
        build(tmp_dir)
        raise ValueError("build failed")

    # a failed build leaves the served tree and no build or aside dir behind
    with pytest.raises(ValueError):
        idempotent_partitioned_build(out, {"v": 4}, broken)
    assert json.load(open(os.path.join(out, "_built.json")))["v"] == 3
    assert os.listdir(tmp_path) == ["idx"]
    # a mismatched fingerprint after a collision raises, and cleans up too
    os.makedirs(str(tmp_path / "idx2"))
    out = str(tmp_path / "idx2")
    monkeypatch.setattr(os, "rename", winner_reappears)
    with pytest.raises(OSError):
        idempotent_partitioned_build(out, {"v": 5}, build)
    assert sorted(os.listdir(tmp_path)) == ["idx", "idx2"]


def test_index_reader_racing_rebuild_never_reads_empty(tmp_path):
    """A probe racing rebuilds of its index gets the complete file list or
    an error, never an empty answer: the swap renames the old tree aside
    and the new one in (no rmtree in between), and the probe listing
    raises on a missing or swapped tree and on a tree short of the
    partition dirs its marker lists."""
    import json
    import os
    import threading

    from newsray.tabular import idempotent_partitioned_build, partition_files

    out = str(tmp_path / "idx")

    def build(tmp_dir):
        for p in range(8):
            os.makedirs(os.path.join(tmp_dir, f"part={p}"))
            for k in range(4):
                open(os.path.join(tmp_dir, f"part={p}", f"{k}.parquet"), "w").close()

    idempotent_partitioned_build(out, {"v": 0}, build)
    stop = threading.Event()

    def rebuild():
        v = 1
        while not stop.is_set():
            idempotent_partitioned_build(out, {"v": v}, build)
            v += 1

    t = threading.Thread(target=rebuild)
    t.start()
    empty = answered = raised = 0
    try:
        for _ in range(3000):
            try:
                files = partition_files(out, "part", [0, 5])
            except OSError:
                raised += 1
                continue
            answered += 1
            empty += len(files) != 8
    finally:
        stop.set()
        t.join()
    assert empty == 0 and answered > 0, (empty, answered, raised)
    # a tree short of the partitions its marker lists is an error, not an
    # empty index
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "_built.json").write_text(json.dumps({"v": 0, "_partitions": 8}))
    with pytest.raises(RuntimeError, match="marker lists 8 partitions, found 0"):
        partition_files(str(bare), "part", [0])


def test_index_over_empty_source_answers_empty(ray_session, tmp_path):
    """An empty source writes no partitions: its probes answer empty, as
    the SQL over the same empty table does, and never raise."""
    import os

    import pyarrow as pa
    import ray.data as rd

    from newsray.tabular import idempotent_partitioned_build, partition_files

    empty = pa.table({"part": pa.array([], pa.int64()), "x": pa.array([], pa.int64())})

    def build(tmp_dir):
        rd.from_arrow(empty).write_parquet(tmp_dir, partition_cols=["part"])

    out = idempotent_partitioned_build(str(tmp_path / "idx"), {"v": 0}, build)
    assert not [e for e in os.scandir(out) if e.is_dir()]
    assert partition_files(out, "part", [0, 1]) == []


def test_daily_ma_calendar_gaps(ray_session, tmp_path):
    """The RANGE frame must average over days that EXIST in [day-6, day] —
    a calendar gap shrinks the divisor (a ROWS-7 frame would instead reach
    back across the gap). Pinned against DuckDB on a gapped series."""
    import datetime

    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from newsray.registry import ORACLE_SQL
    from newsray.relops import daily_events_7d_ma

    # days 1,2,3 then a 10-day gap, then 14,15 — the windows at 14/15 must
    # NOT see the pre-gap days
    rows = []
    for day, cnt in ((1, 4), (2, 2), (3, 6), (14, 3), (15, 5)):
        for i in range(cnt):
            rows.append(datetime.datetime(2024, 3, day, 8, i))
    d = tmp_path / "sfma"
    d.mkdir()
    pq.write_table(
        pa.table({"ts": pa.array(rows, pa.timestamp("us"))}), d / "events.parquet"
    )
    got = _normalize(_to_pandas(daily_events_7d_ma(str(d))))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    want = _normalize(con.execute(ORACLE_SQL["daily_events_7d_ma"]).df())
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    # the post-gap window really excludes pre-gap days: day 14 → avg(3)=3.0,
    # where a ROWS-7 frame reaching across the gap would give
    # avg(4,2,6,3)=3.75 — THIS is the discriminating assertion (at day 15
    # both frames happen to give 4.0)
    g = got.set_index("day")["ma7"]
    assert g["2024-03-14"] == 3.0
    assert g["2024-03-15"] == 4.0
