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


def test_n_buckets_scales_with_data_size():
    """VERDICT #3: bucket counts must grow with the DATA, not only the
    cluster — one bucket group must stay ~TARGET_GROUP_BYTES regardless of
    input scale on a fixed-size cluster."""
    from newsray.dedup_ops import emb_grid_buckets, grid_buckets
    from newsray.tabular import TARGET_GROUP_BYTES, n_buckets

    small = n_buckets(size_bytes=1)
    big = n_buckets(size_bytes=1024 * TARGET_GROUP_BYTES)
    assert big >= 1024 and big > small
    # derived B stays a power of two (bucket masks use & (B-1))
    assert big & (big - 1) == 0
    assert n_buckets() == n_buckets(size_bytes=None)  # hint-less floor
    # pair grids: per-cell side capped at target_side
    assert grid_buckets(100, target_side=20_000, floor=4) == 4
    g = grid_buckets(10_000_000, target_side=20_000, floor=4)
    assert 10_000_000 / g <= 20_000 and g & (g - 1) == 0
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
    ],
)
def test_bucket_count_invariance(harness, name, monkeypatch):
    """The coarse hash-bucket partitioning in every bucketed operator is an
    INTERNAL exchange detail: forcing wildly different bucket counts must
    produce identical results (the round-3 split_contamination lesson,
    asserted for the round-4 bucketed plans). n_buckets is imported late
    inside each operator, so patching the module function reaches them."""
    import hashlib

    import newsray.tabular as tabular

    entrymod, _ = harness
    fn = entrymod.queries()[name]
    real = tabular.n_buckets
    digests = set()
    for forced in (4, 64):
        monkeypatch.setattr(
            tabular, "n_buckets", lambda min_b=32, size_bytes=None, f=forced: f
        )
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


def test_value_percentiles_selection_nulls_dups_rounds(ray_session, tmp_path, monkeypatch):
    """Distributed-selection percentiles: nulls are excluded from the offset
    population (quantile_disc semantics), duplicate-heavy data resolves on
    the pivot-hit path, and a tiny _SEL_CAP forces the multi-round narrow
    loop — all three must return the exact nearest-rank element."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import newsray.sketch as sketch

    rng = np.random.RandomState(7)
    vals = np.concatenate(
        [
            rng.normal(100.0, 25.0, 20_000),
            np.full(5_000, 123.456),  # heavy duplicate → pivot-hit path
        ]
    )
    col = vals.tolist() + [None] * 500  # nulls must not shift offsets
    d = tmp_path / "sfvp"
    d.mkdir()
    pq.write_table(pa.table({"value": pa.array(col, pa.float64())}), d / "events.parquet")

    s = np.sort(vals)
    want = {
        f"p{lbl}": s[max(0, math.ceil(q * len(s)) - 1)] for lbl, q in sketch.EXACT_QS
    }

    for cap, p in ((262_144, 64), (16, 8)):  # big cap: 1 round; tiny: multi-round
        monkeypatch.setattr(sketch, "_SEL_CAP", cap)
        monkeypatch.setattr(sketch, "_SEL_P", p)
        got = sketch.value_percentiles(str(d)).to_pandas().iloc[0]
        for k, v in want.items():
            assert got[k] == v, (cap, p, k, got[k], v)


def test_value_percentiles_nonfinite_empty_fallback(ray_session, tmp_path, monkeypatch):
    """Hardening paths of the selection plan: (a) ±inf values are placed by
    the ORDER BY total order and match DuckDB's quantile_disc exactly;
    (b) an empty / all-null population returns one all-NULL row like the
    SQL aggregate; (c) a zero collect-cap leaves quantiles unresolved after
    the narrowing rounds and the bracket-sort fallback still returns the
    exact nearest-rank element (never a silent null)."""
    import math

    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import newsray.sketch as sketch

    # (a) ±inf parity with DuckDB (no NaN: its quantile_disc is
    # comparator-unstable with NaNs — no defined oracle there)
    rng = np.random.RandomState(11)
    vals = np.concatenate(
        [np.full(40, -np.inf), rng.uniform(0, 100, 3000), np.full(700, np.inf)]
    )
    d = tmp_path / "sfinf"
    d.mkdir()
    pq.write_table(
        pa.table({"value": pa.array(vals.tolist(), pa.float64())}),
        d / "events.parquet",
    )
    got = sketch.value_percentiles(str(d)).to_pandas().iloc[0]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')"
    )
    want = con.execute(
        "SELECT quantile_disc(value, 0.50) AS p50,"
        "       quantile_disc(value, 0.90) AS p90,"
        "       quantile_disc(value, 0.99) AS p99 FROM events"
    ).df().iloc[0]
    for k in ("p50", "p90", "p99"):
        assert got[k] == want[k], (k, got[k], want[k])

    # (b) empty and all-null populations → one all-NULL row
    for name, col in (("sfempty", []), ("sfnull", [None] * 64)):
        dd = tmp_path / name
        dd.mkdir()
        pq.write_table(
            pa.table({"value": pa.array(col, pa.float64())}), dd / "events.parquet"
        )
        row = sketch.value_percentiles(str(dd)).to_pandas().iloc[0]
        assert row.isna().all(), (name, row)

    # (c) collect cap 0 → nothing is ever collectable → bracket-sort fallback
    dsel = tmp_path / "sffb"
    dsel.mkdir()
    fvals = rng.normal(50.0, 9.0, 8000)
    pq.write_table(
        pa.table({"value": pa.array(fvals.tolist(), pa.float64())}),
        dsel / "events.parquet",
    )
    monkeypatch.setattr(sketch, "_SEL_CAP", 0)
    monkeypatch.setattr(sketch, "_SEL_ROUNDS", 2)
    s = np.sort(fvals)
    got = sketch.value_percentiles(str(dsel)).to_pandas().iloc[0]
    for lbl, q in sketch.EXACT_QS:
        assert got[f"p{lbl}"] == s[max(0, math.ceil(q * len(s)) - 1)]


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
    a racing winner (rename fails, winner's complete tree + matching marker
    in place) serves the winner's tree and cleans its own temp dir — never
    a mixed in-place write, never an error for an identical fingerprint."""
    import json
    import os
    import shutil as _sh

    from newsray.tabular import idempotent_partitioned_build

    out = str(tmp_path / "idx")
    want = {"v": 2}
    # stale prior build (fingerprint mismatch -> rebuild path)
    os.makedirs(out)
    with open(os.path.join(out, "_built.json"), "w") as f:
        json.dump({"v": 1}, f)

    def build(tmp_dir):
        with open(os.path.join(tmp_dir, "part.parquet"), "w") as f:
            f.write("data")

    real_rmtree = _sh.rmtree

    def winner_reappears(path, ignore_errors=False):
        real_rmtree(path, ignore_errors=ignore_errors)
        if path == out:  # the racing winner swaps ITS complete tree in
            os.makedirs(out)
            with open(os.path.join(out, "_built.json"), "w") as f:
                json.dump(want, f)

    monkeypatch.setattr(_sh, "rmtree", winner_reappears)
    got = idempotent_partitioned_build(out, want, build)
    assert got == out
    assert json.load(open(os.path.join(out, "_built.json"))) == want
    assert not os.path.isdir(f"{out}.build-{os.getpid()}")  # loser cleaned up
    # and a plain rebuild-on-mismatch still works with rmtree restored
    monkeypatch.setattr(_sh, "rmtree", real_rmtree)
    got = idempotent_partitioned_build(out, {"v": 3}, build)
    assert json.load(open(os.path.join(out, "_built.json"))) == {"v": 3}
    assert os.path.exists(os.path.join(out, "part.parquet"))


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
