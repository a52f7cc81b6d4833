"""Lexical search + statistical-LM quality operators over `documents` —
BM25 top-k retrieval, bigram-LM scoring (the CCNet/Gopher perplexity-filter
shape), and per-document token entropy.

These extend the reference's keyword layer (News_keyword.py's include /
exclude token matching — SURVEY §2.8) from boolean relevance to ranked
retrieval and model-based quality scoring, the operations a training-data
pipeline runs right after crawl + dedup.

Determinism contract with the DuckDB oracle (the driver hash-gates values):
- BM25 and the LM score use only +,-,*,/ on IEEE doubles with the exact
  same expression tree the SQL writes — bit-exact across engines, no libm.
- The LM per-bigram probability and the per-token entropy term are
  QUANTIZED to int64 (round(1e12 * x)) before any sum, so aggregation
  order — which differs between engines by design — can never move the
  result. Entropy's log2 is the one libm call; a last-ulp disagreement
  would move a doc's 4-decimal output only if the exact sum sits within
  ~4e-11 of a rounding boundary.

Every hot path is a vectorized per-batch transform; the LM join is
hash-bucketed by token (no vocab broadcast — at corpus scale the bigram
table is itself data-sized).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .registry import register
from .tabular import read, token_set_counts, token_windows

# BM25 parameters (Robertson k1/b defaults; the idf is the log-free
# rational form (N - df + 0.5)/(df + 0.5) so the score is pure arithmetic
# and cross-engine bit-exact — same surrogate-ranking rationale as
# doc_distinctive_terms' tf/df argmax).
BM25_TERMS = ("spark", "window", "hash")
BM25_K1 = 1.5
BM25_B = 0.75
BM25_TOP_K = 20

_BM25_TERM_SQL = """
tf AS (SELECT doc_id,
              len(t) AS dl,
              len(list_filter(t, x -> x = 'spark'))  AS f1,
              len(list_filter(t, x -> x = 'window')) AS f2,
              len(list_filter(t, x -> x = 'hash'))   AS f3
       FROM toks)"""


@register(
    "bm25_topk",
    sql=f"""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    {_BM25_TERM_SQL},
    st AS (SELECT COUNT(*) AS n, SUM(dl) AS sl,
                  COUNT(*) FILTER (WHERE f1 > 0) AS d1,
                  COUNT(*) FILTER (WHERE f2 > 0) AS d2,
                  COUNT(*) FILTER (WHERE f3 > 0) AS d3
           FROM tf),
    sc AS (SELECT tf.doc_id,
        (st.n - st.d1 + 0.5) / (st.d1 + 0.5) * f1 * 2.5
          / (f1 + 1.5 * (0.25 + 0.75 * dl / (CAST(st.sl AS DOUBLE) / st.n)))
      + (st.n - st.d2 + 0.5) / (st.d2 + 0.5) * f2 * 2.5
          / (f2 + 1.5 * (0.25 + 0.75 * dl / (CAST(st.sl AS DOUBLE) / st.n)))
      + (st.n - st.d3 + 0.5) / (st.d3 + 0.5) * f3 * 2.5
          / (f3 + 1.5 * (0.25 + 0.75 * dl / (CAST(st.sl AS DOUBLE) / st.n)))
        AS s
      FROM tf, st)
    SELECT doc_id, ROUND(s, 4) AS bm25
    FROM sc WHERE s > 0
    ORDER BY s DESC, doc_id ASC
    LIMIT {BM25_TOP_K}
    """,
)
def bm25_topk(sf_dir: str):
    """BM25 top-k lexical retrieval for a fixed query — ranked keyword
    search, the retrieval counterpart of `relevant_docs`' boolean matching.

    Two streaming passes, both scale-shaped:
    (1) corpus statistics (N, Σdl, per-term document frequencies) fold to
        ONE partial row per batch and a driver-side dict — O(batches)
        rows cross the wire, never the corpus;
    (2) scoring is a stateless vectorized map with the stats closed over
        (a handful of floats — broadcast-by-closure, not a shuffle), each
        batch pre-prunes to its local top-k, and a distributed sort-limit
        takes the global k. Ties break by doc_id so the cut is
        oracle-stable.
    """
    from ray.data.aggregate import Sum

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    # per row: token length + occurrence count of each query term
    terms = [(t,) for t in BM25_TERMS]

    def stats_partial(b: pa.Table) -> pa.Table:
        dl, f = token_set_counts(b["text"], terms)
        row = {"n": [len(b)], "sl": [int(dl.sum())]}
        for j in range(len(BM25_TERMS)):
            row[f"d{j + 1}"] = [int((f[j] > 0).sum())]
        return pa.Table.from_pydict(row)

    aggs = [Sum("n", alias_name="n"), Sum("sl", alias_name="sl")] + [
        Sum(f"d{j + 1}", alias_name=f"d{j + 1}") for j in range(len(BM25_TERMS))
    ]
    st = ds.map_batches(stats_partial, batch_format="pyarrow").aggregate(*aggs)
    n, sl = st["n"], st["sl"]
    d = [st[f"d{j + 1}"] for j in range(len(BM25_TERMS))]
    avgdl = float(sl) / n  # CAST(sl AS DOUBLE) / n — same division as the SQL

    def score(b: pa.Table) -> pa.Table:
        dl, f = token_set_counts(b["text"], terms)
        dlf = dl.astype("float64")
        s = np.zeros(len(b), dtype="float64")
        # fixed term order, same expression tree as the SQL: bit-exact
        for j in range(len(BM25_TERMS)):
            fj = f[j].astype("float64")
            s = s + (n - d[j] + 0.5) / (d[j] + 0.5) * fj * (BM25_K1 + 1.0) / (
                fj + BM25_K1 * (1.0 - BM25_B + BM25_B * dlf / avgdl)
            )
        keep = s > 0
        t = pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"].combine_chunks().filter(pa.array(keep)),
                "s": pa.array(s[keep], pa.float64()),
            }
        )
        # local top-k prune: the global sort-limit sees ≤k rows per batch
        order = np.lexsort((t["doc_id"].to_numpy(), -t["s"].to_numpy()))[:BM25_TOP_K]
        return t.take(pa.array(np.sort(order)))

    def finish(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False)
        bm25 = np.floor(np.abs(s) * 1e4 + 0.5) / 1e4 * np.sign(s)
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "bm25": pa.array(bm25, pa.float64())}
        )

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(["s", "doc_id"], descending=[True, False])
        .limit(BM25_TOP_K)
        .map_batches(finish, batch_format="pyarrow")
    )


LM_Q_SCALE = 1e12  # per-bigram probability quantization (order-free int sums)


@register(
    "doc_bigram_lm_score",
    sql="""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    bgu AS (SELECT doc_id,
                   unnest(list_transform(range(1, len(t)),
                                         i -> {'w1': t[i], 'w2': t[i + 1]})) AS u
            FROM toks WHERE len(t) >= 2),
    bgf AS (SELECT doc_id, u.w1 AS w1, u.w2 AS w2 FROM bgu),
    cnt12 AS (SELECT w1, w2, COUNT(*) AS c12 FROM bgf GROUP BY w1, w2),
    cnt1 AS (SELECT w1, COUNT(*) AS c1 FROM bgf GROUP BY w1),
    q AS (SELECT cnt12.w1, cnt12.w2,
                 CAST(ROUND(1e12 * c12 / c1, 0) AS BIGINT) AS q
          FROM cnt12 JOIN cnt1 USING (w1)),
    dsq AS (SELECT bgf.doc_id, SUM(q.q) AS sq, COUNT(*) AS nbg
            FROM bgf JOIN q ON bgf.w1 = q.w1 AND bgf.w2 = q.w2
            GROUP BY bgf.doc_id)
    SELECT doc_id, nbg AS n_bigrams,
           ROUND(CAST(sq AS DOUBLE) / nbg / 1e12, 4) AS lm_score
    FROM dsq
    """,
)
def doc_bigram_lm_score(sf_dir: str):
    """Statistical-LM quality score (the CCNet/Gopher perplexity-filter
    shape): train a bigram MLE model ON the corpus — C(w1,w2) and
    C(w1) = Σ_w2 C(w1,w2) — then score every document by its mean bigram
    probability P(w2|w1) = C(w1,w2)/C(w1). Low scores flag documents whose
    word transitions are atypical for the corpus (the decision surface a
    real pipeline gets from a KenLM model loaded once per actor).

    Distributed plan, sized for a corpus-scale bigram table (vocab² rows —
    itself data-sized, so NOTHING is broadcast). Three exchanges, all
    bucketed map_groups with vectorized pandas inside (Ray's native
    ``groupby().aggregate`` sort-aggregates per key — measured 18.7 s of
    remote wall on this operator's w1×w2 key space at sf0.1, vs <1 s for
    the same sum inside a bucket group):
    (1) map-side combine (one row per DISTINCT bigram per batch) → ONE
        shuffle BY hash(w1): a w1's rows all land in one bucket, so the
        in-bucket groupby gives the global C(w1,w2) AND C(w1) = Σ_w2
        together — emits the quantized q = round(1e12·c12/c1) per bigram;
    (2) doc bigram rows meet their q row in a `tabular.bucket_join` BY
        (w1,w2); the in-bucket combiner folds to ≤1 partial row per
        (doc, bucket);
    (3) partials meet BY doc for the exact int64 (Σq, n_bigrams) fold.
        Documents with <2 tokens have no bigrams and are excluded by
        definition (mirrored by the SQL's len(t) >= 2).
    (1) and (3) are `tabular.bucket_groups` exchanges.
    """
    from .tabular import bucket_groups, bucket_join, n_buckets

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    nb = n_buckets(size_bytes=ds.size_bytes())

    def bigram_rows(b: pa.Table) -> pa.Table:
        """(doc_id, w1, w2) per bigram occurrence: adjacent tokens of one
        document."""
        w = token_windows(b["text"])
        toks = w.strings()
        i = np.flatnonzero(w.row[:-1] == w.row[1:])  # each bigram's w1
        return pa.table(
            {
                "doc_id": b["doc_id"].take(w.row[i]),
                "w1": toks.take(i),
                "w2": toks.take(i + 1),
            }
        )

    bg = ds.map_batches(bigram_rows, batch_format="pyarrow")

    def count_partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table({"w1": g["w1"], "w2": g["w2"], "c_part": g["count_all"]})

    def q_rows(g: pd.DataFrame) -> pd.DataFrame:
        # one w1-bucket: every (w1, w2, c_part) partial of a given w1 is
        # here, so ONE in-bucket fold yields both the global C(w1,w2) and
        # C(w1) = Σ_w2 — no separate count exchange
        cnt = g.groupby(["w1", "w2"], sort=False)["c_part"].sum().reset_index()
        c1 = cnt.groupby("w1")["c_part"].transform("sum").to_numpy().astype("float64")
        c12 = cnt["c_part"].to_numpy().astype("float64")
        q = np.floor(1e12 * c12 / c1 + 0.5).astype("int64")  # ROUND(1e12*c12/c1, 0)
        return cnt.assign(q=q)

    bigram = {"w1": pa.string(), "w2": pa.string()}
    qtab = bucket_groups(
        bg.map_batches(count_partial, batch_format="pyarrow"),
        "w1",
        nb,
        q_rows,
        {**bigram, "q": pa.int64()},
    )

    def bucket_score(docs: pd.DataFrame, model: pd.DataFrame) -> pd.DataFrame:
        # one (w1,w2)-bucket: doc rows meet model rows; the combiner folds
        # to ≤1 partial row per doc in this bucket
        m = docs.merge(model, on=["w1", "w2"])
        return m.groupby("doc_id", as_index=False).agg(sq_part=("q", "sum"), nbg_part=("q", "size"))

    partials = bucket_join(
        (bg, {"doc_id": pa.int64(), **bigram}),
        (qtab, {**bigram, "q": pa.int64()}),
        ["w1", "w2"],
        nb,
        bucket_score,
        {"doc_id": pa.int64(), "sq_part": pa.int64(), "nbg_part": pa.int64()},
    )

    def doc_fold(g: pd.DataFrame) -> pd.DataFrame:
        # one doc-hash bucket: every (doc, sq_part, nbg_part) partial of a
        # given doc is here — exact int64 fold, then the display math
        agg = g.groupby("doc_id", sort=False).agg(
            sq=("sq_part", "sum"), n_bigrams=("nbg_part", "sum")
        )
        agg = agg.reset_index()
        sq = agg["sq"].to_numpy(np.int64).astype("float64")
        nbg = agg["n_bigrams"].to_numpy(np.int64)
        score = sq / nbg.astype("float64") / 1e12  # CAST(sq AS DOUBLE)/nbg/1e12
        score = np.floor(np.abs(score) * 1e4 + 0.5) / 1e4 * np.sign(score)
        return agg.assign(lm_score=score)

    return bucket_groups(
        partials,
        "doc_id",
        nb,
        doc_fold,
        {"doc_id": pa.int64(), "n_bigrams": pa.int64(), "lm_score": pa.float64()},
    )


@register(
    "doc_token_entropy",
    sql="""
    WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
                  FROM documents),
    cc AS (SELECT doc_id, tok, COUNT(*) AS k FROM toks GROUP BY doc_id, tok),
    nn AS (SELECT doc_id, CAST(SUM(k) AS BIGINT) AS n FROM cc GROUP BY doc_id),
    t AS (SELECT cc.doc_id,
                 CAST(ROUND(1e12 * (CAST(k AS DOUBLE) / nn.n)
                            * log2(CAST(nn.n AS DOUBLE) / k), 0) AS BIGINT) AS q
          FROM cc JOIN nn USING (doc_id)),
    s AS (SELECT doc_id, SUM(q) AS sq FROM t GROUP BY doc_id)
    SELECT s.doc_id, nn.n AS n_tokens,
           ROUND(CAST(sq AS DOUBLE) / 1e12, 4) AS token_entropy
    FROM s JOIN nn USING (doc_id)
    """,
)
def doc_token_entropy(sf_dir: str):
    """Per-document Shannon entropy of the token distribution (bits) — the
    information-density quality gate that complements `doc_repetition`'s
    ratio rules: keyword-stuffed and template documents score low even when
    their distinct-token ratio looks healthy.

    Pure per-batch map, no shuffle: each document lives in exactly one
    batch, so the per-doc token histogram (one Arrow group_by per batch)
    and the entropy fold never leave the task. Per-term entropy
    contributions are quantized to int64 before summing (see module
    docstring)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def ent(b: pa.Table) -> pa.Table:
        w = token_windows(b["text"])
        dl = w.n
        g = (
            pa.table({"row": w.row, "tok": w.strings()})
            .group_by(["row", "tok"])
            .aggregate([([], "count_all")])
        )
        grow = g["row"].to_numpy(zero_copy_only=False)
        k = g["count_all"].to_numpy(zero_copy_only=False).astype("float64")
        nrow = dl[grow].astype("float64")
        # same expression tree as the SQL: 1e12 * (k/n) * log2(n/k), then
        # ROUND(x, 0) half-away-from-zero (x ≥ 0 here)
        q = np.floor(1e12 * (k / nrow) * np.log2(nrow / k) + 0.5).astype("int64")
        sq = np.zeros(len(b), dtype="int64")
        np.add.at(sq, grow, q)
        entropy = sq.astype("float64") / 1e12
        entropy = np.floor(entropy * 1e4 + 0.5) / 1e4
        return pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "n_tokens": pa.array(dl, pa.int64()),
                "token_entropy": pa.array(entropy, pa.float64()),
            }
        )

    return ds.map_batches(ent, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# persisted inverted (postings) index + partition-pruned term lookup — the
# lexical counterpart of the ANN index path (ann.build_lsh_index)
# ---------------------------------------------------------------------------

POSTINGS_ROOT = "/tmp/newsray_postings_index"
POSTINGS_BUCKETS = 64  # term-hash partitions (term → md5-low-bits bucket)
LOOKUP_TERMS = ("vector", "merge", "stream")
LOOKUP_TOP_K = 10


def build_postings_index(sf_dir: str, out_dir: str) -> str:
    """Build (idempotent, fingerprinted) a hash-partitioned POSTINGS index:
    (term, doc_id, tf) rows written with ``partition_cols=["tb"]`` where
    ``tb = hash_bucket(term, POSTINGS_BUCKETS)`` — so a term lookup reads
    ONLY the partition dirs its query terms hash to, the 10^10-scale
    access path (same layout contract as `ann.build_lsh_index`; marker
    carries the source file fingerprint so an in-place corpus change
    rebuilds instead of serving stale postings)."""
    import os

    from .tabular import idempotent_partitioned_build, key_buckets

    src = f"{sf_dir}/documents.parquet"
    st = os.stat(src)
    want = {
        "sf_dir": sf_dir,
        "buckets": POSTINGS_BUCKETS,
        "src_size": st.st_size,
        "src_mtime_ns": st.st_mtime_ns,
    }

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def postings(b: pa.Table) -> pa.Table:
        # ONE Arrow group_by per batch; the md5 bucketing (`key_buckets`)
        # runs once per DISTINCT term in the batch, not per token
        w = token_windows(b["text"])
        tf = pa.table({"term": w.strings(), "doc_id": b["doc_id"].take(w.row)})
        tf = tf.group_by(["term", "doc_id"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "term": tf["term"],
                "doc_id": tf["doc_id"],
                "tf": tf["count_all"],
                "tb": key_buckets([tf["term"]], POSTINGS_BUCKETS),
            }
        )

    def build(tmp_dir: str) -> None:
        ds.map_batches(postings, batch_format="pyarrow").write_parquet(
            tmp_dir, partition_cols=["tb"]
        )

    return idempotent_partitioned_build(out_dir, want, build)


def postings_dirs(idx: str, terms: tuple[str, ...]) -> tuple[list[str], set[int]]:
    """The parquet files of ONLY the partitions the query terms hash to."""
    from .tabular import hash_bucket, partition_files

    buckets = {hash_bucket(t, POSTINGS_BUCKETS) for t in terms}
    return partition_files(idx, "tb", buckets), buckets


@register(
    "term_lookup_indexed",
    sql=f"""
    WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS term
                  FROM documents),
    tf AS (SELECT doc_id, SUM(CASE WHEN term IN {LOOKUP_TERMS!r} THEN 1 ELSE 0 END)
                    AS score
           FROM toks GROUP BY doc_id)
    SELECT doc_id, CAST(score AS BIGINT) AS score
    FROM tf WHERE score > 0
    ORDER BY score DESC, doc_id ASC
    LIMIT {LOOKUP_TOP_K}
    """,
)
def term_lookup_indexed(sf_dir: str):
    """Top-k docs by summed query-term frequency, served from the PERSISTED
    postings index instead of a corpus scan: the query terms map to their
    hash partitions and ONLY those parquet dirs are read — at 10^10 docs
    the lookup touches |terms| partitions of postings, never text. The
    oracle recomputes from raw documents, proving index build + pruned
    probe end-to-end. Ties break by doc_id so the cut is oracle-stable."""
    import hashlib as _hl
    import os

    import ray.data as rd
    from ray.data.aggregate import Sum

    idx = build_postings_index(
        sf_dir,
        os.path.join(POSTINGS_ROOT, _hl.md5(sf_dir.encode()).hexdigest()[:12]),
    )
    files, _buckets = postings_dirs(idx, LOOKUP_TERMS)
    if not files:
        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.int64())}
            )
        )
    ds = rd.read_parquet(files, columns=["term", "doc_id", "tf"])

    def partial(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.is_in(b["term"], value_set=pa.array(LOOKUP_TERMS)))
        return pa.Table.from_pydict(
            {"doc_id": keep["doc_id"], "part_score": keep["tf"]}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("part_score", alias_name="score"))
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(LOOKUP_TOP_K)
    )
