"""Text analysis operators over `documents` — language-ID, quality scoring,
token counting, fingerprinting (training-data pipeline extensions; the
scalar semantics mirror the reference's keyword/string layer, SURVEY §2.8).

Every hot path is a vectorized or single-pass per-batch transform; nothing
materializes the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .registry import register
from .tabular import read, token_windows


@register(
    "doc_token_counts",
    sql="""
    SELECT doc_id, len(string_split(text, ' ')) AS n_tokens
    FROM documents
    """,
)
def doc_token_counts(sf_dir: str):
    """Token counting (whitespace tokenizer; the BPE-ish regex variant is
    `doc_quality`'s avg_token_len)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def count(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "n_tokens": token_windows(b["text"]).n})

    return ds.map_batches(count, batch_format="pyarrow")


@register(
    "doc_fingerprints",
    sql="SELECT doc_id, md5(text) AS fingerprint FROM documents",
)
def doc_fingerprints(sf_dir: str):
    """Content fingerprinting: md5 over the raw text (the exact-dedup
    identity; a rolling-hash variant backs `dedup_simhash`)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def fp(b: pa.Table) -> pa.Table:
        digests = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in b["text"].to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "fingerprint": pa.array(digests, pa.string())}
        )

    return ds.map_batches(fp, batch_format="pyarrow")


@register(
    "doc_lang_id",
    sql="""
    SELECT doc_id,
           CASE WHEN len(list_filter(string_split(text, ' '),
                                     x -> x = 'the' OR x = 'a')) >= 2
                THEN 'en' ELSE 'other' END AS pred_lang
    FROM documents
    """,
)
def doc_lang_id(sf_dir: str):
    """Language-ID heuristic: English function-word density (≥2 of
    {'the','a'} → 'en'). A real deployment swaps in an n-gram profile model
    loaded once per actor; the decision surface here is deliberately
    SQL-expressible so the oracle can gate it."""
    from .tabular import token_set_counts

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def lang(b: pa.Table) -> pa.Table:
        _n, (hits,) = token_set_counts(b["text"], (("the", "a"),))
        pred = np.where(hits >= 2, "en", "other")
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "pred_lang": pa.array(pred, pa.string())}
        )

    return ds.map_batches(lang, batch_format="pyarrow")


@register(
    "doc_quality",
    sql="""
    SELECT doc_id,
           n_chars,
           len(string_split(text, ' ')) AS n_tokens,
           ROUND(CAST(len(list_filter(string_split(text, ' '),
                                      x -> x IN ('a', 'the', 'big', 'small')))
                      AS DOUBLE) / len(string_split(text, ' ')), 4) AS stop_ratio,
           ROUND(CAST(length(text) - (len(string_split(text, ' ')) - 1)
                      AS DOUBLE) / len(string_split(text, ' ')), 4) AS avg_token_len
    FROM documents
    """,
)
def doc_quality(sf_dir: str):
    """Quality scoring: stopword ratio + average token length (length/punct
    ratios degenerate on this corpus). Single tokenize pass per batch."""
    import pyarrow.compute as pc

    from .tabular import token_set_counts

    ds = read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    stops = ("a", "the", "big", "small")

    def qual(b: pa.Table) -> pa.Table:
        n_tok, (stop_n,) = token_set_counts(b["text"], (stops,))
        chars = (
            pc.utf8_length(b["text"]).to_numpy(zero_copy_only=False).astype("int64")
        )
        return pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "stop_ratio": pa.array(_round4(stop_n / n_tok), pa.float64()),
                "avg_token_len": pa.array(
                    _round4((chars - (n_tok - 1)) / n_tok), pa.float64()
                ),
            }
        )

    return ds.map_batches(qual, batch_format="pyarrow")


def _round4(x: np.ndarray) -> np.ndarray:
    """Half-away-from-zero to 4 digits (matches SQL ROUND)."""
    return np.floor(np.abs(x) * 1e4 + 0.5) / 1e4 * np.sign(x)


@register(
    "relevant_docs",
    sql="""
    SELECT doc_id, n_chars
    FROM documents
    WHERE (CASE WHEN list_contains(string_split(text, ' '), 'spark') THEN 1 ELSE 0 END
         + CASE WHEN list_contains(string_split(text, ' '), 'stream') THEN 1 ELSE 0 END
         + CASE WHEN list_contains(string_split(text, ' '), 'vector') THEN 1 ELSE 0 END
         + CASE WHEN list_contains(string_split(text, ' '), 'merge') THEN 1 ELSE 0 END) >= 2
      AND NOT list_contains(string_split(text, ' '), 'slow')
    """,
)
def relevant_docs(sf_dir: str):
    """The reference's keyword-relevance predicate (SURVEY M7 variant (a):
    ≥2 distinct include matches, no exclude, word-boundary semantics) over
    the documents table. Keyword lists are broadcast-small; the same
    KeywordMatcher drives the crawl pipeline."""
    from .textfns import KeywordMatcher

    matcher = KeywordMatcher(
        ["spark", "stream", "vector", "merge"], ["slow"], "wordset", check_exclude=True
    )
    ds = read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        keep = b["text"].map(matcher.relevant)
        return b.loc[keep, ["doc_id", "n_chars"]]

    return ds.map_batches(filt, batch_format="pandas")


@register(
    "doc_split_assign",
    sql="""
    SELECT doc_id,
           CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'cc' THEN 'train'
                WHEN md5(CAST(doc_id AS VARCHAR)) < 'e6' THEN 'val'
                ELSE 'test' END AS split
    FROM documents
    """,
)
def doc_split_assign(sf_dir: str):
    """Deterministic train/val/test assignment — the split every training
    corpus needs, reproducible across runs and engines: lexicographic
    compare of the doc_id's md5 hex against fixed thresholds ('cc' ≈ 79.7 %
    train, 'e6' ≈ +10.2 % val, rest test). Pure per-batch map — no shuffle,
    no state; the same row always lands in the same split at any scale."""
    ds = read(sf_dir, "documents", ["doc_id"])

    def assign(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"], "split": _splits(b["doc_id"])})

    return ds.map_batches(assign, batch_format="pyarrow")


def _splits(doc_ids) -> pa.Array:
    """`doc_split_assign`'s rule: each doc_id's train/val/test split."""
    hx = [hashlib.md5(str(d).encode("utf-8")).hexdigest() for d in doc_ids.to_pylist()]
    return pa.array(
        ["train" if h < "cc" else ("val" if h < "e6" else "test") for h in hx], pa.string()
    )


@register(
    "stratified_sample_by_source",
    sql="""
    SELECT doc_id, source
    FROM (
      SELECT doc_id, source,
             row_number() OVER (
               PARTITION BY source
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
             ) AS rn
      FROM documents
    )
    WHERE rn <= 50
    """,
)
def stratified_sample_by_source(sf_dir: str):
    """Stratified sampling: exactly min(50, |group|) docs per source, chosen
    by deterministic hash order (a seeded-uniform stand-in that any engine
    reproduces). One groupby co-locates each stratum; the per-group work is
    a vectorized argsort over the hash — the pattern for per-domain or
    per-language quota sampling when balancing a training mix."""
    ds = read(sf_dir, "documents", ["doc_id", "source"])

    def pick(g: pd.DataFrame) -> pa.Table:
        hx = [hashlib.md5(str(d).encode("utf-8")).hexdigest() for d in g["doc_id"]]
        order = np.lexsort((g["doc_id"].to_numpy(), np.array(hx)))
        take = g.iloc[order[:50]]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(take["doc_id"].to_numpy(), pa.int64()),
                "source": pa.array(take["source"].to_numpy(), pa.string()),
            }
        )

    return ds.groupby("source").map_groups(pick, batch_format="pandas")


@register(
    "top50_tokens",
    sql="""
    SELECT tok, COUNT(*) AS n
    FROM (SELECT unnest(string_split(text, ' ')) AS tok FROM documents)
    GROUP BY tok
    ORDER BY n DESC, tok ASC
    LIMIT 50
    """,
)
def top50_tokens(sf_dir: str):
    """Corpus-level top-k token frequencies — the canonical HIGH-CARDINALITY
    aggregation: the token key space is corpus-sized, so each batch folds to
    (tok, partial_n) via a local Counter (map-side combine — the shuffle
    carries one row per DISTINCT token per batch, not one per occurrence),
    one groupby sums the partials, and the distributed sort-limit takes the
    top 50 (ties broken by token so the cut is oracle-stable)."""
    from ray.data.aggregate import Sum

    ds = read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        # vectorized map-side combine: the batch's tokens → value_counts
        vc = token_windows(b["text"]).strings().value_counts()
        return pa.Table.from_pydict(
            {
                "tok": vc.field("values"),
                "partial_n": vc.field("counts"),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=64 * 1024)
        .groupby("tok")
        .aggregate(Sum("partial_n", alias_name="n"))
        .sort(["n", "tok"], descending=[True, False])
        .limit(50)
    )


@register(
    "doc_repetition",
    sql="""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    mx AS (
      SELECT doc_id, MAX(c) AS mc
      FROM (SELECT doc_id, tok, COUNT(*) AS c
            FROM (SELECT doc_id, unnest(t) AS tok FROM toks)
            GROUP BY doc_id, tok)
      GROUP BY doc_id
    ),
    bg AS (
      SELECT doc_id,
             len(list_distinct(list_transform(range(1, len(t)),
                                              i -> t[i] || chr(31) || t[i+1]))) AS dbg,
             len(t) - 1 AS nbg
      FROM toks WHERE len(t) >= 2
    )
    SELECT toks.doc_id,
           len(toks.t) AS n_tokens,
           ROUND(CAST(len(list_distinct(toks.t)) AS DOUBLE) / len(toks.t), 4)
             AS distinct_ratio,
           ROUND(CAST(mx.mc AS DOUBLE) / len(toks.t), 4) AS top_token_frac,
           ROUND(CASE WHEN bg.nbg IS NULL OR bg.nbg = 0 THEN 0.0
                      ELSE 1.0 - CAST(bg.dbg AS DOUBLE) / bg.nbg END, 4)
             AS dup_bigram_frac
    FROM toks JOIN mx USING (doc_id) LEFT JOIN bg USING (doc_id)
    """,
)
def doc_repetition(sf_dir: str):
    """Repetition-based quality gates (the Gopher-rule family): per doc the
    distinct-token ratio, the most-frequent-token fraction, and the
    duplicate-bigram fraction — the three signals that catch boilerplate,
    keyword-stuffed and degenerate-loop documents before training. Per
    batch, `tabular.token_windows` gives the tokens (counted per row by one
    Arrow group_by) and the 2-token windows (distinct bigrams per row);
    pure per-batch map, no shuffle, no state (reference parity: this extends
    the reference's scalar text layer, SURVEY §2.8, the way its keyword
    relevance extends matching)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def rep(b: pa.Table) -> pa.Table:
        n = b.num_rows
        w = token_windows(b["text"])
        c = pa.table({"row": w.row, "tok": w.strings()}).group_by(["row", "tok"])
        c = c.aggregate([([], "count_all")])
        crow = c["row"].to_numpy()
        top = np.zeros(n, np.int64)
        np.maximum.at(top, crow, c["count_all"].to_numpy())
        # a 2-token window's text names its bigram: tokens hold no space
        w2 = token_windows(b["text"], 2)
        bg = pa.table({"row": w2.row, "bg": w2.strings()}).group_by(["row", "bg"])
        nbg = np.bincount(bg.aggregate([])["row"].to_numpy(), minlength=n)
        ntok = w.n
        dupbg = np.where(ntok >= 2, 1.0 - nbg / np.maximum(ntok - 1, 1), 0.0)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "n_tokens": ntok,
                "distinct_ratio": _round4(np.bincount(crow, minlength=n) / ntok),
                "top_token_frac": _round4(top / ntok),
                "dup_bigram_frac": _round4(dupbg),
            }
        )

    return ds.map_batches(rep, batch_format="pyarrow")


PACK_BUDGET = 2048  # tokens per packed training sequence


@register(
    "pack_sequences",
    sql=f"""
    SELECT doc_id,
           CAST(COALESCE(SUM(len(string_split(text, ' '))) OVER (
                  ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                // {PACK_BUDGET} AS BIGINT) AS seq_id
    FROM documents
    """,
)
def pack_sequences(sf_dir: str):
    """Sequence packing — assign every document (in doc_id order) to a fixed
    token-budget training sequence: seq_id = floor(prefix_tokens / budget),
    where prefix_tokens is the total token count of all EARLIER docs. This
    is a distributed PREFIX SCAN, the one aggregation shape Ray Data has no
    primitive for, built the textbook way: (1) range-partition the tiny
    (doc_id, n_tokens) projection by doc_id (contiguous ranges so partition
    order == scan order), (2) per-partition token totals via a map-side
    combine + one small groupby — O(K) rows to the driver, (3) driver
    prefix-sums the K totals (the only sequential step, K ≈ buckets not
    rows), (4) one groupby(part).map_groups sorts each range locally and
    adds its global offset. Each group holds 16 B/row of projection — with
    the data-aware bucket count a group stays worker-heap-sized at any
    corpus size. Assumes doc_id is roughly uniform over its range (true for
    any hash- or sequence-assigned id; a skewed id space would need
    sampled range bounds, same as any range partitioner)."""
    from ray.data.aggregate import Max, Min, Sum

    from .tabular import from_pandas_clean, n_buckets

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    lohi = ds.aggregate(Min("doc_id"), Max("doc_id"))
    lo, hi = int(lohi["min(doc_id)"]), int(lohi["max(doc_id)"])
    span = hi - lo + 1
    nb = n_buckets(size_bytes=ds.size_bytes())

    def counts(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        # len(t.split(" ")) == count(" ") + 1 for every string (incl. ""):
        # one vectorized substring-count kernel instead of a per-doc split
        n = (
            pc.count_substring(b["text"], pattern=" ")
            .to_numpy(zero_copy_only=False)
            .astype("int64")
            + 1
        )
        part = (ids - lo) * nb // span
        return pa.Table.from_pydict(
            {
                "part": pa.array(part, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
            }
        )

    slim = ds.map_batches(counts, batch_format="pyarrow")
    totals = (
        slim.groupby("part").aggregate(Sum("n_tokens", alias_name="tot")).take_all()
    )  # O(K) rows — the scan's only driver-side state
    per_part = {int(r["part"]): int(r["tot"]) for r in totals}
    offsets, acc = {}, 0
    for p in range(nb + 1):
        offsets[p] = acc
        acc += per_part.get(p, 0)

    def assign(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id", kind="mergesort")
        before = offsets[int(g["part"].iloc[0])] + (
            g["n_tokens"].cumsum().shift(fill_value=0).to_numpy()
        )
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].to_numpy(),
                    "seq_id": (before // PACK_BUDGET).astype("int64"),
                }
            )
        )

    return slim.groupby("part").map_groups(assign, batch_format="pandas")


@register(
    "doc_distinctive_terms",
    sql="""
    WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
                  FROM documents),
    tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM toks GROUP BY doc_id, tok),
    df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY tok),
    r AS (SELECT tf.doc_id, tf.tok, tf.tf, df.df,
                 row_number() OVER (
                   PARTITION BY tf.doc_id
                   ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.tok ASC
                 ) AS rn
          FROM tf JOIN df USING (tok))
    SELECT doc_id, tok AS top_term, tf, df FROM r WHERE rn = 1
    """,
)
def doc_distinctive_terms(sf_dir: str):
    """Per-document most distinctive term — the tf·idf shape (term-frequency
    × corpus rarity) with a deterministic surrogate ranking: argmax of
    tf/df, which is cross-engine bit-exact (one IEEE division of two small
    ints; no libm log whose last ulp could flip an argmax between engines),
    ties broken by term. Distributed plan, sized for a corpus-scale vocab:
    (1) DF by map-side combine — each doc lives in exactly one batch, so
    per-batch distinct-doc counts per token sum to the global df; (2) tf
    rows meet the df PARTIALS in one `tabular.bucket_join` BY TOKEN, no
    vocab broadcast; the global df is the in-bucket sum of the partials
    (every row of a token shares the bucket), so no separate df exchange
    exists; (3) inside each token bucket a
    vectorized local argmax emits ≤1 row per (doc, bucket) — the combiner —
    so the final regroup BY DOC carries ≤buckets rows per doc, not one per
    term occurrence."""
    from .tabular import bucket_groups, bucket_join, n_buckets

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    nb = n_buckets(size_bytes=ds.size_bytes())

    def _exploded_pairs(b: pa.Table) -> pa.Table:
        """(doc_id, tok) row per token OCCURRENCE."""
        w = token_windows(b["text"])
        return pa.table({"doc_id": b["doc_id"].take(w.row), "tok": w.strings()})

    def tf_rows(b: pa.Table) -> pa.Table:
        tf = _exploded_pairs(b).group_by(["doc_id", "tok"]).aggregate([([], "count_all")])
        return pa.table({"doc_id": tf["doc_id"], "tok": tf["tok"], "tf": tf["count_all"]})

    def df_partial(b: pa.Table) -> pa.Table:
        # each doc lives in exactly one batch → per-batch distinct-doc
        # counts per token sum to the global df; the only exchange these
        # partials ever see is the token-bucket join, where the in-bucket
        # sum completes them
        distinct = _exploded_pairs(b).group_by(["doc_id", "tok"]).aggregate([])
        vc = distinct["tok"].combine_chunks().value_counts()
        return pa.table({"tok": vc.field("values"), "df": vc.field("counts")})

    def bucket_best(tfs: pd.DataFrame, dfs: pd.DataFrame) -> pd.DataFrame:
        # one token bucket: every df partial of a token lands here, so
        # their sum is the global df
        m = tfs.merge(dfs.groupby("tok", sort=False, as_index=False)["df"].sum(), on="tok")
        m["score"] = m["tf"].astype("float64") / m["df"].astype("float64")
        return m.sort_values(
            ["doc_id", "score", "tok"], ascending=[True, False, True], kind="mergesort"
        ).drop_duplicates("doc_id")

    local_best = bucket_join(
        (
            ds.map_batches(tf_rows, batch_format="pyarrow"),
            {"doc_id": pa.int64(), "tok": pa.string(), "tf": pa.int64()},
        ),
        (
            ds.map_batches(df_partial, batch_format="pyarrow"),
            {"tok": pa.string(), "df": pa.int64()},
        ),
        "tok",
        nb,
        bucket_best,
        {"doc_id": pa.int64(), "tok": pa.string(), "tf": pa.int64(), "df": pa.int64()},
    )

    def final_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(score=g["tf"].astype("float64") / g["df"].astype("float64"))
        g = g.sort_values(
            ["doc_id", "score", "tok"], ascending=[True, False, True], kind="mergesort"
        ).drop_duplicates("doc_id")
        return g.rename(columns={"tok": "top_term"})

    # re-key by DOC for the regroup
    return bucket_groups(
        local_best,
        "doc_id",
        nb,
        final_best,
        {"doc_id": pa.int64(), "top_term": pa.string(), "df": pa.int64(), "tf": pa.int64()},
    )


NGRAM_N = 8  # decontamination n-gram width

GRAM_EXPANSION = 8  # exploded (gram-hex, doc, split) rows ≈ 8× the text bytes


def contamination_buckets(size_bytes: int | None) -> int:
    """Coarse gram-partition count for `split_contamination`, sized to the
    DATA rather than a constant (the old ``& 255`` meant each part_group
    held ~1/256 of ALL distinct (gram, doc) rows regardless of corpus
    size). Each token of pruned text becomes a ~50-byte (32-hex gram key,
    doc_id, split) row after the explode, so the group-memory axis is the
    post-explode volume: text bytes × GRAM_EXPANSION through the same
    ``n_buckets`` rule every other exchange uses."""
    from .tabular import n_buckets

    return n_buckets(size_bytes=(size_bytes or 0) * GRAM_EXPANSION)


def md5_grams(texts, k: int) -> tuple[np.ndarray, pa.Array, pa.Array]:
    """Every full ``k``-token window of the rows with at least ``k``
    tokens (`tabular.token_windows`): its row, its md5 hex (the oracle's
    ``md5(array_to_string(t[i:i+k-1], ' '))``) and its exchange key, the
    first 8 hex digits as an int."""
    w = token_windows(texts, k)
    full = w.n[w.row] >= k
    w = w._replace(row=w.row[full], start=w.start[full], end=w.end[full])
    hx = [hashlib.md5(s).hexdigest() for s in w.slices()]
    gk = np.frombuffer(bytes.fromhex("".join(hx)), ">u4")[::4].astype(np.int64)
    return w.row, pa.array(hx, pa.string()), pa.array(gk)


@register(
    "split_contamination",
    sql=f"""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    grams AS (
      SELECT DISTINCT doc_id,
             unnest(list_transform(range(1, len(t) - {NGRAM_N} + 2),
                                   i -> md5(array_to_string(t[i:i+{NGRAM_N - 1}], ' ')))) AS g
      FROM toks WHERE len(t) >= {NGRAM_N}
    ),
    splits AS (
      SELECT doc_id,
             CASE WHEN md5(CAST(doc_id AS VARCHAR)) < 'cc' THEN 'train'
                  WHEN md5(CAST(doc_id AS VARCHAR)) < 'e6' THEN 'val'
                  ELSE 'test' END AS split
      FROM documents
    ),
    j AS (SELECT grams.g, grams.doc_id, splits.split
          FROM grams JOIN splits USING (doc_id)),
    train_g AS (SELECT DISTINCT g FROM j WHERE split = 'train')
    SELECT j.doc_id, j.split, COUNT(*) AS n_shared_grams
    FROM j JOIN train_g USING (g)
    WHERE j.split <> 'train'
    GROUP BY j.doc_id, j.split
    """,
)
def split_contamination(sf_dir: str):
    """Train/eval DECONTAMINATION — the check every training corpus needs
    before an eval split is trusted: every val/test document sharing at
    least one 8-token n-gram with ANY train document, with the count of
    distinct shared grams. Distributed shape: per batch, the 8-token
    windows of `tabular.token_windows` (`md5_grams`) and each doc's split
    (the `doc_split_assign` rule — pure hash, no join) fold, by one Arrow
    group_by, to DISTINCT (gram-key, split, doc_id) rows; ONE groupby
    co-locates each gram's members, groups holding a train member emit
    their non-train members once each; a tiny keyed sum yields per-doc
    shared-gram counts.
    The gram exchange groups by a COARSE partition of the gram key
    (millions of one-row gram groups through map_groups is the known Ray
    anti-pattern); per-gram logic inside a partition is one vectorized isin.
    The shuffle key here is the md5 hex of the gram so the DuckDB oracle
    can reproduce it byte-for-byte; at 10^10 scale the key becomes a 64-bit
    gram hash and the same two-exchange plan holds."""
    from ray.data.aggregate import Sum

    from .tabular import bucket_groups

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    nb = contamination_buckets(ds.size_bytes())

    def explode(b: pa.Table) -> pa.Table:
        row, g, gk = md5_grams(b["text"], NGRAM_N)
        grams = pa.table(
            {
                "gk": gk,
                "g": g,
                "doc_id": b["doc_id"].take(row),
                "split": _splits(b["doc_id"]).take(row),
            }
        )
        # DISTINCT (gram, doc) rows: a doc's repeated gram counts once
        return grams.group_by(["gk", "g", "doc_id", "split"]).aggregate([])

    def part_group(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse partition = many grams: vectorized membership, no
        # per-gram Python. Members are DISTINCT (doc, gram) by construction.
        train_g = g.loc[g["split"] == "train", "g"]
        hit = g[(g["split"] != "train") & g["g"].isin(set(train_g))]
        return hit.assign(one=1)

    return (
        bucket_groups(
            ds.map_batches(explode, batch_format="pyarrow"),
            "gk",
            nb,
            part_group,
            {"doc_id": pa.int64(), "split": pa.string(), "one": pa.int64()},
        )
        .groupby(["doc_id", "split"])
        .aggregate(Sum("one", alias_name="n_shared_grams"))
    )


CHUNK_TOKENS = 64  # tokens per chunk
CHUNK_STRIDE = 32  # overlap stride


@register(
    "doc_chunks",
    sql=f"""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    c AS (SELECT doc_id, t,
                 CASE WHEN len(t) <= {CHUNK_TOKENS} THEN 0
                      ELSE CAST(ceil(CAST(len(t) - {CHUNK_TOKENS} AS DOUBLE)
                                     / {CHUNK_STRIDE}) AS BIGINT) END AS last_i
          FROM toks)
    SELECT doc_id,
           unnest(range(0, last_i + 1)) AS chunk_id,
           unnest(list_transform(range(0, last_i + 1),
                    i -> array_to_string(
                           t[i * {CHUNK_STRIDE} + 1 :
                             i * {CHUNK_STRIDE} + {CHUNK_TOKENS}], ' ')))
             AS chunk_text
    FROM c
    """,
)
def doc_chunks(sf_dir: str):
    """Overlapping token-window chunking — the prep step for embedding /
    retrieval indexing: each document becomes the 64-token windows at
    32-token stride of `tabular.token_windows`, the last chunk being the
    first to reach the document's end (every token is covered, short docs
    emit one chunk), gathered as text once per batch. A pure per-batch map
    — no shuffle, no state — so
    it pipelines with downstream embedding actors; chunk_id is the in-doc
    window index, deterministic at any block split."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        w = token_windows(b["text"], CHUNK_TOKENS, CHUNK_STRIDE)
        chunk_id = np.arange(len(w.row)) - np.searchsorted(w.row, w.row)
        return pa.table(
            {
                "doc_id": b["doc_id"].take(w.row),
                "chunk_id": pa.array(chunk_id, pa.int64()),
                "chunk_text": w.strings(),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PII / denylist scrubbing (the redaction gate every release pipeline runs)
# ---------------------------------------------------------------------------

# RE2 on BOTH sides: pyarrow's replace/count_substring_regex kernels and
# DuckDB's regexp_* are RE2-backed, so the oracle comparison is exact.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE = r"\b\d{2,4}[-.]\d{3,4}[-.]\d{4}\b"
PII_ENTITY = r"\b(customer|user|line)\b"  # denylist terms (fire on this corpus)
_PII_RULES = (
    (PII_EMAIL, "<EMAIL>"),
    (PII_PHONE, "<PHONE>"),
    (PII_ENTITY, "<ENT>"),
)


@register(
    "doc_pii_redact",
    sql=f"""
    SELECT doc_id,
           regexp_replace(regexp_replace(regexp_replace(text,
               '{PII_EMAIL}', '<EMAIL>', 'g'),
               '{PII_PHONE}', '<PHONE>', 'g'),
               '{PII_ENTITY}', '<ENT>', 'g') AS clean_text,
           length(regexp_extract_all(text, '{PII_EMAIL}')) AS n_email,
           length(regexp_extract_all(text, '{PII_PHONE}')) AS n_phone,
           length(regexp_extract_all(text, '{PII_ENTITY}')) AS n_entity
    FROM documents
    """,
)
def doc_pii_redact(sf_dir: str):
    """PII / denylist scrubbing: emails → <EMAIL>, phone shapes → <PHONE>,
    denylist terms → <ENT>, plus per-class match counts (counted on the
    ORIGINAL text, replaced in rule order — the SQL mirrors both choices).
    One embarrassingly-parallel vectorized pass: three compiled RE2 kernels
    per batch, no shuffle, no state — the shape of every redaction /
    normalization gate a 100-TB release run applies to all text. The
    email/phone rules are the realistic payload; the denylist rule is what
    actually fires on the synthetic corpus, keeping the oracle comparison
    non-trivial."""
    import pyarrow.compute as pc

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def scrub(b: pa.Table) -> pa.Table:
        t = b["text"]
        clean = t
        for pat, rep in _PII_RULES:
            clean = pc.replace_substring_regex(clean, pattern=pat, replacement=rep)
        return pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "clean_text": clean,
                "n_email": pc.cast(
                    pc.count_substring_regex(t, pattern=PII_EMAIL), pa.int64()
                ),
                "n_phone": pc.cast(
                    pc.count_substring_regex(t, pattern=PII_PHONE), pa.int64()
                ),
                "n_entity": pc.cast(
                    pc.count_substring_regex(t, pattern=PII_ENTITY), pa.int64()
                ),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# seeded deterministic epoch shuffle (training-data ordering)
# ---------------------------------------------------------------------------

SHUFFLE_SEED = 99991
_KNUTH = 2654435761  # Knuth multiplicative hash constant (2^32 / phi)


@register(
    "deterministic_shuffle",
    sql=f"""
    SELECT doc_id,
           row_number() OVER (
             ORDER BY ((CAST(doc_id AS HUGEINT) * {_KNUTH} + {SHUFFLE_SEED})
                       % 4294967296 + 4294967296) % 4294967296,
                      doc_id
           ) - 1 AS shuffle_pos
    FROM documents
    """,
)
def deterministic_shuffle(sf_dir: str):
    """Seeded REPRODUCIBLE global shuffle — the epoch-reshuffle a training
    run needs (`random_shuffle` is not replayable across runs/resumes;
    a hash order is): shuffle_pos = global rank under the Knuth
    multiplicative hash key (doc_id·2654435761 + seed) mod 2³², ties by
    doc_id. Same distributed-prefix shape as `pack_sequences`, keyed by the
    HASH instead of doc_id: the key is uniform on [0, 2³²) by construction,
    so range-partitioning it needs no sampled bounds even when doc_id is
    skewed. One tiny aggregate (O(buckets) counts to the driver) + one
    keyed exchange; only (part, key, doc_id) int rows ever shuffle.

    uint64 arithmetic is exact for the low 32 bits at ANY doc_id — including
    negatives: the int64→uint64 cast and every wraparound are mod 2⁶⁴, and
    2³² | 2⁶⁴, so the result equals the exact integer's value mod 2³². The
    oracle computes the same product in HUGEINT and double-mods
    (``(x % m + m) % m``) because SQL ``%`` follows the dividend's sign —
    with that normalization the two sides agree at every scale and sign."""
    from ray.data.aggregate import Count

    from .tabular import from_pandas_clean, n_buckets

    ds = read(sf_dir, "documents", ["doc_id"])
    nb = n_buckets(size_bytes=ds.size_bytes())

    def keyed(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = (ids * np.uint64(_KNUTH) + np.uint64(SHUFFLE_SEED)) % np.uint64(1 << 32)
        part = (key * np.uint64(nb)) >> np.uint64(32)  # key < 2³², nb ≤ 2³²
        return pa.Table.from_pydict(
            {
                "part": pa.array(part.astype(np.int64), pa.int64()),
                "key": pa.array(key.astype(np.int64), pa.int64()),
                "doc_id": b["doc_id"],
            }
        )

    slim = ds.map_batches(keyed, batch_format="pyarrow")
    totals = slim.groupby("part").aggregate(Count(alias_name="n")).take_all()
    per_part = {int(r["part"]): int(r["n"]) for r in totals}
    offsets, acc = {}, 0
    for p in range(nb + 1):
        offsets[p] = acc
        acc += per_part.get(p, 0)

    def assign(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["key", "doc_id"], kind="mergesort")
        pos = offsets[int(g["part"].iloc[0])] + np.arange(len(g), dtype=np.int64)
        return from_pandas_clean(
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].to_numpy(),
                    "shuffle_pos": pos,
                }
            )
        )

    return slim.groupby("part").map_groups(assign, batch_format="pandas")


# ---------------------------------------------------------------------------
# corpus length histogram (the data-card length distribution)
# ---------------------------------------------------------------------------

HIST_BUCKET_TOKENS = 16


@register(
    "doc_length_histogram",
    sql=f"""
    SELECT CAST(len(string_split(text, ' ')) // {HIST_BUCKET_TOKENS} AS BIGINT)
             AS bucket,
           COUNT(*) AS n_docs
    FROM documents GROUP BY bucket
    """,
)
def doc_length_histogram(sf_dir: str):
    """Token-length distribution in fixed HIST_BUCKET_TOKENS(=16)-token buckets
    — the length histogram every corpus data card reports. Map-side
    COMBINE: each batch folds to one row per OCCUPIED bucket (a bincount —
    O(buckets) partials regardless of batch size), then one tiny groupby
    sums partials; the exchange carries O(batches × occupied buckets) int
    rows, never documents."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        n = (
            pc.count_substring(b["text"], pattern=" ")
            .to_numpy(zero_copy_only=False)
            .astype("int64")
            + 1
        )
        bucket = n // HIST_BUCKET_TOKENS
        counts = np.bincount(bucket)
        occ = np.flatnonzero(counts)
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(occ.astype(np.int64), pa.int64()),
                "part_n": pa.array(counts[occ].astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("part_n", alias_name="n_docs"))
    )
