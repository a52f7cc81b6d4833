"""`corpus_clean` — the composite training-data cleaning cascade.

One query runs the canonical corpus-preparation pipeline end to end and
returns a per-document audit verdict:

    lang-ID filter → quality filter → exact dedup → MinHash near-dup dedup

Every input document comes back exactly once as ``(doc_id, verdict)``:

* ``lang``       — failed the language gate (the `doc_lang_id` decision
  surface: < 2 English function-word hits);
* ``quality``    — passed lang but failed quality (`< MIN_TOKENS` tokens or
  stopword ratio `< MIN_STOP_RATIO` — the `doc_quality` features);
* ``exact_dup``  — survived 1-2 but its exact content hash is held by a
  lower doc_id survivor (`dedup_exact_first` semantics: min doc_id wins);
* ``near_dup``   — survived 1-3 but sits in a MinHash/LSH duplicate
  cluster (verified Jaccard ≥ 0.5, `dedup_ops` constructions) whose keeper
  (cluster-min doc_id) is someone else;
* ``kept``       — the cleaned corpus.

Ordering matters and is part of the spec: dedup stages see only the
documents that survived the cheap scalar gates, the way a production
cleaning pipeline avoids paying shingle/signature cost on garbage.

Distributed shape (nothing O(corpus) ever lands on the driver):
stage 1+2 are one vectorized text pass per batch; exact dedup is one
``groupby(content_hash)``; near-dup reuses the signatures-only LSH shuffle +
candidate re-join (`dedup_ops.minhash_pairs_ds`) and the distributed
label-propagation components (`dedup_ops.pairs_to_clusters`); the final
keeper/near-dup split is a bucketed hash join of survivors against the
cluster table (cluster nodes are pair-graph-sized, but at a 30-50 %
duplicate rate that is still corpus-scale — hence a join, not a broadcast).

Golden oracle: ``golden_corpus_clean`` recomputes the whole cascade as a
sequential single-process program (dict buckets, union-find — no Ray, no
groupby) and the driver hash-diffs the dump (see golden.py).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .golden import golden_sql
from .registry import register
from .tabular import read

LANG_FUNCTION_WORDS = ("the", "a")  # doc_lang_id's decision surface
MIN_LANG_HITS = 2
STOPS = ("a", "the", "big", "small")  # doc_quality's stopword set
MIN_TOKENS = 20
MIN_STOP_RATIO = 0.05

VERDICTS = ("lang", "quality", "exact_dup", "near_dup", "kept")
VERDICT_SCHEMA = {"doc_id": pa.int64(), "verdict": pa.string()}


def _stage12(b: pa.Table) -> pa.Table:
    """Language + quality gates in ONE vectorized tokenize pass (shared
    Arrow kernel `tabular.token_set_counts` — no Python per row); survivors
    keep their text (for downstream hashing/shingling) and get verdict ''."""
    from .tabular import token_set_counts

    n_tok, (lang_hits, stop_n) = token_set_counts(
        b["text"], (LANG_FUNCTION_WORDS, STOPS)
    )
    lang_ok = lang_hits >= MIN_LANG_HITS
    qual_ok = (n_tok >= MIN_TOKENS) & ((stop_n / n_tok) >= MIN_STOP_RATIO)
    verdict = np.where(~lang_ok, "lang", np.where(~qual_ok, "quality", ""))
    return pa.Table.from_pydict(
        {
            "doc_id": b["doc_id"],
            "text": b["text"],
            "verdict": pa.array(verdict, pa.string()),
        }
    )


def _verdict_table(doc_ids: pa.ChunkedArray | pa.Array, verdict: str) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "doc_id": pc.cast(doc_ids, pa.int64()),
            "verdict": pa.array([verdict] * len(doc_ids), pa.string()),
        }
    )


def _exact_bucket(g: pd.DataFrame) -> pa.Table:
    """One COARSE hash bucket (many content hashes co-located): min doc_id
    per hash keeps its text, the rest become exact_dup rows. Vectorized
    `transform('min')` inside the bucket — replaces a per-content-hash
    map_groups whose mostly-singleton pandas groups paid the tiny-group
    tax (same rewrite as dedup_simhash, 77c744a)."""
    mins = g.groupby("content_hash")["doc_id"].transform("min")
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(g["doc_id"].astype("int64").to_numpy(), pa.int64()),
            "text": pa.array(g["text"].astype(str).to_numpy(), pa.string()),
            "is_first": pa.array(
                g["doc_id"].to_numpy() == mins.to_numpy(), pa.bool_()
            ),
        }
    )


@register("corpus_clean", sql=golden_sql("corpus_clean"))
def corpus_clean(sf_dir: str):
    from .dedup_ops import minhash_pairs_ds, pairs_to_clusters
    from .tabular import bucket_join, n_buckets

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    tagged = ds.map_batches(_stage12, batch_format="pyarrow").materialize()

    fails = tagged.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b["verdict"], ""))).select(
            ["doc_id", "verdict"]
        ),
        batch_format="pyarrow",
    )

    HB = n_buckets(size_bytes=tagged.size_bytes())

    def hash_survivors(b: pa.Table) -> pa.Table:
        s = b.filter(pc.equal(b["verdict"], ""))
        hx = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in s["text"].to_pylist()
        ]
        # coarse bucket key: many content hashes per group, so the exact
        # dedup pays O(buckets) pandas-group overhead instead of O(hashes)
        hb = [int(h[:8], 16) & (HB - 1) for h in hx]
        return pa.Table.from_pydict(
            {
                "doc_id": s["doc_id"],
                "text": s["text"],
                "content_hash": pa.array(hx, pa.string()),
                "hash_bucket": pa.array(hb, pa.int64()),
            }
        )

    exact = (
        tagged.map_batches(hash_survivors, batch_format="pyarrow")
        .groupby("hash_bucket")
        .map_groups(_exact_bucket, batch_format="pandas")
        .materialize()
    )
    exact_losers = exact.map_batches(
        lambda b: _verdict_table(
            b.filter(pc.invert(b["is_first"]))["doc_id"], "exact_dup"
        ),
        batch_format="pyarrow",
    )
    winners = exact.map_batches(
        lambda b: b.filter(b["is_first"]).select(["doc_id", "text"]),
        batch_format="pyarrow",
    ).materialize()

    # near-dup over the survivors only (the spec'd ordering): verified LSH
    # pairs → components → non-keepers; then a bucketed join splits the
    # winners into kept vs near_dup
    surv_bytes = winners.size_bytes()  # materialized → metadata-only
    clusters = pairs_to_clusters(minhash_pairs_ds(winners, size_bytes=surv_bytes))
    B = n_buckets(size_bytes=surv_bytes)

    def split(w: pd.DataFrame, marks: pd.DataFrame) -> pd.DataFrame:
        near = marks.loc[~marks["is_keeper"], "doc_id"]
        return w.assign(verdict=np.where(w["doc_id"].isin(near), "near_dup", "kept"))

    joined = bucket_join(
        (winners, {"doc_id": pa.int64()}),
        (clusters, {"doc_id": pa.int64(), "is_keeper": pa.bool_()}),
        "doc_id",
        B,
        split,
        VERDICT_SCHEMA,
    )

    # NO global sort: it was comparison-only (VERDICT r2) — the driver's
    # hash gate and the pytest golden both sort rows themselves, and at
    # 100 TB a cosmetic all-to-all sort of the verdict table is pure waste
    return fails.union(exact_losers).union(joined)


# ---------------------------------------------------------------------------
# sequential golden (independent recompute; see golden.py for the contract)
# ---------------------------------------------------------------------------


def golden_corpus_clean(sf_dir: str) -> pa.Table:
    """The cascade as a plain single-process program: python dicts for the
    exact groups, dict-bucketed brute force for LSH candidates, union-find
    for components — no Ray, no groupby, no shared plan code."""
    import pyarrow.parquet as pq

    from .dedup_ops import (
        JACCARD_T,
        N_BANDS,
        ROWS_PER_BAND,
        _minhash,
        _perm_params,
        _shingles,
    )

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rows = sorted(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    verdict: dict[int, str] = {}

    # stages 1+2
    survivors: list[tuple[int, str]] = []
    for doc_id, text in rows:
        ws = text.split(" ")
        if sum(1 for w in ws if w in LANG_FUNCTION_WORDS) < MIN_LANG_HITS:
            verdict[doc_id] = "lang"
            continue
        stop_n = sum(1 for w in ws if w in STOPS)
        if len(ws) < MIN_TOKENS or stop_n / len(ws) < MIN_STOP_RATIO:
            verdict[doc_id] = "quality"
            continue
        survivors.append((doc_id, text))

    # stage 3: exact (min doc_id per md5 — rows are doc_id-sorted)
    first_by_hash: dict[str, int] = {}
    winners: list[tuple[int, str]] = []
    for doc_id, text in survivors:
        hx = hashlib.md5(text.encode("utf-8")).hexdigest()
        if hx in first_by_hash:
            verdict[doc_id] = "exact_dup"
        else:
            first_by_hash[hx] = doc_id
            winners.append((doc_id, text))

    # stage 4: minhash LSH pairs among winners, then union-find
    a, b = _perm_params()
    sh = {d: _shingles(t) for d, t in winners}
    buckets: dict[str, list[int]] = {}
    for d, _t in winners:
        mh = _minhash(sh[d], a, b)
        for band in range(N_BANDS):
            chunk = mh[band * ROWS_PER_BAND : (band + 1) * ROWS_PER_BAND]
            bh = f"{band}:" + hashlib.blake2b(chunk.tobytes(), digest_size=8).hexdigest()
            buckets.setdefault(bh, []).append(d)
    cands: set[tuple[int, int]] = set()
    for ids in buckets.values():
        ids = sorted(set(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                cands.add((ids[i], ids[j]))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in sorted(cands):
        u = len(sh[x] & sh[y])
        if not u:
            continue
        if len(sh[x] | sh[y]) and u / len(sh[x] | sh[y]) >= JACCARD_T:
            parent.setdefault(x, x)
            parent.setdefault(y, y)
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    for d, _t in winners:
        if d in parent and find(d) != d:
            verdict[d] = "near_dup"
        else:
            verdict[d] = "kept"

    ids = sorted(verdict)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "verdict": pa.array([verdict[i] for i in ids], pa.string()),
        }
    )
