"""Deduplication operators over `documents` / `embeddings` — exact,
MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup
(training-data pipeline extensions; the exact/near family generalizes the
reference's D1-D6 dedup semantics, SURVEY §2.7).

Scale shapes:
* exact     — content-hash + hash-partitioned first-writer-wins groupby;
* MinHash   — shingle→minhash per batch (vectorized), explode to
              (band, band_hash) rows, ONE groupby builds candidate buckets,
              pairs verified with exact Jaccard inside the group;
* SimHash   — 64-bit signature per batch, 4×16-bit band blocking groupby,
              Hamming-verified pairs;
* embedding — blocked matmul of each batch against the broadcast matrix
              (brute-force exact; the ANN module holds the LSH scale path).

All signatures/hashes are blake2b-derived — deterministic across processes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .registry import register
from .tabular import read, token_windows

DOC_ID = {"doc_id": pa.int64()}
PAIR = {"doc_a": pa.int64(), "doc_b": pa.int64()}

# ---------------------------------------------------------------------------
# exact dedup (D1: first-writer-wins on content identity)
# ---------------------------------------------------------------------------


@register(
    "dedup_exact_first",
    sql="""
    SELECT md5(text) AS content_hash, MIN(doc_id) AS first_doc_id,
           COUNT(*) AS n_copies
    FROM documents GROUP BY md5(text)
    """,
)
def dedup_exact_first(sf_dir: str):
    """Exact dedup: hash the content per batch, hash-partitioned groupby,
    min-doc_id wins (the deterministic analogue of the reference's
    first-seen-URL-wins, SURVEY D1/J1)."""
    from ray.data.aggregate import Count, Min

    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def h(b: pa.Table) -> pa.Table:
        hx = [hashlib.md5(t.encode()).hexdigest() for t in b["text"].to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "content_hash": pa.array(hx, pa.string())}
        )

    return (
        ds.map_batches(h, batch_format="pyarrow")
        .groupby("content_hash")
        .aggregate(Min("doc_id", alias_name="first_doc_id"), Count(alias_name="n_copies"))
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup (shingle → minhash → band → bucket groupby)
# ---------------------------------------------------------------------------

N_PERM = 64
N_BANDS = 16  # 16 bands × 4 rows
ROWS_PER_BAND = N_PERM // N_BANDS
JACCARD_T = 0.5
_MERSENNE = (1 << 31) - 1  # 31-bit universe keeps a*x+b inside int64


def _perm_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=N_PERM, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=N_PERM, dtype=np.int64)
    return a, b


def _shingles(text: str, k: int = 3) -> set[int]:
    toks = text.split(" ")
    if len(toks) < k:
        grams = [" ".join(toks)]
    else:
        grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    return {
        int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(), "little") >> 33
        for g in grams
    }


def _minhash(sh: set[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.fromiter(sh, dtype=np.int64, count=len(sh))
    # (a*x + b) mod p, row-wise min over shingles; 31-bit values → no overflow
    vals = (a[:, None] * x[None, :] + b[:, None]) % _MERSENNE
    return np.min(vals, axis=1).astype(np.int64)


def _shingle_rows(texts) -> tuple[np.ndarray, np.ndarray]:
    """`_shingles` of every row of a string column at once: the row and
    blake2b>>33 hash of each 3-token window of the token-window kernel
    (duplicates kept), hashed from the column's own bytes."""
    w = token_windows(texts, 3)
    digests = b"".join(hashlib.blake2b(s, digest_size=8).digest() for s in w.slices())
    return w.row, (np.frombuffer(digests, "<u8") >> np.uint64(33)).astype(np.int64)


def _shingle_lists(texts) -> pa.ListArray:
    """Each row's ``sorted(_shingles(text))``, as one list<int32> column."""
    row, sh = _shingle_rows(texts)
    key = np.unique(row << 31 | sh)  # shingles are 31-bit: sorted by (row, shingle)
    off = np.zeros(len(texts) + 1, np.int32)
    np.cumsum(np.bincount(key >> 31, minlength=len(texts)), out=off[1:])
    return pa.ListArray.from_arrays(pa.array(off), pa.array(key & _MERSENNE, pa.int32()))


def _jaccard_verify(pairs: pd.DataFrame, shs: dict, thresh: float) -> pd.DataFrame:
    """THE exact Jaccard verify of both candidate-and-verify plans: each
    (doc_a, doc_b) row of ``pairs`` whose shingle sets in ``shs`` have
    |a∩b| / |a∪b| ≥ ``thresh``, in ``pairs``' order, with its Jaccard
    rounded to 4 places."""
    rows_a, rows_b, rows_j = [], [], []
    for da, db in zip(pairs["doc_a"].tolist(), pairs["doc_b"].tolist()):
        sa, sb = shs[da], shs[db]
        union = len(sa | sb)
        jac = len(sa & sb) / union if union else 0.0
        if jac >= thresh:
            rows_a.append(da)
            rows_b.append(db)
            rows_j.append(float(np.round(jac, 4)))
    return pd.DataFrame({"doc_a": rows_a, "doc_b": rows_b, "jaccard": rows_j})


from .golden import golden_sql


def minhash_pairs_ds(ds, size_bytes: int | None = None):
    """MinHash+LSH near-dup pairs over ANY (doc_id, text) Dataset, fully
    shuffled-not-broadcast (no O(corpus) object is ever ray.put):

    1. per batch, the 3-token windows of `tabular.token_windows` hashed
       from the column's bytes, one min per row and permutation, then
       (band_hash, doc) rows — signatures only, text never rides this
       shuffle;
    2. ONE groupby co-locates candidate buckets → raw candidate PAIRS;
    3. the pair members RE-JOIN the input by doc_id (bucketed hash join)
       to pick up their texts;
    4. pairs co-locate by pair key; exact Jaccard verifies each pair
       (shingles computed once per distinct doc inside the bucket, by the
       same window kernel).

    Returns verified pairs (doc_a < doc_b, jaccard ≥ 0.5). Shared by
    `dedup_minhash_lsh` (whole corpus) and `cleanse.corpus_clean` (the
    post-filter survivor set)."""
    from .tabular import bucket_groups, bucket_join, n_buckets

    a, b = _perm_params()
    # B sizes the text re-join and the coarse band partitions (each holds
    # many LSH buckets)
    B = n_buckets(size_bytes=size_bytes)

    def bands(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        row, sh = _shingle_rows(batch["text"])
        first = np.searchsorted(row, np.arange(n))  # every row has a window
        mh = np.empty((n, N_PERM), np.int64)
        for i in range(N_PERM):  # `_minhash`: min over the row's shingles
            mh[:, i] = np.minimum.reduceat((a[i] * sh + b[i]) % _MERSENNE, first)
        bh = [
            f"{i % N_BANDS}:" + hashlib.blake2b(c.tobytes(), digest_size=8).hexdigest()
            for i, c in enumerate(mh.reshape(-1, ROWS_PER_BAND))
        ]
        return pa.table(
            {
                "band_hash": pa.array(bh, pa.string()),
                "doc_id": batch["doc_id"].take(np.repeat(np.arange(n), N_BANDS)),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """One coarse partition = many LSH buckets: sub-group in pandas and
        emit each bucket's candidate pairs — map_groups over millions of
        1-row buckets is the Ray anti-pattern this avoids. Pairs only; the
        text joins back downstream. Almost every bucket holds ONE doc, so
        the vectorized size prefilter drops them before the Python pair
        loop ever runs — iterating the singleton groups in pandas was
        ~125 ms per partition (7.9 s of remote wall at sf0.1), the loop
        over actual collision buckets is microseconds."""
        d = g.drop_duplicates(["band_hash", "doc_id"])
        cnt = d.groupby("band_hash", sort=False)["doc_id"].transform("size")
        d = d[cnt >= 2]
        out_a, out_b = [], []
        for _, sub in d.groupby("band_hash", sort=True):
            ids = np.sort(sub["doc_id"].to_numpy())
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out_a.append(int(ids[i]))
                    out_b.append(int(ids[j]))
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b})

    cand_pairs = bucket_groups(
        ds.map_batches(bands, batch_format="pyarrow"), "band_hash", B, bucket_pairs, PAIR
    )

    # -- re-join members with their texts (bucketed hash join by doc_id) ----
    def members(b: pa.Table) -> pa.Table:
        doc_a, doc_b = b["doc_a"].combine_chunks(), b["doc_b"].combine_chunks()
        return pa.table(
            {
                "doc_id": pa.concat_arrays([doc_a, doc_b]),
                "doc_a": pa.concat_arrays([doc_a, doc_a]),
                "doc_b": pa.concat_arrays([doc_b, doc_b]),
            }
        )

    def attach_text(mem: pd.DataFrame, corpus: pd.DataFrame) -> pd.DataFrame:
        return mem.drop_duplicates().merge(corpus, on="doc_id", how="left")

    joined = bucket_join(
        (cand_pairs.map_batches(members, batch_format="pyarrow"), {**DOC_ID, **PAIR}),
        (ds, {**DOC_ID, "text": pa.string()}),
        "doc_id",
        B,
        attach_text,
        {**PAIR, **DOC_ID, "text": pa.string()},
    )

    # -- co-locate by pair, verify with exact Jaccard -----------------------
    def verify_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # shingles once per distinct member doc of this bucket
        d = g.drop_duplicates("doc_id").dropna(subset=["text"])
        shs = _shingle_lists(pa.array(d["text"], pa.string())).to_pylist()
        shs = dict(zip(d["doc_id"].tolist(), map(set, shs)))
        pairs = g[["doc_a", "doc_b"]].drop_duplicates().sort_values(["doc_a", "doc_b"])
        return _jaccard_verify(pairs, shs, JACCARD_T)

    return bucket_groups(
        joined, ["doc_a", "doc_b"], B, verify_pairs, {**PAIR, "jaccard": pa.float64()}
    )


@register("dedup_minhash_lsh", sql=golden_sql("dedup_minhash_lsh"))
def dedup_minhash_lsh(sf_dir: str):
    """Verified MinHash/LSH near-dup pairs over the whole documents table;
    hash-diffed against a sequential brute-force golden oracle (golden.py).
    See `minhash_pairs_ds` for the distributed plan."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])
    return minhash_pairs_ds(ds, size_bytes=ds.size_bytes())


# ---------------------------------------------------------------------------
# SimHash near-dup (64-bit signatures, banded Hamming blocking)
# ---------------------------------------------------------------------------

HAMMING_T = 4

_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _hamming_pairs(sg: np.ndarray, thresh: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All (i<j) index pairs with popcount(sg[i]^sg[j]) ≤ thresh, fully
    vectorized (outer XOR + byte-LUT popcount) — in-bucket verification must
    not be a Python pair loop on skewed buckets."""
    n = len(sg)
    x = np.bitwise_xor.outer(sg, sg)  # (n, n) uint64
    ham = _POPCNT8[x.view(np.uint8).reshape(n, n, 8)].sum(axis=2).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    mask = ham[iu, ju] <= thresh
    return iu[mask], ju[mask], ham[iu, ju][mask]


def _simhash64(text: str) -> int:
    """Count-weighted 64-bit SimHash (Charikar): token features weighted by
    frequency — unweighted signatures collapse on homogeneous vocabularies."""
    from collections import Counter

    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for tok, cnt in Counter(text.split(" ")).items():
        h = np.uint64(
            int.from_bytes(hashlib.blake2b(tok.encode(), digest_size=8).digest(), "little")
        )
        bits = ((h >> shifts) & np.uint64(1)).astype(np.int64)
        acc += cnt * (2 * bits - 1)
    sig = 0
    for i in range(64):
        if acc[i] > 0:
            sig |= 1 << i
    return sig


def _simhash_sigs(texts) -> np.ndarray:
    """`_simhash64` of every row of a string column, as uint64: each
    distinct token of the batch hashed once, the per-bit ±1 votes summed
    per row over the token-window kernel's tokens (a count-weighted sum)."""
    w = token_windows(texts)
    enc = w.strings().dictionary_encode()
    digests = b"".join(
        hashlib.blake2b(t.encode(), digest_size=8).digest() for t in enc.dictionary.to_pylist()
    )
    # bit i of the little-endian 64-bit hash, as a ±1 vote
    vote = np.unpackbits(
        np.frombuffer(digests, np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(np.int8) * 2 - 1
    first = np.searchsorted(w.row, np.arange(len(w.n)))  # every row has a token
    acc = np.add.reduceat(vote[enc.indices.to_numpy()], first, axis=0, dtype=np.int64)
    return np.packbits(acc > 0, axis=1, bitorder="little").view("<u8").ravel()


@register("dedup_simhash", sql=golden_sql("dedup_simhash"))
def dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs: 64-bit signature per doc, blocked by each of
    four 16-bit bands (a pair within Hamming ≤ 8 usually agrees on ≥1 band
    at this corpus's signature distribution), Hamming-verified in-group.
    Returns (doc_a < doc_b, hamming ≤ HAMMING_T); hash-diffed against a
    sequential golden oracle (golden.py)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    from .tabular import bucket_groups, n_buckets

    B = n_buckets(size_bytes=ds.size_bytes())

    def sigs(batch: pa.Table) -> pa.Table:
        sig, n = _simhash_sigs(batch["text"]), batch.num_rows
        return pa.table(
            {
                "band": pa.array(np.tile(np.arange(4), n)),
                # band i is the signature's i-th little-endian 16-bit word
                "band_val": pa.array(sig.view("<u2").astype(np.int64)),
                "doc_id": batch["doc_id"].take(np.repeat(np.arange(n), 4)),
                "sig": pa.array(np.repeat(sig, 4), pa.uint64()),  # top bit may be set
            }
        )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse partition = MANY (band, band_val) buckets (map_groups
        # over ~65k mostly-singleton 16-bit buckets paid ~1-15 ms of pandas
        # slice/convert per group, 18.9 s of remote wall at sf0.1): a
        # vectorized size prefilter drops singleton buckets, the hamming
        # check runs only on actual collisions (same shape as minhash
        # bucket_pairs)
        d = g.drop_duplicates(["band", "band_val", "doc_id"])
        cnt = d.groupby(["band", "band_val"], sort=False)["doc_id"].transform("size")
        d = d[cnt >= 2]
        out_a, out_b, out_h = [], [], []
        for _, sub in d.groupby(["band", "band_val"], sort=True):
            rows = sub.sort_values("doc_id")
            ids = rows["doc_id"].to_numpy()
            sg = rows["sig"].to_numpy().astype(np.uint64)
            ii, jj, ham = _hamming_pairs(sg, HAMMING_T)
            out_a.extend(ids[ii])
            out_b.extend(ids[jj])
            out_h.extend(ham)
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b, "hamming": out_h})

    pairs = bucket_groups(
        ds.map_batches(sigs, batch_format="pyarrow"),
        ["band", "band_val"],
        B,
        verify,
        {**PAIR, "hamming": pa.int64()},
    )
    from ray.data.aggregate import Min

    return pairs.groupby(["doc_a", "doc_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


# ---------------------------------------------------------------------------
# n-gram Jaccard similarity (exact, within same-source blocks)
# ---------------------------------------------------------------------------


NGRAM_T = 0.35


def _prefix_rows(source, doc_id, sh: pa.ListArray) -> pa.Table:
    """The prefix filter's rows: one ``(source, tok, doc_id, p, sh)`` row
    per token of each doc's prefix, its first ``p`` shingles in ``sh``'s
    order (`_shingle_lists` sorts by hash, one global order), where
    ``p = n − ⌈NGRAM_T·n⌉ + 1`` of its ``n``. Two docs with Jaccard ≥
    NGRAM_T share a prefix token. ``sh`` rides along for the verify."""
    off = sh.offsets.to_numpy()
    n = np.diff(off)
    # ⌈NGRAM_T·n⌉ in integers, exact by construction: a prefix one token
    # short misses a pair at exactly the threshold
    p = n - (35 * n + 99) // 100 + 1
    row = np.repeat(np.arange(len(n)), p)
    pos = off[:-1][row] + np.arange(len(row)) - (np.cumsum(p) - p)[row]
    idx = pa.array(row)
    return pa.table(
        {
            "source": source.take(idx),
            "tok": sh.values.take(pa.array(pos)),
            "doc_id": doc_id.take(idx),
            "p": pa.array(p[row], pa.int64()),
            "sh": sh.take(idx),
        }
    )


def _prefix_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """The verified pairs of one bucket of `_prefix_rows`: every doc_a <
    doc_b pair sharing a ``(source, tok)`` group (a null source is one
    block), kept only in the group of its SMALLEST shared prefix token, so
    each pair is verified once over all buckets, then `_jaccard_verify`."""
    key = g.groupby(["source", "tok"], dropna=False, sort=False).ngroup()
    g = g.assign(key=key)[key.map(key.value_counts()) >= 2]
    m = g[["key", "tok", "doc_id"]].merge(g[["key", "doc_id"]], on="key", suffixes=("_a", "_b"))
    m = m[m["doc_id_a"] < m["doc_id_b"]]
    docs = g.drop_duplicates("doc_id")
    sh = dict(zip(docs["doc_id"].tolist(), (x.tolist() for x in docs["sh"])))
    pre = {d: set(sh[d][:p]) for d, p in zip(docs["doc_id"].tolist(), docs["p"].tolist())}
    own = [
        min(pre[a] & pre[b]) == t
        for t, a, b in zip(m["tok"].tolist(), m["doc_id_a"].tolist(), m["doc_id_b"].tolist())
    ]
    pairs = m.loc[own, ["doc_id_a", "doc_id_b"]].set_axis(["doc_a", "doc_b"], axis=1)
    return _jaccard_verify(pairs, {d: set(x) for d, x in sh.items()}, NGRAM_T)


@register("ngram_jaccard_by_source", sql=golden_sql("ngram_jaccard_by_source"))
def ngram_jaccard_by_source(sf_dir: str):
    """Exact 3-gram Jaccard pairs within each `source` block (blocking key
    stands in for the reference's per-site scoping of fuzzy dedup, SURVEY
    D3), semantics: every same-source pair with Jaccard ≥ NGRAM_T.

    Scale shape: prefix filtering ("Distributed Streaming Set Similarity
    Join", ICDE 2020): each doc emits one row per prefix token
    (`_prefix_rows`), ONE bucketed exchange by token co-locates the docs
    sharing a (source, token), and each bucket verifies its candidates
    exactly (`_prefix_pairs`). Golden-oracle value-checked; sf0.01 holds
    exactly one pair."""
    from .tabular import bucket_groups, n_buckets

    ds = read(sf_dir, "documents", ["doc_id", "text", "source"])

    def prefixes(b: pa.Table) -> pa.Table:
        return _prefix_rows(b["source"], b["doc_id"], _shingle_lists(b["text"]))

    return bucket_groups(
        ds.map_batches(prefixes, batch_format="pyarrow"),
        "tok",
        n_buckets(size_bytes=ds.size_bytes()),
        _prefix_pairs,
        {**PAIR, "jaccard": pa.float64()},
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (brute-force exact; ANN module has the LSH path)
# ---------------------------------------------------------------------------

COS_T = 0.45  # calibrated to this corpus (max off-diag cos ≈ 0.51)


def emb_grid_buckets(n_vectors: int) -> int:
    """Pair-block grid for embedding all-pairs: the smallest power of two
    B ≥ 8 with no cell side over 8192 vectors (cell work is a (n/B)²
    matmul, replication ×B). Shared by the pipeline and the sequential
    golden — both derive B from the same row count, keeping BLAS shapes
    identical."""
    b = 8
    while n_vectors / b > 8192:
        b <<= 1
    return b


def _emb_pair_block(ids: np.ndarray, mat: np.ndarray, ga: int, gb: int, B: int):
    """Exact cosine pairs ≥ COS_T between bucket ga and bucket gb of an
    id-bucketed corpus slice (ids sorted ascending, rows L2-normalized).
    One (ga, gb) grid cell owns each pair exactly once: within-bucket cells
    emit upper-triangle pairs; cross cells emit every (a-side, b-side) hit
    ordered (min, max). Shared by the distributed path and the sequential
    golden so the BLAS shapes — hence the float64 bits — are identical."""
    bucket = ids & (B - 1)
    if ga == gb:
        sel = np.nonzero(bucket == ga)[0]
        sids, sm = ids[sel], mat[sel]
        cos = sm @ sm.T
        iu, ju = np.triu_indices(len(sids), k=1)
        mask = cos[iu, ju] >= COS_T
        return sids[iu[mask]], sids[ju[mask]], cos[iu, ju][mask]
    sa = np.nonzero(bucket == ga)[0]
    sb = np.nonzero(bucket == gb)[0]
    aids, bids = ids[sa], ids[sb]
    cos = mat[sa] @ mat[sb].T
    ii, jj = np.nonzero(cos >= COS_T)
    x, y = aids[ii], bids[jj]
    return np.minimum(x, y), np.maximum(x, y), cos[ii, jj]


@register("dedup_embedding_cosine", sql=golden_sql("dedup_embedding_cosine"))
def dedup_embedding_cosine(sf_dir: str):
    """Embedding near-dup pairs, exact, with NO O(corpus) broadcast and no
    driver-side read: bucketed block all-pairs. Each vector hashes to one of
    B id-buckets and is replicated to the B grid cells (min(i,j), max(i,j))
    its bucket participates in; ONE groupby co-locates each cell, which
    matmuls its two (sorted, normalized) sides and keeps cos ≥ COS_T. Every
    pair lands in exactly one cell, so no post-distinct is needed. Total
    compute stays the exact n²/2; replication is ×B and per-cell work is
    (n/B)², with B derived from the corpus row count (`emb_grid_buckets` —
    the all-pairs exchange analogue of the bucketed hash join).
    Value-checked against a sequential golden that walks the same grid with
    the same BLAS shapes (golden.py); the sub-quadratic approximate path
    for high-similarity regimes is the LSH module in ann.py."""
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    B = emb_grid_buckets(ds.count())

    def explode(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket = ids & (B - 1)
        n = len(ids)
        # one emission per (vector, other-bucket): cell = sorted pair
        other = np.tile(np.arange(B, dtype=np.int64), n)
        own = np.repeat(bucket, B)
        idx = np.repeat(np.arange(n), B)
        ga, gb = np.minimum(own, other), np.maximum(own, other)
        emb = b["embedding"].combine_chunks().take(pa.array(idx, pa.int64()))
        return pa.Table.from_pydict(
            {
                "cell": pa.array(ga * B + gb, pa.int64()),
                "vec_id": pa.array(ids[idx], pa.int64()),
                "embedding": emb,
            }
        )

    def verify_cell(g: pd.DataFrame) -> pd.DataFrame:
        cell = int(g["cell"].iloc[0])
        ga, gb = cell // B, cell % B
        g = g.drop_duplicates("vec_id").sort_values("vec_id")
        ids = g["vec_id"].to_numpy().astype(np.int64)
        mat = np.asarray(list(g["embedding"]), dtype=np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        a, b_, c = _emb_pair_block(ids, mat, ga, gb, B)
        return pd.DataFrame(
            {
                "vec_a": pd.Series(a, dtype="int64"),
                "vec_b": pd.Series(b_, dtype="int64"),
                "cos_sim": pd.Series(np.round(c, 4), dtype="float64"),
            }
        )

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("cell")
        .map_groups(verify_cell, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# near-dup clusters: pairs → connected components (what a training-data
# pipeline actually consumes: one keeper per duplicate group)
# ---------------------------------------------------------------------------


def pairs_to_clusters(pairs):
    """Connected components over a near-dup pair Dataset via iterative
    min-label propagation, with the label table kept DISTRIBUTED
    end-to-end (no per-round driver dict — a pair graph at 100 TB does not
    fit one node):

    * round 0 is fused into initialization: label(node) = min(node, min nbr)
      straight off ONE groupby(node);
    * each later round joins neighbour labels onto the edge list with a
      bucketed hash join (by nbr), takes the per-node minimum, and joins the
      result back against the current labels (by node) — three shuffles over
      edge-sized data, zero broadcasts;
    * labels only ever DECREASE, so convergence is detected by comparing
      the scalar sum(label) between rounds (the only value the driver sees);
      the loop runs UNTIL stable (diameter ≤ node count guarantees
      termination) and raises loudly if the node-count bound is ever
      exceeded — a silent round cap would hand back unconverged labels on
      long near-dup chains.

    Converges in O(component diameter) rounds — duplicate clusters are
    near-cliques. Returns (doc_id, cluster_id = component min, is_keeper);
    golden-checked against a sequential union-find (golden.py)."""
    from ray.data.aggregate import Min

    from .tabular import bucket_join, n_buckets

    pairs = pairs.materialize()
    if pairs.count() == 0:
        import ray.data

        return ray.data.from_pandas(
            pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "cluster_id": pd.Series([], dtype="int64"),
                 "is_keeper": pd.Series([], dtype="bool")}
            )
        )
    B = n_buckets(size_bytes=pairs.size_bytes() * 2)

    def to_edges(b: pa.Table) -> pa.Table:
        node = pa.concat_arrays([b["doc_a"].combine_chunks(), b["doc_b"].combine_chunks()])
        nbr = pa.concat_arrays([b["doc_b"].combine_chunks(), b["doc_a"].combine_chunks()])
        return pa.Table.from_pydict({"node": node, "nbr": nbr})

    # block-count hygiene: the pair graph is tiny relative to the corpus
    # (only near-dup members), but each propagation round unions + sorts
    # it — with one block per upstream task the rounds accumulate hundreds
    # of ~1-row blocks and the sorts pay ~40 ms of fixed cost PER BLOCK.
    # Size the block count to the edge data (~50k edges/block) so the loop
    # is O(P) blocks regardless of how fragmented the pair plan was.
    P = max(2, min(B, int(pairs.count() // 50_000) + 2))
    edges = (
        pairs.map_batches(to_edges, batch_format="pyarrow")
        .repartition(P)
        .materialize()
    )

    labels = (
        edges.groupby("node")
        .aggregate(Min("nbr", alias_name="m"))
        .map_batches(
            lambda b: pa.Table.from_pydict(
                {"node": b["node"], "label": pc.min_element_wise(b["node"], b["m"])}
            ),
            batch_format="pyarrow",
        )
        .repartition(P)
        .materialize()
    )
    prev_sum = labels.sum("label")

    def attach_label(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        # one nbr-hash bucket: edges pick up their neighbour's current
        # label, then fold to ONE partial min per node, so the next
        # exchange sees only O(nodes) partials, and no native per-key Min
        # aggregate exists in the round
        return e.merge(lab, on="nbr").groupby("node", as_index=False)["label"].min()

    def merge_min(part: pd.DataFrame, own: pd.DataFrame) -> pd.DataFrame:
        # both sides carry a candidate label per node (neighbour-min + own)
        return pd.concat([part, own]).groupby("node", as_index=False)["label"].min()

    node_label = {"node": pa.int64(), "label": pa.int64()}
    nbr_label = {"nbr": pa.int64(), "label": pa.int64()}

    # diameter ≤ node count bounds the rounds; hitting it means a bug, so
    # fail loudly rather than return silently-unconverged cluster labels
    max_rounds = int(labels.count()) + 2
    for rnd in range(max_rounds + 1):
        if rnd == max_rounds:
            raise RuntimeError(
                f"pairs_to_clusters: min-label propagation did not converge "
                f"within the node-count bound ({max_rounds} rounds)"
            )
        by_nbr = labels.map_batches(
            lambda b: pa.table({"nbr": b["node"], "label": b["label"]}), batch_format="pyarrow"
        )
        nbr_min = bucket_join(
            (edges, {"node": pa.int64(), "nbr": pa.int64()}),
            (by_nbr, nbr_label),
            "nbr",
            B,
            attach_label,
            node_label,
        )
        labels = (
            bucket_join(
                (nbr_min, node_label), (labels, node_label), "node", B, merge_min, node_label
            )
            .repartition(P)  # keep round block count flat (see above)
            .materialize()
        )
        s = labels.sum("label")
        if s == prev_sum:
            break
        prev_sum = s

    def final(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": b["node"],
                "cluster_id": b["label"],
                "is_keeper": pc.equal(b["node"], b["label"]),
            }
        )

    return labels.map_batches(final, batch_format="pyarrow")


@register("dedup_minhash_clusters", sql=golden_sql("dedup_minhash_clusters"))
def dedup_minhash_clusters(sf_dir: str):
    """Near-dup duplicate groups (one keeper per cluster) over the whole
    documents table; golden-checked against a sequential union-find
    (golden.py). See `pairs_to_clusters` for the distributed plan."""
    return pairs_to_clusters(dedup_minhash_lsh(sf_dir))


# ---------------------------------------------------------------------------
# exact-substring duplication (the ExactSubstr detection pass)
# ---------------------------------------------------------------------------

SUBSTR_W = 16  # duplicated-window width, tokens


@register(
    "exact_substring_dups",
    sql=f"""
    WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
    w AS (SELECT doc_id,
                 unnest(range(1, len(t) - {SUBSTR_W} + 2)) AS pos,
                 unnest(list_transform(range(1, len(t) - {SUBSTR_W} + 2),
                          i -> md5(array_to_string(t[i:i+{SUBSTR_W - 1}], ' '))))
                   AS g
          FROM toks WHERE len(t) >= {SUBSTR_W}),
    dg AS (SELECT g FROM w GROUP BY g HAVING COUNT(DISTINCT doc_id) >= 2)
    SELECT doc_id, COUNT(*) AS n_dup_windows
    FROM w JOIN dg USING (g)
    GROUP BY doc_id
    """,
)
def exact_substring_dups(sf_dir: str):
    """Exact-substring duplication detection — the detection half of the
    suffix-array dedup family (ExactSubstr, "Deduplicating Training Data
    Makes Language Models Better"): per document, how many of its stride-1
    SUBSTR_W(=16)-token windows also occur verbatim in ANOTHER document.
    Differs from `split_contamination` (distinct grams, one split's view)
    in counting every duplicated POSITION — the quantity a removal pass
    would cut — and from MinHash in being exact, not probabilistic.

    Distributed shape (split_contamination's two-exchange plan): each
    batch's windows come from `tabular.token_windows` (`textan.md5_grams`)
    and one Arrow group_by folds them to (gram-md5, doc_id, pos-count)
    rows; a COARSE data-aware
    gram partition co-locates each gram's occurrences (per-gram logic
    inside a partition is one vectorized transform — no per-gram groups);
    grams held by ≥2 DISTINCT docs emit per-doc window counts, and a tiny
    keyed sum totals them. A removal pass would be one more map joining
    the flagged (doc, pos) spans back against the text — detection is the
    all-to-all part. The md5 hex key mirrors the oracle byte-for-byte; at
    10^10 scale it becomes a 64-bit gram hash with the same plan.
    """
    from ray.data.aggregate import Sum

    from .tabular import bucket_groups
    from .textan import contamination_buckets, md5_grams

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    nb = contamination_buckets(ds.size_bytes())

    def explode(b: pa.Table) -> pa.Table:
        row, g, gk = md5_grams(b["text"], SUBSTR_W)
        grams = pa.table({"gk": gk, "g": g, "doc_id": b["doc_id"].take(row)})
        # per-doc map-side combine: count positions per DISTINCT (gram, doc)
        c = grams.group_by(["gk", "g", "doc_id"]).aggregate([([], "count_all")])
        return pa.table(
            {"gk": c["gk"], "g": c["g"], "doc_id": c["doc_id"], "npos": c["count_all"]}
        )

    def part_group(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse partition = many grams; rows are DISTINCT (gram, doc)
        # with per-doc position counts, so "≥2 docs hold this gram" is a
        # vectorized per-gram row count
        ndocs = g.groupby("g")["doc_id"].transform("size")
        hit = g[ndocs >= 2]
        return hit.groupby("doc_id", sort=False)["npos"].sum().reset_index(name="pn")

    return (
        bucket_groups(
            ds.map_batches(explode, batch_format="pyarrow"),
            "gk",
            nb,
            part_group,
            {**DOC_ID, "pn": pa.int64()},
        )
        .groupby("doc_id")
        .aggregate(Sum("pn", alias_name="n_dup_windows"))
    )


# ---------------------------------------------------------------------------
# keep-best near-dup resolution (the production dedup policy: keep the
# highest-quality member, not the lowest id)
# ---------------------------------------------------------------------------


@register("dedup_keep_best", sql=golden_sql("dedup_keep_best"))
def dedup_keep_best(sf_dir: str):
    """Near-dup clusters resolved by QUALITY instead of id: each MinHash
    cluster keeps its longest member (token count; ties → min doc_id) —
    the keep-best policy production cleaning runs use, where near-dup
    groups should surrender their truncated/boilerplate variants, not
    whatever happened to get the lowest id. One row per cluster member:
    (doc_id, cluster_id, best_doc_id, kept).

    Distributed shape on top of the existing pieces:
      pairs (signatures-only LSH) → components (distributed label
      propagation) → token counts attached by a BUCKETED hash join
      (cluster membership is pair-graph-sized but corpus-scale at real
      duplicate rates — never a broadcast) → per-cluster argmax inside
      COARSE cluster_id buckets (vectorized transform, no per-tiny-cluster
      pandas group task — the dedup_simhash 77c744a lesson).

    Golden: sequential union-find + the same longest/min-id rule
    (golden.py), hash-diffed by the driver gate."""
    from .tabular import bucket_groups, bucket_join, n_buckets

    # dedup_minhash_lsh sizes the band exchange and text re-join off the
    # corpus size_bytes hint (a hint-less minhash_pairs_ds would size by
    # CPUs alone — corpus_size / (2 x CPUs) of text in one group)
    clusters = pairs_to_clusters(dedup_minhash_lsh(sf_dir))
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    B = n_buckets(size_bytes=docs.size_bytes())

    def counts(b: pa.Table) -> pa.Table:
        n = pc.add(pc.count_substring(b["text"], pattern=" "), 1)
        return pa.table({"doc_id": b["doc_id"], "n_tokens": n})

    def attach_counts(mem: pd.DataFrame, cnt: pd.DataFrame) -> pd.DataFrame:
        return mem.merge(cnt, on="doc_id", how="left")

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        # longest wins, ties → min doc_id: sort once, first row per cluster
        d = g.sort_values(
            ["cluster_id", "n_tokens", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        best = d.groupby("cluster_id", sort=False)["doc_id"].transform("first")
        return d.assign(best_doc_id=best, kept=d["doc_id"] == best)

    cluster = {"cluster_id": pa.int64()}
    joined = bucket_join(
        (clusters, {**DOC_ID, **cluster}),
        (docs.map_batches(counts, batch_format="pyarrow"), {**DOC_ID, "n_tokens": pa.int64()}),
        "doc_id",
        B,
        attach_counts,
        {**DOC_ID, **cluster, "n_tokens": pa.int64()},
    )
    return bucket_groups(
        joined,
        "cluster_id",
        B,
        resolve,
        {**DOC_ID, **cluster, "best_doc_id": pa.int64(), "kept": pa.bool_()},
    )
