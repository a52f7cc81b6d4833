"""Golden oracles for the non-SQL-expressible queries.

DuckDB cannot recompute blake2b MinHash signatures, hyperplane LSH buckets
or the crawl itself, so for each such query this module computes the
expected result with an INDEPENDENT sequential single-process program
(brute force / union-find / the reference-semantics oracle crawler — not
the distributed Ray code path) and dumps it to parquet under
``/tmp/newsray_golden``. The registered ``oracle_sql`` for those queries is
then a ``read_parquet`` over the dump, which the driver's DuckDB gate diffs
hash-exactly against the Ray pipeline output.

The dumps are computed once per machine at import (``ensure_goldens`` is
called from ``registry.load_all``) for the driver's correctness scale
(sf0.01 — the only scale the side-by-side gate runs at) and are guarded by
a version marker so stale dumps recompute after logic changes.

Independence notes, per golden:
* crawl family      — the sequential oracle crawler (`oracle.run_oracle`),
  a separate implementation of the reference semantics (SURVEY §5.1);
* minhash/simhash/ngram/knn-lsh — same public hash constructions
  (necessarily: the signatures ARE the semantics) but sequential
  dict-bucketed brute force, no Ray, no groupby;
* clusters          — union-find over the golden pair list (vs the
  pipeline's iterative min-label propagation);
* media/video       — sequential loop over the same deterministic payload
  constructors (the stub-decode contract is the semantics being pinned).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GOLDEN_VERSION = 11  # v10: + chunk_embed_index; v11: + dedup_keep_best
GOLDEN_ROOT = "/tmp/newsray_golden"
SF_FIXED = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")

CRAWL_SITES = ("nate", "naver", "google", "skydaily")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_ROOT, f"{name}.parquet")


def golden_sql(name: str) -> str:
    return f"SELECT * FROM read_parquet('{golden_path(name)}')"


def _round4(x: float) -> float:
    return float(np.round(x, 4))


def _docs(sf_dir: str) -> list[tuple[int, str]]:
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------


def _minhash_pairs(sf_dir: str) -> list[tuple[int, int, float]]:
    from .dedup_ops import (
        JACCARD_T,
        N_BANDS,
        ROWS_PER_BAND,
        _minhash,
        _perm_params,
        _shingles,
    )

    a, b = _perm_params()
    docs = _docs(sf_dir)
    sh = {d: _shingles(t) for d, t in docs}
    buckets: dict[str, list[int]] = {}
    for d, _t in docs:
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
    out = []
    for x, y in sorted(cands):
        inter = len(sh[x] & sh[y])
        union = len(sh[x] | sh[y])
        jac = inter / union if union else 0.0
        if jac >= JACCARD_T:
            out.append((x, y, _round4(jac)))
    return out


def golden_dedup_minhash_lsh(sf_dir: str) -> pa.Table:
    pairs = _minhash_pairs(sf_dir)
    return pa.table(
        {
            "doc_a": pa.array([p[0] for p in pairs], pa.int64()),
            "doc_b": pa.array([p[1] for p in pairs], pa.int64()),
            "jaccard": pa.array([p[2] for p in pairs], pa.float64()),
        }
    )


def golden_dedup_minhash_clusters(sf_dir: str) -> pa.Table:
    pairs = _minhash_pairs(sf_dir)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    cluster = {n: find(n) for n in nodes}
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array([cluster[n] for n in nodes], pa.int64()),
            "is_keeper": pa.array([n == cluster[n] for n in nodes], pa.bool_()),
        }
    )


def golden_dedup_keep_best(sf_dir: str) -> pa.Table:
    """Sequential keep-best resolution: union-find clusters over the golden
    pair list, then longest member (ties -> min doc_id) per cluster."""
    pairs = _minhash_pairs(sf_dir)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    cluster = {n: find(n) for n in nodes}
    ntok = {d: len(t.split(" ")) for d, t in _docs(sf_dir)}
    best: dict[int, int] = {}
    for n in nodes:  # nodes ascending -> ties resolve to min doc_id
        c = cluster[n]
        if c not in best or ntok[n] > ntok[best[c]]:
            best[c] = n
    return pa.table(
        {
            "doc_id": pa.array(nodes, pa.int64()),
            "cluster_id": pa.array([cluster[n] for n in nodes], pa.int64()),
            "best_doc_id": pa.array([best[cluster[n]] for n in nodes], pa.int64()),
            "kept": pa.array([n == best[cluster[n]] for n in nodes], pa.bool_()),
        }
    )


def golden_dedup_simhash(sf_dir: str) -> pa.Table:
    from .dedup_ops import HAMMING_T, _simhash64

    docs = _docs(sf_dir)
    sig = {d: _simhash64(t) for d, t in docs}
    buckets: dict[tuple[int, int], list[int]] = {}
    for d, _t in docs:
        for band in range(4):
            buckets.setdefault((band, (sig[d] >> (16 * band)) & 0xFFFF, ), []).append(d)
    cands: set[tuple[int, int]] = set()
    for ids in buckets.values():
        ids = sorted(set(ids))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                cands.add((ids[i], ids[j]))
    rows = []
    for x, y in sorted(cands):
        ham = bin(sig[x] ^ sig[y]).count("1")
        if ham <= HAMMING_T:
            rows.append((x, y, ham))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "hamming": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def golden_ngram_jaccard_by_source(sf_dir: str) -> pa.Table:
    from .dedup_ops import _shingles

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    by_source: dict[str, list[tuple[int, str]]] = {}
    for d, txt, src in zip(
        t["doc_id"].to_pylist(), t["text"].to_pylist(), t["source"].to_pylist()
    ):
        by_source.setdefault(src, []).append((d, txt))
    rows = []
    for src in sorted(by_source):
        docs = sorted(by_source[src])
        sh = {d: _shingles(txt) for d, txt in docs}
        ids = [d for d, _ in docs]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                x, y = ids[i], ids[j]
                inter = len(sh[x] & sh[y])
                union = len(sh[x] | sh[y])
                jac = inter / union if union else 0.0
                if jac >= 0.35:
                    rows.append((x, y, _round4(jac)))
    return pa.table(
        {
            "doc_a": pa.array([r[0] for r in rows], pa.int64()),
            "doc_b": pa.array([r[1] for r in rows], pa.int64()),
            "jaccard": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


def golden_dedup_embedding_cosine(sf_dir: str) -> pa.Table:
    from .dedup_ops import _emb_pair_block, emb_grid_buckets

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    out_a, out_b, out_c = [], [], []
    # walk the same (ga, gb) pair-block grid the distributed path groups by
    # (same data-derived B, shared kernel → identical BLAS shapes → doubles)
    B = emb_grid_buckets(len(ids))
    for ga in range(B):
        for gb in range(ga, B):
            a, b, c = _emb_pair_block(ids, mat, ga, gb, B)
            out_a.extend(int(x) for x in a)
            out_b.extend(int(x) for x in b)
            out_c.extend(float(x) for x in np.round(c, 4))
    return pa.table(
        {
            "vec_a": pa.array(out_a, pa.int64()),
            "vec_b": pa.array(out_b, pa.int64()),
            "cos_sim": pa.array(out_c, pa.float64()),
        }
    )


def golden_knn_lsh_cosine(sf_dir: str) -> pa.Table:
    from .ann import N_PLANES, QUERY_VEC_ID, TOP_K, _load_query, _planes, _signature

    q = _load_query(sf_dir)
    planes = _planes(q.shape[0])
    qsig = int(_signature(q[None, :], planes)[0])
    probe = {qsig}
    for i in range(N_PLANES):
        probe.add(qsig ^ (1 << i))
        for j in range(i + 1, N_PLANES):
            probe.add(qsig ^ (1 << i) ^ (1 << j))
    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    rows = []
    for s in range(0, len(ids), 4096):  # mirror the pipeline's batch shape
        mm, mi = m[s : s + 4096], ids[s : s + 4096]
        sigs = _signature(mm, planes)
        cos = np.round(mm @ q, 6)
        for k in range(len(mi)):
            if int(sigs[k]) in probe and int(mi[k]) != QUERY_VEC_ID:
                rows.append((int(mi[k]), float(cos[k])))
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:TOP_K]
    return pa.table(
        {
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "cos_sim": pa.array([r[1] for r in rows], pa.float64()),
        }
    )


def golden_knn_ivf_cosine(sf_dir: str) -> pa.Table:
    from .ann import IVF_ROUND, N_CELLS_PROBE, QUERY_VEC_ID, TOP_K, _load_query

    q = _load_query(sf_dir)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    labels = np.asarray(t["label"].to_pylist(), dtype=np.int64)
    # sequential centroid build (vs the pipeline's partial-sum merge; the
    # IVF_ROUND rounding makes the cell geometry association-order stable)
    cents = np.stack(
        [np.round(m[labels == lab].mean(axis=0), IVF_ROUND) for lab in np.unique(labels)]
    )
    cn = cents / np.linalg.norm(cents, axis=1, keepdims=True)
    probe = set(int(c) for c in np.argsort(-(cn @ q), kind="stable")[:N_CELLS_PROBE])
    rows = []
    for s in range(0, len(ids), 4096):  # mirror the pipeline's batch shape
        mm, mi = m[s : s + 4096], ids[s : s + 4096]
        cell = np.argmax(mm @ cn.T, axis=1)
        cos = np.round(mm @ q, 6)
        for k in range(len(mi)):
            if int(cell[k]) in probe and int(mi[k]) != QUERY_VEC_ID:
                rows.append((int(mi[k]), float(cos[k])))
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:TOP_K]
    return pa.table(
        {
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "cos_sim": pa.array([r[1] for r in rows], pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# multimodal plumbing (deterministic stub-decode contract)
# ---------------------------------------------------------------------------


def golden_media_features(sf_dir: str) -> pa.Table:
    from .multimodal import make_payload

    docs = _docs(sf_dir)
    w, h, nb, ck = [], [], [], []
    for d, t in docs:
        p = make_payload(d, t)
        w.append(int.from_bytes(p[0:2], "little"))
        h.append(int.from_bytes(p[2:4], "little"))
        nb.append(len(p))
        ck.append(hashlib.blake2b(p, digest_size=4).hexdigest())
    return pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "width": pa.array(w, pa.int32()),
            "height": pa.array(h, pa.int32()),
            "n_bytes": pa.array(nb, pa.int64()),
            "checksum": pa.array(ck, pa.string()),
        }
    )


def golden_video_frame_sample(sf_dir: str) -> pa.Table:
    from .multimodal import FrameSampler, make_video_payload

    docs = _docs(sf_dir)
    ids, idxs, digs = [], [], []
    stride, fb = 6, FrameSampler.FRAME_BYTES
    for d, t in docs:
        p = make_video_payload(d, t)
        n = int.from_bytes(p[:4], "little")
        for i in range(0, n, stride):
            ids.append(d)
            idxs.append(i)
            digs.append(
                hashlib.blake2b(p[4 + i * fb : 4 + (i + 1) * fb], digest_size=4).hexdigest()
            )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "frame_idx": pa.array(idxs, pa.int32()),
            "frame_digest": pa.array(digs, pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# crawl family (the flagship): sequential reference-semantics oracle
# ---------------------------------------------------------------------------


def _oracle_articles() -> list[dict]:
    from .oracle import run_oracle
    from .policy import CrawlPolicy
    from .synth import SyntheticWeb, WebParams

    return run_oracle(
        SyntheticWeb(WebParams(only_sites=CRAWL_SITES)), CrawlPolicy()
    ).articles


def _articles_table(arts: list[dict]) -> pa.Table:
    return pa.table(
        {
            "site": pa.array([a["site"] for a in arts], pa.string()),
            "title": pa.array([a["title"] for a in arts], pa.string()),
            "time": pa.array([a["time"] for a in arts], pa.timestamp("us")),
            "img": pa.array([a["img"] for a in arts], pa.string()),
            "url": pa.array([a["url"] for a in arts], pa.string()),
            "original_url": pa.array([a["original_url"] for a in arts], pa.string()),
            "summary": pa.array([a["summary"] for a in arts], pa.string()),
            "date_group": pa.array([a["date_group"] for a in arts], pa.string()),
            "discovered_seq": pa.array([a["discovered_seq"] for a in arts], pa.int64()),
        }
    )


def spans_exploded(arts_rows: list[dict]) -> pa.Table:
    """Flat (doc_id, span_offset, kind, text, media_ref) rows — the
    SQL-typed view of the interleaved documents table."""
    from .extract import article_spans
    from .sites import SITES

    ids, offs, kinds, texts, refs = [], [], [], [], []
    for rec in arts_rows:
        for s in article_spans(rec, SITES[rec["site"]]):
            ids.append(rec["url"])
            offs.append(s["offset"])
            kinds.append(s["kind"])
            texts.append(s["text"])
            refs.append(s["media_ref"])
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.string()),
            "span_offset": pa.array(offs, pa.int32()),
            "kind": pa.array(kinds, pa.string()),
            "text": pa.array(texts, pa.string()),
            "media_ref": pa.array(refs, pa.string()),
        }
    )


def golden_crawl_articles(sf_dir: str) -> pa.Table:
    return _articles_table(_oracle_articles())


def golden_crawl_documents(sf_dir: str) -> pa.Table:
    return spans_exploded(_oracle_articles())


def _oracle_result():
    from .oracle import run_oracle
    from .policy import CrawlPolicy
    from .synth import SyntheticWeb, WebParams

    return run_oracle(SyntheticWeb(WebParams(only_sites=CRAWL_SITES)), CrawlPolicy())


def golden_crawl_fetch_log(sf_dir: str) -> pa.Table:
    """T7 (politeness clock) + S3 lineage behind the driver gate: replay the
    sequential oracle's fetch log through an INDEPENDENT single-process
    recompute of the virtual politeness clock — per wave, per host in seq
    order, release = start + i*delay with the host clock carrying across
    waves (the invariant frontier.HostScheduler enforces distributed)."""
    from collections import defaultdict

    from .sites import SITES

    log = _oracle_result().fetch_log
    next_free: dict[str, float] = {}
    out: list[dict] = []
    for w in sorted({f["wave"] for f in log}):
        per_host: dict[str, list[dict]] = defaultdict(list)
        for f in log:
            if f["wave"] == w:
                per_host[f["host"]].append(f)
        for host in sorted(per_host):
            rows = sorted(per_host[host], key=lambda r: r["seq"])
            delay = SITES[rows[0]["site"]].politeness_delay
            start = next_free.get(host, 0.0)
            for i, r in enumerate(rows):
                out.append({**r, "released_at_virtual": start + i * delay})
            next_free[host] = start + len(rows) * delay
    out.sort(key=lambda r: r["seq"])
    return pa.table(
        {
            "wave": pa.array([r["wave"] for r in out], pa.int32()),
            "site": pa.array([r["site"] for r in out], pa.string()),
            "host": pa.array([r["host"] for r in out], pa.string()),
            "canon_url": pa.array([r["canon_url"] for r in out], pa.string()),
            "discovered_seq": pa.array([r["seq"] for r in out], pa.int64()),
            "released_at_virtual": pa.array(
                [r["released_at_virtual"] for r in out], pa.float64()
            ),
        }
    )


REFSITES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "fixtures",
    "refsites",
)


def golden_crawl_refsites_articles(sf_dir: str) -> pa.Table:
    """§2.9 extension surface behind the driver gate: the sequential oracle
    crawls the committed REAL-HTML fixture pack (ten reference sites, real
    CSS selectors, 23 saved pages) through the same FixtureWeb the pipeline
    uses — an independent single-process crawl of identical bytes."""
    from .oracle import run_oracle
    from .policy import CrawlPolicy
    from .webfixture import FixtureWeb

    web = FixtureWeb(REFSITES_DIR)
    return _articles_table(run_oracle(web, CrawlPolicy()).articles)


DAY_GROUPS_SCHEMA = pa.schema(
    [
        ("site", pa.string()),
        ("date_group", pa.string()),
        ("pos_in_group", pa.int32()),
        ("title", pa.string()),
        ("time", pa.timestamp("us")),
        ("img", pa.string()),
        ("url", pa.string()),
        ("original_url", pa.string()),
        ("summary", pa.string()),
    ]
)


def day_groups_table(arts: list[dict]) -> pa.Table:
    """An independent plain-dict recompute of the reference's save-time
    grouping over article dicts — group by (site, date label), in-group
    order time-desc (stable) for sort-in-group sites else discovery order,
    groups sorted by date — exploded flat to ``DAY_GROUPS_SCHEMA`` rows."""
    from .sites import SITES

    groups: dict[tuple[str, str], list[dict]] = {}
    for a in arts:
        groups.setdefault((a["site"], a["date_group"]), []).append(a)
    rows: list[dict] = []
    for site, dg in sorted(groups):
        g = groups[(site, dg)]
        if SITES[site].sort_in_group:
            g = sorted(g, key=lambda r: r["time"], reverse=True)  # stable
        else:
            g = sorted(g, key=lambda r: r["discovered_seq"])
        for pos, a in enumerate(g):
            rows.append(
                {
                    **a,
                    "date_group": dg,
                    "pos_in_group": pos,
                    "summary": a["summary"] if SITES[site].has_summary else None,
                }
            )
    return pa.Table.from_pylist(rows, schema=DAY_GROUPS_SCHEMA)


def golden_crawl_day_groups(sf_dir: str) -> pa.Table:
    """K1/K2/O1/O2 (day-grouped sink) behind the driver gate: the oracle's
    accepted articles through `day_groups_table`."""
    return day_groups_table(_oracle_articles())


# ---------------------------------------------------------------------------
# dump orchestration
# ---------------------------------------------------------------------------

def golden_chunk_embed_index(sf_dir: str) -> pa.Table:
    """Sequential RAG-prep oracle: chunk every document with a plain loop,
    embed each chunk token-by-token (`ragprep.embed_tokens` — int64-exact,
    so the construction IS the semantics, like the MinHash goldens), then
    simulate the probe: multiprobe signature filter, exact int cosine,
    top-10. No Ray, no index, no partitioning."""
    from .ragprep import (
        QUERY_DOC_ID,
        TOP_K,
        embed_tokens,
        probe_set,
        signatures,
        stub_planes,
    )
    from .textan import CHUNK_STRIDE, CHUNK_TOKENS

    planes = stub_planes()
    cache: dict = {}
    chunks = []  # (doc_id, chunk_id, emb)
    for doc_id, text in _docs(sf_dir):
        toks = text.split(" ")
        n = len(toks)
        last_i = 0 if n <= CHUNK_TOKENS else -(-(n - CHUNK_TOKENS) // CHUNK_STRIDE)
        for i in range(last_i + 1):
            s = i * CHUNK_STRIDE
            chunks.append(
                (doc_id, i, embed_tokens(toks[s : s + CHUNK_TOKENS], cache))
            )
    q = next(e for d, c, e in chunks if d == QUERY_DOC_ID and c == 0)
    qsig = int(signatures(q[None, :], planes)[0])
    probe = probe_set(qsig)
    qn2 = int(q @ q)
    rows = []
    for d, c, e in chunks:
        if d == QUERY_DOC_ID and c == 0:
            continue
        n2 = int(e @ e)
        if n2 == 0 or int(signatures(e[None, :], planes)[0]) not in probe:
            continue
        # np.round, not Python round: the two differ by 1 ulp on some
        # values and the gate is hash-exact
        cos = float(np.round(float(int(e @ q)) / np.sqrt(float(n2) * qn2), 6))
        rows.append((d, c, cos))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    rows = rows[:TOP_K]
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "chunk_id": pa.array([r[1] for r in rows], pa.int64()),
            "cos_sim": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


GOLDENS = {
    "chunk_embed_index": golden_chunk_embed_index,
    "dedup_minhash_lsh": golden_dedup_minhash_lsh,
    "dedup_minhash_clusters": golden_dedup_minhash_clusters,
    "dedup_keep_best": golden_dedup_keep_best,
    "dedup_simhash": golden_dedup_simhash,
    "ngram_jaccard_by_source": golden_ngram_jaccard_by_source,
    "dedup_embedding_cosine": golden_dedup_embedding_cosine,
    "knn_lsh_cosine": golden_knn_lsh_cosine,
    "knn_ivf_cosine": golden_knn_ivf_cosine,
    "media_features": golden_media_features,
    "video_frame_sample": golden_video_frame_sample,
    "crawl_articles": golden_crawl_articles,
    "crawl_documents": golden_crawl_documents,
    "crawl_fetch_log": golden_crawl_fetch_log,
    "crawl_day_groups": golden_crawl_day_groups,
    "crawl_refsites_articles": golden_crawl_refsites_articles,
}


def ensure_goldens(sf_dir: str = SF_FIXED) -> None:
    """Compute any missing/stale golden dumps (idempotent, version-guarded).
    Called once at registry import; skips entirely when the marker matches."""
    if not os.path.isdir(sf_dir):
        return
    # lazy imports: these modules import golden_sql from this module at top
    from .cleanse import golden_corpus_clean
    from .sketch import (
        golden_approx_distinct_users_daily,
        golden_approx_value_quantiles_daily,
    )

    goldens = {
        **GOLDENS,
        "corpus_clean": golden_corpus_clean,
        "approx_distinct_users_daily": golden_approx_distinct_users_daily,
        "approx_value_quantiles_daily": golden_approx_value_quantiles_daily,
    }
    marker = os.path.join(GOLDEN_ROOT, "marker.json")
    want = {"version": GOLDEN_VERSION, "sf_dir": sf_dir}
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                if json.load(f) == want and all(
                    os.path.exists(golden_path(n)) for n in goldens
                ):
                    return
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(GOLDEN_ROOT, exist_ok=True)
    for name, fn in goldens.items():
        tbl = fn(sf_dir)
        tmp = golden_path(name) + ".tmp"
        pq.write_table(tbl, tmp)
        os.replace(tmp, golden_path(name))
    tmp = marker + ".tmp"
    with open(tmp, "w") as f:
        json.dump(want, f)
    os.replace(tmp, marker)
