"""RAG-prep composition: chunk → embed (stateful actor pool) → persisted
partitioned ANN index → pruned probe, as ONE pipeline.

This is the training-data / retrieval prep job a user of the engine runs
daily: every piece exists elsewhere in the repo (`textan.doc_chunks`
windows, the `ann.build_lsh_index` partitioned-parquet layout, the
`multimodal.MediaDecoder` actor-pool pattern) — this module composes them
end to end. The embedding "model" is a deterministic integer stub (the
image-decode contract: the real model isn't in this container, so the stub
pins the semantics while the Ray-side plumbing — actor pool with
model-in-`__init__`, batched inference, zero-copy Arrow in/out, pruned
index probe — is real and hash-gated).

Stub model semantics (everything EXACT int64 until the final cosine, so
the sequential golden matches bit-for-bit with no float-association risk):
  token vec   = blake2b(token, 32 bytes) − 128, an int64[32]
  chunk emb   = Σ token vecs over the chunk's whitespace tokens
  hyperplane  = blake2b("plane-i", 32 bytes) − 128
  sig bit i   = 1 iff plane_i · emb > 0   (12 planes, as `ann.N_PLANES`)
  partition   = sig >> (12 − PREFIX_BITS) (as the `ann` index layout)
  cos(a, b)   = round((a·b) / sqrt(|a|²·|b|²), 6) — ints in, one float out

Query = the first chunk of doc_id 0 (predicate-pushdown O(1) read, the
`ann._load_query_rows` pattern), excluded from candidates; probe = all
signatures within Hamming distance 2 (multiprobe), reading ONLY the
partition directories those signatures map to.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ann import N_PLANES, PREFIX_BITS, probe_set
from .ann import _signature as signatures  # shared sign-bit pack (exact on int64)
from .golden import golden_sql
from .registry import register
from .tabular import token_windows
from .textan import CHUNK_STRIDE, CHUNK_TOKENS

EMB_DIM = 32
TOP_K = 10
QUERY_DOC_ID = 0  # deterministic query: chunk 0 of doc 0
CHUNK_INDEX_ROOT = "/tmp/newsray_chunk_index"


def token_vec(tok: str) -> np.ndarray:
    """The stub model's per-token embedding: 32 digest bytes, centered."""
    d = hashlib.blake2b(tok.encode("utf-8"), digest_size=EMB_DIM).digest()
    return np.frombuffer(d, dtype=np.uint8).astype(np.int64) - 128


def stub_planes() -> np.ndarray:
    """Deterministic integer hyperplanes (N_PLANES × EMB_DIM)."""
    return np.stack([token_vec(f"plane-{i}") for i in range(N_PLANES)])


def embed_tokens(tokens: list[str], cache: dict | None = None) -> np.ndarray:
    """Sequential reference embedding of one chunk (golden uses this)."""
    v = np.zeros(EMB_DIM, dtype=np.int64)
    for t in tokens:
        if cache is not None:
            tv = cache.get(t)
            if tv is None:
                tv = cache[t] = token_vec(t)
        else:
            tv = token_vec(t)
        v += tv
    return v


class StubEmbedder:
    """Actor-pool embedding stage: the 'model' (hyperplanes — actor state,
    built/held ONCE per actor in __init__) batches chunks through an exact
    int64 bag-of-token-vecs embedding, then signs + partitions for the
    index write. Each batch embeds its unique tokens once; there is no
    cross-batch token cache (one ``token_vec`` is one blake2b, and a cache
    would grow without bound over the actor's life).
    A real deployment swaps `token_vec` for a tokenizer+encoder forward
    pass; the batch plumbing (unique-token gather, `np.add.at` scatter —
    bit-equal to the sequential sum because int64 addition is exact) is
    what this stage actually demonstrates."""

    def __init__(self):
        self._planes = stub_planes()

    def __call__(self, b: pa.Table) -> pa.Table:
        w = token_windows(b["chunk_text"])
        enc = w.strings().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        vecs = np.empty((len(uniq), EMB_DIM), dtype=np.int64)
        for i, t in enumerate(uniq):  # model forward: unique tokens only
            vecs[i] = token_vec(t)
        embs = np.zeros((len(b), EMB_DIM), dtype=np.int64)
        np.add.at(embs, w.row, vecs[enc.indices.to_numpy()])
        sigs = signatures(embs, self._planes)
        return pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "chunk_id": b["chunk_id"],
                "emb": pa.array(embs.tolist(), pa.list_(pa.int64())),
                "n2": pa.array((embs * embs).sum(axis=1), pa.int64()),
                "sig": pa.array(sigs, pa.int64()),
                "part": pa.array(sigs >> (N_PLANES - PREFIX_BITS), pa.int64()),
            }
        )


def build_chunk_index(sf_dir: str, out_dir: str) -> str:
    """chunk → embed → signature-prefix-PARTITIONED parquet index, written
    straight from the streaming pipeline (`write_parquet(partition_cols)`),
    idempotent per corpus fingerprint (the `ann.build_lsh_index` marker
    contract: a documents file changed in place must not serve stale
    partitions)."""
    from .tabular import idempotent_partitioned_build
    from .textan import doc_chunks

    st = os.stat(f"{sf_dir}/documents.parquet")
    want = {
        "sf_dir": sf_dir,
        "n_planes": N_PLANES,
        "prefix_bits": PREFIX_BITS,
        "chunk": [CHUNK_TOKENS, CHUNK_STRIDE],
        "src_size": st.st_size,
        "src_mtime_ns": st.st_mtime_ns,
    }

    def build(tmp_dir: str) -> None:
        doc_chunks(sf_dir).map_batches(
            StubEmbedder,
            batch_format="pyarrow",
            batch_size=512,
            concurrency=(2, 8),
            num_cpus=0,  # at 1 CPU each, two actors held the CPUs their read needs
        ).write_parquet(tmp_dir, partition_cols=["part"])

    return idempotent_partitioned_build(out_dir, want, build)


def _query_embedding(sf_dir: str) -> np.ndarray:
    """Embed the query chunk (chunk 0 of doc QUERY_DOC_ID): a predicate-
    pushdown read of O(1) rows, never a corpus scan."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filters=[("doc_id", "=", QUERY_DOC_ID)],
    )
    text = t["text"][0].as_py()
    return embed_tokens(text.split(" ")[:CHUNK_TOKENS])


def probe_dirs(idx_dir: str, probe: set[int]) -> tuple[list[str], list[int]]:
    """Partition directories the probe set can touch — the pruning step a
    pytest asserts reads strictly fewer partitions than exist."""
    from .tabular import partition_files

    parts = sorted({s >> (N_PLANES - PREFIX_BITS) for s in probe})
    return partition_files(idx_dir, "part", parts), parts


@register("chunk_embed_index", sql=golden_sql("chunk_embed_index"))
def chunk_embed_index(sf_dir: str):
    """The composed RAG-prep pipeline as one gated query: build (or reuse)
    the chunk index, then serve the query chunk's top-10 neighbors from
    ONLY the probed partitions with exact int cosine re-ranking."""
    import ray.data as rd

    idx = build_chunk_index(
        sf_dir,
        os.path.join(CHUNK_INDEX_ROOT, hashlib.md5(sf_dir.encode()).hexdigest()[:12]),
    )
    q = _query_embedding(sf_dir)
    qsig = int(signatures(q[None, :], stub_planes())[0])
    probe = probe_set(qsig)
    dirs, _parts = probe_dirs(idx, probe)
    empty = pa.Table.from_pydict(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_id": pa.array([], pa.int64()),
            "cos_sim": pa.array([], pa.float64()),
        }
    )
    if not dirs:
        return rd.from_arrow(empty)
    probe_arr = pa.array(sorted(probe), pa.int64())
    qn2 = int(q @ q)

    def score(b: pa.Table, qv=q) -> pa.Table:
        b = b.filter(pc.is_in(b["sig"], value_set=probe_arr))
        keep = pc.invert(
            pc.and_(
                pc.equal(b["doc_id"], pa.scalar(QUERY_DOC_ID)),
                pc.equal(b["chunk_id"], pa.scalar(0)),
            )
        )
        b = b.filter(keep)
        if b.num_rows == 0:
            return empty
        m = (
            pc.list_flatten(b["emb"])
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .reshape(-1, EMB_DIM)
        )
        n2 = b["n2"].to_numpy(zero_copy_only=False).astype(np.int64)
        dots = m @ qv  # exact int64
        ok = n2 > 0
        cos = np.round(
            dots[ok].astype(np.float64) / np.sqrt(n2[ok].astype(np.float64) * qn2), 6
        )
        ids = b["doc_id"].to_numpy(zero_copy_only=False)[ok]
        cks = b["chunk_id"].to_numpy(zero_copy_only=False)[ok]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "chunk_id": pa.array(cks.astype(np.int64), pa.int64()),
                "cos_sim": pa.array(cos, pa.float64()),
            }
        )

    return (
        rd.read_parquet(dirs, columns=["doc_id", "chunk_id", "emb", "n2", "sig"])
        .map_batches(score, batch_format="pyarrow", batch_size=4096)
        .sort(["cos_sim", "doc_id", "chunk_id"], descending=[True, False, False])
        .limit(TOP_K)
    )
