"""Multimodal column plumbing: opaque binary media payloads with typed
metadata, decoded/feature-extracted by an actor-pool ``map_batches`` stage
(training-data pipeline extension; the media_ref span in the crawl
`documents` table is the same idea at the span level).

No image/audio libraries exist in this container, so the DECODE KERNEL IS A
STUB: ``MediaDecoder`` tries to import PIL and, absent it, runs a
clearly-marked deterministic fake decode (parses the payload's synthetic
8-byte header). Everything around the kernel — the binary column schema,
actor-pool signature, per-actor setup, batch sizing for wide binary rows,
output layout — is real and tested.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

from .registry import register
from .tabular import read


def make_payload(doc_id: int, text: str) -> bytes:
    """Deterministic synthetic media payload for a document: an 8-byte
    header (width:uint16, height:uint16, channels:uint16, version:uint16)
    followed by blake2b-keyed pseudo-pixels. Stands in for a real image
    column at the schema/plumbing level."""
    h = hashlib.blake2b(f"media:{doc_id}".encode(), digest_size=8).digest()
    width = 16 + h[0] % 64
    height = 16 + h[1] % 64
    header = (
        width.to_bytes(2, "little")
        + height.to_bytes(2, "little")
        + (3).to_bytes(2, "little")
        + (1).to_bytes(2, "little")
    )
    body = hashlib.blake2b(text.encode(), digest_size=32).digest()
    return header + body


class MediaDecoder:
    """Actor-pool stage: decode a binary media column into features.

    Per-actor setup happens ONCE in ``__init__`` (library import / model
    load); ``__call__`` handles a batch. With small batch sizes suitable for
    wide binary rows (a real image column would be MBs/row — batch_size is
    the memory knob, SURVEY 'Memory-aware')."""

    def __init__(self):
        try:  # pragma: no cover - PIL absent in this container
            import PIL.Image  # noqa: F401

            self._real = True
        except ImportError:
            self._real = False

    def _decode_real(self, payload: bytes) -> tuple[int, int]:  # pragma: no cover
        raise NotImplementedError(
            "real image decode requires PIL — not available in this sandbox; "
            "the deterministic fake decoder below exercises the same plumbing"
        )

    def _decode_fake(self, payload: bytes) -> tuple[int, int]:
        width = int.from_bytes(payload[0:2], "little")
        height = int.from_bytes(payload[2:4], "little")
        return width, height

    def __call__(self, b: pa.Table) -> pa.Table:
        widths, heights, nbytes, checksums = [], [], [], []
        for payload in b["media"].to_pylist():
            w, h = (
                self._decode_real(payload) if self._real else self._decode_fake(payload)
            )
            widths.append(w)
            heights.append(h)
            nbytes.append(len(payload))
            checksums.append(hashlib.blake2b(payload, digest_size=4).hexdigest())
        return pa.Table.from_pydict(
            {
                "doc_id": b["doc_id"],
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "n_bytes": pa.array(nbytes, pa.int64()),
                "checksum": pa.array(checksums, pa.string()),
            }
        )


from .golden import golden_sql


@register("media_features", sql=golden_sql("media_features"))
def media_features(sf_dir: str):
    """documents → synthetic binary media column → actor-pool decode →
    typed feature table, value-checked against a sequential golden recompute
    of the deterministic stub-decode contract (golden.py)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def attach(b: pa.Table) -> pa.Table:
        payloads = [
            make_payload(d, t)
            for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist())
        ]
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "media": pa.array(payloads, pa.binary())}
        )

    return ds.map_batches(attach, batch_format="pyarrow").map_batches(
        MediaDecoder,
        batch_format="pyarrow",
        batch_size=256,  # small batches: wide binary rows
        concurrency=2,
        # at 1 CPU per actor the two actors held every CPU of a 1- or
        # 2-CPU session and the read feeding them never ran (like `SeenShard`)
        num_cpus=0,
    )


@register(
    "media_meta",
    sql="SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS n_text_bytes FROM documents",
)
def media_meta(sf_dir: str):
    """SQL-checkable slice of the media path: payload byte accounting
    (utf-8 text bytes — the body length the synthetic payload derives from)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def meta(b: pa.Table) -> pa.Table:
        n = [len(t.encode("utf-8")) for t in b["text"].to_pylist()]
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "n_text_bytes": pa.array(n, pa.int64())}
        )

    return ds.map_batches(meta, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# video-style frame sampling
# ---------------------------------------------------------------------------


def make_video_payload(doc_id: int, text: str, n_frames: int = 24) -> bytes:
    """Synthetic multi-frame payload: 4-byte frame count + fixed 32-byte
    frames (blake2b-keyed). Stands in for a short video clip column."""
    frames = [
        hashlib.blake2b(f"{doc_id}:{i}:{text[:16]}".encode(), digest_size=32).digest()
        for i in range(n_frames)
    ]
    return n_frames.to_bytes(4, "little") + b"".join(frames)


class FrameSampler:
    """Actor-pool stage: decode the frame container and keep every k-th
    frame (the standard video pre-processing step). The frame-decode kernel
    is the same deterministic stub pattern as MediaDecoder — the Ray-side
    plumbing (stateful stage, small batches for wide rows, exploded
    one-row-per-sampled-frame output) is the real, tested part."""

    FRAME_BYTES = 32

    def __init__(self, stride: int = 6):
        self.stride = stride

    def __call__(self, b: pa.Table) -> pa.Table:
        doc_ids, frame_idx, digests = [], [], []
        for doc_id, payload in zip(b["doc_id"].to_pylist(), b["media"].to_pylist()):
            n = int.from_bytes(payload[:4], "little")
            for i in range(0, n, self.stride):
                start = 4 + i * self.FRAME_BYTES
                frame = payload[start : start + self.FRAME_BYTES]
                doc_ids.append(doc_id)
                frame_idx.append(i)
                digests.append(hashlib.blake2b(frame, digest_size=4).hexdigest())
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame_digest": pa.array(digests, pa.string()),
            }
        )


@register("video_frame_sample", sql=golden_sql("video_frame_sample"))
def video_frame_sample(sf_dir: str):
    """documents → synthetic video column → actor-pool frame sampling
    (every 6th of 24 frames → 4 rows per doc); golden-oracle value-checked."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def attach(b: pa.Table) -> pa.Table:
        payloads = [
            make_video_payload(d, t)
            for d, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist())
        ]
        return pa.Table.from_pydict(
            {"doc_id": b["doc_id"], "media": pa.array(payloads, pa.binary())}
        )

    return ds.map_batches(attach, batch_format="pyarrow").map_batches(
        FrameSampler,
        batch_format="pyarrow",
        batch_size=128,  # wide binary rows → small batches
        concurrency=2,
        num_cpus=0,  # see media_features
    )
