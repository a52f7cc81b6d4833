"""Per-wave checkpoint / resume + lineage & metrics (SURVEY.md §4.1, north_rule).

The reference's only checkpoint is its committed output JSON, re-parsed into
a URL-seen set on the next run — resume re-fetches every page. Here each
wave persists, under an ATOMIC manifest (write-tmp-then-rename):

* ``rows/`` — the wave's materialized output, written ONCE: its fetch-log
  rows (seq, url, host, site, virtual release time) unchanged, plus its
  doc, next-page and two-hop frontier rows minus the seqs retracted at the
  wave barrier. Restore derives the docs, the fetch log and the next
  frontier from it with the rowkind views the live wave uses
  (``pipeline.keep_docs`` / ``flog_rows`` / ``to_frontier``);
* ``frontier_in.parquet`` — wave 0 only: the driver-side seed frontier
  (every later wave's input is the previous wave's next rows, already in
  that wave's ``rows/``);
* ``seen/shard_*.json`` — INCREMENTAL dumps of every seen-set shard: only
  the keys inserted since the previous completed wave (the manifest tracks
  per-shard log offsets), so checkpoint bytes per wave ∝ new URLs, not
  total URLs. Restore replays the deltas of every completed wave in order;
* ``sched.json`` — per-host politeness clocks + budget counters (O(hosts));
* ``metrics.json`` — per-wave row counts.

Crash safety: a wave directory is cleared before being re-written if the
manifest does not list the wave as completed (a crash mid-write must not
leave partial parquet files that a rerun would append to), and the manifest
records the shard counts + key-routing version so a resume with a different
topology fails loudly instead of silently dropping shard state. It also
records the layout version and every completed wave's row count: restore
refuses another layout, and a wave whose ``rows/`` files do not hold the
recorded count (missing files would otherwise read as an empty wave).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

ROUTING_VERSION = "blake2b64-mod"  # shard_of(key) routing; must match on resume
LAYOUT_VERSION = "rows-v1"  # one rows/ dataset per wave; must match on resume


def _wave_dir(root: str, wave: int) -> str:
    return os.path.join(root, f"wave_{wave:03d}")


def _atomic_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _load_manifest(root: str) -> dict:
    manifest_path = os.path.join(root, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)
    return {"completed_waves": []}


def _rows_files(root: str, wave: int) -> list[str]:
    d = os.path.join(_wave_dir(root, wave), "rows")
    if not os.path.isdir(d):
        return []
    return sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))


def _num_rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def write_frontier_in(root: str, wave: int, frontier: pa.Table | None) -> None:
    """Open a wave's checkpoint directory. Only wave 0 persists its input
    frontier (the driver-side seed table); restore never reads it."""
    d = _wave_dir(root, wave)
    # a wave dir that exists but is NOT in the manifest is a crashed attempt:
    # clear it so the rerun cannot read duplicated partial files
    if os.path.isdir(d) and wave not in _load_manifest(root).get("completed_waves", []):
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    if wave == 0 and frontier is not None:
        pq.write_table(frontier, os.path.join(d, "frontier_in.parquet"))


def write_wave(
    root: str,
    wave: int,
    rows: ray.data.Dataset,  # pipeline.checkpoint_rows over the materialized wave
    seen_shards: list,
    schedulers: list,
    metrics: dict,
) -> None:
    manifest = _load_manifest(root)
    # a wave the manifest already records complete must NEVER be re-written:
    # re-dumping deltas against already-advanced offsets would replace the
    # wave's seen/shard files with empty deltas while completed_waves still
    # claims the wave intact — a silently corrupted delta chain (ADVICE r2)
    if wave in manifest.get("completed_waves", []):
        raise ValueError(
            f"wave {wave} is already completed in the checkpoint at {root}; "
            "resume via checkpoint.restore (CrawlPipeline does this "
            "automatically when checkpoint_dir is set) instead of re-running"
        )
    prev_offsets = manifest.get("seen_log_offsets", [0] * len(seen_shards))
    if len(prev_offsets) != len(seen_shards):
        raise ValueError(
            f"checkpoint at {root} tracks {len(prev_offsets)} seen shards; "
            f"pipeline has {len(seen_shards)}"
        )
    # a recorded offset AHEAD of the live shard log means this pipeline was
    # never restored from the checkpoint it is writing into — dump_since
    # would silently produce truncated/empty deltas (ADVICE r2)
    log_lens = ray.get([s.log_len.remote() for s in seen_shards])
    ahead = [i for i in range(len(seen_shards)) if prev_offsets[i] > log_lens[i]]
    if ahead:
        raise ValueError(
            f"checkpoint at {root} records seen-log offsets ahead of the live "
            f"shard logs (shards {ahead}): the pipeline was not restored from "
            "this checkpoint — call checkpoint.restore first or use a fresh dir"
        )
    d = _wave_dir(root, wave)
    os.makedirs(os.path.join(d, "seen"), exist_ok=True)
    rows.write_parquet(os.path.join(d, "rows"))  # straight from the object store
    deltas = ray.get(
        [s.dump_since.remote(prev_offsets[i]) for i, s in enumerate(seen_shards)]
    )
    for i, keys in enumerate(deltas):
        _atomic_json(os.path.join(d, "seen", f"shard_{i}.json"), keys)
    sched = ray.get([s.dump.remote() for s in schedulers])
    _atomic_json(os.path.join(d, "sched.json"), sched)
    _atomic_json(os.path.join(d, "metrics.json"), metrics)
    # manifest last — a wave is complete only once the manifest says so
    manifest["layout"] = LAYOUT_VERSION
    manifest["n_seen_shards"] = len(seen_shards)
    manifest["n_sched_shards"] = len(schedulers)
    manifest["routing"] = ROUTING_VERSION
    manifest["seen_log_offsets"] = [
        prev_offsets[i] + len(deltas[i]) for i in range(len(seen_shards))
    ]
    manifest.setdefault("wave_rows", {})[str(wave)] = _num_rows(_rows_files(root, wave))
    manifest.setdefault("completed_waves", []).append(wave)
    _atomic_json(os.path.join(root, "manifest.json"), manifest)


def repair_wave_metrics(root: str, wave_metrics: list[dict]) -> None:
    """Overwrite each checkpointed wave's ``metrics.json`` with its
    post-barrier repaired values: per-wave checkpoints are written with
    possibly-lagged fire-and-forget counters mid-run, and without this a
    resumed run would permanently keep under-reported fetched/candidates/
    docs diagnostics for pre-crash waves. Metadata-only (never touches the
    seen-delta chain or data files); missing wave dirs are skipped (waves
    restored from an older checkpoint were not re-run here)."""
    for m in wave_metrics:
        d = _wave_dir(root, m["wave"])
        if os.path.isdir(d):
            _atomic_json(os.path.join(d, "metrics.json"), m)


def restore(pipeline, root: str) -> bool:
    """Rehydrate a CrawlPipeline from the last completed wave. Returns True
    if there was state to restore. Refuses another checkpoint layout, a
    wave whose rows files do not hold its recorded row count, and a
    topology mismatch (shard counts / key routing) — positional restore
    into a different shard layout would silently route keys to shards the
    lookup never consults."""
    manifest = _load_manifest(root)
    waves = sorted(manifest.get("completed_waves", []))
    if not waves:
        return False
    layout = manifest.get("layout", "docs/next_frontier/fetch_log")
    if layout != LAYOUT_VERSION:
        raise ValueError(
            f"checkpoint at {root} has layout {layout!r}, this version reads "
            f"{LAYOUT_VERSION!r} — re-crawl into a fresh checkpoint dir"
        )
    n_seen = manifest.get("n_seen_shards", len(pipeline.seen_shards))
    n_sched = manifest.get("n_sched_shards", len(pipeline.schedulers))
    routing = manifest.get("routing", ROUTING_VERSION)
    if n_seen != len(pipeline.seen_shards) or n_sched != len(pipeline.schedulers):
        raise ValueError(
            f"checkpoint topology mismatch: manifest has {n_seen} seen / "
            f"{n_sched} sched shards, pipeline has {len(pipeline.seen_shards)} / "
            f"{len(pipeline.schedulers)} — resume with the same shard counts"
        )
    if routing != ROUTING_VERSION:
        raise ValueError(
            f"checkpoint key-routing version {routing!r} != {ROUTING_VERSION!r}"
        )
    from .pipeline import (
        FRONTIER_COLS, FRONTIER_SCHEMA, WAVE_SCHEMA, flog_rows, keep_docs, to_frontier,
    )

    # accumulated docs + fetch logs from all completed waves (lineage
    # replay) as DATASETS over the checkpoint parquet — a resumed run must
    # not load the whole accumulated corpus onto the driver (VERDICT r2 #4);
    # per-wave seen-set DELTAS replay in wave order
    for w in waves:
        files = _rows_files(root, w)
        n, want = _num_rows(files), manifest.get("wave_rows", {}).get(str(w))
        if n != want:
            raise ValueError(
                f"checkpoint wave {w} at {root}: rows files hold {n} rows, the "
                f"manifest records {want} — the checkpoint is damaged"
            )
        if files:
            rows = ray.data.read_parquet(files)
            pipeline.doc_tables.append(rows.map_batches(keep_docs, batch_format="pyarrow"))
            pipeline.fetch_logs.append(
                rows.map_batches(flog_rows, batch_format="pyarrow", fn_kwargs={"wave": w})
            )
            # finalize_streaming re-pushes these waves' fuzzy projections
            # with a distributed pruned read over the same files
            pipeline._restored_row_files.extend(files)
        else:  # an empty wave
            pipeline.doc_tables.append(WAVE_SCHEMA.empty_table())
            pipeline.fetch_logs.append(pipeline.FLOG_W_SCHEMA.empty_table())
        d = _wave_dir(root, w)
        with open(os.path.join(d, "metrics.json")) as f:
            pipeline.wave_metrics.append(json.load(f))
        futs = []
        for i, shard in enumerate(pipeline.seen_shards):
            p = os.path.join(d, "seen", f"shard_{i}.json")
            with open(p) as f:
                keys = json.load(f)
            if keys:
                futs.append(shard.restore.remote(keys))
        ray.get(futs)
    last = waves[-1]
    with open(os.path.join(_wave_dir(root, last), "sched.json")) as f:
        sched = json.load(f)
    ray.get(
        [s.restore.remote(state) for s, state in zip(pipeline.schedulers, sched)]
    )
    # the next frontier: a pruned driver read of the last wave's rows (its
    # next/frontier rows are metadata-sized; no Ray execution)
    files = _rows_files(root, last)
    cols = ["rowkind", *(c for c in FRONTIER_COLS if c != "kind")]
    pipeline._frontier0 = (
        to_frontier(
            pq.read_table(
                files, columns=cols, filters=[("rowkind", "in", ["next", "frontier"])]
            )
        )
        if files
        else FRONTIER_SCHEMA.empty_table()
    )
    pipeline.start_wave = last + 1
    pipeline._restored = True  # CrawlPipeline.run skips its auto-restore
    return True
