"""Per-wave checkpoint / resume (SURVEY.md §4.1, north_rule).

The reference's only checkpoint is its committed output JSON, re-parsed into
a URL-seen set on the next run — resume re-fetches every page. Here each
wave persists, under an ATOMIC manifest (write-tmp-then-rename):

* ``rows/`` — the wave's materialized output, written ONCE, and the only
  per-wave state: its fetch-log rows (seq, url, host, site, virtual
  release time) and seen-claim rows (``useen``: every URL key the wave
  inserted) unchanged, plus its doc, next-page, two-hop frontier and
  title-claim (``tseen``) rows minus the seqs retracted at the wave
  barrier, which leaves exactly the title winners. The write coalesces the
  wave's fetch blocks, so a wave holds about one file per
  ``pipeline.POST_BARRIER_ROWS`` rows;
* ``metrics.json`` — per-wave row counts;
* wave 0 only, the run's one input beyond the seeds: ``seen_in.parquet``,
  the URLs an output bootstrap (``CrawlPipeline.bootstrap_seen``) seeded,
  if one ran.

Restore rebuilds every piece of crawl state from the rows, in the shapes
the live wave uses: the fetch log and the next frontier through the rowkind
views (``pipeline.flog_rows`` / ``to_frontier``); the seen set from the
claim rows, each key re-routed with ``shard_of`` over the pool's current
size; the politeness clocks and budgets by replaying each wave's per-host
fetch counts through ``SeenShard.reserve`` on each host's routing shard.
So a crawl checkpointed at N shards resumes at any other shard count.
Finalize reads the docs straight from the files.

Crash safety: a wave directory is cleared before being re-written if the
manifest does not list the wave as completed (a crash mid-write must not
leave partial parquet files that a rerun would append to), and the only
wave ``write_wave`` takes is the one after the manifest's last completed
wave: a completed wave is never re-written, and a pipeline that was not
restored cannot append to another run's checkpoint. The manifest also
records the layout version and every completed wave's row count: restore
refuses another layout, and a wave whose ``rows/`` files do not hold the
recorded count (missing files would otherwise read as an empty wave).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import ray
import ray.data

from .frontier import replay_grants
from .pipeline import (
    FRONTIER_COLS, FRONTIER_SCHEMA, POST_BARRIER_ROWS, flog_rows, to_frontier,
)
from .seen import restore_keys, seen_keys

# one rows/ dataset per wave, the only per-wave state; must match on resume
LAYOUT_VERSION = "rows-v2"
# the columns restore folds into politeness and seen-set state
STATE_COLS = ["rowkind", "site", "host", "canon_url", "title"]


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


def write_frontier_in(root: str, wave: int, seen: pa.Table | None = None) -> None:
    """Open a wave's checkpoint directory. Only wave 0 persists an input:
    the URLs an output bootstrap seeded (``seen``), which restore reads."""
    d = _wave_dir(root, wave)
    # a wave dir that exists but is NOT in the manifest is a crashed attempt:
    # clear it so the rerun cannot read duplicated partial files
    if os.path.isdir(d) and wave not in _load_manifest(root).get("completed_waves", []):
        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    if wave == 0 and seen is not None:
        pq.write_table(seen, os.path.join(d, "seen_in.parquet"))


def write_wave(
    root: str,
    wave: int,
    rows: ray.data.Dataset,  # pipeline.checkpoint_rows over the materialized wave
    metrics: dict,
) -> None:
    manifest = _load_manifest(root)
    done = manifest.get("completed_waves", [])
    want = max(done) + 1 if done else 0
    # a completed wave is never re-written, and a wave past the next one
    # means this pipeline was not restored from the checkpoint
    if wave != want:
        raise ValueError(
            f"the checkpoint at {root} takes wave {want} next, not wave {wave}: "
            "resume via checkpoint.restore (CrawlPipeline.run does this "
            "automatically when checkpoint_dir is set) or use a fresh dir"
        )
    d = _wave_dir(root, wave)
    # straight from the object store, the fetch blocks coalesced into files
    # of at least POST_BARRIER_ROWS rows (one write task each)
    rows.write_parquet(os.path.join(d, "rows"), min_rows_per_file=POST_BARRIER_ROWS)
    _atomic_json(os.path.join(d, "metrics.json"), metrics)
    # manifest last — a wave is complete only once the manifest says so
    manifest["layout"] = LAYOUT_VERSION
    manifest.setdefault("wave_rows", {})[str(wave)] = _num_rows(_rows_files(root, wave))
    manifest["completed_waves"] = [*done, wave]
    _atomic_json(os.path.join(root, "manifest.json"), manifest)


def repair_wave_metrics(root: str, wave_metrics: list[dict]) -> None:
    """Overwrite each checkpointed wave's ``metrics.json`` with its
    post-barrier repaired values: per-wave checkpoints are written with
    possibly-lagged fire-and-forget counters mid-run, and without this a
    resumed run would permanently keep under-reported fetched/candidates/
    docs diagnostics for pre-crash waves. Metadata-only (never touches the
    rows files); missing wave dirs are skipped (waves restored from an
    older checkpoint were not re-run here)."""
    for m in wave_metrics:
        d = _wave_dir(root, m["wave"])
        if os.path.isdir(d):
            _atomic_json(os.path.join(d, "metrics.json"), m)


def restore(pipeline, root: str) -> bool:
    """Rehydrate a CrawlPipeline from the last completed wave, at the
    pipeline's own shard count. Returns True if there was state to
    restore. Refuses another checkpoint layout and a wave whose rows files
    do not hold its recorded row count."""
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
    keys: list[str] = []
    seen_in = os.path.join(_wave_dir(root, 0), "seen_in.parquet")
    if os.path.exists(seen_in):
        t = pq.read_table(seen_in)
        keys += seen_keys("u", t["site"].to_pylist(), t["canon_url"].to_pylist())
    # accumulated fetch logs from all completed waves as DATASETS over the
    # checkpoint parquet, and the rows files finalize reads the docs from —
    # a resumed run must not load the accumulated corpus onto the driver
    # (VERDICT r2 #4); the state rows alone are read here, pruned
    wave_flogs = []
    for w in waves:
        files = _rows_files(root, w)
        n, want = _num_rows(files), manifest.get("wave_rows", {}).get(str(w))
        if n != want:
            raise ValueError(
                f"checkpoint wave {w} at {root}: rows files hold {n} rows, the "
                f"manifest records {want} — the checkpoint is damaged"
            )
        if files:
            # one block per file: the files are already right-sized, and
            # Ray's default split of a lone file into several blocks means a
            # consumer's schema probe cancels the still-running read task
            rows = ray.data.read_parquet(
                files, override_num_blocks=len(files), filter=pds.field("rowkind") == "flog"
            )
            pipeline.fetch_logs.append(
                rows.map_batches(flog_rows, batch_format="pyarrow", fn_kwargs={"wave": w})
            )
            pipeline._restored_row_files.extend(files)
            state = pq.read_table(
                files, columns=STATE_COLS,
                filters=[("rowkind", "in", ["flog", "useen", "tseen"])],
            )
            kind = state["rowkind"]
            wave_flogs.append(state.filter(pc.equal(kind, "flog")))
            for space, kname, col in (("u", "useen", "canon_url"), ("t", "tseen", "title")):
                t = state.filter(pc.equal(kind, kname))
                keys += seen_keys(space, t["site"].to_pylist(), t[col].to_pylist())
        else:  # an empty wave
            pipeline.fetch_logs.append(
                ray.data.from_arrow(pipeline.FLOG_W_SCHEMA.empty_table())
            )
        with open(os.path.join(_wave_dir(root, w), "metrics.json")) as f:
            pipeline.wave_metrics.append(json.load(f))
    restore_keys(pipeline.seen_shards, keys)
    replay_grants(pipeline.seen_shards, wave_flogs)
    # the next frontier: a pruned driver read of the last wave's rows (its
    # next/frontier rows are metadata-sized; no Ray execution)
    last = waves[-1]
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
