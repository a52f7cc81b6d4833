"""Output sinks (SURVEY.md §2.1 K1-K3, §2.6 O1-O3).

The reference rewrites one whole JSON file per site per run (day-grouped,
merged, deduped at save time) and a JS aggregator keeps a newest-50 feed.
Here the same shapes become:

* ``write_documents`` — the interleaved documents table as PARTITIONED
  parquet, one directory per (site, date_group): the resumable layout
  (a rerun skips finished partitions; nothing is one giant file). Lance is
  not installed in this sandbox; the writer targets an identical Arrow
  schema so a Lance backend is a drop-in (SURVEY §7.5.6).
* ``day_grouped_export`` — the reference's per-site day-group JSON shape
  (articles time-desc inside a group for sort-in-group sites, discovery
  order otherwise; day groups sorted by date label).
* ``newest_feed`` — the aggregator's capped rolling feed: global top-K by
  (time desc, url) over the articles table.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from .pipeline import articles_to_documents, day_grouped
from .sites import SITES

try:  # the north_rule names Lance tables; pylance is not installed in this
    # sandbox (and installs are disallowed), so the backend is probed at
    # import and the writer degrades to parquet with the IDENTICAL Arrow
    # schema — a Lance wheel makes it a drop-in with no caller changes.
    import lance  # type: ignore
except ImportError:  # pragma: no cover - sandbox has no lance wheel
    lance = None

DOCUMENTS_BACKEND = "lance" if lance is not None else "parquet"


def _write_part(docs: pa.Table, pdir: str) -> str:
    """One partition of the documents table, atomically, on the active
    backend. Lance writes a versioned dataset directory (its manifest commit
    is the atomicity boundary); parquet writes tmp-then-rename."""
    if lance is not None:
        path = os.path.join(pdir, "part-0.lance")
        lance.write_dataset(docs, path, mode="overwrite")
        return path
    path = os.path.join(pdir, "part-0.parquet")
    tmp = path + ".tmp"
    pq.write_table(docs, tmp)
    os.replace(tmp, path)
    return path


def _day_key(date_group: str) -> str:
    """Partition key from the FULL date of a day-group label
    ('2025년 04월 18일 금요일' → '2025-04-18'): the bare day-of-month token
    would collide articles from the 18th of different months/years."""
    parts = date_group.split(" ")
    try:
        y = parts[0].rstrip("년")
        m = parts[1].rstrip("월")
        d = parts[2].rstrip("일")
        if y.isdigit() and m.isdigit() and d.isdigit():
            return f"{y}-{m.zfill(2)}-{d.zfill(2)}"
    except IndexError:
        pass
    return "unknown"


def _load_manifest(out_dir: str) -> tuple[str | None, frozenset[str]]:
    """(run_id, completed-partition skip-list). The manifest is SCOPED TO ONE
    EXPORT RUN: skipping a partition is only sound when the rows being
    written are the same rows that produced it. Unreadable/corrupt manifest
    → (None, empty): rewrite everything — idempotent, never wrong. A legacy
    bare-list manifest loads as run_id None."""
    path = os.path.join(out_dir, "_manifest.json")
    try:
        with open(path) as f:
            data = json.load(f)
        if isinstance(data, list):  # legacy shape
            return None, frozenset(data)
        if isinstance(data, dict) and isinstance(data.get("parts"), list):
            return data.get("run_id"), frozenset(data["parts"])
        return None, frozenset()
    except (OSError, ValueError):
        return None, frozenset()


def _resume_parts(
    out_dir: str, run_id: str | None, legacy_ids: tuple[str, ...] = ()
) -> frozenset[str]:
    """Partitions safe to skip for THIS run: the manifest's list when its
    run_id matches. A legacy bare-list manifest (run_id None) carries no
    run identity, so it is treated like a corrupt one: no resume info →
    rewrite everything (callers clean unmanifested partition dirs first,
    which makes the full rewrite duplicate-safe); a pre-csum dict manifest
    whose run_id matches ``legacy_ids`` (same seq population, content
    unfingerprinted) gets the same treatment — rewrite, don't refuse. A
    manifest from a DIFFERENT identified run refuses loudly — silently
    skipping its partitions would drop the new run's rows that fall into
    them, and rewriting around them would leave the old run's extra
    partitions mixed into the output."""
    stored, parts = _load_manifest(out_dir)
    if not parts or stored is None:
        return frozenset()
    if stored in legacy_ids:
        return frozenset()
    if stored != run_id:
        raise RuntimeError(
            f"{out_dir} holds a completed export of a DIFFERENT run "
            f"(manifest run_id={stored!r}, this run={run_id!r}): writing "
            "into it would either skip or duplicate rows. Use a fresh "
            "output dir (the run_id is derived from the article set, so "
            "re-exporting the SAME articles resumes automatically)."
        )
    return parts


def _commit_manifest(out_dir: str, run_id: str | None, parts: set[str]) -> None:
    """Atomically record completed partitions (union with any prior list of
    the SAME run) — written only AFTER the data files are durable, so a
    crash between data write and manifest commit merely re-writes those
    partitions next run."""
    _stored, prior = _load_manifest(out_dir)
    manifest = os.path.join(out_dir, "_manifest.json")
    tmp = manifest + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"run_id": run_id, "parts": sorted(parts | set(prior))}, f)
    os.replace(tmp, manifest)


def _clean_unmanifested(out_dir: str, done: frozenset[str]) -> None:
    """Delete partition dirs present on disk but absent from the manifest:
    they are leftovers of a write that crashed before its manifest commit,
    and re-writing into them without cleanup would DUPLICATE their rows
    (Ray's write_parquet appends uniquely-named files, it does not
    overwrite)."""
    import shutil

    for root, dirs, _files in os.walk(out_dir):
        if not os.path.basename(root).startswith("site="):
            continue
        for d in list(dirs):
            if d.startswith("day="):
                label = f"{os.path.basename(root)}/{d}"
                if label not in done:
                    shutil.rmtree(os.path.join(root, d), ignore_errors=True)


_FP_MOD = (1 << 61) - 1  # Mersenne prime: order-free modular sum, no overflow


def _row_content_hashes(b: pa.Table) -> int:
    """Order-free content term for one batch: Σ blake2b(site∥url∥date_group)
    mod _FP_MOD. Summation is commutative/associative, so partial batch
    sums merge in any order — the mergeable-sketch shape."""
    import hashlib as _h

    s = 0
    for site, url, dg in zip(
        b["site"].to_pylist(), b["url"].to_pylist(), b["date_group"].to_pylist()
    ):
        s += int.from_bytes(
            _h.blake2b(f"{site}\x00{url}\x00{dg}".encode(), digest_size=8).digest(),
            "little",
        )
    return s % _FP_MOD


def run_fingerprint(n: int, lo, hi, total, csum: int = 0) -> str:
    """Deterministic export-run identity: the articles' discovered_seq
    population (count/min/max/sum) PLUS an order-free modular sum of
    per-row content hashes over (site, url, date_group) — identical for a
    crash-rerun of the same crawl, different whenever the article set OR
    its content-bearing fields changed (a re-crawl with an unchanged seq
    population but different articles must NOT fingerprint as the same
    run, or finished partitions holding stale rows would be silently
    skipped)."""
    import hashlib as _h

    raw = f"{n}:{lo}:{hi}:{total}:{csum}".encode()
    return _h.blake2b(raw, digest_size=8).hexdigest()


def _legacy_fingerprint(n: int, lo, hi, total) -> str:
    """The pre-csum run identity (seq population only). A manifest bearing
    it for the same seq stats is a pre-upgrade export of rows that MAY
    match this run's — content was not fingerprinted then, so there is no
    sound resume: callers treat it like the bare-list legacy shape (no
    skip-list → clean + idempotent full rewrite), never a refusal."""
    import hashlib as _h

    return _h.blake2b(f"{n}:{lo}:{hi}:{total}".encode(), digest_size=8).hexdigest()


def write_documents(arts: pa.Table, out_dir: str) -> list[str]:
    """Write interleaved documents partitioned by (site, date_group digest).

    RESUMABLE within one export run: partitions listed in the root's
    ``_manifest.json`` (committed atomically after their data files, scoped
    to this run's fingerprint) are SKIPPED on a re-run of the SAME
    articles, so an interrupted export never re-writes finished work; a
    different article set aimed at the same dir REFUSES loudly instead of
    silently skipping its rows. Each partition file is itself written
    atomically (tmp + rename — so re-writing a partition replaces, never
    duplicates)."""
    os.makedirs(out_dir, exist_ok=True)
    seqs = arts["discovered_seq"].to_pylist() if arts.num_rows else []
    stats = (len(seqs), min(seqs, default=0), max(seqs, default=0), sum(seqs))
    run_id = run_fingerprint(
        *stats, _row_content_hashes(arts) if arts.num_rows else 0
    )
    done = _resume_parts(out_dir, run_id, legacy_ids=(_legacy_fingerprint(*stats),))
    # dirs on disk but not resumable are a crashed write's leftovers or a
    # legacy (identity-less) export: remove so the rewrite can't mix rows
    _clean_unmanifested(out_dir, done)
    written = []
    sites = arts["site"].to_pylist()
    dates = arts["date_group"].to_pylist()
    by_part: dict[tuple[str, str], list[int]] = {}
    for i, (s, d) in enumerate(zip(sites, dates)):
        by_part.setdefault((s, _day_key(d)), []).append(i)
    new_parts: set[str] = set()
    for (site, day), idxs in sorted(by_part.items()):
        label = f"site={site}/day={day}"
        if label in done:
            continue  # finished in a prior (interrupted) run of these rows
        part = arts.take(idxs)
        docs = articles_to_documents(part)
        pdir = os.path.join(out_dir, f"site={site}", f"day={day}")
        os.makedirs(pdir, exist_ok=True)
        written.append(_write_part(docs, pdir))
        new_parts.add(label)
    _commit_manifest(out_dir, run_id, new_parts)
    return written


def write_documents_ds(arts_ds, out_dir: str) -> None:
    """The SCALE write path: articles as a distributed Dataset → interleaved
    documents written straight from the object store with
    ``Dataset.write_parquet(partition_cols=...)`` — one directory per
    (site, day), no driver materialization (the Table-based
    ``write_documents`` above stays for test-sized exports).

    RESUMABLE within one export run: finished partitions from the root's
    ``_manifest.json`` (scoped to this run's fingerprint — a DIFFERENT
    article set aimed at the same dir refuses loudly rather than silently
    skipping its rows) are filtered out INSIDE the partition map (the
    skip-list is a broadcast frozenset — O(partitions), never row data), so
    a re-run after a crash streams only the unfinished rows. Partition dirs
    on disk but NOT in the manifest are leftovers of a crashed write and
    are deleted first (write_parquet appends uniquely-named files — writing
    into them again would duplicate rows). The manifest commits atomically
    only after ``write_parquet`` returns (data durable first, bookkeeping
    second — a crash in between re-writes those partitions, never loses
    them)."""
    from .pipeline import _spans_batch

    os.makedirs(out_dir, exist_ok=True)

    def fp_partial(b: pa.Table) -> pa.Table:
        """One tiny partial row per batch: seq stats + the order-free
        content-hash term (merged driver-side over O(batches) rows)."""
        seq = b["discovered_seq"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "n": pa.array([len(seq)], pa.int64()),
                "lo": pa.array([int(seq.min()) if len(seq) else 0], pa.int64()),
                "hi": pa.array([int(seq.max()) if len(seq) else 0], pa.int64()),
                "total": pa.array([int(seq.sum()) if len(seq) else 0], pa.int64()),
                "csum": pa.array([_row_content_hashes(b)], pa.int64()),
            }
        )

    parts_df = arts_ds.map_batches(fp_partial, batch_format="pyarrow").to_pandas()
    live = parts_df[parts_df["n"] > 0] if "n" in parts_df.columns else parts_df
    stats = (
        int(parts_df["n"].sum()) if "n" in parts_df.columns else 0,
        int(live["lo"].min()) if len(live) else 0,
        int(live["hi"].max()) if len(live) else 0,
        int(parts_df["total"].sum()) if "total" in parts_df.columns else 0,
    )
    run_id = run_fingerprint(
        *stats,
        int(sum(int(c) for c in parts_df["csum"]) % _FP_MOD)
        if "csum" in parts_df.columns
        else 0,
    )
    done = _resume_parts(out_dir, run_id, legacy_ids=(_legacy_fingerprint(*stats),))
    _clean_unmanifested(out_dir, done)

    _hs = {s: c.has_summary for s, c in SITES.items()}  # driver snapshot

    def spans_with_partition(b: pa.Table) -> pa.Table:
        docs = _spans_batch(b, _hs)
        sites = b["site"].to_pylist()
        day = [_day_key(d) for d in b["date_group"].to_pylist()]
        t = docs.append_column("site", b["site"]).append_column(
            "day", pa.array(day, pa.string())
        )
        if done:
            keep = [f"site={s}/day={d}" not in done for s, d in zip(sites, day)]
            t = t.filter(pa.array(keep, pa.bool_()))
        return t

    ds = arts_ds.map_batches(spans_with_partition, batch_format="pyarrow")
    ds.write_parquet(out_dir, partition_cols=["site", "day"])
    # partitions now present on disk = completed set (the write returned)
    parts = {
        f"{os.path.basename(root)}/{d}"
        for root, dirs, _files in os.walk(out_dir)
        for d in dirs
        if d.startswith("day=") and os.path.basename(root).startswith("site=")
    }
    _commit_manifest(out_dir, run_id, parts)


def read_documents(out_dir: str) -> pa.Table:
    """Read back a partitioned documents export on whichever backend wrote
    it (mixed trees read too — a resume after a backend swap still works)."""
    tables = []
    lance_parts = []
    for root, dirs, files in os.walk(out_dir):
        for d in list(dirs):
            if d.endswith(".lance"):
                lance_parts.append(os.path.join(root, d))
                dirs.remove(d)
    if not lance_parts:
        # pure-parquet tree: plain hive read (keeps site/day partition cols)
        return pq.read_table(out_dir)
    if lance is None:  # pragma: no cover - needs a lance wheel
        raise RuntimeError("lance-written export but no lance backend")
    for p in sorted(lance_parts):
        tables.append(lance.dataset(p).to_table())
    pq_files = [
        os.path.join(root, f)
        for root, _dirs, files in os.walk(out_dir)
        for f in files
        if f.endswith(".parquet")
    ]
    if pq_files:
        tables.append(pads.dataset(sorted(pq_files)).to_table())
    if not tables:
        return pq.read_table(out_dir)  # raises the standard empty-dir error
    return pa.concat_tables(tables, promote_options="default")


def _site_payload(site: str, df, flags: tuple[bool, bool] | None = None) -> list[dict]:
    """One site's day-grouped JSON payload (K1 shape): day groups sorted by
    date label; articles time-desc inside a group for sort-in-group sites,
    discovery order otherwise; iso times; absent summary omitted.

    ``flags`` = (sort_in_group, has_summary) — REQUIRED when called inside
    a Ray worker: the worker's module-level SITES lacks dynamically
    registered plugin sites (same failure mode as `_spans_batch`, fixed
    9c316da), so callers snapshot the config on the driver and ship it in
    the closure. Driver-side callers may omit it."""
    sort_in_group, has_summary = (
        flags if flags is not None
        else (SITES[site].sort_in_group, SITES[site].has_summary)
    )
    entries = []
    for dg, g in sorted(df.groupby("date_group"), key=lambda kv: kv[0]):
        if sort_in_group:
            g = g.sort_values("time", ascending=False, kind="mergesort")
        else:
            g = g.sort_values("discovered_seq", kind="mergesort")
        arts_list = []
        for a in g.to_dict("records"):
            rec = {
                "title": a["title"],
                "time": a["time"].isoformat(),
                "img": a["img"],
                "url": a["url"],
                "original_url": a["original_url"],
            }
            if has_summary and a.get("summary"):
                rec["summary"] = a["summary"]
            arts_list.append(rec)
        entries.append({"date": dg, "articles": arts_list})
    return entries


def _write_site_json(out_dir: str, site: str, payload: list[dict]) -> str:
    path = os.path.join(out_dir, f"{site}_News.json")
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False, indent=2)
    os.replace(tmp, path)
    return path


# Above this, the reference-parity table path delegates to the distributed
# per-site writers instead of building every site's payload on the driver.
_EXPORT_DRIVER_MAX_ROWS = 200_000


def day_grouped_export(arts: pa.Table, out_dir: str) -> dict[str, str]:
    """One JSON file per site, in the reference's day-grouped output shape:
    ``[{date, articles: [{title, time, img, url, original_url[, summary]}]}]``
    (K1; iso times, absent summary omitted — per-site record shapes).

    Small (reference-parity) tables build payloads on the driver; anything
    larger routes through ``day_grouped_export_ds`` so no unbounded table
    is ever pandas-materialized in the driver process."""
    import ray

    if arts.num_rows > _EXPORT_DRIVER_MAX_ROWS and ray.is_initialized():
        import ray.data as rd

        return day_grouped_export_ds(rd.from_arrow(arts), out_dir)
    os.makedirs(out_dir, exist_ok=True)
    df = arts.to_pandas()
    paths = {}
    for site in SITES:  # K2: every site gets a well-formed file, even empty
        part = df[df["site"] == site]
        payload = _site_payload(site, part) if len(part) else []
        paths[site] = _write_site_json(out_dir, site, payload)
    return paths


def day_grouped_export_ds(arts_ds, out_dir: str) -> dict[str, str]:
    """Distributed reference-shape JSON export: ``groupby(site).map_groups``
    writers — each site's payload is built and written INSIDE its group
    task, so the driver only ever sees O(sites) path rows. Partitioning
    assumption: one site's output fits one worker, which the output format
    itself imposes (the reference shape IS one JSON file per site); a
    larger-than-worker site needs a different sink — use
    ``write_documents_ds`` (partition-parallel parquet) for that. Workers
    write to ``out_dir`` directly, so multi-node runs need it on shared
    storage (same contract as every partitioned writer here)."""
    import pandas as pd

    os.makedirs(out_dir, exist_ok=True)
    # driver snapshot: workers' module-level SITES lacks dynamically
    # registered plugin sites (the _spans_batch fix pattern, 9c316da)
    site_flags = {s: (c.sort_in_group, c.has_summary) for s, c in SITES.items()}

    def write_site(g: pd.DataFrame) -> pa.Table:
        site = str(g["site"].iloc[0])
        path = _write_site_json(
            out_dir, site, _site_payload(site, g, flags=site_flags[site])
        )
        return pa.Table.from_pydict(
            {"site": pa.array([site], pa.string()), "path": pa.array([path], pa.string())}
        )

    got = (
        arts_ds.groupby("site")
        .map_groups(write_site, batch_format="pandas")
        .to_pandas()  # O(sites) rows
    )
    # zero-article dataset → empty, schema-less groupby result (exercised
    # by fully-seen re-crawls): no written paths, only the K2 empty files
    paths = (
        dict(zip(got["site"], got["path"])) if "site" in got.columns else {}
    )
    for site in SITES:  # K2: empty sites still get a well-formed file
        if site not in paths:
            paths[site] = _write_site_json(out_dir, site, [])
    return paths


def get_existing_links(path: str) -> set[str]:
    """The reference's existing-output reader (SURVEY S5;
    `Google_Crawler.py:112-145` semantics — the most defensive of the ten):
    parse ONE site's day-grouped JSON output into its seen-URL set.
    Tolerance contract mirrored exactly: missing file → CREATE it with an
    empty list and return empty; non-list payload → reset (empty);
    malformed day entries / article records skipped; JSON decode error or
    any other read failure → empty set (start fresh)."""
    try:
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as f:
                json.dump([], f, ensure_ascii=False, indent=2)
            return set()
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, list):
            return set()
        links: set[str] = set()
        for day in data:
            if isinstance(day, dict) and isinstance(day.get("articles"), list):
                for a in day["articles"]:
                    if isinstance(a, dict) and "url" in a:
                        links.add(a["url"])
        return links
    except (json.JSONDecodeError, OSError):
        return set()
    except Exception:  # reference: ANY read error starts fresh
        return set()


def load_existing_links(out_dir: str) -> dict[str, set[str]]:
    """Every site's seen-URL set from a day-grouped export directory
    (`{site}_News.json` per site; absent files are created empty — the
    reference's first-run behavior). Feed files are feed-sized by
    construction, so the driver-side parse is the reference's own
    contract, not a corpus materialization."""
    os.makedirs(out_dir, exist_ok=True)
    return {
        site: get_existing_links(os.path.join(out_dir, f"{site}_News.json"))
        for site in SITES
    }


def merge_feed(new_items: list[dict], feed_path: str, cap: int = 50) -> list[dict]:
    """Aggregator load-merge (the missing ``crawler.js``'s behavior, fully
    specified by utils.js): LOAD the existing feed file (tolerant of a
    missing/corrupt file — utils.js:7-15), PREPEND the new items
    (utils.js:18), dedup by link keeping the first occurrence
    (utils.js:26-28 — new items win), cap at the newest ``cap``
    (utils.js:19), and atomically rewrite the file. Returns the merged
    feed list."""
    try:
        with open(feed_path, encoding="utf-8") as f:
            existing = json.load(f)
        if not isinstance(existing, list):
            existing = []
    except (OSError, json.JSONDecodeError):
        existing = []
    merged: list[dict] = []
    seen: set = set()
    for item in list(new_items) + existing:
        link = item.get("link") or item.get("url")
        if link in seen:
            continue
        seen.add(link)
        merged.append(item)
    merged = merged[:cap]
    tmp = feed_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(merged, f, ensure_ascii=False, indent=2)
    os.replace(tmp, feed_path)
    return merged


def newest_feed(arts: pa.Table, cap: int = 50) -> pa.Table:
    """The aggregator's capped rolling feed (K3/O3): newest ``cap`` items by
    (time desc, url asc), link-deduped."""
    import pyarrow.compute as pc

    order = pc.sort_indices(
        arts, sort_keys=[("time", "descending"), ("url", "ascending")]
    )
    sorted_arts = arts.take(order)
    seen: set[str] = set()
    keep = []
    for u in sorted_arts["url"].to_pylist():
        keep.append(u not in seen)
        seen.add(u)
    deduped = sorted_arts.filter(pa.array(keep, pa.bool_()))
    return deduped.slice(0, cap)
