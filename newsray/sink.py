"""Output sinks (SURVEY.md §2.1 K1-K3, §2.6 O1-O3).

The reference rewrites one whole JSON file per site per run (day-grouped,
merged, deduped at save time). Here the crawl's articles Dataset feeds two
sinks, each one distributed path that never collects rows to the driver:

* ``write_documents_ds`` — the interleaved documents table as PARTITIONED
  parquet, one directory per (site, day): the resumable layout (a rerun
  skips finished partitions; nothing is one giant file). The north_rule
  names Lance tables, but no pylance wheel is installed; when one is, the
  backend is Ray's ``Dataset.write_lance`` inside this one writer, with
  the same Arrow schema (SURVEY §7.5.6), not a second writer or a probe.
* ``day_grouped_export_ds`` — the reference's per-site day-group JSON shape
  (articles time-desc inside a group for sort-in-group sites, discovery
  order otherwise; day groups sorted by date label).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from .sites import SITES


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
    bare-list manifest carries no run identity and loads the same way."""
    path = os.path.join(out_dir, "_manifest.json")
    try:
        with open(path) as f:
            data = json.load(f)
        if isinstance(data, dict) and isinstance(data.get("parts"), list):
            return data.get("run_id"), frozenset(data["parts"])
        return None, frozenset()
    except (OSError, ValueError):
        return None, frozenset()


def _resume_parts(out_dir: str, run_id: str) -> frozenset[str]:
    """Partitions safe to skip for THIS run: the manifest's list when its
    run_id matches. A manifest with no run identity (corrupt, or the legacy
    bare-list shape) gives no resume info → rewrite everything (callers
    clean unmanifested partition dirs first, which makes the full rewrite
    duplicate-safe). A manifest from a DIFFERENT identified run — a pre-csum
    export of the same seq population included — refuses loudly: silently
    skipping its partitions would drop the new run's rows that fall into
    them, and rewriting around them would leave the old run's extra
    partitions mixed into the output."""
    stored, parts = _load_manifest(out_dir)
    if not parts or stored is None:
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


def _commit_manifest(out_dir: str, run_id: str, parts: set[str]) -> None:
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


def write_documents_ds(arts_ds, out_dir: str) -> None:
    """The crawl's one documents writer: articles as a distributed Dataset
    → interleaved documents written straight from the object store with
    ``Dataset.write_parquet(partition_cols=...)`` — one directory per
    (site, day), no driver materialization.

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
    done = _resume_parts(out_dir, run_id)
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
    """Read back a partitioned documents export (``write_documents_ds``) as
    one table; the hive read keeps the site/day partition columns."""
    return pq.read_table(out_dir)


def _site_payload(site: str, df, flags: tuple[bool, bool]) -> list[dict]:
    """One site's day-grouped JSON payload (K1 shape): day groups sorted by
    date label; articles time-desc inside a group for sort-in-group sites,
    discovery order otherwise; iso times; absent summary omitted.

    ``flags`` = (sort_in_group, has_summary), snapshotted on the driver:
    this runs inside a Ray worker, whose module-level SITES lacks
    dynamically registered plugin sites (same failure mode as
    `_spans_batch`, fixed 9c316da)."""
    sort_in_group, has_summary = flags
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


def day_grouped_export_ds(arts_ds, out_dir: str) -> dict[str, str]:
    """The crawl's one reference-shape JSON export: one file per site,
    ``[{date, articles: [{title, time, img, url, original_url[, summary]}]}]``
    (K1), written by ``groupby(site).map_groups`` writers — each site's
    payload is built and written INSIDE its group task, so the driver only
    ever sees O(sites) path rows. Partitioning
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
            out_dir, site, _site_payload(site, g, site_flags[site])
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
