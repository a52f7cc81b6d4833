"""Sink tests: partitioned documents layout, day-grouped JSON export (K1/K2),
capped newest feed (K3/O3)."""

import json
import os
import tempfile

import pytest

from newsray.pipeline import CrawlPipeline, PipelineConfig
from newsray.policy import CrawlPolicy
from newsray.sink import day_grouped_export, newest_feed, read_documents, write_documents
from newsray.sites import SITES
from newsray.synth import WebParams


@pytest.fixture(scope="module")
def arts(ray_session):
    pipe = CrawlPipeline(
        PipelineConfig(
            web_params=WebParams(only_sites=("nate", "naver", "google", "voa")),
            policy=CrawlPolicy(),
        )
    )
    return pipe.run()["articles"]


def test_partitioned_documents_roundtrip(arts):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "docs")
        written = write_documents(arts, out)
        # backend-agnostic: lance when a wheel is present, parquet otherwise
        from newsray.sink import DOCUMENTS_BACKEND

        ext = ".lance" if DOCUMENTS_BACKEND == "lance" else ".parquet"
        assert written and all(p.endswith(ext) for p in written)
        # hive-partitioned by site/day + completion manifest
        assert any("site=nate" in p for p in written)
        manifest = json.load(open(os.path.join(out, "_manifest.json")))
        assert len(manifest["parts"]) == len(written)
        assert manifest["run_id"]  # run-scoped skip-list (resume soundness)
        back = read_documents(out)
        assert back.num_rows == arts.num_rows
        assert set(back.column_names) >= {"doc_id", "spans"}


def test_day_grouped_export_shape(arts):
    with tempfile.TemporaryDirectory() as d:
        paths = day_grouped_export(arts, d)
        assert set(paths) == set(SITES)  # K2: every site file exists
        nate = json.load(open(paths["nate"], encoding="utf-8"))
        assert isinstance(nate, list) and nate
        day = nate[0]
        assert set(day) == {"date", "articles"}
        assert "일" in day["date"]
        a = day["articles"][0]
        assert {"title", "time", "img", "url", "original_url"} <= set(a)
        assert "summary" not in a  # nate has no summary field
        naver = json.load(open(paths["naver"], encoding="utf-8"))
        assert any("summary" in a for d_ in naver for a in d_["articles"])
        # empty site (not crawled) → well-formed []
        assert json.load(open(paths["fnnews"])) == []


def test_newest_feed_cap_order_dedup(arts):
    feed = newest_feed(arts, cap=50)
    assert feed.num_rows == min(50, arts.num_rows)
    times = feed["time"].to_pylist()
    assert times == sorted(times, reverse=True)
    urls = feed["url"].to_pylist()
    assert len(urls) == len(set(urls))


def test_merge_feed_load_prepend_dedup_cap(tmp_path):
    """utils.js semantics: load existing → prepend new → link-dedup (new
    wins) → cap 50 → rewrite; corrupt/missing files reset to empty."""
    import json

    from newsray.sink import merge_feed

    feed = tmp_path / "news.json"
    # missing file → feed is just the new items
    out = merge_feed([{"link": "u1", "title": "a"}], str(feed))
    assert [i["link"] for i in out] == ["u1"]
    # prepend + dedup by link: the NEW copy of u1 wins, order new-first
    out = merge_feed(
        [{"link": "u2", "title": "b"}, {"link": "u1", "title": "a2"}], str(feed)
    )
    assert [i["link"] for i in out] == ["u2", "u1"]
    assert out[1]["title"] == "a2"
    assert json.loads(feed.read_text())[0]["link"] == "u2"
    # cap at 50 newest
    out = merge_feed([{"link": f"n{i}"} for i in range(60)], str(feed))
    assert len(out) == 50 and out[0]["link"] == "n0"
    # corrupt file recovers (Google_Crawler.py:135-138 shape)
    feed.write_text("{not json")
    out = merge_feed([{"link": "x"}], str(feed))
    assert [i["link"] for i in out] == ["x"]


def test_keyword_config_roundtrip(tmp_path):
    """The reference's keyword-config format loads to the same flattened
    lists the synthetic generator produces (Daum_crawler.py:17-23 parity)."""
    from newsray.synth import build_keywords, load_keyword_config, write_keyword_config

    p = tmp_path / "News_keyword.json"
    write_keyword_config(str(p))
    inc, exc, rows = load_keyword_config(str(p))
    binc, bexc, brows = build_keywords()
    assert sorted(inc) == sorted(binc)
    assert sorted(exc) == sorted(bexc)
    assert {r["polarity"] for r in rows} == {"include", "exclude"}
    assert len(rows) == len(brows)
    cats = {r["category"] for r in rows if r["polarity"] == "include"}
    assert len(cats) == 6  # mirror of the reference's 6 include categories


def test_write_documents_ds_partitioned(ray_session, tmp_path):
    """Scale write path: distributed partitioned parquet, one directory per
    (site, day), readable back as the same document rows."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.policy import CrawlPolicy
    from newsray.sink import write_documents_ds
    from newsray.synth import WebParams

    res = CrawlPipeline(
        PipelineConfig(web_params=WebParams(only_sites=("fnnews", "gukje")),
                       policy=CrawlPolicy())
    ).run()
    out = str(tmp_path / "docs")
    write_documents_ds(res["articles_ds"], out)
    parts = sorted(
        os.path.join(r, d) for r, ds, _ in os.walk(out) for d in ds if d.startswith("day=")
    )
    assert parts, "expected site=/day= partition directories"
    back = pq.read_table(out)
    n_arts = res["articles_ds"].count()
    assert back.num_rows == n_arts and n_arts > 0
    assert {"doc_id", "spans"} <= set(back.column_names)


def test_job_entrypoint_crawl(tmp_path):
    """`python -m newsray crawl` — the `ray job submit` surface: owns its own
    Ray session in a fresh process, writes partitioned documents straight
    from the object store, prints one JSON summary line."""
    import subprocess
    import sys

    out_dir = os.path.join(str(tmp_path), "docs")
    r = subprocess.run(
        [
            sys.executable, "-m", "newsray", "crawl",
            "--out", out_dir, "--sites", "fnnews,gukje", "--num-cpus", "2",
        ],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["cmd"] == "crawl" and summary["pages_fetched"] > 0
    back = read_documents(out_dir)
    assert back.num_rows > 0
    assert {"doc_id", "spans", "site", "day"} <= set(back.column_names)


def test_write_documents_resume_skips_finished_partitions(arts, tmp_path):
    """Interrupted-export resume: partitions committed to _manifest.json are
    SKIPPED on re-run (file mtimes untouched), unfinished ones written."""
    import time as _time

    out = str(tmp_path / "docs")
    written = write_documents(arts, out)
    assert written
    manifest_path = os.path.join(out, "_manifest.json")
    mani = json.load(open(manifest_path))
    full = mani["parts"]

    # simulate a crash after HALF the partitions committed: truncate the
    # manifest (same run_id) and delete the corresponding data dirs
    keep, redo = full[: len(full) // 2], full[len(full) // 2 :]
    assert keep and redo
    import shutil

    for label in redo:
        shutil.rmtree(os.path.join(out, label))
    with open(manifest_path, "w") as f:
        json.dump({"run_id": mani["run_id"], "parts": keep}, f)
    mtimes_before = {
        label: os.path.getmtime(os.path.join(out, label)) for label in keep
    }
    _time.sleep(0.05)

    rewritten = write_documents(arts, out)  # resume
    # only the missing partitions were written
    assert len(rewritten) == len(redo)
    for label in keep:
        assert os.path.getmtime(os.path.join(out, label)) == mtimes_before[label]
    # manifest back to the full set; data complete
    assert sorted(json.load(open(manifest_path))["parts"]) == sorted(full)
    assert read_documents(out).num_rows == arts.num_rows

    # a DIFFERENT article set aimed at the same dir must refuse loudly
    # (silently skipping its rows is data loss, silently rewriting is dup)
    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents(arts.slice(0, arts.num_rows - 1), out)


def test_write_documents_ds_resume_skips_finished_partitions(ray_session, tmp_path):
    """Scale path resume: rows of manifested partitions are filtered inside
    the partition map; only unfinished partitions gain files on re-run."""
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.sink import write_documents_ds
    from newsray.synth import WebParams

    import pyarrow.parquet as pq
    import shutil

    res = CrawlPipeline(
        PipelineConfig(web_params=WebParams(only_sites=("fnnews", "gukje")),
                       policy=CrawlPolicy())
    ).run()
    out = str(tmp_path / "docs")
    arts_tbl = res["articles_ds"].materialize()
    write_documents_ds(arts_tbl, out)
    n_total = pq.read_table(out).num_rows
    manifest_path = os.path.join(out, "_manifest.json")
    mani = json.load(open(manifest_path))
    full = sorted(mani["parts"])
    assert n_total > 0 and full

    # crash simulation A: half the partitions never committed to the
    # manifest AND their files are still on disk (write_parquet died after
    # writing them) — the resume must DELETE those leftovers first, or the
    # appended re-write would duplicate their rows
    keep, redo = full[: len(full) // 2], full[len(full) // 2 :]
    assert keep and redo
    with open(manifest_path, "w") as f:
        json.dump({"run_id": mani["run_id"], "parts": keep}, f)
    files_before = {
        label: sorted(os.listdir(os.path.join(out, label))) for label in keep
    }

    write_documents_ds(arts_tbl, out)  # resume
    # finished partitions untouched (same file listing), crashed ones
    # rebuilt cleanly: total row count EXACTLY the original (no dups)
    for label in keep:
        assert sorted(os.listdir(os.path.join(out, label))) == files_before[label]
    assert sorted(json.load(open(manifest_path))["parts"]) == full
    assert pq.read_table(out).num_rows == n_total

    # crash simulation B: dirs deleted too (classic partial loss)
    for label in redo:
        shutil.rmtree(os.path.join(out, label))
    with open(manifest_path, "w") as f:
        json.dump({"run_id": mani["run_id"], "parts": keep}, f)
    write_documents_ds(arts_tbl, out)
    assert pq.read_table(out).num_rows == n_total

    # a DIFFERENT dataset aimed at the same dir must refuse loudly
    import pytest

    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents_ds(arts_tbl.limit(arts_tbl.count() - 1), out)


def test_legacy_manifest_rewrites_instead_of_refusing(arts, tmp_path):
    """A legacy bare-list _manifest.json carries no run identity: the
    export must treat it like a corrupt manifest (clean unmanifested dirs,
    rewrite everything) rather than raising — re-exporting the identical
    article set into a pre-upgrade output dir must just work."""
    out = str(tmp_path / "docs")
    written = write_documents(arts, out)
    assert written
    manifest_path = os.path.join(out, "_manifest.json")
    parts = json.load(open(manifest_path))["parts"]
    with open(manifest_path, "w") as f:
        json.dump(parts, f)  # downgrade to the legacy bare-list shape
    rewritten = write_documents(arts, out)  # no RuntimeError
    assert len(rewritten) == len(parts)  # no resume info → full rewrite
    assert sorted(json.load(open(manifest_path))["parts"]) == sorted(parts)
    assert read_documents(out).num_rows == arts.num_rows


def test_run_fingerprint_content_sensitive(arts, tmp_path):
    """Two article sets with the IDENTICAL discovered_seq population but
    different content must fingerprint as different runs (else finished
    partitions holding stale rows are silently skipped on re-export)."""
    import pyarrow as pa

    out = str(tmp_path / "docs")
    write_documents(arts, out)
    i = arts.column_names.index("url")
    urls = arts["url"].to_pylist()
    urls[0] = urls[0] + "?v=2"  # same seq population, one changed row
    changed = arts.set_column(i, "url", pa.array(urls, arts.schema.field("url").type))
    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents(changed, out)


def test_day_grouped_export_ds_matches_table_path(arts, tmp_path):
    """The distributed per-site writers must produce byte-identical JSON to
    the driver (reference-parity) path."""
    import ray.data as rd

    from newsray.sink import day_grouped_export_ds

    d1, d2 = str(tmp_path / "t"), str(tmp_path / "ds")
    p1 = day_grouped_export(arts, d1)
    p2 = day_grouped_export_ds(rd.from_arrow(arts), d2)
    assert set(p1) == set(p2) == set(SITES)
    for site in SITES:
        with open(p1[site], "rb") as a, open(p2[site], "rb") as b:
            assert a.read() == b.read(), site


def test_precsum_manifest_rewrites_instead_of_refusing(arts, tmp_path):
    """A pre-upgrade DICT manifest (run_id fingerprinted from the seq
    population only, before the content csum was folded in) identifies the
    same seq stats but unverifiable content: the export must treat it like
    the bare-list legacy shape — clean + full rewrite — not refuse with
    'DIFFERENT run' on the identical article set."""
    import json as _json

    from newsray.sink import _legacy_fingerprint

    out = str(tmp_path / "docs")
    written = write_documents(arts, out)
    manifest_path = os.path.join(out, "_manifest.json")
    parts = _json.load(open(manifest_path))["parts"]
    seqs = arts["discovered_seq"].to_pylist()
    old_id = _legacy_fingerprint(len(seqs), min(seqs), max(seqs), sum(seqs))
    with open(manifest_path, "w") as f:
        _json.dump({"run_id": old_id, "parts": parts}, f)  # pre-csum shape
    rewritten = write_documents(arts, out)  # no RuntimeError
    assert len(rewritten) == len(written)  # no resume info → full rewrite
    assert read_documents(out).num_rows == arts.num_rows


def test_day_grouped_export_ds_empty_and_plugin_site(ray_session, arts, tmp_path):
    """(a) A zero-article dataset must still write the contractual K2 empty
    per-site files instead of crashing on the schema-less groupby result.
    (b) A dynamically registered plugin site must export through the ds
    path's worker-side writers (worker SITES lacks the registration — the
    flags ride the closure snapshot)."""
    import dataclasses
    import json as _json

    import pyarrow as pa
    import ray.data as rd

    from newsray.sink import day_grouped_export_ds
    from newsray.sites import HOST_TO_SITE, SITE_RANK, SITES

    # (a) empty dataset → well-formed empty JSON per site
    d1 = str(tmp_path / "empty")
    paths = day_grouped_export_ds(rd.from_arrow(arts.slice(0, 0)), d1)
    assert set(paths) == set(SITES)
    for p in paths.values():
        assert _json.load(open(p, encoding="utf-8")) == []

    # (b) plugin site, registered on the DRIVER only
    base = SITES["naver"]
    cfg = dataclasses.replace(base, site="plugx", host="plugx.test")
    SITES["plugx"] = cfg
    SITE_RANK["plugx"] = max(SITE_RANK.values()) + 1
    HOST_TO_SITE["plugx.test"] = "plugx"
    try:
        one = arts.slice(0, 1)
        i = one.column_names.index("site")
        one = one.set_column(i, "site", pa.array(["plugx"], pa.string()))
        d2 = str(tmp_path / "plug")
        paths = day_grouped_export_ds(rd.from_arrow(one), d2)
        assert "plugx" in paths
        got = _json.load(open(paths["plugx"], encoding="utf-8"))
        assert len(got) == 1 and len(got[0]["articles"]) == 1
    finally:
        del SITES["plugx"], SITE_RANK["plugx"], HOST_TO_SITE["plugx.test"]
