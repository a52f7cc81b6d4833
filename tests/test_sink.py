"""Sink tests: the partitioned documents writer (layout, manifest, resume)
and the day-grouped JSON export (K1/K2)."""

import json
import os
import shutil
import tempfile

import pytest
from conftest import tables

from newsray.golden import day_groups_table
from newsray.oracle import run_oracle
from newsray.pipeline import CrawlPipeline, PipelineConfig
from newsray.policy import CrawlPolicy
from newsray.sink import day_grouped_export_ds, read_documents, write_documents_ds
from newsray.sites import SITES
from newsray.synth import SyntheticWeb, WebParams

PARAMS = WebParams(only_sites=("nate", "naver", "google", "voa"))


@pytest.fixture(scope="module")
def res(ray_session):
    return CrawlPipeline(PipelineConfig(web_params=PARAMS, policy=CrawlPolicy())).run()


@pytest.fixture(scope="module")
def arts(res):
    return tables(res)[0]


def test_partitioned_documents_roundtrip(res, arts):
    with tempfile.TemporaryDirectory() as d:
        out = os.path.join(d, "docs")
        write_documents_ds(res["articles_ds"], out)
        # hive-partitioned by site/day + completion manifest
        manifest = json.load(open(os.path.join(out, "_manifest.json")))
        assert any(p.startswith("site=nate/") for p in manifest["parts"])
        for label in manifest["parts"]:
            assert any(f.endswith(".parquet") for f in os.listdir(os.path.join(out, label)))
        assert manifest["run_id"]  # run-scoped skip-list (resume soundness)
        back = read_documents(out)
        assert back.num_rows == arts.num_rows
        assert set(back.column_names) >= {"doc_id", "spans", "site", "day"}


def test_day_grouped_export_shape(res):
    with tempfile.TemporaryDirectory() as d:
        paths = day_grouped_export_ds(res["articles_ds"], d)
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
    lines = r.stdout.splitlines()
    assert len(lines) == 1, r.stdout  # no log line ahead of the summary
    summary = json.loads(lines[0])
    assert summary["cmd"] == "crawl" and summary["pages_fetched"] > 0
    back = read_documents(out_dir)
    assert back.num_rows > 0
    assert {"doc_id", "spans", "site", "day"} <= set(back.column_names)


def test_write_documents_resume_skips_finished_partitions(res, arts, tmp_path):
    """Interrupted-export resume: partitions committed to _manifest.json are
    SKIPPED on re-run (their files untouched), unfinished ones written."""
    import time as _time

    out = str(tmp_path / "docs")
    write_documents_ds(res["articles_ds"], out)
    manifest_path = os.path.join(out, "_manifest.json")
    mani = json.load(open(manifest_path))
    full = mani["parts"]

    # simulate a crash after HALF the partitions committed: truncate the
    # manifest (same run_id) and delete the corresponding data dirs
    keep, redo = full[: len(full) // 2], full[len(full) // 2 :]
    assert keep and redo
    for label in redo:
        shutil.rmtree(os.path.join(out, label))
    with open(manifest_path, "w") as f:
        json.dump({"run_id": mani["run_id"], "parts": keep}, f)

    def mtimes(labels):
        return {
            os.path.join(label, fn): os.path.getmtime(os.path.join(out, label, fn))
            for label in labels
            for fn in os.listdir(os.path.join(out, label))
        }

    before = mtimes(keep)
    _time.sleep(0.05)

    write_documents_ds(res["articles_ds"], out)  # resume
    # finished partitions untouched, the missing ones written again
    assert mtimes(keep) == before
    assert all(os.listdir(os.path.join(out, label)) for label in redo)
    # manifest back to the full set; data complete
    assert sorted(json.load(open(manifest_path))["parts"]) == sorted(full)
    assert read_documents(out).num_rows == arts.num_rows


def test_write_documents_ds_resume_skips_finished_partitions(ray_session, tmp_path):
    """Scale path resume: rows of manifested partitions are filtered inside
    the partition map; only unfinished partitions gain files on re-run."""
    from newsray.pipeline import CrawlPipeline, PipelineConfig
    from newsray.sink import write_documents_ds
    from newsray.synth import WebParams

    import pyarrow.parquet as pq

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

    # a DIFFERENT dataset aimed at the same dir must refuse loudly
    import pytest

    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents_ds(arts_tbl.limit(arts_tbl.count() - 1), out)


def test_legacy_manifest_rewrites_instead_of_refusing(res, arts, tmp_path):
    """A legacy bare-list _manifest.json carries no run identity: the
    export treats it like a corrupt manifest (clean unmanifested dirs,
    rewrite everything, keep none of its labels) rather than raising. A
    pre-csum dict manifest names a run_id this export can never match, so
    it refuses like any other run's export."""
    out = str(tmp_path / "docs")
    write_documents_ds(res["articles_ds"], out)
    manifest_path = os.path.join(out, "_manifest.json")
    parts = json.load(open(manifest_path))["parts"]
    with open(manifest_path, "w") as f:
        json.dump(parts + ["site=gone/day=gone"], f)  # legacy bare-list shape
    write_documents_ds(res["articles_ds"], out)  # no RuntimeError
    assert sorted(json.load(open(manifest_path))["parts"]) == sorted(parts)
    assert read_documents(out).num_rows == arts.num_rows

    with open(manifest_path, "w") as f:
        json.dump({"run_id": "0123456789abcdef", "parts": parts}, f)  # pre-csum id
    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents_ds(res["articles_ds"], out)


def test_run_fingerprint_content_sensitive(res, arts, tmp_path):
    """Two article sets with the IDENTICAL discovered_seq population but
    different content must fingerprint as different runs (else finished
    partitions holding stale rows are silently skipped on re-export)."""
    import pyarrow as pa
    import ray.data as rd

    out = str(tmp_path / "docs")
    write_documents_ds(res["articles_ds"], out)
    i = arts.column_names.index("url")
    urls = arts["url"].to_pylist()
    urls[0] = urls[0] + "?v=2"  # same seq population, one changed row
    changed = arts.set_column(i, "url", pa.array(urls, arts.schema.field("url").type))
    with pytest.raises(RuntimeError, match="DIFFERENT run"):
        write_documents_ds(rd.from_arrow(changed), out)


def test_day_grouped_export_ds_matches_oracle(res, tmp_path):
    """The per-site JSON files equal an independent plain-dict recompute
    of the reference's save-time grouping over the sequential oracle's
    articles: group membership and order, in-group order, every field."""
    from newsray.docspans import read_day_groups

    day_grouped_export_ds(res["articles_ds"], str(tmp_path))
    want = day_groups_table(run_oracle(SyntheticWeb(PARAMS), CrawlPolicy()).articles)
    assert want.num_rows > 0
    assert read_day_groups(str(tmp_path)).to_pylist() == want.to_pylist()


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
