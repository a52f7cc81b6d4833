"""Checkpoint/resume (SURVEY.md §5.4, north_rule): kill after wave k, resume,
assert identical final output and NO re-fetch."""

import json
import os
import tempfile

import pyarrow.parquet as pq
import pytest
import ray
import ray.data
from conftest import tables

from newsray import checkpoint as ckpt
from newsray.oracle import run_oracle
from newsray.pipeline import CrawlPipeline, PipelineConfig
from newsray.policy import CrawlPolicy
from newsray.seen import shard_of
from newsray.synth import SyntheticWeb, WebParams

SITES_MINI = ("nate", "naver", "google", "skydaily")


def _fetch_pairs(flog):
    return sorted(zip(flog["discovered_seq"].to_pylist(), flog["canon_url"].to_pylist()))


def test_kill_and_resume_no_refetch(ray_session):
    params = WebParams(only_sites=SITES_MINI)
    policy = CrawlPolicy()
    with tempfile.TemporaryDirectory() as root:
        # interrupted run: killed after 2 waves (max_waves as the kill switch)
        killed = CrawlPipeline(
            PipelineConfig(
                web_params=params,
                policy=CrawlPolicy(max_waves=2),
                checkpoint_dir=os.path.join(root, "ck"),
            )
        )
        part = killed.run()
        assert tables(part)[2].num_rows > 0
        manifest = json.load(open(os.path.join(root, "ck", "manifest.json")))
        assert manifest["completed_waves"] == [0, 1]

        # resume with the full wave budget
        resumed = CrawlPipeline(
            PipelineConfig(
                web_params=params, policy=policy, checkpoint_dir=os.path.join(root, "ck")
            )
        )
        assert ckpt.restore(resumed, os.path.join(root, "ck"))
        assert resumed.start_wave == 2
        res = resumed.run()
        # restored and live waves alike hand their fetch logs out as datasets
        assert len(res["fetch_logs"]) > resumed.start_wave
        assert all(isinstance(f, ray.data.Dataset) for f in res["fetch_logs"])
        arts, _, flog = tables(res)

        # uninterrupted reference run + oracle
        ora = run_oracle(SyntheticWeb(params), policy)
        assert _fetch_pairs(flog) == ora.fetch_order()
        assert sorted(arts["url"].to_pylist()) == sorted(
            r["url"] for r in ora.articles
        )
        # no re-fetch: waves 0-1 fetches appear exactly once (from the log
        # replay), and the resumed waves are disjoint from them
        waves = flog["wave"].to_pylist()
        seqs = flog["discovered_seq"].to_pylist()
        assert len(seqs) == len(set(seqs))
        pre = {s for s, w in zip(seqs, waves) if w < 2}
        post = {s for s, w in zip(seqs, waves) if w >= 2}
        assert pre and post and not (pre & post)


def test_wave_checkpoint_layout(ray_session):
    params = WebParams(only_sites=("fnnews", "gukje"))
    with tempfile.TemporaryDirectory() as root:
        pipe = CrawlPipeline(
            PipelineConfig(
                web_params=params, policy=CrawlPolicy(), checkpoint_dir=root
            )
        )
        pipe.run()
        manifest = json.load(open(os.path.join(root, "manifest.json")))
        assert manifest["layout"] == ckpt.LAYOUT_VERSION
        waves = manifest["completed_waves"]
        assert len(waves) >= 2
        # no shard counts, routing or log offsets: restore takes any topology
        assert set(manifest) == {"layout", "wave_rows", "completed_waves"}
        kinds = set()
        for w in waves:
            d = os.path.join(root, f"wave_{w:03d}")
            # one rows dataset per wave is the only per-wave state
            assert set(os.listdir(d)) == {"rows", "metrics.json"}, (w, os.listdir(d))
            files = ckpt._rows_files(root, w)
            assert manifest["wave_rows"][str(w)] == ckpt._num_rows(files) > 0
            kinds |= set(pq.read_table(files, columns=["rowkind"])["rowkind"].to_pylist())
        # fnnews and gukje are single-hop, not title-seen: no frontier or
        # tseen rows; the claim rows carry the URL-seen set
        assert kinds == {"flog", "next", "doc", "useen"}, kinds


def test_crashed_wave_attempt_cleared_on_rerun(tmp_path):
    """A wave dir on disk but NOT in the manifest is a crashed mid-write
    attempt: the rerun's write_frontier_in must clear it so restore cannot
    read duplicated partial parquet (ADVICE round 1)."""
    import pyarrow as pa

    from newsray import checkpoint as ckpt

    root = str(tmp_path)
    seen = pa.table({"site": ["nate"], "canon_url": ["http://a.test/x"]})
    for w in (0, 3):
        d = os.path.join(root, f"wave_{w:03d}")
        leftover = os.path.join(d, "rows")
        os.makedirs(leftover)
        with open(os.path.join(leftover, "partial-uuid.parquet"), "w") as f:
            f.write("garbage from a crashed attempt")
        ckpt.write_frontier_in(root, w, seen)
        # the crashed attempt is gone; only wave 0 persists bootstrap URLs
        assert not os.path.exists(leftover)
        assert os.listdir(d) == (["seen_in.parquet"] if w == 0 else [])

    # but a wave recorded complete in the manifest is NEVER cleared
    ckpt._atomic_json(
        os.path.join(root, "manifest.json"),
        {"completed_waves": [4]},
    )
    d4 = os.path.join(root, "wave_004")
    os.makedirs(d4)
    keep = os.path.join(d4, "metrics.json")
    with open(keep, "w") as f:
        f.write("{}")
    ckpt.write_frontier_in(root, 4, seen)
    assert os.path.exists(keep)


def test_rerun_same_checkpoint_dir_auto_resumes(ray_session):
    """ADVICE r2 (high): a re-submitted job with the same --checkpoint-dir
    must RESUME from the manifest, not start at wave 0 and corrupt the
    seen-delta chain. run() now auto-restores; the resumed run's output must
    equal the uninterrupted reference and re-fetch nothing."""
    params = WebParams(only_sites=("fnnews", "gukje", "nate"))
    policy = CrawlPolicy()
    with tempfile.TemporaryDirectory() as root:
        ck = os.path.join(root, "ck")
        CrawlPipeline(
            PipelineConfig(
                web_params=params, policy=CrawlPolicy(max_waves=2),
                checkpoint_dir=ck,
            )
        ).run()
        # SECOND pipeline over the same dir, NO explicit restore call
        resumed = CrawlPipeline(
            PipelineConfig(web_params=params, policy=policy, checkpoint_dir=ck)
        )
        # restored wave docs stay DISTRIBUTED (VERDICT r2 #4): finalize
        # reads them from the restored waves' rows files
        res = resumed.run()
        assert resumed.start_wave >= 2  # auto-restored, did not restart
        assert resumed._restored_row_files == [
            f for w in range(resumed.start_wave) for f in ckpt._rows_files(ck, w)
        ]
        assert resumed._restored_row_files
        ora = run_oracle(SyntheticWeb(params), policy)
        arts, _, flog = tables(res)
        assert _fetch_pairs(flog) == ora.fetch_order()
        assert sorted(arts["url"].to_pylist()) == sorted(
            r["url"] for r in ora.articles
        )
        seqs = flog["discovered_seq"].to_pylist()
        assert len(seqs) == len(set(seqs))  # no re-fetch


def test_write_wave_refuses_completed_and_unrestored(ray_session, tmp_path):
    """ADVICE r2 (medium): write_wave takes only the wave after the
    manifest's last completed one, so it refuses (a) re-writing a completed
    wave, which is also what a fresh pipeline that was not restored tries
    first, and (b) a wave past the next one."""
    import pyarrow as pa

    root = str(tmp_path)
    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    with pytest.raises(ValueError, match="takes wave 0 next, not wave 1"):
        ckpt.write_wave(root, 1, empty, {})
    ckpt.write_wave(root, 0, empty, {})
    ckpt.write_wave(root, 1, empty, {})
    with pytest.raises(ValueError, match="takes wave 2 next, not wave 0"):
        ckpt.write_wave(root, 0, empty, {})
    with pytest.raises(ValueError, match="takes wave 2 next, not wave 1"):
        ckpt.write_wave(root, 1, empty, {})
    with pytest.raises(ValueError, match="takes wave 2 next, not wave 3"):
        ckpt.write_wave(root, 3, empty, {})
    assert json.load(open(os.path.join(root, "manifest.json")))["completed_waves"] == [0, 1]


def _released(flog) -> dict:
    return dict(zip(flog["discovered_seq"].to_pylist(), flog["released_at_virtual"].to_pylist()))


def test_resume_at_other_shard_counts(ray_session, tmp_path):
    """A crawl checkpointed at 1 shard and killed after wave 1 resumes at 4
    shards: restore re-routes every seen key and replays every host's
    grants onto its routing shard, so the seen set right after restore
    equals the killed run's, the per-host budget cuts and the virtual
    release clocks continue exactly, and the output equals the oracle with
    nothing re-fetched. The budget (16) bites after the resume on nate,
    which fetches 8 pages in waves 0-1 and 8 more in waves 2-4.
    Web seed 7 has, in wave 1, a new URL whose title was seen in wave 0:
    its URL key must reach the checkpoint although its title claim
    loses."""
    params = WebParams(seed=7, only_sites=SITES_MINI)
    policy = CrawlPolicy(host_budget=16)
    ck = str(tmp_path / "ck")

    def pipe(n_seen, pol):
        return CrawlPipeline(
            PipelineConfig(
                web_params=params, policy=pol, checkpoint_dir=ck, n_seen_shards=n_seen,
            )
        )

    killed = pipe(1, CrawlPolicy(host_budget=16, max_waves=2))
    hosts = sorted(set(tables(killed.run())[2]["host"].to_pylist()))
    resumed = pipe(4, policy)
    assert ckpt.restore(resumed, ck)
    assert resumed.start_wave == 2
    assert resumed.dump_seen() == killed.dump_seen()
    # each key sits on the shard the resumed pool's lookups route it to
    for i, keys in enumerate(ray.get([s.dump.remote() for s in resumed.seen_shards])):
        assert keys and all(shard_of(k, 4) == i for k in keys), i
    # and so does each host's politeness clock: a zero-slot reserve, which
    # changes no state, reads it back from every shard
    shards = resumed.seen_shards
    for h in hosts:
        starts = ray.get([s.reserve.remote(h, 0, 1.0) for s in shards])
        assert [i for i, (t, _) in enumerate(starts) if t] == [shard_of("h:" + h, 4)], h
    res = resumed.run()
    arts, _, flog = tables(res)

    ora = run_oracle(SyntheticWeb(params), policy)
    assert _fetch_pairs(flog) == ora.fetch_order()
    assert sorted(arts["url"].to_pylist()) == sorted(r["url"] for r in ora.articles)
    assert resumed.dump_seen() == (ora.url_seen, ora.title_seen)
    waves = flog["wave"].to_pylist()
    seqs = flog["discovered_seq"].to_pylist()
    assert len(seqs) == len(set(seqs))  # nothing re-fetched
    assert max(waves) == 4
    nate = [w for w, h in zip(waves, flog["host"].to_pylist()) if h == "news.nate.test"]
    assert len(nate) == 16 and nate.count(0) + nate.count(1) == 8

    whole = CrawlPipeline(PipelineConfig(web_params=params, policy=policy))
    assert _released(flog) == _released(tables(whole.run())[2])
    for p in (killed, resumed, whole):
        p.shutdown()


def test_resume_streaming_finalize_fuzzy_exact(ray_session, tmp_path):
    """Resume + STREAMING finalize: the fuzzy scan reads the restored
    waves' doc rows from their checkpoint rows files and the live waves'
    from their blocks, the fuzzy site's output still matches the
    sequential oracle exactly, and both sinks read the once-materialized
    articles."""
    from ray.data.dataset import MaterializedDataset

    from newsray import sink

    params = WebParams(only_sites=("google", "nate"))  # google = fuzzy site
    policy = CrawlPolicy()
    ck = str(tmp_path / "ck")
    CrawlPipeline(
        PipelineConfig(
            web_params=params, policy=CrawlPolicy(max_waves=1),
            checkpoint_dir=ck,
        )
    ).run()
    resumed = CrawlPipeline(
        PipelineConfig(web_params=params, policy=policy, checkpoint_dir=ck)
    )
    res = resumed.run()
    assert resumed.start_wave >= 1
    assert resumed._restored_row_files
    assert isinstance(res["articles_ds"], MaterializedDataset)
    got = sorted(
        u for b in res["articles_ds"].iter_batches(batch_format="pyarrow")
        for u in b["url"].to_pylist()
    )
    ora = run_oracle(SyntheticWeb(params), policy)
    want = sorted(r["url"] for r in ora.articles)
    assert got == want
    sink.write_documents_ds(res["articles_ds"], str(tmp_path / "docs"))
    assert sorted(sink.read_documents(str(tmp_path / "docs"))["doc_id"].to_pylist()) == want
    sink.day_grouped_export_ds(res["articles_ds"], str(tmp_path / "json"))
    exported = []
    for fn in os.listdir(tmp_path / "json"):
        for day in json.load(open(tmp_path / "json" / fn, encoding="utf-8")):
            exported.extend(a["url"] for a in day["articles"])
    assert sorted(exported) == want


def _two_wave_checkpoint(root: str) -> None:
    CrawlPipeline(
        PipelineConfig(
            web_params=WebParams(only_sites=("fnnews", "gukje")),
            policy=CrawlPolicy(max_waves=2),
            checkpoint_dir=root,
        )
    ).run()


def _fresh_pipeline(root: str) -> CrawlPipeline:
    return CrawlPipeline(
        PipelineConfig(
            web_params=WebParams(only_sites=("fnnews", "gukje")),
            policy=CrawlPolicy(),
            checkpoint_dir=root,
        )
    )


def test_restore_refuses_old_layout(ray_session, tmp_path):
    """A checkpoint in the pre-rows layout (docs / next_frontier /
    fetch_log per wave, no layout version) must not resume as if its waves
    were empty."""
    root = str(tmp_path)
    _two_wave_checkpoint(root)
    manifest = json.load(open(os.path.join(root, "manifest.json")))
    del manifest["layout"], manifest["wave_rows"]
    ckpt._atomic_json(os.path.join(root, "manifest.json"), manifest)
    with pytest.raises(ValueError, match="layout"):
        ckpt.restore(_fresh_pipeline(root), root)


def test_restore_refuses_missing_rows(ray_session, tmp_path):
    """A completed wave whose rows files are gone while the manifest
    records rows must raise, not read back as an empty wave."""
    import shutil

    root = str(tmp_path)
    _two_wave_checkpoint(root)
    manifest = json.load(open(os.path.join(root, "manifest.json")))
    assert manifest["wave_rows"]["1"] > 0
    shutil.rmtree(os.path.join(root, "wave_001", "rows"))
    with pytest.raises(ValueError, match="rows files hold 0 rows"):
        ckpt.restore(_fresh_pipeline(root), root)


def test_post_barrier_blocks_follow_row_target(ray_session, tmp_path):
    """After the wave barrier, block and file counts follow the rows, not
    waves x fetch fan-out: a crawl of 3+ waves at 16 fetch blocks per wave
    finalizes into at most one articles block per POST_BARRIER_ROWS input
    rows (+1), and each wave checkpoints at most one rows file per
    POST_BARRIER_ROWS rows (+1). The output stays oracle-exact."""
    from newsray.pipeline import POST_BARRIER_ROWS

    params, policy = WebParams(only_sites=("google", "nate")), CrawlPolicy()
    ck = str(tmp_path / "ck")
    pipe = CrawlPipeline(
        PipelineConfig(
            web_params=params, policy=policy, checkpoint_dir=ck, repartition_blocks=16
        )
    )
    res = pipe.run()
    manifest = json.load(open(os.path.join(ck, "manifest.json")))
    waves = manifest["completed_waves"]
    assert len(waves) >= 3
    # the fan-out the post-barrier stages no longer pay per block
    wave_blocks = sum(d.num_blocks() for d in pipe._wave_ds)
    assert wave_blocks >= 16, wave_blocks
    rows_in = sum(d.count() for d in pipe._wave_ds)
    assert res["articles_ds"].num_blocks() <= rows_in // POST_BARRIER_ROWS + 1
    for w in waves:
        n_files = len(ckpt._rows_files(ck, w))
        assert n_files <= manifest["wave_rows"][str(w)] // POST_BARRIER_ROWS + 1, (w, n_files)
        # the fetch-log view runs one task per POST_BARRIER_ROWS rows too
        flog = res["fetch_logs"][w].materialize()
        assert flog.num_blocks() <= pipe._wave_ds[w].count() // POST_BARRIER_ROWS + 1, w
    ora = run_oracle(SyntheticWeb(params), policy)
    got = sorted(
        (r["discovered_seq"], r["url"], r["title"]) for r in res["articles_ds"].take_all()
    )
    assert got == sorted((r["discovered_seq"], r["url"], r["title"]) for r in ora.articles)
    assert _fetch_pairs(tables(res)[2]) == ora.fetch_order()
    pipe.shutdown()


def test_back_to_back_killed_resumed_crawls(ray_session, tmp_path):
    """Two killed-and-resumed crawls, one after the other in one Ray
    session (a long-lived session runs many jobs): each equals the oracle
    in fetch order, pages counted, seen sets and articles, re-fetches
    nothing after the resume, and its docs written = exported = read
    back."""
    from newsray import sink

    params, policy = WebParams(only_sites=("google", "nate", "naver")), CrawlPolicy()
    ora = run_oracle(SyntheticWeb(params), policy)
    want = sorted(r["url"] for r in ora.articles)
    for job in range(2):
        d = tmp_path / f"job{job}"
        ck = str(d / "ck")
        killed = CrawlPipeline(
            PipelineConfig(web_params=params, policy=CrawlPolicy(max_waves=2), checkpoint_dir=ck)
        )
        killed.run()
        resumed = CrawlPipeline(
            PipelineConfig(web_params=params, policy=policy, checkpoint_dir=ck)
        )
        res = resumed.run()
        assert resumed.start_wave == 2, job
        sink.write_documents_ds(res["articles_ds"], str(d / "docs"))
        sink.day_grouped_export_ds(res["articles_ds"], str(d / "json"))
        back = sorted(sink.read_documents(str(d / "docs"))["doc_id"].to_pylist())
        written = sum(
            ckpt._num_rows([os.path.join(p, f) for f in fs if f.endswith(".parquet")])
            for p, _, fs in os.walk(d / "docs")
        )
        exported = []
        for fn in os.listdir(d / "json"):
            for day in json.load(open(d / "json" / fn, encoding="utf-8")):
                exported.extend(a["url"] for a in day["articles"])
        assert back == want, job
        assert written == len(exported) == len(back), job
        assert sorted(exported) == want, job
        pairs = _fetch_pairs(tables(res)[2])
        assert pairs == ora.fetch_order(), job
        assert len({s for s, _ in pairs}) == len(pairs), job  # nothing re-fetched
        waves = killed.wave_metrics + resumed.wave_metrics[resumed.start_wave:]
        assert sum(m["fetched"] for m in waves) == len(ora.fetch_log), job
        assert resumed.dump_seen() == (ora.url_seen, ora.title_seen), job
        killed.shutdown()
        resumed.shutdown()
