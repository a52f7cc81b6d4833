"""The benchmark's Ray session. ``run.py`` starts :func:`serve` in a child
process and drives it over a pipe one operation at a time, so that a hung
operation can be ended by killing the child's process group.

Operations: ``setup`` (Ray session, imports, warm-up), ``job`` (one
timed unit of work), ``collect`` (reduce the job's outputs to counts and
digests and compare them with the oracle), ``clear_indexes``, ``layers``
(per-layer metrics of a traced run) and ``stop``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
import traceback

# Every workload runs in a 2-CPU Ray session whatever the host: the figures
# must not depend on the machine's core count, and at num_cpus=1
# dedup_minhash_lsh makes no progress (see perfbench/layers.json).
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
PIPE_KW = dict(n_seen_shards=2, n_sched_shards=1, repartition_blocks=8)

# crawl_resume: a breadth web of all ten sites, widened with extra sections
# and long listings, the hot google host carrying 6x. Wave 1 holds most of
# the pages (per-row work); waves 2-4 are short tails (per-wave fixed cost).
# A 5-wave budget makes every seed crawl the same number of waves. The crawl
# is checkpointed every wave, killed after wave 2 (both heavy waves done)
# and resumed in a fresh pipeline.
WEB = dict(extra_sections=4, articles_per_listing=100, hot_factor=6)
RESUME_WAVES = 5
KILL_AFTER_WAVES = 2

SUITE = (
    # dedup / text family (ROADMAP item 2)
    "dedup_minhash_lsh",
    "dedup_simhash",
    "exact_substring_dups",
    "ngram_jaccard_by_source",
    "dedup_minhash_clusters",
    "dedup_keep_best",
    "corpus_clean",
    "doc_chunks",
    "split_contamination",
    # persisted-index probes, timed cold (ROADMAP item 5)
    "term_lookup_indexed",
    "knn_lsh_indexed",
    "bm25_topk",
    # relational controls
    "pricing_summary",
    "revenue_by_priority",
    "events_rollup",
)
# the suite's input: the repository's sf0.01 test tables (those the suite
# reads), copied unchanged; fixed, whatever the seed
SF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sf0.01")
# golden oracle per query without a DuckDB formulation; the rest use the
# query's registered oracle SQL
GOLDEN = {
    "dedup_minhash_lsh": "golden_dedup_minhash_lsh",
    "dedup_simhash": "golden_dedup_simhash",
    "ngram_jaccard_by_source": "golden_ngram_jaccard_by_source",
    "dedup_minhash_clusters": "golden_dedup_minhash_clusters",
    "dedup_keep_best": "golden_dedup_keep_best",
    "knn_lsh_indexed": "golden_knn_lsh_cosine",
    "corpus_clean": "golden_corpus_clean",
}
INDEX_ROOTS = (
    ("newsray.lexical", "POSTINGS_ROOT"),
    ("newsray.ann", "LSH_INDEX_ROOT"),
    ("newsray.ragprep", "CHUNK_INDEX_ROOT"),
)


def serve(conn, cfg: dict) -> None:
    """Child-process entry: lead a new process group (so run.py can end the
    whole Ray tree at once), then answer operations until ``stop``."""
    from .procs import die_with_parent

    os.setsid()
    die_with_parent()  # a killed run.py takes its session with it
    os.dup2(2, 1)  # Ray prints advisories on fd 1; run.py owns stdout
    session = Session(cfg)
    while True:
        op, arg = conn.recv()
        try:
            conn.send(("ok", getattr(session, op)(arg)))
        except Exception:  # reported to run.py, which counts the failure
            conn.send(("error", traceback.format_exc()))
        if op == "stop":
            return


def _digest(rows) -> str:
    h = hashlib.sha256()
    for r in sorted(rows):
        h.update(repr(r).encode())
    return h.hexdigest()


def _du(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )


def _span_rows(docs) -> list[tuple]:
    """(doc_id, offset, kind, text, media_ref) of every span of a documents
    table (the oracle's ``golden.spans_exploded`` shape)."""
    import pyarrow.compute as pc

    lists = docs["spans"].combine_chunks()
    spans = lists.flatten()
    ids = pc.take(docs["doc_id"], pc.list_parent_indices(lists)).to_pylist()
    return list(zip(ids, *(spans.field(f).to_pylist() for f in ("offset", "kind", "text", "media_ref"))))


class Session:
    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.work = cfg["work"]
        self.spans = None
        self.jobs: list[dict] = []  # collected job records
        self.windows: list[tuple[int, float, float]] = []  # traced job windows
        self._live = None  # the last job's outputs, until collected
        self._expected: dict = {}

    # -- setup ---------------------------------------------------------------

    def setup(self, _arg) -> dict:
        root, work = self.cfg["root"], self.work
        os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (root, os.environ.get("PYTHONPATH")) if p
        )
        os.environ["TMPDIR"] = os.path.join(work, "tmp")
        # the golden dumps of the repository's own gate are never read or
        # rewritten: the suite computes its oracles from SF_DIR instead
        os.environ["GRAFT_ORACLE_SF_DIR"] = os.path.join(work, "no-golden-sf")
        import logging

        import ray

        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.cfg["ray_tmp"],
        )
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

        import importlib

        from newsray.registry import load_all

        load_all()
        for module, attr in INDEX_ROOTS:
            setattr(importlib.import_module(module), attr, os.path.join(work, attr.lower()))
        if self.cfg["trace"]:
            from .trace import Spans

            self.spans = Spans()
            self.spans.install()
        getattr(self, f"_warm_{self.cfg['workload']}")()

    def _warm_crawl_resume(self) -> None:
        """A two-site checkpointed mini crawl through both sinks: starts the
        task workers and loads every module the timed job uses."""
        from newsray import sink
        from newsray.policy import CrawlPolicy
        from newsray.synth import WebParams

        d = os.path.join(self.work, "warm")
        pipe = self._pipeline(
            WebParams(seed=self.seed, only_sites=("fnnews", "gukje")),
            CrawlPolicy(max_waves=2),
            os.path.join(d, "ck"),
        )
        res = pipe.run()
        sink.write_documents_ds(res["articles_ds"], os.path.join(d, "docs"))
        sink.day_grouped_export_ds(res["articles_ds"], os.path.join(d, "json"))
        sink.read_documents(os.path.join(d, "docs"))
        pipe.shutdown()
        shutil.rmtree(d)

    def _warm_operator_suite(self) -> None:
        self._run_query("pricing_summary")

    # -- jobs ----------------------------------------------------------------

    def job(self, arg: dict) -> dict:
        """One timed unit of work; ``arg`` = {"id", "traced", "query"}."""
        traced = bool(arg.get("traced")) and self.spans is not None
        if traced:
            self.spans.job = arg["id"]
        t0 = time.time()
        try:
            out = getattr(self, f"_job_{self.cfg['workload']}")(arg)
        finally:
            t1 = time.time()
            if self.spans is not None:
                self.spans.job = None
        if traced:
            self.windows.append((arg["id"], t0, t1))
        self._live["id"] = arg["id"]
        out.update(id=arg["id"], traced=traced, wall_s=t1 - t0)
        return out

    def _pipeline(self, params, policy, ck: str | None = None):
        from newsray.pipeline import CrawlPipeline, PipelineConfig

        return CrawlPipeline(
            PipelineConfig(web_params=params, policy=policy, checkpoint_dir=ck, **PIPE_KW)
        )

    def _job_crawl_resume(self, arg: dict) -> dict:
        from newsray import sink
        from newsray.policy import CrawlPolicy
        from newsray.synth import WebParams

        d = os.path.join(self.work, f"resume-{arg['id']}")
        ck = os.path.join(d, "ck")
        params = WebParams(seed=self.seed, **WEB)
        killed = self._pipeline(params, CrawlPolicy(max_waves=KILL_AFTER_WAVES), ck)
        killed.run()
        t_restart = time.time()
        resumed = self._pipeline(params, CrawlPolicy(max_waves=RESUME_WAVES), ck)
        res = resumed.run()
        sink.write_documents_ds(res["articles_ds"], os.path.join(d, "docs"))
        sink.day_grouped_export_ds(res["articles_ds"], os.path.join(d, "json"))
        t_written = time.time()
        back = sink.read_documents(os.path.join(d, "docs"))
        self._live = {"pipes": [killed, resumed], "res": res, "docs": back, "dir": d}
        return {"resume_s": t_written - t_restart}

    def _job_operator_suite(self, arg: dict) -> dict:
        name = arg["query"]
        t0 = time.time()
        self._live = {"query": name, "result": self._run_query(name)}
        if self.spans is not None:
            self.spans.record(f"query.{name}", t0, time.time())
        return {}

    def _run_query(self, name: str):
        """Run a registered query and pull its complete result to the
        driver, inside the timed region."""
        import ray.data

        from newsray.registry import QUERIES

        res = QUERIES[name](SF_DIR)
        if isinstance(res, ray.data.Dataset):
            t = _table(res)
            return res.to_pandas() if t is None else t
        return res

    def clear_indexes(self, _arg) -> None:
        """Delete the persisted indexes so every pass probes them cold."""
        import importlib

        for module, attr in INDEX_ROOTS:
            shutil.rmtree(getattr(importlib.import_module(module), attr), ignore_errors=True)

    # -- outputs ---------------------------------------------------------------

    def collect(self, _arg) -> dict:
        """Reduce the last job's outputs to counts and digests (untimed), then
        release them."""
        live, self._live = self._live, None
        try:
            rec = getattr(self, f"_collect_{self.cfg['workload']}")(live)
            rec["id"] = live["id"]
        finally:
            for p in live.get("pipes", ()):
                p.shutdown()
            if "dir" in live:
                shutil.rmtree(live["dir"], ignore_errors=True)
        self.jobs.append(rec)
        out = {k: v for k, v in rec.items() if not k.startswith("_")}
        out["mismatches"] = self._check(rec)
        return out

    @staticmethod
    def _fetch_pairs(fetch_logs) -> list[tuple[int, str]]:
        out = []
        for t in map(_table, fetch_logs):
            if t is not None:
                out.extend(zip(t["discovered_seq"].to_pylist(), t["canon_url"].to_pylist()))
        return out

    def _collect_crawl_resume(self, live: dict) -> dict:
        import json

        import pyarrow.parquet as pq
        import ray

        killed, resumed = live["pipes"]
        docs, d = live["docs"], live["dir"]
        # the killed run's waves plus the waves the resumed run fetched itself
        done = resumed.start_wave
        waves = killed.wave_metrics + resumed.wave_metrics[done:]
        before = set(self._fetch_pairs(killed.fetch_logs))
        after = set(self._fetch_pairs(resumed.fetch_logs[done:]))
        pairs = self._fetch_pairs(live["res"]["fetch_logs"])  # all waves, restored ones too
        url_seen, title_seen = resumed.dump_seen()
        exported = []
        for fn in sorted(os.listdir(os.path.join(d, "json"))):
            site = fn[: -len("_News.json")]
            with open(os.path.join(d, "json", fn), encoding="utf-8") as f:
                for day in json.load(f):
                    exported.extend((site, a["url"]) for a in day["articles"])
        return {
            "pages": sum(m["fetched"] for m in waves),
            "frontier_urls": sum(m["candidates"] for m in waves),
            "docs": docs.num_rows,
            "written": sum(
                pq.ParquetFile(os.path.join(p, f)).metadata.num_rows
                for p, _, fs in os.walk(os.path.join(d, "docs"))
                for f in fs
                if f.endswith(".parquet")
            ),
            "exported": len(exported),
            "seen_keys": len(url_seen) + len(title_seen),
            "url_keys": len(url_seen),
            "cand_admitted": sum(
                v
                for p in (killed, resumed)
                for k, v in ray.get(p.metrics.snapshot.remote()).items()
                if k.endswith(":cand_admitted")
            ),
            "resumed_at_wave": done,
            "refetched": len(before & after),
            "fetched_unique": len({s for s, _ in pairs}) == len(pairs),
            "checkpoint_bytes": _du(os.path.join(d, "ck")),
            "sink_bytes": _du(os.path.join(d, "docs")),
            "_fetch": _digest(pairs),
            "_url_seen": _digest(url_seen),
            "_title_seen": _digest(title_seen),
            "_spans": _digest(_span_rows(docs)),
            "_exported": _digest(exported),
        }

    def _collect_operator_suite(self, live: dict) -> dict:
        name = live["query"]
        got = _normalize(live["result"])
        if name not in self._expected:
            self._expected[name] = _normalize(self._oracle_query(name))
        want = self._expected[name]
        ok = list(got.columns) == list(want.columns) and len(got) == len(want)
        if ok:
            try:
                import pandas as pd

                pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
            except AssertionError:
                ok = False
        return {"query": name, "rows": len(got), "ok": ok}

    def _oracle_query(self, name: str):
        if name in GOLDEN:
            import importlib

            module = "newsray.cleanse" if name == "corpus_clean" else "newsray.golden"
            return getattr(importlib.import_module(module), GOLDEN[name])(SF_DIR)
        import duckdb

        from newsray.registry import ORACLE_SQL

        con = duckdb.connect()
        try:
            for f in os.listdir(SF_DIR):
                t = f[: -len(".parquet")]
                con.execute(
                    f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{os.path.join(SF_DIR, f)}')"
                )
            return con.execute(ORACLE_SQL[name]).df()
        finally:
            con.close()

    # -- checks ------------------------------------------------------------------

    def _crawl_oracle(self) -> dict:
        from newsray.golden import spans_exploded
        from newsray.oracle import run_oracle
        from newsray.policy import CrawlPolicy
        from newsray.synth import SyntheticWeb, WebParams

        params = WebParams(seed=self.seed, **WEB)
        ora = run_oracle(SyntheticWeb(params), CrawlPolicy(max_waves=RESUME_WAVES))
        spans = spans_exploded(ora.articles)
        return {
            "pages": len(ora.fetch_log),
            "docs": len(ora.articles),
            "seen_keys": len(ora.url_seen) + len(ora.title_seen),
            "_fetch": _digest(ora.fetch_order()),
            "_url_seen": _digest(ora.url_seen),
            "_title_seen": _digest(ora.title_seen),
            "_spans": _digest(
                zip(
                    *(spans[c].to_pylist() for c in ("doc_id", "span_offset", "kind", "text", "media_ref"))
                )
            ),
            "_exported": _digest((a["site"], a["url"]) for a in ora.articles),
        }

    def _check(self, rec: dict) -> list[str]:
        """Mismatches between one collected job and the oracle (empty when
        the output is correct). The crawl oracle runs once per session."""
        if self.cfg["workload"] == "operator_suite":
            return [] if rec["ok"] else [f"{rec['query']}: result differs from oracle"]
        if "crawl" not in self._expected:
            self._expected["crawl"] = self._crawl_oracle()
        ora = self._expected["crawl"]
        keys = ["pages", "docs", "seen_keys", "_fetch", "_url_seen", "_title_seen", "_spans", "_exported"]
        bad = [f"job {rec['id']}: {k} differs from oracle" for k in keys if rec[k] != ora[k]]
        if not rec["fetched_unique"]:
            bad.append(f"job {rec['id']}: a page was fetched twice")
        if rec["refetched"]:
            bad.append(f"job {rec['id']}: {rec['refetched']} pages re-fetched after resume")
        if not rec["written"] == rec["exported"] == rec["docs"]:
            bad.append(
                f"job {rec['id']}: {rec['written']} docs written, {rec['exported']} exported, "
                f"{rec['docs']} read back"
            )
        return bad

    def layers(self, _arg) -> dict:
        """Per-layer metrics of the traced jobs (means over those jobs)."""
        import ray

        from .trace import layer_metrics

        time.sleep(2.0)  # task events reach the GCS once a second
        out = layer_metrics(ray.timeline(), self.spans.rows, self.windows)
        traced = [r for r in self.jobs if r["id"] in {w[0] for w in self.windows}]
        mean = {}
        for key in ("pages", "frontier_urls", "docs", "seen_keys", "url_keys", "cand_admitted",
                    "checkpoint_bytes", "sink_bytes", "written"):
            vals = [r[key] for r in traced if key in r]
            if vals:
                mean[key] = sum(vals) / len(vals)
        for key in ("pages", "frontier_urls", "docs"):
            if key in mean:
                out[f"crawl.{key}"] = mean[key]
        if "seen_keys" in mean:
            out["seen.keys"] = mean["seen_keys"]
            # useful outcomes per attempt: URL keys stored per admitted candidate
            out["seen.claim_yield"] = mean["url_keys"] / max(mean["cand_admitted"], 1)
            seen_busy = sum(
                out[f"seen.{m}.busy_s"] for m in ("claim_insert", "record_title_claim", "resolve_titles")
            )
            out["seen.busy_us_per_key"] = 1e6 * seen_busy / max(mean["seen_keys"], 1)
        if "written" in mean:
            out["checkpoint.bytes"] = mean["checkpoint_bytes"]
            out["sink.bytes_per_doc"] = mean["sink_bytes"] / max(mean["written"], 1)
            out["sink.docs_written"] = mean["written"]
            out["sink.docs_read"] = mean["docs"]
        for key, v in self._expected.get("crawl", {}).items():
            if not key.startswith("_"):
                out[f"oracle.{key}"] = v
        return out

    def stop(self, _arg) -> None:
        import ray

        ray.shutdown()


def _table(ds):
    """A Dataset's rows as one driver-side Arrow table (None when empty)."""
    import pyarrow as pa
    import ray

    if isinstance(ds, pa.Table):
        return ds
    parts = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(parts, promote_options="default") if parts else None


def _normalize(res):
    """Order-insensitive comparable form of a query result, by the
    repository gate's own normalisation."""
    import pandas as pd
    import pyarrow as pa

    from tools.check_queries import normalize

    return normalize(res.to_pandas() if isinstance(res, pa.Table) else pd.DataFrame(res))
