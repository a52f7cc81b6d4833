"""Self-tests of the benchmark: its declaration, its layer accounting and,
end to end, that traced counts reconcile with the oracle's.

    python3 -m pytest perfbench/tests -q

The two reconciliation tests run the benchmark (about a minute each).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import procs, run, trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# the layers the benchmark was specified to trace, by metric-name prefix
LAYER_PREFIXES = ("pipeline.", "seen.", "frontier.", "lineage.", "checkpoint.", "sink.",
                  "query.", "ray.", "trace.overhead_s")


def _load(name: str) -> dict:
    path = os.path.join(ROOT, "perfbench", "layers.json") if name == "layers" else os.path.join(ROOT, name)
    with open(path) as f:
        return json.load(f)


def test_metric_names_and_units():
    bench, layers = _load("BENCHMARK.json"), _load("layers")
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert set(run.END_TO_END) == set(layers["end_to_end"])


def test_benchmark_json_declaration():
    bench = _load("BENCHMARK.json")
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])


def test_layer_map_covers_the_specified_layers():
    bench, layers = _load("BENCHMARK.json"), _load("layers")
    grouped = [n for g in layers["layers"] for n in g["metrics"]]
    names = [m["name"] for m in bench["per_layer"]]
    # every per-layer metric belongs to exactly one layer group
    assert sorted(grouped) == sorted(names)
    assert all(any(n.startswith(p) for n in names) for p in LAYER_PREFIXES)
    from perfbench.session import SUITE

    for q in SUITE:
        assert {f"query.{q}.wall_s", f"query.{q}.busy_s", f"query.{q}.tasks"} <= set(names)
    for g in layers["layers"]:
        assert g["layer"] and set(g["moves"]) <= set(run.END_TO_END) | set(names), g["layer"]
        assert set(g["on"]) <= set(run.WORKLOADS), g["layer"]
    session = layers["session"]
    assert session["num_cpus"] == 2 and "num_cpus=1" in session["num_cpus_1_repro"]


def test_layer_metrics_self_time_and_means():
    def task(cat, t0, dur):
        return {"ph": "X", "cat": f"task::{cat}", "ts": t0 * 1e6, "dur": dur * 1e6}

    timeline = [
        task("SeenShard.claim_insert", 1.0, 0.5),
        task("MapBatches(fetch_parse_m)->MapBatches(gate_claim_finalize)", 1.2, 1.0),
        task("SeenShard.claim_insert", 11.0, 0.25),
        task("SeenShard.claim_insert", 30.0, 9.0),  # outside every traced job
        task("map", 2.5, 0.25),  # a wave's schedule exchange
        task("map", 4.0, 0.5),  # an exchange outside run_wave (a sink's groupby)
        {"ph": "X", "cat": "task:deserialize_arguments", "ts": 1.1e6, "dur": 0.1e6},
    ]
    spans = [("pipeline.run_wave", 0.5, 3.0, 0), ("pipeline.run_wave", 10.0, 12.0, 1)]
    out = trace.layer_metrics(timeline, spans, [(0, 0.0, 5.0), (1, 10.0, 15.0)])
    assert out["seen.claim_insert.calls"] == 1.0
    assert out["seen.claim_insert.busy_s"] == pytest.approx(0.375)
    assert out["pipeline.wave_op.tasks"] == 0.5
    assert out["ray.tasks"] == 2.5
    assert out["pipeline.schedule.tasks"] == 0.5
    assert out["pipeline.schedule.busy_s"] == pytest.approx(0.125)
    assert out["ray.deserialize_s"] == pytest.approx(0.05)
    assert out["pipeline.run_wave.count"] == 1.0
    # job 0: 2.5 s span, tasks cover 1.0-2.2 and 2.5-2.75; job 1: 2 s span,
    # 0.25 s covered
    assert out["pipeline.run_wave.self_s"] == pytest.approx((1.05 + 1.75) / 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_resume",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_reap_descendants_ends_orphans():
    procs.become_subreaper()
    # the child starts a grandchild and exits; the orphan is re-parented here
    child = "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])"
    subprocess.run([sys.executable, "-c", child], check=True, timeout=60)
    assert procs.descendants(os.getpid())
    assert procs.reap_descendants(timeout=10)
    assert not procs.descendants(os.getpid())


def _traced(workload: str) -> dict:
    # as a subreaper, this process inherits whatever the run leaves behind
    procs.become_subreaper()
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    assert not procs.descendants(os.getpid()), "the run left processes behind"
    assert p.returncode == 0, p.stderr[-2000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, p.stderr[-2000:]
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_traced_counts_reconcile_with_the_oracle():
    m = _traced("crawl_resume")
    assert m["crawl.pages"] == m["oracle.pages"] > 0
    assert m["sink.docs_written"] == m["sink.docs_read"] == m["crawl.docs"] == m["oracle.docs"] > 0
    assert m["seen.keys"] == m["oracle.seen_keys"] > 0
    assert m["pipeline.wave_op.tasks"] > 0 and m["seen.claim_insert.calls"] > 0
    assert m["checkpoint.restore.wall_s"] > 0 and m["checkpoint.bytes"] > 0
    assert m["pipeline.run_wave.count"] == 5


def test_traced_suite_times_every_query():
    from perfbench.session import SUITE

    m = _traced("operator_suite")
    assert all(m[f"query.{q}.wall_s"] > 0 and m[f"query.{q}.tasks"] > 0 for q in SUITE)
    assert m["crawl.pages"] == 0 and m["checkpoint.bytes"] == 0
