#!/usr/bin/env python3
"""newsray benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload crawl_resume --seed 1 --seconds 20 --trace 0

Workloads (closed loop: one client process runs one job at a time, each job
starts after the previous one has finished and been checked):

* ``crawl_resume``: a 5-wave breadth crawl of the seeded synthetic web,
  checkpointed every wave, killed after wave 2, resumed in a fresh
  pipeline, then written by both sinks and read back;
* ``operator_suite``: 15 registered queries over the repository's sf0.01
  test tables (copied under ``perfbench/data``), the persisted indexes
  cleared before every pass.

The Ray session (2 logical CPUs) runs in a child process group. Each job
has a deadline; a job that raises or overruns counts as failed, its session
is killed and a fresh one is set up. Every job's output is compared with the
sequential crawl oracle or the query's DuckDB / golden oracle outside the
timed region. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.procs import GroupMeter, become_subreaper, kill_group, reap_descendants  # noqa: E402

WORKLOADS = ("crawl_resume", "operator_suite")
RUN_LIMIT_S = 165  # whole run, process start to result line
SETUP_DEADLINE_S = 120
# per crawl job, or per query of the suite
JOB_DEADLINE_S = {"crawl_resume": 100, "operator_suite": 45}
OP_DEADLINE_S = 45  # collect, layers, stop
SAMPLE_S = 0.25  # CPU and memory sampling period while a job runs

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rss_peak_mb": "MB",
    "items_per_s": "1/s",
}


class SessionProcess:
    """The child process that owns one Ray session."""

    def __init__(self, cfg: dict) -> None:
        from perfbench.session import serve

        # fork, not spawn: spawn starts a resource-tracker process that
        # outlives this one by a moment
        ctx = multiprocessing.get_context("fork")
        # False while an operation is outstanding, or once the child stopped
        # answering: close() then kills it without asking it to stop
        self.idle = True
        self.ray_tmp = cfg["ray_tmp"]
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=serve, args=(child, cfg))
        self.t0 = time.monotonic()
        self.proc.start()
        child.close()
        self.setup_s = self.error = None

    def setup(self, deadline: float) -> bool:
        status, value = self.call("setup", None, deadline)
        if status == "ok":
            self.setup_s = time.monotonic() - self.t0
        else:
            self.error = value
        return status == "ok"

    def call(self, op: str, arg, deadline: float, on_wait=None):
        """Send one operation; returns ("ok", value), ("error", message) or,
        once ``deadline`` (monotonic) has passed, ("timeout", message)."""
        self.idle = False
        try:
            self.conn.send((op, arg))
            while not self.conn.poll(SAMPLE_S):
                if on_wait is not None:
                    on_wait()
                if time.monotonic() > deadline:
                    return "timeout", f"{op} passed its deadline"
            reply = self.conn.recv()
        except (EOFError, OSError) as e:  # the child died
            return "error", f"{op}: session process ended ({e!r})"
        self.idle = True
        return reply

    def close(self, deadline: float) -> None:
        if self.idle:
            self.call("stop", None, deadline)
        # the child leads its own process group: end whatever of the Ray
        # tree is left and wait for all of it
        kill_group(self.proc.pid)
        self.proc.join(10)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()
        # Ray's logs and sockets of this session; ray.init names the
        # directory after the calling process
        for d in glob.glob(os.path.join(self.ray_tmp, f"session_*_{self.proc.pid}")):
            shutil.rmtree(d, ignore_errors=True)
            latest = os.path.join(self.ray_tmp, "session_latest")
            if os.path.islink(latest) and os.readlink(latest) == d:
                os.remove(latest)


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.t0 = time.monotonic()
        self.limit = self.t0 + RUN_LIMIT_S
        self.work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
        self.cfg = dict(
            workload=args.workload,
            seed=args.seed,
            trace=bool(args.trace),
            root=ROOT,
            work=self.work,
            # Ray's socket paths (its temp dir + 64 bytes) must fit in 107
            # bytes, which a checkout of any depth cannot promise, so Ray
            # keeps its usual temp dir; each session's directory there is
            # deleted when the session ends
            ray_tmp=os.path.join(os.environ.get("RAY_TMPDIR", "/tmp"), "ray"),
        )
        self.session: SessionProcess | None = None  # None once it cannot be restarted
        self.setup_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mismatches: list[str] = []
        self.jobs: list[dict] = []  # crawl jobs, or suite passes
        self.rss_peak_mb = 0.0
        self.layers: dict = {}

    def _deadline(self, seconds: float) -> float:
        return min(time.monotonic() + seconds, self.limit)

    def _start(self) -> bool:
        s = self.session = SessionProcess(self.cfg)
        if not s.setup(self._deadline(SETUP_DEADLINE_S)):
            self.problems.append(f"setup failed: {s.error}")
            s.close(self._deadline(OP_DEADLINE_S))
            self.session = None
            return False
        if self.setup_s is None:
            self.setup_s = s.setup_s
        return True

    def _restart(self) -> bool:
        self.session.close(self._deadline(OP_DEADLINE_S))
        self.session = None
        return self._start()

    def _job(self, arg: dict) -> dict:
        """Run and collect one job. A job that fails is charged the wall
        and CPU time it used before it failed, and its session is replaced."""
        self.attempted += 1
        meter, t0 = GroupMeter(self.session.proc.pid), time.monotonic()
        status, out = self.session.call(
            "job", arg, self._deadline(JOB_DEADLINE_S[self.args.workload]), meter.sample
        )
        cpu, wall = meter.cpu_s(), time.monotonic() - t0
        self.rss_peak_mb = max(self.rss_peak_mb, meter.rss_peak_mb)
        if status == "ok":
            out["cpu_s"] = cpu
            status, rec = self.session.call("collect", None, self._deadline(OP_DEADLINE_S))
            if status == "ok":
                self.mismatches += rec.pop("mismatches")
                rec = {**out, **rec, "failed": False}
                print(f"perfbench: {json.dumps(rec)}", file=sys.stderr)
                return rec
            out = rec
        self.failed += 1
        self.problems.append(f"job {arg}: {status}: {out}")
        self._restart()
        return {**arg, "wall_s": wall, "cpu_s": cpu, "pages": 0, "failed": True}

    def _enough(self, walls: list[float]) -> bool:
        if self.session is None:
            return True
        if not walls:
            return False
        # stop early rather than overrun the run limit
        if time.monotonic() + max(walls) * 1.5 > self.limit - 15:
            return True
        # a traced run alternates traced and untraced jobs, so it needs two
        return len(walls) >= (2 if self.args.trace else 1) and sum(walls) >= self.args.seconds

    def measure(self) -> None:
        if not self._start():
            return
        walls: list[float] = []
        while not self._enough(walls):
            arg = {"id": len(walls), "traced": bool(self.args.trace) and len(walls) % 2 == 0}
            if self.args.workload == "operator_suite":
                rec = self._suite_pass(arg)
            else:
                rec = self._job(arg)
            self.jobs.append(rec)
            walls.append(rec["wall_s"])
        if self.args.trace and self.session is not None:
            status, value = self.session.call("layers", None, self._deadline(OP_DEADLINE_S))
            if status == "ok":
                self.layers = value
            else:
                self.problems.append(f"layers: {status}: {value}")

    def _suite_pass(self, arg: dict) -> dict:
        """One pass over the suite, every index cold; wall and CPU are the
        sums over its queries."""
        from perfbench.session import SUITE

        total = {**arg, "wall_s": 0.0, "cpu_s": 0.0, "queries": len(SUITE), "failed": False}
        self.session.call("clear_indexes", None, self._deadline(OP_DEADLINE_S))
        for name in SUITE:
            if self.session is None:
                break
            rec = self._job({**arg, "query": name})
            for k in ("wall_s", "cpu_s"):
                total[k] += rec[k]
            total["failed"] |= rec["failed"]
        return total

    def close(self) -> None:
        if self.session is not None:
            self.session.close(time.monotonic() + OP_DEADLINE_S)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:  # another run is still using it
            pass

    def result(self) -> dict:
        correct = any(not j["failed"] for j in self.jobs) and not self.mismatches
        if self.args.trace:
            metrics = self._layer_metrics()
        else:
            metrics = self._end_to_end()
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }

    def _end_to_end(self) -> dict:
        walls = [j["wall_s"] for j in self.jobs]
        if self.args.workload == "operator_suite":
            items = [j["queries"] / j["wall_s"] for j in self.jobs]
        else:
            items = [j["pages"] / j["wall_s"] for j in self.jobs]
        values = {
            "setup_s": self.setup_s or 0.0,
            "wall_s": statistics.median(walls) if walls else 0.0,
            "cpu_s": statistics.median(j["cpu_s"] for j in self.jobs) if walls else 0.0,
            "rss_peak_mb": self.rss_peak_mb,
            "items_per_s": statistics.median(items) if items else 0.0,
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    def _layer_metrics(self) -> dict:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer"]
        values = dict(self.layers)
        on = [j["wall_s"] for j in self.jobs if j["traced"]]
        off = [j["wall_s"] for j in self.jobs if not j["traced"]]
        if on and off:
            values["trace.overhead_s"] = statistics.median(on) - statistics.median(off)
        resume = [j["resume_s"] for j in self.jobs if j["traced"] and "resume_s" in j]
        if resume:
            values["crawl.resume_s"] = statistics.median(resume)
        for key, rate in (("crawl.pages", "crawl.pages_per_s"), ("crawl.frontier_urls", "crawl.frontier_urls_per_s")):
            if key in values and on:
                values[rate] = values[key] / statistics.median(on)
        return {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec
        }


def _terminate(*_) -> None:
    # a second SIGTERM must not cut the clean-up short
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signal.SIGTERM)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "newsray", "__init__.py")):
        print(f"perfbench: no newsray package under {ROOT}", file=sys.stderr)
        return 2
    # a terminated run still ends its Ray session (see the finally below)
    signal.signal(signal.SIGTERM, _terminate)
    become_subreaper()
    run = Run(args)
    try:
        run.measure()
    finally:
        run.close()
        if not reap_descendants():
            run.problems.append("some process of the run outlived its kill")
    for p in run.problems + run.mismatches:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
