"""Job entrypoint — the ``ray job submit`` surface of the engine.

On a cluster:

    ray job submit --working-dir . -- python -m newsray crawl \
        --out /data/run1/documents --checkpoint-dir /data/run1/ckpt

Locally (tests / this sandbox):

    python -m newsray crawl --out /tmp/docs --num-cpus 4

This is one of the three places allowed to own a Ray session (with bench.py
and the test fixture): it connects to the cluster the job runner provides
(``RAY_ADDRESS``, else local), runs the wave-loop crawl with streaming
finalize, writes the interleaved documents as partitioned output straight
from the object store (`sink.write_documents_ds` — nothing row-shaped on
the driver), and prints ONE JSON summary line. With ``--checkpoint-dir`` a
re-submitted job resumes from the last completed wave (no re-fetch).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="newsray")
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("crawl", help="run the wave-loop crawl and write documents")
    c.add_argument("--out", required=True, help="output dir (partitioned documents)")
    c.add_argument("--checkpoint-dir", default=None, help="resume-from-checkpoint root")
    c.add_argument(
        "--sites", default="", help="comma-separated site subset (default: all)"
    )
    c.add_argument(
        "--fixture-dir",
        default=None,
        help="webfixture directory (manifest.json + saved pages): crawl REAL "
        "HTML through the selector engine instead of the synthetic web — "
        "e.g. tests/fixtures/refsites ships the reference's ten sites",
    )
    c.add_argument(
        "--bootstrap-dir",
        default=None,
        help="prior run's day-grouped JSON export dir: seed the URL-seen "
        "set from {site}_News.json files (the reference's "
        "get_existing_links — the no-checkpoint migration path; "
        "--checkpoint-dir wins when both are given: a checkpointed run keeps "
        "the seeded URLs with its first wave, so a resume does not re-read "
        "the exports)",
    )
    c.add_argument("--extra-sections", type=int, default=0, help="widen the frontier")
    c.add_argument("--max-waves", type=int, default=None, help="BFS wave cap")
    c.add_argument(
        "--num-cpus",
        type=int,
        default=None,
        help="local-mode CPU cap (ignored when RAY_ADDRESS points at a cluster)",
    )
    return p


def cmd_crawl(args: argparse.Namespace) -> dict:
    import ray

    if not ray.is_initialized():
        # worker log lines stay in the session logs, off the driver
        kwargs = {
            "include_dashboard": False,
            "logging_level": "ERROR",
            "log_to_driver": False,
        }
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .pipeline import CrawlPipeline, PipelineConfig
    from .policy import CrawlPolicy
    from .sink import write_documents_ds
    from .synth import WebParams

    wp_kwargs = {}
    if args.sites:
        wp_kwargs["only_sites"] = tuple(s.strip() for s in args.sites.split(","))
    if args.extra_sections:
        wp_kwargs["extra_sections"] = args.extra_sections
    if args.fixture_dir:
        wp_kwargs["fixture_dir"] = args.fixture_dir
    pol_kwargs = {}
    if args.max_waves is not None:
        pol_kwargs["max_waves"] = args.max_waves

    t0 = time.time()
    cfg = PipelineConfig(
        web_params=WebParams(**wp_kwargs),
        policy=CrawlPolicy(**pol_kwargs),
        checkpoint_dir=args.checkpoint_dir,
        bootstrap_output_dir=args.bootstrap_dir,
    )
    res = CrawlPipeline(cfg).run()
    write_documents_ds(res["articles_ds"], args.out)
    wall = time.time() - t0
    pages = int(sum(m.get("fetched", 0) for m in res["wave_metrics"]))
    return {
        "cmd": "crawl",
        "out": args.out,
        "wall_sec": round(wall, 3),
        "waves": len(res["wave_metrics"]),
        "pages_fetched": pages,
        "pages_per_sec": round(pages / wall, 2) if wall > 0 else None,
        "checkpoint_dir": args.checkpoint_dir,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # stdout carries only the JSON summary line. The driver's error-listener
    # thread prints raylet warnings ("N PYTHON worker processes have been
    # started") to sys.stdout whatever log_to_driver says, so the whole Ray
    # session runs with stdout pointed at stderr.
    with contextlib.redirect_stdout(sys.stderr):
        out = cmd_crawl(args)
        try:
            import ray

            ray.shutdown()
        except Exception:
            pass  # a flaky shutdown must not fail a finished job
    print(json.dumps(out))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
