"""Cluster job entrypoint for the crawl engine.

Deployment path (north_rule): submit to a fixed-size Ray cluster with

    ray job submit --working-dir . -- python scripts/crawl_job.py \
        --workdir /shared/crawl_out --base-pages 50 --regions all \
        [--resume] [--html-bytes 200000] [--max-wave-rows 2000000]

On the sandbox's single node it runs the same job against a local Ray
(`RAY_ADDRESS=local`). The script owns the Ray session (the library
never calls ray.init); all state lives under --workdir, so re-running
with --resume continues from the last checkpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _n_not_modified(res) -> int:
    from realestate_scraper_ray.pipelines.crawl import read_fragments
    v = read_fragments(os.path.join(res.workdir, "validators"))
    if v is None:
        return 0
    import pyarrow.compute as pc
    return int(pc.sum(pc.equal(v["status"], "not_modified")
                      .cast("int64")).as_py() or 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--base-pages", type=int, default=6)
    ap.add_argument("--regions", default="all",
                    help="'all' (16 voivodeships) or comma-separated slugs")
    ap.add_argument("--html-bytes", type=int, default=0)
    ap.add_argument("--max-pages", type=int, default=None)
    ap.add_argument("--limit-offers", type=int, default=None)
    ap.add_argument("--limit-photos", type=int, default=None)
    ap.add_argument("--rps-per-host", type=float, default=1e9)
    ap.add_argument("--retry-rounds", type=int, default=0)
    ap.add_argument("--max-wave-rows", type=int, default=None)
    ap.add_argument("--batch-size", type=int, default=96)
    ap.add_argument("--urlseen-shards", type=int, default=8)
    ap.add_argument("--urlseen-capacity", type=int, default=1 << 19)
    ap.add_argument("--checkpoint-every", type=int, default=5)
    ap.add_argument("--checkpoint-full-every", type=int, default=4)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode only; on a cluster omit (uses all nodes)")
    # reference-compat exports (migration surfaces): write the
    # reference's CSV artifacts, live-all log, and the per-offer
    # notification stream next to the crawl output
    ap.add_argument("--export-csv", metavar="DIR", default=None,
                    help="write reference-format urls/offers/photos CSVs")
    ap.add_argument("--export-log", metavar="PATH", default=None,
                    help="write a reference-format live-all log")
    ap.add_argument("--notify", metavar="PATH", default=None,
                    help="write the scraper_new_offers notification "
                         "stream (one apartment_id JSONL row per offer)")
    # conditional-GET re-crawl: collect validators on every run; point
    # --revisit-from at a previous run's workdir to 304-skip unchanged
    # detail pages (no transfer, no parse; rows carry forward)
    ap.add_argument("--revisit-from", metavar="WORKDIR", default=None)
    ap.add_argument("--compact", action="store_true",
                    help="after the crawl, consolidate the per-batch "
                         "offer/photo fragments into scan-sized files "
                         "under {workdir}/compacted/")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kwargs)

    from realestate_scraper_ray.config import (
        VOIVODESHIPS, CrawlConfig, PortalConfig,
    )
    from realestate_scraper_ray.pipelines.crawl import run_crawl

    regions = (VOIVODESHIPS if args.regions == "all"
               else tuple(args.regions.split(",")))
    pcfg = PortalConfig(regions=regions, base_pages=args.base_pages,
                        html_bytes=args.html_bytes)
    ccfg = CrawlConfig(
        max_pages=args.max_pages, limit_offers=args.limit_offers,
        limit_photos=args.limit_photos, rps_per_host=args.rps_per_host,
        urlseen_shards=args.urlseen_shards,
        urlseen_capacity=args.urlseen_capacity,
        fetch_batch_size=args.batch_size,
        checkpoint_every=args.checkpoint_every,
        checkpoint_full_every=args.checkpoint_full_every,
        max_wave_rows=args.max_wave_rows,
        validators=True, validators_from=args.revisit_from)
    t0 = time.time()
    res = run_crawl(pcfg, ccfg, args.workdir, resume=args.resume,
                    retry_rounds=args.retry_rounds)
    dt = time.time() - t0
    exports = {}
    if args.export_csv:
        from realestate_scraper_ray.pipelines.io_compat import (
            export_reference_csv)
        exports["csv"] = export_reference_csv(res, args.export_csv)
    if args.export_log:
        from realestate_scraper_ray.pipelines.io_compat import (
            export_live_all_log)
        exports["log_lines"] = export_live_all_log(res, args.export_log)
    if args.notify:
        from realestate_scraper_ray.pipelines.io_compat import (
            export_offer_notifications)
        exports["notified"] = export_offer_notifications(res, args.notify)
    if args.compact:
        from realestate_scraper_ray.pipelines.io_compat import (
            compact_fragments)
        exports["compacted"] = {
            name: compact_fragments(
                os.path.join(args.workdir, name),
                os.path.join(args.workdir, "compacted", name))
            for name in ("offers", "photos")
            if os.path.isdir(os.path.join(args.workdir, name))}
    pages = res.pages_fetched + res.pages_failed
    print(json.dumps({
        **({"exports": exports} if exports else {}),
        "workdir": res.workdir, "generations": res.generations,
        "pages": pages, "offers": res.offers, "failed": res.pages_failed,
        "not_modified": _n_not_modified(res),
        "sec": round(dt, 2), "pages_per_sec": round(pages / max(dt, 1e-9), 2),
        "regions_fetch_fail": sorted(
            k for k, v in res.state.items() if v["stop_reason"] == "fetch_fail"),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
