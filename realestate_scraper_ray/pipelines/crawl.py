"""The crawl pipeline: frontier generation loop over Ray Data.

Architecture (SURVEY.md §7.1): per generation ("wave"), ONE streamed
Ray Data execution does everything row-shaped:

    frontier/gen=G ──footers read on the driver: row groups packed,
                     in sorted path order (part-p0-… pagination first),
                     into ≤ fetch_batch_size-row manifests──▶
      from_arrow(manifests).map_batches(wave), one task per manifest:
                          read its row groups, fetch+parse (per-worker
                          cached state: politeness, robots, retries)
        ├─▶ offers  → workdir/offers/gen=G   (atomic fragments)
        ├─▶ photos  → workdir/photos/gen=G
        ├─▶ links   → cuckoo URL-seen shards (test-and-set) →
        │             first-seen rows → frontier/gen=G+1, written
        │             host-bucket-ordered with skew salting
        └─▶ returns per-batch summary rows only
      take_all (tiny) ─▶ driver folds per-region stop logic (auto-stop
        watermarks, SURVEY.md §2.9) → next pagination rows appended to
        frontier/gen=G+1
      checkpoint gen=G every `checkpoint_every` waves: region state +
        filter shard bytes (atomic dir rename); resume re-enters at the
        first unfinished wave and re-writes its outputs
        deterministically (replace-on-retry).

The driver holds only O(#regions) state: everything row-shaped flows
through the Dataset or per-generation parquet fragments; page bodies
never enter the object store (fetch and parse share a stage). At
10^10-URL scale a frontier window (split frontier/gen=G into
fixed-size sub-waves) bounds each execution — the loop is unchanged.

The golden ``urls`` table (reference urls.csv, otodom.py:620-625) is
derived from the frontier parquet (kind='detail' rows), not written
separately — the frontier IS the discovery log.

Reference lifecycle analogue: /root/reference/scrapper/cli.py:731-816
(live-all with resume/retry rounds) + pipelines/stream.py:140-157.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import uuid
from dataclasses import asdict, dataclass, field, replace

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

import zlib

import numpy as np

from ..config import CrawlConfig, PortalConfig
from ..functions.urls import extract_offer_ids, host_of
from ..schemas import FRONTIER, URLS
from ..sources.synth_portal import Portal
from ..stages.exchange import bucket_of, read
from ..stages.fetch import COMBINED_SCHEMA, make_fetch_fn
from ..state.politeness import PolitenessService
from ..state.urlseen import UrlSeenService

FRONTIER_COLS = FRONTIER.names
# the per-generation output tables (workdir/<table>/gen-<G>/part-*.parquet)
# a wave writes besides the next frontier; replace-on-retry clears them all
GEN_TABLES = ("offers", "photos", "media", "quarantine", "trapped",
              "validators")
# the revisit's carried 304 rows: one named generation after the numbered ones
CARRY_GEN = "zcarry"
# the reference's wide 20-col offer schema (storage.py:13-20 + the
# posted_at/updated_at datetimes from the pydantic model,
# validate.py:9-50) plus the engine's order keys
OFFER_OUT_COLS = ["offer_id", "source", "url", "price_amount", "price_currency",
                  "price_per_m2", "city", "lat", "lon", "area_m2", "rooms",
                  "title", "district", "street", "description",
                  "floor", "floors",
                  "market_type", "property_type", "posted_at", "updated_at",
                  "first_seen", "last_seen",
                  "region", "page_idx", "pos"]
PHOTO_OUT_COLS = ["offer_id", "seq", "url"]
# zero-row results keep the column types the fragments are written with
OUT_SCHEMAS = {
    "urls": URLS,
    "offers": pa.schema([COMBINED_SCHEMA.field(c) for c in OFFER_OUT_COLS]),
    "photos": pa.schema([COMBINED_SCHEMA.field(c) for c in PHOTO_OUT_COLS]),
}

_SUMMARY_SCHEMA = pa.schema([
    # meta_count | offer_count | pag_meta | pag_link | inv_next | new_detail
    ("tag", pa.string()),
    ("source", pa.string()), ("region", pa.string()),
    ("status", pa.string()), ("page_idx", pa.int32()),
    ("n", pa.int64()), ("url", pa.string()),
    ("kind", pa.string()), ("priority", pa.int32()), ("pos", pa.int32())])


@dataclass
class RegionState:
    last_page_done: int = 0
    stop_reason: str = ""
    no_new_streak: int = 0
    fetched: int = 0
    parsed: int = 0
    failed: int = 0


@dataclass
class CrawlResult:
    workdir: str
    generations: int
    state: dict = field(default_factory=dict)   # "source|region" -> RegionState dict
    pages_fetched: int = 0
    pages_failed: int = 0
    offers: int = 0
    # --limit semantics (stream.py:145-149): the frontier is unaffected;
    # only the first `limit_offers` detail URLs *in global crawl order*
    # (source order, region order, page_idx, pos — the reference's
    # sequential emission order) yield offer/photo rows. Applied as a
    # deterministic truncation at table read; the crawl itself stays
    # wave-parallel.
    limit_offers: int | None = None
    source_order: tuple[str, ...] = ()
    region_order: tuple[str, ...] = ()

    def _keep_set(self, name: str) -> tuple[str, pa.Array] | None:
        """``limit_offers`` as (column, values to keep) for ``name``:
        offers keep the first N detail URLs in crawl order, photos and
        media keep the kept offers' ids; None when nothing is cut."""
        if self.limit_offers is None or name not in ("offers", "photos", "media"):
            return None
        if name != "offers":
            return "offer_id", self.table("offers")["offer_id"].combine_chunks()
        u = self.table("urls").to_pandas()
        u["_s"] = u["source"].map({s: i for i, s in enumerate(self.source_order)})
        u["_r"] = u["region"].map({r: i for i, r in enumerate(self.region_order)})
        u = u.sort_values(["_s", "_r", "page_idx", "pos"], kind="stable")
        return "url", pa.array(u["offer_url"].head(self.limit_offers), pa.string())

    def dataset(self, name: str) -> "rd.Dataset":
        """Streaming reader over the crawl output: a ``ray.data.Dataset``
        from the per-generation parquet fragments — the API downstream
        pipelines should consume (``table()`` is the test-scale
        verification twin that concatenates driver-side). 'urls' derives
        from the frontier's detail rows per batch; ``limit_offers`` is
        applied as a broadcast keep-set filter (the set is ≤ limit rows
        by construction, so broadcasting it is bounded)."""
        files = gen_files(os.path.join(
            self.workdir, "frontier" if name == "urls" else name))
        if not files:
            return rd.from_arrow(_empty(name))
        ds = read(files)
        if name == "urls":
            return ds.map_batches(urls_of, batch_format="pyarrow")
        keep = self._keep_set(name)
        if keep is not None:
            col, ref = keep[0], ray.put(keep[1])
            ds = ds.map_batches(lambda t: _keep_rows(t, col, ray.get(ref)),
                                batch_format="pyarrow")
        return ds

    def table(self, name: str) -> pa.Table:
        """Read an output table: 'offers', 'photos', or the derived 'urls'.
        With no fragments these three are zero-row tables of their real
        column types."""
        if name == "urls":
            return urls_of(read_fragments(os.path.join(self.workdir, "frontier")))
        t = read_fragments(os.path.join(self.workdir, name))
        if t is None:
            return _empty(name)
        keep = self._keep_set(name)
        return t if keep is None else _keep_rows(t, *keep)


def _empty(name: str) -> pa.Table:
    return OUT_SCHEMAS.get(name, pa.schema([])).empty_table()


def _keep_rows(t: pa.Table, col: str, keep: pa.Array) -> pa.Table:
    """The one ``limit_offers`` filter: rows whose ``col`` is in ``keep``."""
    return t.filter(pc.is_in(t[col], value_set=keep))


def urls_of(frontier: pa.Table | None, kind: str = "detail") -> pa.Table:
    """The golden ``urls`` table (``schemas.URLS``) from frontier rows:
    one row per discovered offer page, i.e. per row of ``kind``."""
    if frontier is None or frontier.num_rows == 0:
        return URLS.empty_table()
    d = frontier.filter(pc.equal(frontier["kind"], kind))
    return pa.table({
        "offer_url": d["url"],
        "offer_id": extract_offer_ids(d["url"].combine_chunks()),
        "page_idx": d["page_idx"], "source": d["source"],
        "region": d["region"], "pos": d["pos"]}).cast(URLS)


def _filter_kind(t: pa.Table, kind: str) -> pa.Table:
    return t.filter(pc.equal(t["rec_kind"], kind))


def _links_of(t: pa.Table, kinds: list[str]) -> pa.Table:
    links = _filter_kind(t, "link")
    return links.filter(pc.is_in(links["kind"], value_set=pa.array(kinds)))


_FRAG_COUNTER = itertools.count()
# per-worker-process token: pids alone are NOT unique across the nodes
# of a `ray job submit` cluster sharing one --workdir, so a pid+counter
# fragment name could silently overwrite another node's fragment
_FRAG_TOKEN = uuid.uuid4().hex[:8]


def _host_buckets(urls: pa.Array | pa.ChunkedArray, cfg: CrawlConfig) -> np.ndarray:
    """Frontier partition key: hash(host) + per-URL salt for skewed
    hosts (SURVEY.md §7.4). A host matching a ``skew_salts`` substring
    spreads over N buckets; others map to one. Buckets order fragment
    writes — the shuffle-free groupby-on-host.

    Vectorized: hosts extract via a polars Rust kernel, per-DISTINCT-
    host crc32 (host cardinality is O(sources×regions), not O(rows)),
    per-URL salt via the version-stable ``exchange.bucket_of`` over the
    salted hosts' rows only — Python work is O(distinct hosts) per
    wave."""
    import polars as pl
    arr = urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) \
        else pa.array(urls, pa.string())
    s = pl.from_arrow(arr)
    if isinstance(s, pl.DataFrame):
        s = s.to_series()
    # host_of-equivalent kernel: strip any scheme, stop at /?#. The
    # extract can never be null (the * matches empty), so the
    # dictionary indices below are always valid integers — a plain
    # ^https?://([^/]+) returned null for uppercase schemes /
    # scheme-less URLs (NaN fancy-index crash) and disagreed with
    # host_of on path-less URLs with a query string.
    hosts = (s.fill_null("")
             .str.replace(r"^[A-Za-z][A-Za-z0-9+.-]*://", "")
             .str.extract(r"^([^/?#]*)", 1)).to_arrow()
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = hosts.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    base_u = np.empty(max(1, len(uniq)), dtype=np.int64)
    nsalt_u = np.ones(max(1, len(uniq)), dtype=np.uint64)
    for j, h in enumerate(uniq):
        h = h or ""
        base_u[j] = zlib.crc32(h.encode())
        for frag, n in cfg.skew_salts:
            if frag in h:
                nsalt_u[j] = max(1, n)
                break
    inv = enc.indices.to_numpy(zero_copy_only=False)
    out = base_u[inv]
    nsalt = nsalt_u[inv]
    for n in np.unique(nsalt[nsalt > 1]):
        rows = np.flatnonzero(nsalt == n)
        out[rows] += bucket_of(arr.take(rows), int(n))
    return out % cfg.host_buckets


def _write_fragment(table: pa.Table, dirpath: str,
                    row_group_size: int | None = None,
                    prefix: str = "") -> None:
    """Atomic parquet fragment write from inside a map_batches task.
    Names are unique per (worker uuid token, pid, in-process counter)
    — the token guards against pid collisions across nodes; the driver
    removes the whole generation directory before (re)running a wave, so
    retried waves replace rather than append (idempotent resume).
    ``row_group_size`` bounds what a next-wave task decodes: the row
    group is the unit a fetch batch reads, and the driver packs and
    slices row groups into batches (``_pack_batches``), so wave
    parallelism never follows the writer's task count.
    ``prefix`` encodes frontier priority into the file name ("p0-" <
    "p1-" < "p2-"): the driver packs paths in sorted order, so
    pagination batches enter the fetch stage before investment and
    detail batches — the priority queue (north_rule; SURVEY.md §2.6 O2)
    with no per-wave sort shuffle."""
    if table.num_rows == 0:
        return
    os.makedirs(dirpath, exist_ok=True)
    name = f"{prefix}{_FRAG_TOKEN}-{os.getpid()}-{next(_FRAG_COUNTER)}"
    tmp = os.path.join(dirpath, f".tmp-{name}")
    pq.write_table(table, tmp, row_group_size=row_group_size)
    os.replace(tmp, os.path.join(dirpath, f"part-{name}.parquet"))


def gen_dir(workdir: str, table: str, gen: int | str) -> str:
    """Where generation ``gen`` of ``table`` writes its fragments."""
    return os.path.join(workdir, table, f"gen-{gen}")


def _gen_dirs(root: str) -> list[tuple[str, str]]:
    """``(suffix, path)`` of each ``gen-*`` directory under ``root`` in
    generation order: numbered generations as numbers (gen-2 before
    gen-10), then named ones (gen-zcarry). In-flight ``.tmp-gen-*``
    renames and plain files (validators/meta.json) are skipped."""
    if not os.path.isdir(root):
        return []
    found = [(d[4:], os.path.join(root, d)) for d in os.listdir(root)
             if d.startswith("gen-") and os.path.isdir(os.path.join(root, d))]
    return sorted(found, key=lambda g: (0, int(g[0]), "") if g[0].isdigit()
                  else (1, 0, g[0]))


def gen_files(root: str) -> list[str]:
    """The parquet fragments of one output table
    (``root/gen-*/part-*.parquet``), in generation then name order —
    the only lister of that layout."""
    return [os.path.join(d, f) for _, d in _gen_dirs(root)
            for f in sorted(os.listdir(d)) if f.endswith(".parquet")]


def read_fragments(root: str) -> pa.Table | None:
    """All fragments under ``root`` as one table; None when there are none."""
    parts = [pq.read_table(f) for f in gen_files(root)]
    return pa.concat_tables(parts, promote_options="default") if parts else None


def make_wave_fn(portal_cfg: PortalConfig, cfg: CrawlConfig,
                 politeness: PolitenessService, urlseen: UrlSeenService,
                 workdir: str, gen: int, run_token: str = ""):
    """The whole wave as ONE map_batches stage: fetch+parse the frontier
    batch, sink offer/photo fragments, push new links through the
    URL-seen shards into the next frontier, and return only the (tiny)
    per-batch summary rows the driver folds for stop decisions. One Ray
    Data execution per wave instead of five — at small wave sizes the
    crawl is otherwise dominated by execution-launch overhead."""
    fetch = make_fetch_fn(portal_cfg, cfg, politeness, run_token)
    dirs = {name: gen_dir(workdir, name, gen) for name in GEN_TABLES}
    next_dir = _frontier_dir(workdir, gen + 1)

    def wave(batch: pa.Table) -> pa.Table:
        t = fetch(batch)
        _write_fragment(_filter_kind(t, "offer").select(OFFER_OUT_COLS), dirs["offers"])
        photos = _filter_kind(t, "photo")
        _write_fragment(photos.select(PHOTO_OUT_COLS), dirs["photos"])
        if cfg.media_fetch and photos.num_rows:
            # media download in the same task that parsed the photo
            # spans: payload bytes are fetched, sniffed and hashed here
            # and never enter the object store (S11/M27, images.py:48-91)
            from ..stages.media import media_download_rows
            portal = Portal(portal_cfg)
            _write_fragment(
                media_download_rows(
                    photos.select(["offer_id", "seq", "url", "source"]),
                    portal.photo_bytes, head_mime=portal.photo_head_mime),
                dirs["media"])
        # validator state (cfg.validators): every detail pagemeta row
        # carrying an etag — parsed pages AND 304s (so revisit chains
        # A→B→C keep propagating validators without re-parsing).
        # Fragments are SHARDED by host bucket (filename b{bucket:04d}-
        # prefix + validators/meta.json recording the partition params):
        # a future revisit's fetch actor loads only the buckets its
        # batches touch instead of the whole url→etag map (the
        # per-actor-OOM scale hazard at 10^10 detail URLs).
        if cfg.validators or cfg.validators_from:
            pm = _filter_kind(t, "pagemeta")
            vt = (pm.filter(pc.is_valid(pm["etag"]))
                    .select(["url", "status", "etag"]))
            if vt.num_rows:
                vb = _host_buckets(vt["url"], cfg)
                vt = vt.take(pa.array(np.argsort(vb, kind="stable")))
                vbs = np.sort(vb, kind="stable")
                starts = np.flatnonzero(np.r_[True, vbs[1:] != vbs[:-1]])
                bounds = np.r_[starts, len(vbs)]
                for j in range(len(starts)):
                    off, end = int(bounds[j]), int(bounds[j + 1])
                    _write_fragment(vt.slice(off, end - off), dirs["validators"],
                                    prefix=f"b{int(vbs[off]):04d}-")
        # quarantine: failed fetches persisted per generation — the
        # debug-sink analogue (detail.py:241-247) and the audit trail
        # behind the fetch_fail resume path
        meta = _filter_kind(t, "pagemeta")
        _write_fragment(
            meta.filter(pc.equal(meta["status"], "fetch_fail"))
            .select(["url", "source", "region", "page_idx", "pos",
                     "fetch_kind"]),
            dirs["quarantine"])
        # trap-guard audit trail: links rejected by the URL-shape caps
        # (stages/fetch.py trap_like), persisted per generation like
        # quarantine — never admitted to the frontier or URL-seen set
        _write_fragment(
            _links_of(t, ["trapped"]).select(
                ["url", "source", "region", "page_idx", "pos",
                 "fetch_kind"]),
            dirs["trapped"])
        cand = _links_of(t, ["detail", "investment"])
        if cand.num_rows:
            mask = urlseen.filter_new(cand["url"].combine_chunks())
            cand = cand.filter(pa.array(mask))
        front = cand.select(FRONTIER_COLS).cast(FRONTIER)
        inv = pc.equal(front["kind"], "investment")
        _write_fragment(front.filter(inv), next_dir,
                        row_group_size=cfg.fetch_batch_size, prefix="p1-")
        det = front.filter(pc.invert(inv))
        # host-keyed partitioning with skew salting (north_rule): order
        # detail rows by host bucket so same-(host,salt) URLs land in
        # contiguous fragments → contiguous fetch tasks (politeness
        # locality) with no all-to-all shuffle; fixed-size fragments so
        # the next wave packs uniform ~batch_size batches and no fetch
        # task becomes a multi-hundred-page straggler
        if det.num_rows:
            buckets = _host_buckets(det["url"], cfg)
            det = det.take(pa.array(np.argsort(buckets, kind="stable")))
            bsorted = np.sort(buckets, kind="stable")
            for off in range(0, det.num_rows, cfg.fetch_batch_size):
                _write_fragment(
                    det.slice(off, cfg.fetch_batch_size), next_dir,
                    row_group_size=cfg.fetch_batch_size,
                    prefix=f"p2-b{int(bsorted[off]):04d}-")
        return _summarize_batch(t, cand)

    return wave


def _summarize_batch(t: pa.Table, new_links: pa.Table) -> pa.Table:
    """Per-batch partial summary: counts + the (tiny) control rows the
    driver needs, including first-seen detail counts per listing page."""
    rows: dict[str, list] = {n: [] for n in _SUMMARY_SCHEMA.names}

    def add(tag, **kv):
        for n in _SUMMARY_SCHEMA.names:
            rows[n].append(kv.get(n))
        rows["tag"][-1] = tag

    meta = _filter_kind(t, "pagemeta")
    if meta.num_rows:
        g = meta.group_by(["source", "region", "status"]).aggregate([("url", "count")])
        for r in g.to_pylist():
            add("meta_count", source=r["source"], region=r["region"],
                status=r["status"], n=r["url_count"])
        pm = meta.filter(pc.equal(meta["fetch_kind"], "pagination"))
        for r in pm.to_pylist():
            add("pag_meta", source=r["source"], region=r["region"],
                status=r["status"], page_idx=r["page_idx"], n=r["n_links"])
    offers = _filter_kind(t, "offer")
    if offers.num_rows:
        g = offers.group_by(["source", "region"]).aggregate([("url", "count")])
        for r in g.to_pylist():
            add("offer_count", source=r["source"], region=r["region"], n=r["url_count"])
    for r in _links_of(t, ["pagination"]).to_pylist():
        add("pag_link", source=r["source"], region=r["region"], url=r["url"],
            kind=r["kind"], priority=r["priority"], page_idx=r["page_idx"], pos=r["pos"])
    for r in _links_of(t, ["investment_next"]).to_pylist():
        add("inv_next", source=r["source"], region=r["region"], url=r["url"],
            kind=r["kind"], priority=r["priority"], page_idx=r["page_idx"], pos=r["pos"])
    if new_links.num_rows:
        nd = new_links.filter(pc.and_(
            pc.equal(new_links["kind"], "detail"),
            pc.equal(new_links["fetch_kind"], "pagination")))
        if nd.num_rows:
            g = nd.group_by(["source", "region", "page_idx"]).aggregate([("url", "count")])
            for r in g.to_pylist():
                add("new_detail", source=r["source"], region=r["region"],
                    page_idx=r["page_idx"], n=r["url_count"])
    return pa.Table.from_pydict(rows, schema=_SUMMARY_SCHEMA)


def _frontier_dir(workdir: str, gen: int) -> str:
    return gen_dir(workdir, "frontier", gen)


def _frontier_windows(workdir: str, gen: int, cfg: CrawlConfig
                      ) -> list[list[tuple[str, int, int]]]:
    """Generation ``gen``'s frontier as bounded windows of row groups
    ``(path, row_group, rows)``, one footer read per fragment; ``[]``
    when it has no rows. File-granular: the sorted "part-p{prio}-…"
    names keep priority order, and no window grows past
    ``cfg.max_wave_rows`` by more than its last fragment, so one
    execution never has to hold an arbitrarily large frontier."""
    d = _frontier_dir(workdir, gen)
    if not os.path.isdir(d):
        return []
    windows: list[list[tuple[str, int, int]]] = [[]]
    rows = 0
    for f in sorted(f for f in os.listdir(d) if f.endswith(".parquet")):
        path = os.path.join(d, f)
        md = pq.ParquetFile(path).metadata
        for i in range(md.num_row_groups):
            n = md.row_group(i).num_rows
            if n:
                windows[-1].append((path, i, n))
                rows += n
        if cfg.max_wave_rows is not None and rows >= cfg.max_wave_rows:
            windows.append([])
            rows = 0
    return [w for w in windows if w]


# one fetch batch's share of the frontier: row group ``row_group`` of
# ``path``, rows [offset, offset + rows)
_MANIFEST = pa.schema([("path", pa.string()), ("row_group", pa.int32()),
                       ("offset", pa.int64()), ("rows", pa.int64())])


def _pack_batches(groups: list[tuple[str, int, int]], batch_size: int,
                  ncpu: int) -> list[list[tuple[str, int, int, int]]]:
    """A window's row groups ``(path, row_group, rows)`` packed, in
    order, into fetch batches of ``(path, row_group, offset, rows)``
    pieces. Every batch but the last holds exactly the cap, so a window
    of n rows runs as ceil(n / cap) tasks; a row group that crosses a
    batch boundary (or exceeds the cap) is sliced there. The cap is
    ``batch_size``, except that a small window (fewer batch-sized
    batches than ``ncpu``) lowers it, down to 8 rows, until every CPU
    has a batch: one batch-sized task would idle the rest of the pool
    for a whole frontier round trip."""
    n = sum(rows for _, _, rows in groups)
    cap = batch_size
    if -(-n // batch_size) < ncpu:
        cap = min(batch_size, max(8, -(-n // ncpu)))
    batches: list[list[tuple[str, int, int, int]]] = []
    cur: list[tuple[str, int, int, int]] = []
    fill = 0
    for path, rg, rows in groups:
        off = 0
        while off < rows:
            k = min(cap - fill, rows - off)
            cur.append((path, rg, off, k))
            fill += k
            off += k
            if fill == cap:
                batches.append(cur)
                cur, fill = [], 0
    if cur:
        batches.append(cur)
    return batches


def _manifest(batch: list[tuple[str, int, int, int]]) -> pa.Table:
    """One ``_pack_batches`` batch as the ``_MANIFEST`` table its task gets."""
    return pa.Table.from_pylist(
        [dict(zip(_MANIFEST.names, piece)) for piece in batch],
        schema=_MANIFEST)


def _read_batch(manifest: pa.Table) -> pa.Table:
    """The frontier rows a ``_MANIFEST`` table names, in its order."""
    parts, files = [], {}
    for path, rg, off, rows in zip(*(manifest[c].to_pylist()
                                     for c in _MANIFEST.names)):
        if path not in files:
            files[path] = pq.ParquetFile(path)
        parts.append(files[path].read_row_group(rg).slice(off, rows))
    return pa.concat_tables(parts)


def run_crawl(portal_cfg: PortalConfig, crawl_cfg: CrawlConfig, workdir: str,
              resume: bool = False, retry_rounds: int = 0,
              stop_after_generations: int | None = None) -> CrawlResult:
    """Run (or resume) the crawl. ``stop_after_generations`` simulates a
    kill after N completed waves (checkpoint committed, loop abandoned) —
    the resume-exactness tests restart from there and must produce
    byte-identical final tables.

    Resume contract: byte-identical for runs WITHOUT fetch failures.
    When failures exist, resume deliberately diverges from the crippled
    run: fetch-failed regions re-enqueue their listing chain and
    quarantined offer pages re-enqueue (reference retry semantics,
    cli.py:731-816) — recovery, not replay. Recovered offer rows keep
    their original (page_idx, pos), so a resumed-then-healed run's
    offers converge to what an unfailed run produces."""
    portal = Portal(portal_cfg)
    cfg = crawl_cfg
    run_token = uuid.uuid4().hex[:12]  # keys warm-worker stage caches per run

    state: dict[tuple[str, str], RegionState] = {
        (s, r): RegionState() for s in portal_cfg.sources for r in portal_cfg.regions
    }
    if cfg.validators_from and (os.path.realpath(cfg.validators_from)
                                == os.path.realpath(workdir)):
        # an in-place revisit would rmtree its own validator source
        # below and silently degrade to a full re-crawl
        raise ValueError("validators_from must point at a DIFFERENT "
                         "workdir than the revisit's own")
    marker = os.path.join(workdir, "revisit.json")
    headroom, chain = None, None
    if resume:
        gen, headroom, chain = _restore_checkpoint(workdir, state)
        if cfg.validators_from is None and os.path.exists(marker):
            # the original run was a revisit: restore validators_from so
            # the resumed run's fetch still 304s and — critically — the
            # completion carry rebuilds the gen-zcarry fragments that
            # _clean_partial drops below (a resume without the flag
            # would otherwise silently lose every 304-carried row)
            with open(marker) as f:
                cfg = replace(cfg, validators_from=json.load(f)["from"])
    _check_validator_source(cfg)
    # the services lease their shards only after every check that can
    # raise (the URL-seen shard count is checked before its lease), and
    # the shards boot or reset, each restoring its own checkpoint state,
    # while the driver prepares the first wave's frontier; a service's
    # first call waits for that (state/lease.py)
    urlseen = UrlSeenService(cfg.urlseen_shards, cfg.urlseen_capacity,
                             restore_from=chain)
    politeness = PolitenessService(cfg.politeness_shards, cfg.rps_per_host,
                                   backoff_factor=cfg.backoff_factor,
                                   backoff_cap_mult=cfg.backoff_cap_mult,
                                   headroom=headroom)
    try:
        if resume:
            _clean_partial(workdir, gen)
            _append_retry_rows(portal, state, _frontier_dir(workdir, gen),
                               cfg, workdir)
        else:
            for name in GEN_TABLES + ("frontier", "checkpoint"):
                shutil.rmtree(os.path.join(workdir, name), ignore_errors=True)
            os.makedirs(workdir, exist_ok=True)
            if cfg.validators_from:
                with open(marker, "w") as f:
                    json.dump({"from": cfg.validators_from}, f)
            elif os.path.exists(marker):
                os.unlink(marker)
            if cfg.validators or cfg.validators_from:
                # layout marker + the partition params a future revisit
                # needs to recompute each URL's validator shard (survives
                # _clean_partial: that only removes gen-* dirs)
                vroot = os.path.join(workdir, "validators")
                os.makedirs(vroot, exist_ok=True)
                with open(os.path.join(vroot, "meta.json"), "w") as f:
                    json.dump({"host_buckets": cfg.host_buckets,
                               "skew_salts": [list(p) for p in cfg.skew_salts]},
                              f)
            gen = 0
            d = _frontier_dir(workdir, 0)
            os.makedirs(d)
            # small row groups: the row group is the unit a fetch batch
            # reads, and a small seed wave is spread in batches of down
            # to 8 rows, so groups of 8 keep each task decoding only the
            # rows it fetches
            pq.write_table(_seed_table(portal, cfg),
                           os.path.join(d, "part-p0-seeds.parquet"),
                           row_group_size=8)

        retries_left = retry_rounds
        last_ckpt = -1
        ckpt_idx = 0
        while True:
            windows = _frontier_windows(workdir, gen, cfg)
            if not windows and retries_left > 0:
                retries_left -= 1
                _append_retry_rows(portal, state, _frontier_dir(workdir, gen),
                                   cfg, workdir)
                windows = _frontier_windows(workdir, gen, cfg)
            if not windows:
                break
            try:
                _run_wave(portal, cfg, workdir, gen, urlseen, politeness, state,
                          run_token, windows)
            except Exception as e:
                raise RuntimeError(
                    f"wave {gen} failed mid-execution (worker death or task "
                    "error); URL-seen admissions may be partial — re-run with "
                    "resume=True to replay from the last checkpoint "
                    "(replace-on-retry is idempotent)") from e
            # checkpoint interval: skipped waves re-run deterministically on
            # resume (replace-on-retry), trading a little recompute for less
            # per-wave filter-dump I/O
            if (gen + 1) % cfg.checkpoint_every == 0:
                _write_checkpoint(workdir, gen, state, urlseen, politeness,
                                  full=ckpt_idx % cfg.checkpoint_full_every == 0)
                ckpt_idx += 1
                last_ckpt = gen
            gen += 1
            if stop_after_generations is not None and gen >= stop_after_generations:
                break  # simulated kill: checkpoint durable, work abandoned
        if gen > 0 and last_ckpt != gen - 1 and stop_after_generations is None:
            _write_checkpoint(workdir, gen - 1, state, urlseen, politeness)  # durable terminal state
    finally:
        # wave closures held by Ray Data plans keep both services alive
        # until the garbage collector runs; end their actors now
        urlseen.close()
        politeness.close()

    if cfg.validators_from and stop_after_generations is None:
        _carry_not_modified(workdir, cfg.validators_from)
    res = CrawlResult(workdir=workdir, generations=gen,
                      state={f"{s}|{r}": asdict(st) for (s, r), st in state.items()},
                      limit_offers=cfg.limit_offers,
                      source_order=tuple(portal_cfg.sources),
                      region_order=tuple(portal_cfg.regions))
    for st in state.values():
        res.pages_fetched += st.fetched
        res.pages_failed += st.failed
        res.offers += st.parsed
    return res


def _check_validator_source(cfg: CrawlConfig) -> None:
    """A revisit whose validator source vanished (prior workdir moved or
    deleted) must fail loudly: an empty validator map would silently
    degrade the run to a full re-crawl with an EMPTY 304 carry — i.e.
    silent data loss in the output tables, not just wasted fetches.
    ``validators/meta.json`` marks the bucketed layout every validators
    run writes; without it the driver raises before any actor starts."""
    if cfg.validators_from and not os.path.isfile(
            os.path.join(cfg.validators_from, "validators", "meta.json")):
        raise ValueError(
            f"validators_from={cfg.validators_from!r} has no "
            "validators/meta.json — the prior run's workdir is gone or was "
            "never a validators=True run; refusing to silently degrade to a "
            "full re-crawl with an empty carry")


def _carry_not_modified(workdir: str, prior_workdir: str) -> None:
    """Revisit completion: detail pages answered 304 produced no offer /
    photo rows this run — their rows are BY DEFINITION the prior run's
    (the validator matched, so the content is unchanged). Copy them
    forward as one extra fragment generation so the revisit's output
    tables equal a full re-crawl's byte-for-byte. O(not-modified rows):
    only the carried subset is read and rewritten, never re-fetched or
    re-parsed."""
    # replace-on-rerun: a completed revisit that runs again must not
    # append a second carry generation
    for name in ("offers", "photos", "media"):
        shutil.rmtree(gen_dir(workdir, name, CARRY_GEN), ignore_errors=True)
    v = read_fragments(os.path.join(workdir, "validators"))
    if v is None:
        return
    nm = v.filter(pc.equal(v["status"], "not_modified"))
    if nm.num_rows == 0:
        return
    urls = nm["url"].combine_chunks()
    po = read_fragments(os.path.join(prior_workdir, "offers"))
    if po is not None:
        carried = po.filter(pc.is_in(po["url"], value_set=urls))
        _write_fragment(carried, gen_dir(workdir, "offers", CARRY_GEN))
        if carried.num_rows:
            kept = carried["offer_id"].combine_chunks()
            for name in ("photos", "media"):  # media: downloaded payloads
                pt = read_fragments(os.path.join(prior_workdir, name))
                if pt is not None:
                    _write_fragment(
                        pt.filter(pc.is_in(pt["offer_id"], value_set=kept)),
                        gen_dir(workdir, name, CARRY_GEN))


def _seed_table(portal: Portal, cfg: CrawlConfig) -> pa.Table:
    return pa.Table.from_pylist(
        [{"url": s["url"], "kind": "pagination", "priority": 0, "source": s["source"],
          "region": s["region"], "page_idx": 1, "pos": 0}
         for s in portal.seeds(cfg.last_days)],
        schema=FRONTIER)


def _append_retry_rows(portal: Portal, state: dict, fdir: str,
                       cfg: CrawlConfig, workdir: str) -> None:
    """Retry enqueue (reference retry rounds, cli.py:731-816):

    - fetch-failed regions resume their LISTING chain at
      last_page_done+1 (cli.py:756-762);
    - quarantined DETAIL/INVESTMENT pages re-enqueue unless an offers
      row proves the detail page has since been fetched (the reference
      re-fetches failed offer URLs; without this they were admitted to
      the URL-seen set at discovery and lost forever). Retried detail
      rows carry kind='detail-retry' so the urls table (derived from
      kind='detail' frontier rows — each discovery exactly once) is
      not polluted; they fetch exactly like details and keep their
      original (page_idx, pos), so recovered offer rows are
      byte-identical to an unfailed run's. Investment retries have no
      success marker and simply re-fetch — idempotent, since their
      re-emitted links dedup against the URL-seen set. Fixed fragment
      names make repeated resume calls overwrite, not stack."""
    rows = []
    for (s, r), st in state.items():
        if st.stop_reason == "fetch_fail":
            p = st.last_page_done + 1
            rows.append({"url": portal.listing_url(s, r, p, cfg.last_days),
                         "kind": "pagination",
                         "priority": 0, "source": s, "region": r, "page_idx": p, "pos": 0})
            st.stop_reason = ""
    if rows:
        os.makedirs(fdir, exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows, schema=FRONTIER),
                       os.path.join(fdir, "part-p0-retry.parquet"),
                       row_group_size=8)
    q = _pending_quarantined_offer_pages(workdir)
    if q is None or q.num_rows == 0:
        return
    os.makedirs(fdir, exist_ok=True)
    for fk, kind, prio, name in (("investment", "investment", 1,
                                  "part-p1-retryinv.parquet"),
                                 ("detail", "detail-retry", 2,
                                  "part-p2-retrydet.parquet")):
        sel = q.filter(pc.equal(q["fetch_kind"], fk))
        if not sel.num_rows:
            continue
        t = pa.table({
            "url": sel["url"],
            "kind": pa.array([kind] * sel.num_rows, pa.string()),
            "priority": pa.array(np.full(sel.num_rows, prio, np.int32)),
            "source": sel["source"], "region": sel["region"],
            "page_idx": sel["page_idx"], "pos": sel["pos"],
        }).cast(FRONTIER)
        pq.write_table(t, os.path.join(fdir, name),
                       row_group_size=cfg.fetch_batch_size)


def _pending_quarantined_offer_pages(workdir: str) -> pa.Table | None:
    """Distinct quarantined detail/investment pages with no offers row
    for their URL. The offers check is a streamed, column-pruned
    ``pc.is_in`` probe — the driver only ever holds the quarantine-
    sized URL set (operationally small: it is the set of FAILED
    fetches), never the offers table."""
    qfiles = gen_files(os.path.join(workdir, "quarantine"))
    if not qfiles:
        return None
    q = pa.concat_tables([
        pq.read_table(f, columns=["url", "source", "region", "page_idx",
                                  "pos", "fetch_kind"]) for f in qfiles])
    q = q.filter(pc.is_in(q["fetch_kind"],
                          value_set=pa.array(["detail", "investment"])))
    if not q.num_rows:
        return q
    # distinct by url, keep first occurrence
    df = q.to_pandas().drop_duplicates(subset=["url"], keep="first")
    q = pa.Table.from_pandas(df, preserve_index=False)
    det_urls = q.filter(pc.equal(q["fetch_kind"], "detail"))["url"]
    ofiles = gen_files(os.path.join(workdir, "offers"))
    if not ofiles or not len(det_urls):
        return q
    ref = ray.put(det_urls.combine_chunks())

    def probe(t: pa.Table) -> pa.Table:
        return (t.filter(pc.is_in(t["url"], value_set=ray.get(ref)))
                .select(["url"]))

    done = read(ofiles, ["url"]).map_batches(
        probe, batch_format="pyarrow").take_all()
    fetched = {r["url"] for r in done}
    if not fetched:
        return q
    mask = [u not in fetched for u in q["url"].to_pylist()]
    return q.filter(pa.array(mask))


def _run_wave(portal: Portal, cfg: CrawlConfig, workdir: str, gen: int,
              urlseen: UrlSeenService, politeness: PolitenessService,
              state: dict, run_token: str,
              windows: list[list[tuple[str, int, int]]]) -> None:
    """Run wave ``gen`` over its (non-empty) ``_frontier_windows``, one
    execution per window, and fold the summaries into ``state``."""
    # replace-on-retry: this wave's outputs are recreated from scratch
    next_dir = _frontier_dir(workdir, gen + 1)
    for name in GEN_TABLES:
        shutil.rmtree(gen_dir(workdir, name, gen), ignore_errors=True)
    shutil.rmtree(next_dir, ignore_errors=True)

    wave_fn = make_wave_fn(portal.cfg, cfg, politeness, urlseen, workdir, gen,
                           run_token)

    def run_batch(manifest: pa.Table) -> pa.Table:
        return wave_fn(_read_batch(manifest))

    def run_window(groups: list[tuple[str, int, int]]) -> list[dict]:
        # one operator, one task per fetch batch: the driver already read
        # the footers, so each task reads its own row groups and no read
        # stage (with its metadata sampling tasks) runs in front of the
        # wave. Batches keep the sorted path order, so pagination (p0)
        # batches are submitted before investment (p1) before detail
        # (p2) — the priority queue with no sort shuffle (north_rule;
        # SURVEY.md §2.6 O2)
        batches = _pack_batches(groups, cfg.fetch_batch_size,
                                int(ray.cluster_resources().get("CPU", 1)))
        manifests = [_manifest(b) for b in batches]
        # max_retries=0: wave tasks perform NON-IDEMPOTENT side effects
        # (fragment writes + URL-seen test-and-set), and Ray's default
        # transparently re-runs a task whose worker died — a silently
        # retried wave task would duplicate offer fragments AND
        # permanently drop the URLs the dead attempt had already
        # admitted (the retry sees them as 'seen'). Failing the wave
        # loudly instead is recoverable: resume=True replays from the
        # last checkpoint, whose replace-on-retry semantics ARE
        # idempotent (tested byte-identical).
        return rd.from_arrow(manifests).map_batches(
            run_batch, batch_format="pyarrow", batch_size=None,
            concurrency=(min(cfg.fetch_concurrency, len(batches))
                         if cfg.fetch_concurrency else None),
            num_cpus=cfg.fetch_num_cpus,
            max_retries=0).take_all()

    summary: list[dict] = []
    if len(windows) == 1:
        # inline on the driver thread: a traced run's span stack is
        # thread-local, and ray.exec must nest under crawl.wave
        summary = run_window(windows[0])
    else:
        # double-buffered windows: at most TWO window executions in
        # flight, so the in-flight frontier stays bounded at
        # ~2·max_wave_rows while the inter-window barrier (one window's
        # straggler tail) hides behind the next window's ramp-up.
        # Summaries are folded in window order (ex.map preserves it) —
        # the fold is order-independent anyway (counts are commutative,
        # pag_link/pag_meta keys are unique per wave).
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=2) as ex:
            for part in ex.map(run_window, windows):
                summary.extend(part)

    newc: dict[tuple[str, str, int], int] = {}
    pag_meta, pag_links, inv_next = [], {}, []
    for r in summary:
        st: RegionState = state[(r["source"], r["region"])]
        if r["tag"] == "new_detail":
            k = (r["source"], r["region"], int(r["page_idx"]))
            newc[k] = newc.get(k, 0) + int(r["n"])
        elif r["tag"] == "meta_count":
            if r["status"] == "fetch_fail":
                st.failed += int(r["n"])
            else:
                st.fetched += int(r["n"])
        elif r["tag"] == "offer_count":
            st.parsed += int(r["n"])
        elif r["tag"] == "pag_meta":
            pag_meta.append(r)
        elif r["tag"] == "pag_link":
            pag_links[(r["source"], r["region"])] = r
        elif r["tag"] == "inv_next":
            inv_next.append(r)

    # ---- per-region stop decisions (auto-stop watermarks, §2.9) ------------
    next_rows: list[dict] = [
        {c: r[c] for c in FRONTIER_COLS} for r in inv_next]
    for m in pag_meta:
        key = (m["source"], m["region"])
        st = state[key]
        p = int(m["page_idx"])
        if m["status"] == "fetch_fail":
            st.stop_reason = "fetch_fail"
            continue
        st.last_page_done = p
        if m["status"] == "empty":
            st.stop_reason = "no_links"
            continue
        if newc.get((m["source"], m["region"], p), 0) == 0:
            st.no_new_streak += 1
        else:
            st.no_new_streak = 0
        # per-source no-new stop policy (config.NO_NEW_STOP registry,
        # overridable per run via PortalConfig.extra_sources — §2.10)
        limit = portal.cfg.source_no_new_stop(m["source"])
        if limit is not None and st.no_new_streak >= limit:
            st.stop_reason = "no_new"
            continue
        nxt = pag_links.get(key)
        if nxt is None:
            st.stop_reason = "no_links"
            continue
        if cfg.max_pages is not None and p + 1 > cfg.max_pages:
            st.stop_reason = "max_pages"
            continue
        next_rows.append({c: nxt[c] for c in FRONTIER_COLS})

    if next_rows:
        os.makedirs(next_dir, exist_ok=True)
        # row_group_size=8: the row group is the unit a fetch batch
        # reads, so when these rows spread over several tasks each one
        # decodes only about its own rows (the same reason the gen-0
        # seed file uses groups of 8)
        pq.write_table(pa.Table.from_pylist(next_rows, schema=FRONTIER),
                       os.path.join(next_dir, "part-p0-driver.parquet"),
                       row_group_size=8)


# ---------------------------------------------------------------------------
# checkpoint / resume (FIXTURES.md F6; reference cli.py:98-152, 706-816)
# ---------------------------------------------------------------------------


def _write_checkpoint(workdir: str, gen: int, state: dict,
                      urlseen: UrlSeenService,
                      politeness: "PolitenessService | None" = None,
                      full: bool = True) -> None:
    """Atomic checkpoint commit. ``full`` has every URL-seen shard write
    its complete filter; otherwise only the keys admitted since the
    previous checkpoint (incremental — at 10^10 keys full dumps are
    ~20 GB, deltas are proportional to the wave's new URLs). The shards
    write their own files into the uncommitted ``.tmp-gen-G`` directory;
    the driver renames it into place once all have written. Region state
    is always full (tiny). Retention keeps everything back to the
    second-newest full checkpoint so a delta chain is always
    restorable."""
    root = os.path.join(workdir, "checkpoint")
    os.makedirs(root, exist_ok=True)
    tmp = os.path.join(root, f".tmp-gen-{gen}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    with open(os.path.join(tmp, "state.json"), "w") as f:
        json.dump({"generation": gen,
                   "regions": {f"{s}|{r}": asdict(st) for (s, r), st in state.items()}},
                  f)
    # per-host politeness budgets (north_star crawl-state clause):
    # remaining per-host delays, relative so a restarted process's
    # monotonic clock doesn't matter
    if politeness is not None:
        with open(os.path.join(tmp, "politeness.json"), "w") as f:
            json.dump(politeness.dump_headroom(), f)
    urlseen.checkpoint(os.path.join(tmp, "filters" if full else "deltas"), full)
    final = gen_dir(workdir, "checkpoint", gen)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)  # atomic commit: wave `gen` is durably done
    gens = [(int(g), d) for g, d in _gen_dirs(root)]
    fulls = [g for g, d in gens if os.path.isdir(os.path.join(d, "filters"))]
    if len(fulls) >= 2:
        for g, d in gens:
            if g < fulls[-2]:
                shutil.rmtree(d, ignore_errors=True)


def latest_checkpoint_gen(workdir: str) -> int | None:
    gens = _gen_dirs(os.path.join(workdir, "checkpoint"))
    return int(gens[-1][0]) if gens else None


def _restore_checkpoint(workdir: str, state: dict
                        ) -> tuple[int, dict, list[str]]:
    """Read the newest checkpoint's region state into ``state``; returns
    ``(generation to resume at, politeness headroom, URL-seen chain)``.
    The chain is the newest full filter directory then the delta
    directories after it, in order; the services load it themselves
    (``UrlSeenService(restore_from=...)``), so nothing here talks to an
    actor or reads filter bytes."""
    last = latest_checkpoint_gen(workdir)
    if last is None:
        raise FileNotFoundError(f"no checkpoint under {workdir}")
    root = os.path.join(workdir, "checkpoint")
    with open(os.path.join(gen_dir(workdir, "checkpoint", last), "state.json")) as f:
        payload = json.load(f)
    for key, st in payload["regions"].items():
        s, r = key.split("|")
        state[(s, r)] = RegionState(**st)
    headroom: dict = {}
    pol_path = os.path.join(gen_dir(workdir, "checkpoint", last), "politeness.json")
    if os.path.exists(pol_path):
        with open(pol_path) as f:
            headroom = json.load(f)
        if not isinstance(headroom, dict):
            # the per-shard list layout: no checkpoint has written it
            # since the host map (``dump_headroom``) replaced it
            raise ValueError(
                f"{pol_path} is not a host→delay map; this checkpoint "
                "predates the current politeness layout — resume it with "
                "the version that wrote it, or start a fresh crawl")
    # filter state: newest full dump ≤ last, then the delta chain
    gens = [(int(g), d) for g, d in _gen_dirs(root) if int(g) <= last]
    fulls = [(g, d) for g, d in gens if os.path.isdir(os.path.join(d, "filters"))]
    if not fulls:
        raise FileNotFoundError(f"no full filter checkpoint under {root}")
    base, base_dir = fulls[-1]
    chain = [os.path.join(base_dir, "filters")] + [
        os.path.join(d, "deltas") for g, d in gens
        if g > base and os.path.isdir(os.path.join(d, "deltas"))]
    return last + 1, headroom, chain


def _clean_partial(workdir: str, resume_gen: int) -> None:
    """Idempotent resume: wave `resume_gen` re-runs from scratch, so its
    (possibly partial) outputs and any partially-written next frontier
    are dropped and re-written deterministically (replace-on-retry)."""
    for name, cutoff in ([(n, resume_gen) for n in GEN_TABLES]
                         + [("frontier", resume_gen + 1)]):
        for suffix, d in _gen_dirs(os.path.join(workdir, name)):
            # non-numeric generations (the revisit's carry fragments)
            # are completion artifacts: always rebuilt at the end of a
            # resumed run, so a resume drops them unconditionally
            if not suffix.isdigit() or int(suffix) >= cutoff:
                shutil.rmtree(d, ignore_errors=True)
