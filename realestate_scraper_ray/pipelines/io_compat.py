"""Reference-format CSV compatibility: export crawl tables in the
reference scraper's exact CSV layouts, and read frontier CSVs with its
tolerant column handling — so a user of the reference can point their
existing downstream consumers at this engine's output unchanged.

Reference formats (citations into /root/reference/):
  - ``urls.csv``:   ``offer_url, offer_id, page_idx, source``
    (adapter writers, e.g. otodom.py:620-625; ``source`` added by 3 of
    4 adapters, morizon.py:714-719)
  - ``offers.csv``: the 11-column ``OFFER_SCHEMA`` order
    (pipelines/detail.py:22), missing values as empty strings
    (storage.py:75,128)
  - ``photos.csv``: ``offer_id, seq, url`` (otodom.py:817-825)
  - URL reader: accepts ``offer_url`` / ``url`` / ``href`` columns
    (detail.py:33-42), skipping blank cells.

Writes are atomic (tmp + rename), the engine-wide analogue of the
reference's flock+tmp+replace append discipline (storage.py:53-82).
"""

from __future__ import annotations

import csv
import os
import re
import uuid

import pyarrow as pa
import ray.data as rd

from ..config import OFFER_COLUMNS

URLS_COLUMNS: tuple[str, ...] = ("offer_url", "offer_id", "page_idx", "source")
PHOTO_COLUMNS: tuple[str, ...] = ("offer_id", "seq", "url")


def _write_csv(path: str, header: tuple[str, ...], tbl: pa.Table) -> int:
    """Fixed-order, header-once CSV write; unknown columns dropped and
    missing ones filled with '' (storage.py extrasaction/restval)."""
    cols = {}
    for name in header:
        if name in tbl.column_names:
            cols[name] = tbl[name].to_pylist()
        else:
            cols[name] = [""] * tbl.num_rows
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(tbl.num_rows):
            w.writerow(["" if cols[c][i] is None else cols[c][i]
                        for c in header])
    os.replace(tmp, path)
    return tbl.num_rows


def export_reference_csv(result, out_dir: str) -> dict[str, int]:
    """Export a CrawlResult's urls/offers/photos tables as the
    reference's CSV artifacts. Returns row counts per file."""
    os.makedirs(out_dir, exist_ok=True)
    counts = {}
    counts["urls.csv"] = _write_csv(
        os.path.join(out_dir, "urls.csv"), URLS_COLUMNS,
        result.table("urls"))
    counts["offers.csv"] = _write_csv(
        os.path.join(out_dir, "offers.csv"), OFFER_COLUMNS,
        result.table("offers"))
    counts["photos.csv"] = _write_csv(
        os.path.join(out_dir, "photos.csv"), PHOTO_COLUMNS,
        result.table("photos"))
    return counts


def export_debug_jsonl(result, path: str) -> int:
    """Quarantine table as the reference's JSONL debug-dump format
    (detail.py:194,207-212: one JSON object per failed URL). Returns
    the row count. The dump carries exactly the reference's fields —
    the parquet table itself may grow columns (e.g. ``pos`` for the
    retry path) without changing this format."""
    import json
    tbl = result.table("quarantine").select(
        ["url", "source", "region", "page_idx", "fetch_kind"])
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        for row in tbl.to_pylist():
            f.write(json.dumps(row, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return tbl.num_rows


def export_debug_html(result, portal, out_dir: str,
                      limit: int | None = None) -> int:
    """The reference's failed-page HTML dump (S17, detail.py:241-247 /
    stream.py:26-39: ``debug_html/err_{i}.html``): re-render each
    quarantined URL's page body deterministically (the portal is a pure
    function of the URL) and write it as ``err_{i}.html`` in quarantine
    order. Only meaningful for HTML-mode portals (cfg.html_bytes > 0);
    span-mode pages dump their span list as JSON. Returns files written."""
    import json
    os.makedirs(out_dir, exist_ok=True)
    rows = result.table("quarantine").to_pylist()
    rows.sort(key=lambda r: (r["source"], r["region"],
                             r["page_idx"], r["url"]))
    if limit is not None:
        rows = rows[:limit]
    for i, row in enumerate(rows):
        if portal.cfg.html_bytes > 0:
            body = portal.render_html(row["url"]) or ""
            name = f"err_{i}.html"
        else:
            body = json.dumps(portal.render(row["url"]) or [],
                              sort_keys=True)
            name = f"err_{i}.json"
        tmp = os.path.join(out_dir, f".tmp-{uuid.uuid4().hex[:8]}")
        with open(tmp, "w") as f:
            f.write(body)
        os.replace(tmp, os.path.join(out_dir, name))
    return len(rows)


def export_coverage_report(result, path: str) -> dict[str, float]:
    """The reference's measurement-campaign report (S19,
    mierzalnosc_excel.py:90-122) as CSV: every discovered URL
    left-joined against the offers table, misses annotated with the
    failure reason (the 'wynik' column) — 'fetch_fail' when the page is
    in the quarantine table, 'incomplete' otherwise (REQ_FIELDS /
    validation drop). Returns per-source coverage ratios."""
    urls = result.table("urls").to_pandas()
    offers = result.table("offers").to_pandas()
    failed = set(result.table("quarantine")["url"].to_pylist()) \
        if result.table("quarantine").num_rows else set()
    parsed = set(offers["url"])
    urls = urls.sort_values(["source", "region", "page_idx", "pos"])
    urls["parsed"] = urls["offer_url"].isin(parsed)
    urls["wynik"] = [
        "" if ok else ("fetch_fail" if u in failed else "incomplete")
        for u, ok in zip(urls["offer_url"], urls["parsed"])]
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    urls[["source", "offer_url", "offer_id", "page_idx",
          "parsed", "wynik"]].to_csv(tmp, index=False)
    os.replace(tmp, path)
    cov = urls.groupby("source")["parsed"].mean()
    return {s: float(v) for s, v in cov.items()}


def read_urls_csv(path: str) -> rd.Dataset:
    """Frontier reader with the reference's tolerant column handling
    (detail.py:33-42): the URL may live in ``offer_url``, ``url`` or
    ``href``; blank cells are skipped. Returns a Dataset with one
    ``url`` column, streamed via ``ray.data.read_csv``."""
    ds = rd.read_csv(path)
    names = ds.schema().names
    col = next((c for c in ("offer_url", "url", "href") if c in names), None)
    if col is None:
        raise ValueError(
            f"{path}: no offer_url/url/href column (found {names})")

    def pick(t: pa.Table) -> pa.Table:
        urls = t[col]
        out = pa.table({"url": urls})
        mask = pa.compute.and_(
            pa.compute.is_valid(urls),
            pa.compute.not_equal(
                pa.compute.cast(urls, pa.string()), ""))
        return out.filter(mask)

    return ds.map_batches(pick, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# M33 — log-line recovery parser (cli.py:181-276 _parse_live_all_log)
# ---------------------------------------------------------------------------

_LIVE_ALL_START_RE = re.compile(
    r"\[LIVE-ALL\] start region=(?P<region>\S+)")
_LIVE_ALL_DONE_RE = re.compile(
    r"\[LIVE-ALL\] done region=(?P<region>\S+)")
_PAGE_IN_URL_RE = re.compile(r"[?&](?:page|strona)=(\d+)")


def recover_state_from_log(lines, strict_errors: bool = False) -> dict:
    """The reference's log-line recovery (cli.py:181-276): rebuild
    per-region ``{done, last_page_done, stop_reason}`` from a live-all
    log — "[LIVE-ALL] start/done region=…" markers, JSON log lines
    (``discover_page_done`` max page, ``discover_fetch_fail`` with the
    failed page recovered from the URL minus one), non-JSON fallbacks,
    and the strict mode where any ERROR-level line un-dones the region.

    The engine's own resume path is the checkpoint table (crawl.py) —
    this parser exists so state recorded by the REFERENCE's logs can
    seed a migration run."""
    import json as _json
    regions: dict[str, dict] = {}
    current: str | None = None

    def ensure(r: str) -> dict:
        return regions.setdefault(r, {
            "saw_done": False, "had_fetch_fail": False, "had_error": False,
            "last_page_done": 0, "stop_reason": None})

    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        m = _LIVE_ALL_START_RE.search(line)
        if m:
            current = m.group("region").lower()
            ensure(current)
            continue
        m = _LIVE_ALL_DONE_RE.search(line)
        if m:
            ensure(m.group("region").lower())["saw_done"] = True
            current = None
            continue
        if line.startswith("{") and line.endswith("}"):
            try:
                obj = _json.loads(line)
            except ValueError:
                obj = None
            if isinstance(obj, dict) and current:
                st = ensure(current)
                msg = obj.get("msg")
                level = str(obj.get("level") or "").upper()
                extra = obj.get("extra") or {}
                if strict_errors and level == "ERROR":
                    st["had_error"] = True
                if msg == "discover_page_done":
                    try:
                        st["last_page_done"] = max(
                            int(st["last_page_done"]),
                            int(extra.get("page") or 0))
                    except (TypeError, ValueError):
                        pass
                if msg == "discover_fetch_fail":
                    st["had_fetch_fail"] = True
                    st["stop_reason"] = "fetch_fail"
                    pm = _PAGE_IN_URL_RE.search(str(extra.get("url") or ""))
                    if pm and int(pm.group(1)) > 1:
                        st["last_page_done"] = max(
                            int(st["last_page_done"]), int(pm.group(1)) - 1)
            continue
        if current and "discover_fetch_fail" in line:
            st = ensure(current)
            st["had_fetch_fail"] = True
            st["stop_reason"] = "fetch_fail"
            continue
        if current and strict_errors and (
                '"level": "ERROR"' in line or line.startswith("ERROR")):
            ensure(current)["had_error"] = True

    out: dict[str, dict] = {}
    for r, st in regions.items():
        done = bool(st["saw_done"]) and not bool(st["had_fetch_fail"])
        if strict_errors and st["had_error"]:
            done = False
        out[r] = {"done": done,
                  "last_page_done": int(st["last_page_done"]),
                  "stop_reason": st["stop_reason"]}
    return out


def export_live_all_log(result, path: str) -> int:
    """Render a CrawlResult's terminal state as a reference-format
    live-all log (the inverse of :func:`recover_state_from_log`): a
    start marker, one ``discover_page_done`` JSON line per completed
    page, a ``discover_fetch_fail`` line for fetch-failed regions, and
    a done marker for cleanly-stopped regions. Lets reference tooling
    that tails live-all logs consume this engine's runs."""
    import json as _json
    lines: list[str] = []
    for key, st in result.state.items():
        source, region = key.split("|", 1)
        rname = f"{source}:{region}"
        lines.append(f"[LIVE-ALL] start region={rname}")
        for p in range(1, int(st["last_page_done"]) + 1):
            lines.append(_json.dumps(
                {"msg": "discover_page_done", "level": "INFO",
                 "extra": {"page": p, "source": source, "region": region}}))
        if st["stop_reason"] == "fetch_fail":
            failed_page = int(st["last_page_done"]) + 1
            lines.append(_json.dumps(
                {"msg": "discover_fetch_fail", "level": "ERROR",
                 "extra": {"url": f"https://{region}.{source}.pl/"
                                  f"mieszkania?page={failed_page}"}}))
        else:
            lines.append(f"[LIVE-ALL] done region={rname}")
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return len(lines)


# ---------------------------------------------------------------------------
# S15 — completion-notification stream (backend.py:188-230 semantics)
# ---------------------------------------------------------------------------


def export_offer_notifications(result, path: str) -> int:
    """The reference notifies a durable queue with one
    ``{"apartment_id": id}`` message per stored offer
    (backend.py:188-230, queue ``scraper_new_offers``). The engine's
    stand-in for a broker in this environment is a durable append-only
    JSONL stream in crawl order — a consumer drains it exactly like the
    queue; swapping in a real ``basic_publish`` is one line in the
    writer loop. The body is EXACTLY the reference's message —
    ``{"apartment_id": <id>}``, one key, nothing else (the queue name
    is the routing key, not body content; backend.py:210-218) — so a
    schema-strict consumer accepts every line. The id is the engine's
    offer id (the reference publishes the DB row id, which has no
    stand-in here). Atomic tmp+rename keeps re-exports idempotent."""
    import json as _json
    offers = result.table("offers").to_pandas().sort_values(
        ["source", "region", "page_idx", "pos"], kind="stable")
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        for oid in offers["offer_id"]:
            f.write(_json.dumps({"apartment_id": oid}) + "\n")
    os.replace(tmp, path)
    return len(offers)


def delete_cheap_offers(ds: "rd.Dataset",
                        threshold: float = 50_000.0) -> "rd.Dataset":
    """The reference's post-hoc database correction
    (database_corrections/delete_cheap_offers.py: walk stored
    apartments by id, delete price < 50 000): here one streaming
    vectorized filter over the offers table — no per-row API walk."""
    return ds.filter(expr=f"price_amount >= {threshold}")


def write_jsonl_shards(ds: "rd.Dataset", out_dir: str) -> int:
    """Corpus-scale JSONL sink: one shard file per block, written INSIDE
    the map task (atomic tmp+rename).  The shard name is
    ``shard-{min id}-{content hash}`` — a pure function of the block's
    rows, so the same block always lands on the same name (re-runs
    overwrite) and two blocks can never collide unless they hold
    identical rows.  Stale shards from an earlier run with a different
    partitioning are cleared up front — including ``.tmp-*`` files a
    killed task orphaned — so the directory always reflects exactly
    one run.  Returns rows written; when two blocks hold bit-identical
    rows they land on the SAME shard name (the write is a byte-equal
    overwrite, so disk content is correct, but the returned count then
    exceeds the on-disk row total — callers counting rows should scan
    the directory, not trust the return, if their input can repeat
    whole blocks).  JSONL is the lingua franca for corpus hand-off
    (the reference's debug dump, HF datasets, most curation tools) —
    parquet stays the engine-internal format."""
    import hashlib as _hashlib
    import json as _json
    import os as _os
    import uuid as _uuid

    _os.makedirs(out_dir, exist_ok=True)
    for f in _os.listdir(out_dir):  # clear stale shards (layout change)
        if f.endswith(".jsonl") or ".tmp-" in f:  # incl. orphaned tmps
            _os.unlink(_os.path.join(out_dir, f))

    def dump(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        lines = [_json.dumps(row, ensure_ascii=False, sort_keys=True)
                 for row in t.to_pylist()]
        body = "\n".join(lines) + "\n"
        first = min(t.column(0).to_pylist())
        digest = _hashlib.sha1(body.encode()).hexdigest()[:10]
        path = _os.path.join(out_dir, f"shard-{first}-{digest}.jsonl")
        tmp = path + f".tmp-{_uuid.uuid4().hex}"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(body)
        _os.replace(tmp, path)
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    parts = ds.map_batches(dump, batch_format="pyarrow").take_all()
    return int(sum(r["n"] for r in parts))


def read_jsonl_shards(out_dir: str) -> "rd.Dataset":
    """Streaming JSONL source for the shards ``write_jsonl_shards``
    produced (ray.data's native json reader — one block per shard,
    schema inferred by Arrow).  An empty directory reads as an empty
    Dataset."""
    import os as _os
    paths = sorted(_os.path.join(out_dir, f)
                   for f in _os.listdir(out_dir) if f.endswith(".jsonl"))
    if not paths:
        return rd.from_items([])
    return rd.read_json(paths)


def compact_fragments(src_dir: str, out_dir: str,
                      target_bytes: int = 64 << 20) -> dict:
    """Small-file compaction for a fragment tree (``{src}/gen-*/
    part-*.parquet`` — the crawl's offer/photo/frontier layout): bins
    the fragment FILES by cumulative size into ~``target_bytes`` chunks
    (driver sees only the file listing, never rows), then one map task
    per bin reads its files and writes one consolidated parquet
    (atomic tmp+rename).  Bin outputs are named by the md5 of the
    bin's file list, so a re-run — or a resumed run — skips bins whose
    output already exists instead of rewriting them.  Returns
    {files_in, files_out, rows, skipped}.

    This is the lakehouse maintenance pass a long crawl needs: waves
    write one fragment per (task, batch) for atomicity and resume
    granularity, which is exactly wrong for later full-table scans —
    compaction trades fragment-level lineage (no longer needed once a
    run is complete) for scan-sized files."""
    import hashlib as _hashlib
    import os as _os
    import uuid as _uuid

    import pyarrow.parquet as _pq
    import ray.data as _rd

    from .crawl import gen_files
    files = gen_files(src_dir)
    _os.makedirs(out_dir, exist_ok=True)
    bins: list[list[str]] = [[]]
    acc = 0
    for f in files:
        sz = _os.path.getsize(f)
        if bins[-1] and acc + sz > target_bytes:
            bins.append([])
            acc = 0
        bins[-1].append(f)
        acc += sz
    bins = [b for b in bins if b]
    if not bins:  # empty fragment tree: nothing to do
        return {"files_in": 0, "files_out": 0, "rows": 0, "skipped": 0}

    def bin_digest(bin_files: list[str]) -> str:
        # hash paths RELATIVE to src_dir (./W and /abs/W spell the same
        # bins, so a re-run under either skips instead of rewriting)
        # PLUS each file's size: a fragment rewritten in place with the
        # same name but different content must invalidate its bin —
        # path-only identity would keep stale compacted rows
        rel = [f"{_os.path.relpath(f, src_dir)}:{_os.path.getsize(f)}"
               for f in bin_files]
        return _hashlib.md5("\n".join(rel).encode()).hexdigest()[:12]

    # a changed source listing (resumed crawl added gens) re-bins the
    # tail: stale compact files from the PREVIOUS binning would
    # double-count their rows — clear anything not in the current bin
    # set, plus orphaned tmp files from a killed task
    keep = {f"compact-{bin_digest(b)}.parquet" for b in bins}
    for f in _os.listdir(out_dir):
        if (f.startswith("compact-") and f not in keep) or ".tmp-" in f:
            _os.unlink(_os.path.join(out_dir, f))

    def compact_bin(t: pa.Table) -> pa.Table:
        out_rows, skipped = 0, 0
        for row in t.to_pylist():
            bin_files = row["files"]
            digest = bin_digest(bin_files)
            path = _os.path.join(out_dir, f"compact-{digest}.parquet")
            if _os.path.exists(path):
                skipped += 1
                continue
            merged = pa.concat_tables(
                [_pq.read_table(f) for f in bin_files],
                promote_options="default")
            tmp = path + f".tmp-{_uuid.uuid4().hex}"
            _pq.write_table(merged, tmp)
            _os.replace(tmp, path)
            out_rows += merged.num_rows
        return pa.table({"rows": pa.array([out_rows], pa.int64()),
                         "skipped": pa.array([skipped], pa.int64())})

    parts = (_rd.from_items([{"files": b} for b in bins])
             .map_batches(compact_bin, batch_size=1,
                          batch_format="pyarrow")
             .take_all())
    return {"files_in": len(files), "files_out": len(bins),
            "rows": int(sum(r["rows"] for r in parts)),
            "skipped": int(sum(r["skipped"] for r in parts))}
