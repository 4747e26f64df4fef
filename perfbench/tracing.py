"""Layer tracing from outside the engine.

Wraps public functions of the engine's modules in timing spans. Worker
wrappers are installed at Ray worker start-up through
``runtime_env={"worker_process_setup_hook": "perfbench.tracing.install_worker"}``
and record only while a :class:`TracedWave` call is running, so the
same Ray session can run untraced crawls next to traced ones. Driver
wrappers are installed and removed around one traced crawl by
:func:`driver_tracing`.

A span is ``(id, parent, name, start, end, attrs)`` on the shared
``time.monotonic`` clock. Spans stay in memory in each process; a worker
appends its buffer to ``<trace_dir>/w-<pid>.jsonl`` when its wave task
ends. Self time is a span's time minus its direct children's time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import threading
import time

_BUF: list[list] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_ACTIVE = False  # worker side: a TracedWave call is running


def _stack() -> list:
    s = getattr(_LOCAL, "stack", None)
    if s is None:
        s = _LOCAL.stack = []
    return s


class _Span:
    __slots__ = ("rec",)

    def __init__(self, name: str, attrs: dict | None = None):
        stack = _stack()
        parent = stack[-1][0] if stack else 0
        self.rec = [next(_IDS), parent, name, 0.0, 0.0, attrs or {}]

    def __enter__(self):
        _stack().append(self.rec)
        self.rec[3] = time.monotonic()
        return self.rec

    def __exit__(self, *exc):
        self.rec[4] = time.monotonic()
        _stack().pop()
        _BUF.append(self.rec)
        return False


def _inside(name: str) -> bool:
    return any(r[2] == name for r in _stack())


def _traced(fn, name: str, attrs=None, outermost: bool = False,
            worker: bool = True):
    """Wrap ``fn`` in a span. ``attrs(args, kwargs, result)`` adds span
    attributes; ``outermost`` skips spans nested in a same-name span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (worker and not _ACTIVE) or (outermost and _inside(name)):
            return fn(*args, **kwargs)
        with _Span(name) as rec:
            out = fn(*args, **kwargs)
            if attrs is not None:
                rec[5].update(attrs(args, kwargs, out))
            return out

    wrapper.__perfbench_orig__ = fn
    return wrapper


def _patch(owner, attr: str, *a, **kw) -> tuple:
    orig = getattr(owner, attr)
    setattr(owner, attr, _traced(orig, *a, **kw))
    return owner, attr, orig


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _ParquetProxy:
    """Stands in for ``pyarrow.parquet`` inside pipelines.crawl: adds the
    bytes of each file written to the enclosing fragment-write span."""

    def __init__(self, pq):
        self._pq = pq

    def __getattr__(self, name):
        return getattr(self._pq, name)

    def write_table(self, table, where, *args, **kwargs):
        self._pq.write_table(table, where, *args, **kwargs)
        stack = _stack()
        if _ACTIVE and stack and stack[-1][2] == "crawl.fragment_write":
            attrs = stack[-1][5]
            attrs["bytes"] = attrs.get("bytes", 0) + os.path.getsize(where)


def _page_bytes(out) -> int:
    if out is None:
        return 0
    if isinstance(out, str):
        return len(out)
    return sum(len(s.get("text") or "") for s in out)


def install_worker() -> None:
    """Install the worker-side wrappers (idempotent)."""
    from realestate_scraper_ray.pipelines import crawl
    from realestate_scraper_ray.sources.synth_portal import Portal
    from realestate_scraper_ray.stages import fetch
    from realestate_scraper_ray.state.politeness import PolitenessService
    from realestate_scraper_ray.state.urlseen import UrlSeenService
    if hasattr(fetch.FetchParse.__call__, "__perfbench_orig__"):
        return

    def render_attrs(a, kw, out):
        return {"bytes": _page_bytes(out)}

    for meth in ("render", "render_html"):
        _patch(Portal, meth, "portal.render", render_attrs, outermost=True)
    _patch(fetch, "html_to_spans", "fetch.parse")
    _patch(fetch.FetchParse, "__call__", "fetch.batch",
           lambda a, kw, out: {"pages": a[1].num_rows})
    _patch(PolitenessService, "book", "politeness.book")
    _patch(UrlSeenService, "filter_new", "urlseen.filter_new",
           lambda a, kw, out: {"keys": int(len(out)), "admitted": int(out.sum())})
    _patch(crawl, "_host_buckets", "crawl.host_bucket")
    _patch(crawl, "_summarize_batch", "crawl.summary")
    _patch(crawl, "_write_fragment", "crawl.fragment_write",
           lambda a, kw, out: {"rows": a[0].num_rows})
    crawl.pq = _ParquetProxy(crawl.pq)


class TracedWave:
    """Wraps the wave function ``make_wave_fn`` returns: activates the
    worker wrappers for one wave task and appends this process's spans
    to ``<trace_dir>/w-<pid>.jsonl`` when it ends."""

    def __init__(self, fn, trace_dir: str):
        self.fn = fn
        self.trace_dir = trace_dir

    def __call__(self, batch):
        global _ACTIVE
        _ACTIVE = True
        try:
            with _Span("crawl.wave_task"):
                return self.fn(batch)
        finally:
            _ACTIVE = False
            flush(os.path.join(self.trace_dir, f"w-{os.getpid()}.jsonl"))


def flush(path: str) -> None:
    if not _BUF:
        return
    pid = os.getpid()
    with open(path, "a") as f:
        for r in _BUF:
            f.write(json.dumps([pid] + r) + "\n")
    _BUF.clear()


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class DriverTrace:
    """Spans of one traced driver phase, and the per-shard key counts of
    the first URL-seen service it created."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.urlseen_counts: list[int] = []
        self.spans: list[list] = []


@contextlib.contextmanager
def driver_tracing(trace_dir: str):
    """Install the driver wrappers for the duration of the block."""
    import ray.data as rd

    from realestate_scraper_ray.pipelines import crawl
    from realestate_scraper_ray.state.urlseen import UrlSeenService
    os.makedirs(trace_dir, exist_ok=True)
    tr = DriverTrace(trace_dir)
    _BUF.clear()
    make_wave_fn = crawl.make_wave_fn
    init = UrlSeenService.__init__
    services: list = []

    def traced_make_wave_fn(*a, **kw):
        return TracedWave(make_wave_fn(*a, **kw), trace_dir)

    def capture_init(self, *a, **kw):
        init(self, *a, **kw)
        services.append(self)

    def ckpt_attrs(a, kw, out):
        path = os.path.join(a[0], "checkpoint", f"gen-{a[1]}")
        return {"bytes": _dir_bytes(path)}

    patches = [
        _patch(crawl, "_run_wave", "crawl.wave",
               lambda a, kw, out: {"gen": a[3]}, worker=False),
        _patch(crawl, "_write_checkpoint", "crawl.checkpoint_write",
               ckpt_attrs, worker=False),
        _patch(crawl, "_restore_checkpoint", "crawl.restore", worker=False),
        _patch(crawl.CrawlResult, "table", "crawl.read",
               lambda a, kw, out: {"table": a[1]}, worker=False),
        _patch(rd.Dataset, "take_all", "ray.exec", worker=False),
    ]
    crawl.make_wave_fn = traced_make_wave_fn
    UrlSeenService.__init__ = capture_init
    try:
        yield tr
    finally:
        crawl.make_wave_fn = make_wave_fn
        UrlSeenService.__init__ = init
        for owner, attr, orig in patches:
            setattr(owner, attr, orig)
        tr.spans = [[os.getpid()] + r for r in _BUF]
        _BUF.clear()
        if services:
            tr.urlseen_counts = services[0].counts()
        # drop the handles: a service's actors hold their CPU until then
        services.clear()


def load_spans(tr: DriverTrace) -> list[list]:
    spans = list(tr.spans)
    for f in sorted(os.listdir(tr.trace_dir)):
        if f.startswith("w-"):
            with open(os.path.join(tr.trace_dir, f)) as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# pid, id, parent, name, start, end, attrs
PID, SID, PARENT, NAME, T0, T1, ATTRS = range(7)


def _dur(s) -> float:
    return s[T1] - s[T0]


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> dict[tuple, float]:
    """(pid, id) -> span time minus its direct children's time."""
    child: dict[tuple, float] = {}
    for s in spans:
        if s[PARENT]:
            k = (s[PID], s[PARENT])
            child[k] = child.get(k, 0.0) + _dur(s)
    return {(s[PID], s[SID]): _dur(s) - child.get((s[PID], s[SID]), 0.0)
            for s in spans}


# layer spans whose union counts as attributed wave time
_LAYER_SPANS = ("fetch.batch", "urlseen.filter_new", "crawl.fragment_write",
                "crawl.host_bucket", "crawl.summary")
_STATE_SPANS = ("urlseen.filter_new", "crawl.fragment_write")
# metric-name prefix -> the span it is computed from; a metric whose span
# was never recorded is left out rather than reported as 0
_NEEDS = (("portal.", "portal.render"), ("fetch.parse_ms", "fetch.parse"),
          ("fetch.", "fetch.batch"), ("politeness.book_ms", "politeness.book"),
          ("urlseen.", "urlseen.filter_new"),
          ("crawl.fragment", "crawl.fragment_write"),
          ("crawl.bytes_written", "crawl.fragment_write"),
          ("crawl.checkpoint", "crawl.checkpoint_write"),
          ("crawl.restore_s", "crawl.restore"), ("crawl.read_s", "crawl.read"),
          ("crawl.host_bucket_s", "crawl.host_bucket"),
          ("crawl.summary_s", "crawl.summary"), ("crawl.", "crawl.wave"))


def crawl_layers(crawl_spans: list[list], resume_spans: list[list],
                 read_spans: list[list], urlseen_counts: list[int], capacity: int) -> dict[str, float]:
    """Per-layer metrics of one traced crawl (plus its resume and read
    phases when given), leaving out those of layers that recorded no
    span."""
    by: dict[str, list] = {}
    for s in crawl_spans:
        by.setdefault(s[NAME], []).append(s)
    selfs = self_times(crawl_spans)

    def durs(name, scale=1.0):
        return [_dur(s) * scale for s in by.get(name, [])]

    def total(name):
        return sum(durs(name))

    m: dict[str, float] = {}
    renders = by.get("portal.render", [])
    m["portal.render_ms.p50"] = _pct(durs("portal.render", 1e3), 50)
    m["portal.render_ms.p99"] = _pct(durs("portal.render", 1e3), 99)
    m["portal.page_kb"] = (statistics.fmean(s[ATTRS]["bytes"] for s in renders) / 1024
                           if renders else 0.0)
    m["fetch.parse_ms.p50"] = _pct(durs("fetch.parse", 1e3), 50)
    m["fetch.parse_ms.p99"] = _pct(durs("fetch.parse", 1e3), 99)
    m["fetch.batch_s.p50"] = _pct(durs("fetch.batch"), 50)
    m["fetch.batch_s.p99"] = _pct(durs("fetch.batch"), 99)
    batches = by.get("fetch.batch", [])
    pages = sum(s[ATTRS]["pages"] for s in batches)
    m["fetch.pages"] = float(pages)
    fetch_self = sum(selfs[(s[PID], s[SID])] for s in batches)
    m["fetch.self_ms_per_page"] = fetch_self / pages * 1e3 if pages else 0.0
    fetch_total = total("fetch.batch")
    m["fetch.render_parse_share"] = ((total("portal.render") + total("fetch.parse"))
                                     / fetch_total if fetch_total else 0.0)

    m["politeness.book_ms.p50"] = _pct(durs("politeness.book", 1e3), 50)
    m["politeness.book_ms.p99"] = _pct(durs("politeness.book", 1e3), 99)

    m["urlseen.filter_new_ms.p50"] = _pct(durs("urlseen.filter_new", 1e3), 50)
    m["urlseen.filter_new_ms.p99"] = _pct(durs("urlseen.filter_new", 1e3), 99)
    keys = sum(s[ATTRS]["keys"] for s in by.get("urlseen.filter_new", []))
    admitted = sum(s[ATTRS]["admitted"] for s in by.get("urlseen.filter_new", []))
    m["urlseen.keys"] = float(keys)
    m["urlseen.admitted"] = float(admitted)
    m["urlseen.admit_ratio"] = admitted / keys if keys else 0.0
    mean = statistics.fmean(urlseen_counts) if urlseen_counts else 0.0
    m["urlseen.shard_skew"] = max(urlseen_counts) / mean if mean else 0.0
    m["urlseen.fill_max"] = max(urlseen_counts) / capacity if urlseen_counts else 0.0

    waves = by.get("crawl.wave", [])
    m["crawl.generations"] = float(len(waves))
    m["crawl.wave_s.p50"] = _pct(durs("crawl.wave"), 50)
    m["crawl.wave_s.max"] = max(durs("crawl.wave"), default=0.0)
    execs = [(s[T0], s[T1]) for s in by.get("ray.exec", [])]
    layer = [(s[T0], s[T1]) for s in crawl_spans if s[NAME] in _LAYER_SPANS]
    fold = uncovered = 0.0
    for w in waves:
        inside = [(max(a, w[T0]), min(b, w[T1])) for a, b in execs
                  if b > w[T0] and a < w[T1]]
        fold += _dur(w) - _union(inside)
        covered = [(max(a, w[T0]), min(b, w[T1])) for a, b in layer
                   if b > w[T0] and a < w[T1]]
        uncovered += _dur(w) - _union(covered)
    wave_total = total("crawl.wave")
    m["crawl.driver_fold_s"] = fold
    m["crawl.wave_unattributed_share"] = uncovered / wave_total if wave_total else 0.0
    m["crawl.host_bucket_s"] = total("crawl.host_bucket")
    m["crawl.summary_s"] = total("crawl.summary")
    frags = by.get("crawl.fragment_write", [])
    m["crawl.fragment_write_s"] = total("crawl.fragment_write")
    m["crawl.fragments"] = float(sum(1 for s in frags if s[ATTRS]["rows"]))
    m["crawl.bytes_written"] = float(sum(s[ATTRS].get("bytes", 0) for s in frags))
    m["crawl.checkpoint_write_s"] = total("crawl.checkpoint_write")
    m["crawl.checkpoint_mb"] = sum(s[ATTRS]["bytes"] for s in
                                   by.get("crawl.checkpoint_write", [])) / 1e6
    m["crawl.state_share"] = ((sum(total(n) for n in _STATE_SPANS)
                               + m["crawl.checkpoint_write_s"]) / wave_total
                              if wave_total else 0.0)
    m["crawl.restore_s"] = sum(_dur(s) for s in resume_spans
                               if s[NAME] == "crawl.restore")
    for name in ("urls", "offers", "photos"):
        m[f"crawl.read_s.{name}"] = statistics.median(
            [_dur(s) for s in read_spans
             if s[NAME] == "crawl.read" and s[ATTRS]["table"] == name] or [0.0])
    seen = {s[NAME] for s in crawl_spans + resume_spans + read_spans}
    return {k: v for k, v in m.items()
            if next(span for p, span in _NEEDS if k.startswith(p)) in seen}
