"""Real-HTTP transport behind the fetch stage's ``_get`` (S1/S2).

Re-expresses the reference's HttpClient
(/root/reference/scrapper/core/http.py: httpx.Client + tenacity retry +
blocking RateLimiter) on the stdlib, one session per fetch actor (ST3):

- persistent opener with proxy config, redirect follow and default
  ``User-Agent`` + ``Accept-Language: pl-PL…`` headers (http.py:34-46);
- exponential-backoff-with-jitter retry, 5 attempts, initial 1 s,
  cap 20 s, retrying transport errors AND HTTP status errors
  (http.py:51-62 ``wait_exponential_jitter(initial=1, max=20)``);
- ``Retry-After`` honoring on 429/503 — sleep the server's hint (or
  3–5 s when unparseable) before the retry (http.py:63-78) — plus an
  ``on_throttle`` hook the crawl uses to feed the politeness shards'
  AIMD state, so an explicit server throttle widens that host's
  booked interval for every other task too;
- conditional GET: a known validator rides ``If-None-Match`` and a 304
  comes back as a normal response with an empty body (RFC 9110 §13.1.2).

Per-host request *pacing* deliberately does NOT live here: the crawl's
politeness service books slots batch-wide (state/politeness.py),
replacing the reference's per-client blocking RateLimiter
(http.py:12-22) with a distributed token bucket.

``sleep``/``jitter`` are injectable so tests exercise the retry and
throttle paths without real waiting.
"""

from __future__ import annotations

import http.client
import random
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field


@dataclass
class HttpResponse:
    status: int
    headers: dict[str, str]  # keys lower-cased
    body: bytes
    url: str  # final URL after redirects

    @property
    def etag(self) -> str | None:
        return self.headers.get("etag")

    @property
    def mime(self) -> str | None:
        ct = self.headers.get("content-type")
        return ct.split(";", 1)[0].strip() if ct else None

    def text(self, encoding: str = "utf-8") -> str:
        return self.body.decode(encoding, "replace")


class HttpStatusError(Exception):
    """Non-2xx/304 final status after the retry budget is exhausted
    (the analogue of httpx.HTTPStatusError escaping tenacity)."""

    def __init__(self, status: int, url: str):
        super().__init__(f"HTTP {status} for {url}")
        self.status = status
        self.url = url


@dataclass
class HttpSession:
    """One per fetch actor (ST3). GET/HEAD with the reference's retry
    envelope; raises ``HttpStatusError`` / the last transport error when
    all attempts fail — callers map that to a ``fetch_fail`` row."""

    user_agent: str
    timeout_s: float = 20.0
    # build_proxies() dict ({"http://": url, "https://": url}) or None
    proxies: dict[str, str] | None = None
    extra_headers: dict[str, str] | None = None
    attempts: int = 5
    backoff_initial: float = 1.0
    backoff_max: float = 20.0
    # called with (host, delay_seconds) when a 429/503 carries a usable
    # Retry-After — the crawl feeds this into the politeness AIMD state
    on_throttle: "callable | None" = None
    sleep: "callable" = time.sleep
    jitter: "callable" = random.random
    n_requests: int = field(default=0, init=False)  # observability

    def __post_init__(self):
        handlers: list = []
        if self.proxies:
            # build_proxies keys are httpx-style scheme prefixes
            handlers.append(urllib.request.ProxyHandler(
                {k.rstrip(":/"): v for k, v in self.proxies.items()}))
        self._opener = urllib.request.build_opener(*handlers)
        self.headers = {
            "User-Agent": self.user_agent,
            # the reference's fixed locale header (http.py:36-39)
            "Accept-Language": "pl-PL,pl;q=0.9,en;q=0.8",
        }
        if self.extra_headers:
            self.headers.update(self.extra_headers)

    # -- public API (http.py:63-103 get/head) -------------------------------

    def get(self, url: str, *, accept: str | None = None,
            etag: str | None = None,
            attempts: int | None = None) -> HttpResponse:
        return self._request("GET", url, accept=accept, etag=etag,
                             attempts=attempts)

    def head(self, url: str) -> HttpResponse:
        return self._request("HEAD", url)

    def post_json(self, url: str, payload: object,
                  timeout_s: float | None = None) -> HttpResponse:
        """Single-attempt JSON POST (the backend adapter's verb —
        core/backend.py uses bare ``requests.post(url, json=…,
        timeout=…)`` with NO retry envelope: a create is not idempotent,
        so a transport error must surface to the caller, not replay)."""
        import json as _json
        body = _json.dumps(payload).encode()
        req = urllib.request.Request(url, method="POST", data=body,
                                     headers=dict(self.headers))
        req.add_header("Content-Type", "application/json")
        self.n_requests += 1
        try:
            with self._opener.open(
                    req, timeout=timeout_s or self.timeout_s) as r:
                return HttpResponse(
                    r.status, {k.lower(): v for k, v in r.headers.items()},
                    r.read(), r.geturl())
        except urllib.error.HTTPError as e:
            # non-2xx is a RESPONSE here (the adapter logs and returns
            # False, backend.py:147-153), not an exception
            body = e.read()
            resp = HttpResponse(
                e.code, {k.lower(): v for k, v in e.headers.items()},
                body, url)
            e.close()
            return resp

    # -- retry envelope ------------------------------------------------------

    def _request(self, method: str, url: str, *, accept: str | None = None,
                 etag: str | None = None,
                 attempts: int | None = None) -> HttpResponse:
        # per-call override for probes with definitive failure answers
        # (robots.txt: a 404 means allow-all, retrying buys nothing)
        budget = self.attempts if attempts is None else attempts
        last: Exception | None = None
        for attempt in range(budget):
            req = urllib.request.Request(url, method=method,
                                         headers=dict(self.headers))
            if accept:
                req.add_header("Accept", accept)
            if etag:
                req.add_header("If-None-Match", etag)
            self.n_requests += 1
            try:
                with self._opener.open(req, timeout=self.timeout_s) as r:
                    body = b"" if method == "HEAD" else r.read()
                    return HttpResponse(
                        r.status,
                        {k.lower(): v for k, v in r.headers.items()},
                        body, r.geturl())
            except urllib.error.HTTPError as e:
                if e.code == 304:
                    # a matching validator is a SUCCESS: no body, no parse
                    return HttpResponse(
                        304, {k.lower(): v for k, v in e.headers.items()},
                        b"", url)
                if e.code in (429, 503):
                    # honor the server's explicit hint (http.py:69-76):
                    # numeric Retry-After sleeps exactly that; an
                    # unparseable one sleeps 3–5 s like the reference
                    ra = e.headers.get("Retry-After")
                    if ra is not None:
                        try:
                            delay = float(ra)
                        except ValueError:
                            delay = 3.0 + 2.0 * self.jitter()
                        if self.on_throttle is not None:
                            self.on_throttle(
                                urllib.parse.urlsplit(url).netloc, delay)
                        self.sleep(delay)
                e.close()
                last = HttpStatusError(e.code, url)
            except (urllib.error.URLError, TimeoutError, ConnectionError,
                    http.client.HTTPException, OSError) as e:
                last = e
            if attempt + 1 < budget:
                # wait_exponential_jitter(initial, max) analogue
                self.sleep(min(self.backoff_max,
                               self.backoff_initial * (2 ** attempt))
                           + self.jitter() * self.backoff_initial)
        assert last is not None
        raise last
