"""Per-host politeness: token-bucket shard actors + robots.txt cache.

The reference's limiter is process-global and host-oblivious
(/root/reference/scrapper/core/http.py:11-21, min_interval = 1/rps,
default 0.3 rps — config.py:10). Here the budget is **per host** (the
north_rule politeness model): hosts hash onto a small pool of async
token-bucket actors; a fetch task asks ``acquire(host, n)`` before
issuing n requests to that host and sleeps for the returned delay.
Adding workers therefore never raises per-host pressure — extra
parallelism only helps across hosts, which is exactly the property that
makes throughput scale with the host count (SURVEY.md §7.5).

Robots handling (north_rule addition; the reference has none): a
per-fetcher-actor cache of parsed Disallow prefixes, one fetch of
robots.txt per host per actor.

Checkpoints: the per-host budgets are one small host→remaining-delay map
(``dump_headroom``) in the crawl checkpoint. On resume the driver splits
it by the same crc32 routing and hands each shard its slice in its
reset, so a shard starts its lease with its budgets already applied.
Shards are ``num_cpus=0`` actors leased from the Ray session's shard
pool (``state/lease.py``); the lease reserves their 0.25 CPU each while
a crawl holds them. Like every ``state/`` module this one imports only
the stdlib and ``ray`` at module level (see ``state/urlseen.py``): its
actors boot without ``ray.data``.
"""

from __future__ import annotations

import time
import zlib

import ray

from .lease import Lease, check_epoch


@ray.remote(num_cpus=0)
class PolitenessShard:
    """Token buckets for the hosts hashed onto this shard.

    Logical-clock buckets: ``free_at[host]`` is the monotonic time the
    host's next request slot opens. ``acquire(host, n)`` books n slots
    at ``1/rps`` spacing and returns how long the caller must sleep
    until the FIRST booked slot opens; the caller then paces its n
    requests one ``1/rps`` interval apart (the fetch stage does this
    per host inside the batch loop), so every request lands on or after
    its booked slot — full budget compliance with zero dead time at
    batch boundaries. The actor itself never sleeps, so one shard
    serves many hosts without blocking.
    """

    def __init__(self, rps_per_host: float, burst: int = 1,
                 backoff_factor: float = 1.0,
                 backoff_cap_mult: float = 16.0,
                 headroom: dict[str, float] | None = None,
                 epoch: int | None = None):
        self.reset(rps_per_host, burst, backoff_factor, backoff_cap_mult,
                   headroom, epoch)

    def reset(self, rps_per_host: float, burst: int = 1,
              backoff_factor: float = 1.0,
              backoff_cap_mult: float = 16.0,
              headroom: dict[str, float] | None = None,
              epoch: int | None = None) -> None:
        """Start a lease: clean buckets plus ``headroom``. Every method
        takes the caller's lease ``epoch`` (``check_epoch``)."""
        self.epoch = epoch
        self.interval = 1.0 / rps_per_host
        self.burst = max(1, burst)
        # restored budgets (``snapshot_headroom`` form) count from this
        # process's clock, i.e. from when the shard was reset: never
        # earlier than the driver read them, so never less polite
        now = time.monotonic()
        self.free_at: dict[str, float] = {
            h: now + d for h, d in (headroom or {}).items()}
        # adaptive failure backoff (AIMD-style, multiplicative both
        # ways): a host's effective spacing is interval × mult[host];
        # report() multiplies by backoff_factor per failed request
        # (capped) and divides per success (floored at 1.0). factor 1.0
        # = backoff off (the default; the reference retries per URL but
        # never slows a failing host down).
        self.bf = max(1.0, backoff_factor)
        self.cap = max(1.0, backoff_cap_mult)
        self.mult: dict[str, float] = {}
        # per-host base-spacing floor (robots.txt Crawl-delay): a server
        # may ask for WIDER spacing than the configured budget; never
        # narrower — the configured interval stays the global floor
        self.min_int: dict[str, float] = {}

    def clear(self, epoch: int | None = None) -> None:
        """End the lease: drop every host's state."""
        check_epoch(self.epoch, epoch)
        self.epoch = None
        self.free_at, self.mult, self.min_int = {}, {}, {}

    def set_min_spacing(self, host: str, interval: float,
                        epoch: int | None = None) -> float:
        """Raise (never lower) a host's base spacing to the server's
        published Crawl-delay. Idempotent; returns the effective base."""
        check_epoch(self.epoch, epoch)
        if interval > self.interval:
            cur = self.min_int.get(host, 0.0)
            if interval > cur:
                self.min_int[host] = interval
        return max(self.interval, self.min_int.get(host, 0.0))

    def _spacing(self, host: str) -> float:
        base = self.min_int.get(host)
        if base is None or base < self.interval:
            base = self.interval
        return base * self.mult.get(host, 1.0)

    def book(self, host: str, n: int,
             epoch: int | None = None) -> tuple[float, float]:
        """Book n slots; returns (delay until first slot, per-request
        spacing the caller must pace at)."""
        check_epoch(self.epoch, epoch)
        now = time.monotonic()
        spacing = self._spacing(host)
        free = self.free_at.get(host, now)
        free = max(free, now - self.burst * spacing)  # cap accrued burst
        self.free_at[host] = free + n * spacing
        return max(0.0, free - now), spacing

    def acquire(self, host: str, n: int, epoch: int | None = None) -> float:
        return self.book(host, n, epoch)[0]

    def report(self, host: str, n_fail: int, n_ok: int,
               epoch: int | None = None) -> float:
        """Fold a batch's per-host outcome into the backoff multiplier;
        returns the new multiplier (for tests/metrics)."""
        check_epoch(self.epoch, epoch)
        if self.bf <= 1.0:
            return 1.0
        m = self.mult.get(host, 1.0)
        if n_fail:
            m = min(self.cap, m * self.bf ** n_fail)
        if n_ok:
            m = max(1.0, m / self.bf ** n_ok)
        if m == 1.0:
            self.mult.pop(host, None)
        else:
            self.mult[host] = m
        return m

    def snapshot_headroom(self, epoch: int | None = None) -> dict[str, float]:
        """Checkpoint form: per-host REMAINING delay (free_at − now).
        Relative, so it survives a process restart where the monotonic
        clock resets; hosts at/under budget (headroom ≤ 0) are dropped —
        they restore to 'free now', which is exactly their state."""
        check_epoch(self.epoch, epoch)
        now = time.monotonic()
        return {h: t - now for h, t in self.free_at.items() if t > now}


class PolitenessService:
    """Driver/stage-side client over leased shard actors. ``headroom`` is
    a checkpointed host→remaining-delay map (``dump_headroom``): it is
    split here with the same crc32 routing ``acquire`` uses and each
    shard applies its slice in its reset, so the shard count may differ
    from the checkpointed crawl's."""

    def __init__(self, n_shards: int, rps_per_host: float, burst: int = 1,
                 backoff_factor: float = 1.0,
                 backoff_cap_mult: float = 16.0,
                 headroom: dict[str, float] | None = None):
        self.n = n_shards
        # politeness off (synthetic-fetch benches) ⇒ no shard actors at
        # all: don't reserve CPU for a service that is never called
        self._lease, self.epoch = None, None
        if rps_per_host >= 1e8:
            return
        per_shard: list[dict[str, float]] = [{} for _ in range(n_shards)]
        for host, delay in (headroom or {}).items():
            per_shard[zlib.crc32(host.encode()) % n_shards][host] = delay
        self._lease = Lease(PolitenessShard,
                            [(rps_per_host, burst, backoff_factor,
                              backoff_cap_mult, part) for part in per_shard])
        self.epoch = self._lease.epoch

    @property
    def shards(self) -> list:
        """The leased shard handles, once their resets have finished; []
        when politeness is off or after ``close``."""
        return self._lease.shards if self._lease else []

    @property
    def enabled(self) -> bool:
        """True iff shard actors exist (``rps_per_host < 1e8`` and not
        closed); callers ask this instead of comparing rates."""
        return bool(self.shards)

    def acquire(self, host: str, n: int) -> float:
        """Blocking helper: books n slots, sleeps the mandated delay."""
        if not self.shards:
            return 0.0  # politeness disabled (synthetic fetch)
        shard = self.shards[zlib.crc32(host.encode()) % self.n]
        delay = ray.get(shard.acquire.remote(host, n, epoch=self.epoch))
        if delay > 0:
            time.sleep(delay)
        return delay

    def book(self, counts: dict[str, int]) -> dict[str, float]:
        """Book ``counts[h]`` slots for every host in ONE round of shard
        RPCs; returns per host ``(delay until its FIRST booked slot,
        per-request spacing)`` — no sleeping here. Callers turn the
        bookings into per-request due times (first + k·spacing) and
        process requests in due order, so a batch holding several hosts
        paces them CONCURRENTLY on one task (span = max over hosts, not
        sum over hosts) while every request still lands on or after its
        booked slot. Spacing comes from the shard so a backoff-penalised
        host is paced at its widened interval, not the base one."""
        if not self.shards or not counts:
            return dict.fromkeys(counts, (0.0, 0.0))
        hosts = list(counts)
        futs = [self.shards[zlib.crc32(h.encode()) % self.n]
                .book.remote(h, counts[h], epoch=self.epoch) for h in hosts]
        return dict(zip(hosts, ray.get(futs)))

    def set_min_spacing(self, host: str, interval: float) -> None:
        """Propagate a robots.txt Crawl-delay to the host's shard (one
        RPC, awaited so the next ``book`` on this actor sees it). Called
        once per (host, fetch actor) — the robots cache above gates it."""
        if not self.shards:
            return
        shard = self.shards[zlib.crc32(host.encode()) % self.n]
        ray.get(shard.set_min_spacing.remote(host, interval, epoch=self.epoch))

    def report(self, stats: dict[str, tuple[int, int]]) -> None:
        """Per-batch failure/success outcome per host → the shards'
        adaptive backoff. One RPC round, only called when backoff is
        configured (CrawlConfig.backoff_factor > 1)."""
        if not self.shards or not stats:
            return
        ray.get([self.shards[zlib.crc32(h.encode()) % self.n]
                 .report.remote(h, nf, nk, epoch=self.epoch)
                 for h, (nf, nk) in stats.items()])

    def dump_headroom(self) -> dict[str, float]:
        """One host→remaining-delay map for the crawl checkpoint (the
        north_star's 'per-host budgets' state). Shard-count independent:
        the map is re-sharded on restore with the same crc32 routing
        ``acquire`` uses, so a resume with a different shard count still
        enforces every budget. Empty when politeness is disabled."""
        if not self.shards:
            return {}
        merged: dict[str, float] = {}
        for blob in ray.get([s.snapshot_headroom.remote(epoch=self.epoch)
                             for s in self.shards]):
            merged.update(blob)
        return merged

    def close(self) -> None:
        """End the lease now: clear the shards and return them to the
        pool, and free the CPU the lease reserved."""
        if self._lease is not None:
            self._lease.release()

