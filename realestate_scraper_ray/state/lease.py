"""Leased service shards: one pool of idle shard actors per Ray session.

A shard actor (``UrlSeenShard``, ``PolitenessShard``) costs a worker
process boot, up to about a second, before its first answer; a crawl
that started fresh actors paid that on its first wave. A service therefore
*leases* its shards here instead:

- ``Lease(cls, args)`` takes idle actors of ``cls`` from the pool and
  resets shard ``i`` with ``args[i]`` (the actor's constructor
  arguments), creating actors only when the pool runs out. The resets
  (a URL-seen restore can be the longest step of a resume) run while
  the driver goes on; ``Lease.shards``, and a copy of the lease sent to
  a task, wait for every reset first: Ray orders actor calls per caller
  only, so a fetch task's call could otherwise overtake the driver's
  reset. A pooled actor whose reset raises ``RayActorError`` is dropped
  and replaced by a new one.
- Every lease has its own epoch, and every call the service makes
  carries it. ``check_epoch`` in each shard method refuses a call from
  a released lease (say, a stray task of an aborted wave) before it
  touches the state of the lease that holds the shard now.
- Shards are ``num_cpus=0`` actors; the CPU they stand for is reserved
  by the lease instead: one placement group with a ``SHARD_CPU`` bundle
  per shard, held until ``release``. During a crawl the fetch stage
  sees the same free CPUs as with CPU-holding actors, and between
  crawls every CPU is free while idle shards wait in the pool.
- ``release`` clears every shard (``clear`` drops its state and returns
  the shard's final figure) and makes the live ones the pool's idle
  shards of ``cls``. The pool keeps only the last released lease's
  shards of each class: the handles it drops end their actors.

Shards are ordinary actors owned by the driver: not named, not
detached, so they end with the driver's Ray session. The pool is keyed
by that session (job id and node id), so a handle from an earlier
``ray.init`` is never reused.
"""

from __future__ import annotations

import gc
import itertools
import threading
import weakref

import ray
from ray.util.placement_group import placement_group, remove_placement_group

SHARD_CPU = 0.25  # CPU reserved per leased shard, for the lease's lifetime


class StaleLeaseError(RuntimeError):
    """A shard call carried the epoch of a lease that has been released."""


def check_epoch(held: int | None, epoch: int | None) -> None:
    """Raise unless ``epoch`` is the shard's current lease. A shard no
    lease holds (a standalone actor, or an idle pooled one) holds
    ``None`` and answers calls that name no lease; a leased shard
    answers only its lease's epoch."""
    if epoch != held:
        raise StaleLeaseError(f"shard call from lease {epoch}, but the shard "
                              f"is on lease {held}")


def _session() -> tuple[str, str]:
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


class _Pool:
    """Idle shard handles of the current Ray session, per actor class."""

    def __init__(self):
        self.lock = threading.Lock()
        self.session: tuple[str, str] | None = None
        self.idle: dict[type, list] = {}
        self.epochs = itertools.count(1)

    def take(self, cls, session, n: int) -> list:
        with self.lock:
            if session != self.session:
                self.session, self.idle = session, {}
            idle = self.idle.setdefault(cls, [])
            k = max(0, len(idle) - n)
            got, idle[k:] = idle[k:], []
            return got

    def give(self, cls, session, handles: list) -> None:
        # replace, not extend: the dropped handles end their actors
        with self.lock:
            if session == self.session:
                self.idle[cls] = handles


_POOL = _Pool()


def _remove_group(pg, session) -> None:
    if ray.is_initialized() and _session() == session:
        remove_placement_group(pg)


class Lease:
    """``len(args)`` shards of actor class ``cls``, shard ``i`` reset with
    ``args[i]``, plus their CPU reservation; see the module docstring."""

    def __init__(self, cls, args: list[tuple]):
        self.cls = cls
        self.epoch = next(_POOL.epochs)
        self.session = _session()
        self.pg = placement_group([{"CPU": SHARD_CPU}] * len(args))
        # the reservation goes with the lease even if it is dropped
        # without release()
        self._unreserve = weakref.finalize(self, _remove_group, self.pg,
                                           self.session)
        self._unreserve.atexit = False
        pooled = _POOL.take(cls, self.session, len(args))
        # a new actor runs no method before its constructor returns, so
        # only the resets of pooled ones need awaiting (in ``shards``)
        self._resets = [(h.reset.remote(*a, epoch=self.epoch), a)
                        for h, a in zip(pooled, args)]
        self._shards = pooled + [cls.remote(*a, epoch=self.epoch)
                                 for a in args[len(pooled):]]
        while not self.pg.wait(timeout_seconds=1):
            # the CPUs are busy; a CPU-holding actor would wait too. CPUs
            # held by unreachable objects (an unclosed lease, the actors
            # of a finished Ray Data plan) come back only when the cycle
            # collector runs, and this loop allocates too little to
            # trigger it
            gc.collect()

    @property
    def shards(self) -> list:
        """The leased handles, once every reset has finished."""
        for i, (ref, args) in enumerate(self._resets):
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:  # a dead pooled shard
                self._shards[i] = self.cls.remote(*args, epoch=self.epoch)
        self._resets = []
        return self._shards

    def __getstate__(self):
        # a copy sent to a task calls shards, after their resets, but
        # holds no reservation and never makes an actor (``cls`` would
        # pickle by value: about 14 KB on every task)
        self.shards
        return {**self.__dict__, "cls": None, "pg": None,
                "_unreserve": None}

    def release(self) -> list:
        """Clear every shard and return the live ones to the pool; returns
        each shard's ``clear`` result (None for a shard whose clear
        failed: it is dead, or its reset raised and left it half-built,
        and it is not pooled again). Idempotent: a second call returns
        ``[]``."""
        # a clear runs after this driver's reset of the same shard
        shards, self._shards, self._resets = self._shards, [], []
        if not shards:
            return []
        refs = [s.clear.remote(epoch=self.epoch) for s in shards]
        out, live = [], []
        for s, ref in zip(shards, refs):
            try:
                out.append(ray.get(ref))
                live.append(s)
            except ray.exceptions.RayError:
                out.append(None)
        _POOL.give(self.cls, self.session, live)
        self._unreserve()
        return out
