"""Content-addressed request keys, response cache, and coalescing.

The daemon treats every simulation request as a pure function of its
canonicalized parameters.  :func:`request_key` is the content address
(PR 3's sha256 scheme, extended with the endpoint name and the serve
schema version so a schema bump can never alias old responses).

Two layers sit on top of the key:

* :class:`ResponseCache` — a bounded LRU of completed response
  payloads.  A warm daemon answers a repeated request without touching
  the simulator at all.
* :class:`Coalescer` — in-flight request folding.  The first request
  for a key becomes the *leader* and runs the (blocking) computation in
  the event loop's executor; any request for the same key that arrives
  while the leader is running becomes a *follower* and awaits the
  leader's future.  N concurrent identical requests therefore perform
  exactly one simulation — the property the integration suite
  verifies through the ``serve.coalesce.*`` counters.
"""

import asyncio
import hashlib
import json
from collections import OrderedDict

from repro.obs import NULL_METRICS


def request_key(endpoint, params):
    """Content address of one request: ``sha256:<hex>``.

    Key = sha256 over (serve schema version, endpoint, canonical
    params).  Any difference in any component yields a different key;
    identical requests always yield the same key, across processes and
    replicas — which is what makes responses cacheable and shardable.
    """
    from repro.serve import SERVE_SCHEMA_VERSION

    canon = json.dumps(
        {
            "endpoint": endpoint,
            "params": params,
            "serve_schema": SERVE_SCHEMA_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResponseCache:
    """Bounded LRU of completed response payloads, keyed by request key."""

    def __init__(self, capacity=1024, metrics=None):
        self.capacity = max(0, int(capacity))
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.metrics.inc("serve.cache.misses")
            return None
        self._entries.move_to_end(key)
        self.metrics.inc("serve.cache.hits")
        return entry

    def put(self, key, payload):
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = payload
        self.metrics.inc("serve.cache.stores")
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics.inc("serve.cache.evictions")

    def clear(self):
        self._entries.clear()


class Coalescer:
    """Fold concurrent identical requests into one computation."""

    def __init__(self, metrics=None):
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._inflight = {}

    @property
    def inflight(self):
        """Number of keys currently being computed."""
        return len(self._inflight)

    async def fetch(self, key, compute, executor=None):
        """Return ``(payload, source)`` for ``key``.

        ``compute`` is a zero-argument blocking callable; it runs in
        ``executor`` (the loop default when ``None``).  ``source`` is
        ``"simulated"`` for the leader and ``"coalesced"`` for
        followers.  A leader failure propagates to every follower.
        """
        loop = asyncio.get_running_loop()
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc("serve.coalesce.followers")
            # shield: a cancelled follower must not cancel the leader
            payload = await asyncio.shield(existing)
            return payload, "coalesced"
        future = loop.create_future()
        self._inflight[key] = future
        self.metrics.inc("serve.coalesce.leaders")
        try:
            payload = await loop.run_in_executor(executor, compute)
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # mark retrieved so a follower-less failure does not
                # warn "exception was never retrieved"
                future.exception()
            self._inflight.pop(key, None)
            raise
        else:
            if not future.done():
                future.set_result(payload)
            self._inflight.pop(key, None)
            return payload, "simulated"
