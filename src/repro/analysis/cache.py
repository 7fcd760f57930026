"""Persistent, content-addressed cache for launch-time analysis.

BlockMaestro's launch-time work is *deterministic per input*: the
value-range analysis depends only on the kernel's PTX text, the concrete
launch configuration (grid/block dims and argument values), and the
analyzer's own knobs; the kernel-pair dependency graph and its Table-I
pattern encoding depend only on the two summaries plus the hazard set
and the hardware degree threshold.  That makes both safe to memoize
across processes and across runs — the paper itself performs them off
the critical path during the PTX→SASS JIT (Sections III–IV).

:class:`AnalysisCache` stores two artifact kinds on disk:

* ``summary`` — a :class:`~repro.analysis.analyzer.KernelSummary`
  (lowered per-TB access sets + dynamic instruction mix), keyed by
  ``sha256(schema, PTX text, grid, block, args, analyzer config)``;
* ``graph``   — an :class:`~repro.core.encoding.EncodedGraph`
  (bipartite kernel-pair graph + pattern encoding), keyed by the two
  member summary keys plus the graph-construction config.

Layout: ``<dir>/v<SCHEMA>/<kind>/<key[:2]>/<key>.pkl``, default
directory ``~/.cache/repro`` (overridable via ``--cache-dir`` or the
``REPRO_CACHE_DIR`` environment variable).  Content addressing means a
stale entry is *unreachable*, never wrong: any change to the PTX, the
launch, or the config produces a new key.  The schema version is bumped
whenever the pickled classes change shape, which orphans (and on
contact, deletes) old-version trees.  Writes are atomic
(tmp + ``os.replace``) so concurrent processes can share one
directory.

Observability: hits, misses, stores, and invalidations are counted on
the :class:`~repro.obs.MetricsRegistry` the cache is bound to
(``cache.summary.hits``, ``cache.graph.misses``,
``cache.invalidations``, ...); under ``repro serve --cache`` that is
the daemon's registry, so ``/metrics`` reports them.
"""

import hashlib
import os
import pickle
import tempfile

from repro.obs import NULL_METRICS

#: bump when KernelSummary / EncodedGraph pickle shapes change
CACHE_SCHEMA_VERSION = 1

#: environment override for the default cache directory
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_HITS = "cache.{}.hits"
_MISSES = "cache.{}.misses"
_STORES = "cache.{}.stores"


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def resolve_cache_dir(cache_dir=None, enabled=True):
    """Fold a CLI ``--cache-dir`` value into a concrete directory or None."""
    if not enabled:
        return None
    if cache_dir:
        return cache_dir
    return default_cache_dir()


class AnalysisCache:
    """On-disk memo for kernel summaries and encoded pair graphs."""

    def __init__(self, directory=None, metrics=None):
        self.directory = directory or default_cache_dir()
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._root = os.path.join(
            self.directory, "v{}".format(CACHE_SCHEMA_VERSION)
        )
        #: kernel-text hash memo, keyed by kernel object identity — a
        #: kernel is parsed once per application and reused across
        #: launches, so rendering/hashing its PTX once is enough
        self._kernel_hashes = {}

    # -- keys ----------------------------------------------------------
    def kernel_text_hash(self, kernel):
        # The memo pins the kernel object so its id() cannot be recycled
        # onto a different kernel while the entry is alive.
        entry = self._kernel_hashes.get(id(kernel))
        if entry is not None and entry[0] is kernel:
            return entry[1]
        digest = hashlib.sha256(kernel.to_text().encode("utf-8")).hexdigest()
        self._kernel_hashes[id(kernel)] = (kernel, digest)
        return digest

    def summary_key(self, kernel, launch, max_intervals, run_algorithm1=True):
        """Content address of one analysis result.

        Covers everything :func:`~repro.analysis.analyzer.analyze_kernel`
        reads: the kernel body (as canonical PTX text), the concrete
        grid/block dims and argument values, and the analyzer config.
        """
        parts = (
            "schema={}".format(CACHE_SCHEMA_VERSION),
            "ptx={}".format(self.kernel_text_hash(kernel)),
            "grid={!r}".format(tuple(launch.grid)),
            "block={!r}".format(tuple(launch.block)),
            "args={!r}".format(tuple(launch.args)),
            "max_intervals={}".format(int(max_intervals)),
            "algorithm1={}".format(bool(run_algorithm1)),
        )
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def graph_key(self, parent_key, child_key, hazards, degree_threshold):
        """Content address of one encoded kernel-pair graph."""
        parts = (
            "schema={}".format(CACHE_SCHEMA_VERSION),
            "parent={}".format(parent_key),
            "child={}".format(child_key),
            "hazards={!r}".format(tuple(hazards)),
            "degree_threshold={}".format(int(degree_threshold)),
        )
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- storage -------------------------------------------------------
    def _path(self, kind, key):
        return os.path.join(self._root, kind, key[:2], key + ".pkl")

    def get(self, kind, key):
        """Load one artifact; ``None`` (and a miss tick) when absent.

        A file that exists but cannot be unpickled — torn write from a
        killed process, artifact of an older code revision — counts as
        an *invalidation*: it is deleted and treated as a miss, so the
        cache self-heals instead of poisoning runs.
        """
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.metrics.inc(_MISSES.format(kind))
            return None
        except Exception:  # corrupt / incompatible entry
            self.metrics.inc("cache.invalidations")
            self.metrics.inc(_MISSES.format(kind))
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.metrics.inc(_HITS.format(kind))
        return value

    def put(self, kind, key, value):
        """Store one artifact atomically; best-effort (cache is advisory)."""
        path = self._path(kind, key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # read-only / full disk: caching degrades to a no-op
            return False
        self.metrics.inc(_STORES.format(kind))
        return True

    # -- typed convenience wrappers ------------------------------------
    def get_summary(self, key):
        return self.get("summary", key)

    def put_summary(self, key, summary):
        return self.put("summary", key, summary)

    def get_graph(self, key):
        return self.get("graph", key)

    def put_graph(self, key, encoded):
        return self.put("graph", key, encoded)

    # -- maintenance ---------------------------------------------------
    def entry_count(self):
        """Number of artifacts currently stored (current schema only)."""
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self._root):
            count += sum(1 for name in filenames if name.endswith(".pkl"))
        return count

    def counters(self):
        """This registry's ``cache.*`` counters as a plain dict."""
        snapshot = self.metrics.snapshot()["counters"]
        return {
            name: value
            for name, value in snapshot.items()
            if name.startswith("cache.")
        }
