"""Process-pool suite executor with deterministic result merging.

The executor solves one problem: run N independent, picklable tasks on
up to ``jobs`` worker processes *without changing what the caller
observes*.  Three properties make that true:

* **Deterministic partitioning** — tasks are indexed in submission
  order and dispatched in that order; nothing about scheduling leaks
  into the output.
* **Ordered merge** — results come back as a list aligned with the
  input, regardless of which worker finished first.
* **Serial fallback** — ``jobs=1`` (the default everywhere) never
  touches :mod:`multiprocessing` at all: tasks run inline, in order, in
  the calling process, which is bit-for-bit the pre-``--jobs`` code
  path.

Failure handling is conservative and deterministic: a task that raises,
times out, or dies with its worker is retried *inline in the parent*
(up to ``retries`` times), so a flaky pool can slow a run down but
cannot change its output.  A task that still fails raises
:class:`TaskFailure` carrying the original cause.

Workers run ``fn(item)`` — both must be picklable (module-level
function, plain-data items).  Simulated results in this codebase are
deterministic, so a retried task returns the same value the first
attempt would have.
"""

from typing import Callable, List, Sequence

#: per-task wall-clock budget before the parent gives up on the worker
#: and re-runs the task inline (None = wait forever)
DEFAULT_TASK_TIMEOUT_S = 600.0


class TaskFailure(RuntimeError):
    """A task failed on every attempt (pool *and* inline retries)."""

    def __init__(self, index, item, attempts, cause):
        self.index = index
        self.item = item
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            "task {} failed after {} attempt(s): {!r}".format(index, attempts, cause)
        )


class SuiteExecutor:
    """Run independent tasks on a process pool, merge results in order.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) runs everything inline.
    timeout_s:
        Per-task wall-clock budget once the parent starts waiting on it;
        a timed-out task is retried inline.  ``None`` disables.
    retries:
        How many *extra* attempts a failed task gets (inline, in the
        parent) before :class:`TaskFailure` is raised.
    log:
        Optional ``callable(str)`` for progress/rescue messages
        (defaults to silent).
    """

    def __init__(self, jobs=1, timeout_s=DEFAULT_TASK_TIMEOUT_S, retries=1,
                 log=None):
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.log = log or (lambda message: None)

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> List[object]:
        """``[fn(item) for item in items]``, possibly across processes."""
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [self._run_inline(fn, index, item) for index, item in enumerate(items)]
        return self._run_pool(fn, items)

    # ------------------------------------------------------------------
    def _run_inline(self, fn, index, item, attempts_before=0):
        """Run one task in this process, honouring the retry budget."""
        attempt = attempts_before
        max_attempts = self.retries + 1  # first try + retry budget, pool included
        while True:
            attempt += 1
            try:
                return fn(item)
            except Exception as exc:  # noqa: BLE001 — rethrown as TaskFailure
                if attempt >= max_attempts:
                    raise TaskFailure(index, item, attempt, exc) from exc
                self.log("parallel: task {} attempt {} failed ({!r}); retrying".format(
                    index, attempt, exc))

    def _run_pool(self, fn, items):
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        # fork keeps worker start cheap and inherits the loaded modules;
        # platforms without it (Windows, some macOS configs) use their
        # default start method — correctness is identical, startup slower.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        results = [None] * len(items)
        rescue = []  # (index, item, attempts_so_far, cause) to re-run inline
        timed_out = False
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)), mp_context=ctx
        )
        try:
            futures = [pool.submit(fn, item) for item in items]
            # collect strictly in index order: merge order (and therefore
            # the caller-visible output) never depends on completion order
            for index, future in enumerate(futures):
                try:
                    value = future.result(timeout=self.timeout_s)
                except FutureTimeout as exc:
                    timed_out = True
                    future.cancel()
                    self.log("parallel: task {} timed out after {:.0f}s; "
                             "re-running inline".format(index, self.timeout_s))
                    rescue.append((index, items[index], 1, exc))
                except BrokenExecutor as exc:
                    # the pool is gone: this and every later task runs inline
                    self.log("parallel: worker pool broke ({!r}); finishing "
                             "serially".format(exc))
                    rescue.extend(
                        (rest, items[rest], 1, exc)
                        for rest in range(index, len(items))
                    )
                    break
                except Exception as exc:  # noqa: BLE001 — task raised in worker
                    self.log("parallel: task {} raised {!r}; re-running "
                             "inline".format(index, exc))
                    rescue.append((index, items[index], 1, exc))
                else:
                    results[index] = value
        finally:
            # read before shutdown(), which drops the pool's process table
            workers = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=not timed_out, cancel_futures=True)
            if timed_out:
                # a hung worker would otherwise stall interpreter exit;
                # it can hold no state the parent needs (tasks are pure)
                for process in workers:
                    try:
                        process.terminate()
                    except OSError:  # already gone
                        pass
        for index, item, attempts, cause in rescue:
            if self.retries < 1:
                # no retry budget: surface the pool failure deterministically
                raise TaskFailure(index, item, attempts, cause)
            results[index] = self._run_inline(
                fn, index, item, attempts_before=attempts
            )
        return results
