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

Observability: an ``on_result`` callback fires in the parent once per
finalized task (heartbeats hook it), and every pooled task runs inside
:func:`_worker_task`, which tags the worker's :mod:`repro.obs.log`
context with its pid — workers inherit the parent's stderr, so the
``worker`` field on a JSON log record is the forwarding story: it says
*who* wrote each interleaved line.
"""

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

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


@dataclass
class TaskResult:
    """Bookkeeping for one completed task (``value`` is ``fn(item)``)."""

    index: int
    value: object
    attempts: int = 1
    elapsed_s: float = 0.0
    inline: bool = False  # ran in the parent (serial mode or rescue)


def _worker_task(fn, item):
    """Pool entry point: tag this worker's log context, then run."""
    from repro.obs.log import set_context

    set_context(worker=os.getpid())
    return fn(item)


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
    on_result:
        Optional ``callable(TaskResult)`` fired in the parent once per
        task, when its result is final (pool collection, inline run, or
        rescue — never twice for the same index).  Heartbeats hook this
        for live progress; exceptions it raises propagate to the caller.
    """

    def __init__(self, jobs=1, timeout_s=DEFAULT_TASK_TIMEOUT_S, retries=1,
                 log=None, on_result=None):
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.log = log or (lambda message: None)
        self.on_result = on_result

    def _notify(self, result):
        if self.on_result is not None:
            self.on_result(result)

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> List[object]:
        """``[fn(item) for item in items]``, possibly across processes."""
        return [result.value for result in self.run(fn, items)]

    def run(self, fn: Callable, items: Sequence) -> List[TaskResult]:
        """Like :meth:`map` but returns full :class:`TaskResult` rows."""
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
            start = time.perf_counter()
            try:
                value = fn(item)
            except Exception as exc:  # noqa: BLE001 — rethrown as TaskFailure
                if attempt >= max_attempts:
                    raise TaskFailure(index, item, attempt, exc) from exc
                self.log("parallel: task {} attempt {} failed ({!r}); retrying".format(
                    index, attempt, exc))
                continue
            result = TaskResult(
                index=index,
                value=value,
                attempts=attempt,
                elapsed_s=time.perf_counter() - start,
                inline=True,
            )
            self._notify(result)
            return result

    def _run_pool(self, fn, items):
        import multiprocessing
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        # fork keeps worker start cheap and inherits the loaded modules;
        # platforms without it (Windows, some macOS configs) use their
        # default start method — correctness is identical, startup slower.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        results: List[Optional[TaskResult]] = [None] * len(items)
        rescue = []  # (index, item, attempts_so_far, cause) to re-run inline
        timed_out = False
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)), mp_context=ctx
        )
        try:
            submitted = time.perf_counter()
            futures = [pool.submit(_worker_task, fn, item) for item in items]
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
                    # the pool is gone: every uncollected task runs inline
                    self.log("parallel: worker pool broke ({!r}); finishing "
                             "serially".format(exc))
                    for rest in range(index, len(items)):
                        if results[rest] is None:
                            rescue.append((rest, items[rest], 1, exc))
                    break
                except Exception as exc:  # noqa: BLE001 — task raised in worker
                    self.log("parallel: task {} raised {!r}; re-running "
                             "inline".format(index, exc))
                    rescue.append((index, items[index], 1, exc))
                else:
                    results[index] = TaskResult(
                        index=index,
                        value=value,
                        attempts=1,
                        elapsed_s=time.perf_counter() - submitted,
                    )
                    self._notify(results[index])
        finally:
            pool.shutdown(wait=not timed_out, cancel_futures=True)
            if timed_out:
                # a hung worker would otherwise stall interpreter exit;
                # it can hold no state the parent needs (tasks are pure)
                for process in list((getattr(pool, "_processes", None) or {}).values()):
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
