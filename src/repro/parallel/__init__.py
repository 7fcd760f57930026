"""Parallel suite execution (``--jobs N``).

One primitive, used by every matrix-shaped command:

* :class:`repro.parallel.executor.SuiteExecutor` — a process-pool
  executor with *deterministic work partitioning* (tasks are indexed in
  submission order and results are merged back in that order, so the
  output of a parallel run is byte-identical to the serial run),
  per-task timeout, bounded retries, and an inline serial fallback that
  makes ``jobs=1`` exactly the pre-existing code path.

Consumers:

* ``repro experiments --jobs N`` — experiment modules
* ``repro compare --jobs N``     — roster models on one workload
* ``repro fuzz --jobs N``        — generated cases

Each task returns its result to the parent, which merges them in
submission order.  See ``docs/parallelism.md``.
"""

from repro.parallel.executor import (
    DEFAULT_TASK_TIMEOUT_S,
    SuiteExecutor,
    TaskFailure,
    TaskResult,
)

__all__ = [
    "DEFAULT_TASK_TIMEOUT_S",
    "SuiteExecutor",
    "TaskFailure",
    "TaskResult",
]
