"""Execution journal: a deterministic flight recorder for the engine.

The discrete-event engine can carry a :class:`JournalRecorder`
(``model.run(plan, journal=...)``).  Recording is observation only: the
engine emits one journal event at every scheduling decision it makes —
host API issue, command enqueue/start/complete, kernel launch begin and
residency, thread-block ready/dispatch/finish with the *release edge*
that caused it, kernel drain, and the in-order completion barrier.
Nothing feeds back into the simulation, so simulated signatures are
byte-identical with journaling on or off (tests and CI machine-check
this, like tracing before it).

The journal is the engine's only observer: the critical-path profiler
(:mod:`repro.obs.critpath`), the telemetry analyzer
(:mod:`repro.obs.telemetry`), the first-divergence differ
(:mod:`repro.obs.jdiff`) and the flight report (:mod:`repro.obs.flight`)
are all pure functions over one recorded event stream.

The engine's event loop is single-threaded and deterministic, so the
emission order *is* the simulation order: each event carries a
contiguous ``seq`` and a non-decreasing ``t_ns``.  A journal therefore
has a canonical serialized form — JSONL with sorted keys — and a
content-addressed ``sha256:`` digest over exactly that form.  Two runs
of the same (workload, model, config) on the same code must produce
identical digests regardless of ``PYTHONHASHSEED``, worker processes,
or cache state; when they do not, :mod:`repro.obs.jdiff` localizes the
first diverging event.

File format (``*.journal.jsonl``): line 1 is the header object
(``kind``/``schema_version``/workload/model/options/``num_events``/
``digest``), followed by ``num_events`` event lines in ``seq`` order.

Import note: like :mod:`repro.obs.critpath`, this module must not be
imported from ``repro.obs.__init__`` — the engine imports ``repro.obs``
at module load, and :func:`record_run` imports the engine.
"""

import hashlib
import json

JOURNAL_KIND = "repro-journal"
JOURNAL_SCHEMA_VERSION = 1

#: every event kind the engine emits, in rough lifecycle order
EVENT_KINDS = (
    "host_issue",       # the host issued one API call (+api_call_ns)
    "call_enqueue",     # the call landed in the command queue
    "call_start",       # a non-kernel command began (copy, malloc, ...)
    "call_complete",    # a command completed (kernels: in-order point)
    "kernel_launch",    # launch overhead began on the launch engine
    "kernel_resident",  # launch overhead paid; TBs are dispatchable
    "tb_ready",         # a thread block entered the ready queue
    "tb_dispatch",      # a ready block was placed on an SM
    "tb_finish",        # a block finished and released its SM slot
    "kernel_drain",     # a kernel finished its last thread block
    "kernel_complete",  # the in-order completion barrier opened
)

#: events carrying a release edge (what caused this state change)
EDGE_KINDS = ("kernel_launch", "tb_ready", "tb_dispatch")


def edge_fields(ctx):
    """Map an engine event-context tuple to a JSON-safe release edge.

    The engine annotates every journal-worthy transition with the kind
    of event currently executing (``("tb_finish", ki, tb)``,
    ``("launch", ki)``, ``("completion", ki)``, ``("call", p)``,
    ``("enqueue", p)``, or ``("host",)``) — the *edge* that released it.
    """
    kind, rest = (ctx[0], ctx[1:]) if ctx else ("host", ())
    edge = {"kind": kind}
    if kind == "tb_finish":
        edge["kernel"], edge["tb"] = rest[0], rest[1]
    elif kind in ("launch", "completion"):
        edge["kernel"] = rest[0]
    elif kind in ("call", "enqueue"):
        edge["position"] = rest[0]
    return edge


def options_dict(options):
    """JSON-safe :class:`~repro.models.base.EngineOptions` summary."""
    if options is None:
        return {}
    return {
        "name": options.name,
        "window": options.window,
        "fine_grain": options.fine_grain,
        "policy": options.policy.value,
        "strict_order": options.strict_order,
        "blockmaestro_host": options.blockmaestro_host,
        "launch_overhead_ns": options.launch_overhead_ns,
        "api_call_ns": options.api_call_ns,
        "ready_capacity": options.ready_capacity,
    }


def canonical_line(event):
    """The one serialized form an event hashes and writes as."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def journal_digest(events):
    """Content-addressed digest over the canonical event lines."""
    hasher = hashlib.sha256()
    for event in events:
        hasher.update(canonical_line(event).encode("utf-8"))
        hasher.update(b"\n")
    return "sha256:" + hasher.hexdigest()


class JournalRecorder:
    """Observation-only event capture attached to one engine run.

    The engine calls :meth:`begin` before the first event, :meth:`emit`
    at every scheduling decision, and :meth:`finalize` when the run
    completes.  ``events`` is the deterministically ordered record; on
    an :class:`~repro.models.base.EngineDrainError` the recorder still
    holds everything up to the stall — the *black box* the drain error
    attaches its tail from.
    """

    def __init__(self):
        self.events = []
        self.application = None
        self.model = None
        self.options = None
        #: the plan and GPU configuration the events were recorded on —
        #: what the analyzers need to interpret kernel/TB indices
        self.plan = None
        self.gpu_config = None
        self.finalized = False

    # -- engine-facing hooks -------------------------------------------
    def begin(self, engine):
        self.application = engine.plan.application
        self.model = engine.opts.name
        self.options = engine.opts
        self.plan = engine.plan
        self.gpu_config = engine.config

    def emit(self, kind, t_ns, **fields):
        event = {"seq": len(self.events), "t_ns": t_ns, "kind": kind}
        event.update(fields)
        self.events.append(event)

    def finalize(self, engine):
        self.finalized = True

    # -- summaries ------------------------------------------------------
    def tail(self, n=20):
        """The last ``n`` events (the flight recorder's black-box tail)."""
        return [dict(event) for event in self.events[-n:]]

    def digest(self):
        return journal_digest(self.events)

    def header(self):
        return {
            "kind": JOURNAL_KIND,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "workload": self.application,
            "model": self.model,
            "options": options_dict(self.options),
            "num_events": len(self.events),
            "digest": self.digest(),
        }


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def write_journal(recorder, path):
    """Write header + events as JSONL; returns ``path``."""
    from repro.obs.report import atomic_write_text

    lines = [canonical_line(recorder.header())]
    lines.extend(canonical_line(event) for event in recorder.events)
    atomic_write_text("\n".join(lines) + "\n", path)
    return path


def load_journal(path):
    """Read a journal file back as ``(header, events)``.

    Raises :class:`ValueError` when the file is not a journal, the
    event count disagrees with the header, or the recomputed digest
    does not match — a corrupt or hand-edited journal must not silently
    feed the differ.
    """
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("{}: empty file, not a journal".format(path))
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError("{}: malformed header: {}".format(path, exc))
    if not isinstance(header, dict) or header.get("kind") != JOURNAL_KIND:
        raise ValueError(
            "{}: not a {} file".format(path, JOURNAL_KIND)
        )
    try:
        events = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise ValueError("{}: malformed event line: {}".format(path, exc))
    if header.get("num_events") != len(events):
        raise ValueError(
            "{}: header claims {} events, file holds {}".format(
                path, header.get("num_events"), len(events)
            )
        )
    recomputed = journal_digest(events)
    if header.get("digest") != recomputed:
        raise ValueError(
            "{}: digest mismatch (header {}, recomputed {}) — "
            "journal is corrupt or was edited".format(
                path, header.get("digest"), recomputed
            )
        )
    return header, events


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: per-kind required integer fields (beyond seq/t_ns/kind)
_REQUIRED_FIELDS = {
    "host_issue": ("position",),
    "call_enqueue": ("position",),
    "call_start": ("position",),
    "call_complete": ("position",),
    "kernel_launch": ("kernel",),
    "kernel_resident": ("kernel",),
    "tb_ready": ("kernel", "tb"),
    "tb_dispatch": ("kernel", "tb", "sm"),
    "tb_finish": ("kernel", "tb", "sm"),
    "kernel_drain": ("kernel",),
    "kernel_complete": ("kernel",),
}


def validate_journal(header, events):
    """Structural + invariant validation; returns problem strings."""
    errors = []
    if not isinstance(header, dict):
        return ["header: expected a JSON object"]
    if header.get("kind") != JOURNAL_KIND:
        errors.append("header.kind: expected {!r}".format(JOURNAL_KIND))
    if header.get("schema_version") != JOURNAL_SCHEMA_VERSION:
        errors.append(
            "header.schema_version: expected {}".format(JOURNAL_SCHEMA_VERSION)
        )
    for key in ("workload", "model"):
        if not isinstance(header.get(key), str):
            errors.append("header.{}: missing or not a string".format(key))
    if not isinstance(header.get("options"), dict):
        errors.append("header.options: missing or not an object")
    if header.get("num_events") != len(events):
        errors.append(
            "header.num_events: {} != {} events".format(
                header.get("num_events"), len(events)
            )
        )
    digest = header.get("digest")
    if not isinstance(digest, str) or not digest.startswith("sha256:"):
        errors.append("header.digest: missing or not a sha256: string")
    elif digest != journal_digest(events):
        errors.append("header.digest: does not match the event stream")
    previous_t = 0.0
    for i, event in enumerate(events):
        where = "events[{}]".format(i)
        if not isinstance(event, dict):
            errors.append("{}: not an object".format(where))
            break
        if event.get("seq") != i:
            errors.append(
                "{}: seq {} breaks contiguity".format(where, event.get("seq"))
            )
            break
        t_ns = event.get("t_ns")
        if not _is_number(t_ns):
            errors.append("{}: t_ns missing or not a number".format(where))
            break
        if t_ns + 1e-9 < previous_t:
            errors.append(
                "{}: t_ns {} goes backwards (previous {})".format(
                    where, t_ns, previous_t
                )
            )
            break
        previous_t = t_ns
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            errors.append("{}: unknown kind {!r}".format(where, kind))
            break
        missing = [
            key for key in _REQUIRED_FIELDS[kind]
            if not _is_int(event.get(key))
        ]
        if missing:
            errors.append(
                "{}: {} missing integer fields {}".format(where, kind, missing)
            )
            break
        if kind in EDGE_KINDS and not isinstance(event.get("edge"), dict):
            errors.append("{}: {} missing its edge".format(where, kind))
            break
    return errors


# ----------------------------------------------------------------------
# recording a run
# ----------------------------------------------------------------------
def record_run(workload, model="consumer3", build_small=False, cache=None):
    """Build, plan, and simulate one registry workload with a journal.

    Returns ``(recorder, stats)``.  This is the one observed-run code
    path behind ``repro journal``/``critpath``/``telemetry``/``report``,
    the bench critpath/telemetry sections, the daemon's observer
    endpoints, the forensics re-recorder, and the determinism tests, so
    every journal of a given (workload, model) is produced identically.
    ``cache`` is an optional :class:`~repro.analysis.cache.AnalysisCache`
    for the planning step.
    """
    # Imported lazily: the engine imports repro.obs at module load, so a
    # module-level import here would be a cycle.
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import (
        _make_model,
        _model_plan_params,
        canonical_model_name,
    )
    from repro.workloads import get_workload

    spec = get_workload(workload)
    app = spec.build_small() if build_small else spec.build()
    model_name = canonical_model_name(model)
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime(cache=cache)
    plan = runtime.plan(app, reorder=reorder, window=window)
    engine_model = _make_model(model_name, runtime.config)
    recorder = JournalRecorder()
    stats = engine_model.run(plan, journal=recorder)
    return recorder, stats
