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

from repro import schema
from repro.version import JOURNAL_SCHEMA_VERSION

JOURNAL_KIND = "repro-journal"

#: every event kind the engine emits, in rough lifecycle order, and the
#: fields it carries beyond seq/t_ns/kind
_KIND_FIELDS = {
    # the host issued one API call (+api_call_ns)
    "host_issue": {"position": int},
    # the call landed in the command queue
    "call_enqueue": {"position": int},
    # a non-kernel command began (copy, malloc, ...)
    "call_start": {"position": int},
    # a command completed (kernels: in-order point)
    "call_complete": {"position": int},
    # launch overhead began on the launch engine
    "kernel_launch": {"kernel": int, "edge": dict},
    # launch overhead paid; TBs are dispatchable
    "kernel_resident": {"kernel": int},
    # a thread block entered the ready queue
    "tb_ready": {"kernel": int, "tb": int, "edge": dict},
    # a ready block was placed on an SM
    "tb_dispatch": {"kernel": int, "tb": int, "sm": int, "edge": dict},
    # a block finished and released its SM slot
    "tb_finish": {"kernel": int, "tb": int, "sm": int},
    # a kernel finished its last thread block
    "kernel_drain": {"kernel": int},
    # the in-order completion barrier opened
    "kernel_complete": {"kernel": int},
}
EVENT_KINDS = tuple(_KIND_FIELDS)

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

    Raises :class:`ValueError` naming ``path`` and the first problem
    when the file is not a journal or fails :func:`validate_journal`
    (event count, digest, structure): a corrupt or hand-edited journal
    must not reach the differ.
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
    errors = validate_journal(header, events)
    if errors:
        raise ValueError("{}: {}".format(path, errors[0]))
    return header, events


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
_HEADER = {
    "kind": JOURNAL_KIND,
    "schema_version": JOURNAL_SCHEMA_VERSION,
    "workload": str,
    "model": str,
    "options": dict,
    "num_events": int,
    "digest": schema.SHA256,
}

#: what every event carries; a release edge is always an object
_EVENT = {"seq": int, "t_ns": schema.NUMBER, "kind": str,
          "edge": schema.Optional(dict)}


def _event_problems(index, event, previous_t):
    where = "events[{}]".format(index)
    problems = schema.check(event, _EVENT, where)
    if problems:
        return problems
    if event["seq"] != index:
        return ["{}: seq {} breaks contiguity".format(where, event["seq"])]
    if event["t_ns"] + 1e-9 < previous_t:
        return ["{}: t_ns {} goes backwards (previous {})".format(
            where, event["t_ns"], previous_t)]
    if event["kind"] not in _KIND_FIELDS:
        return ["{}: unknown kind {!r}".format(where, event["kind"])]
    return schema.check(event, _KIND_FIELDS[event["kind"]], where)


def validate_journal(header, events):
    """Structural + invariant validation; returns problem strings.

    Events are checked in order up to the first bad one.
    """
    errors = schema.check(header, _HEADER, "header")
    errors += schema.check(events, list, "events")
    if errors:
        return errors
    if header["num_events"] != len(events):
        errors.append("header.num_events: {} != {} events".format(
            header["num_events"], len(events)
        ))
    recomputed = journal_digest(events)
    if header["digest"] != recomputed:
        errors.append("header.digest: digest mismatch (the events hash to "
                      "{}): corrupt or edited".format(recomputed))
    previous_t = 0.0
    for index, event in enumerate(events):
        problems = _event_problems(index, event, previous_t)
        if problems:
            return errors + problems
        previous_t = event["t_ns"]
    return errors


# ----------------------------------------------------------------------
# recording a run
# ----------------------------------------------------------------------
def record_run(workload, model="consumer3", build_small=False):
    """Build, plan, and simulate one registry workload with a journal.

    Returns ``(recorder, stats)``: the cold observed run behind ``repro
    journal`` and ``repro report``, the observer goldens and the
    determinism tests, on a fresh
    :class:`~repro.experiments.common.ExperimentContext`.
    """
    # Imported lazily: the engine imports repro.obs at module load, so a
    # module-level import here would be a cycle.
    from repro.experiments.common import ExperimentContext
    from repro.workloads import get_workload

    overrides = get_workload(workload).small_overrides if build_small else {}
    context = ExperimentContext()
    recorder = JournalRecorder()
    stats = context.simulate(
        context.app(workload, **overrides), model, journal=recorder
    )
    return recorder, stats
