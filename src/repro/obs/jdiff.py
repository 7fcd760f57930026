"""Journal differ: first-divergence forensics between two recordings.

Two journals of the same (workload, model, config) — across engine
versions, ``REPRO_FASTPATH`` modes, ``--jobs`` settings, or cache
cold/warm — must be identical event for event, because the engine is a
deterministic single-threaded event loop.  When they are not,
:func:`diff_journals` aligns the two streams and reports the *first*
diverging event with blame context: the thread block (or call/kernel)
each side scheduled, the release edge that caused it, whether the
A-side event was merely *reordered* (it appears later in B), and a
±N-event waterfall window so the surrounding schedule is visible
without opening either file.

The report is schema-versioned (``repro-jdiff-report``) and drives the
``repro jdiff`` exit code: 0 when identical, 1 on divergence.
"""

from repro import schema
from repro.obs.journal import canonical_line, journal_digest
from repro.version import JDIFF_SCHEMA_VERSION

JDIFF_KIND = "repro-jdiff-report"

#: header fields whose disagreement makes two journals non-comparable
_HEADER_KEYS = ("workload", "model", "schema_version")

#: event fields that identify *what* an event is about (reorder matching)
_IDENTITY_FIELDS = ("kind", "kernel", "tb", "position", "sm")


def _side_summary(label, header, events):
    return {
        "label": label,
        "workload": header.get("workload"),
        "model": header.get("model"),
        "num_events": len(events),
        "digest": header.get("digest") or journal_digest(events),
    }


def _identity(event):
    return tuple(event.get(key) for key in _IDENTITY_FIELDS)


def describe_event(event):
    """One compact line per event, shared by text rendering and blame."""
    if event is None:
        return "(stream ended)"
    kind = event.get("kind", "?")
    bits = ["{:>12.3f}us".format(event.get("t_ns", 0.0) / 1e3), kind]
    if event.get("kernel") is not None:
        subject = "k{}".format(event["kernel"])
        if event.get("tb") is not None:
            subject += "/tb{}".format(event["tb"])
        if event.get("name"):
            subject += " ({})".format(event["name"])
        bits.append(subject)
    if event.get("position") is not None:
        bits.append("call {}{}".format(
            event["position"],
            " ({})".format(event["op"]) if event.get("op") else "",
        ))
    if event.get("sm") is not None:
        bits.append("sm={}".format(event["sm"]))
    edge = event.get("edge")
    if edge:
        bits.append("released by {}".format(_describe_edge(edge)))
    return "  ".join(bits)


def _describe_edge(edge):
    kind = edge.get("kind", "?")
    if edge.get("kernel") is not None and edge.get("tb") is not None:
        return "{} k{}/tb{}".format(kind, edge["kernel"], edge["tb"])
    if edge.get("kernel") is not None:
        return "{} k{}".format(kind, edge["kernel"])
    if edge.get("position") is not None:
        return "{} call {}".format(kind, edge["position"])
    return kind


def _changed_fields(a_event, b_event):
    if a_event is None or b_event is None:
        return []
    keys = sorted(set(a_event) | set(b_event))
    return [key for key in keys if a_event.get(key) != b_event.get(key)]


def _find_reorder(event, other_events, start):
    """Where (if anywhere) ``event`` shows up later in the other stream.

    Matches on the identity fields only — a reordered event keeps its
    subject (same TB, same call) but lands at a different seq/time.
    """
    if event is None:
        return None
    wanted = _identity(event)
    for j in range(start, len(other_events)):
        if _identity(other_events[j]) == wanted:
            return j
    return None


def _blame(a_event, b_event, a_events, b_events, index):
    """Name what diverged: the subject, the edges, reorder evidence."""
    blame = {
        "a": describe_event(a_event),
        "b": describe_event(b_event),
    }
    changed = _changed_fields(a_event, b_event)
    if a_event is None or b_event is None:
        longer, shorter = ("A", "B") if b_event is None else ("B", "A")
        blame["summary"] = (
            "{} ends at event {} while {} continues — "
            "the runs scheduled different amounts of work".format(
                shorter, index, longer
            )
        )
        return blame
    if _identity(a_event) == _identity(b_event):
        blame["summary"] = (
            "same event, different fields {}: the schedules agree on "
            "what ran but not on {}".format(
                changed, "its timing" if changed == ["t_ns"] else "how"
            )
        )
        return blame
    a_in_b = _find_reorder(a_event, b_events, index + 1)
    b_in_a = _find_reorder(b_event, a_events, index + 1)
    parts = []
    if a_in_b is not None:
        parts.append(
            "A's event reappears at seq {} in B (reordered {} later)".format(
                a_in_b, a_in_b - index
            )
        )
    if b_in_a is not None:
        parts.append(
            "B's event reappears at seq {} in A (reordered {} later)".format(
                b_in_a, b_in_a - index
            )
        )
    if not parts:
        parts.append("neither event appears in the other stream")
    blame["summary"] = "; ".join(parts)
    if a_in_b is not None:
        blame["a_reordered_to"] = a_in_b
    if b_in_a is not None:
        blame["b_reordered_to"] = b_in_a
    return blame


def diff_journals(a_header, a_events, b_header, b_events,
                  window=8, a_label="A", b_label="B"):
    """Compare two journals; returns the ``repro-jdiff-report`` dict.

    ``window`` bounds the waterfall context on each side of the first
    divergence.  Identical journals produce ``identical: True`` and no
    ``first_divergence`` entry.
    """
    header_mismatches = []
    for key in _HEADER_KEYS:
        if a_header.get(key) != b_header.get(key):
            header_mismatches.append(
                "{}: {!r} vs {!r}".format(
                    key, a_header.get(key), b_header.get(key)
                )
            )
    a_opts = a_header.get("options") or {}
    b_opts = b_header.get("options") or {}
    for key in sorted(set(a_opts) | set(b_opts)):
        if a_opts.get(key) != b_opts.get(key):
            header_mismatches.append(
                "options.{}: {!r} vs {!r}".format(
                    key, a_opts.get(key), b_opts.get(key)
                )
            )

    common = min(len(a_events), len(b_events))
    divergence_at = None
    for i in range(common):
        if canonical_line(a_events[i]) != canonical_line(b_events[i]):
            divergence_at = i
            break
    if divergence_at is None and len(a_events) != len(b_events):
        divergence_at = common

    report = {
        "kind": JDIFF_KIND,
        "schema_version": JDIFF_SCHEMA_VERSION,
        "a": _side_summary(a_label, a_header, a_events),
        "b": _side_summary(b_label, b_header, b_events),
        "header_mismatches": header_mismatches,
        "identical": divergence_at is None and not header_mismatches,
        "num_common_prefix": (
            divergence_at if divergence_at is not None else common
        ),
        "first_divergence": None,
    }
    if divergence_at is not None:
        i = divergence_at
        a_event = a_events[i] if i < len(a_events) else None
        b_event = b_events[i] if i < len(b_events) else None
        report["first_divergence"] = {
            "index": i,
            "a_event": a_event,
            "b_event": b_event,
            "changed_fields": _changed_fields(a_event, b_event),
            "blame": _blame(a_event, b_event, a_events, b_events, i),
            "window": {
                "before": a_events[max(0, i - window):i],
                "a_after": a_events[i:i + window],
                "b_after": b_events[i:i + window],
            },
        }
    return report


_REPORT = {
    "kind": JDIFF_KIND,
    "schema_version": JDIFF_SCHEMA_VERSION,
    "a": dict,
    "b": dict,
    "identical": bool,
    "first_divergence": schema.Optional({"index": int}),
}


def validate_jdiff_report(report):
    """Structural validation; returns problem strings."""
    errors = schema.check(report, _REPORT)
    if not errors and report["identical"] and report.get("first_divergence"):
        errors.append("identical report carries a first_divergence")
    return errors


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_jdiff(report, window=None):
    """Human-readable first-divergence waterfall."""
    a, b = report["a"], report["b"]
    lines = [
        "jdiff: {} ({} x {}, {} events)".format(
            a["label"], a["workload"], a["model"], a["num_events"]
        ),
        "   vs: {} ({} x {}, {} events)".format(
            b["label"], b["workload"], b["model"], b["num_events"]
        ),
    ]
    for mismatch in report["header_mismatches"]:
        lines.append("  header mismatch: {}".format(mismatch))
    if report["identical"]:
        lines.append("  identical: {} events, digest {}".format(
            a["num_events"], a["digest"]
        ))
        return "\n".join(lines)
    divergence = report["first_divergence"]
    if divergence is None:
        lines.append(
            "  event streams identical; only headers differ (see above)"
        )
        return "\n".join(lines)
    i = divergence["index"]
    lines.append(
        "  first divergence at event {} (common prefix: {} events):".format(
            i, report["num_common_prefix"]
        )
    )
    before = divergence["window"]["before"]
    if window is not None:
        before = before[-window:] if window else []
    for event in before:
        lines.append("    = {:>6}  {}".format(
            event.get("seq", "?"), describe_event(event)
        ))
    lines.append("    A>{:>6}  {}".format(i, divergence["blame"]["a"]))
    lines.append("    B>{:>6}  {}".format(i, divergence["blame"]["b"]))
    if divergence["changed_fields"]:
        lines.append(
            "  changed fields: {}".format(
                ", ".join(divergence["changed_fields"])
            )
        )
    lines.append("  blame: {}".format(divergence["blame"]["summary"]))
    a_after = divergence["window"]["a_after"][1:]
    b_after = divergence["window"]["b_after"][1:]
    if window is not None:
        a_after, b_after = a_after[:window], b_after[:window]
    if a_after:
        lines.append("  A waterfall after:")
        for event in a_after:
            lines.append("      {:>6}  {}".format(
                event.get("seq", "?"), describe_event(event)
            ))
    if b_after:
        lines.append("  B waterfall after:")
        for event in b_after:
            lines.append("      {:>6}  {}".format(
                event.get("seq", "?"), describe_event(event)
            ))
    return "\n".join(lines)
