"""Prometheus text-exposition rendering (version 0.0.4), shared.

PR 7 grew a hand-rolled exposition writer inside
:mod:`repro.obs.telemetry` for ``repro telemetry --prom``; the serve
daemon needs the same format for its live ``/metrics`` endpoint.  This
module is the one implementation both go through:

* :class:`PromWriter` — the line-level writer.  ``emit`` declares the
  ``# HELP`` / ``# TYPE`` header the first time a metric name appears
  and appends one sample line per call, exactly the layout (and byte
  format) the PR 7 telemetry writer produced.
* :func:`render_registry` — renders a full
  :meth:`repro.obs.MetricsRegistry.snapshot` (counters, gauges, and
  histograms) as an exposition document: counters become
  ``<ns>_<name>_total`` counter series, gauges become gauges, and
  histograms become Prometheus *summary* families (``{quantile="..."}``
  samples plus ``_sum`` / ``_count``).
* :func:`validate_exposition` — a dependency-free format checker (CI
  gates the daemon's ``/metrics`` output with it): every sample line
  must parse, carry a preceding ``# TYPE`` declaration, and use valid
  label syntax; ``HELP``/``TYPE`` may appear at most once per family.

Everything is hand-rolled so the repo stays dependency-free.
"""

import re

#: quantiles exported for histogram summaries (the reservoir
#: percentiles :meth:`repro.obs.metrics.Histogram.summary` quotes)
SUMMARY_QUANTILES = ((0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99"))

VALID_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)(?: (-?\d+))?$"
)
# one label pair: name="value" with \" \\ \n escapes
_LABEL_PAIR_RE = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"$'
)


def escape_label_value(value):
    """Escape a raw value for use inside ``label="..."``."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def metric_name(name, namespace=None):
    """Sanitize a dotted instrument name into a metric name.

    ``serve.latency.run`` -> ``repro_serve_latency_run`` (with the
    default ``repro`` namespace).  Any character outside the metric
    alphabet becomes ``_``.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if namespace:
        sanitized = "{}_{}".format(namespace, sanitized)
    if not _NAME_RE.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


class PromWriter:
    """Incremental exposition writer with once-per-family headers."""

    def __init__(self):
        self._lines = []
        self._declared = {}  # family name -> type

    def declare(self, name, help_text, metric_type="gauge"):
        """Emit ``# HELP`` / ``# TYPE`` once for a family."""
        if name not in self._declared:
            self._lines.append("# HELP {} {}".format(name, help_text))
            self._lines.append("# TYPE {} {}".format(name, metric_type))
            self._declared[name] = metric_type
        return self

    def sample(self, name, value, labels=""):
        """Append one sample line (no header bookkeeping)."""
        if labels:
            self._lines.append(
                "{}{{{}}} {}".format(name, labels, repr(float(value)))
            )
        else:
            self._lines.append("{} {}".format(name, repr(float(value))))
        return self

    def emit(self, name, help_text, value, labels="", metric_type="gauge"):
        """Declare-if-new then sample — the PR 7 telemetry idiom."""
        self.declare(name, help_text, metric_type)
        return self.sample(name, value, labels=labels)

    def render(self):
        return "\n".join(self._lines) + "\n"


def render_registry(snapshot, namespace="repro", const_labels=""):
    """Render a :meth:`MetricsRegistry.snapshot` as an exposition doc.

    ``const_labels`` (e.g. ``'service="repro-serve"'``) is attached to
    every sample.  Families are emitted in sorted-name order within
    each instrument kind, so identical snapshots render identically.
    """
    writer = PromWriter()
    for name in sorted(snapshot.get("counters") or {}):
        family = metric_name(name, namespace) + "_total"
        writer.emit(
            family,
            "Counter {}.".format(name),
            snapshot["counters"][name],
            labels=const_labels,
            metric_type="counter",
        )
    for name in sorted(snapshot.get("gauges") or {}):
        writer.emit(
            metric_name(name, namespace),
            "Gauge {}.".format(name),
            snapshot["gauges"][name],
            labels=const_labels,
            metric_type="gauge",
        )
    for name in sorted(snapshot.get("histograms") or {}):
        summary = snapshot["histograms"][name] or {}
        family = metric_name(name, namespace)
        writer.declare(
            family, "Histogram {}.".format(name), metric_type="summary"
        )
        for quantile, label in SUMMARY_QUANTILES:
            key = "p{:g}".format(quantile * 100).replace(".", "_")
            # Histogram.summary() spells them p50/p95/p99
            key = {"p50_0": "p50", "p95_0": "p95", "p99_0": "p99"}.get(
                key, key
            )
            value = summary.get(key)
            if value is None:
                continue
            pair = 'quantile="{}"'.format(label)
            labels = (
                const_labels + "," + pair if const_labels else pair
            )
            writer.sample(family, value, labels=labels)
        writer.sample(
            family + "_sum", summary.get("total") or 0.0, labels=const_labels
        )
        writer.sample(
            family + "_count", summary.get("count") or 0, labels=const_labels
        )
    return writer.render()


def _declared_family(sample_name, families):
    """Resolve a sample name to its declared family (or ``None``)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if families.get(base) in ("summary", "histogram"):
                return base
    return None


def _check_labels(raw):
    """Validate the inside of ``{...}``; returns an error or ``None``."""
    if raw == "":
        return "empty label braces"
    # label values may themselves contain commas inside quotes, so walk
    # pairs with a small scanner instead of a naive split
    pairs, current, in_quotes, escaped = [], "", False, False
    for ch in raw:
        if escaped:
            current += ch
            escaped = False
            continue
        if ch == "\\":
            current += ch
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current += ch
            continue
        if ch == "," and not in_quotes:
            pairs.append(current)
            current = ""
            continue
        current += ch
    if in_quotes:
        return "unterminated label value quote"
    pairs.append(current)
    for pair in pairs:
        if not _LABEL_PAIR_RE.match(pair):
            return "bad label pair {!r}".format(pair)
    return None


def _check_value(raw):
    try:
        float(raw)
    except ValueError:
        return "unparseable sample value {!r}".format(raw)
    return None


def validate_exposition(text):
    """Check a text-exposition document; returns a list of errors."""
    errors = []
    if not isinstance(text, str) or not text:
        return ["document is empty"]
    if not text.endswith("\n"):
        errors.append("document must end with a newline")
    families = {}   # name -> type
    helped = set()
    sampled = set()  # families that already have samples
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line == "":
            continue  # blank lines are legal separators
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # other comments are legal and ignored
                if line.startswith("# HELP") or line.startswith("# TYPE"):
                    errors.append("line {}: malformed {}".format(
                        lineno, parts[1] if len(parts) > 1 else "comment"
                    ))
                continue
            kind, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                errors.append(
                    "line {}: bad metric name {!r}".format(lineno, name)
                )
                continue
            if kind == "HELP":
                if name in helped:
                    errors.append(
                        "line {}: duplicate HELP for {}".format(lineno, name)
                    )
                helped.add(name)
            else:
                if len(parts) < 4 or parts[3] not in VALID_TYPES:
                    errors.append(
                        "line {}: bad TYPE for {}".format(lineno, name)
                    )
                    continue
                if name in families:
                    errors.append(
                        "line {}: duplicate TYPE for {}".format(lineno, name)
                    )
                if name in sampled:
                    errors.append(
                        "line {}: TYPE for {} after its samples".format(
                            lineno, name
                        )
                    )
                families[name] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append("line {}: unparseable sample {!r}".format(
                lineno, line
            ))
            continue
        name, labels, value = match.group(1), match.group(2), match.group(3)
        if labels is not None:
            label_error = _check_labels(labels)
            if label_error:
                errors.append("line {}: {}".format(lineno, label_error))
        value_error = _check_value(value)
        if value_error:
            errors.append("line {}: {}".format(lineno, value_error))
        family = _declared_family(name, families)
        if family is None:
            errors.append(
                "line {}: sample {} has no TYPE declaration".format(
                    lineno, name
                )
            )
        else:
            sampled.add(family)
    return errors
