"""Package + report-schema version surface (``repro --version``).

Every schema-versioned artifact family the toolkit emits is collected
here so one flag (and the serve daemon's ``/version`` endpoint) answers
"which schemas does this build speak":

* ``critpath``  — ``repro-critpath-report`` (``repro.obs.critpath``)
* ``fuzz``      — ``repro-fuzz-report`` (``repro.fuzz.runner``)
* ``fuzz_case`` — ``repro-fuzz-case`` (``repro.fuzz.shrink``)
* ``jdiff``     — ``repro-jdiff-report`` (``repro.obs.jdiff``)
* ``journal``   — ``repro-journal`` (``repro.obs.journal``)
* ``serve``     — the serve daemon's request/response envelope
* ``status``    — ``repro-status`` snapshots (``repro.obs.log``)
* ``telemetry`` — ``repro-telemetry-report`` (``repro.obs.telemetry``)

The ``serve`` entry is the client/daemon handshake token: a client
whose ``serve`` schema differs from the daemon's refuses the session
with a clear error instead of mis-parsing responses.
"""

#: one constant per family above; each emitting module imports its own
#: from here, so ``repro --version`` needs none of them
CRITPATH_SCHEMA_VERSION = 1
FUZZ_REPORT_SCHEMA_VERSION = 1
CASE_SCHEMA_VERSION = 1
JDIFF_SCHEMA_VERSION = 1
JOURNAL_SCHEMA_VERSION = 1
#: client/daemon handshake token: bump on any incompatible change to
#: the request/response envelope or an endpoint's result shape
SERVE_SCHEMA_VERSION = 1
STATUS_SCHEMA_VERSION = 1
TELEMETRY_SCHEMA_VERSION = 1

#: fallback when the package metadata is unavailable (e.g. running from
#: a source checkout via PYTHONPATH); keep in sync with pyproject.toml
__version__ = "1.0.0"


def package_version():
    """The installed distribution version, else the source fallback."""
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro")
    except PackageNotFoundError:
        return __version__


def schema_versions():
    """Every report-schema version this build emits, by family name."""
    return {
        "critpath": CRITPATH_SCHEMA_VERSION,
        "fuzz": FUZZ_REPORT_SCHEMA_VERSION,
        "fuzz_case": CASE_SCHEMA_VERSION,
        "jdiff": JDIFF_SCHEMA_VERSION,
        "journal": JOURNAL_SCHEMA_VERSION,
        "serve": SERVE_SCHEMA_VERSION,
        "status": STATUS_SCHEMA_VERSION,
        "telemetry": TELEMETRY_SCHEMA_VERSION,
    }


def version_lines():
    """The ``repro --version`` text: package line + one schema line."""
    schemas = schema_versions()
    return [
        "repro {}".format(package_version()),
        "schemas: " + " ".join(
            "{}={}".format(name, schemas[name]) for name in sorted(schemas)
        ),
    ]
