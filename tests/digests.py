"""The canonical hashes of a complete :class:`~repro.sim.stats.RunStats`
and of a :class:`~repro.analysis.analyzer.KernelSummary`.

The RunStats payload is ``dataclasses.asdict(stats)`` with the TB records as a
list of row dicts (:class:`~repro.sim.stats.TBTable` holds columns,
which ``asdict`` cannot walk) plus ``simulated_signature()``; the digest
is the sha256 of its canonical JSON (sorted keys, compact separators).
``tests/regression/engine_records.json`` pins this format, so changing it
means regenerating that golden.  A summary's payload is its kernel name,
launch, access records, dynamic mix, fallback and fallback detail
(``tests/regression/analysis_summaries.json`` pins it).
"""

import dataclasses
import hashlib
import json


def runstats_payload(stats):
    """Every field of ``stats`` as plain JSON-ready data."""
    payload = dataclasses.asdict(stats)
    payload["tb_records"] = [dataclasses.asdict(r) for r in stats.tb_records]
    payload["simulated_signature"] = stats.simulated_signature()
    return payload


def payload_digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def runstats_digest(stats):
    """``sha256:<hex>`` of the complete RunStats."""
    return payload_digest(runstats_payload(stats))


def summary_payload(summary):
    """One launch's analysis as plain JSON-ready data."""
    launch = summary.launch
    return {
        "kernel": summary.kernel_name,
        "launch": {
            "grid": list(launch.grid),
            "block": list(launch.block),
            "args": [list(item) for item in launch.args],
        },
        "records": [dataclasses.asdict(r) for r in summary.records],
        "dynamic_mix": summary.dynamic_mix,
        "fallback": summary.fallback,
        "fallback_detail": summary.fallback_detail,
    }


def summary_digest(summary):
    """``sha256:<hex>`` of one launch's analysis."""
    return payload_digest(summary_payload(summary))
