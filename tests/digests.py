"""The one canonical hash of a complete :class:`~repro.sim.stats.RunStats`.

The payload is ``dataclasses.asdict(stats)`` with the TB records as a
list of row dicts (:class:`~repro.sim.stats.TBTable` holds columns,
which ``asdict`` cannot walk) plus ``simulated_signature()``; the digest
is the sha256 of its canonical JSON (sorted keys, compact separators).
``tests/regression/engine_records.json`` pins this format, so changing it
means regenerating that golden.
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
