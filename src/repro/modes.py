"""Tier-selection modes for the graph fast path and the simulation engine.

``REPRO_FASTPATH`` picks the pair-graph builder
(:mod:`repro.analysis.fastpath`: the closed form or the scalar
reference) and ``REPRO_ENGINE`` the simulation tier
(:mod:`repro.models.fastengine`).  Both tables and their one resolver
live here, apart from the analysis and the models, so the CLI can
reject a bad value before it imports either.
"""

import os

#: Valid fast-path modes (``resolve_fastpath_mode`` normalizes aliases).
FASTPATH_MODES = ("auto", "reference")

#: Valid engine modes (``resolve_engine_mode`` normalizes aliases).
ENGINE_MODES = ("auto", "reference")

#: Environment overrides consulted when no explicit mode is configured —
#: this is how worker processes inherit a pinned tier.
FASTPATH_ENV = "REPRO_FASTPATH"
ENGINE_ENV = "REPRO_ENGINE"

#: Aliases both resolvers accept, in ``--engine`` choice order.
MODE_ALIASES = {
    "on": "auto",
    "off": "reference",
    "scalar": "reference",
    "oracle": "reference",
}


def _resolve_mode(value, env, modes, kind):
    if value is None:
        value = os.environ.get(env) or "auto"
    mode = str(value).strip().lower().replace("-", "_")
    mode = MODE_ALIASES.get(mode, mode)
    if mode not in modes:
        raise ValueError(
            "unknown %s mode %r (expected one of %s)"
            % (kind, value, ", ".join(modes))
        )
    return mode


def resolve_fastpath_mode(value=None):
    """Normalize a fast-path mode, consulting ``REPRO_FASTPATH``.

    ``None`` reads the environment (default ``auto``); ``off``/
    ``scalar``/``oracle`` alias ``reference``; ``on`` aliases ``auto``.
    """
    return _resolve_mode(value, FASTPATH_ENV, FASTPATH_MODES, "fastpath")


def resolve_engine_mode(value=None):
    """Normalize an engine mode, consulting ``REPRO_ENGINE``; the same
    defaults and aliases as :func:`resolve_fastpath_mode`."""
    return _resolve_mode(value, ENGINE_ENV, ENGINE_MODES, "engine")
