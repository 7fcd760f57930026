"""Greedy case shrinking + schema-versioned ``repro-fuzz-case`` files.

When the harness finds a divergence, the raw case is rarely minimal —
it may carry kernels, grid blocks and generator knobs irrelevant to the
bug.  :func:`shrink_case` greedily applies three reduction passes while
the *same* divergence kind (``check``/``mode``) still reproduces:

1. drop whole kernels (floor: 2 — one kernel has no dependency pair);
2. halve grid dimensions (fewer thread blocks, smaller graphs);
3. simplify generators to a plain 1-input/shift-0/alu-1 elementwise
   map (and flatten 2-D grids), removing access-pattern complexity.

Each greedy round restarts after the first improvement, so the result
is a local minimum: no single drop/halve/simplify still reproduces.
The minimized spec is written as a ``repro-fuzz-case`` JSON file that
``tests/regression`` replays — red while the bug exists, green once it
is fixed (the planted-bug canary test machine-checks both directions).
"""

import json
import os

from repro.fuzz.runner import check_case
from repro.workloads.ptxgen import FuzzKernel, FuzzSpec

CASE_KIND = "repro-fuzz-case"
CASE_SCHEMA_VERSION = 1

#: greedy-pass budget: each candidate costs one full pipeline run
MAX_SHRINK_ATTEMPTS = 96


def _matching(result, target):
    """Divergence records of the target kind (check + mode) in a case."""
    return [
        record for record in result["divergences"]
        if record["check"] == target["check"]
        and record["mode"] == target["mode"]
    ]


def _replace_kernel(spec, index, kernel):
    kernels = list(spec.kernels)
    kernels[index] = kernel
    return FuzzSpec(
        seed=spec.seed, kernels=tuple(kernels),
        num_buffers=spec.num_buffers, elems=spec.elems,
    )


def _drop_kernel(spec, index):
    kernels = tuple(
        k for i, k in enumerate(spec.kernels) if i != index
    )
    return FuzzSpec(
        seed=spec.seed, kernels=kernels,
        num_buffers=spec.num_buffers, elems=spec.elems,
    )


def _halved_grids(kernel):
    """Candidate kernels with one grid axis halved, largest first."""
    candidates = []
    for axis in range(3):
        if kernel.grid[axis] > 1:
            grid = list(kernel.grid)
            grid[axis] = grid[axis] // 2
            candidates.append(FuzzKernel(
                gen=kernel.gen, grid=tuple(grid), block=kernel.block,
                inputs=kernel.inputs, output=kernel.output,
                params=kernel.params,
            ))
    return candidates


def _simplified(kernel):
    """The plainest kernel with the same primary wiring, or ``None``."""
    plain = FuzzKernel(
        gen="elementwise",
        grid=(kernel.num_tbs, 1, 1),
        block=kernel.block,
        inputs=kernel.inputs[:1],
        output=kernel.output,
        params=(("alu", 1), ("shift0", 0)),
    )
    return None if plain == kernel else plain


def shrink_case(spec, target, modes=(), engines=(), model="consumer3",
                max_attempts=MAX_SHRINK_ATTEMPTS, log=None):
    """Greedily minimize ``spec`` while ``target`` still reproduces.

    Returns ``(minimized_spec, divergences)`` where ``divergences`` are
    the target-kind records of the minimized case (re-checked, so they
    describe the *minimal* reproduction, not the original).
    """
    say = log or (lambda *_args, **_kwargs: None)
    # graph/signature/journal divergences only need the offending
    # fastpath mode, engine divergences only the offending engine tier;
    # critpath/telemetry (and reference-mode journal) divergences come
    # from the oracle self-checks, which run even with no candidate
    # modes at all
    is_engine = target["check"] == "engine"
    mode_subset = (
        (target["mode"],) if not is_engine and target["mode"] in modes
        else ()
    )
    engine_subset = (
        (target["mode"],) if is_engine and target["mode"] in engines
        else ()
    )
    attempts = [0]

    def reproduction(candidate):
        attempts[0] += 1
        return _matching(
            check_case(
                candidate, modes=mode_subset, model=model,
                engines=engine_subset,
            ),
            target,
        )

    if not reproduction(spec):
        # not reproducible in isolation (e.g. flaky environment): hand
        # the original back untouched rather than minimizing noise
        return spec, []

    current = spec
    improved = True
    while improved and attempts[0] < max_attempts:
        improved = False
        if len(current.kernels) > 2:
            for index in range(len(current.kernels)):
                candidate = _drop_kernel(current, index)
                if reproduction(candidate):
                    say("shrink: dropped kernel {} ({} left)".format(
                        index, len(candidate.kernels)
                    ))
                    current = candidate
                    improved = True
                    break
            if improved:
                continue
        for index, kernel in enumerate(current.kernels):
            for halved in _halved_grids(kernel):
                candidate = _replace_kernel(current, index, halved)
                if reproduction(candidate):
                    say("shrink: halved kernel {} grid to {}".format(
                        index, halved.grid
                    ))
                    current = candidate
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        for index, kernel in enumerate(current.kernels):
            plain = _simplified(kernel)
            if plain is None:
                continue
            candidate = _replace_kernel(current, index, plain)
            if reproduction(candidate):
                say("shrink: simplified kernel {} ({} -> elementwise)".format(
                    index, kernel.gen
                ))
                current = candidate
                improved = True
                break
    return current, reproduction(current)


# ----------------------------------------------------------------------
# repro-fuzz-case files
# ----------------------------------------------------------------------
def make_case(spec, divergences, modes, model, source_seed, engines=()):
    """Assemble the schema-versioned minimized-repro payload."""
    return {
        "kind": CASE_KIND,
        "schema_version": CASE_SCHEMA_VERSION,
        "source_seed": int(source_seed),
        "modes": list(modes),
        "engines": list(engines),
        "model": model,
        "spec": spec.to_dict(),
        "divergences": list(divergences),
    }


def validate_case(case):
    """Structural validation; returns problem strings."""
    errors = []
    if not isinstance(case, dict):
        return ["case: expected a JSON object"]
    if case.get("kind") != CASE_KIND:
        errors.append("kind: expected {!r}".format(CASE_KIND))
    if case.get("schema_version") != CASE_SCHEMA_VERSION:
        errors.append("schema_version: expected {}".format(
            CASE_SCHEMA_VERSION
        ))
    if not isinstance(case.get("source_seed"), int):
        errors.append("source_seed: missing")
    if not isinstance(case.get("modes"), list):
        errors.append("modes: missing or not a list")
    # "engines" is optional: case files predating the engine sweep
    # (schema additions are backward compatible) simply omit it
    if "engines" in case and not isinstance(case["engines"], list):
        errors.append("engines: not a list")
    if not isinstance(case.get("model"), str):
        errors.append("model: missing")
    if not isinstance(case.get("divergences"), list):
        errors.append("divergences: missing or not a list")
    spec = case.get("spec")
    if not isinstance(spec, dict):
        errors.append("spec: missing or not an object")
    else:
        try:
            parsed = FuzzSpec.from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append("spec: not a FuzzSpec ({})".format(exc))
        else:
            if not parsed.kernels:
                errors.append("spec.kernels: empty")
    return errors


def write_case(case, directory="."):
    """Write a case file; the name embeds the originating corpus seed."""
    errors = validate_case(case)
    if errors:
        raise ValueError("invalid fuzz case: {}".format(errors[:3]))
    if directory and not os.path.isdir(directory):
        os.makedirs(directory)
    path = os.path.join(
        directory, "fuzz-case-{:08d}.json".format(case["source_seed"])
    )
    with open(path, "w") as handle:
        json.dump(case, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def load_case(path):
    """Load + validate a ``repro-fuzz-case`` file."""
    with open(path) as handle:
        case = json.load(handle)
    errors = validate_case(case)
    if errors:
        raise ValueError("{}: invalid fuzz case: {}".format(
            path, errors[:3]
        ))
    return case


def replay_case(case):
    """Re-run a minimized case; returns its current divergence records.

    Empty means the bug the case was minimized for no longer exists
    (the regression loader asserts exactly that).
    """
    spec = FuzzSpec.from_dict(case["spec"])
    result = check_case(
        spec, modes=tuple(case["modes"]), model=case["model"],
        engines=tuple(case.get("engines", ())),
    )
    return result["divergences"]
