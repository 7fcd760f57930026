"""Golden gate: the launch-time analysis of every registry and fuzz launch.

``analysis_summaries.json`` holds, per application, one sha256 per
kernel launch in trace order: :func:`tests.digests.summary_digest`, over
the sorted-key JSON of the kernel name, the launch (grid, block,
arguments), the access records, the dynamic instruction mix, the
fallback reason and its detail.  The engine and artifact goldens see a
summary only through the graphs and durations built from it, and none
of them sees ``fallback_detail``.

Applications:

* the 12 registry workloads at full size (1,131 launches);
* the same workloads' small variants;
* ``fuzz-0``..``fuzz-199``.

Every launch is analyzed afresh, as the runtime analyzes a launch it
has not seen.  Regenerate only for an intentional change of the
analysis: ``PYTHONPATH=src python -m tests.regression.test_analysis_summaries``.
"""

import json
import os

import pytest

from repro.analysis.analyzer import LaunchConfig, analyze_kernel
from repro.workloads import get_workload, workload_names

from tests.digests import summary_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "analysis_summaries.json")
REGISTRY = workload_names()
FUZZ = ["fuzz-{}".format(seed) for seed in range(200)]
#: fuzz applications per test
FUZZ_CHUNK = 50
FUZZ_CHUNKS = [FUZZ[i:i + FUZZ_CHUNK] for i in range(0, len(FUZZ), FUZZ_CHUNK)]


def app_digests(app):
    """The digest of each kernel launch of ``app``, in trace order."""
    digests = []
    for call in app.trace.kernel_calls:
        launch = LaunchConfig.create(
            grid=call.grid, block=call.block, args=call.arg_values()
        )
        digests.append(summary_digest(analyze_kernel(call.kernel, launch)))
    return digests


def compute(group):
    """``group`` is a workload name, ``<name>/small`` or ``fuzz-<seed>``."""
    name, _, variant = group.partition("/")
    spec = get_workload(name)
    return app_digests(spec.build_small() if variant else spec.build())


def all_groups():
    return REGISTRY + [n + "/small" for n in REGISTRY] + FUZZ


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_group(golden):
    assert sorted(golden) == sorted(all_groups())
    assert sum(len(golden[name]) for name in REGISTRY) == 1131


@pytest.mark.parametrize("name", REGISTRY)
def test_full_size_launches(golden, name):
    assert compute(name) == golden[name]


@pytest.mark.parametrize("name", REGISTRY)
def test_small_launches(golden, name):
    group = name + "/small"
    assert compute(group) == golden[group]


@pytest.mark.parametrize(
    "chunk", FUZZ_CHUNKS, ids=["{}..{}".format(c[0], c[-1]) for c in FUZZ_CHUNKS]
)
def test_fuzz_launches(golden, chunk):
    for group in chunk:
        assert compute(group) == golden[group], group


if __name__ == "__main__":
    digests = {group: compute(group) for group in all_groups()}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(
        "{} launches in {} applications -> {}".format(
            sum(map(len, digests.values())), len(digests), GOLDEN_PATH
        )
    )
