"""Property tests: the seeded fuzz generator is valid and deterministic.

The differential harness (``repro fuzz``) is only trustworthy if the
corpus under it is:

* **Well-formed** — every seed materializes PTX that the repo's own
  parser accepts and that the full analysis/planning pipeline handles
  without error (a generator emitting unparseable kernels would turn
  the fuzzer into a crash-reproducer for itself);
* **Deterministic** — the same seed yields byte-identical PTX in the
  same process, across interpreter processes with different
  ``PYTHONHASHSEED`` values, and across :class:`SuiteExecutor` worker
  processes.  Divergence reports reference cases by seed alone, so any
  seed→spec instability would make repro files unreplayable.
"""

import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import SuiteExecutor
from repro.ptx.parser import parse_module
from repro.workloads.fuzzgen import (
    FuzzSpec,
    fuzz_module_digest,
    fuzz_module_source,
)

seeds_st = st.integers(min_value=0, max_value=2**31 - 1)


class TestWellFormed:
    @settings(max_examples=40, deadline=None)
    @given(seeds_st)
    def test_every_seed_parses(self, seed):
        spec = FuzzSpec.from_seed(seed)
        module = parse_module(fuzz_module_source(spec))
        assert len(module) == len(spec.kernels)

    @settings(max_examples=15, deadline=None)
    @given(seeds_st)
    def test_every_seed_plans_under_the_oracle(self, seed):
        from repro.core.runtime import BlockMaestroRuntime
        from repro.workloads.fuzzgen import build_fuzz_app

        app = build_fuzz_app(FuzzSpec.from_seed(seed))
        plan = BlockMaestroRuntime(fastpath="reference").plan(
            app, reorder=True, window=3
        )
        assert len(plan.kernels) == app.trace.num_kernels

    @settings(max_examples=40, deadline=None)
    @given(seeds_st)
    def test_spec_invariants(self, seed):
        spec = FuzzSpec.from_seed(seed)
        assert 2 <= len(spec.kernels) <= 6
        for kernel in spec.kernels:
            assert kernel.output < spec.num_buffers
            assert all(i < spec.num_buffers for i in kernel.inputs)
            assert kernel.num_tbs >= 1


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(seeds_st)
    def test_same_seed_same_spec_and_ptx(self, seed):
        a, b = FuzzSpec.from_seed(seed), FuzzSpec.from_seed(seed)
        assert a == b
        assert fuzz_module_source(a) == fuzz_module_source(b)

    @settings(max_examples=40, deadline=None)
    @given(seeds_st)
    def test_dict_roundtrip(self, seed):
        spec = FuzzSpec.from_seed(seed)
        assert FuzzSpec.from_dict(spec.to_dict()) == spec


_SUBPROCESS_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.workloads.fuzzgen import fuzz_module_digest
print(fuzz_module_digest({seed!r}))
"""


class TestCrossProcessStability:
    def test_digest_identical_under_different_hash_seeds(self):
        """Seed→PTX must not inherit hash randomization.

        A generator that varied with ``PYTHONHASHSEED`` would make
        every checked-in ``repro-fuzz-case`` file unreplayable on the
        next CI run.  Compute the same module digest in two
        interpreters with different seeds and in-process, and require
        all three to agree.
        """
        seed = 1234
        here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        snippet = _SUBPROCESS_SNIPPET.format(
            src=os.path.join(here, "src"), seed=seed
        )
        digests = set()
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=here)
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                cwd=here,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        digests.add(fuzz_module_digest(seed))
        assert len(digests) == 1, digests

    def test_digest_identical_in_executor_workers(self):
        """Worker processes regenerate the exact PTX the parent drew.

        ``repro fuzz --jobs N`` ships only seeds to workers; each
        worker re-materializes the spec.  The round trip must be
        byte-exact or parallel runs would differ from serial ones.
        """
        seeds = [0, 7, 99, 12345]
        executor = SuiteExecutor(jobs=2, timeout_s=120)
        remote = executor.map(fuzz_module_digest, seeds)
        assert remote == [fuzz_module_digest(s) for s in seeds]
