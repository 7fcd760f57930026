"""Unit tests for the seeded fuzz workload generator (repro.workloads.fuzzgen).

The hypothesis suite (tests/property/test_prop_fuzzgen.py) covers the
statistical contracts; these tests pin concrete behaviors: the hidden
registry seam, spec/dict round trips, app structure, and that the
weighted generator mix actually exercises every emitter family.
"""

import pytest

from repro.workloads.fuzzgen import (
    FUZZ_GENERATORS,
    FuzzKernel,
    FuzzSpec,
    build_fuzz_app,
    fuzz_kernel_source,
    fuzz_module_digest,
    fuzz_module_source,
    fuzz_workload_spec,
)
from repro.workloads.registry import (
    UnknownWorkloadError,
    all_workloads,
    get_workload,
    workload_names,
)


class TestSpec:
    def test_from_seed_is_pure(self):
        assert FuzzSpec.from_seed(42) == FuzzSpec.from_seed(42)

    def test_distinct_seeds_distinct_specs(self):
        specs = {FuzzSpec.from_seed(seed) for seed in range(16)}
        assert len(specs) > 8  # collisions allowed, sameness is a bug

    def test_kernel_dict_roundtrip_sorts_params(self):
        kernel = FuzzKernel(
            gen="elementwise", grid=(4, 1, 1), block=64,
            inputs=(0,), output=1,
            params=(("alu", 2), ("shift0", -1)),
        )
        data = kernel.as_dict()
        data["params"] = dict(reversed(list(data["params"].items())))
        assert FuzzKernel.from_dict(data) == kernel

    def test_module_digest_matches_source(self):
        import hashlib

        spec = FuzzSpec.from_seed(9)
        expected = "sha256:" + hashlib.sha256(
            fuzz_module_source(spec).encode()
        ).hexdigest()
        assert fuzz_module_digest(9) == expected

    def test_kernel_names_are_unique_per_position(self):
        spec = FuzzSpec.from_seed(5)
        names = set()
        for index, kernel in enumerate(spec.kernels):
            src = fuzz_kernel_source(index, kernel)
            assert "fz{}_{}".format(index, kernel.gen) in src
            names.add("fz{}_{}".format(index, kernel.gen))
        assert len(names) == len(spec.kernels)

    def test_generator_mix_covers_every_family(self):
        seen = set()
        for seed in range(48):
            seen.update(k.gen for k in FuzzSpec.from_seed(seed).kernels)
        assert seen == {name for name, _weight in FUZZ_GENERATORS}


class TestApp:
    def test_app_structure(self):
        spec = FuzzSpec.from_seed(3)
        app = build_fuzz_app(spec)
        assert app.name == "fuzz-3"
        assert app.trace.num_kernels == len(spec.kernels)
        assert app.metadata["fuzz_seed"] == 3

    def test_launch_tags_follow_position(self):
        app = build_fuzz_app(FuzzSpec.from_seed(3))
        tags = [c.tag for c in app.trace.kernel_calls]
        assert tags == ["fz{}".format(i) for i in range(len(tags))]


class TestRegistrySeam:
    def test_get_workload_resolves_fuzz_names(self):
        spec = get_workload("fuzz-3")
        assert spec.name == "fuzz-3"
        assert spec.suite == "fuzz"
        assert spec.paper_kernels == len(FuzzSpec.from_seed(3).kernels)

    def test_resolution_is_cached(self):
        assert get_workload("fuzz-3") is fuzz_workload_spec(3)

    def test_builder_produces_the_seeded_app(self):
        app = get_workload("fuzz-7").build()
        assert app.trace.num_kernels == len(FuzzSpec.from_seed(7).kernels)

    def test_hidden_from_listings(self):
        assert not [n for n in workload_names() if n.startswith("fuzz-")]
        assert not [w for w in all_workloads() if w.suite == "fuzz"]

    @pytest.mark.parametrize("name", ["fuzz-", "fuzz-abc", "fuzz-1x", "fuzz"])
    def test_malformed_fuzz_names_stay_unknown(self, name):
        with pytest.raises(UnknownWorkloadError):
            get_workload(name)
