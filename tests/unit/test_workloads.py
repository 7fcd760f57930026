"""Unit tests for the benchmark workload builders (Table II suite)."""

import pytest

from repro.ptx.parser import parse_kernel
from repro.workloads import all_workloads, get_workload, workload_names
from repro.workloads.base import AppBuilder, Application, _dims
from repro.workloads.microbench import build_vecadd_pair
from repro.workloads.wavefront import WAVEFRONT_APPS, build_wavefront

from tests.conftest import PRODUCE_SRC


def _count_parses(monkeypatch):
    """Record every source text the builder hands to the parser."""
    from repro.workloads import base

    parses = []

    def counting(source):
        parses.append(source)
        return parse_kernel(source)

    monkeypatch.setattr(base, "parse_kernel", counting)
    return parses


class TestAppBuilder:
    def test_dims_coercion(self):
        assert _dims(4) == (4, 1, 1)
        assert _dims((2, 3)) == (2, 3, 1)
        assert _dims((2, 3, 4)) == (2, 3, 4)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            _dims(0)
        with pytest.raises(ValueError):
            _dims((1, 2, 3, 4))

    def test_kernel_registered_once(self):
        b = AppBuilder("app")
        a = b.alloc("A", 1024)
        out = b.alloc("O", 1024)
        c1 = b.launch(PRODUCE_SRC, grid=1, block=32, args={"IN0": a, "OUT": out})
        c2 = b.launch(PRODUCE_SRC, grid=1, block=32, args={"IN0": out, "OUT": a})
        assert c1.kernel is c2.kernel
        assert len(b.kernels) == 1

    def test_source_parsed_once(self, monkeypatch):
        parses = _count_parses(monkeypatch)
        b = AppBuilder("app")
        a = b.alloc("A", 1024)
        out = b.alloc("O", 1024)
        calls = [
            b.launch(PRODUCE_SRC, grid=1, block=32, args={"IN0": a, "OUT": out})
            for _ in range(5)
        ]
        assert parses == [PRODUCE_SRC]
        assert all(call.kernel is calls[0].kernel for call in calls)

    def test_kernel_object_passes_through_unparsed(self, monkeypatch):
        kernel = parse_kernel(PRODUCE_SRC)
        parses = _count_parses(monkeypatch)
        b = AppBuilder("app")
        assert b.register_kernel(kernel) is kernel
        assert b.register_kernel(kernel) is kernel
        assert parses == []

    def test_same_body_returns_registered_kernel(self):
        b = AppBuilder("app")
        first = b.register_kernel(PRODUCE_SRC)
        # other text and line numbers, same body
        assert b.register_kernel("\n\n" + PRODUCE_SRC.replace("    ", "\t")) is first
        assert b.register_kernel(parse_kernel(PRODUCE_SRC)) is first
        assert b.kernels == {"produce": first}

    @pytest.mark.parametrize(
        "edit",
        [
            ("mul.f32 %f2, %f1, %f1;", "add.f32 %f2, %f1, %f1;"),  # instructions
            (".param .u64 OUT)", ".param .u64 OUT, .param .u32 N)"),  # params
            ("    ret;", "DONE:\n    ret;"),  # labels
        ],
        ids=["instructions", "params", "labels"],
    )
    def test_different_body_under_one_name_raises(self, edit):
        b = AppBuilder("app")
        first = b.register_kernel(PRODUCE_SRC)
        other = PRODUCE_SRC.replace(*edit)
        assert other != PRODUCE_SRC
        with pytest.raises(ValueError, match="'produce'"):
            b.register_kernel(other)
        with pytest.raises(ValueError, match="'produce'"):
            b.register_kernel(parse_kernel(other))
        assert b.kernels == {"produce": first}

    def test_registry_parses_each_body_once(self, monkeypatch):
        parses = _count_parses(monkeypatch)
        for spec in all_workloads():
            spec.build()
        assert len(parses) == 26
        assert len(set(parses)) == 26

    def test_build_validates(self):
        b = AppBuilder("bad")
        a = b.alloc("A", 1024)
        b.launch(PRODUCE_SRC, grid=1, block=32, args={"IN0": a})  # missing OUT
        with pytest.raises(Exception):
            b.build()

    def test_metadata_passthrough(self):
        b = AppBuilder("m")
        app = b.build(foo=1)
        assert app.metadata["foo"] == 1

    def test_describe(self, chain_app):
        text = chain_app.describe()
        assert "chain" in text and "kernel launches" in text


class TestRegistry:
    def test_twelve_workloads(self):
        assert len(workload_names()) == 12

    def test_names_match_paper_order(self):
        assert workload_names() == [
            "3mm",
            "alexnet",
            "bicg",
            "fdtd-2d",
            "fft",
            "gaussian",
            "gramschm",
            "hs",
            "lud",
            "mvt",
            "nw",
            "path",
        ]

    def test_get_workload(self):
        spec = get_workload("hs")
        assert spec.suite == "Rodinia"
        assert spec.paper_kernels == 10

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("nonesuch")

    def test_workloads_hidden_from_registry_listing(self):
        listed = {spec.name for spec in all_workloads()}
        for name in ("eng-chain", "eng-wide", "eng-fc", "backprop"):
            assert name not in listed
            assert get_workload(name).name == name

    @pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
    def test_kernel_counts_match_table2(self, spec):
        app = spec.build()
        assert isinstance(app, Application)
        assert app.num_kernel_launches == spec.paper_kernels

    @pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
    def test_traces_validate(self, spec):
        app = spec.build()
        app.trace.validate()


class TestMicrobench:
    def test_degree_must_divide(self):
        with pytest.raises(ValueError):
            build_vecadd_pair(num_tbs=100, degree=3)

    def test_two_kernels(self):
        app = build_vecadd_pair(num_tbs=64, degree=4)
        assert app.num_kernel_launches == 2
        assert app.metadata["degree"] == 4

    def test_equal_sized_kernels(self):
        app = build_vecadd_pair(num_tbs=64, degree=8)
        k1, k2 = app.trace.kernel_calls
        assert k1.num_tbs == k2.num_tbs == 64


class TestWavefront:
    def test_level_structure(self):
        app = build_wavefront("wf", side=8, parents=2)
        # 2*8 - 1 = 15 levels, level 0 via h2d: 14 kernels
        assert app.num_kernel_launches == 14
        assert app.metadata["tasks"] == 64

    def test_level_sizes_grow_and_shrink(self):
        app = build_wavefront("wf", side=8)
        sizes = [c.num_tbs for c in app.trace.kernel_calls]
        assert max(sizes) == 8
        assert sizes[0] == 2
        assert sizes[-1] == 1

    def test_straggler_scale_deterministic(self):
        app = build_wavefront(
            "wf", side=8, straggler_factor=5.0, straggler_fraction=0.5
        )
        call = app.trace.kernel_calls[6]
        fn = call.tb_duration_scale_fn
        assert fn is not None
        values = [fn(tb) for tb in range(call.num_tbs)]
        assert values == [fn(tb) for tb in range(call.num_tbs)]
        assert set(values) <= {1.0, 5.0}

    def test_six_apps_defined(self):
        assert len(WAVEFRONT_APPS) == 6
        names = [a[0] for a in WAVEFRONT_APPS]
        assert len(set(names)) == 6
