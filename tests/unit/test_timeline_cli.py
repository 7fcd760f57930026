"""Unit tests for timeline rendering and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, SerializedBaseline
from repro.sim.timeline import (
    compare_timelines,
    render_concurrency_profile,
    render_kernel_timeline,
)
from repro.sim.stats import RunStats

from tests.conftest import make_chain_app


@pytest.fixture(scope="module")
def stats_pair():
    app = make_chain_app(num_pairs=2, tbs=8, block=64, intensity=4.0, name="tl")
    rt = BlockMaestroRuntime()
    base = SerializedBaseline().run(rt.plan(app, reorder=False, window=1))
    bm = BlockMaestroModel(window=2).run(rt.plan(app, reorder=True, window=2))
    return base, bm


class TestTimeline:
    def test_kernel_timeline_rows(self, stats_pair):
        base, _ = stats_pair
        text = render_kernel_timeline(base, width=60)
        lines = text.splitlines()
        # one row per kernel + axis + legend
        assert len(lines) == len(base.kernel_records) + 2
        assert "legend" in lines[-1]

    def test_timeline_contains_phases(self, stats_pair):
        base, _ = stats_pair
        text = render_kernel_timeline(base, width=60)
        assert "L" in text and "#" in text

    def test_baseline_kernels_sequential_in_render(self, stats_pair):
        base, _ = stats_pair
        lines = render_kernel_timeline(base, width=60).splitlines()
        first_run_cols = [line.index("#") for line in lines[:-2] if "#" in line]
        assert first_run_cols == sorted(first_run_cols)

    def test_empty_stats(self):
        empty = RunStats(model="m", application="a", makespan_ns=1.0)
        assert "no kernels" in render_kernel_timeline(empty)
        assert "no thread blocks" in render_concurrency_profile(empty)

    def test_concurrency_profile_shape(self, stats_pair):
        _, bm = stats_pair
        text = render_concurrency_profile(bm, width=40, height=5)
        lines = text.splitlines()
        assert len(lines) == 7  # 5 rows + separator + caption
        assert "peak" in lines[-1]

    def test_compare_timelines_headers(self, stats_pair):
        base, bm = stats_pair
        text = compare_timelines([base, bm], width=40)
        assert "=== baseline" in text
        assert "=== blockmaestro-producer2" in text


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("list", "analyze", "run", "compare", "experiments"):
            args = parser.parse_args(
                [command] + (["path"] if command in ("analyze", "run", "compare") else [])
            )
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "gaussian" in out and "510" in out

    def test_analyze(self, capsys):
        main(["analyze", "path", "--limit", "3"])
        out = capsys.readouterr().out
        assert "overlapped" in out
        assert "dependency-graph storage" in out

    def test_run(self, capsys):
        main(["run", "path", "--model", "producer"])
        out = capsys.readouterr().out
        assert "makespan" in out and "legend" in out

    def test_compare(self, capsys):
        main(["compare", "path"])
        out = capsys.readouterr().out
        assert "baseline" in out and "consumer4" in out

    def test_unknown_workload_exits_2(self, capsys):
        # one-line message on stderr, exit code 2, no traceback
        assert main(["analyze", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err


class TestDotCommand:
    def test_dot_output(self, capsys):
        main(["dot", "path", "--max-nodes", "4"])
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_dot_on_independent_workload(self, capsys):
        main(["dot", "bicg"])
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_pair_past_the_last_exits_2(self, capsys):
        assert main(["dot", "fdtd-2d", "--pair", "22"]) == 0
        capsys.readouterr()
        assert main(["dot", "fdtd-2d", "--pair", "23"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: --pair 23 is out of range: fdtd-2d has 23 dependent "
            "kernel pairs (0..22)\n"
        )
