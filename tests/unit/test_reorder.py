"""Unit tests for command-queue reordering (Fig. 5)."""

from repro.core.reorder import reorder_trace
from repro.host.api import (
    DeviceSynchronize,
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
)
from repro.workloads.base import AppBuilder

from tests.conftest import PRODUCE_SRC, make_chain_app


def build_figure5_app():
    """The paper's Fig. 5a trace: malloc/copy interleaved with kernels."""
    b = AppBuilder("fig5")
    a = b.alloc("A", 4096)
    b.h2d(a)
    b.launch(PRODUCE_SRC, grid=2, block=64, args={"IN0": a, "OUT": a})
    bb = b.alloc("B", 4096)
    b.h2d(bb)
    b.launch(
        PRODUCE_SRC.replace("produce", "k2"),
        grid=2,
        block=64,
        args={"IN0": bb, "OUT": bb},
    )
    b.d2h(bb)
    return b.build()


class TestReorderTrace:
    def test_valid_topological_order(self, chain_app):
        order = reorder_trace(chain_app.trace)
        position = {id(c): i for i, c in enumerate(order)}
        for i, deps in enumerate(chain_app.trace.true_dependencies()):
            call = chain_app.trace.calls[i]
            for d in deps:
                dep_call = chain_app.trace.calls[d]
                assert position[id(dep_call)] < position[id(call)]

    def test_same_multiset_of_calls(self, chain_app):
        order = reorder_trace(chain_app.trace)
        assert sorted(id(c) for c in order) == sorted(
            id(c) for c in chain_app.trace.calls
        )

    def test_figure5_memops_hoisted_before_kernels(self):
        app = build_figure5_app()
        order = reorder_trace(app.trace)
        kinds = [type(c).__name__ for c in order]
        # Fig 5c: both malloc/copy pairs precede both kernels
        first_kernel = kinds.index("KernelLaunchCall")
        assert kinds[:first_kernel].count("MallocCall") == 2
        assert kinds[:first_kernel].count("MemcpyH2D") == 2

    def test_kernels_adjacent_after_reorder(self):
        app = build_figure5_app()
        order = reorder_trace(app.trace)
        kernel_positions = [
            i for i, c in enumerate(order) if isinstance(c, KernelLaunchCall)
        ]
        assert kernel_positions[1] == kernel_positions[0] + 1

    def test_d2h_stays_after_its_kernel(self):
        app = build_figure5_app()
        order = reorder_trace(app.trace)
        d2h_pos = next(
            i for i, c in enumerate(order) if isinstance(c, MemcpyD2H)
        )
        k2_pos = next(
            i
            for i, c in enumerate(order)
            if isinstance(c, KernelLaunchCall) and c.kernel.name == "k2"
        )
        assert d2h_pos > k2_pos

    def test_kernel_relative_order_preserved(self):
        app = make_chain_app(num_pairs=4)
        original = [c for c in app.trace.calls if c.is_kernel]
        reordered = [c for c in reorder_trace(app.trace) if c.is_kernel]
        assert [id(c) for c in original] == [id(c) for c in reordered]

    def test_sync_not_crossed(self):
        app = make_chain_app(num_pairs=2, with_sync=True)
        order = reorder_trace(app.trace)
        position = {id(c): i for i, c in enumerate(order)}
        calls = app.trace.calls
        sync_positions = [
            position[id(c)] for c in calls if isinstance(c, DeviceSynchronize)
        ]
        for sync_pos, sync_call in zip(
            sync_positions,
            (c for c in calls if isinstance(c, DeviceSynchronize)),
        ):
            original_index = calls.index(sync_call)
            for earlier in calls[:original_index]:
                assert position[id(earlier)] < sync_pos

    def test_deterministic(self, chain_app):
        first = [id(c) for c in reorder_trace(chain_app.trace)]
        second = [id(c) for c in reorder_trace(chain_app.trace)]
        assert first == second
