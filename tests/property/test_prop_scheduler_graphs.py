"""Property tests: the scheduler honours *arbitrary* dependency graphs.

Each kernel pair of a planned chain gets a randomized bipartite graph,
encoded as the runtime encodes its own; the simulation must satisfy,
for every child thread block, ``start >= max(parent finish)`` under the
effective (post-encoding) graph — verified independently from the
engine's own bookkeeping — plus the usual in-order completion and
coverage invariants, under both scheduling policies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependency_graph import BipartiteGraph
from repro.core.encoding import encode_graph
from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel

from tests.conftest import make_chain_app


@st.composite
def chained_graphs(draw):
    pairs = draw(st.integers(1, 3))
    tbs = draw(st.sampled_from([4, 9, 16]))
    kernels = 2 * pairs
    graphs = []
    for _ in range(kernels - 1):
        kind = draw(st.sampled_from(["random", "full", "empty"]))
        if kind == "full":
            graphs.append(BipartiteGraph.fully_connected(tbs, tbs))
        elif kind == "empty":
            graphs.append(BipartiteGraph.independent(tbs, tbs))
        else:
            children_of = [
                sorted(draw(st.sets(st.integers(0, tbs - 1), max_size=tbs)))
                for _ in range(tbs)
            ]
            graphs.append(BipartiteGraph.explicit(tbs, tbs, children_of))
    window = draw(st.integers(2, 4))
    return pairs, tbs, graphs, window


def _parent_finish_times(stats):
    finish = {}
    for tb in stats.tb_records:
        finish[(tb.kernel_index, tb.tb_id)] = tb.finish_ns
    return finish


@given(chained_graphs())
@settings(max_examples=30, deadline=None)
def test_arbitrary_graphs_enforced(case):
    pairs, tbs, graphs, window = case
    app = make_chain_app(num_pairs=pairs, tbs=tbs, block=32, name="prop-og")
    runtime = BlockMaestroRuntime()
    plan = runtime.plan(app, reorder=True, window=window)
    threshold = runtime.hardware_config.degree_threshold
    for kp, graph in zip(plan.kernels[1:], graphs):
        kp.encoded = encode_graph(graph, degree_threshold=threshold)
    for policy in SchedulingPolicy:
        stats = BlockMaestroModel(window=window, policy=policy).run(plan)
        stats.validate_invariants()
        finish = _parent_finish_times(stats)
        starts = {
            (tb.kernel_index, tb.tb_id): tb.start_ns for tb in stats.tb_records
        }
        for kp in plan.kernels:
            graph = kp.graph  # effective graph (post-collapse)
            if graph is None or graph.is_independent:
                continue
            parent_ki = kp.chain_prev
            for child in range(kp.num_tbs):
                parents = graph.parents_of(child)
                if not parents:
                    continue
                needed = max(finish[(parent_ki, p)] for p in parents)
                assert starts[(kp.kernel_index, child)] >= needed - 1e-6

