"""Property test: the closed-form fast path equals the scalar oracle.

Random affine :class:`AccessRecord` sets — mixed read/write kinds,
positive/negative/zero ``ctaid`` coefficients (mixed strides within a
kernel, and non-linear 2-D group layouts that the closed form walks row
by row), multi-dimensional strides that
exercise both the dense-run coalescing and the ``max_intervals``
bounding fallback — are assembled into synthetic kernel summaries on
small 1-D/2-D/3-D grids.  For every hazard set and every fast-path mode
the resulting graph must be ``==`` the one the scalar reference builder
produces, including under tiny ``max_explicit_edges`` budgets where the
collapse rules decide the outcome.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.access import AccessRecord, TBAccessSets
from repro.analysis.analyzer import KernelSummary, LaunchConfig
from repro.analysis.fastpath import build_graph_fast
from repro.core.dependency_graph import build_bipartite_graph

grids = st.sampled_from(
    [(1, 1, 1), (4, 1, 1), (6, 1, 1), (3, 2, 1), (2, 3, 2), (1, 5, 1)]
)

coeffs = st.tuples(
    st.sampled_from([-96, -32, 0, 16, 32, 64, 96]),
    st.sampled_from([-128, 0, 64, 128, 256]),
    st.sampled_from([0, 256, 512]),
)

dims = st.lists(
    st.tuples(
        st.sampled_from([-64, 8, 16, 64, 256]),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=2,
)


@st.composite
def records(draw):
    kind = draw(st.sampled_from(["read", "write"]))
    base = draw(st.sampled_from([0, 64, 100, 1 << 12]))
    return AccessRecord.normalized(
        kind,
        draw(st.integers(min_value=0, max_value=7)),
        draw(st.sampled_from([1, 4, 16])),
        base,
        draw(coeffs),
        draw(dims),
    )


@st.composite
def summaries(draw, name):
    grid = draw(grids)
    recs = tuple(draw(st.lists(records(), min_size=1, max_size=3)))
    max_intervals = draw(st.sampled_from([2, 8, 64]))
    return KernelSummary(
        kernel_name=name,
        launch=LaunchConfig.create(grid, 32, {}),
        records=recs,
        access_sets=TBAccessSets(
            grid=grid, records=recs, max_intervals=max_intervals
        ),
    )


@settings(max_examples=200, deadline=None)
@given(
    parent=summaries("p"),
    child=summaries("c"),
    hazards=st.sampled_from([("raw",), ("raw", "waw"), ("raw", "war", "waw")]),
    budget=st.sampled_from([1, 3, 10, 4_000_000]),
)
def test_all_tiers_equal_oracle(parent, child, hazards, budget):
    oracle = build_bipartite_graph(parent, child, hazards, budget)
    for mode in ("auto", "reference"):
        graph, tier = build_graph_fast(
            parent, child, hazards=hazards,
            max_explicit_edges=budget, mode=mode,
        )
        assert graph == oracle, (mode, tier)
