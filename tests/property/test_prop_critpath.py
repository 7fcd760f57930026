"""Property tests: critical-path attribution invariants on random chains.

For randomized small producer/consumer applications under several
engine configurations:

* the backward walk's segments tile ``[0, makespan]`` — the component
  attribution sums to the makespan exactly (up to float residual, which
  the fold absorbs into ``other``);
* the unexplained ``other`` bucket stays negligible;
* every what-if bound is at least as fast as the achieved makespan;
* attaching the journal never changes the simulated signature.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, SerializedBaseline
from repro.obs.critpath import (
    attribution_from_segments,
    extract_critical_path,
    what_if_bounds,
)
from repro.obs.journal import JournalRecorder
from repro.sim.config import GPUConfig

from tests.conftest import make_chain_app

app_params = st.tuples(
    st.integers(1, 3),                 # pairs
    st.sampled_from([4, 16]),          # tbs
    st.sampled_from([64, 256]),        # block
    st.sampled_from([0.5, 4.0]),       # intensity
    st.booleans(),                     # with_sync
)

#: alternate between a roomy device and a tiny one that forces
#: occupancy waits onto the critical path
configs = st.sampled_from([
    None,  # default GPUConfig
    GPUConfig(num_sms=1, max_tbs_per_sm=2, duration_jitter=0.0),
])


def build(params, name):
    pairs, tbs, block, intensity, with_sync = params
    return make_chain_app(
        num_pairs=pairs,
        tbs=tbs,
        block=block,
        intensity=intensity,
        with_sync=with_sync,
        name=name,
    )


def _observed(app, model, reorder, window):
    runtime = BlockMaestroRuntime(model.gpu_config)
    plan = runtime.plan(app, reorder=reorder, window=window)
    journal = JournalRecorder()
    stats = model.run(plan, journal=journal)
    return plan, stats, journal


@given(app_params, configs, st.integers(2, 3))
@settings(max_examples=20, deadline=None)
def test_attribution_sums_to_makespan(params, config, window):
    app = build(params, "prop-cp-sum")
    for model, reorder, win in (
        (SerializedBaseline(config), False, 1),
        (BlockMaestroModel(config, window=window), True, window),
    ):
        _plan, stats, journal = _observed(app, model, reorder, win)
        segments = extract_critical_path(stats, journal)
        attribution = attribution_from_segments(segments, stats.makespan_ns)
        assert sum(attribution.values()) == pytest.approx(
            stats.makespan_ns, abs=1e-3
        )
        assert attribution["other"] <= 0.01 * stats.makespan_ns + 1.0
        # segments are chronological and contiguous
        for prev, cur in zip(segments, segments[1:]):
            assert cur["t0_ns"] == pytest.approx(prev["t1_ns"], abs=1e-3)


@given(app_params, st.integers(2, 3))
@settings(max_examples=12, deadline=None)
def test_whatif_bounds_dominate_achieved(params, window):
    app = build(params, "prop-cp-whatif")
    model = BlockMaestroModel(window=window)
    plan, stats, _journal = _observed(app, model, True, window)
    bounds = what_if_bounds(
        plan, model.gpu_config, model.options(), stats.makespan_ns
    )
    for entry in bounds.values():
        assert entry["bound_makespan_ns"] <= stats.makespan_ns
        assert entry["speedup_bound"] >= 1.0


@given(app_params, st.integers(2, 3))
@settings(max_examples=12, deadline=None)
def test_recording_preserves_signature(params, window):
    app = build(params, "prop-cp-sig")
    model = BlockMaestroModel(window=window)
    runtime = BlockMaestroRuntime(model.gpu_config)
    plan = runtime.plan(app, reorder=True, window=window)
    plain = model.run(plan)
    recorded = model.run(plan, journal=JournalRecorder())
    assert recorded.simulated_signature() == plain.simulated_signature()
