"""Shared fixtures: canonical kernels, small applications, configs."""

import pytest

from repro.analysis.analyzer import LaunchConfig, analyze_kernel
from repro.analysis.cache import CACHE_DIR_ENV, AnalysisCache
from repro.core.runtime import BlockMaestroRuntime
from repro.ptx.parser import parse_kernel
from repro.sim.config import GPUConfig
from repro.workloads.base import AppBuilder

VECADD_SRC = """
.visible .entry vecadd (.param .u64 A, .param .u64 B, .param .u64 C, .param .u32 N)
{
    ld.param.u64 %rdA, [A];
    ld.param.u64 %rdB, [B];
    ld.param.u64 %rdC, [C];
    ld.param.u32 %rN, [N];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %r2, %r1, %ntid.x, %tid.x;
    setp.ge.u32 %p1, %r2, %rN;
    @%p1 bra DONE;
    mul.wide.u32 %rd1, %r2, 4;
    add.u64 %rd2, %rdA, %rd1;
    ld.global.f32 %f1, [%rd2];
    add.u64 %rd3, %rdB, %rd1;
    ld.global.f32 %f2, [%rd3];
    add.f32 %f3, %f1, %f2;
    add.u64 %rd4, %rdC, %rd1;
    st.global.f32 [%rd4], %f3;
DONE:
    ret;
}
"""

ROWSUM_SRC = """
.visible .entry rowsum (.param .u64 A, .param .u64 Y, .param .u32 K)
{
    ld.param.u64 %rdA, [A];
    ld.param.u64 %rdY, [Y];
    ld.param.u32 %rK, [K];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %ri, %r1, %ntid.x, %tid.x;
    mul.lo.u32 %rbase, %ri, %rK;
    mov.u32 %rk, 0;
    mov.f32 %facc, 0.0;
LOOP:
    add.u32 %ridx, %rbase, %rk;
    mul.wide.u32 %rd1, %ridx, 4;
    add.u64 %rd2, %rdA, %rd1;
    ld.global.f32 %f1, [%rd2];
    add.f32 %facc, %facc, %f1;
    add.u32 %rk, %rk, 1;
    setp.lt.u32 %p1, %rk, %rK;
    @%p1 bra LOOP;
    mul.wide.u32 %rd3, %ri, 4;
    add.u64 %rd4, %rdY, %rd3;
    st.global.f32 [%rd4], %facc;
    ret;
}
"""

INDIRECT_SRC = """
.visible .entry gather (.param .u64 DATA, .param .u64 IDX, .param .u64 OUT)
{
    ld.param.u64 %rdD, [DATA];
    ld.param.u64 %rdI, [IDX];
    ld.param.u64 %rdO, [OUT];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %ri, %r1, %ntid.x, %tid.x;
    mul.wide.u32 %rd1, %ri, 4;
    add.u64 %rd2, %rdI, %rd1;
    ld.global.u32 %rj, [%rd2];
    mul.wide.u32 %rd3, %rj, 4;
    add.u64 %rd4, %rdD, %rd3;
    ld.global.f32 %f1, [%rd4];
    add.u64 %rd5, %rdO, %rd1;
    st.global.f32 [%rd5], %f1;
    ret;
}
"""

PRODUCE_SRC = """
.visible .entry produce (.param .u64 IN0, .param .u64 OUT)
{
    ld.param.u64 %rdA, [IN0];
    ld.param.u64 %rdB, [OUT];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %r2, %r1, %ntid.x, %tid.x;
    mul.wide.u32 %rd1, %r2, 4;
    add.u64 %rd2, %rdA, %rd1;
    ld.global.f32 %f1, [%rd2];
    mul.f32 %f2, %f1, %f1;
    add.u64 %rd3, %rdB, %rd1;
    st.global.f32 [%rd3], %f2;
    ret;
}
"""

#: two loops whose bodies overlap without nesting: irreducible
OVERLAPPING_LOOPS_SRC = """
.visible .entry k (.param .u64 A)
{
L1:
    mov.u32 %a, 0;
L2:
    add.u32 %a, %a, 1;
    setp.lt.u32 %p1, %a, 4;
    @%p1 bra L1;
    setp.lt.u32 %p2, %a, 8;
    @%p2 bra L2;
    ret;
}
"""


@pytest.fixture(scope="session")
def vecadd_kernel():
    return parse_kernel(VECADD_SRC)


@pytest.fixture(scope="session")
def rowsum_kernel():
    return parse_kernel(ROWSUM_SRC)


@pytest.fixture(scope="session")
def indirect_kernel():
    return parse_kernel(INDIRECT_SRC)


@pytest.fixture(scope="session")
def produce_kernel():
    return parse_kernel(PRODUCE_SRC)


@pytest.fixture
def vecadd_summary(vecadd_kernel):
    launch = LaunchConfig.create(
        grid=4,
        block=64,
        args={"A": 0, "B": 1 << 16, "C": 1 << 17, "N": 256},
    )
    return analyze_kernel(vecadd_kernel, launch)


class _TmpCache(AnalysisCache):
    def sibling(self, metrics=None):
        """Another instance over the same directory (warm-cache tests)."""
        return AnalysisCache(self.directory, metrics=metrics)


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    """An :class:`AnalysisCache` rooted in a per-test tempdir.

    Also exports the directory via ``REPRO_CACHE_DIR`` so code that
    resolves the cache location from the environment (runtime defaults,
    the CLI, the fuzz harness) lands in the same isolated directory
    instead of polluting ``~/.cache/repro``.
    """
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv(CACHE_DIR_ENV, cache_dir)
    return _TmpCache(cache_dir)


@pytest.fixture
def gpu_config():
    return GPUConfig()


@pytest.fixture
def runtime(gpu_config):
    return BlockMaestroRuntime(gpu_config)


def make_chain_app(
    num_pairs=3, tbs=32, block=128, intensity=1.0, with_sync=False, name="chain"
):
    """Small producer/consumer chain application for engine tests."""
    builder = AppBuilder(name)
    n = tbs * block
    a = builder.alloc("A", n * 4)
    t = builder.alloc("T", n * 4)
    c = builder.alloc("C", n * 4)
    builder.h2d(a)
    for i in range(num_pairs):
        builder.launch(
            PRODUCE_SRC,
            grid=tbs,
            block=block,
            args={"IN0": a if i == 0 else c, "OUT": t},
            intensity=intensity,
            tag="prod{}".format(i),
        )
        if with_sync:
            builder.sync()
        builder.launch(
            PRODUCE_SRC.replace("produce", "consume"),
            grid=tbs,
            block=block,
            args={"IN0": t, "OUT": c},
            intensity=intensity,
            tag="cons{}".format(i),
        )
    builder.d2h(c)
    return builder.build()


@pytest.fixture
def chain_app():
    return make_chain_app()
