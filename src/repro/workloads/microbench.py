"""Interconnectivity microbenchmark (paper Fig. 12).

Two equal-size kernels derived from VectorAdd.  The producer writes its
output in flat per-block slices (a 1-to-1 layout); the consumer reads
the producer's output in *groups* of ``degree`` block-slices, realizing
the n-group fully connected pattern whose group size is the paper's
"dependency degree" knob.  ``degree == 1`` is the plain 1-to-1
VectorAdd pair.

This module also hosts the ``fast-engine`` workloads
(:func:`engine_specs`): long kernel chains whose dependency analysis is
closed-form cheap but whose thread-block population makes the scalar
event loop the dominant cost.  The engine differential tests
(``tests/integration/test_differential_engine.py``) run them on every
:mod:`repro.models.fastengine` tier.  They are deliberately *hidden*:
resolvable by name through :func:`repro.workloads.get_workload`, but
absent from ``all_workloads()`` so the paper's Table-II
suites stay exactly the paper's.
"""

from repro.workloads import ptxgen
from repro.workloads.base import AppBuilder

_ELEM = 4
_THREADS = 256


def build_vecadd_pair(num_tbs=512, degree=1, intensity=8.0):
    """Producer/consumer VectorAdd pair with dependency degree ``degree``.

    ``num_tbs`` is the per-kernel thread-block count (the paper sweeps
    128..2048); ``degree`` blocks of the producer feed each group of
    ``degree`` consumer blocks (1 <= degree <= num_tbs).  Both kernels
    perform the same amount of work — only the consumer's read
    *footprint* widens with the degree, exactly like the paper's
    artificially-introduced n-group dependencies.
    """
    if num_tbs % max(degree, 1):
        raise ValueError("degree must divide num_tbs")
    b = AppBuilder("vecadd-deg{}-n{}".format(degree, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    tmp = b.alloc("TMP", elems * _ELEM)
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    producer = ptxgen.elementwise("vadd_produce", num_inputs=1, alu=2)
    consumer = ptxgen.group_sample(
        "vadd_consume_deg{}".format(degree),
        group_span_elems=degree * _THREADS,
        stride_elems=degree,
        alu=2,
    )
    b.launch(
        producer,
        grid=num_tbs,
        block=_THREADS,
        args={"IN0": x, "OUT": tmp},
        intensity=intensity,
        tag="producer",
    )
    b.launch(
        consumer,
        grid=(degree, num_tbs // degree),
        block=_THREADS,
        args={"IN": tmp, "OUT": out},
        intensity=intensity,
        tag="consumer",
    )
    b.d2h(out)
    return b.build(degree=degree, num_tbs=num_tbs)


# ----------------------------------------------------------------------
# fast-engine workloads (hidden registry extras)
# ----------------------------------------------------------------------
def build_engine_chain(num_kernels=12, num_tbs=4096, intensity=4.0):
    """A long 1-to-1 map chain over ping-pong buffers.

    Dependency analysis collapses every hop to the closed-form Table-I
    diagonal, but the scalar engine still pays ``num_kernels * num_tbs``
    per-block event lifecycles — exactly the cost the fast engine tier
    removes.
    """
    b = AppBuilder("eng-chain-k{}-n{}".format(num_kernels, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    bufs = [b.alloc("T{}".format(i), elems * _ELEM) for i in range(2)]
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    src = x
    for i in range(num_kernels):
        dst = out if i == num_kernels - 1 else bufs[i % 2]
        kernel = ptxgen.elementwise(
            "eng_map{}".format(i), num_inputs=1, alu=2
        )
        b.launch(
            kernel, grid=num_tbs, block=_THREADS,
            args={"IN0": src, "OUT": dst}, intensity=intensity,
            tag="map{}".format(i),
        )
        src = dst
    b.d2h(out)
    return b.build(num_kernels=num_kernels, num_tbs=num_tbs)


def build_engine_wide(num_tbs=65536, intensity=4.0):
    """One producer/consumer map pair with a very wide grid: the wave
    count per kernel is large, so per-event heap traffic — not launch
    bookkeeping — dominates the scalar simulate phase."""
    b = AppBuilder("eng-wide-map-n{}".format(num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    tmp = b.alloc("TMP", elems * _ELEM)
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    producer = ptxgen.elementwise("fp_produce", num_inputs=1, alu=2)
    b.launch(
        producer, grid=num_tbs, block=_THREADS,
        args={"IN0": x, "OUT": tmp}, intensity=intensity, tag="producer",
    )
    consumer = ptxgen.elementwise("eng_wide_map", num_inputs=1, alu=2)
    b.launch(
        consumer, grid=num_tbs, block=_THREADS,
        args={"IN0": tmp, "OUT": out}, intensity=intensity, tag="consumer",
    )
    b.d2h(out)
    return b.build(num_tbs=num_tbs)


def build_engine_fc(num_kernels=6, num_tbs=512, intensity=4.0):
    """A chain of full-buffer readers: every hop is fully connected, so
    fine-grain models gate children on the whole parent kernel and the
    fast tier covers the entire roster on this workload."""
    b = AppBuilder("eng-fc-k{}-n{}".format(num_kernels, num_tbs))
    elems = num_tbs * _THREADS
    x = b.alloc("X", elems * _ELEM)
    bufs = [b.alloc("T{}".format(i), elems * _ELEM) for i in range(2)]
    out = b.alloc("OUTBUF", elems * _ELEM)
    b.h2d(x)
    first = ptxgen.elementwise("eng_fc_produce", num_inputs=1, alu=2)
    b.launch(
        first, grid=num_tbs, block=_THREADS,
        args={"IN0": x, "OUT": bufs[0]}, intensity=intensity,
        tag="producer",
    )
    src = bufs[0]
    for i in range(1, num_kernels):
        dst = out if i == num_kernels - 1 else bufs[i % 2]
        kernel = ptxgen.full_read_map("eng_fc{}".format(i), alu=2)
        b.launch(
            kernel, grid=num_tbs, block=_THREADS,
            args={
                "IN": src, "OUT": dst,
                "SPAN": elems, "INOFF": 0, "OUTOFF": 0,
            },
            intensity=intensity,
            tag="fc{}".format(i),
        )
        src = dst
    b.d2h(out)
    return b.build(num_kernels=num_kernels, num_tbs=num_tbs)


def engine_specs():
    """Hidden :class:`~repro.workloads.registry.WorkloadSpec` rows for
    the ``fast-engine`` workloads: simulation-heavy chains where the
    simulate phase dominates a cold pass, so the
    :mod:`repro.models.fastengine` tier carries the win."""
    from repro.workloads.registry import WorkloadSpec

    return (
        WorkloadSpec(
            "eng-chain", "engine microbench: long 1-to-1 map chain",
            "fast-engine", 12, (2,), build_engine_chain,
            small_overrides={"num_kernels": 4, "num_tbs": 256},
        ),
        WorkloadSpec(
            "eng-wide", "engine microbench: very wide map pair",
            "fast-engine", 2, (2,), build_engine_wide,
            small_overrides={"num_tbs": 512},
        ),
        WorkloadSpec(
            "eng-fc", "engine microbench: fully connected hop chain",
            "fast-engine", 6, (1,), build_engine_fc,
            small_overrides={"num_kernels": 3, "num_tbs": 64},
        ),
    )
