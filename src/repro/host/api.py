"""The CUDA-like API call vocabulary.

Each call knows which buffers it reads and writes; that is all the
command-queue reordering pass (paper Fig. 5) needs to preserve true
dependencies while hoisting kernel launches together.

For kernel launches, parameter directions (which pointer arguments the
kernel loads from / stores to) are derived statically from the kernel
body with :func:`kernel_param_directions` — a use of the same backward
slice as Algorithm 1, but stopping at ``ld.param`` to attribute each
global access to the parameter its base pointer came from.
"""

import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.analysis.dataflow import NonStaticAccess, backward_slice
from repro.host.buffers import Buffer
from repro.ptx.isa import Opcode
from repro.ptx.module import Kernel


@dataclass(frozen=True)
class ParamDirections:
    """Read/write pointer-parameter sets of a kernel.

    ``exact`` is False when attribution failed for some access (indirect
    addressing, unresolved slices); in that case both sets conservatively
    contain every pointer parameter.
    """

    reads: frozenset
    writes: frozenset
    exact: bool = True


#: each kernel body's directions; see kernel_param_directions
_DIRECTIONS = weakref.WeakKeyDictionary()


def kernel_param_directions(kernel: Kernel) -> ParamDirections:
    """Attribute each global access to the pointer parameter(s) feeding
    its address; conservative on failure.

    The answer depends on the body alone, so it is kept per kernel
    object (kernels hash by identity); the memo holds no kernel alive.
    """
    directions = _DIRECTIONS.get(kernel)
    if directions is None:
        directions = _DIRECTIONS[kernel] = _param_directions(kernel)
    return directions


def _param_directions(kernel):
    pointer_names = frozenset(p.name for p in kernel.pointer_params)
    reads, writes = set(), set()
    exact = True
    for index, inst in kernel.global_accesses():
        try:
            result = backward_slice(kernel, index)
        except NonStaticAccess:
            exact = False
            break
        touched = set()
        for j in result.instructions:
            candidate = kernel.instructions[j]
            if candidate.opcode is Opcode.LD_PARAM:
                addr = candidate.address_operand()
                if addr.base.name in pointer_names:
                    touched.add(addr.base.name)
        if not touched or not result.fully_resolved:
            exact = False
            break
        if inst.is_global_load:
            reads |= touched
        if inst.is_global_store:
            writes |= touched
    if not exact:
        return ParamDirections(pointer_names, pointer_names, exact=False)
    return ParamDirections(frozenset(reads), frozenset(writes), exact=True)


# ----------------------------------------------------------------------
# API calls
# ----------------------------------------------------------------------
@dataclass
class APICall:
    """Base class; ``call_id`` is assigned by the owning trace.

    ``stream_id`` selects the CUDA stream (command queue) the call is
    issued to; the default stream is 0.  Within a stream, baseline
    semantics process commands strictly in order; different streams are
    independent queues (paper Section II-A).
    """

    call_id: int = field(default=-1, init=False)
    stream_id: int = 0

    #: short, stable event name used for trace output (tracer spans are
    #: grouped and blamed by this name; ``trace_args`` carries detail)
    trace_kind = "api"

    @property
    def trace_name(self):
        return self.trace_kind

    def trace_args(self):
        """Argument payload attached to this call's trace events."""
        return {
            "call_id": self.call_id,
            "stream": self.stream_id,
            "call": str(self),
        }

    def buffers_read(self) -> Tuple[Buffer, ...]:
        return ()

    def buffers_written(self) -> Tuple[Buffer, ...]:
        return ()

    def buffers_defined(self) -> Tuple[Buffer, ...]:
        """Buffers brought into existence by this call (malloc)."""
        return ()

    @property
    def is_kernel(self):
        return False

    @property
    def blocks_host_baseline(self):
        """Does this call block the host under default CUDA semantics?"""
        return True

    @property
    def blocks_host_blockmaestro(self):
        """Does it still block the host once BlockMaestro shifts implicit
        synchronization into hardware?  Only host-RAW hazards remain
        (device-to-host copies)."""
        return False


@dataclass
class MallocCall(APICall):
    """``cudaMalloc``: host-blocking, executes off the command queue."""

    buffer: Buffer = None
    trace_kind = "malloc"

    def buffers_defined(self):
        return (self.buffer,)

    def __str__(self):
        return "malloc({})".format(self.buffer)


@dataclass
class ManagedMallocCall(MallocCall):
    """``cudaMallocManaged``: Unified Memory allocation.

    The paper (Section III-B, "Limitations and other considerations"):
    managed buffers are allocated through a known API, so the analysis
    monitors the same address range and in-kernel accesses look exactly
    like ordinary global memory — dependency extraction is unchanged.
    The host may touch managed memory directly, so the call itself stays
    host-blocking in both semantics (page-migration setup).
    """

    trace_kind = "mallocManaged"

    @property
    def blocks_host_blockmaestro(self):
        return True

    def __str__(self):
        return "mallocManaged({})".format(self.buffer)


@dataclass
class MemcpyH2D(APICall):
    """Host-to-device copy: a device-visible *write* of the buffer."""

    trace_kind = "memcpyH2D"
    buffer: Buffer = None
    size: Optional[int] = None

    @property
    def bytes(self):
        return self.size if self.size is not None else self.buffer.size

    def buffers_written(self):
        return (self.buffer,)

    def __str__(self):
        return "memcpyH2D({}, {}B)".format(self.buffer, self.bytes)


@dataclass
class MemcpyD2H(APICall):
    """Device-to-host copy: reads the buffer; always host-blocking (the
    host consumes the data — the one implicit synchronization
    BlockMaestro must preserve)."""

    trace_kind = "memcpyD2H"
    buffer: Buffer = None
    size: Optional[int] = None

    @property
    def bytes(self):
        return self.size if self.size is not None else self.buffer.size

    def buffers_read(self):
        return (self.buffer,)

    @property
    def blocks_host_blockmaestro(self):
        return True

    def __str__(self):
        return "memcpyD2H({}, {}B)".format(self.buffer, self.bytes)


@dataclass
class DeviceSynchronize(APICall):
    """``cudaDeviceSynchronize``: baseline host barrier; BlockMaestro
    bypasses it (correctness is enforced in hardware)."""

    trace_kind = "deviceSync"

    def __str__(self):
        return "deviceSynchronize()"


@dataclass
class StreamSynchronize(APICall):
    """``cudaStreamSynchronize``: a barrier for one stream's commands.

    BlockMaestro handles it "in a similar manner to
    cudaDeviceSynchronize" (Section III-C): the host is not blocked and
    downstream commands are gated by their true data dependencies only.
    """

    trace_kind = "streamSync"

    def __str__(self):
        return "streamSynchronize(s{})".format(self.stream_id)


@dataclass
class EventRecord(APICall):
    """``cudaEventRecord``: marks a point in its stream.

    The event is "recorded" once every command issued to the stream
    before it has completed.  Non-blocking on the host.
    """

    trace_kind = "eventRecord"
    event_id: int = 0

    @property
    def blocks_host_baseline(self):
        return False

    def __str__(self):
        return "eventRecord(e{}, s{})".format(self.event_id, self.stream_id)


@dataclass
class StreamWaitEvent(APICall):
    """``cudaStreamWaitEvent``: later commands of this stream wait until
    the named event is recorded — the cross-stream ordering primitive.

    Under BlockMaestro these waits are advisory, like the synchronize
    barriers: the cross-stream *data* dependencies the event protects
    are discovered by the launch-time analysis and enforced in hardware,
    so the explicit wait adds no extra serialization.
    """

    trace_kind = "streamWaitEvent"
    event_id: int = 0

    @property
    def blocks_host_baseline(self):
        return False

    def __str__(self):
        return "streamWaitEvent(e{}, s{})".format(self.event_id, self.stream_id)


@dataclass
class KernelLaunchCall(APICall):
    """A kernel launch: asynchronous on the host.

    ``args`` maps parameter names to :class:`Buffer` objects (pointer
    params) or integers (scalars).  ``intensity`` scales the cost model's
    per-TB duration; ``tb_duration_fn`` optionally overrides the duration
    of individual thread blocks (``fn(tb_id) -> ns``), and
    ``tb_duration_scale_fn`` multiplies the cost-model duration per block
    (``fn(tb_id) -> factor``) for workloads with intrinsic load
    imbalance.
    """

    kernel: Kernel = None
    grid: Tuple[int, int, int] = (1, 1, 1)
    block: Tuple[int, int, int] = (1, 1, 1)
    args: Dict[str, Union[Buffer, int]] = field(default_factory=dict)
    intensity: float = 1.0
    tb_duration_fn: Optional[object] = None
    tb_duration_scale_fn: Optional[object] = None
    tag: str = ""

    @property
    def is_kernel(self):
        return True

    @property
    def trace_name(self):
        return "launch:{}".format(self.tag or self.kernel.name)

    def trace_args(self):
        args = super().trace_args()
        args.update(
            {"grid": list(self.grid), "block": list(self.block), "tbs": self.num_tbs}
        )
        return args

    @property
    def blocks_host_baseline(self):
        return False  # kernel launches are asynchronous by default

    @property
    def num_tbs(self):
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def threads_per_tb(self):
        tx, ty, tz = self.block
        return tx * ty * tz

    def arg_values(self):
        """Lower args to integers (buffer base addresses) for analysis."""
        values = {}
        for name, value in self.args.items():
            values[name] = value.base if isinstance(value, Buffer) else int(value)
        return values

    def pointer_buffers(self):
        return {
            name: value
            for name, value in self.args.items()
            if isinstance(value, Buffer)
        }

    def buffers_read(self):
        directions = kernel_param_directions(self.kernel)
        return tuple(
            buf
            for name, buf in sorted(self.pointer_buffers().items())
            if name in directions.reads
        )

    def buffers_written(self):
        directions = kernel_param_directions(self.kernel)
        return tuple(
            buf
            for name, buf in sorted(self.pointer_buffers().items())
            if name in directions.writes
        )

    def __str__(self):
        label = self.tag or self.kernel.name
        return "launch {}<<<{}, {}>>>".format(label, self.grid, self.block)
