"""Application container and builder for workload generators."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.host.api import (
    DeviceSynchronize,
    EventRecord,
    KernelLaunchCall,
    MallocCall,
    ManagedMallocCall,
    MemcpyD2H,
    MemcpyH2D,
    StreamSynchronize,
    StreamWaitEvent,
)
from repro.host.buffers import Allocator, Buffer
from repro.host.trace import APITrace
from repro.ptx.module import Kernel
from repro.ptx.parser import parse_kernel


@dataclass
class Application:
    """A complete multi-kernel GPU application.

    ``trace`` holds the host API calls in program order; ``allocator``
    owns the device buffers; ``kernels`` indexes the distinct kernel
    bodies by name.  ``metadata`` carries workload-specific descriptors
    used by experiments (problem sizes, expected pattern classes...).
    """

    name: str
    trace: APITrace
    allocator: Allocator
    kernels: Dict[str, Kernel] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_kernel_launches(self):
        return self.trace.num_kernels

    def describe(self):
        return "{}: {} API calls, {} kernel launches, {} buffers".format(
            self.name,
            len(self.trace),
            self.num_kernel_launches,
            len(self.allocator.buffers),
        )


class AppBuilder:
    """Fluent builder for applications.

    Example::

        b = AppBuilder("saxpy-chain")
        x = b.alloc("X", n * 4)
        y = b.alloc("Y", n * 4)
        b.h2d(x)
        b.h2d(y)
        b.launch(saxpy_kernel, grid=n // 256, block=256,
                 args={"X": x, "Y": y, "N": n})
        b.d2h(y)
        app = b.build()
    """

    def __init__(self, name):
        self.name = name
        self.trace = APITrace()
        self.allocator = Allocator()
        self.kernels: Dict[str, Kernel] = {}
        self.metadata: Dict[str, object] = {}
        #: source text -> the registered kernel it parsed to
        self._parsed: Dict[str, Kernel] = {}

    # ------------------------------------------------------------------
    def alloc(self, name, size_bytes) -> Buffer:
        """cudaMalloc: allocate and record the API call."""
        buffer = self.allocator.allocate(size_bytes, name=name)
        self.trace.append(MallocCall(buffer=buffer))
        return buffer

    def managed_alloc(self, name, size_bytes) -> Buffer:
        """cudaMallocManaged: Unified Memory allocation.

        Identical to :meth:`alloc` for dependency analysis (the paper's
        point); no explicit H2D copy is needed before kernel use.
        """
        buffer = self.allocator.allocate(size_bytes, name=name)
        self.trace.append(ManagedMallocCall(buffer=buffer))
        return buffer

    def h2d(self, buffer, size=None, stream=0):
        self.trace.append(MemcpyH2D(buffer=buffer, size=size, stream_id=stream))

    def d2h(self, buffer, size=None, stream=0):
        self.trace.append(MemcpyD2H(buffer=buffer, size=size, stream_id=stream))

    def sync(self):
        self.trace.append(DeviceSynchronize())

    def stream_sync(self, stream):
        self.trace.append(StreamSynchronize(stream_id=stream))

    def event_record(self, event, stream=0):
        """cudaEventRecord: mark this point of ``stream``."""
        self.trace.append(EventRecord(event_id=event, stream_id=stream))

    def stream_wait_event(self, event, stream=0):
        """cudaStreamWaitEvent: ``stream`` waits for the event."""
        self.trace.append(StreamWaitEvent(event_id=event, stream_id=stream))

    def register_kernel(self, kernel_or_source) -> Kernel:
        """Register a kernel body (object or mini-PTX source text).

        Returns the kernel registered under the body's name.  Each
        distinct source text is parsed once per builder.  A body that
        differs from the one already registered under its name raises
        ``ValueError``: launches of that name would otherwise silently
        run the first body.
        """
        if isinstance(kernel_or_source, Kernel):
            return self._register(kernel_or_source)
        kernel = self._parsed.get(kernel_or_source)
        if kernel is None:
            kernel = self._register(parse_kernel(kernel_or_source))
            self._parsed[kernel_or_source] = kernel
        return kernel

    def _register(self, kernel):
        existing = self.kernels.setdefault(kernel.name, kernel)
        # canonical text: the body identity the analysis cache keys on
        if existing is not kernel and existing.to_text() != kernel.to_text():
            raise ValueError(
                "kernel {!r} is already registered with a different "
                "body".format(kernel.name)
            )
        return existing

    def launch(
        self,
        kernel,
        grid,
        block,
        args,
        intensity=1.0,
        tb_duration_fn=None,
        tag="",
        stream=0,
    ):
        """Record a kernel launch.

        ``grid``/``block`` may be ints or 1-3 element tuples.  ``args``
        maps every kernel parameter name to a :class:`Buffer` or int;
        ``stream`` selects the CUDA stream (default stream 0).
        """
        kernel = self.register_kernel(kernel)
        call = KernelLaunchCall(
            kernel=kernel,
            grid=_dims(grid),
            block=_dims(block),
            args=dict(args),
            intensity=intensity,
            tb_duration_fn=tb_duration_fn,
            tag=tag,
            stream_id=stream,
        )
        self.trace.append(call)
        return call

    # ------------------------------------------------------------------
    def build(self, **metadata) -> Application:
        self.metadata.update(metadata)
        app = Application(
            name=self.name,
            trace=self.trace,
            allocator=self.allocator,
            kernels=dict(self.kernels),
            metadata=dict(self.metadata),
        )
        app.trace.validate()
        return app


def _dims(value):
    if isinstance(value, int):
        dims = (value,)
    else:
        dims = tuple(int(v) for v in value)
    if not 1 <= len(dims) <= 3 or any(d < 1 for d in dims):
        raise ValueError("bad dimensions %r" % (value,))
    return dims + (1,) * (3 - len(dims))
