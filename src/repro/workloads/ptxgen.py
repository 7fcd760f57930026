"""Parametric mini-PTX kernel generators.

All workload kernels are produced here as real PTX text so the
launch-time analysis pipeline (parser → Algorithm 1 → value-range
analysis) runs on genuine instruction streams.  Each generator returns
source accepted by :func:`repro.ptx.parser.parse_module`.

The generators cover the index-expression shapes that produce the
paper's Table I dependency patterns:

* :func:`elementwise` — per-thread affine map (1-to-1 and shifted reads)
* :func:`stencil1d` / :func:`stencil2d` — neighbourhood reads
  (overlapped pattern)
* :func:`matvec` / :func:`matvec_transposed` — row/column loops
* :func:`group_read` — each block reads a whole group of blocks' data
  (n-group fully connected)
* :func:`reduce_columns` — single-output reductions (n-to-1)
* :func:`broadcast_scale` — scalar fan-out (1-to-n)
* :func:`fft_stage` — two-halves butterfly (1-to-1 across stages)
* :func:`wavefront_block` — anti-diagonal block dependencies
* :func:`gaussian_fan1` / :func:`gaussian_fan2` — Gaussian elimination
* :func:`indirect_gather` — A[B[i]] addressing (forces the non-static
  fallback; used by tests)

On top of the individual generators, :class:`FuzzSpec` composes them
into seeded random multi-kernel applications for the differential
fuzzing harness (:mod:`repro.fuzz`): ``FuzzSpec.from_seed(s)`` is a
pure function of ``s`` (``random.Random`` only — no hash-seed or dict
order dependence), and :func:`build_fuzz_app` materializes it as a
real-PTX application.  :func:`fuzz_workload_spec` wraps that as a
hidden registry entry so ``get_workload("fuzz-<seed>")`` resolves it
without the name joining ``list``.
"""

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Tuple


class Emitter:
    """Tiny helper assembling a kernel body with fresh register names.

    Public: workload modules with bespoke kernels (e.g. LUD's tile
    kernels) build on it directly.
    """

    def __init__(self, name, params):
        self.name = name
        self.params = list(params)  # (name, dtype)
        self.lines = []
        self._ids = itertools.count()

    def reg(self, prefix="r"):
        return "%{}{}".format(prefix, next(self._ids))

    def emit(self, text):
        self.lines.append("    " + text)

    def label(self, label):
        self.lines.append(label + ":")

    def load_params(self, *names):
        regs = []
        declared = dict(self.params)
        for name in names:
            dtype = declared[name]
            reg = self.reg("rd" if dtype == "u64" else "r")
            self.emit("ld.param.{} {}, [{}];".format(dtype, reg, name))
            regs.append(reg)
        return regs

    def flat_index(self):
        """%ri = ctaid.x * ntid.x + tid.x"""
        b = self.reg()
        i = self.reg()
        self.emit("mov.u32 {}, %ctaid.x;".format(b))
        self.emit("mad.lo.u32 {}, {}, %ntid.x, %tid.x;".format(i, b))
        return i

    def address(self, base_reg, index_reg, elem=4, offset_elems=0):
        """base + (index + offset) * elem -> u64 register"""
        idx = index_reg
        if offset_elems:
            shifted = self.reg()
            self.emit(
                "add.u32 {}, {}, {};".format(shifted, index_reg, offset_elems)
            )
            idx = shifted
        wide = self.reg("rd")
        self.emit("mul.wide.u32 {}, {}, {};".format(wide, idx, elem))
        addr = self.reg("rd")
        self.emit("add.u64 {}, {}, {};".format(addr, base_reg, wide))
        return addr

    def load_f32(self, base_reg, index_reg, offset_elems=0):
        addr = self.address(base_reg, index_reg, offset_elems=offset_elems)
        val = self.reg("f")
        self.emit("ld.global.f32 {}, [{}];".format(val, addr))
        return val

    def store_f32(self, base_reg, index_reg, value, offset_elems=0):
        addr = self.address(base_reg, index_reg, offset_elems=offset_elems)
        self.emit("st.global.f32 [{}], {};".format(addr, value))

    def alu_chain(self, seed_reg, count):
        """A dependent chain of float operations (compute intensity)."""
        acc = seed_reg
        for _ in range(count):
            nxt = self.reg("f")
            self.emit("mul.f32 {}, {}, {};".format(nxt, acc, acc))
            acc = nxt
        return acc

    def combine(self, values):
        if not values:
            raise ValueError("no values to combine")
        acc = values[0]
        for value in values[1:]:
            nxt = self.reg("f")
            self.emit("add.f32 {}, {}, {};".format(nxt, acc, value))
            acc = nxt
        return acc

    def render(self):
        params = ", ".join(
            ".param .{} {}".format(dtype, name) for name, dtype in self.params
        )
        body = "\n".join(self.lines)
        return ".visible .entry {} ({})\n{{\n{}\n    ret;\n}}\n".format(
            self.name, params, body
        )


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def elementwise(name, num_inputs=1, shifts=None, alu=2, scale=1, guard=False):
    """Per-thread map: ``OUT[scale*i + shift_k] <- f(IN_k[scale*i + shift_k])``.

    With ``scale == 1`` and zero shifts this yields a 1-to-1 dependency
    pattern against an identically-partitioned producer.
    """
    shifts = list(shifts or [0] * num_inputs)
    if len(shifts) != num_inputs:
        raise ValueError("one shift per input required")
    params = [("IN{}".format(k), "u64") for k in range(num_inputs)]
    params.append(("OUT", "u64"))
    if guard:
        params.append(("N", "u32"))
    e = Emitter(name, params)
    regs = e.load_params(*[p for p, _ in params])
    in_regs, out_reg = regs[:num_inputs], regs[num_inputs]
    i = e.flat_index()
    if guard:
        n_reg = regs[num_inputs + 1]
        p = e.reg("p")
        e.emit("setp.ge.u32 {}, {}, {};".format(p, i, n_reg))
        e.emit("@{} bra DONE;".format(p))
    idx = i
    if scale != 1:
        idx = e.reg()
        e.emit("mul.lo.u32 {}, {}, {};".format(idx, i, scale))
    values = [
        e.load_f32(in_regs[k], idx, offset_elems=shifts[k])
        for k in range(num_inputs)
    ]
    acc = e.combine(values)
    acc = e.alu_chain(acc, alu)
    e.store_f32(out_reg, idx, acc)
    if guard:
        e.label("DONE")
    return e.render()


def stencil1d(name, radius=1, alu=2, extra_input=None):
    """1-D stencil: reads ``IN[i-radius .. i+radius]``, writes ``OUT[i]``.

    Adjacent thread blocks share halo elements, producing the paper's
    *overlapped* pattern (6).  ``extra_input`` adds a second read-only
    array at index ``i`` (e.g. PathFinder's wall matrix).
    """
    params = [("IN", "u64"), ("OUT", "u64")]
    if extra_input:
        params.insert(1, (extra_input, "u64"))
    e = Emitter(name, params)
    regs = e.load_params(*[p for p, _ in params])
    in_reg, out_reg = regs[0], regs[-1]
    i = e.flat_index()
    values = [
        e.load_f32(in_reg, i, offset_elems=off)
        for off in range(-radius, radius + 1)
    ]
    if extra_input:
        values.append(e.load_f32(regs[1], i))
    acc = e.combine(values)
    acc = e.alu_chain(acc, alu)
    e.store_f32(out_reg, i, acc)
    return e.render()


def stencil2d(name, width, alu=4, extra_input="POWER"):
    """2-D 5-point stencil over a row-major ``width``-wide grid.

    Thread blocks cover contiguous flattened ranges; the ``i +- width``
    reads reach into the previous/next block's rows — the Hotspot-style
    overlapped pattern.
    """
    params = [("IN", "u64"), (extra_input, "u64"), ("OUT", "u64")]
    e = Emitter(name, params)
    in_reg, pow_reg, out_reg = e.load_params("IN", extra_input, "OUT")
    i = e.flat_index()
    values = [
        e.load_f32(in_reg, i),
        e.load_f32(in_reg, i, offset_elems=-1),
        e.load_f32(in_reg, i, offset_elems=1),
        e.load_f32(in_reg, i, offset_elems=-width),
        e.load_f32(in_reg, i, offset_elems=width),
        e.load_f32(pow_reg, i),
    ]
    acc = e.combine(values)
    acc = e.alu_chain(acc, alu)
    e.store_f32(out_reg, i, acc)
    return e.render()


def matvec(name, alu=0):
    """Row-dot-product: ``Y[i] = sum_k A[i*K + k] * X[k]``; K is a
    launch parameter, so the loop trip count is resolved at launch time."""
    e = Emitter(name, [("A", "u64"), ("X", "u64"), ("Y", "u64"), ("K", "u32")])
    a_reg, x_reg, y_reg, k_reg = e.load_params("A", "X", "Y", "K")
    i = e.flat_index()
    row = e.reg()
    e.emit("mul.lo.u32 {}, {}, {};".format(row, i, k_reg))
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("LOOP")
    idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(idx, row, k))
    a_val = e.load_f32(a_reg, idx)
    x_val = e.load_f32(x_reg, k)
    prod = e.reg("f")
    e.emit("mul.f32 {}, {}, {};".format(prod, a_val, x_val))
    e.emit("add.f32 {}, {}, {};".format(acc, acc, prod))
    e.emit("add.u32 {}, {}, 1;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, k_reg))
    e.emit("@{} bra LOOP;".format(p))
    final = e.alu_chain(acc, alu)
    e.store_f32(y_reg, i, final)
    return e.render()


def matvec_transposed(name, alu=0):
    """Column-dot-product: ``Y[i] = sum_k A[k*N + i] * X[k]``."""
    e = Emitter(
        name,
        [("A", "u64"), ("X", "u64"), ("Y", "u64"), ("K", "u32"), ("N", "u32")],
    )
    a_reg, x_reg, y_reg, k_reg, n_reg = e.load_params("A", "X", "Y", "K", "N")
    i = e.flat_index()
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("LOOP")
    idx = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(idx, k, n_reg, i))
    a_val = e.load_f32(a_reg, idx)
    x_val = e.load_f32(x_reg, k)
    prod = e.reg("f")
    e.emit("mul.f32 {}, {}, {};".format(prod, a_val, x_val))
    e.emit("add.f32 {}, {}, {};".format(acc, acc, prod))
    e.emit("add.u32 {}, {}, 1;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, k_reg))
    e.emit("@{} bra LOOP;".format(p))
    final = e.alu_chain(acc, alu)
    e.store_f32(y_reg, i, final)
    return e.render()


def group_read(name, group_span_elems, alu=2, writes_flat=True):
    """Each thread block reads a whole *group* of blocks' output.

    Launched with a 2-D grid ``(blocks_per_group, num_groups)``: block
    ``(bx, by)`` reads the entire ``group_span_elems`` window of group
    ``by`` from ``IN`` and writes its own flat block of ``OUT``.  Against
    a producer that wrote ``IN`` in flat blocks this yields the n-group
    fully connected pattern (Table I row 2) with groups of size
    ``blocks_per_group``, and it is the Fig. 12 interconnectivity
    microbenchmark's dependency-degree knob.
    """
    e = Emitter(name, [("IN", "u64"), ("OUT", "u64")])
    in_reg, out_reg = e.load_params("IN", "OUT")
    # group base: ctaid.y * group_span
    gy = e.reg()
    e.emit("mov.u32 {}, %ctaid.y;".format(gy))
    gbase = e.reg()
    e.emit("mul.lo.u32 {}, {}, {};".format(gbase, gy, group_span_elems))
    # strided read of the whole group window: one element per thread,
    # strided by ntid so the block covers group_span_elems elements
    t = e.reg()
    e.emit("mov.u32 {}, %tid.x;".format(t))
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("LOOP")
    stride_idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(stride_idx, k, t))
    idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(idx, gbase, stride_idx))
    val = e.load_f32(in_reg, idx)
    e.emit("add.f32 {}, {}, {};".format(acc, acc, val))
    e.emit("add.u32 {}, {}, %ntid.x;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, group_span_elems))
    e.emit("@{} bra LOOP;".format(p))
    final = e.alu_chain(acc, alu)
    if writes_flat:
        # flat output block: (ctaid.y * nctaid.x + ctaid.x) * ntid + tid
        bx = e.reg()
        e.emit("mov.u32 {}, %ctaid.x;".format(bx))
        flat_b = e.reg()
        e.emit("mad.lo.u32 {}, {}, %nctaid.x, {};".format(flat_b, gy, bx))
        out_i = e.reg()
        e.emit("mad.lo.u32 {}, {}, %ntid.x, %tid.x;".format(out_i, flat_b))
        e.store_f32(out_reg, out_i, final)
    return e.render()


def group_sample(name, group_span_elems, stride_elems, alu=2):
    """Equal-work n-group reader: each thread loads *one* element,
    sampled across its block's whole group window with ``stride_elems``.

    Unlike :func:`group_read`, the amount of work per block is constant
    regardless of the group size — only the *footprint* (and therefore
    the dependency degree) grows.  This matches the paper's Fig. 12
    microbenchmark, which artificially raises the dependency degree
    between two equal-size kernels.
    """
    e = Emitter(name, [("IN", "u64"), ("OUT", "u64")])
    in_reg, out_reg = e.load_params("IN", "OUT")
    gy = e.reg()
    e.emit("mov.u32 {}, %ctaid.y;".format(gy))
    gbase = e.reg()
    e.emit("mul.lo.u32 {}, {}, {};".format(gbase, gy, group_span_elems))
    t = e.reg()
    e.emit("mov.u32 {}, %tid.x;".format(t))
    offset = e.reg()
    e.emit("mul.lo.u32 {}, {}, {};".format(offset, t, stride_elems))
    idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(idx, gbase, offset))
    val = e.load_f32(in_reg, idx)
    acc = e.alu_chain(val, alu)
    bx = e.reg()
    e.emit("mov.u32 {}, %ctaid.x;".format(bx))
    flat_b = e.reg()
    e.emit("mad.lo.u32 {}, {}, %nctaid.x, {};".format(flat_b, gy, bx))
    out_i = e.reg()
    e.emit("mad.lo.u32 {}, {}, %ntid.x, %tid.x;".format(out_i, flat_b))
    e.store_f32(out_reg, out_i, acc)
    return e.render()


def reduce_columns(name, alu=0):
    """Strided reduction: thread ``i`` accumulates
    ``IN[OFF + i + k*STRIDE]`` for ``k`` in ``[0, COUNT)`` and writes
    ``OUT[OUTOFF + i]`` — many producer blocks feeding few consumer
    blocks (n-to-1).  ``OFF``/``OUTOFF`` select e.g. a matrix column."""
    e = Emitter(
        name,
        [
            ("IN", "u64"),
            ("OUT", "u64"),
            ("STRIDE", "u32"),
            ("COUNT", "u32"),
            ("OFF", "u32"),
            ("OUTOFF", "u32"),
        ],
    )
    in_reg, out_reg, stride_reg, count_reg, off_reg, ooff_reg = e.load_params(
        "IN", "OUT", "STRIDE", "COUNT", "OFF", "OUTOFF"
    )
    i = e.flat_index()
    base = e.reg()
    e.emit("add.u32 {}, {}, {};".format(base, i, off_reg))
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("LOOP")
    idx = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(idx, k, stride_reg, base))
    val = e.load_f32(in_reg, idx)
    e.emit("add.f32 {}, {}, {};".format(acc, acc, val))
    e.emit("add.u32 {}, {}, 1;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, count_reg))
    e.emit("@{} bra LOOP;".format(p))
    final = e.alu_chain(acc, alu) if alu else acc
    out_i = e.reg()
    e.emit("add.u32 {}, {}, {};".format(out_i, i, ooff_reg))
    e.store_f32(out_reg, out_i, final)
    return e.render()


def broadcast_scale(name, alu=1):
    """``OUT[OFF + i] = IN[OFF + i] * SCALARS[SIDX]`` — every consumer
    block reads one scalar produced by a single block (1-to-n from that
    producer).  ``OFF`` selects e.g. a matrix column."""
    e = Emitter(
        name,
        [
            ("IN", "u64"),
            ("SCALARS", "u64"),
            ("OUT", "u64"),
            ("SIDX", "u32"),
            ("OFF", "u32"),
        ],
    )
    in_reg, s_reg, out_reg, sidx_reg, off_reg = e.load_params(
        "IN", "SCALARS", "OUT", "SIDX", "OFF"
    )
    i = e.flat_index()
    idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(idx, i, off_reg))
    scalar = e.load_f32(s_reg, sidx_reg)
    val = e.load_f32(in_reg, idx)
    prod = e.reg("f")
    e.emit("mul.f32 {}, {}, {};".format(prod, val, scalar))
    acc = e.alu_chain(prod, alu)
    e.store_f32(out_reg, idx, acc)
    return e.render()


def fft_stage(name, alu=3):
    """Radix-2 Stockham butterfly stage.

    Thread ``i`` (``i`` in ``[0, HALF)`` by grid sizing) reads
    ``IN[i]`` and ``IN[i + HALF]`` and writes ``OUT[i]`` and
    ``OUT[i + HALF]``.  With equal grids each stage's block ``b`` touches
    exactly the data block ``b`` of the previous stage wrote: 1-to-1.
    """
    e = Emitter(name, [("IN", "u64"), ("OUT", "u64"), ("HALF", "u32")])
    in_reg, out_reg, half_reg = e.load_params("IN", "OUT", "HALF")
    i = e.flat_index()
    hi = e.reg()
    e.emit("add.u32 {}, {}, {};".format(hi, i, half_reg))
    lo_val = e.load_f32(in_reg, i)
    hi_val = e.load_f32(in_reg, hi)
    sum_val = e.reg("f")
    e.emit("add.f32 {}, {}, {};".format(sum_val, lo_val, hi_val))
    dif_val = e.reg("f")
    e.emit("sub.f32 {}, {}, {};".format(dif_val, lo_val, hi_val))
    sum_val = e.alu_chain(sum_val, alu)
    dif_val = e.alu_chain(dif_val, alu)
    e.store_f32(out_reg, i, sum_val)
    e.store_f32(out_reg, hi, dif_val)
    return e.render()


def wavefront_block(name, parents=2, alu=4):
    """One anti-diagonal wavefront level.

    Block ``b`` writes ``CUR[b]``'s block and reads the ``parents``
    neighbouring blocks ``PREV[b], PREV[b-1](, PREV[b-2])`` — producing
    the sliding-window overlapped dependency of wavefront codes
    (Needleman-Wunsch, SOR, Smith-Waterman...).  ``SHIFT`` aligns block
    indices between levels of different widths.
    """
    e = Emitter(
        name, [("PREV", "u64"), ("CUR", "u64"), ("SHIFT", "u32")]
    )
    prev_reg, cur_reg, shift_reg = e.load_params("PREV", "CUR", "SHIFT")
    i = e.flat_index()
    shifted = e.reg()
    e.emit("add.u32 {}, {}, {};".format(shifted, i, shift_reg))
    values = [e.load_f32(prev_reg, shifted)]
    for p in range(1, parents):
        off = e.reg()
        e.emit("sub.u32 {}, {}, {};".format(off, shifted, "%ntid.x"))
        values.append(e.load_f32(prev_reg, off))
        shifted = off
    acc = e.combine(values)
    acc = e.alu_chain(acc, alu)
    out_i = e.reg()
    e.emit("add.u32 {}, {}, {};".format(out_i, i, shift_reg))
    e.store_f32(cur_reg, out_i, acc)
    return e.render()


def gaussian_fan1(name):
    """Fan1: compute multipliers ``M[i] = A[i*N + T] / A[T*N + T]`` for
    rows ``i`` below the pivot ``T`` (one small 1-D kernel)."""
    e = Emitter(name, [("A", "u64"), ("M", "u64"), ("N", "u32"), ("T", "u32")])
    a_reg, m_reg, n_reg, t_reg = e.load_params("A", "M", "N", "T")
    i = e.flat_index()
    row = e.reg()
    e.emit("add.u32 {}, {}, {};".format(row, i, t_reg))
    ridx = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(ridx, row, n_reg, t_reg))
    pividx = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(pividx, t_reg, n_reg, t_reg))
    elem = e.load_f32(a_reg, ridx)
    piv = e.load_f32(a_reg, pividx)
    ratio = e.reg("f")
    e.emit("div.f32 {}, {}, {};".format(ratio, elem, piv))
    e.store_f32(m_reg, row, ratio)
    return e.render()


def gaussian_fan2(name, alu=1):
    """Fan2: eliminate — ``A[r][c] -= M[r] * A[T][c]`` over the trailing
    submatrix, one row per thread block row."""
    e = Emitter(name, [("A", "u64"), ("M", "u64"), ("N", "u32"), ("T", "u32")])
    a_reg, m_reg, n_reg, t_reg = e.load_params("A", "M", "N", "T")
    # row = ctaid.y + T + 1 ; col = flat x index + T
    ry = e.reg()
    e.emit("mov.u32 {}, %ctaid.y;".format(ry))
    row = e.reg()
    e.emit("add.u32 {}, {}, {};".format(row, ry, t_reg))
    row1 = e.reg()
    e.emit("add.u32 {}, {}, 1;".format(row1, row))
    cx = e.reg()
    e.emit("mov.u32 {}, %ctaid.x;".format(cx))
    col0 = e.reg()
    e.emit("mad.lo.u32 {}, {}, %ntid.x, %tid.x;".format(col0, cx))
    col = e.reg()
    e.emit("add.u32 {}, {}, {};".format(col, col0, t_reg))
    target = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(target, row1, n_reg, col))
    pivrow = e.reg()
    e.emit("mad.lo.u32 {}, {}, {}, {};".format(pivrow, t_reg, n_reg, col))
    mult = e.load_f32(m_reg, row1)
    pivval = e.load_f32(a_reg, pivrow)
    cur = e.load_f32(a_reg, target)
    prod = e.reg("f")
    e.emit("mul.f32 {}, {}, {};".format(prod, mult, pivval))
    upd = e.reg("f")
    e.emit("sub.f32 {}, {}, {};".format(upd, cur, prod))
    upd = e.alu_chain(upd, alu)
    e.store_f32(a_reg, target, upd)
    return e.render()


def full_read_map(name, alu=2):
    """Each thread block reads the *entire* input buffer and writes its
    own flat output block.

    This is the access shape of dense (fully-connected) neural-network
    layers and of convolutions partitioned by output channel: every
    output block depends on every producer block — Table I's fully
    connected pattern.  ``SPAN`` (elements) is a launch parameter;
    ``INOFF``/``OUTOFF`` shift the read window and write block.
    """
    e = Emitter(
        name,
        [
            ("IN", "u64"),
            ("OUT", "u64"),
            ("SPAN", "u32"),
            ("INOFF", "u32"),
            ("OUTOFF", "u32"),
        ],
    )
    in_reg, out_reg, span_reg, inoff_reg, outoff_reg = e.load_params(
        "IN", "OUT", "SPAN", "INOFF", "OUTOFF"
    )
    t = e.reg()
    e.emit("mov.u32 {}, %tid.x;".format(t))
    base = e.reg()
    e.emit("add.u32 {}, {}, {};".format(base, t, inoff_reg))
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("LOOP")
    idx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(idx, k, base))
    val = e.load_f32(in_reg, idx)
    e.emit("add.f32 {}, {}, {};".format(acc, acc, val))
    e.emit("add.u32 {}, {}, %ntid.x;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, span_reg))
    e.emit("@{} bra LOOP;".format(p))
    final = e.alu_chain(acc, alu)
    flat = e.flat_index()
    out_i = e.reg()
    e.emit("add.u32 {}, {}, {};".format(out_i, flat, outoff_reg))
    e.store_f32(out_reg, out_i, final)
    return e.render()


def matmul_colblock(name, group_span_elems, alu=1):
    """Column-block matrix multiply (column-major storage).

    Launched on a 2-D grid ``(blocks_per_group, num_groups)``.  Block
    ``(bx, by)`` reads the whole column *group* ``by`` of ``INGROUP``
    (the tiling reuse window — n-group fully connected against the
    producer of ``INGROUP``), loops over the full ``INFULL`` matrix
    (``SPAN`` elements), and writes its own flat column block of ``OUT``.
    """
    e = Emitter(
        name,
        [("INGROUP", "u64"), ("INFULL", "u64"), ("OUT", "u64"), ("SPAN", "u32")],
    )
    g_reg, f_reg, out_reg, span_reg = e.load_params(
        "INGROUP", "INFULL", "OUT", "SPAN"
    )
    gy = e.reg()
    e.emit("mov.u32 {}, %ctaid.y;".format(gy))
    gbase = e.reg()
    e.emit("mul.lo.u32 {}, {}, {};".format(gbase, gy, group_span_elems))
    t = e.reg()
    e.emit("mov.u32 {}, %tid.x;".format(t))
    k = "%k"
    acc = "%facc"
    e.emit("mov.u32 {}, 0;".format(k))
    e.emit("mov.f32 {}, 0.0;".format(acc))
    e.label("GLOOP")
    gidx0 = e.reg()
    e.emit("add.u32 {}, {}, {};".format(gidx0, k, t))
    gidx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(gidx, gbase, gidx0))
    gval = e.load_f32(g_reg, gidx)
    e.emit("add.f32 {}, {}, {};".format(acc, acc, gval))
    e.emit("add.u32 {}, {}, %ntid.x;".format(k, k))
    p = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(p, k, group_span_elems))
    e.emit("@{} bra GLOOP;".format(p))
    j = "%j"
    e.emit("mov.u32 {}, 0;".format(j))
    e.label("FLOOP")
    fidx = e.reg()
    e.emit("add.u32 {}, {}, {};".format(fidx, j, t))
    fval = e.load_f32(f_reg, fidx)
    e.emit("add.f32 {}, {}, {};".format(acc, acc, fval))
    e.emit("add.u32 {}, {}, %ntid.x;".format(j, j))
    q = e.reg("p")
    e.emit("setp.lt.u32 {}, {}, {};".format(q, j, span_reg))
    e.emit("@{} bra FLOOP;".format(q))
    final = e.alu_chain(acc, alu)
    bx = e.reg()
    e.emit("mov.u32 {}, %ctaid.x;".format(bx))
    flat_b = e.reg()
    e.emit("mad.lo.u32 {}, {}, %nctaid.x, {};".format(flat_b, gy, bx))
    out_i = e.reg()
    e.emit("mad.lo.u32 {}, {}, %ntid.x, %tid.x;".format(out_i, flat_b))
    e.store_f32(out_reg, out_i, final)
    return e.render()


def indirect_gather(name):
    """``OUT[i] = DATA[IDX[i]]`` — the canonical non-static access that
    Algorithm 1 must flag (the paper's A[B[i]] limitation)."""
    e = Emitter(name, [("DATA", "u64"), ("IDX", "u64"), ("OUT", "u64")])
    d_reg, i_reg, o_reg = e.load_params("DATA", "IDX", "OUT")
    i = e.flat_index()
    addr = e.address(i_reg, i)
    j = e.reg()
    e.emit("ld.global.u32 {}, [{}];".format(j, addr))
    val = e.load_f32(d_reg, j)
    e.store_f32(o_reg, i, val)
    return e.render()


# ----------------------------------------------------------------------
# seeded fuzz-application generator (repro.fuzz)
# ----------------------------------------------------------------------

#: generator families the fuzzer draws from, with draw weights.  The mix
#: is biased toward the affine shapes (tier-1 closed form) with regular
#: visits to the 2-D group shape (tier 2) and the indirect shape
#: (Algorithm-1 fallback), so every fastpath tier is exercised.
FUZZ_GENERATORS = (
    ("elementwise", 4),
    ("stencil", 2),
    ("group", 2),
    ("matvec", 1),
    ("reduce", 1),
    ("indirect", 1),
)

_FUZZ_MIN_KERNELS = 2
_FUZZ_MAX_KERNELS = 6
_FUZZ_BLOCKS = (32, 64)
_FUZZ_GRIDS = (2, 3, 4, 6, 8, 12, 16)
_FUZZ_GROUP_WIDTHS = (2, 4)
_FUZZ_GROUP_COUNTS = (2, 3, 4)


@dataclass(frozen=True)
class FuzzKernel:
    """One drawn kernel launch: generator family, shape, buffer wiring.

    ``inputs``/``output`` are indices into the spec's shared buffer
    pool — aliasing between kernels (consuming an earlier output,
    overwriting a live buffer) is where the interesting dependency
    graphs come from.  ``params`` are the generator knobs as sorted
    ``(name, value)`` pairs so the dataclass stays hashable and
    order-independent.
    """

    gen: str
    grid: Tuple[int, int, int]
    block: int
    inputs: Tuple[int, ...]
    output: int
    params: Tuple[Tuple[str, int], ...] = ()

    @property
    def num_tbs(self):
        return self.grid[0] * self.grid[1] * self.grid[2]

    def param(self, name, default=0):
        return dict(self.params).get(name, default)

    def as_dict(self):
        return {
            "gen": self.gen,
            "grid": list(self.grid),
            "block": self.block,
            "inputs": list(self.inputs),
            "output": self.output,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            gen=str(data["gen"]),
            grid=tuple(int(v) for v in data["grid"]),
            block=int(data["block"]),
            inputs=tuple(int(v) for v in data["inputs"]),
            output=int(data["output"]),
            params=tuple(sorted(
                (str(k), int(v)) for k, v in dict(data["params"]).items()
            )),
        )


@dataclass(frozen=True)
class FuzzSpec:
    """A deterministic multi-kernel fuzz application.

    ``from_seed`` draws everything from one ``random.Random(seed)``
    stream, so the same seed regenerates byte-identical PTX on any
    ``PYTHONHASHSEED`` and in any worker process (property-tested).
    ``elems`` is the shared per-buffer element count, sized to cover
    every kernel's footprint.  Shrunk variants (``repro.fuzz.shrink``)
    are no longer regenerable from the seed — they round-trip through
    ``to_dict``/``from_dict`` in ``repro-fuzz-case`` files instead.
    """

    seed: int
    kernels: Tuple[FuzzKernel, ...]
    num_buffers: int
    elems: int

    @classmethod
    def from_seed(cls, seed):
        seed = int(seed)
        rng = random.Random(seed)
        num_kernels = rng.randint(_FUZZ_MIN_KERNELS, _FUZZ_MAX_KERNELS)
        kernels = []
        num_buffers = 1  # buffer 0 is the h2d-initialized input
        last_output = 0
        for _ in range(num_kernels):
            gen = _weighted_choice(rng, FUZZ_GENERATORS)
            block = rng.choice(_FUZZ_BLOCKS)
            if gen == "group":
                grid = (rng.choice(_FUZZ_GROUP_WIDTHS),
                        rng.choice(_FUZZ_GROUP_COUNTS), 1)
            else:
                grid = (rng.choice(_FUZZ_GRIDS), 1, 1)
            num_inputs = {
                "elementwise": 2 if rng.random() < 0.35 else 1,
                "stencil": 1, "matvec": 2, "reduce": 1,
                "group": 1, "indirect": 2,
            }[gen]
            inputs = []
            for j in range(num_inputs):
                if j == 0 and rng.random() < 0.65:
                    inputs.append(last_output)  # chain onto the producer
                else:
                    inputs.append(rng.randrange(num_buffers))
            if rng.random() < 0.75:
                output = num_buffers
                num_buffers += 1
            else:
                output = rng.randrange(num_buffers)  # alias a live buffer
            params = _draw_params(rng, gen, grid, block, inputs)
            kernels.append(FuzzKernel(
                gen=gen, grid=grid, block=block, inputs=tuple(inputs),
                output=output, params=tuple(sorted(params.items())),
            ))
            last_output = output
        kernels = tuple(kernels)
        return cls(
            seed=seed,
            kernels=kernels,
            num_buffers=num_buffers,
            elems=_required_elems(kernels),
        )

    def to_dict(self):
        return {
            "seed": self.seed,
            "num_buffers": self.num_buffers,
            "elems": self.elems,
            "kernels": [k.as_dict() for k in self.kernels],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            seed=int(data["seed"]),
            kernels=tuple(
                FuzzKernel.from_dict(k) for k in data["kernels"]
            ),
            num_buffers=int(data["num_buffers"]),
            elems=int(data["elems"]),
        )


def _weighted_choice(rng, table):
    total = sum(weight for _, weight in table)
    point = rng.random() * total
    for name, weight in table:
        point -= weight
        if point < 0:
            return name
    return table[-1][0]


def _draw_params(rng, gen, grid, block, inputs):
    if gen == "elementwise":
        params = {"alu": rng.randint(1, 3)}
        for j in range(len(inputs)):
            params["shift{}".format(j)] = rng.choice((-2, -1, 0, 0, 1, 2))
        return params
    if gen == "stencil":
        return {"radius": rng.choice((1, 2)), "alu": rng.randint(1, 3)}
    if gen == "matvec":
        return {"k": rng.choice((4, 8))}
    if gen == "reduce":
        return {
            "stride": block * rng.choice((1, 2)),
            "count": rng.randint(2, 4),
            "off": rng.choice((0, block)),
        }
    if gen == "group":
        return {"alu": rng.randint(1, 2)}
    if gen == "indirect":
        return {}
    raise ValueError("unknown fuzz generator %r" % gen)


def _required_elems(kernels):
    """Shared buffer size covering every kernel's access footprint."""
    needed = 256
    for k in kernels:
        flat = k.num_tbs * k.block
        if k.gen == "elementwise":
            span = flat + 4
        elif k.gen == "stencil":
            span = flat + 2 * k.param("radius", 1)
        elif k.gen == "matvec":
            span = flat * k.param("k", 4)
        elif k.gen == "reduce":
            span = (k.param("off") + flat
                    + (k.param("count", 2) - 1) * k.param("stride", k.block) + 1)
        else:  # group / indirect read at most the flat index space
            span = flat
        needed = max(needed, span)
    return needed + 16


def fuzz_kernel_source(index, kernel):
    """The PTX text for one drawn kernel (name is index-unique because
    ``AppBuilder.register_kernel`` dedupes by kernel name)."""
    name = "fz{}_{}".format(index, kernel.gen)
    if kernel.gen == "elementwise":
        shifts = [kernel.param("shift{}".format(j))
                  for j in range(len(kernel.inputs))]
        return elementwise(name, num_inputs=len(kernel.inputs),
                           shifts=shifts, alu=kernel.param("alu", 1))
    if kernel.gen == "stencil":
        return stencil1d(name, radius=kernel.param("radius", 1),
                         alu=kernel.param("alu", 1))
    if kernel.gen == "matvec":
        return matvec(name)
    if kernel.gen == "reduce":
        return reduce_columns(name)
    if kernel.gen == "group":
        return group_read(name, group_span_elems=kernel.grid[0] * kernel.block,
                          alu=kernel.param("alu", 1))
    if kernel.gen == "indirect":
        return indirect_gather(name)
    raise ValueError("unknown fuzz generator %r" % kernel.gen)


def _fuzz_args(kernel, buffers):
    bufs = [buffers[i] for i in kernel.inputs]
    out = buffers[kernel.output]
    if kernel.gen == "elementwise":
        args = {"IN{}".format(j): buf for j, buf in enumerate(bufs)}
        args["OUT"] = out
        return args
    if kernel.gen == "stencil":
        return {"IN": bufs[0], "OUT": out}
    if kernel.gen == "matvec":
        return {"A": bufs[0], "X": bufs[1], "Y": out,
                "K": kernel.param("k", 4)}
    if kernel.gen == "reduce":
        return {"IN": bufs[0], "OUT": out,
                "STRIDE": kernel.param("stride", kernel.block),
                "COUNT": kernel.param("count", 2),
                "OFF": kernel.param("off"), "OUTOFF": 0}
    if kernel.gen == "group":
        return {"IN": bufs[0], "OUT": out}
    if kernel.gen == "indirect":
        return {"DATA": bufs[0], "IDX": bufs[1], "OUT": out}
    raise ValueError("unknown fuzz generator %r" % kernel.gen)


def fuzz_module_source(spec):
    """All kernels of a spec as one parse_module-compatible PTX text."""
    return "\n".join(
        fuzz_kernel_source(i, k) for i, k in enumerate(spec.kernels)
    )


def fuzz_module_digest(seed):
    """sha256 over the regenerated PTX of ``FuzzSpec.from_seed(seed)``.

    Module-level and picklable on purpose: the determinism property
    tests fan this out over worker processes and subprocesses with
    different ``PYTHONHASHSEED`` values and compare digests.
    """
    source = fuzz_module_source(FuzzSpec.from_seed(seed))
    return "sha256:" + hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_fuzz_app(spec):
    """Materialize a :class:`FuzzSpec` as a real application."""
    # Imported here: base pulls in the host/ptx layers, which the plain
    # kernel generators above must stay independent of.
    from repro.workloads.base import AppBuilder

    builder = AppBuilder("fuzz-{}".format(spec.seed))
    buffers = [
        builder.alloc("B{}".format(i), spec.elems * 4)
        for i in range(spec.num_buffers)
    ]
    builder.h2d(buffers[0])
    for i, kernel in enumerate(spec.kernels):
        builder.launch(
            fuzz_kernel_source(i, kernel),
            grid=kernel.grid,
            block=kernel.block,
            args=_fuzz_args(kernel, buffers),
            intensity=2.0,
            tag="fz{}".format(i),
        )
    builder.d2h(buffers[spec.kernels[-1].output])
    return builder.build(
        fuzz_seed=spec.seed, fuzz_kernels=len(spec.kernels)
    )


@functools.lru_cache(maxsize=256)
def fuzz_workload_spec(seed):
    """The hidden registry row behind ``get_workload("fuzz-<seed>")``.

    Resolvable by name (so the CLI and the daemon take it like any
    workload) while staying out of ``all_workloads()`` and therefore
    out of ``list``.
    """
    from repro.workloads.registry import WorkloadSpec

    spec = FuzzSpec.from_seed(seed)

    def build(**_overrides):
        return build_fuzz_app(spec)

    return WorkloadSpec(
        name="fuzz-{}".format(spec.seed),
        description="seeded fuzz application ({} kernels, {} buffers)".format(
            len(spec.kernels), spec.num_buffers
        ),
        suite="fuzz",
        paper_kernels=len(spec.kernels),
        paper_patterns=(),
        builder=build,
    )
