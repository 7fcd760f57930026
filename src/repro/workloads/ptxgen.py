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

:mod:`repro.workloads.fuzzgen` composes them into seeded random
multi-kernel applications for the differential fuzzing harness.
"""

import itertools


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
