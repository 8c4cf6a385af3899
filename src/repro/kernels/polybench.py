"""Polybench-GPU applications: dense linear-algebra kernels.

Ten applications matching the paper's Polybench abbreviations: ATA
(atax), BIC (bicg), CON (2-D convolution), COR (correlation), GES
(gesummv), SYK (syrk), SYR (syr2k), GEM (gemm), MVT and 2MM. These are
the memory-intensive apps where the paper sees the largest chip-level
reductions (ATA, BIC, CON, COR, GES, SYK, SYR all appear in its
"significant reduction" list).
"""

from __future__ import annotations

import numpy as np

from .api import register
from .data import narrow_ints, smooth_f32
from .helpers import addr_of, dot_product_step, gid_addr
from ..arch.engine import Launch

_N = 512          # vector length / matrix rows (2 blocks x 8 warps x 32)
_K = 24           # inner-product depth per thread
_BLOCKS = 2
_WARPS = 8


def _alloc_matrix(mem, rng, name, rows=_N, cols=_K, base=1.0):
    return mem.alloc_array(
        smooth_f32(rows * cols, rng, base=base).view(np.uint32), name
    )


def _row_dot_kernel(A, x, y, cols, alpha=None, acc_init=0.0):
    """y[i] = (alpha *) dot(A[i, :], x) — one row per thread."""

    def body(w):
        gid = w.global_thread_idx()
        row_base = w.imul(gid, cols * 4)
        acc = w.fconst(acc_init)
        for k in range(cols):
            a = w.ld_global(w.iadd(row_base, A.base + 4 * k))
            b = w.ld_global(w.const(x.base + 4 * k))
            acc = w.ffma(a, b, acc)
        if alpha is not None:
            acc = w.fmul(acc, alpha)
        w.st_global(gid_addr(w, y.base), acc)

    return body


@register("ATA", "polybench", "atax: y = A^T (A x)")
def build_atax(mem, rng):
    A = _alloc_matrix(mem, rng, "A")
    x = mem.alloc_array(smooth_f32(_K, rng).view(np.uint32), "x")
    tmp = mem.alloc(_N * 4, "tmp")
    y = mem.alloc(_N * 4, "y")

    def transpose_body(w):
        # y[j] = sum_i A[i, j] * tmp[i], strided column walk.
        gid = w.global_thread_idx()
        col = w.iand(gid, _K - 1)
        acc = w.fconst(0.0)
        for i in range(0, _N, _N // 16):
            a = w.ld_global(addr_of(w, A.base + i * _K * 4, col))
            t = w.ld_global(w.const(tmp.base + i * 4))
            acc = w.ffma(a, t, acc)
        w.st_global(gid_addr(w, y.base), acc)

    return [
        Launch("atax.Ax", _row_dot_kernel(A, x, tmp, _K), _BLOCKS, _WARPS),
        Launch("atax.ATy", transpose_body, _BLOCKS, _WARPS),
    ]


@register("BIC", "polybench", "bicg: q = A p ; s = A^T r")
def build_bicg(mem, rng):
    A = _alloc_matrix(mem, rng, "A")
    p = mem.alloc_array(smooth_f32(_K, rng, base=0.5).view(np.uint32), "p")
    r = mem.alloc_array(smooth_f32(_N, rng, base=0.8).view(np.uint32), "r")
    q = mem.alloc(_N * 4, "q")
    s = mem.alloc(_N * 4, "s")

    def s_body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, _K - 1)
        acc = w.fconst(0.0)
        for i in range(0, _N, _N // 12):
            a = w.ld_global(addr_of(w, A.base + i * _K * 4, col))
            rv = w.ld_global(w.const(r.base + i * 4))
            acc = w.ffma(a, rv, acc)
        w.st_global(gid_addr(w, s.base), acc)

    return [
        Launch("bicg.q", _row_dot_kernel(A, p, q, _K), _BLOCKS, _WARPS),
        Launch("bicg.s", s_body, _BLOCKS, _WARPS),
    ]


@register("GES", "polybench", "gesummv: y = alpha A x + beta B x")
def build_gesummv(mem, rng):
    A = _alloc_matrix(mem, rng, "A", base=1.2)
    B = _alloc_matrix(mem, rng, "B", base=0.7)
    x = mem.alloc_array(smooth_f32(_K, rng).view(np.uint32), "x")
    y = mem.alloc(_N * 4, "y")

    def body(w):
        gid = w.global_thread_idx()
        row = w.imul(gid, _K * 4)
        acc_a = w.fconst(0.0)
        acc_b = w.fconst(0.0)
        for k in range(_K):
            xv = w.ld_global(w.const(x.base + 4 * k))
            a = w.ld_global(w.iadd(row, A.base + 4 * k))
            acc_a = w.ffma(a, xv, acc_a)
            b = w.ld_global(w.iadd(row, B.base + 4 * k))
            acc_b = w.ffma(b, xv, acc_b)
        alpha = w.fconst(1.5)
        beta = w.fconst(1.2)
        out = w.fadd(w.fmul(alpha, acc_a), w.fmul(beta, acc_b))
        w.st_global(gid_addr(w, y.base), out)

    return [Launch("gesummv", body, _BLOCKS, _WARPS)]


@register("MVT", "polybench", "mvt: x1 += A y1 ; x2 += A^T y2")
def build_mvt(mem, rng):
    A = _alloc_matrix(mem, rng, "A")
    y1 = mem.alloc_array(smooth_f32(_K, rng).view(np.uint32), "y1")
    y2 = mem.alloc_array(smooth_f32(_N, rng).view(np.uint32), "y2")
    x1 = mem.alloc_array(smooth_f32(_N, rng, base=0.1).view(np.uint32), "x1")
    x2 = mem.alloc_array(smooth_f32(_N, rng, base=0.1).view(np.uint32), "x2")

    def x1_body(w):
        gid = w.global_thread_idx()
        row = w.imul(gid, _K * 4)
        acc = w.ld_global(gid_addr(w, x1.base))
        for k in range(_K):
            a = w.ld_global(w.iadd(row, A.base + 4 * k))
            yv = w.ld_global(w.const(y1.base + 4 * k))
            acc = w.ffma(a, yv, acc)
        w.st_global(gid_addr(w, x1.base), acc)

    def x2_body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, _K - 1)
        acc = w.ld_global(gid_addr(w, x2.base))
        for i in range(0, _N, _N // 12):
            a = w.ld_global(addr_of(w, A.base + i * _K * 4, col))
            yv = w.ld_global(w.const(y2.base + i * 4))
            acc = w.ffma(a, yv, acc)
        w.st_global(gid_addr(w, x2.base), acc)

    return [
        Launch("mvt.x1", x1_body, _BLOCKS, _WARPS),
        Launch("mvt.x2", x2_body, _BLOCKS, _WARPS),
    ]


def _gemm_launch(name, A, B, C, k_depth, cols, alpha=1.0, beta=0.0):
    """C[r,c] = alpha * dot(A[r,:], B[:,c]) + beta * C[r,c]."""

    def body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, cols - 1)
        row = w.shr(gid, cols.bit_length() - 1)
        a_row = w.imul(row, k_depth * 4)
        acc = w.fconst(0.0)
        for k in range(k_depth):
            a = w.ld_global(w.iadd(a_row, A.base + 4 * k))
            b = w.ld_global(addr_of(w, B.base + k * cols * 4, col))
            acc = w.ffma(a, b, acc)
        out_addr = gid_addr(w, C.base)
        if beta:
            old = w.ld_global(out_addr)
            acc = w.ffma(w.fconst(beta), old,
                         w.fmul(w.fconst(alpha), acc))
        w.st_global(out_addr, acc)

    return Launch(name, body, _BLOCKS, _WARPS)


@register("GEM", "polybench", "gemm: C = alpha A B + beta C")
def build_gemm(mem, rng):
    cols = 32
    A = _alloc_matrix(mem, rng, "A", rows=_N // cols, cols=_K)
    B = _alloc_matrix(mem, rng, "B", rows=_K, cols=cols, base=0.9)
    C = mem.alloc_array(smooth_f32(_N, rng, base=0.2).view(np.uint32), "C")
    return [_gemm_launch("gemm", A, B, C, _K, cols, 1.1, 0.9)]


@register("2MM", "polybench", "2mm: D = A B ; E = D C")
def build_2mm(mem, rng):
    cols = 32
    A = _alloc_matrix(mem, rng, "A", rows=_N // cols, cols=_K)
    B = _alloc_matrix(mem, rng, "B", rows=_K, cols=cols, base=0.8)
    C = _alloc_matrix(mem, rng, "C", rows=_K, cols=cols, base=1.4)
    D = mem.alloc(_N * 4, "D")
    E = mem.alloc(_N * 4, "E")
    return [
        _gemm_launch("2mm.D", A, B, D, _K, cols),
        _gemm_launch("2mm.E", D, C, E, _K, cols),
    ]


@register("SYK", "polybench", "syrk: C = alpha A A^T + beta C")
def build_syrk(mem, rng):
    cols = 32
    # Rows are read both as `row` (gid >> 5, _N // cols of them) and as
    # `col` (gid & 31, cols of them), so A holds the larger count.
    A = _alloc_matrix(mem, rng, "A", rows=max(_N // cols, cols), cols=_K)
    C = mem.alloc_array(smooth_f32(_N, rng, base=0.3).view(np.uint32), "C")

    def body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, cols - 1)
        row = w.shr(gid, 5)
        a_row = w.imul(row, _K * 4)
        a_col = w.imul(col, _K * 4)
        acc = w.fconst(0.0)
        for k in range(_K):
            ai = w.ld_global(w.iadd(a_row, A.base + 4 * k))
            aj = w.ld_global(w.iadd(a_col, A.base + 4 * k))
            acc = w.ffma(ai, aj, acc)
        out_addr = gid_addr(w, C.base)
        old = w.ld_global(out_addr)
        out = w.ffma(w.fconst(0.8), old, w.fmul(w.fconst(1.3), acc))
        w.st_global(out_addr, out)

    return [Launch("syrk", body, _BLOCKS, _WARPS)]


@register("SYR", "polybench", "syr2k: C = alpha(A B^T + B A^T) + beta C")
def build_syr2k(mem, rng):
    # Rows are read both as `row` (gid >> 5) and as `col` (gid & 31),
    # so A and B hold the larger of the two row counts.
    rows = max(_N // 32, 32)
    A = _alloc_matrix(mem, rng, "A", rows=rows, cols=_K)
    B = _alloc_matrix(mem, rng, "B", rows=rows, cols=_K, base=0.6)
    C = mem.alloc_array(smooth_f32(_N, rng, base=0.4).view(np.uint32), "C")

    def body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, 31)
        row = w.shr(gid, 5)
        a_row = w.imul(row, _K * 4)
        b_col = w.imul(col, _K * 4)
        acc = w.fconst(0.0)
        for k in range(_K):
            ai = w.ld_global(w.iadd(a_row, A.base + 4 * k))
            bj = w.ld_global(w.iadd(b_col, B.base + 4 * k))
            acc = w.ffma(ai, bj, acc)
            bi = w.ld_global(w.iadd(a_row, B.base + 4 * k))
            aj = w.ld_global(w.iadd(b_col, A.base + 4 * k))
            acc = w.ffma(bi, aj, acc)
        out_addr = gid_addr(w, C.base)
        old = w.ld_global(out_addr)
        w.st_global(out_addr, w.ffma(w.fconst(0.7), old, acc))

    return [Launch("syr2k", body, _BLOCKS, _WARPS)]


@register("COR", "polybench", "correlation: column stats + corr matrix")
def build_correlation(mem, rng):
    cols = 32
    rows = _K
    Data = _alloc_matrix(mem, rng, "data", rows=rows, cols=cols, base=5.0)
    mean = mem.alloc(cols * 4, "mean")
    corr = mem.alloc(_N * 4, "corr")

    def mean_body(w):
        gid = w.global_thread_idx()
        col = w.iand(gid, cols - 1)
        acc = w.fconst(0.0)
        for r in range(rows):
            v = w.ld_global(addr_of(w, Data.base + r * cols * 4, col))
            acc = w.fadd(acc, v)
        acc = w.fmul(acc, 1.0 / rows)
        pred = w.setp_lt(gid, w.const(cols))
        with w.diverge(pred):
            w.st_global(gid_addr(w, mean.base), acc)

    def corr_body(w):
        gid = w.global_thread_idx()
        ci = w.iand(gid, cols - 1)
        cj = w.iand(w.shr(gid, 5), cols - 1)
        mi = w.ld_global(addr_of(w, mean.base, ci))
        mj = w.ld_global(addr_of(w, mean.base, cj))
        acc = w.fconst(0.0)
        for r in range(rows):
            vi = w.ld_global(addr_of(w, Data.base + r * cols * 4, ci))
            vj = w.ld_global(addr_of(w, Data.base + r * cols * 4, cj))
            di = w.fsub(vi, mi)
            dj = w.fsub(vj, mj)
            acc = w.ffma(di, dj, acc)
        w.st_global(gid_addr(w, corr.base), w.fmul(acc, 1.0 / rows))

    return [
        Launch("corr.mean", mean_body, _BLOCKS, _WARPS),
        Launch("corr.corr", corr_body, _BLOCKS, _WARPS),
    ]


@register("CON", "polybench", "2-D 3x3 convolution over a smooth field")
def build_convolution(mem, rng):
    width = 64
    height = 40
    src = mem.alloc_array(
        smooth_f32(width * height, rng, base=3.0).view(np.uint32), "src"
    )
    dst = mem.alloc(width * height * 4, "dst")
    taps = mem.alloc_array(
        np.asarray([0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05],
                   dtype=np.float32).view(np.uint32), "taps"
    )

    def body(w):
        gid = w.global_thread_idx()
        x = w.iand(gid, width - 1)
        y = w.iadd(w.shr(gid, 6), 1)          # skip the top border row
        row_addr = w.imad(y, width * 4, w.imul(x, 4))
        acc = w.fconst(0.0)
        tap = 0
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                off = dy * width * 4 + dx * 4
                # The source image is bound to a texture (2-D locality).
                v = w.ld_tex(w.iadd(row_addr, src.base + off))
                t = w.ld_const(w.const(taps.base + tap * 4))
                acc = w.ffma(v, t, acc)
                tap += 1
        out = w.iadd(row_addr, dst.base)
        inner = w.setp_lt(x, w.const(width - 1))
        with w.diverge(inner):
            w.st_global(out, acc)

    return [Launch("conv2d", body, _BLOCKS, _WARPS)]
