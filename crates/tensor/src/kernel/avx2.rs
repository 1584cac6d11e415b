//! Hand-written AVX2 implementations of the kernel primitives.
//!
//! Every function here is constrained by the bit-identity contract in the
//! [`super`] module docs: it must produce exactly the bytes the matching
//! [`super::scalar`] function produces, for every input including
//! `±0.0`, `NaN`, and `±inf`. The techniques that make that possible:
//!
//! * **No FMA.** `_mm256_fmadd_ps` rounds once where `mul` + `add`
//!   rounds twice; we always use the two-instruction form because the
//!   scalar reference does.
//! * **Vectorize across independent outputs only.** Elementwise kernels
//!   and the ikj-order GEMMs touch 8 unrelated output elements per
//!   vector op, so per-element operation order is unchanged.
//! * **The transpose trick for GEMM-NT.** A dot product is a true
//!   reduction, so instead of reassociating one dot each lane owns one
//!   output column: B is transposed (8×8 register tiles) into a packed
//!   panel, then a broadcast-multiply per `p`. Each lane accumulates its
//!   column in strictly sequential `p` order — the same order as one
//!   scalar dot.
//! * **Preserved zero-skips.** The GEMM `av == 0.0` skip and the 2-bit
//!   decoder's "no write for code 0" are kept (via compaction or blend):
//!   `c + 0.0` is not a bitwise no-op when `c` is `-0.0`.
//! * **Ordered-quiet compares.** `_CMP_GE_OQ`/`_CMP_LE_OQ` return false
//!   for NaN, matching scalar `>=`/`<=`; `_mm256_max_ps(x, acc)` keeps
//!   `acc` when `x` is NaN, matching `f32::max`'s NaN-skipping fold.
//!
//! # Safety
//! Every function is `unsafe` and requires the caller to have verified
//! AVX2 support (the dispatcher in [`super`] does, once, through a
//! `OnceLock`). Slice length preconditions are `debug_assert`ed to
//! mirror the scalar reference.
#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;
use std::ops::Range;

/// 8-lane block count helper: the largest multiple of `w` ≤ `n`.
#[inline(always)]
fn blocks(n: usize, w: usize) -> usize {
    n - n % w
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

/// `y[i] += alpha * x[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n8 = blocks(y.len(), 8);
    let va = _mm256_set1_ps(alpha);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let vy = _mm256_loadu_ps(yp.add(i));
        let vx = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
        i += 8;
    }
    for i in n8..y.len() {
        y[i] += alpha * x[i];
    }
}

/// `y[i] *= s` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn scale(y: &mut [f32], s: f32) {
    let n8 = blocks(y.len(), 8);
    let vs = _mm256_set1_ps(s);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(_mm256_loadu_ps(yp.add(i)), vs));
        i += 8;
    }
    for v in &mut y[n8..] {
        *v *= s;
    }
}

/// `y[i] += x[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n8 = blocks(y.len(), 8);
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), _mm256_loadu_ps(xp.add(i)));
        _mm256_storeu_ps(yp.add(i), s);
        i += 8;
    }
    for i in n8..y.len() {
        y[i] += x[i];
    }
}

/// `y[i] += b` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_scalar(y: &mut [f32], b: f32) {
    let n8 = blocks(y.len(), 8);
    let vb = _mm256_set1_ps(b);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(_mm256_loadu_ps(yp.add(i)), vb));
        i += 8;
    }
    for v in &mut y[n8..] {
        *v += b;
    }
}

/// `out[i] = a[i] + b[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn add_into(out: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    let n8 = blocks(out.len(), 8);
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        _mm256_storeu_ps(op.add(i), s);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = a[i] + b[i];
    }
}

/// `out[i] = a[i] + alpha * b[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn scale_add(out: &mut [f32], a: &[f32], alpha: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    let n8 = blocks(out.len(), 8);
    let va = _mm256_set1_ps(alpha);
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(
            _mm256_loadu_ps(ap.add(i)),
            _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(i))),
        );
        _mm256_storeu_ps(op.add(i), s);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = a[i] + alpha * b[i];
    }
}

/// `out[i] = w[i] - step * g[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn sgd_step(out: &mut [f32], w: &[f32], g: &[f32], step: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    let n8 = blocks(out.len(), 8);
    let vs = _mm256_set1_ps(step);
    let (wp, gp, op) = (w.as_ptr(), g.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let d = _mm256_sub_ps(
            _mm256_loadu_ps(wp.add(i)),
            _mm256_mul_ps(vs, _mm256_loadu_ps(gp.add(i))),
        );
        _mm256_storeu_ps(op.add(i), d);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = w[i] - step * g[i];
    }
}

/// `v[i] = mu * v[i] + g[i]` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn decay_add(v: &mut [f32], mu: f32, g: &[f32]) {
    debug_assert_eq!(v.len(), g.len());
    let n8 = blocks(v.len(), 8);
    let vm = _mm256_set1_ps(mu);
    let (vp, gp) = (v.as_mut_ptr(), g.as_ptr());
    let mut i = 0;
    while i < n8 {
        let s = _mm256_add_ps(
            _mm256_mul_ps(vm, _mm256_loadu_ps(vp.add(i))),
            _mm256_loadu_ps(gp.add(i)),
        );
        _mm256_storeu_ps(vp.add(i), s);
        i += 8;
    }
    for i in n8..v.len() {
        v[i] = mu * v[i] + g[i];
    }
}

/// `out[i] = w[i] - step * (g[i] + mu * v[i])` (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn nesterov_step(out: &mut [f32], w: &[f32], g: &[f32], v: &[f32], step: f32, mu: f32) {
    debug_assert_eq!(out.len(), w.len());
    debug_assert_eq!(out.len(), g.len());
    debug_assert_eq!(out.len(), v.len());
    let n8 = blocks(out.len(), 8);
    let vs = _mm256_set1_ps(step);
    let vm = _mm256_set1_ps(mu);
    let (wp, gp, vp, op) = (w.as_ptr(), g.as_ptr(), v.as_ptr(), out.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let look = _mm256_add_ps(
            _mm256_loadu_ps(gp.add(i)),
            _mm256_mul_ps(vm, _mm256_loadu_ps(vp.add(i))),
        );
        let d = _mm256_sub_ps(_mm256_loadu_ps(wp.add(i)), _mm256_mul_ps(vs, look));
        _mm256_storeu_ps(op.add(i), d);
        i += 8;
    }
    for i in n8..out.len() {
        out[i] = w[i] - step * (g[i] + mu * v[i]);
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Striped-order dot product (AVX2) — bit-identical to
/// [`super::scalar::dot`] by construction: one vector accumulator is
/// exactly the scalar reference's 8 stripe accumulators, combined with
/// the same pairwise tree, then the same sequential tail, and the same
/// canonical NaN.
#[target_feature(enable = "avx2")]
pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n8 = blocks(a.len(), 8);
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut vacc = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let prod = _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
        vacc = _mm256_add_ps(vacc, prod);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vacc);
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for i in n8..a.len() {
        acc += a[i] * b[i];
    }
    if acc.is_nan() {
        f32::NAN
    } else {
        acc
    }
}

/// `max(|x[i]|)` (AVX2). Order-independent once `abs` has collapsed
/// `-0.0` to `+0.0`, and `_mm256_max_ps(v, acc)` drops NaN lanes just
/// like the scalar `f32::max` fold, so the result is bit-identical to
/// [`super::scalar::reduce_max_abs`].
#[target_feature(enable = "avx2")]
pub unsafe fn reduce_max_abs(x: &[f32]) -> f32 {
    let n8 = blocks(x.len(), 8);
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let xp = x.as_ptr();
    let mut vm = _mm256_setzero_ps();
    let mut i = 0;
    while i < n8 {
        let va = _mm256_and_ps(_mm256_loadu_ps(xp.add(i)), absmask);
        // Operand order matters: max_ps returns the *second* operand
        // when the first is NaN, so a NaN in `va` keeps the running max.
        vm = _mm256_max_ps(va, vm);
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
    let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    for &v in &x[n8..] {
        m = m.max(v.abs());
    }
    m
}

// ---------------------------------------------------------------------------
// GEMM microkernels
// ---------------------------------------------------------------------------

/// Depth of one GEMM k-block: a packed 64-column panel of this many B
/// rows is 32 KiB, so it stays in L1 while every band row streams it.
const KC: usize = 128;

/// The nonzero `(p, a[p])` pairs of each A row in a GEMM band, split
/// into [`KC`]-deep k-blocks: segment `(r, kb)` holds band row `r`'s
/// pairs with `p` in `kb·KC..(kb + 1)·KC`, in increasing `p` order, each
/// stored as its offset `p - kb·KC`.
///
/// Dropping the zeros here *is* the scalar reference's `av == 0.0` skip,
/// done once per call instead of per (row, `p`) in the hot loop, where a
/// ReLU-sparse row makes that branch mispredict. NaN is not `== 0.0`, so
/// it is kept, as in the reference.
struct Nonzeros {
    entries: Vec<(u32, f32)>,
    /// Segment `(r, kb)` is `entries[starts[s]..starts[s + 1]]`, `s = r·kblocks + kb`.
    starts: Vec<usize>,
    rows: usize,
    kblocks: usize,
}

impl Nonzeros {
    /// Compact `rows` rows of length `k`; `at(r, p)` is element `p` of
    /// band row `r`. The entry scratch is at most `rows · k` 8-byte pairs.
    fn compact(rows: usize, k: usize, at: impl Fn(usize, usize) -> f32) -> Self {
        let kblocks = k.div_ceil(KC);
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(rows * k);
        let mut starts = Vec::with_capacity(rows * kblocks + 1);
        starts.push(0);
        let dst = entries.as_mut_ptr();
        let mut len = 0usize;
        for r in 0..rows {
            for k0 in (0..k).step_by(KC) {
                for p in k0..k.min(k0 + KC) {
                    let av = at(r, p);
                    // Branch-free: always write the slot, advance past
                    // nonzeros only.
                    // SAFETY: `len <= r·k + p < rows·k`, the capacity.
                    unsafe { dst.add(len).write(((p - k0) as u32, av)) };
                    len += (av != 0.0) as usize;
                }
                starts.push(len);
            }
        }
        // SAFETY: the first `len` slots were written above.
        unsafe { entries.set_len(len) };
        Self {
            entries,
            starts,
            rows,
            kblocks,
        }
    }

    fn segment(&self, r: usize, kb: usize) -> &[(u32, f32)] {
        let s = r * self.kblocks + kb;
        &self.entries[self.starts[s]..self.starts[s + 1]]
    }
}

/// `C[rows, n] += A[rows, k] · B[k, n]` (AVX2, ikj order).
///
/// Compacts each A row to its nonzeros, then runs [`gemm_compacted`].
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    k: usize,
    n: usize,
) {
    let i0 = rows.start;
    let nz = Nonzeros::compact(rows.len(), k, |r, p| a[(i0 + r) * k + p]);
    gemm_compacted(&nz, b, c_chunk, k, n);
}

/// `C[rows, n] += A[k, m]ᵀ · B[k, n]` (AVX2): the same kernel as
/// [`gemm_block`]; the compaction reads the A band with stride `m`, so
/// no transposed copy of it is made.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_tn_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let i0 = rows.start;
    let nz = Nonzeros::compact(rows.len(), k, |r, p| a[p * m + i0 + r]);
    gemm_compacted(&nz, b, c_chunk, k, n);
}

/// `C[band, n] += A · B[k, n]` with A given as its compacted nonzeros.
///
/// For each [`KC`]-deep k-block, column panels widest first: 64 columns
/// (8 ymm accumulators), then at most one of 32 (4), then the last
/// `< 32` columns in one pass of up to 4 accumulators, the final one
/// masked to the columns left. The 64/32 panels of the k-block's B rows
/// are packed into a contiguous L1-sized scratch, so the stride-`n` walk
/// through B happens once per panel rather than once per output row; the
/// narrow rest reads B in place. A row's accumulators stay in registers
/// across its whole segment, so each C element is loaded and stored once
/// per k-block. Per element the adds still happen in increasing `p`
/// order (k-blocks in order, `p` in order within each) over exactly the
/// nonzero `a` — the scalar ikj loop's order — so the result is
/// bit-identical.
///
/// # Safety
/// AVX2 is available, `nz` was compacted with this `k`, B holds at least
/// `k·n` and C at least `nz.rows·n` elements.
#[target_feature(enable = "avx2")]
unsafe fn gemm_compacted(nz: &Nonzeros, b: &[f32], c_chunk: &mut [f32], k: usize, n: usize) {
    let width = if n >= 64 {
        64
    } else if n >= 32 {
        32
    } else {
        0
    };
    let mut panel = Vec::with_capacity(KC.min(k) * width);
    for kb in 0..nz.kblocks {
        let ps = kb * KC..k.min((kb + 1) * KC);
        let mut block = KBlock {
            nz,
            kb,
            c: &mut *c_chunk,
            n,
        };
        let mut j = 0usize;
        while j + 64 <= n {
            pack_panel(b, &mut panel, ps.clone(), n, j, 64);
            panel_rows::<8>(&mut block, panel.as_ptr(), 64, j, 64);
            j += 64;
        }
        if j + 32 <= n {
            pack_panel(b, &mut panel, ps.clone(), n, j, 32);
            panel_rows::<4>(&mut block, panel.as_ptr(), 32, j, 32);
            j += 32;
        }
        let (rest, bp) = (n - j, b.as_ptr().add(ps.start * n + j));
        match rest.div_ceil(8) {
            0 => {}
            1 => panel_rows::<1>(&mut block, bp, n, j, rest),
            2 => panel_rows::<2>(&mut block, bp, n, j, rest),
            3 => panel_rows::<3>(&mut block, bp, n, j, rest),
            _ => panel_rows::<4>(&mut block, bp, n, j, rest),
        }
    }
}

/// Copy columns `j..j + w` of B rows `ps` (row-major, `n` columns) into
/// `panel` as a contiguous `ps.len() × w` block.
fn pack_panel(b: &[f32], panel: &mut Vec<f32>, ps: Range<usize>, n: usize, j: usize, w: usize) {
    panel.clear();
    for p in ps {
        panel.extend_from_slice(&b[p * n + j..p * n + j + w]);
    }
}

/// One k-block of a compacted GEMM: the A segments of block `kb` and
/// the `rows × n` C band they accumulate into.
struct KBlock<'a> {
    nz: &'a Nonzeros,
    kb: usize,
    c: &'a mut [f32],
    n: usize,
}

/// For every band row `r`: `C[r, j..j + w] += Σ a · B[p, ·]` over the
/// row's segment in this k-block, with B's `w` columns for the segment's
/// `p` offset `q` at `bp + q · stride`, and `8(V - 1) < w ≤ 8V`. The `V`
/// accumulators stay in registers for the whole segment; when `w < 8V`
/// the last one loads and stores only its first `w - 8(V - 1)` lanes, so
/// nothing past column `j + w` is read or written.
///
/// # Safety
/// AVX2 is available, and for every offset `q` in the k-block's
/// segments, `bp + q · stride` starts `w` readable floats.
#[target_feature(enable = "avx2")]
unsafe fn panel_rows<const V: usize>(
    blk: &mut KBlock,
    bp: *const f32,
    stride: usize,
    j: usize,
    w: usize,
) {
    debug_assert!(8 * (V - 1) < w && w <= 8 * V);
    let last = 8 * (V - 1);
    let mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32((w - last) as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    let full = w == 8 * V;
    let load = |ptr: *const f32, v: usize| {
        if v < V - 1 || full {
            _mm256_loadu_ps(ptr.add(8 * v))
        } else {
            _mm256_maskload_ps(ptr.add(last), mask)
        }
    };
    let n = blk.n;
    for r in 0..blk.nz.rows {
        let cp = blk.c[r * n + j..r * n + j + w].as_mut_ptr();
        let mut acc = [_mm256_setzero_ps(); V];
        for (v, acc) in acc.iter_mut().enumerate() {
            *acc = load(cp, v);
        }
        for &(q, av) in blk.nz.segment(r, blk.kb) {
            let va = _mm256_set1_ps(av);
            let br = bp.add(q as usize * stride);
            for (v, acc) in acc.iter_mut().enumerate() {
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, load(br, v)));
            }
        }
        for (v, &acc) in acc.iter().enumerate() {
            if v < V - 1 || full {
                _mm256_storeu_ps(cp.add(8 * v), acc);
            } else {
                _mm256_maskstore_ps(cp.add(last), mask, acc);
            }
        }
    }
}

/// Transpose an 8×8 f32 tile held in registers: output `q` holds input
/// row elements at position `q` across lanes (`out[q]` lane `u` = `r[u]`
/// lane `q`).
#[target_feature(enable = "avx2")]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(u0, u4),
        _mm256_permute2f128_ps::<0x20>(u1, u5),
        _mm256_permute2f128_ps::<0x20>(u2, u6),
        _mm256_permute2f128_ps::<0x20>(u3, u7),
        _mm256_permute2f128_ps::<0x31>(u0, u4),
        _mm256_permute2f128_ps::<0x31>(u1, u5),
        _mm256_permute2f128_ps::<0x31>(u2, u6),
        _mm256_permute2f128_ps::<0x31>(u3, u7),
    ]
}

/// `C[rows, n] += A[rows, k] · B[n, k]ᵀ` (AVX2).
///
/// Each output element is a dot product — a true reduction — so naive
/// lane-striping would reassociate it. Instead each lane owns one output
/// column: 16 columns of Bᵀ are packed once per call into a `k × 16`
/// panel (8×8 register transposes of B tiles), and a broadcast `a[p]`
/// times panel row `p` adds one term to every column at once. Lane `u`
/// thus accumulates column `j+u` from `0.0` in strictly increasing `p`
/// order, then `c += acc` — exactly the scalar sequential dot, so the
/// result is bit-identical. Rows go 4 at a time ([`nt_rows`]): 8
/// independent accumulator chains share each pair of panel loads.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_nt_block(
    a: &[f32],
    b: &[f32],
    rows: Range<usize>,
    c_chunk: &mut [f32],
    k: usize,
    n: usize,
) {
    let mut panel = vec![0.0f32; k * 16];
    let nr = rows.len();
    for j in (0..n).step_by(16) {
        let w = 16.min(n - j);
        pack_transposed(b, &mut panel, k, j, w);
        for r in (0..nr).step_by(4) {
            let band = &a[(rows.start + r) * k..];
            let c = &mut c_chunk[r * n..];
            match nr - r {
                1 => nt_rows::<1>(band, &panel, c, k, n, j, w),
                2 => nt_rows::<2>(band, &panel, c, k, n, j, w),
                3 => nt_rows::<3>(band, &panel, c, k, n, j, w),
                _ => nt_rows::<4>(band, &panel, c, k, n, j, w),
            }
        }
    }
}

/// `panel[p·16 + u] = B[j + u, p]` for `u < w`; lanes `w..16` are left as
/// they were (their sums are never stored).
///
/// # Safety
/// AVX2 is available, `B` holds at least `(j + w)·k` elements and the
/// panel at least `16·k`.
#[target_feature(enable = "avx2")]
unsafe fn pack_transposed(b: &[f32], panel: &mut [f32], k: usize, j: usize, w: usize) {
    let bp = b.as_ptr();
    let pp = panel.as_mut_ptr();
    let k8 = blocks(k, 8);
    let mut u0 = 0usize;
    while u0 + 8 <= w {
        let row = |u: usize| bp.add((j + u0 + u) * k);
        let mut p = 0usize;
        while p < k8 {
            let tile = transpose8([
                _mm256_loadu_ps(row(0).add(p)),
                _mm256_loadu_ps(row(1).add(p)),
                _mm256_loadu_ps(row(2).add(p)),
                _mm256_loadu_ps(row(3).add(p)),
                _mm256_loadu_ps(row(4).add(p)),
                _mm256_loadu_ps(row(5).add(p)),
                _mm256_loadu_ps(row(6).add(p)),
                _mm256_loadu_ps(row(7).add(p)),
            ]);
            for (q, &t) in tile.iter().enumerate() {
                _mm256_storeu_ps(pp.add((p + q) * 16 + u0), t);
            }
            p += 8;
        }
        for p in k8..k {
            for u in 0..8 {
                panel[p * 16 + u0 + u] = b[(j + u0 + u) * k + p];
            }
        }
        u0 += 8;
    }
    for u in u0..w {
        for p in 0..k {
            panel[p * 16 + u] = b[(j + u) * k + p];
        }
    }
}

/// `R` consecutive output rows of [`gemm_nt_block`] against one packed
/// panel: A rows `band[0..R·k]` into columns `j..j + w` of the `R × n`
/// block at `c`. Two accumulators per row (16 columns); each lane's adds
/// run in sequential `p` order.
///
/// # Safety
/// AVX2 is available and the panel holds at least `16·k` elements.
#[target_feature(enable = "avx2")]
unsafe fn nt_rows<const R: usize>(
    band: &[f32],
    panel: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    j: usize,
    w: usize,
) {
    let band = &band[..R * k];
    let pp = panel.as_ptr();
    let mut lo = [_mm256_setzero_ps(); R];
    let mut hi = [_mm256_setzero_ps(); R];
    for p in 0..k {
        let b0 = _mm256_loadu_ps(pp.add(p * 16));
        let b1 = _mm256_loadu_ps(pp.add(p * 16 + 8));
        for r in 0..R {
            let va = _mm256_set1_ps(band[r * k + p]);
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(va, b0));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(va, b1));
        }
    }
    for r in 0..R {
        let mut sums = [0.0f32; 16];
        _mm256_storeu_ps(sums.as_mut_ptr(), lo[r]);
        _mm256_storeu_ps(sums.as_mut_ptr().add(8), hi[r]);
        for (cv, &s) in c[r * n + j..r * n + j + w].iter_mut().zip(&sums) {
            *cv += s;
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-packing
// ---------------------------------------------------------------------------

/// Pack 2-bit symbols four per byte (AVX2): 32 symbols per iteration.
/// `maddubs` folds adjacent pairs as `s0 + 4·s1`, `madd` folds the i16
/// pairs as `lo + 16·hi`, leaving one packed byte per i32 lane; a
/// byte-shuffle then narrows 8 lanes to 8 bytes.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_2bit(symbols: &[u8], out: &mut [u8]) {
    debug_assert_eq!(out.len(), symbols.len().div_ceil(4));
    let n32 = blocks(symbols.len(), 32);
    let sp = symbols.as_ptr();
    let pair_w = _mm256_set1_epi16(0x0401); // bytes [1, 4] per pair
    let quad_w = _mm256_set1_epi32(0x0010_0001); // i16 [1, 16] per quad
                                                 // Within each 128-bit lane, gather byte 0 of each dword to the front.
    let narrow = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut i = 0;
    while i < n32 {
        let v = _mm256_loadu_si256(sp.add(i) as *const __m256i);
        let v = _mm256_and_si256(v, _mm256_set1_epi8(0b11)); // match scalar `s & 0b11`
        let pairs = _mm256_maddubs_epi16(v, pair_w);
        let quads = _mm256_madd_epi16(pairs, quad_w);
        let packed = _mm256_shuffle_epi8(quads, narrow);
        let lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(packed)) as u32;
        let hi = _mm_cvtsi128_si32(_mm256_extracti128_si256::<1>(packed)) as u32;
        out[i / 4..i / 4 + 4].copy_from_slice(&lo.to_le_bytes());
        out[i / 4 + 4..i / 4 + 8].copy_from_slice(&hi.to_le_bytes());
        i += 32;
    }
    // Tail: delegate to the scalar bit loop over the remaining symbols.
    let done_bytes = n32 / 4;
    for b in &mut out[done_bytes..] {
        *b = 0;
    }
    for (idx, &s) in symbols[n32..].iter().enumerate() {
        let i = n32 + idx;
        out[i / 4] |= (s & 0b11) << (2 * (i % 4));
    }
}

/// Unpack 2-bit symbols (AVX2): 8 packed bytes → 32 symbol bytes per
/// iteration. Each source byte is widened to a dword, replicated across
/// its four bytes, then per-byte masked shifts extract the four codes.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_2bit(bytes: &[u8], out: &mut [u8]) {
    debug_assert!(bytes.len() * 4 >= out.len());
    let n32 = blocks(out.len(), 32);
    let op = out.as_mut_ptr();
    let rep_w = _mm256_set1_epi32(0x0101_0101);
    let m0 = _mm256_set1_epi32(0x0000_0003);
    let m1 = _mm256_set1_epi32(0x0000_0300);
    let m2 = _mm256_set1_epi32(0x0003_0000);
    let m3 = _mm256_set1_epi32(0x0300_0000);
    let mut i = 0;
    while i < n32 {
        let src = _mm_loadl_epi64(bytes.as_ptr().add(i / 4) as *const __m128i);
        let vd = _mm256_cvtepu8_epi32(src);
        let rep = _mm256_mullo_epi32(vd, rep_w);
        let s = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_and_si256(rep, m0),
                _mm256_and_si256(_mm256_srli_epi32::<2>(rep), m1),
            ),
            _mm256_or_si256(
                _mm256_and_si256(_mm256_srli_epi32::<4>(rep), m2),
                _mm256_and_si256(_mm256_srli_epi32::<6>(rep), m3),
            ),
        );
        _mm256_storeu_si256(op.add(i) as *mut __m256i, s);
        i += 32;
    }
    for (idx, o) in out[n32..].iter_mut().enumerate() {
        let i = n32 + idx;
        *o = (bytes[i / 4] >> (2 * (i % 4))) & 0b11;
    }
}

/// Pack booleans eight per byte (AVX2): 32 bools → one `movemask` → 4
/// output bytes per iteration.
#[target_feature(enable = "avx2")]
pub unsafe fn pack_1bit(bits: &[bool], out: &mut [u8]) {
    debug_assert_eq!(out.len(), bits.len().div_ceil(8));
    let n32 = blocks(bits.len(), 32);
    let bp = bits.as_ptr() as *const u8;
    let zero = _mm256_setzero_si256();
    let mut i = 0;
    while i < n32 {
        let v = _mm256_loadu_si256(bp.add(i) as *const __m256i);
        let m = _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, zero)) as u32;
        out[i / 8..i / 8 + 4].copy_from_slice(&m.to_le_bytes());
        i += 32;
    }
    let done_bytes = n32 / 8;
    for b in &mut out[done_bytes..] {
        *b = 0;
    }
    for (idx, &bit) in bits[n32..].iter().enumerate() {
        let i = n32 + idx;
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
}

/// Unpack booleans (AVX2): 4 packed bytes → 32 bool bytes per
/// iteration via byte replication + per-byte bit test.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_1bit(bytes: &[u8], out: &mut [bool]) {
    debug_assert!(bytes.len() * 8 >= out.len());
    let n32 = blocks(out.len(), 32);
    let op = out.as_mut_ptr() as *mut u8;
    // Replicate source byte j across output bytes 8j..8j+7. set1_epi32
    // puts the same 4 source bytes in every 128-bit lane, so lane-local
    // shuffle indices 0..3 reach all of them.
    let spread = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
        2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
    );
    let bitsel = _mm256_set1_epi64x(0x8040_2010_0804_0201u64 as i64);
    let one = _mm256_set1_epi8(1);
    let mut i = 0;
    while i < n32 {
        let w = u32::from_le_bytes([
            bytes[i / 8],
            bytes[i / 8 + 1],
            bytes[i / 8 + 2],
            bytes[i / 8 + 3],
        ]);
        let rep = _mm256_shuffle_epi8(_mm256_set1_epi32(w as i32), spread);
        let hit = _mm256_cmpeq_epi8(_mm256_and_si256(rep, bitsel), bitsel);
        _mm256_storeu_si256(op.add(i) as *mut __m256i, _mm256_and_si256(hit, one));
        i += 32;
    }
    for (idx, o) in out[n32..].iter_mut().enumerate() {
        let i = n32 + idx;
        *o = (bytes[i / 8] >> (i % 8)) & 1 == 1;
    }
}

// ---------------------------------------------------------------------------
// Quantizer scans
// ---------------------------------------------------------------------------

/// Shared body of the 2-bit threshold scans: given the corrected vector
/// `x`, emit `q`, store `x - q` through `res_out`, and write symbols
/// from the two compare masks.
#[target_feature(enable = "avx2")]
unsafe fn threshold_core(
    x: __m256,
    vthr: __m256,
    vnthr: __m256,
    res_out: *mut f32,
    symbols: &mut [u8],
) {
    let mpos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, vthr);
    let mneg = _mm256_cmp_ps::<_CMP_LE_OQ>(x, vnthr);
    let q = _mm256_or_ps(_mm256_and_ps(mpos, vthr), _mm256_and_ps(mneg, vnthr));
    _mm256_storeu_ps(res_out, _mm256_sub_ps(x, q));
    let m1 = _mm256_movemask_ps(mpos) as u32;
    let m2 = _mm256_movemask_ps(mneg) as u32;
    for (l, s) in symbols.iter_mut().enumerate() {
        *s = (((m1 >> l) & 1) | (((m2 >> l) & 1) << 1)) as u8;
    }
}

/// [`super::scalar::threshold_scan_residual`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn threshold_scan_residual(grad: &[f32], thr: f32, symbols: &mut [u8], res: &mut [f32]) {
    debug_assert_eq!(grad.len(), symbols.len());
    debug_assert_eq!(grad.len(), res.len());
    let n8 = blocks(grad.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let (gp, rp) = (grad.as_ptr(), res.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let x = _mm256_add_ps(_mm256_loadu_ps(gp.add(i)), _mm256_loadu_ps(rp.add(i)));
        threshold_core(x, vthr, vnthr, rp.add(i), &mut symbols[i..i + 8]);
        i += 8;
    }
    if n8 < grad.len() {
        super::scalar::threshold_scan_residual(
            &grad[n8..],
            thr,
            &mut symbols[n8..],
            &mut res[n8..],
        );
    }
}

/// [`super::scalar::threshold_scan_store`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn threshold_scan_store(
    corrected: &[f32],
    thr: f32,
    symbols: &mut [u8],
    res: &mut [f32],
) {
    debug_assert_eq!(corrected.len(), symbols.len());
    debug_assert_eq!(corrected.len(), res.len());
    let n8 = blocks(corrected.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let (cp, rp) = (corrected.as_ptr(), res.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_ps(cp.add(i));
        threshold_core(x, vthr, vnthr, rp.add(i), &mut symbols[i..i + 8]);
        i += 8;
    }
    if n8 < corrected.len() {
        super::scalar::threshold_scan_store(
            &corrected[n8..],
            thr,
            &mut symbols[n8..],
            &mut res[n8..],
        );
    }
}

/// [`super::scalar::threshold_scan_plain`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn threshold_scan_plain(grad: &[f32], thr: f32, symbols: &mut [u8]) {
    debug_assert_eq!(grad.len(), symbols.len());
    let n8 = blocks(grad.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let gp = grad.as_ptr();
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_ps(gp.add(i));
        let m1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, vthr)) as u32;
        let m2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LE_OQ>(x, vnthr)) as u32;
        for (l, s) in symbols[i..i + 8].iter_mut().enumerate() {
            *s = (((m1 >> l) & 1) | (((m2 >> l) & 1) << 1)) as u8;
        }
        i += 8;
    }
    if n8 < grad.len() {
        super::scalar::threshold_scan_plain(&grad[n8..], thr, &mut symbols[n8..]);
    }
}

/// [`super::scalar::sign_residual`] (AVX2).
#[target_feature(enable = "avx2")]
pub unsafe fn sign_residual(corrected: &[f32], scale: f32, bits: &mut [bool], res: &mut [f32]) {
    debug_assert_eq!(corrected.len(), bits.len());
    debug_assert_eq!(corrected.len(), res.len());
    let n8 = blocks(corrected.len(), 8);
    let vpos = _mm256_set1_ps(scale);
    let vneg = _mm256_set1_ps(-scale);
    let zero = _mm256_setzero_ps();
    let (cp, rp) = (corrected.as_ptr(), res.as_mut_ptr());
    let mut i = 0;
    while i < n8 {
        let x = _mm256_loadu_ps(cp.add(i));
        let mpos = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
        let q = _mm256_blendv_ps(vneg, vpos, mpos);
        _mm256_storeu_ps(rp.add(i), _mm256_sub_ps(x, q));
        let m = _mm256_movemask_ps(mpos) as u32;
        for (l, bit) in bits[i..i + 8].iter_mut().enumerate() {
            *bit = (m >> l) & 1 == 1;
        }
        i += 8;
    }
    if n8 < corrected.len() {
        super::scalar::sign_residual(&corrected[n8..], scale, &mut bits[n8..], &mut res[n8..]);
    }
}

// ---------------------------------------------------------------------------
// Decode-accumulate
// ---------------------------------------------------------------------------

/// [`super::scalar::unpack_2bit_add`] (AVX2). The "no write for code 0"
/// rule is kept with a blend: untouched lanes get their original
/// accumulator bits back, never `acc + 0.0`.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_2bit_add(packed: &[u8], thr: f32, out: &mut [f32]) {
    debug_assert!(packed.len() * 4 >= out.len());
    let n8 = blocks(out.len(), 8);
    let vthr = _mm256_set1_ps(thr);
    let vnthr = _mm256_set1_ps(-thr);
    let shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
    let three = _mm256_set1_epi32(3);
    let one = _mm256_set1_epi32(1);
    let two = _mm256_set1_epi32(2);
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        let w = (packed[i / 4] as u32 | (packed[i / 4 + 1] as u32) << 8) as i32;
        let codes = _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(w), shifts), three);
        let mpos = _mm256_cmpeq_epi32(codes, one);
        let mneg = _mm256_cmpeq_epi32(codes, two);
        let addend = _mm256_or_ps(
            _mm256_and_ps(_mm256_castsi256_ps(mpos), vthr),
            _mm256_and_ps(_mm256_castsi256_ps(mneg), vnthr),
        );
        let touched = _mm256_castsi256_ps(_mm256_or_si256(mpos, mneg));
        let cur = _mm256_loadu_ps(op.add(i));
        let sum = _mm256_add_ps(cur, addend);
        _mm256_storeu_ps(op.add(i), _mm256_blendv_ps(cur, sum, touched));
        i += 8;
    }
    if n8 < out.len() {
        // Scalar tail re-derives its own byte offsets from the absolute
        // element index, so slicing `out` is enough.
        for (idx, o) in out[n8..].iter_mut().enumerate() {
            let i = n8 + idx;
            match (packed[i / 4] >> (2 * (i % 4))) & 0b11 {
                1 => *o += thr,
                2 => *o -= thr,
                _ => {}
            }
        }
    }
}

/// [`super::scalar::unpack_1bit_add`] (AVX2). Every lane is touched
/// (`±scale`), matching the scalar decoder.
#[target_feature(enable = "avx2")]
pub unsafe fn unpack_1bit_add(signs: &[u8], scale: f32, out: &mut [f32]) {
    debug_assert!(signs.len() * 8 >= out.len());
    let n8 = blocks(out.len(), 8);
    let vpos = _mm256_set1_ps(scale);
    let vneg = _mm256_set1_ps(-scale);
    let shifts = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let one = _mm256_set1_epi32(1);
    let op = out.as_mut_ptr();
    let mut i = 0;
    while i < n8 {
        let b = _mm256_set1_epi32(signs[i / 8] as i32);
        let hit = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srlv_epi32(b, shifts), one), one);
        let addend = _mm256_blendv_ps(vneg, vpos, _mm256_castsi256_ps(hit));
        _mm256_storeu_ps(op.add(i), _mm256_add_ps(_mm256_loadu_ps(op.add(i)), addend));
        i += 8;
    }
    for (idx, o) in out[n8..].iter_mut().enumerate() {
        let i = n8 + idx;
        *o += if (signs[i / 8] >> (i % 8)) & 1 == 1 {
            scale
        } else {
            -scale
        };
    }
}
