//! Bit-identity gates for the kernel layer: every dispatched primitive
//! must produce byte-for-byte the same output as its scalar reference,
//! for empty inputs, length 1, non-multiple-of-lane-width tails, and
//! NaN/Inf/-0.0 payloads. On AVX2 hardware the dispatched path is the
//! SIMD backend, so these tests are the per-kernel half of the
//! bit-identity contract (the end-to-end half is the pinned weight
//! hashes in `tests/strategy_equivalence.rs`).

use cdsgd_tensor::kernel::{self, scalar};
use proptest::prelude::*;

const SPECIALS: [f32; 8] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    f32::MIN_POSITIVE,
    1e30,
    -1e30,
];

/// Deterministic fill: mixes ordinary values with exact zeros (to
/// exercise the GEMM zero-skip) and, when asked, NaN/Inf specials.
fn fill(seed: u64, len: usize, with_specials: bool) -> Vec<f32> {
    fill_with(seed, len, if with_specials { &SPECIALS } else { &[] })
}

/// [`fill`] drawing its specials (about one entry in 16) from `specials`.
fn fill_with(seed: u64, len: usize, specials: &[f32]) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 16 {
                0 => 0.0,
                1 if !specials.is_empty() => specials[(s >> 8) as usize % specials.len()],
                _ => ((s >> 16) as i32 % 1000) as f32 / 37.0,
            }
        })
        .collect()
}

/// Deterministic fill in which at least half the entries are `±0.0`
/// (a ReLU-sparse activation with both zero signs), so the GEMM
/// zero-skip decides many sign bits.
fn fill_signed_zeros(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(3);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            match s % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => ((s >> 16) as i32 % 1000) as f32 / 37.0,
            }
        })
        .collect()
}

fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: bit mismatch at {i}: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `gemm`, `gemm_nt` and `gemm_tn` at one `(m, k, n)` against their
/// scalar references, in four input regimes, each in A, B and C:
///
/// 0. ordinary values with some exact zeros;
/// 1. A at least half `±0.0`, accumulated into a C of all `-0.0` (where
///    a wrong zero-skip flips a sign bit);
/// 2. the non-NaN [`SPECIALS`] (`±inf`, `±1e30`, `±0.0`, subnormal
///    boundary), which make NaNs through `inf·0` and `inf - inf`;
/// 3. the NaN special among ordinary values.
///
/// Regimes 2 and 3 are kept apart because a GEMM add of two NaNs with
/// different sign bits (a made NaN meeting an input NaN) returns a NaN
/// whose sign Rust leaves unspecified: the scalar reference, as
/// compiled, returns one operand's in its vectorized body and the
/// other's in its remainder loop. Apart, every NaN either regime meets carries one bit
/// pattern, so all output bits are defined and compared.
///
/// Both layouts of A and of B have the same element counts, so one set
/// of buffers serves all three kernels.
fn check_gemms(seed: u64, m: usize, k: usize, n: usize) {
    for regime in 0..4 {
        let specials: &[f32] = match regime {
            2 => &SPECIALS[1..],
            3 => &SPECIALS[..1],
            _ => &[],
        };
        let (a, b, c) = match regime {
            1 => (
                fill_signed_zeros(seed, m * k),
                fill(seed + 1, k * n, false),
                vec![-0.0; m * n],
            ),
            _ => (
                fill_with(seed, m * k, specials),
                fill_with(seed + 1, k * n, specials),
                fill_with(seed + 2, m * n, specials),
            ),
        };
        let what = format!("m={m} k={k} n={n} regime {regime}");

        let (mut got, mut want) = (c.clone(), c.clone());
        kernel::gemm(&a, &b, &mut got, m, k, n);
        scalar::gemm_block(&a, &b, 0..m, &mut want, k, n);
        assert_bits_eq(&got, &want, &format!("gemm {what}"));

        let (mut got, mut want) = (c.clone(), c.clone());
        kernel::gemm_nt(&a, &b, &mut got, m, k, n);
        scalar::gemm_nt_block(&a, &b, 0..m, &mut want, k, n);
        assert_bits_eq(&got, &want, &format!("gemm_nt {what}"));

        let (mut got, mut want) = (c.clone(), c);
        kernel::gemm_tn(&a, &b, &mut got, m, k, n);
        scalar::gemm_tn_block(&a, &b, 0..m, &mut want, m, k, n);
        assert_bits_eq(&got, &want, &format!("gemm_tn {what}"));
    }
}

/// Lengths that pin down the edge cases: empty, single element, one
/// short of / exactly / one past each vector width boundary.
const EDGE_LENS: [usize; 10] = [0, 1, 3, 7, 8, 9, 15, 31, 32, 33];

proptest! {
    #[test]
    fn axpy_identity(seed in 0u64..5000, len in 0usize..70, alpha in -4.0f32..4.0) {
        let x = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::axpy(alpha, &x, &mut a);
        scalar::axpy(alpha, &x, &mut b);
        assert_bits_eq(&a, &b, "axpy");
    }

    #[test]
    fn scale_identity(seed in 0u64..5000, len in 0usize..70, s in -4.0f32..4.0) {
        let mut a = fill(seed, len, true);
        let mut b = a.clone();
        kernel::scale(&mut a, s);
        scalar::scale(&mut b, s);
        assert_bits_eq(&a, &b, "scale");
    }

    #[test]
    fn add_assign_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::add_assign(&mut a, &x);
        scalar::add_assign(&mut b, &x);
        assert_bits_eq(&a, &b, "add_assign");
    }

    #[test]
    fn add_scalar_identity(seed in 0u64..5000, len in 0usize..70, c in -4.0f32..4.0) {
        let mut a = fill(seed, len, true);
        let mut b = a.clone();
        kernel::add_scalar(&mut a, c);
        scalar::add_scalar(&mut b, c);
        assert_bits_eq(&a, &b, "add_scalar");
    }

    #[test]
    fn add_into_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        let y = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::add_into(&mut a, &x, &y);
        scalar::add_into(&mut b, &x, &y);
        assert_bits_eq(&a, &b, "add_into");
    }

    #[test]
    fn scale_add_identity(seed in 0u64..5000, len in 0usize..70, alpha in -4.0f32..4.0) {
        let x = fill(seed, len, true);
        let y = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::scale_add(&mut a, &x, alpha, &y);
        scalar::scale_add(&mut b, &x, alpha, &y);
        assert_bits_eq(&a, &b, "scale_add");
    }

    #[test]
    fn sgd_step_identity(seed in 0u64..5000, len in 0usize..70, step in 0.0f32..2.0) {
        let w = fill(seed, len, true);
        let g = fill(seed + 1, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::sgd_step(&mut a, &w, &g, step);
        scalar::sgd_step(&mut b, &w, &g, step);
        assert_bits_eq(&a, &b, "sgd_step");
    }

    #[test]
    fn decay_add_identity(seed in 0u64..5000, len in 0usize..70, mu in 0.0f32..1.0) {
        let g = fill(seed, len, true);
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::decay_add(&mut a, mu, &g);
        scalar::decay_add(&mut b, mu, &g);
        assert_bits_eq(&a, &b, "decay_add");
    }

    #[test]
    fn nesterov_step_identity(
        seed in 0u64..5000, len in 0usize..70, step in 0.0f32..2.0, mu in 0.0f32..1.0,
    ) {
        let w = fill(seed, len, true);
        let g = fill(seed + 1, len, true);
        let v = fill(seed + 2, len, true);
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        kernel::nesterov_step(&mut a, &w, &g, &v, step, mu);
        scalar::nesterov_step(&mut b, &w, &g, &v, step, mu);
        assert_bits_eq(&a, &b, "nesterov_step");
    }

    #[test]
    fn dot_identity(seed in 0u64..5000, len in 0usize..70) {
        let a = fill(seed, len, true);
        let b = fill(seed + 1, len, true);
        assert_eq!(
            kernel::dot(&a, &b).to_bits(),
            scalar::dot(&a, &b).to_bits(),
            "dot"
        );
    }

    #[test]
    fn reduce_max_abs_identity(seed in 0u64..5000, len in 0usize..70) {
        let x = fill(seed, len, true);
        assert_eq!(
            kernel::reduce_max_abs(&x).to_bits(),
            scalar::reduce_max_abs(&x).to_bits(),
            "reduce_max_abs"
        );
    }

    #[test]
    fn gemm_identity(seed in 0u64..2000, m in 1usize..11, k in 1usize..300, n in 1usize..160) {
        check_gemms(seed, m, k, n);
    }

    #[test]
    fn pack_2bit_identity(seed in 0u64..5000, len in 0usize..140) {
        // Contract: symbols are 2-bit codes 0..=3.
        let symbols: Vec<u8> = fill_bytes(seed, len).iter().map(|&b| b & 0b11).collect();
        let mut a = vec![0xAAu8; len.div_ceil(4)];
        let mut b = vec![0x55u8; len.div_ceil(4)];
        kernel::pack_2bit(&symbols, &mut a);
        scalar::pack_2bit(&symbols, &mut b);
        assert_eq!(a, b, "pack_2bit");
    }

    #[test]
    fn unpack_2bit_identity(seed in 0u64..5000, len in 0usize..140) {
        let bytes = fill_bytes(seed, len.div_ceil(4));
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        kernel::unpack_2bit(&bytes, &mut a);
        scalar::unpack_2bit(&bytes, &mut b);
        assert_eq!(a, b, "unpack_2bit");
    }

    #[test]
    fn pack_1bit_identity(seed in 0u64..5000, len in 0usize..300) {
        let bits: Vec<bool> = fill_bytes(seed, len).iter().map(|&b| b & 1 == 1).collect();
        let mut a = vec![0xAAu8; len.div_ceil(8)];
        let mut b = vec![0x55u8; len.div_ceil(8)];
        kernel::pack_1bit(&bits, &mut a);
        scalar::pack_1bit(&bits, &mut b);
        assert_eq!(a, b, "pack_1bit");
    }

    #[test]
    fn unpack_1bit_identity(seed in 0u64..5000, len in 0usize..300) {
        let bytes = fill_bytes(seed, len.div_ceil(8));
        let mut a = vec![false; len];
        let mut b = vec![false; len];
        kernel::unpack_1bit(&bytes, &mut a);
        scalar::unpack_1bit(&bytes, &mut b);
        assert_eq!(a, b, "unpack_1bit");
    }

    #[test]
    fn threshold_scan_residual_identity(seed in 0u64..5000, len in 0usize..70, thr in 0.001f32..1.0) {
        let grad = fill(seed, len, true);
        let mut res_a = fill(seed + 1, len, true);
        let mut res_b = res_a.clone();
        let mut sym_a = vec![9u8; len];
        let mut sym_b = vec![7u8; len];
        kernel::threshold_scan_residual(&grad, thr, &mut sym_a, &mut res_a);
        scalar::threshold_scan_residual(&grad, thr, &mut sym_b, &mut res_b);
        assert_eq!(sym_a, sym_b, "threshold_scan_residual symbols");
        assert_bits_eq(&res_a, &res_b, "threshold_scan_residual residuals");
    }

    #[test]
    fn threshold_scan_store_identity(seed in 0u64..5000, len in 0usize..70, thr in 0.001f32..1.0) {
        let corrected = fill(seed, len, true);
        let mut res_a = fill(seed + 1, len, true);
        let mut res_b = res_a.clone();
        let mut sym_a = vec![9u8; len];
        let mut sym_b = vec![7u8; len];
        kernel::threshold_scan_store(&corrected, thr, &mut sym_a, &mut res_a);
        scalar::threshold_scan_store(&corrected, thr, &mut sym_b, &mut res_b);
        assert_eq!(sym_a, sym_b, "threshold_scan_store symbols");
        assert_bits_eq(&res_a, &res_b, "threshold_scan_store residuals");
    }

    #[test]
    fn threshold_scan_plain_identity(seed in 0u64..5000, len in 0usize..70, thr in 0.001f32..1.0) {
        let grad = fill(seed, len, true);
        let mut sym_a = vec![9u8; len];
        let mut sym_b = vec![7u8; len];
        kernel::threshold_scan_plain(&grad, thr, &mut sym_a);
        scalar::threshold_scan_plain(&grad, thr, &mut sym_b);
        assert_eq!(sym_a, sym_b, "threshold_scan_plain");
    }

    #[test]
    fn sign_residual_identity(seed in 0u64..5000, len in 0usize..70, s in 0.001f32..2.0) {
        let corrected = fill(seed, len, true);
        let mut res_a = fill(seed + 1, len, true);
        let mut res_b = res_a.clone();
        let mut bits_a = vec![true; len];
        let mut bits_b = vec![false; len];
        kernel::sign_residual(&corrected, s, &mut bits_a, &mut res_a);
        scalar::sign_residual(&corrected, s, &mut bits_b, &mut res_b);
        assert_eq!(bits_a, bits_b, "sign_residual bits");
        assert_bits_eq(&res_a, &res_b, "sign_residual residuals");
    }

    #[test]
    fn unpack_2bit_add_identity(seed in 0u64..5000, len in 0usize..140, thr in 0.001f32..1.0) {
        let packed = fill_bytes(seed, len.div_ceil(4));
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::unpack_2bit_add(&packed, thr, &mut a);
        scalar::unpack_2bit_add(&packed, thr, &mut b);
        assert_bits_eq(&a, &b, "unpack_2bit_add");
    }

    #[test]
    fn unpack_1bit_add_identity(seed in 0u64..5000, len in 0usize..300, s in 0.001f32..2.0) {
        let signs = fill_bytes(seed, len.div_ceil(8));
        let mut a = fill(seed + 1, len, true);
        let mut b = a.clone();
        kernel::unpack_1bit_add(&signs, s, &mut a);
        scalar::unpack_1bit_add(&signs, s, &mut b);
        assert_bits_eq(&a, &b, "unpack_1bit_add");
    }
}

/// Pin the exact boundary lengths (empty, 1, ±1 around the 8/32 lane
/// multiples) that random lengths only hit probabilistically.
#[test]
fn edge_lengths_elementwise() {
    for &len in &EDGE_LENS {
        let x = fill(len as u64 + 11, len, true);
        let mut a = fill(len as u64 + 13, len, true);
        let mut b = a.clone();
        kernel::axpy(1.5, &x, &mut a);
        scalar::axpy(1.5, &x, &mut b);
        assert_bits_eq(&a, &b, "axpy edge");

        assert_eq!(
            kernel::dot(&x, &a).to_bits(),
            scalar::dot(&x, &a).to_bits(),
            "dot edge len {len}"
        );

        let syms: Vec<u8> = fill_bytes(len as u64, len)
            .iter()
            .map(|&b| b & 0b11)
            .collect();
        let mut pa = vec![1u8; len.div_ceil(4)];
        let mut pb = vec![2u8; len.div_ceil(4)];
        kernel::pack_2bit(&syms, &mut pa);
        scalar::pack_2bit(&syms, &mut pb);
        assert_eq!(pa, pb, "pack_2bit edge len {len}");
    }
}

/// Exercise the rayon-tiled paths: sizes above `CDSGD_PAR_THRESHOLD`
/// (default 65536) must still be bit-identical — tiles are independent
/// output ranges, so threading cannot reassociate anything.
#[test]
fn large_tiled_elementwise_identity() {
    let n = 200_000;
    let x = fill(3, n, true);
    let mut a = fill(4, n, true);
    let mut b = a.clone();
    kernel::axpy(-0.75, &x, &mut a);
    scalar::axpy(-0.75, &x, &mut b);
    assert_bits_eq(&a, &b, "axpy large");

    let mut a2 = vec![0.0; n];
    let mut b2 = vec![0.0; n];
    kernel::sgd_step(&mut a2, &x, &a, 0.1);
    scalar::sgd_step(&mut b2, &x, &b, 0.1);
    assert_bits_eq(&a2, &b2, "sgd_step large");
}

/// Every GEMM panel width and tail, deterministically: `n` reaches the
/// 64-column panels, the 32-column panel, full and masked 8-column
/// vectors and the 16-column GEMM-NT panels with and without a partial
/// one; `m` covers whole 4-row GEMM-NT blocks with and without a 1-3 row
/// tail; `k` covers 8×8 transpose tiles with and without a `p`-tail, and
/// one and two 128-deep k-blocks.
#[test]
fn gemm_panel_and_tail_sweep() {
    const MS: [usize; 6] = [1, 3, 4, 5, 7, 9];
    const KS: [usize; 6] = [1, 7, 8, 9, 41, 137];
    const NS: [usize; 16] = [
        1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 97, 104, 120, 129, 150, 161,
    ];
    let mut seed = 100;
    for m in MS {
        for k in KS {
            for n in NS {
                check_gemms(seed, m, k, n);
                seed += 3;
            }
        }
    }
}

/// The Dense layers of the 784-512-512-10 MLP at batch 32: the forward
/// `X·W` shapes, the `Xᵀ·dY` weight-gradient shapes and the `dY·Wᵀ`
/// input-gradient shapes (`(32, 512, 512)` is both a forward and an
/// input-gradient shape). Each shape runs through all three kernels.
#[test]
fn gemm_dense_layer_shapes() {
    const SHAPES: [(usize, usize, usize); 8] = [
        (32, 784, 512),
        (32, 512, 512),
        (32, 512, 10),
        (784, 32, 512),
        (512, 32, 512),
        (512, 32, 10),
        (32, 10, 512),
        (32, 512, 784),
    ];
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        check_gemms(7000 + i as u64, m, k, n);
    }
}

#[test]
fn large_parallel_gemm_identity() {
    let (m, k, n) = (64, 64, 64); // 256 Ki flops > default threshold
    let a = fill(5, m * k, false);
    let b = fill(6, k * n, false);
    let mut c1 = vec![0.0; m * n];
    let mut c2 = vec![0.0; m * n];
    kernel::gemm(&a, &b, &mut c1, m, k, n);
    scalar::gemm_block(&a, &b, 0..m, &mut c2, k, n);
    assert_bits_eq(&c1, &c2, "gemm large");

    let mut c3 = vec![0.0; m * n];
    let mut c4 = vec![0.0; m * n];
    kernel::gemm_nt(&a, &b, &mut c3, m, k, n);
    scalar::gemm_nt_block(&a, &b, 0..m, &mut c4, k, n);
    assert_bits_eq(&c3, &c4, "gemm_nt large");

    let mut c5 = vec![0.0; m * n];
    let mut c6 = vec![0.0; m * n];
    kernel::gemm_tn(&a, &b, &mut c5, m, k, n);
    scalar::gemm_tn_block(&a, &b, 0..m, &mut c6, m, k, n);
    assert_bits_eq(&c5, &c6, "gemm_tn large");
}

#[test]
fn backend_reports_and_env_is_documented() {
    // On the CI hosts this is Avx2; on non-x86 it must be Scalar. Either
    // way the name is stable for trace/bench output.
    let b = kernel::backend();
    assert!(matches!(b.name(), "scalar" | "avx2"));
}
