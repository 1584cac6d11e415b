//! Kernel-layer dispatch sweep: the same primitive ops timed on the
//! scalar reference, the SIMD backend, and SIMD + rayon tiling, across
//! gradient sizes from 4 Ki to 1 Mi elements, plus the nine Dense-layer
//! GEMMs of one 784-512-512-10 MLP training step at batch 32, with the
//! left operand dense and with half its entries zero (ReLU-sparse).
//! Emits `BENCH_kernels.json` and prints speedup tables.
//!
//! The backend choice is cached per process (`CDSGD_FORCE_SCALAR` is
//! read once), so each mode runs in a child process: the parent
//! re-executes this binary with the right environment and merges the
//! JSON each child prints.
//!
//! ```text
//! cargo run --release -p cdsgd-bench --bin kernels [--iters 7]
//! ```

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use cdsgd_bench::arg_usize;
use cdsgd_tensor::kernel;

const CHILD_ENV: &str = "CDSGD_KERNELS_CHILD";
const MARKER: &str = "KERNELS_JSON ";

/// Element counts swept, with display labels.
const SIZES: [(usize, &str); 4] = [
    (4 * 1024, "4Ki"),
    (64 * 1024, "64Ki"),
    (256 * 1024, "256Ki"),
    (1024 * 1024, "1Mi"),
];

const OPS: [&str; 5] = [
    "gemm",
    "pack_2bit",
    "unpack_2bit",
    "residual",
    "apply_update",
];

/// The GEMMs of one MLP step at batch 32: `(op, m, k, n, role)` for the
/// forward `X·W`, the weight gradient `Xᵀ·dY` and the input gradient
/// `dY·Wᵀ` of each Dense layer.
const DENSE: [(&str, usize, usize, usize, &str); 9] = [
    ("gemm", 32, 784, 512, "fp 784->512"),
    ("gemm", 32, 512, 512, "fp 512->512"),
    ("gemm", 32, 512, 10, "fp 512->10"),
    ("gemm_tn", 784, 32, 512, "dW 784->512"),
    ("gemm_tn", 512, 32, 512, "dW 512->512"),
    ("gemm_tn", 512, 32, 10, "dW 512->10"),
    ("gemm_nt", 32, 512, 784, "dX 784->512"),
    ("gemm_nt", 32, 512, 512, "dX 512->512"),
    ("gemm_nt", 32, 10, 512, "dX 512->10"),
];

/// Share of the left operand's entries set to zero, in percent.
const DENSE_ZEROS: [u64; 2] = [0, 50];

/// The three dispatch modes, with the environment that selects each.
/// `CDSGD_PAR_THRESHOLD=off` isolates SIMD from tiling; the last mode
/// leaves the defaults so rayon engages on the sizes over the threshold.
const MODES: [(&str, &[(&str, &str)]); 3] = [
    (
        "scalar",
        &[("CDSGD_FORCE_SCALAR", "1"), ("CDSGD_PAR_THRESHOLD", "off")],
    ),
    ("simd", &[("CDSGD_PAR_THRESHOLD", "off")]),
    ("simd+rayon", &[]),
];

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            // Centered in [-1, 1): symbols fire on both threshold sides.
            (s >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

/// Median wall-clock seconds over `iters` runs of `f`.
fn median_s(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One mode's measurements: a record per (op, size).
fn run_child(iters: usize) -> Vec<serde_json::Value> {
    let mut records = Vec::new();
    for (n, label) in SIZES {
        // GEMM over square matrices whose output has n elements.
        let side = (n as f64).sqrt() as usize;
        let a = pseudo(side * side, 11);
        let b = pseudo(side * side, 23);
        let mut c = vec![0.0f32; side * side];
        // Scalar 1024^3 GEMM runs ~seconds per iteration; fewer
        // repetitions keep the sweep tractable without losing the median.
        let gemm_iters = if side >= 512 { 3.min(iters) } else { iters };
        let gemm_s = median_s(gemm_iters, || {
            kernel::gemm(black_box(&a), black_box(&b), &mut c, side, side, side);
            black_box(&c);
        });
        records.push(serde_json::json!({
            "op": "gemm", "n": n, "label": label, "median_s": gemm_s,
            "work": format!("{side}x{side}x{side}"),
        }));

        let symbols: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
        let mut packed = vec![0u8; n.div_ceil(4)];
        let pack_s = median_s(iters, || {
            kernel::pack_2bit(black_box(&symbols), &mut packed);
            black_box(&packed);
        });
        records.push(serde_json::json!({
            "op": "pack_2bit", "n": n, "label": label, "median_s": pack_s,
        }));

        let mut unpacked = vec![0u8; n];
        let unpack_s = median_s(iters, || {
            kernel::unpack_2bit(black_box(&packed), &mut unpacked);
            black_box(&unpacked);
        });
        records.push(serde_json::json!({
            "op": "unpack_2bit", "n": n, "label": label, "median_s": unpack_s,
        }));

        // The 2-bit codec's hot loop: threshold scan + residual update.
        let grad = pseudo(n, 37);
        let mut syms = vec![0u8; n];
        let mut res = vec![0.0f32; n];
        let residual_s = median_s(iters, || {
            kernel::threshold_scan_residual(black_box(&grad), 0.5, &mut syms, &mut res);
            black_box(&res);
        });
        records.push(serde_json::json!({
            "op": "residual", "n": n, "label": label, "median_s": residual_s,
        }));

        // The server's apply path: w - step * g into a fresh snapshot.
        let w = pseudo(n, 53);
        let g = pseudo(n, 71);
        let mut next = vec![0.0f32; n];
        let apply_s = median_s(iters, || {
            kernel::sgd_step(&mut next, black_box(&w), black_box(&g), 0.01);
            black_box(&next);
        });
        records.push(serde_json::json!({
            "op": "apply_update", "n": n, "label": label, "median_s": apply_s,
        }));
    }
    records
}

/// [`pseudo`] with every entry whose hash falls below `zeros_pct` set to 0.0.
fn pseudo_sparse(n: usize, seed: u64, zeros_pct: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    pseudo(n, seed)
        .into_iter()
        .map(|v| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < zeros_pct {
                0.0
            } else {
                v
            }
        })
        .collect()
}

/// One mode's Dense-layer GEMM measurements: a record per (shape, zeros).
fn run_dense(iters: usize) -> Vec<serde_json::Value> {
    let mut records = Vec::new();
    for zeros_pct in DENSE_ZEROS {
        for (op, m, k, n, role) in DENSE {
            let a = pseudo_sparse(m * k, 5, zeros_pct);
            let b = pseudo(k * n, 7);
            let mut c = vec![0.0f32; m * n];
            let gemm = match op {
                "gemm" => kernel::gemm,
                "gemm_tn" => kernel::gemm_tn,
                _ => kernel::gemm_nt,
            };
            let s = median_s(iters, || {
                gemm(black_box(&a), black_box(&b), &mut c, m, k, n);
                black_box(&c);
            });
            records.push(serde_json::json!({
                "op": op, "shape": format!("{m}x{k}x{n}"), "role": role,
                "zeros_pct": zeros_pct, "median_s": s,
                "gflops": 2.0 * (m * k * n) as f64 / s / 1e9,
            }));
        }
    }
    records
}

fn dense_median(records: &[serde_json::Value], role: &str, zeros_pct: u64) -> f64 {
    records
        .iter()
        .find_map(|r| {
            (r["role"].as_str() == Some(role) && r["zeros_pct"].as_u64() == Some(zeros_pct))
                .then(|| r["median_s"].as_f64())
                .flatten()
        })
        .unwrap_or(f64::NAN)
}

fn median_of(records: &[serde_json::Value], op: &str, n: usize) -> Option<f64> {
    records.iter().find_map(|r| {
        (r["op"].as_str() == Some(op) && r["n"].as_u64() == Some(n as u64))
            .then(|| r["median_s"].as_f64())
            .flatten()
    })
}

fn main() {
    let iters = arg_usize("iters", 7);

    if std::env::var(CHILD_ENV).is_ok() {
        let out = serde_json::json!({
            "backend": kernel::backend().name(),
            "records": run_child(iters),
            "dense": run_dense(5 * iters),
        });
        println!(
            "{MARKER}{}",
            serde_json::to_string(&out).expect("serialize")
        );
        return;
    }

    let exe = std::env::current_exe().expect("bench binary path");
    let mut modes = Vec::new();
    for (mode, env) in MODES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--iters", &iters.to_string()])
            .env(CHILD_ENV, "1")
            .env_remove("CDSGD_FORCE_SCALAR")
            .env_remove("CDSGD_PAR_THRESHOLD");
        for (k, v) in env {
            cmd.env(k, v);
        }
        eprintln!("running mode {mode} ...");
        let out = cmd.output().expect("spawn child");
        assert!(
            out.status.success(),
            "mode {mode} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(MARKER))
            .unwrap_or_else(|| panic!("mode {mode}: no {MARKER} line in child output"));
        let parsed: serde_json::Value = serde_json::from_str(line).expect("child JSON");
        modes.push((mode, parsed));
    }

    // Comparison table: per (op, size), median seconds per mode and the
    // speedup of each non-scalar mode over the scalar reference.
    println!(
        "{:>14} {:>7} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "op", "size", "scalar_s", "simd_s", "simd+ray_s", "simd_x", "ray_x"
    );
    let scalar = modes[0].1["records"].as_array().expect("records").clone();
    let simd = modes[1].1["records"].as_array().expect("records").clone();
    let rayon = modes[2].1["records"].as_array().expect("records").clone();
    for op in OPS {
        for (n, label) in SIZES {
            let s = median_of(&scalar, op, n).unwrap_or(f64::NAN);
            let v = median_of(&simd, op, n).unwrap_or(f64::NAN);
            let r = median_of(&rayon, op, n).unwrap_or(f64::NAN);
            println!(
                "{op:>14} {label:>7} {s:>12.6} {v:>12.6} {r:>12.6} {:>8.2} {:>8.2}",
                s / v,
                s / r
            );
        }
    }

    // Dense-layer GEMMs: median seconds per mode, SIMD speedups.
    println!(
        "\n{:>12} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "dense gemm", "zeros", "scalar_s", "simd_s", "simd+ray_s", "simd_x", "ray_x"
    );
    let dense: Vec<Vec<serde_json::Value>> = modes
        .iter()
        .map(|(_, v)| v["dense"].as_array().expect("dense").clone())
        .collect();
    for zeros_pct in DENSE_ZEROS {
        for (_, _, _, _, role) in DENSE {
            let [s, v, r] = [0, 1, 2].map(|i| dense_median(&dense[i], role, zeros_pct));
            println!(
                "{role:>12} {:>5}% {s:>12.6} {v:>12.6} {r:>12.6} {:>8.2} {:>8.2}",
                zeros_pct,
                s / v,
                s / r
            );
        }
    }

    let out = serde_json::json!({
        "bench": "kernels",
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "sizes": SIZES.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "iters": iters,
        "modes": modes
            .iter()
            .map(|(mode, v)| {
                serde_json::json!({
                    "mode": *mode,
                    "backend": v["backend"].clone(),
                    "records": v["records"].clone(),
                    "dense": v["dense"].clone(),
                })
            })
            .collect::<Vec<_>>(),
    });
    let path = "BENCH_kernels.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH json");
    println!("\nwrote {path}");
}
