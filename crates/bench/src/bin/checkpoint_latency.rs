//! Durable-checkpoint latency (DESIGN.md §14): how long does one shard
//! snapshot (encode + write + fsync + atomic rename) and one restore
//! (scan the manifest, read, verify the checksum, decode) take, as the
//! model grows? The write sits on the server's round path when
//! `--checkpoint-every` is armed, so its cost is the price of a
//! recovery point; the restore bounds `psd --resume` startup delay.
//! Sweeps model sizes, reports per-op latency and throughput, and
//! records everything into `BENCH_checkpoint.json`.
//!
//! ```text
//! cargo run --release -p cdsgd-bench --bin checkpoint_latency \
//!     [--iters 20] [--keys 16] [--max-floats 4194304]
//! ```

use std::time::Instant;

use cd_sgd::WorkerCheckpoint;
use cdsgd_bench::arg_usize;
use cdsgd_ps::recover::{load_latest, ShardCheckpoint};

/// Median of timed runs, in seconds.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let iters = arg_usize("iters", 20);
    let keys = arg_usize("keys", 16);
    let max_floats = arg_usize("max-floats", 4 << 20);

    let dir = std::env::temp_dir().join(format!("cdsgd_bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let sweep: Vec<usize> = [1usize << 10, 1 << 14, 1 << 18, 1 << 20, 4 << 20]
        .into_iter()
        .filter(|&n| n <= max_floats)
        .collect();

    println!("== checkpoint write/restore latency: {keys} keys, {iters} iters, median ==\n");
    println!(
        "{:>12} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "floats", "bytes", "save_ms", "save_MBps", "restore_ms", "worker_ms"
    );

    let mut records = Vec::new();
    for &floats in &sweep {
        let key_len = floats / keys;
        let weights: Vec<Vec<f32>> = (0..keys).map(|k| vec![k as f32 * 0.5; key_len]).collect();
        let opt_state: Vec<Vec<f32>> = weights.iter().map(|w| vec![0.1; w.len()]).collect();
        let ckpt = ShardCheckpoint {
            shard: 0,
            num_shards: 1,
            round: 0,
            weights,
            opt_state,
        };
        let bytes = ckpt.encode().len();

        // Server-side snapshot: the atomic tmp + fsync + rename path the
        // shard runs at each armed round boundary. Bump the round per
        // iteration so every save creates a fresh manifest entry and the
        // final restore scans a realistically populated directory.
        let mut save_s = Vec::with_capacity(iters);
        let mut round_ckpt = ckpt.clone();
        for i in 0..iters {
            round_ckpt.round = i as u64;
            let t = Instant::now();
            round_ckpt.save_atomic(&dir).expect("save shard checkpoint");
            save_s.push(t.elapsed().as_secs_f64());
        }

        // Restore: exactly what `psd --resume` does at startup.
        let mut restore_s = Vec::with_capacity(iters);
        for _ in 0..iters {
            let t = Instant::now();
            let loaded = load_latest(&dir, 0, 1)
                .expect("load latest")
                .expect("checkpoint exists");
            restore_s.push(t.elapsed().as_secs_f64());
            assert_eq!(loaded.round, (iters - 1) as u64);
        }

        // Worker-side private-state snapshot (model + strategy buffers),
        // written once per epoch when `worker --checkpoint-dir` is set.
        let mut worker_s = Vec::with_capacity(iters);
        let wkpt = WorkerCheckpoint {
            worker: 0,
            num_workers: 1,
            epoch: 0,
            round: 0,
            model: ckpt.weights.clone(),
            strategy: ckpt.opt_state.clone(),
        };
        for _ in 0..iters {
            let t = Instant::now();
            wkpt.save_atomic(&dir).expect("save worker checkpoint");
            worker_s.push(t.elapsed().as_secs_f64());
        }

        let (save, restore, worker) = (median(save_s), median(restore_s), median(worker_s));
        let save_mbps = bytes as f64 / save / 1e6;
        println!(
            "{floats:>12} {bytes:>10} {:>12.3} {save_mbps:>12.1} {:>12.3} {:>12.3}",
            save * 1e3,
            restore * 1e3,
            worker * 1e3
        );
        records.push(serde_json::json!({
            "floats": floats,
            "keys": keys,
            "encoded_bytes": bytes,
            "save_ms": save * 1e3,
            "save_mbytes_per_s": save_mbps,
            "restore_ms": restore * 1e3,
            "worker_save_ms": worker * 1e3,
        }));

        std::fs::remove_dir_all(&dir).expect("clear checkpoint dir");
    }

    let out = serde_json::json!({
        "bench": "checkpoint",
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "iters": iters,
        "records": records,
    });
    let path = "BENCH_checkpoint.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH json");
    println!("\nwrote {path}");
}
