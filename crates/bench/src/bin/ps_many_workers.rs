//! Connection-count scaling of the event-loop parameter server: one
//! shard, N concurrent TCP workers, synchronous rounds. Sweeps N and
//! records wall-clock per round, aggregate push throughput, and the
//! server's IO-thread count (which must stay flat — the point of the
//! readiness-polling redesign) into `BENCH_ps_many_workers.json`.
//!
//! ```text
//! cargo run --release -p cdsgd-bench --bin ps_many_workers \
//!     [--rounds 20] [--key-len 1024] [--max-workers 128]
//! ```

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use cdsgd_bench::arg_usize;
use cdsgd_compress::Compressed;
use cdsgd_net::{NetConfig, TcpAcceptor};
use cdsgd_ps::{NetCluster, PsBackend, PsNetServer, ServerConfig};

fn main() {
    let rounds = arg_usize("rounds", 20) as u64;
    let key_len = arg_usize("key-len", 1024);
    let max_workers = arg_usize("max-workers", 128);

    let sweep: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|&n| n <= max_workers)
        .collect();

    println!(
        "== parameter-server connection scaling: {rounds} rounds, {key_len}-float key, \
         TCP localhost ==\n"
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>11} {:>9}",
        "workers", "elapsed_s", "rounds_per_s", "pushes_per_s", "io_threads", "rejected"
    );

    let mut records = Vec::new();
    for &workers in &sweep {
        let server = PsNetServer::start(vec![vec![0.0; key_len]], ServerConfig::new(workers, 0.2));
        let (acceptor, addr) =
            TcpAcceptor::bind(("127.0.0.1", 0), NetConfig::default()).expect("bind");
        server.listen(acceptor);
        let addr = Arc::new(addr.to_string());

        // Connect everyone first so the timed window measures rounds,
        // not TCP handshakes.
        let barrier = Arc::new(std::sync::Barrier::new(workers + 1));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let addr = Arc::clone(&addr);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let cluster =
                        NetCluster::connect(std::slice::from_ref(&addr), 1, NetConfig::default())
                            .expect("connect");
                    let client = cluster.client().expect("open connection");
                    barrier.wait();
                    for round in 0..rounds {
                        client
                            .push(w, 0, Compressed::Raw(vec![0.01; key_len]))
                            .expect("push");
                        client.pull(0, round + 1).expect("pull");
                    }
                    barrier.wait();
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        let elapsed = start.elapsed().as_secs_f64();
        for h in handles {
            h.join().expect("worker thread");
        }

        let rounds_per_s = rounds as f64 / elapsed;
        let pushes_per_s = (rounds * workers as u64) as f64 / elapsed;
        let io_threads = server.io_threads();
        let rejected = server.rejected_connections();
        server.shutdown();

        println!(
            "{workers:>8} {elapsed:>10.3} {rounds_per_s:>12.1} {pushes_per_s:>14.1} \
             {io_threads:>11} {rejected:>9}"
        );
        records.push(serde_json::json!({
            "workers": workers,
            "rounds": rounds,
            "key_len": key_len,
            "elapsed_s": elapsed,
            "rounds_per_s": rounds_per_s,
            "pushes_per_s": pushes_per_s,
            "io_threads": io_threads,
            "rejected_connections": rejected,
        }));
    }

    let nproc = thread::available_parallelism().map_or(0, |n| n.get());
    let out = serde_json::json!({
        "bench": "ps_many_workers",
        "transport": "tcp_localhost",
        "nproc": nproc,
        "records": records,
    });
    let path = "BENCH_ps_many_workers.json";
    std::fs::write(path, serde_json::to_string_pretty(&out).expect("serialize"))
        .expect("write BENCH json");
    println!("\nwrote {path}");
}
