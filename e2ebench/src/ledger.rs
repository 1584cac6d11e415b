//! One training run of a workload through `Trainer::try_run_with`, with
//! its set-up time and every output check the benchmark makes.

use crate::workload::{Deploy, Workload, LINK_BYTES_PER_S, WORKERS};
use cd_sgd::{Telemetry, TrainConfig, Trainer, TrainingHistory};
use cdsgd_net::{collective_frame_bytes, NetConfig, TcpAcceptor};
use cdsgd_ps::{
    chunk_range, AllReduceBackend, InProcessBackend, NetCluster, ParamServer, PsBackend,
    PsNetServer, TrafficStats, WireMode,
};
use cdsgd_tensor::SmallRng64;
use std::sync::Arc;
use std::time::Instant;

/// Telemetry handles of a traced run: worker side (profiler spans, the
/// in-process server, the TCP clients) and the TCP server shard.
#[derive(Default)]
pub struct Taps {
    pub client: Telemetry,
    pub server: Telemetry,
}

/// What one run produced.
pub struct Run {
    pub history: TrainingHistory,
    /// Data generation, model build, backend start and connect.
    pub setup_s: f64,
    /// Epoch wall time, summed.
    pub train_s: f64,
    pub samples: usize,
    pub iters_per_epoch: usize,
    /// Transport frames the workers' side sent and received during
    /// training (TCP deployments), or their bytes on the ring.
    pub frame_bytes: u64,
    /// Collective payload bytes pushed by all ring members.
    pub collective_bytes: u64,
    /// Every failed output check, in words; empty when the run is good.
    pub failures: Vec<String>,
}

impl Run {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.train_s
    }

    /// Index of the first epoch whose test accuracy meets `target`.
    pub fn target_epoch(&self, target: f32) -> Option<usize> {
        self.history
            .epochs
            .iter()
            .position(|e| e.test_acc.is_some_and(|a| a >= target))
    }

    /// Wall time from the start of training to the end of the epoch
    /// that first met `target`.
    pub fn tta_s(&self, target: f32) -> Option<f64> {
        let last = self.target_epoch(target)?;
        Some(
            self.history.epochs[..=last]
                .iter()
                .map(|e| e.epoch_time_s)
                .sum(),
        )
    }

    /// Message-layer bytes (pushes plus pull replies, or ring chunks)
    /// per trained sample.
    pub fn wire_bytes_per_sample(&self) -> f64 {
        let last = self.history.epochs.last().expect("a good run has epochs");
        (last.cumulative_push_bytes + last.cumulative_pull_bytes) as f64 / self.samples as f64
    }

    /// Worker iterations across all workers.
    pub fn worker_steps(&self) -> usize {
        WORKERS * self.iters_per_epoch * self.history.epochs.len()
    }

    /// FNV-1a over the bits of the final weights.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in self.history.final_weights.iter().flatten() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Byte counters of the deployment, captured when its backend starts.
enum Books {
    None,
    Tcp {
        server: Arc<PsNetServer>,
        client: Arc<TrafficStats>,
    },
    Ring {
        stats: Arc<TrafficStats>,
        pushed0: u64,
        sent0: u64,
        received0: u64,
    },
}

/// Train `w` once on the inputs of `seed`. An abort, including a
/// deployment that cannot start, is a failed run.
pub fn train(w: &Workload, seed: u64, profile: bool, taps: &Taps) -> Run {
    let t0 = Instant::now();
    let data = w.model.data(w.train_n + w.test_n, seed);
    let (train, test) = data.split(w.train_n as f64 / (w.train_n + w.test_n) as f64);
    let mut cfg = TrainConfig::new(w.algo.clone(), WORKERS)
        .with_lr(w.lr)
        .with_batch_size(w.model.batch())
        .with_epochs(w.epochs)
        .with_seed(seed)
        .with_profiling(profile)
        .with_telemetry(taps.client.clone());
    if w.deploy == Deploy::InProcessLink {
        cfg = cfg.with_emulated_network(LINK_BYTES_PER_S);
    }
    let model = w.model;
    let trainer = Trainer::new(cfg, move |rng| model.build(rng), train, Some(test));
    let iters_per_epoch = trainer.iters_per_epoch();

    let mut books = Books::None;
    let mut setup_s = 0.0;
    let result = trainer.try_run_with(|init, scfg| {
        let backend: Box<dyn PsBackend> =
            match w.deploy {
                Deploy::InProcessLink => Box::new(InProcessBackend::new(
                    ParamServer::start_traced(init, scfg, taps.client.clone()),
                )),
                Deploy::PsTcp => {
                    // The deployment `NetCluster::start_tcp_local` builds, with
                    // the shard held here so its byte books can be read.
                    let num_keys = init.len();
                    let server = PsNetServer::start_traced(init, scfg, taps.server.clone());
                    let (acceptor, addr) =
                        match TcpAcceptor::bind("127.0.0.1:0", NetConfig::default()) {
                            Ok(bound) => bound,
                            Err(e) => {
                                server.shutdown();
                                return Err(e);
                            }
                        };
                    server.listen(acceptor);
                    books = Books::Tcp {
                        server,
                        client: Arc::new(TrafficStats::new()),
                    };
                    let cluster = NetCluster::connect_traced(
                        &[addr.to_string()],
                        num_keys,
                        NetConfig::default(),
                        taps.client.clone(),
                    )?;
                    if let Books::Tcp { client, .. } = &mut books {
                        *client = cluster.shared_stats();
                    }
                    Box::new(cluster)
                }
                Deploy::RingTcp => {
                    let ring = AllReduceBackend::ring(WORKERS, WireMode::Tcp)?;
                    let stats = ring.stats();
                    books = Books::Ring {
                        pushed0: stats.bytes_pushed(),
                        sent0: stats.bytes_sent(),
                        received0: stats.bytes_received(),
                        stats,
                    };
                    Box::new(ring)
                }
            };
        setup_s = t0.elapsed().as_secs_f64();
        Ok(backend)
    });

    let mut failures = Vec::new();
    let history = match result {
        Ok(h) => h,
        Err(f) => {
            failures.push(format!("aborted: {f}"));
            f.history
        }
    };
    let mut run = Run {
        train_s: history.epochs.iter().map(|e| e.epoch_time_s).sum(),
        samples: WORKERS * iters_per_epoch * w.model.batch() * history.epochs.len(),
        history,
        setup_s,
        iters_per_epoch,
        frame_bytes: 0,
        collective_bytes: 0,
        failures,
    };
    check_books(w, books, &mut run);
    if let Some(e) = run
        .history
        .epochs
        .iter()
        .find(|e| !e.train_loss.is_finite())
    {
        run.failures
            .push(format!("epoch {} train loss {}", e.epoch, e.train_loss));
    }
    if run.target_epoch(w.target_acc).is_none() {
        run.failures.push(format!(
            "test accuracy {:?} never met the target {}",
            run.history.final_test_acc(),
            w.target_acc
        ));
    }
    if run.history.final_weights.is_empty() {
        run.failures.push("no final weights".into());
    }
    run
}

/// Settle the deployment's byte books: both TCP directions must balance
/// between client and server, every ring member must have pushed
/// 2(N−1)/N of the model per round, and the ring's frames must be
/// exactly the chunk frames of that payload.
fn check_books(w: &Workload, books: Books, run: &mut Run) {
    match books {
        Books::None => {}
        Books::Tcp { server, client } => {
            if !run.failures.is_empty() {
                // Aborted: the books cannot balance and the Shutdown
                // frame may never come.
                server.shutdown();
                return;
            }
            // The trainer's shutdown sent the shard its Shutdown frame;
            // once that is read, no frame is in flight.
            if let Err(e) = server.wait_for_shutdown() {
                run.failures.push(format!("server failed: {e}"));
            }
            server.shutdown();
            let ss = server.stats();
            if client.bytes_sent() != ss.bytes_received()
                || client.bytes_received() != ss.bytes_sent()
            {
                run.failures.push(format!(
                    "TCP books: clients sent {} / received {}, server received {} / sent {}",
                    client.bytes_sent(),
                    client.bytes_received(),
                    ss.bytes_received(),
                    ss.bytes_sent()
                ));
            }
            run.frame_bytes = client.bytes_sent() + client.bytes_received();
        }
        Books::Ring {
            stats,
            pushed0,
            sent0,
            received0,
        } => {
            let sizes = w.model.build(&mut SmallRng64::new(0)).param_sizes();
            let params = sizes.iter().sum::<usize>() as u64;
            let n = WORKERS as u64;
            let rounds = (run.iters_per_epoch * run.history.epochs.len()) as u64;
            let pushed = stats.bytes_pushed() - pushed0;
            // Summed over the N members: per member per round, 2(N−1)/N
            // of the 4-byte parameter vector.
            if pushed != rounds * 2 * (n - 1) * 4 * params {
                run.failures.push(format!(
                    "ring payload: {pushed} B pushed over {rounds} rounds, want {} B",
                    rounds * 2 * (n - 1) * 4 * params
                ));
            }
            run.collective_bytes = pushed;
            run.frame_bytes = stats.bytes_sent() - sent0 + (stats.bytes_received() - received0);
            // Each key's all-reduce sends every chunk 2(N−1) times, once
            // per scatter and gather step, and receives as many.
            let per_round: usize = sizes
                .iter()
                .map(|&len| {
                    let chunks: usize = (0..WORKERS)
                        .map(|i| collective_frame_bytes(chunk_range(len, WORKERS, i).len()))
                        .sum();
                    chunks * 2 * (WORKERS - 1)
                })
                .sum();
            let want = 2 * per_round as u64 * rounds;
            if run.frame_bytes != want {
                run.failures.push(format!(
                    "ring frames: {} B sent and received, the chunk protocol accounts for {want} B",
                    run.frame_bytes
                ));
            }
        }
    }
}
