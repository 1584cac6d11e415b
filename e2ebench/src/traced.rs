//! The traced run: training with profiler spans and a benchmark-owned
//! telemetry sink, next to untraced runs of the same seed, plus the
//! layer probes — reported as the per-layer metrics.

use crate::ledger::{self, Run, Taps};
use crate::probes;
use crate::report::{median, quantile, Report};
use crate::sys::{self, Usage};
use crate::workload::{Deploy, Workload, LINK_BYTES_PER_S, WORKERS};
use cd_sgd::profile::{OpEvent, OpKind};
use cd_sgd::{Algorithm, Event, MemorySink, Telemetry, TrainConfig, Trainer};
use cdsgd_compress::{Compressed, GradientCompressor, TwoBitQuantizer};
use cdsgd_net::push_frame_bytes;
use cdsgd_simtime::{CostInputs, CostModel};
use cdsgd_tensor::SmallRng64;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-step time parts of one worker iteration, in seconds.
#[derive(Default)]
struct Step {
    round: u64,
    total: f64,
    fp: f64,
    bp: f64,
    quant: f64,
    local: f64,
    pull_wait: f64,
}

impl Step {
    fn residual(&self) -> f64 {
        self.total - self.fp - self.bp - self.quant - self.local - self.pull_wait
    }
}

/// Cut each worker's spans into steps: a step runs from one FP start to
/// the next FP start of the same epoch (the epoch's last step, which
/// ends in evaluation and the epoch barrier, is left out), and owns every
/// span of that worker starting inside it.
fn steps(profile: &[OpEvent], iters_per_epoch: usize) -> Vec<Step> {
    let mut out = Vec::new();
    for w in 0..WORKERS {
        let mine: Vec<&OpEvent> = profile.iter().filter(|e| e.worker == w).collect();
        let fps: Vec<&OpEvent> = mine
            .iter()
            .copied()
            .filter(|e| e.op == OpKind::Forward)
            .collect();
        for pair in fps.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.round != a.round + 1 || b.round % iters_per_epoch as u64 == 0 {
                continue;
            }
            let mut s = Step {
                round: a.round,
                total: b.start_s - a.start_s,
                ..Step::default()
            };
            for e in mine
                .iter()
                .filter(|e| e.start_s >= a.start_s && e.start_s < b.start_s)
            {
                let d = e.duration();
                match e.op {
                    OpKind::Forward => s.fp += d,
                    OpKind::Backward => s.bp += d,
                    OpKind::Compress => s.quant += d,
                    OpKind::LocalUpdate => s.local += d,
                    OpKind::PullWait => s.pull_wait += d,
                    OpKind::Decompress => {}
                }
            }
            out.push(s);
        }
    }
    out
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The push frame sizes the server charges for a raw and for a 2-bit
/// push of each key of `sizes`.
fn push_sizes(w: &Workload, sizes: &[usize]) -> (Vec<u64>, Vec<u64>) {
    let q = TwoBitQuantizer::new(w.threshold());
    sizes
        .iter()
        .map(|&n| {
            let raw = Compressed::Raw(vec![0.0; n]).wire_bytes();
            (
                push_frame_bytes(raw) as u64,
                push_frame_bytes(q.wire_bytes(n)) as u64,
            )
        })
        .unzip()
}

/// Metrics by name: (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Everything one traced training run yields.
struct Traced {
    run: Run,
    steps: Vec<Step>,
    client: Vec<Event>,
    server: Vec<Event>,
    usage: (Usage, Usage),
}

fn traced_run(w: &Workload, seed: u64) -> Traced {
    let client = Arc::new(MemorySink::new());
    let server = Arc::new(MemorySink::new());
    let taps = Taps {
        client: Telemetry::new(client.clone()),
        server: Telemetry::new(server.clone()),
    };
    let u0 = sys::usage();
    let run = ledger::train(w, seed, true, &taps);
    let u1 = sys::usage();
    let steps = run
        .history
        .profile
        .as_deref()
        .map_or_else(Vec::new, |p| steps(p, run.iters_per_epoch));
    Traced {
        run,
        steps,
        client: client.take(),
        server: server.take(),
        usage: (u0, u1),
    }
}

/// Step-time median of a one-worker in-process S-SGD run of the same
/// model on one worker's share of the data: the step with no
/// communication to wait for.
fn solo_step_s(w: &Workload, seed: u64) -> f64 {
    let data = w.model.data(w.train_n / WORKERS, seed);
    let cfg = TrainConfig::new(Algorithm::SSgd, 1)
        .with_lr(w.lr)
        .with_batch_size(w.model.batch())
        .with_epochs(1)
        .with_seed(seed)
        .with_profiling(true);
    let model = w.model;
    let trainer = Trainer::new(cfg, move |rng| model.build(rng), data, None);
    let ipe = trainer.iters_per_epoch();
    let h = trainer.run();
    let steps = steps(h.profile.as_deref().unwrap_or(&[]), ipe);
    median(steps.iter().map(|s| s.total).collect())
}

/// Per-layer metrics of one traced run: name → (value, unit).
fn run_metrics(w: &Workload, t: &Traced, tcp_bytes_per_s: f64) -> Metrics {
    let mut m = Metrics::new();
    let run = &t.run;
    let worker_steps = run.worker_steps() as f64;
    let rounds = (run.iters_per_epoch * run.history.epochs.len()) as f64;
    let ms = |f: &dyn Fn(&Step) -> f64| 1e3 * mean(t.steps.iter().map(f));
    m.insert("core.fp_ms", (ms(&|s| s.fp), "ms"));
    m.insert("core.bp_ms", (ms(&|s| s.bp), "ms"));
    m.insert("core.quant_ms", (ms(&|s| s.quant), "ms"));
    m.insert("core.local_update_ms", (ms(&|s| s.local), "ms"));
    m.insert("core.pull_wait_ms", (ms(&|s| s.pull_wait), "ms"));
    m.insert("core.residual_ms", (ms(&Step::residual), "ms"));
    println!(
        "step ledger: {} steps, mean {:.3} ms = FP {:.3} + BP {:.3} + quant {:.3} + local update {:.3} + pull wait {:.3} + residual {:.3}",
        t.steps.len(),
        ms(&|s| s.total),
        m["core.fp_ms"].0,
        m["core.bp_ms"].0,
        m["core.quant_ms"].0,
        m["core.local_update_ms"].0,
        m["core.pull_wait_ms"].0,
        m["core.residual_ms"].0
    );
    let totals: Vec<f64> = t.steps.iter().map(|s| s.total).collect();
    m.insert("core.step_ms_p50", (1e3 * median(totals.clone()), "ms"));
    m.insert("core.step_ms_p90", (1e3 * quantile(totals, 0.9), "ms"));

    // Server decode spans: the in-process server emits on the worker-side
    // tap, the TCP shard on its own.
    let dequant: f64 = t
        .client
        .iter()
        .chain(&t.server)
        .filter_map(|e| match e {
            Event::OpSpan {
                op: OpKind::Decompress,
                start_s,
                end_s,
                ..
            } => Some(end_s - start_s),
            _ => None,
        })
        .fold(0.0, |a, d| a + d);
    m.insert("ps.dequant_ms", (1e3 * dequant / rounds, "ms"));
    let last = run.history.epochs.last();
    let push = last.map_or(0, |e| e.cumulative_push_bytes) as f64;
    let pull = last.map_or(0, |e| e.cumulative_pull_bytes) as f64;
    m.insert("ps.push_bytes_per_step", (push / worker_steps, "B"));
    m.insert("ps.pull_bytes_per_step", (pull / worker_steps, "B"));
    m.insert(
        "ps.collective_bytes_per_step",
        (run.collective_bytes as f64 / worker_steps, "B"),
    );

    let sizes = w.model.build(&mut SmallRng64::new(0)).param_sizes();
    let frames = match w.deploy {
        Deploy::InProcessLink => 0.0,
        Deploy::PsTcp => t
            .client
            .iter()
            .filter(|e| matches!(e, Event::FrameSent { .. } | Event::FrameReceived { .. }))
            .count() as f64,
        // Every member sends and receives 2(N−1) chunk frames per key
        // per round; the ledger checked their bytes against the counters.
        Deploy::RingTcp => (sizes.len() * 2 * 2 * (WORKERS - 1) * WORKERS) as f64 * rounds,
    };
    m.insert("net.frames_per_step", (frames / worker_steps, "count"));
    m.insert(
        "net.frame_bytes_per_step",
        (run.frame_bytes as f64 / worker_steps, "B"),
    );

    let (u0, u1) = t.usage;
    m.insert(
        "proc.minor_faults_per_step",
        (
            (u1.minor_faults - u0.minor_faults) as f64 / worker_steps,
            "count",
        ),
    );
    m.insert(
        "proc.vol_ctx_switches_per_step",
        (
            (u1.vol_ctx_switches - u0.vol_ctx_switches) as f64 / worker_steps,
            "count",
        ),
    );
    let (user, system) = (u1.user_s - u0.user_s, u1.sys_s - u0.sys_s);
    m.insert("proc.sys_cpu_frac", (system / (user + system), "frac"));

    m.insert(
        "simtime.pred_err_frac",
        (cost_model_error(w, t, &sizes, tcp_bytes_per_s), "frac"),
    );
    m
}

/// Fit the paper's τ, δ, φ, ψ from this run and report how far the
/// closed form for the workload's algorithm misses the measured step
/// time, as |predicted − measured| / measured over formal-phase steps.
///
/// τ is FP+BP and δ the quant time per step, from the spans. φ and ψ
/// are the measured bytes of a raw and of a compressed step over the
/// link: the emulated link carries both workers' pushes and pull replies
/// through one server thread, so a round's bytes are summed over the
/// workers; on TCP each worker's bytes go at the loopback rate the
/// round-trip probe measured.
fn cost_model_error(w: &Workload, t: &Traced, sizes: &[usize], tcp_bytes_per_s: f64) -> f64 {
    let warmup = w.warmup() as u64;
    let formal: Vec<&Step> = t.steps.iter().filter(|s| s.round >= warmup).collect();
    let measured = mean(formal.iter().map(|s| s.total));
    let tau = mean(formal.iter().map(|s| s.fp + s.bp));
    let compressed: Vec<&&Step> = formal.iter().filter(|s| s.quant > 0.0).collect();
    let delta = mean(compressed.iter().map(|s| s.quant));
    let (raw_sizes, q_sizes) = push_sizes(w, sizes);
    // Push events by kind, told apart by their wire size.
    let (mut raw, mut raw_n, mut comp, mut comp_n, mut pulled, mut pull_n) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for e in &t.client {
        match *e {
            Event::Push { bytes } if raw_sizes.contains(&bytes) => {
                raw += bytes;
                raw_n += 1;
            }
            Event::Push { bytes } if q_sizes.contains(&bytes) => {
                comp += bytes;
                comp_n += 1;
            }
            Event::Pull { bytes } => {
                pulled += bytes;
                pull_n += 1;
            }
            _ => {}
        }
    }
    let keys = sizes.len() as f64;
    // Bytes of one worker's step of each kind.
    let per_step = |bytes: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            bytes as f64 * keys / n as f64
        }
    };
    let pull_step = per_step(pulled, pull_n);
    let (raw_step, comp_step) = (
        per_step(raw, raw_n) + pull_step,
        per_step(comp, comp_n) + pull_step,
    );
    let run = &t.run;
    let (phi, psi, predicted) = match w.deploy {
        Deploy::InProcessLink => {
            let link = LINK_BYTES_PER_S / WORKERS as f64;
            let (phi, psi) = (raw_step / link, comp_step / link);
            let k = match w.algo {
                Algorithm::CdSgd { k, .. } => k,
                _ => 1,
            };
            let model = CostModel::new(CostInputs {
                tau,
                phi,
                psi,
                delta,
                k,
            });
            (phi, psi, model.t_cd_avg())
        }
        Deploy::PsTcp => {
            let (phi, psi) = (raw_step / tcp_bytes_per_s, comp_step / tcp_bytes_per_s);
            let model = CostModel::new(CostInputs {
                tau,
                phi,
                psi,
                delta,
                k: 1,
            });
            (phi, psi, model.t_bit())
        }
        Deploy::RingTcp => {
            let bytes = run.collective_bytes as f64 / run.worker_steps() as f64;
            let phi = bytes / tcp_bytes_per_s;
            let model = CostModel::new(CostInputs {
                tau,
                phi,
                psi: phi,
                delta: 0.0,
                k: 1,
            });
            (phi, phi, model.t_ssgd())
        }
    };
    eprintln!(
        "cost model: tau {:.3} ms, delta {:.3} ms, phi {:.3} ms, psi {:.3} ms -> predicted {:.3} ms, measured {:.3} ms",
        1e3 * tau,
        1e3 * delta,
        1e3 * phi,
        1e3 * psi,
        1e3 * predicted,
        1e3 * measured
    );
    (predicted - measured).abs() / measured
}

/// The traced measurement: pairs of an untraced and a traced run of the
/// same seed while another pair fits in half the budget (at least one
/// pair), then the one-worker baseline and the layer probes.
pub fn measure(w: &Workload, seed: u64, budget: Duration) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut digest = None;
    let mut check = |run: &mut Run, report: &mut Report| {
        if run.failures.is_empty() {
            let d = run.digest();
            match digest {
                None => digest = Some(d),
                Some(first) if first != d => run.failures.push(format!(
                    "final-weights digest {d:016x} differs from {first:016x} of the same seed"
                )),
                Some(_) => {}
            }
        }
        report.tally(run, w);
    };
    let mut plain_sps = Vec::new();
    let mut traced_sps = Vec::new();
    let mut traced = Vec::new();
    let mut last = Duration::ZERO;
    while traced.is_empty() || start.elapsed() + last <= budget / 2 {
        let pair = Instant::now();
        // A run that fails a check still reports its numbers; the failure
        // is tallied and marks the result incorrect.
        let mut plain = ledger::train(w, seed, false, &Taps::default());
        check(&mut plain, &mut report);
        plain_sps.push(plain.samples_per_s());
        let mut t = traced_run(w, seed);
        check(&mut t.run, &mut report);
        traced_sps.push(t.run.samples_per_s());
        traced.push(t);
        last = pair.elapsed();
    }

    let grads = probes::gradients(w.model, seed, 8);
    let init = w.model.build(&mut SmallRng64::new(seed)).export_params();
    let (push_frames, pull_frames) = probes::wire(&mut report, w, &grads[0]);
    let tcp_bytes_per_s = probes::tcp_rtt(&mut report, &push_frames, &pull_frames);
    probes::ps_roundtrip(&mut report, w, init, &grads[0]);
    probes::collective(&mut report, seed);
    probes::codec(&mut report, w, &grads);
    probes::gemm(&mut report, seed);
    probes::nn_layers(&mut report, seed);
    probes::epoch_prep(&mut report, w, seed);

    let per_run: Vec<Metrics> = traced
        .iter()
        .map(|t| run_metrics(w, t, tcp_bytes_per_s))
        .collect();
    for (name, (_, unit)) in &per_run[0] {
        report.metric(
            *name,
            median(per_run.iter().map(|m| m[name].0).collect()),
            unit,
        );
    }
    let step_p50 = median(per_run.iter().map(|m| m["core.step_ms_p50"].0).collect());
    report.metric(
        "core.comm_exposed_ms",
        step_p50 - 1e3 * solo_step_s(w, seed),
        "ms",
    );
    report.metric(
        "telemetry.overhead_frac",
        1.0 - median(traced_sps) / median(plain_sps),
        "frac",
    );
    report
}
