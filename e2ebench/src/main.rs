//! The repository benchmark: trains one workload end to end through the
//! public `Trainer` API and prints its metrics, checking every run's
//! outputs on the way.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` repeats untraced training runs for `--seconds` and reports
//! the end-to-end metrics: speeds from the fastest epochs, the rest as
//! medians over runs.
//! `--trace 1` makes the traced run: profiler spans, a telemetry sink and
//! benchmark-side timing of each layer's public functions, reported as
//! the per-layer metrics. Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod ledger;
mod probes;
mod report;
mod sys;
mod traced;
mod workload;

use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Workload, NAMES, WORKERS};

const USAGE: &str =
    "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]\n\
                     workloads: resnet8-cdsgd-link | mlp-bitsgd-tcp | mlp-ssgd-ring";

/// Untraced runs per measurement, at least: the final-weights digest
/// check compares two runs of one seed.
const MIN_RUNS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut tiny) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, tiny).ok_or(format!(
        "unknown workload {name}; one of {}",
        NAMES.join(", ")
    ))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host nproc={} kernel={} profile={} workload={} seed={}",
        sys::nproc(),
        cdsgd_tensor::kernel::backend().name(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload.name,
        args.seed
    );
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced::measure(&args.workload, args.seed, budget)
    } else {
        measure(&args.workload, args.seed, budget)
    };
    report.print();
    ExitCode::SUCCESS
}

/// Untraced runs while another run still fits in `budget` (at least
/// [`MIN_RUNS`]). The first two runs train on the inputs of `seed` and
/// must agree bit for bit; each later run draws fresh inputs from a seed
/// derived from it. The end-to-end metrics summarize the runs that
/// passed every check.
fn measure(w: &Workload, seed: u64, budget: Duration) -> Report {
    let start = Instant::now();
    let mut report = Report::default();
    let mut good = Vec::new();
    let mut digest = None;
    let mut last = Duration::ZERO;
    let mut peak_rss_kib = None;
    while report.attempted < MIN_RUNS || start.elapsed() + last <= budget {
        let sub = report.attempted.saturating_sub(1) as u64;
        let t = Instant::now();
        let mut run = ledger::train(w, seed ^ (sub << 32), false, &ledger::Taps::default());
        last = t.elapsed();
        // Later runs add the allocator's retained memory to the
        // high-water mark; the first run's peak is the one that repeats.
        peak_rss_kib.get_or_insert(sys::usage().peak_rss_kib);
        if sub == 0 && run.failures.is_empty() {
            let d = run.digest();
            match digest {
                None => digest = Some(d),
                Some(first) if first != d => run.failures.push(format!(
                    "final-weights digest {d:016x} differs from {first:016x} of the same seed"
                )),
                Some(_) => {}
            }
        }
        report.tally(&run, w);
        if run.failures.is_empty() {
            good.push(run);
        }
    }
    let med = |f: &dyn Fn(&ledger::Run) -> f64| report::median(good.iter().map(f).collect());
    let target = w.target_acc;
    let epochs = |r: &ledger::Run| r.target_epoch(target).expect("good runs meet the target") + 1;
    // CPU stolen by other tenants only ever adds time, in bursts that can
    // outlast a whole training run, so the speeds come from each epoch's
    // fastest time over the runs: samples_per_s over all epochs of all
    // runs, tta_s up to the target over the runs that met it in the usual
    // number of epochs. Run medians print alongside.
    let usual = report::mode(good.iter().map(epochs).collect());
    let typical: Vec<&ledger::Run> = good.iter().filter(|r| Some(epochs(r)) == usual).collect();
    let fastest = |runs: &[&ledger::Run], e: usize| {
        runs.iter()
            .map(|r| r.history.epochs[e].epoch_time_s)
            .fold(f64::NAN, f64::min)
    };
    let all: Vec<&ledger::Run> = good.iter().collect();
    let epoch_samples = (WORKERS * w.iters_per_epoch() * w.model.batch()) as f64;
    let samples_per_s =
        w.epochs as f64 * epoch_samples / (0..w.epochs).map(|e| fastest(&all, e)).sum::<f64>();
    let tta_s = usual.map_or(f64::NAN, |n| (0..n).map(|e| fastest(&typical, e)).sum());
    println!(
        "median over {} runs: {} samples/s, tta {} s",
        good.len(),
        med(&ledger::Run::samples_per_s),
        report::median(typical.iter().filter_map(|r| r.tta_s(target)).collect())
    );
    report.metric("samples_per_s", samples_per_s, "1/s");
    report.metric("tta_s", tta_s, "s");
    report.metric("epochs_to_target", med(&|r| epochs(r) as f64), "epochs");
    report.metric(
        "final_test_acc",
        med(&|r| f64::from(r.history.final_test_acc().unwrap_or(0.0))),
        "frac",
    );
    report.metric(
        "final_train_loss",
        med(&|r| f64::from(r.history.final_train_loss().unwrap_or(0.0))),
        "nats",
    );
    report.metric(
        "wire_bytes_per_sample",
        med(&|r| r.wire_bytes_per_sample()),
        "B",
    );
    report.metric("setup_s", med(&|r| r.setup_s), "s");
    report.metric(
        "peak_rss_mib",
        peak_rss_kib.map_or(f64::NAN, |kib| kib as f64 / 1024.0),
        "MiB",
    );
    report
}
