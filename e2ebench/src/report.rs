//! Run tallies and the result lines: one `metric` line per metric, then
//! the JSON object the benchmark contract reads.

use crate::ledger::Run;
use crate::workload::Workload;

#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Count `run` against the attempts, logging it and any failed check
    /// to stderr.
    pub fn tally(&mut self, run: &Run, w: &Workload) {
        self.attempted += 1;
        let accs: Vec<String> = run
            .history
            .epochs
            .iter()
            .map(|e| format!("{:.3}", e.test_acc.unwrap_or(f32::NAN)))
            .collect();
        eprintln!(
            "{} run {}: setup {:.3}s train {:.3}s {:.1} samples/s test acc [{}] loss {:.4} peak rss {:.1} MiB",
            w.name,
            self.attempted,
            run.setup_s,
            run.train_s,
            run.samples_per_s(),
            accs.join(" "),
            run.history.final_train_loss().unwrap_or(f32::NAN),
            crate::sys::usage().peak_rss_kib as f64 / 1024.0
        );
        if !run.failures.is_empty() {
            self.failed += 1;
            for f in &run.failures {
                eprintln!("  FAILED: {f}");
            }
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Print every metric by name and unit, then the result object as the
    /// last stdout line. A value that could not be measured (no run
    /// passed) prints as 0 under `"correct": false`.
    pub fn print(&self) {
        let mut fields = Vec::with_capacity(self.metrics.len());
        let mut finite = true;
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
            finite &= value.is_finite();
            let v = if value.is_finite() { *value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Median of `v` (the mean of the middle pair for even lengths); NaN
/// when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The most frequent value of `v`, the smallest on a tie; `None` when
/// empty.
pub fn mode(mut v: Vec<usize>) -> Option<usize> {
    v.sort_unstable();
    v.chunk_by(|a, b| a == b)
        .max_by(|a, b| a.len().cmp(&b.len()).then(b[0].cmp(&a[0])))
        .map(|run| run[0])
}

/// The `q`-quantile of `v` by nearest rank; NaN when empty.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let i = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[i]
}
