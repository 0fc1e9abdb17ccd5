//! Metric names, latency classes and the one-line JSON result.
//!
//! The metric tables here are the single source of truth for names and
//! units; `BENCHMARK.json` lists the same names and the self-test checks
//! that the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run of every workload.
/// Which operation class is "primary" and which "secondary" is fixed per
/// workload (see `README.md`).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_answer_s", "s"),
    ("throughput_qps", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_p90_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_p90_ms", "ms"),
    ("aux_mb", "MB"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload.
/// A layer that a workload never exercises reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("sql.prepare_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.drain_ms", "ms"),
    ("core.pushdown_reject_ratio", "ratio"),
    ("core.fields_skipped_early", "count"),
    ("core.rows_examined_per_row", "ratio"),
    ("core.unattributed_ms", "ms"),
    ("csv.tokenize_ms", "ms"),
    ("json.tokenize_ms", "ms"),
    ("scan.tokenize_mb", "MB"),
    ("scan.io_ms", "ms"),
    ("scan.io_mb", "MB"),
    ("scan.parse_ms", "ms"),
    ("scan.parse_values", "count"),
    ("exec.exec_ms", "ms"),
    ("posmap.hit_ratio", "ratio"),
    ("posmap.anchor_share", "ratio"),
    ("posmap.mb", "MB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.utilization", "ratio"),
    ("cache.mb", "MB"),
    ("runtime.tail_retokenize_ratio", "ratio"),
    ("runtime.rotate_catchup_ms", "ms"),
    ("server.roundtrip_ms", "ms"),
    ("server.first_row_ms", "ms"),
    ("server.rows_per_s", "1/s"),
    ("server.wire_overhead_ms", "ms"),
    ("server.busy_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.primary_p50_ms", "ms"),
];

/// Latency samples, attempts and failures of one run, by operation class.
#[derive(Debug, Default)]
pub struct Tally {
    /// Reported latencies; `raw_ms` holds the same before scaling.
    lat_ms: BTreeMap<&'static str, Vec<f64>>,
    raw_ms: BTreeMap<&'static str, Vec<f64>>,
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Record a checked, correct operation: its wall time in
    /// milliseconds and the host slowdown factor it is reported under
    /// (1 for raw times; see `speed`).
    pub fn ok(&mut self, class: &'static str, ms: f64, factor: f64) {
        *self.attempted.entry(class).or_default() += 1;
        self.lat_ms.entry(class).or_default().push(ms / factor);
        self.raw_ms.entry(class).or_default().push(ms);
    }

    /// Record a failed operation (error, Busy reply or wrong answer).
    /// Every failure is printed; none is dropped from the counts.
    pub fn fail(&mut self, class: &'static str, op: u64, why: &str) {
        *self.attempted.entry(class).or_default() += 1;
        *self.failed.entry(class).or_default() += 1;
        eprintln!("FAILED [{class}] op {op}: {why}");
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        for (k, mut v) in other.lat_ms {
            self.lat_ms.entry(k).or_default().append(&mut v);
        }
        for (k, mut v) in other.raw_ms {
            self.raw_ms.entry(k).or_default().append(&mut v);
        }
        for (k, v) in other.attempted {
            *self.attempted.entry(k).or_default() += v;
        }
        for (k, v) in other.failed {
            *self.failed.entry(k).or_default() += v;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn samples(&self, class: &str) -> &[f64] {
        self.lat_ms.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-class sample counts, quantiles and failures, for stderr.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (class, n) in &self.attempted {
            let v = self.samples(class);
            let raw = self.raw_ms.get(class).map(Vec::as_slice).unwrap_or(&[]);
            let _ = writeln!(
                s,
                "  class {class:<12} attempted {n:>6}  failed {:>4}  ok {:>6}  p50 {:>9.3} ms  p90 {:>9.3} ms  \
                 (raw wall time: p50 {:>9.3} ms  p90 {:>9.3} ms)",
                self.failed.get(class).copied().unwrap_or(0),
                v.len(),
                percentile(v, 0.5),
                percentile(v, 0.9),
                percentile(raw, 0.5),
                percentile(raw, 0.9),
            );
        }
        s
    }
}

/// Linearly interpolated quantile `q` in `[0, 1]` (0 for no samples).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything a workload measured that the end-to-end metrics derive
/// from.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up (engine, registration, server and connects).
    /// Like every time here, scaled by the host factor where the
    /// workload uses one.
    pub setup_s: Vec<f64>,
    /// Seconds from a fresh set-up to its first answer.
    pub first_answer_s: Vec<f64>,
    /// Length of the measured window (scaled like the latencies), and
    /// the operations attempted in it.
    pub window_s: f64,
    pub window_ops: u64,
    /// Largest posmap + cache footprint seen across all tables.
    pub aux_peak_bytes: u64,
    /// The operation class behind `primary_*` and `secondary_*`.
    pub primary: &'static str,
    pub secondary: &'static str,
    pub tally: Tally,
}

impl Measured {
    pub fn e2e(&self) -> Vec<f64> {
        let p = self.tally.samples(self.primary);
        let s = self.tally.samples(self.secondary);
        vec![
            percentile(&self.setup_s, 0.5),
            percentile(&self.first_answer_s, 0.5),
            self.window_ops as f64 / self.window_s.max(1e-9),
            percentile(p, 0.5),
            percentile(p, 0.9),
            percentile(s, 0.5),
            percentile(s, 0.9),
            self.aux_peak_bytes as f64 / 1e6,
            rss_peak_mb(),
        ]
    }
}

/// The measured window of a single-client workload. Set-up probes run
/// evenly spaced inside it, so that a slow spell of the host does not
/// set every probe at once. A probe pauses the window: its time is added
/// to the deadline.
pub struct Window {
    deadline: Instant,
    every: Duration,
    next_probe: Instant,
}

impl Window {
    pub fn new(seconds: f64, probes: usize) -> Window {
        let start = Instant::now();
        let len = Duration::from_secs_f64(seconds);
        let every = len / probes.max(1) as u32;
        Window {
            deadline: start + len,
            every,
            next_probe: start + every / 2,
        }
    }

    /// Still inside the window? Runs a due probe first.
    pub fn open<E>(&mut self, mut probe: impl FnMut() -> Result<(), E>) -> Result<bool, E> {
        let now = Instant::now();
        if now >= self.deadline {
            return Ok(false);
        }
        if now >= self.next_probe {
            probe()?;
            self.deadline += now.elapsed();
            self.next_probe += self.every;
        }
        Ok(true)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// The result line: `correct`, `attempted`, `failed` and one metric per
/// entry of `names`, with `values` in the same order.
pub fn result_line(attempted: u64, failed: u64, names: &[(&str, &str)], values: &[f64]) -> String {
    assert_eq!(names.len(), values.len(), "one value per metric name");
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, ((name, unit), v)) in names.iter().zip(values).enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let l = result_line(3, 0, &[("a_ms", "ms"), ("b", "count")], &[1.5, 2.0]);
        assert_eq!(
            l,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
