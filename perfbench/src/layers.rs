//! Per-layer accumulation for traced runs: counter deltas, query
//! profiles and span totals, reduced to the metrics in
//! [`crate::report::LAYERS`].

use nodb_common::Result;
use nodb_core::{NoDb, PhaseProfile, QueryProfile, ScanMetrics};

use crate::report::LAYERS;
use crate::trace::{NameTotals, Trace};

/// Cumulative per-table counters, snapshotted at operation boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snapshot {
    pub metrics: ScanMetrics,
    pub profile: PhaseProfile,
}

impl Snapshot {
    pub fn take(db: &NoDb, tables: &[&str]) -> Result<Snapshot> {
        let mut s = Snapshot::default();
        for t in tables {
            s.metrics.merge(&db.metrics(t)?);
            s.profile.merge(&db.profile(t)?);
        }
        Ok(s)
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let (a, b) = (&self.metrics, &before.metrics);
        let (p, q) = (&self.profile, &before.profile);
        Snapshot {
            metrics: ScanMetrics {
                scans: a.scans - b.scans,
                rows_emitted: a.rows_emitted - b.rows_emitted,
                fields_tokenized: a.fields_tokenized - b.fields_tokenized,
                fields_via_map: a.fields_via_map - b.fields_via_map,
                fields_via_anchor: a.fields_via_anchor - b.fields_via_anchor,
                fields_parsed: a.fields_parsed - b.fields_parsed,
                fields_from_cache: a.fields_from_cache - b.fields_from_cache,
                bytes_tokenized: a.bytes_tokenized - b.bytes_tokenized,
                rows_rejected_early: a.rows_rejected_early - b.rows_rejected_early,
                fields_skipped_early: a.fields_skipped_early - b.fields_skipped_early,
            },
            profile: PhaseProfile {
                io_ns: p.io_ns - q.io_ns,
                io_bytes: p.io_bytes - q.io_bytes,
                tokenize_ns: p.tokenize_ns - q.tokenize_ns,
                tokenize_bytes: p.tokenize_bytes - q.tokenize_bytes,
                parse_ns: p.parse_ns - q.parse_ns,
                parse_values: p.parse_values - q.parse_values,
            },
        }
    }
}

/// Auxiliary footprint summed over tables (`NoDb::aux_info`).
#[derive(Debug, Default, Clone, Copy)]
pub struct Aux {
    pub posmap_bytes: u64,
    pub cache_bytes: u64,
    /// Highest cache utilization of any table (0 without a budget).
    pub cache_utilization: f64,
}

impl Aux {
    pub fn take(db: &NoDb, tables: &[&str]) -> Result<Aux> {
        let mut a = Aux::default();
        for t in tables {
            let i = db.aux_info(t)?;
            a.posmap_bytes += i.posmap_bytes as u64;
            a.cache_bytes += i.cache_bytes as u64;
            a.cache_utilization = a.cache_utilization.max(i.cache_utilization);
        }
        Ok(a)
    }

    pub fn bytes(&self) -> u64 {
        self.posmap_bytes + self.cache_bytes
    }
}

/// What the traced run accumulated.
#[derive(Debug, Default)]
pub struct Layers {
    /// Scan counters summed over every operation.
    pub metrics: ScanMetrics,
    /// Result rows returned by every operation.
    pub rows_returned: u64,
    /// Operations with scan phases, and their summed phase profile.
    pub scan_ops: u64,
    pub phases: PhaseProfile,
    /// Tokenizing time and operation counts split by file format.
    pub csv_ops: u64,
    pub csv_tokenize_ns: u64,
    pub json_ops: u64,
    pub json_tokenize_ns: u64,
    /// Embedded drains: operator self time and the unexplained remainder.
    pub drained_ops: u64,
    pub exec_self_ns: f64,
    pub unattributed_ns: f64,
    /// Appends: bytes appended, and bytes the next query tokenized.
    pub appended_bytes: u64,
    pub tail_tokenized_bytes: u64,
    /// Latency of each query right after a rotation.
    pub rotate_catchup_ms: Vec<f64>,
    /// Rows streamed over the wire by the `wire` class.
    pub wire_rows: u64,
    /// Round trip minus the same statement drained embedded.
    pub wire_overhead_ms: Vec<f64>,
    pub busy_ratio: f64,
    pub aux_end: Aux,
}

impl Layers {
    /// Fold in another connection's accumulation (all but the end-of-run
    /// fields, which are taken once).
    pub fn merge(&mut self, o: Layers) {
        self.metrics.merge(&o.metrics);
        self.rows_returned += o.rows_returned;
        self.scan_ops += o.scan_ops;
        self.phases.merge(&o.phases);
        self.csv_ops += o.csv_ops;
        self.csv_tokenize_ns += o.csv_tokenize_ns;
        self.json_ops += o.json_ops;
        self.json_tokenize_ns += o.json_tokenize_ns;
        self.drained_ops += o.drained_ops;
        self.exec_self_ns += o.exec_self_ns;
        self.unattributed_ns += o.unattributed_ns;
        self.appended_bytes += o.appended_bytes;
        self.tail_tokenized_bytes += o.tail_tokenized_bytes;
        self.rotate_catchup_ms.extend(o.rotate_catchup_ms);
        self.wire_rows += o.wire_rows;
        self.wire_overhead_ms.extend(o.wire_overhead_ms);
    }

    /// Fold in one operation's counter deltas and rows returned.
    pub fn add_delta(&mut self, d: &Snapshot, json: bool, rows: u64) {
        self.metrics.merge(&d.metrics);
        self.rows_returned += rows;
        self.add_phases(&d.profile, json);
    }

    fn add_phases(&mut self, p: &PhaseProfile, json: bool) {
        self.scan_ops += 1;
        self.phases.merge(p);
        if json {
            self.json_ops += 1;
            self.json_tokenize_ns += p.tokenize_ns;
        } else {
            self.csv_ops += 1;
            self.csv_tokenize_ns += p.tokenize_ns;
        }
    }

    /// Fold in an embedded operation: its counter deltas, plus the
    /// query's own profile split against the drain span.
    ///
    /// `QueryProfile::exec_ns` times one cursor call in 64 and scales it
    /// by 64, so for results of fewer than 64 rows it overstates; it is
    /// capped at the drain's wall time. Scan phases (io, tokenize,
    /// parse) are nested inside cursor iteration, so operator self time
    /// is the capped exec time minus them.
    pub fn add_query(&mut self, d: &Snapshot, q: &QueryProfile, drain_ns: u64, json: bool) {
        self.metrics.merge(&d.metrics);
        self.rows_returned += q.rows;
        self.add_phases(&q.scan, json);
        let drain = drain_ns as f64;
        let scan = (q.scan.io_ns + q.scan.tokenize_ns + q.scan.parse_ns) as f64;
        let exec_self = ((q.exec_ns as f64).min(drain) - scan).max(0.0);
        self.drained_ops += 1;
        self.exec_self_ns += exec_self;
        self.unattributed_ns += drain - scan - exec_self;
    }

    /// The per-layer metrics, in [`LAYERS`] order.
    pub fn values(&self, trace: &Trace, primary_p50_ms: f64) -> Vec<f64> {
        let names = trace.by_name();
        let span = |n: &str| names.get(n).copied().unwrap_or_default();
        let mean_self = |t: NameTotals| ms(t.self_ns as f64) / t.count.max(1) as f64;
        let per = |x: f64, n: u64| x / n.max(1) as f64;
        let m = &self.metrics;
        let examined = m.rows_emitted + m.rows_rejected_early;
        let located = m.fields_via_map + m.fields_via_anchor + m.fields_tokenized;
        let by_map = m.fields_via_map + m.fields_via_anchor;
        let served = m.fields_from_cache + m.fields_parsed;

        let wire = trace.by_name_in("wire");
        let w = |n: &str| wire.get(n).copied().unwrap_or_default();
        let wire_ops = w("op").count;
        let to_first = w("server.stream").total_ns + w("server.first_row").total_ns;
        let streaming = w("server.first_row").total_ns + w("server.drain").total_ns;
        let roundtrip = to_first + w("server.drain").total_ns;

        let v = vec![
            ("sql.prepare_ms", mean_self(span("sql.prepare"))),
            ("core.execute_ms", mean_self(span("core.execute"))),
            ("core.drain_ms", mean_self(span("core.drain"))),
            (
                "core.pushdown_reject_ratio",
                ratio(m.rows_rejected_early, examined),
            ),
            (
                "core.fields_skipped_early",
                per(m.fields_skipped_early as f64, self.scan_ops),
            ),
            (
                "core.rows_examined_per_row",
                ratio(examined, self.rows_returned),
            ),
            (
                "core.unattributed_ms",
                per(ms(self.unattributed_ns), self.drained_ops),
            ),
            (
                "csv.tokenize_ms",
                per(ms(self.csv_tokenize_ns as f64), self.csv_ops),
            ),
            (
                "json.tokenize_ms",
                per(ms(self.json_tokenize_ns as f64), self.json_ops),
            ),
            (
                "scan.tokenize_mb",
                per(self.phases.tokenize_bytes as f64 / 1e6, self.scan_ops),
            ),
            (
                "scan.io_ms",
                per(ms(self.phases.io_ns as f64), self.scan_ops),
            ),
            (
                "scan.io_mb",
                per(self.phases.io_bytes as f64 / 1e6, self.scan_ops),
            ),
            (
                "scan.parse_ms",
                per(ms(self.phases.parse_ns as f64), self.scan_ops),
            ),
            (
                "scan.parse_values",
                per(self.phases.parse_values as f64, self.scan_ops),
            ),
            ("exec.exec_ms", per(ms(self.exec_self_ns), self.drained_ops)),
            ("posmap.hit_ratio", ratio(by_map, located)),
            ("posmap.anchor_share", ratio(m.fields_via_anchor, by_map)),
            ("posmap.mb", self.aux_end.posmap_bytes as f64 / 1e6),
            ("cache.hit_ratio", ratio(m.fields_from_cache, served)),
            ("cache.utilization", self.aux_end.cache_utilization),
            ("cache.mb", self.aux_end.cache_bytes as f64 / 1e6),
            (
                "runtime.tail_retokenize_ratio",
                ratio(self.tail_tokenized_bytes, self.appended_bytes),
            ),
            (
                "runtime.rotate_catchup_ms",
                per(
                    self.rotate_catchup_ms.iter().sum(),
                    self.rotate_catchup_ms.len() as u64,
                ),
            ),
            ("server.roundtrip_ms", per(ms(roundtrip as f64), wire_ops)),
            ("server.first_row_ms", per(ms(to_first as f64), wire_ops)),
            (
                "server.rows_per_s",
                self.wire_rows as f64 / (streaming as f64 / 1e9).max(1e-9),
            ),
            (
                "server.wire_overhead_ms",
                per(
                    self.wire_overhead_ms.iter().sum(),
                    self.wire_overhead_ms.len() as u64,
                ),
            ),
            ("server.busy_ratio", self.busy_ratio),
            (
                "trace.overhead_ms",
                per(ms(trace.overhead_ns as f64), trace.ops()),
            ),
            ("trace.primary_p50_ms", primary_p50_ms),
        ];
        debug_assert!(v.iter().map(|x| x.0).eq(LAYERS.iter().map(|x| x.0)));
        // `+ 0.0` turns a negative zero into zero.
        v.into_iter().map(|x| x.1 + 0.0).collect()
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
