//! Engine set-up, the embedded operation, and answer checking.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use nodb_common::{IoBackend, Result, Schema, Value};
use nodb_core::{AccessMode, NoDb, NoDbConfig, Params, QueryProfile, QueryResult};
use nodb_csv::CsvOptions;

use crate::layers::{Aux, Layers, Snapshot};
use crate::report::{Measured, Tally, Window};
use crate::speed::Speed;
use crate::trace::{Trace, Tracer};
use crate::{Args, BenchResult};

/// One raw file registered as an in-situ table.
pub struct Table {
    pub name: String,
    pub path: PathBuf,
    pub schema: Schema,
    /// `None` for JSON Lines, the CSV dialect otherwise.
    pub csv: Option<CsvOptions>,
}

impl Table {
    pub fn register(&self, db: &mut NoDb) -> Result<()> {
        match self.csv {
            Some(opts) => db.register_csv(
                &self.name,
                &self.path,
                self.schema.clone(),
                opts,
                AccessMode::InSitu,
            ),
            None => db.register_jsonl(
                &self.name,
                &self.path,
                self.schema.clone(),
                AccessMode::InSitu,
            ),
        }
    }
}

/// The product defaults, pinned so that `NODB_*` environment variables
/// cannot change what is measured: positional map, cache and statistics
/// on, automatic I/O backend (mmap on unix), one scan thread, default
/// batch size, rewrite on, no budgets.
pub fn product_config() -> NoDbConfig {
    let d = NoDbConfig::postgres_raw();
    NoDbConfig {
        enable_rewrite: true,
        posmap_budget: None,
        cache_budget: None,
        scan_threads: 1,
        io_backend: IoBackend::Auto,
        batch_rows: nodb_exec::DEFAULT_BATCH_ROWS,
        ..d
    }
}

pub fn engine(cfg: NoDbConfig, tables: &[Table]) -> Result<NoDb> {
    let mut db = NoDb::new(cfg)?;
    for t in tables {
        t.register(&mut db)?;
    }
    Ok(db)
}

/// Answers from a fresh `NoDbConfig::baseline()` engine (no positional
/// map, cache or statistics) over the files' current bytes.
pub fn oracle(tables: &[Table], sqls: &[String]) -> Result<HashMap<String, QueryResult>> {
    let db = engine(NoDbConfig::baseline(), tables)?;
    let mut out = HashMap::new();
    for sql in sqls {
        if !out.contains_key(sql) {
            out.insert(sql.clone(), db.query(sql)?);
        }
    }
    Ok(out)
}

/// Prepare, execute and drain one statement, each in its own span.
pub fn run_embedded(tr: &mut Tracer, db: &NoDb, sql: &str) -> Result<(QueryResult, QueryProfile)> {
    let stmt = tr.span("sql.prepare", |_| db.prepare(sql))?;
    let cursor = tr.span("core.execute", |_| stmt.execute(&Params::new()))?;
    tr.span("core.drain", |_| cursor.collect_with_profile())
}

/// One embedded client running checked, timed statements.
pub struct Client<'a> {
    pub db: &'a NoDb,
    pub tr: Tracer,
    pub tally: Tally,
    pub layers: Layers,
    /// Host slowdown factor latencies are reported under (see `speed`).
    pub factor: f64,
}

impl<'a> Client<'a> {
    pub fn new(db: &'a NoDb, tr: Tracer) -> Client<'a> {
        Client {
            db,
            tr,
            tally: Tally::default(),
            layers: Layers::default(),
            factor: 1.0,
        }
    }

    /// Run `sql` as one operation of `class` and check its answer against
    /// `want`. `touched` names the tables it reads (for counter deltas);
    /// `json` says whether they are JSON Lines. Returns the reported
    /// latency in milliseconds of a correct answer, `None` after a
    /// failure (which is counted and printed).
    pub fn query(
        &mut self,
        class: &'static str,
        sql: &str,
        touched: &[&str],
        json: bool,
        want: &QueryResult,
        rel_tol: f64,
    ) -> BenchResult<Option<f64>> {
        let db = self.db;
        let before = self
            .tr
            .bookkeeping(|| Snapshot::take(db, touched))
            .transpose()?;
        let (res, op, ms) = self.tr.op(class, |tr| run_embedded(tr, db, sql));
        let drain_ns = self.tr.last_ns("core.drain");
        let (got, profile) = match res {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(class, op, &format!("{sql}: {e}"));
                return Ok(None);
            }
        };
        if let Some(before) = before {
            let after = self
                .tr
                .bookkeeping(|| Snapshot::take(db, touched))
                .transpose()?;
            let delta = after.expect("traced").since(&before);
            self.layers.add_query(&delta, &profile, drain_ns, json);
        }
        match check(&got, want, rel_tol) {
            Ok(()) => {
                self.tally.ok(class, ms, self.factor);
                Ok(Some(ms / self.factor))
            }
            Err(e) => {
                self.tally.fail(class, op, &format!("{sql}: {e}"));
                Ok(None)
            }
        }
    }
}

/// Run a single embedded client for the measured window. `step(k, …)`
/// runs operation `k`; the auxiliary footprint of all tables is sampled
/// after each. Fresh set-ups, each followed by `first_sql` (checked
/// against `first_want`), are probed inside the window. Every time is
/// reported divided by the host factor taken just before it.
pub fn session(
    args: &Args,
    mut m: Measured,
    cfg: impl Fn() -> NoDbConfig,
    tables: &[Table],
    first_sql: &str,
    first_want: &QueryResult,
    mut step: impl FnMut(usize, &mut Client) -> BenchResult<()>,
) -> BenchResult<(Measured, Layers, Trace)> {
    let mut probes = Tally::default();
    let first_table = tables[0].name.as_str();
    let mut first_answer = |m: &mut Measured, factor: f64| -> BenchResult<()> {
        let t = Instant::now();
        let db = engine(cfg(), tables)?;
        m.setup_s.push(t.elapsed().as_secs_f64() / factor);
        let mut c = Client::new(&db, Tracer::new(false, 0, Instant::now()));
        c.factor = factor;
        let json = tables[0].csv.is_none();
        if let Some(ms) = c.query(
            "first_answer",
            first_sql,
            &[first_table],
            json,
            first_want,
            1e-9,
        )? {
            m.first_answer_s.push(ms / 1e3);
        }
        probes.merge(c.tally);
        Ok(())
    };

    let mut speed = Speed::default();
    let factor = speed.factor();
    let t = Instant::now();
    let db = engine(cfg(), tables)?;
    m.setup_s.push(t.elapsed().as_secs_f64() / factor);
    let mut c = Client::new(&db, Tracer::new(args.trace, 0, Instant::now()));
    let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    let mut window = Window::new(args.seconds, args.sizes.setups);
    let mut k = 0;
    loop {
        c.factor = speed.factor();
        if !window.open(|| first_answer(&mut m, c.factor))? {
            break;
        }
        let t = Instant::now();
        step(k, &mut c)?;
        m.aux_peak_bytes = m.aux_peak_bytes.max(Aux::take(&db, &names)?.bytes());
        m.window_s += t.elapsed().as_secs_f64() / c.factor;
        k += 1;
    }
    m.window_ops = k as u64;
    let Client {
        tr,
        tally,
        mut layers,
        ..
    } = c;
    layers.aux_end = Aux::take(&db, &names)?;
    let mut trace = Trace::default();
    tr.finish(&mut trace);
    m.tally = tally;
    m.tally.merge(probes);
    Ok((m, layers, trace))
}

/// Compare a result with the expected one: same shape, same values in
/// the same order; numbers compare by value across integer and float
/// types, floats with relative tolerance `rel_tol`.
pub fn check(
    got: &QueryResult,
    want: &QueryResult,
    rel_tol: f64,
) -> std::result::Result<(), String> {
    if got.schema.len() != want.schema.len() {
        return Err(format!(
            "{} columns, expected {}",
            got.schema.len(),
            want.schema.len()
        ));
    }
    if got.rows.len() != want.rows.len() {
        return Err(format!(
            "{} rows, expected {}",
            got.rows.len(),
            want.rows.len()
        ));
    }
    for (i, (g, w)) in got.rows.iter().zip(&want.rows).enumerate() {
        let same = g.len() == w.len()
            && g.values()
                .iter()
                .zip(w.values())
                .all(|(a, b)| same_value(a, b, rel_tol));
        if !same {
            return Err(format!("row {i} is {g}, expected {w}"));
        }
    }
    Ok(())
}

fn same_value(a: &Value, b: &Value, rel_tol: f64) -> bool {
    fn num(v: &Value) -> Option<f64> {
        match v {
            Value::Int32(x) => Some(*x as f64),
            Value::Int64(x) => Some(*x as f64),
            Value::Float64(x) => Some(*x),
            _ => None,
        }
    }
    match (a, b) {
        (Value::Int32(_) | Value::Int64(_), Value::Int32(_) | Value::Int64(_)) => num(a) == num(b),
        _ => match (num(a), num(b)) {
            (Some(x), Some(y)) => x == y || (x - y).abs() <= rel_tol * x.abs().max(y.abs()),
            _ => a == b,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_common::{DataType, Field, Row};

    fn result(rows: Vec<Vec<Value>>) -> QueryResult {
        let schema = Schema::new(
            (0..rows[0].len())
                .map(|i| Field::new(format!("c{i}"), DataType::Float64))
                .collect(),
        )
        .unwrap();
        QueryResult {
            schema,
            rows: rows.into_iter().map(Row::from).collect(),
        }
    }

    #[test]
    fn numbers_compare_by_value_with_tolerance() {
        let a = result(vec![vec![Value::Int64(3), Value::Float64(1.0)]]);
        let b = result(vec![vec![Value::Int32(3), Value::Float64(1.0 + 1e-12)]]);
        assert!(check(&a, &b, 1e-9).is_ok());
        let c = result(vec![vec![Value::Int64(4), Value::Float64(1.0)]]);
        assert!(check(&a, &c, 1e-9).is_err());
        let d = result(vec![vec![Value::Int64(3), Value::Float64(1.1)]]);
        assert!(check(&a, &d, 1e-9).is_err());
        let text = result(vec![vec![Value::Text("x".into()), Value::Null]]);
        assert!(check(&text, &text, 0.0).is_ok());
        let two = result(vec![vec![Value::Int64(3)], vec![Value::Int64(3)]]);
        assert!(check(&two, &result(vec![vec![Value::Int64(3)]]), 0.0).is_err());
    }
}
