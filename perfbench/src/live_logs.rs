//! `live_logs`: one engine served by `nodb-server` on TCP loopback,
//! driven by two connections from this process, both closed loops, no
//! budgets (the working set fits).
//!
//! * Connection A ingests: it appends a batch of records to a JSON Lines
//!   log (write, no fsync), then runs a dashboard aggregate on `logs`.
//!   Every fifth batch rotates the log instead: a fresh file of the
//!   initial size replaces it by rename, so the log size cycles and does
//!   not drift with run length. Answers are checked against the
//!   generator's running truth for the rows currently in the file.
//! * Connection B streams large results (1k–40k rows × 1–10 columns)
//!   from the static, warm micro table `t`.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nodb_common::{Row, Schema, Value};
use nodb_core::{NoDb, QueryResult};
use nodb_csv::CsvOptions;
use nodb_server::{NodbClient, NodbServer, ServerConfig, ServerHandle, ServerStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{self, check, product_config, Table};
use crate::layers::{Aux, Layers, Snapshot};
use crate::report::{Measured, Tally};
use crate::trace::{Trace, Tracer};
use crate::{data, Args, BenchResult, Outcome, MICRO_COLS};

pub const PRIMARY: &str = "wire";
pub const SECONDARY: &str = "fresh";

/// Every this many batches, connection A rotates instead of appending.
/// One query in five follows a rotation, so the class's 90th percentile
/// sits inside the rotation mode and its median inside the append mode.
const ROTATE_EVERY: u64 = 5;

/// Connection B's result shapes, in turn. Equal weights put the 90th
/// percentile inside the slowest shape's mode and the median inside the
/// two full-column streams' shared mode.
const STREAMS: [&str; 5] = [
    "select c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 from t where c0 < 250000000",
    "select c1 from t",
    "select c2 from t",
    "select c11, c12, c13, c14, c15 from t where c0 < 25000000",
    "select c20, c21, c22, c23, c24, c25, c26, c27, c28, c29 from t where c0 < 125000000",
];

const DASHBOARD: &str = "select level, count(*) as n, sum(ms) as total_ms, max(ms) as max_ms \
                         from logs group by level order by level";

const LOG_SCHEMA: &str = "ts bigint, level text, svc text, ms int, msg text";
const LEVELS: [&str; 4] = ["DEBUG", "ERROR", "INFO", "WARN"];
const SERVICES: [&str; 5] = ["api", "auth", "billing", "search", "web"];

/// Seeded log records plus the running truth for the rows in the file.
struct LogGen {
    rng: StdRng,
    ts: i64,
    /// Per level: count, sum of `ms`, max of `ms`.
    truth: BTreeMap<&'static str, (i64, i64, i64)>,
}

impl LogGen {
    fn new(seed: u64) -> LogGen {
        LogGen {
            rng: StdRng::seed_from_u64(data::mix(seed, 3)),
            ts: 1_700_000_000_000,
            truth: BTreeMap::new(),
        }
    }

    /// `n` more records as JSON Lines, counted into the truth.
    fn records(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n * 100);
        for _ in 0..n {
            self.ts += self.rng.gen_range(1..50);
            let level = match self.rng.gen_range(0..100) {
                0..=29 => LEVELS[0],
                30..=34 => LEVELS[1],
                35..=89 => LEVELS[2],
                _ => LEVELS[3],
            };
            let svc = SERVICES[self.rng.gen_range(0..SERVICES.len())];
            let ms: i64 = self.rng.gen_range(1..5000);
            let code = [200, 200, 200, 304, 404, 500][self.rng.gen_range(0..6)];
            let t = self.truth.entry(level).or_insert((0, 0, 0));
            *t = (t.0 + 1, t.1 + ms, t.2.max(ms));
            let _ = writeln!(
                out,
                "{{\"ts\": {}, \"level\": \"{level}\", \"svc\": \"{svc}\", \"ms\": {ms}, \
                 \"msg\": \"GET /{svc}/{} {code}\"}}",
                self.ts,
                self.rng.gen_range(0..1000)
            );
        }
        out
    }

    /// The dashboard's expected answer, in the result's own schema.
    fn expected(&self, schema: &Schema) -> QueryResult {
        QueryResult {
            schema: schema.clone(),
            rows: self
                .truth
                .iter()
                .map(|(level, (n, sum, max))| {
                    Row::from(vec![
                        Value::Text(level.to_string()),
                        Value::Int64(*n),
                        Value::Int64(*sum),
                        Value::Int64(*max),
                    ])
                })
                .collect(),
        }
    }
}

/// A running server with both connections open.
struct Served {
    db: Arc<NoDb>,
    handle: ServerHandle,
    serve: JoinHandle<nodb_common::Result<ServerStats>>,
    a: NodbClient,
    b: NodbClient,
}

fn serve(tables: &[Table]) -> BenchResult<Served> {
    let db = Arc::new(engine::engine(product_config(), tables)?);
    let server = NodbServer::bind_tcp(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())?;
    let addr = server
        .local_addr()
        .ok_or("TCP server has an address")?
        .to_string();
    let handle = server.handle();
    let serve = std::thread::spawn(move || server.serve());
    let clients = NodbClient::connect(&addr).and_then(|a| Ok((a, NodbClient::connect(&addr)?)));
    match clients {
        Ok((a, b)) => Ok(Served {
            db,
            handle,
            serve,
            a,
            b,
        }),
        Err(e) => {
            handle.shutdown();
            let _ = serve.join();
            Err(e.into())
        }
    }
}

impl Served {
    /// Close both connections, stop the server and wait for it.
    fn stop(self) -> BenchResult<ServerStats> {
        self.a.close()?;
        self.b.close()?;
        self.handle.shutdown();
        let stats = self.serve.join().map_err(|_| "server thread panicked")??;
        Ok(stats)
    }
}

/// Stream one statement: send and wait for the schema, wait for the
/// first row, then drain the rest.
fn stream(tr: &mut Tracer, client: &mut NodbClient, sql: &str) -> nodb_common::Result<QueryResult> {
    let mut rows = Vec::new();
    let mut s = tr.span("server.stream", |_| client.stream(sql, &[]))?;
    if let Some(first) = tr.span("server.first_row", |_| s.next()) {
        rows.push(first?);
    }
    tr.span("server.drain", |_| -> nodb_common::Result<()> {
        for r in &mut s {
            rows.push(r?);
        }
        Ok(())
    })?;
    Ok(QueryResult {
        schema: s.schema().clone(),
        rows,
    })
}

/// One connection's share of the run.
struct Side {
    tr: Tracer,
    tally: Tally,
    layers: Layers,
    ops: u64,
    aux_peak: u64,
}

impl Side {
    fn new(trace: bool, thread: u8, epoch: Instant) -> Side {
        Side {
            tr: Tracer::new(trace, thread, epoch),
            tally: Tally::default(),
            layers: Layers::default(),
            ops: 0,
            aux_peak: 0,
        }
    }
}

/// Connection A: append (or rotate), then the dashboard.
fn ingest(
    side: &mut Side,
    db: &NoDb,
    client: &mut NodbClient,
    log: &Path,
    gen: &mut LogGen,
    sizes: (usize, usize),
    deadline: Instant,
) -> BenchResult<()> {
    let (fresh_rows, batch_rows) = sizes;
    let mut batch = 0u64;
    while Instant::now() < deadline {
        batch += 1;
        let rotate = batch.is_multiple_of(ROTATE_EVERY);
        let bytes = if rotate {
            gen.truth.clear();
            gen.records(fresh_rows)
        } else {
            gen.records(batch_rows)
        };
        let before = side
            .tr
            .bookkeeping(|| Snapshot::take(db, &["logs"]))
            .transpose()?;
        let (res, op, _) = side
            .tr
            .op(SECONDARY, |tr| -> BenchResult<(QueryResult, f64)> {
                if rotate {
                    tr.span("ingest.rotate", |_| replace(log, &bytes))?;
                } else {
                    tr.span("ingest.append", |_| append(log, &bytes))?;
                }
                let t = Instant::now();
                let r = stream(tr, client, DASHBOARD)?;
                Ok((r, t.elapsed().as_secs_f64() * 1e3))
            });
        side.ops += 1;
        let (got, ms) = match res {
            Ok(r) => r,
            Err(e) => {
                side.tally.fail(SECONDARY, op, &format!("{DASHBOARD}: {e}"));
                continue;
            }
        };
        if let Some(before) = before {
            let after = side
                .tr
                .bookkeeping(|| Snapshot::take(db, &["logs"]))
                .transpose()?;
            let d = after.expect("traced").since(&before);
            side.layers.add_delta(&d, true, got.rows.len() as u64);
            if rotate {
                side.layers.rotate_catchup_ms.push(ms);
            } else {
                side.layers.appended_bytes += bytes.len() as u64;
                side.layers.tail_tokenized_bytes += d.metrics.bytes_tokenized;
            }
        }
        match check(&got, &gen.expected(&got.schema), 0.0) {
            Ok(()) => side.tally.ok(SECONDARY, ms, 1.0),
            Err(e) => side.tally.fail(SECONDARY, op, &format!("{DASHBOARD}: {e}")),
        }
        side.aux_peak = side.aux_peak.max(Aux::take(db, &["t", "logs"])?.bytes());
    }
    Ok(())
}

/// Connection B: stream results from `t`.
fn reader(
    side: &mut Side,
    db: &NoDb,
    client: &mut NodbClient,
    want: &HashMap<String, QueryResult>,
    deadline: Instant,
) -> BenchResult<()> {
    let mut k = 0;
    while Instant::now() < deadline {
        let sql = STREAMS[k % STREAMS.len()];
        k += 1;
        let before = side
            .tr
            .bookkeeping(|| Snapshot::take(db, &["t"]))
            .transpose()?;
        let (res, op, ms) = side.tr.op(PRIMARY, |tr| stream(tr, client, sql));
        side.ops += 1;
        let got = match res {
            Ok(r) => r,
            Err(e) => {
                side.tally.fail(PRIMARY, op, &format!("{sql}: {e}"));
                continue;
            }
        };
        if let Some(before) = before {
            let after = side
                .tr
                .bookkeeping(|| Snapshot::take(db, &["t"]))
                .transpose()?;
            side.layers.add_delta(
                &after.expect("traced").since(&before),
                false,
                got.rows.len() as u64,
            );
            side.layers.wire_rows += got.rows.len() as u64;
            // The same statement drained embedded on the shared engine.
            let embedded = side.tr.bookkeeping(|| -> nodb_common::Result<f64> {
                let t = Instant::now();
                db.query(sql)?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            });
            side.layers
                .wire_overhead_ms
                .push(ms - embedded.transpose()?.expect("traced"));
        }
        match check(&got, &want[sql], 1e-9) {
            Ok(()) => side.tally.ok(PRIMARY, ms, 1.0),
            Err(e) => side.tally.fail(PRIMARY, op, &format!("{sql}: {e}")),
        }
    }
    Ok(())
}

/// Append `bytes` to the log: one write, no fsync.
fn append(log: &Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::OpenOptions::new()
        .append(true)
        .open(log)?
        .write_all(bytes)
}

/// Replace the log by a fresh file through rename.
fn replace(log: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = log.with_extension("jsonl.next");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, log)
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let sz = args.sizes;
    let mut gen = data::GenTime::default();
    let micro = data::micro(&args.cache, sz.micro_rows, MICRO_COLS, args.seed, &mut gen)?;
    let dir: PathBuf = args.cache.join(format!("live_logs-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let log = dir.join("logs.jsonl");
    let mut logs = LogGen::new(args.seed);
    std::fs::write(&log, logs.records(sz.log_rows))?;
    let tables = [
        Table {
            name: "t".into(),
            path: micro.csv.clone(),
            schema: micro.schema.clone(),
            csv: Some(CsvOptions::default()),
        },
        Table {
            name: "logs".into(),
            path: log.clone(),
            schema: Schema::parse(LOG_SCHEMA)?,
            csv: None,
        },
    ];
    let sqls: Vec<String> = STREAMS.iter().map(|s| s.to_string()).collect();
    let want = engine::oracle(&tables[..1], &sqls)?;
    let out = measure(args, &tables, &want, &log, &mut logs, gen);
    std::fs::remove_dir_all(&dir)?;
    out
}

/// Warm both tables, then run both connections until the deadline.
/// Returns each side and the window's length in seconds.
fn drive(
    args: &Args,
    s: &mut Served,
    want: &HashMap<String, QueryResult>,
    log: &Path,
    logs: &mut LogGen,
    probes: &mut Tally,
) -> BenchResult<(Side, Side, f64)> {
    // B's table is static and warm by design, and A's first query
    // should not be a first touch.
    for sql in STREAMS {
        s.b.query(sql)?;
    }
    let warm = s.a.query(DASHBOARD)?;
    if let Err(e) = check(&warm, &logs.expected(&warm.schema), 0.0) {
        probes.fail(SECONDARY, 0, &format!("warm-up {DASHBOARD}: {e}"));
    }
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let mut a_side = Side::new(args.trace, 0, epoch);
    let mut b_side = Side::new(args.trace, 1, epoch);
    let sizes = (args.sizes.log_rows, args.sizes.log_batch);
    let db = &*s.db;
    let (a, b) = (&mut s.a, &mut s.b);
    let (ra, rb) = std::thread::scope(|scope| {
        let ra = scope.spawn(|| {
            ingest(&mut a_side, db, a, log, logs, sizes, deadline).map_err(|e| e.to_string())
        });
        let rb =
            scope.spawn(|| reader(&mut b_side, db, b, want, deadline).map_err(|e| e.to_string()));
        (ra.join(), rb.join())
    });
    let window_s = epoch.elapsed().as_secs_f64();
    ra.map_err(|_| "connection A panicked")??;
    rb.map_err(|_| "connection B panicked")??;
    a_side.layers.aux_end = Aux::take(db, &["t", "logs"])?;
    Ok((a_side, b_side, window_s))
}

fn measure(
    args: &Args,
    tables: &[Table],
    want: &HashMap<String, QueryResult>,
    log: &Path,
    logs: &mut LogGen,
    gen: data::GenTime,
) -> BenchResult<Outcome> {
    let sz = args.sizes;
    let mut m = Measured {
        primary: PRIMARY,
        secondary: SECONDARY,
        ..Measured::default()
    };
    let mut probes = Tally::default();
    let first_answer = |m: &mut Measured, probes: &mut Tally| -> BenchResult<()> {
        let t = Instant::now();
        let mut s = serve(tables)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        let mut tr = Tracer::new(false, 0, Instant::now());
        let sql = STREAMS[0];
        let (res, op, ms) = tr.op("first_answer", |tr| stream(tr, &mut s.b, sql));
        match res
            .map_err(|e| e.to_string())
            .and_then(|r| check(&r, &want[sql], 1e-9))
        {
            Ok(()) => {
                probes.ok("first_answer", ms, 1.0);
                m.first_answer_s.push(ms / 1e3);
            }
            Err(e) => probes.fail("first_answer", op, &format!("{sql}: {e}")),
        }
        s.stop()?;
        Ok(())
    };
    for _ in 0..sz.setups / 2 {
        first_answer(&mut m, &mut probes)?;
    }

    let t = Instant::now();
    let mut s = serve(tables)?;
    m.setup_s.push(t.elapsed().as_secs_f64());
    let window = drive(args, &mut s, want, log, logs, &mut probes);
    let stats = s.stop();
    let (a_side, b_side, window_s) = window?;
    let stats = stats?;
    m.window_s = window_s;
    m.window_ops = a_side.ops + b_side.ops;
    m.aux_peak_bytes = a_side.aux_peak;
    let mut layers = a_side.layers;
    layers.merge(b_side.layers);
    let asked = stats.queries_executed + stats.queries_rejected;
    layers.busy_ratio = stats.queries_rejected as f64 / asked.max(1) as f64;
    for _ in sz.setups / 2..sz.setups {
        first_answer(&mut m, &mut probes)?;
    }

    let mut trace = Trace::default();
    a_side.tr.finish(&mut trace);
    b_side.tr.finish(&mut trace);
    m.tally = a_side.tally;
    m.tally.merge(b_side.tally);
    m.tally.merge(probes);
    Ok(Outcome {
        measured: m,
        layers,
        trace,
        gen,
    })
}
