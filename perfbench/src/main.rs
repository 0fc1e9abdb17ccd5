//! `nodb-perfbench`: the NoDB session benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_scan|warm_session|live_logs --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates (or reuses) its inputs from the seed, sets the
//! system up several times, measures one workload for `--seconds`,
//! checks every answer, and prints one JSON line: end-to-end metrics
//! untraced, per-layer metrics traced. See `README.md`.

mod cold_scan;
mod data;
mod engine;
mod layers;
mod live_logs;
mod report;
mod speed;
mod trace;
mod warm_session;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::data::GenTime;
use crate::layers::Layers;
use crate::report::{result_line, Measured, E2E, LAYERS};
use crate::trace::Trace;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "usage: nodb-perfbench --workload cold_scan|warm_session|live_logs \
    --seed N --seconds S --trace 0|1 [--scale full|tiny] [--cache-dir DIR]";

/// Integer columns of the micro table, as in the paper's
/// micro-benchmarks (§5.1).
pub const MICRO_COLS: usize = 150;

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the micro table.
    pub micro_rows: usize,
    /// TPC-H scale factor of `warm_session`.
    pub tpch_sf: f64,
    /// Records of a fresh `live_logs` log, and per appended batch.
    pub log_rows: usize,
    pub log_batch: usize,
    /// Fresh set-ups per run besides the measured one, each followed by
    /// its first answer. They are spread over the run (see
    /// [`report::Window`]) so that one slow spell of the host does not
    /// set the medians.
    pub setups: usize,
}

impl Sizes {
    fn of(scale: &str) -> Option<Sizes> {
        match scale {
            "full" => Some(Sizes {
                micro_rows: 40_000,
                tpch_sf: 0.02,
                log_rows: 20_000,
                log_batch: 1_000,
                setups: 8,
            }),
            // The self-test's scale: every code path, a few rows each.
            "tiny" => Some(Sizes {
                micro_rows: 400,
                tpch_sf: 0.001,
                log_rows: 200,
                log_batch: 10,
                setups: 2,
            }),
            _ => None,
        }
    }
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Generated inputs, scratch files and traces live here.
    pub cache: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sizes = Sizes::of("full");
    let mut cache = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.cache"));
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{val}`");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scale" => sizes = Some(Sizes::of(&val).ok_or_else(|| bad("expected full or tiny"))?),
            "--cache-dir" => cache = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: sizes.expect("the default scale exists"),
        cache,
    })
}

/// What a workload hands back.
pub struct Outcome {
    pub measured: Measured,
    pub layers: Layers,
    pub trace: Trace,
    pub gen: GenTime,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let out = match args.workload.as_str() {
        "cold_scan" => cold_scan::run(&args),
        "warm_session" => warm_session::run(&args),
        "live_logs" => live_logs::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}").into()),
    };
    match out.and_then(|o| finish(&args, o, t0)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Report on stderr, save the run's numbers (and spans, traced), and
/// build the result line.
fn finish(args: &Args, o: Outcome, t0: Instant) -> BenchResult<String> {
    let m = &o.measured;
    let e2e = m.e2e();
    let (p, s) = (m.primary, m.secondary);
    eprintln!(
        "{} seed {} trace {}: inputs generated in {:.3} s (0 = reused), run took {:.1} s",
        args.workload,
        args.seed,
        args.trace as u8,
        o.gen.0,
        t0.elapsed().as_secs_f64()
    );
    eprint!("{}", m.tally.describe());
    eprintln!("  primary = {p} ({p}_p50_ms, {p}_p90_ms), secondary = {s} ({s}_p50_ms, {s}_p90_ms)");
    for ((name, unit), v) in E2E.iter().zip(&e2e) {
        eprintln!("  {name:<18} {v:>14.4} {unit}");
    }
    let results = args.cache.join("results");
    std::fs::create_dir_all(&results)?;
    let stem = format!("{}-s{}", args.workload, args.seed);
    std::fs::write(
        results.join(format!("{stem}-trace{}.e2e", args.trace as u8)),
        e2e.iter().map(|v| format!("{v}\n")).collect::<String>(),
    )?;
    if !args.trace {
        return Ok(result_line(
            m.tally.attempted(),
            m.tally.failed(),
            E2E,
            &e2e,
        ));
    }
    eprint!("{}", o.trace.describe());
    let spans = args.cache.join("traces").join(format!("{stem}.jsonl"));
    o.trace.write_jsonl(&spans)?;
    eprintln!("  spans written to {}", spans.display());
    report_overhead(&results.join(format!("{stem}-trace0.e2e")), &e2e);
    let primary_p50 = E2E.iter().position(|m| m.0 == "primary_p50_ms");
    let layers = o.layers.values(&o.trace, e2e[primary_p50.expect("listed")]);
    for ((name, unit), v) in LAYERS.iter().zip(&layers) {
        eprintln!("  {name:<30} {v:>14.4} {unit}");
    }
    Ok(result_line(
        m.tally.attempted(),
        m.tally.failed(),
        LAYERS,
        &layers,
    ))
}

/// Tracing overhead: this traced run's end-to-end numbers against the
/// last untraced run of the same workload and seed, when there is one.
fn report_overhead(untraced: &std::path::Path, traced: &[f64]) {
    let Ok(text) = std::fs::read_to_string(untraced) else {
        eprintln!("  tracing overhead: no untraced run of this workload and seed to compare");
        return;
    };
    let base: Vec<f64> = text.lines().filter_map(|l| l.parse().ok()).collect();
    if base.len() != traced.len() {
        return;
    }
    eprintln!("  tracing overhead (traced vs untraced run, same workload and seed):");
    for (((name, unit), b), t) in E2E.iter().zip(&base).zip(traced) {
        eprintln!(
            "    {name:<18} {b:>12.4} -> {t:>12.4} {unit}  ({:+.1}%)",
            100.0 * (t - b) / b.abs().max(1e-12)
        );
    }
}
