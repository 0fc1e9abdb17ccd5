//! `warm_session`: one analyst session from the first touch to the
//! adaptive steady state. One embedded client, closed loop. Epochs of
//! 5–10-column projections and selection-aggregates move across column
//! regions of the micro table (paper Figs 5, 6, 8), interleaved with
//! TPC-H Q1/Q6/Q10/Q14 over in-situ `.tbl` files. The cache budget is
//! half of what the micro table's columns take in the cache, so the
//! working set is larger than the cache: eviction and the fallback to
//! the positional map both run.

use std::collections::HashSet;

use nodb_common::ByteSize;
use nodb_core::NoDbConfig;
use nodb_csv::CsvOptions;
use nodb_tpch::{queries, TpchGen};

use crate::engine::{self, product_config, Table};
use crate::report::Measured;
use crate::{data, Args, BenchResult, Outcome, MICRO_COLS};

pub const PRIMARY: &str = "warm";
pub const SECONDARY: &str = "tpch";
/// Operations before the first touch of each of their tables is over.
const FIRST_TOUCH: &str = "first_touch";

/// Columns per region; an epoch stays inside one region.
const REGION: usize = 30;
/// TPC-H queries in the order they are interleaved. Five entries (Q6
/// twice) put the class median inside one query's mode.
const TPCH: [&str; 5] = ["Q1", "Q6", "Q10", "Q14", "Q6"];
const TPCH_TABLES: [&str; 5] = ["lineitem", "orders", "customer", "nation", "part"];
/// Relative tolerance for TPC-H floating-point answers.
const TPCH_TOL: f64 = 1e-6;

/// The six micro queries of an epoch over columns `b .. b + 30`.
fn epoch(b: usize) -> [String; 6] {
    let c = |i: usize| format!("c{}", b + i);
    let list = |r: std::ops::Range<usize>| r.map(c).collect::<Vec<_>>().join(", ");
    [
        format!("select {} from t where {} < 20000000", list(0..5), c(5)),
        format!(
            "select sum({}), sum({}), avg({}), max({}) from t where {} between 100000000 and 600000000",
            c(6),
            c(7),
            c(8),
            c(9),
            c(10)
        ),
        format!("select {} from t where {} < 10000000", list(11..21), c(21)),
        format!(
            "select count(*), sum({}), min({}) from t where {} < 300000000 and {} > 200000000",
            c(22),
            c(23),
            c(24),
            c(25)
        ),
        format!(
            "select {}, {}, {}, {}, {}, {}, {} from t where {} < 30000000",
            c(0),
            c(6),
            c(11),
            c(22),
            c(26),
            c(27),
            c(28),
            c(29)
        ),
        format!(
            "select sum({}), sum({}), avg({}), max({}) from t where {} > 900000000",
            c(1),
            c(12),
            c(26),
            c(29),
            c(2)
        ),
    ]
}

/// One step of the session script.
struct Step {
    sql: String,
    tables: Vec<&'static str>,
    tpch: bool,
}

/// The session script: one epoch per region in turn, each of six micro
/// queries with a TPC-H query after every second one. It repeats.
fn script(cols: usize) -> Vec<Step> {
    let mut out = Vec::new();
    let mut q = 0;
    for region in 0..cols / REGION {
        for (i, sql) in epoch(region * REGION).into_iter().enumerate() {
            out.push(Step {
                sql,
                tables: vec!["t"],
                tpch: false,
            });
            if i % 2 == 1 {
                let id = TPCH[q % TPCH.len()];
                q += 1;
                out.push(Step {
                    sql: queries::get(id).expect("known TPC-H query").to_string(),
                    tables: queries::tables_for(id),
                    tpch: true,
                });
            }
        }
    }
    out
}

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let sz = args.sizes;
    let mut gen = data::GenTime::default();
    let micro = data::micro(&args.cache, sz.micro_rows, MICRO_COLS, args.seed, &mut gen)?;
    let tpch = data::tpch(&args.cache, sz.tpch_sf, args.seed, &mut gen)?;
    let mut tables = vec![Table {
        name: "t".into(),
        path: micro.csv.clone(),
        schema: micro.schema.clone(),
        csv: Some(CsvOptions::default()),
    }];
    for name in TPCH_TABLES {
        tables.push(Table {
            name: name.into(),
            path: tpch.join(format!("{name}.tbl")),
            schema: TpchGen::schema(name)?,
            csv: Some(CsvOptions::pipe()),
        });
    }
    let steps = script(MICRO_COLS);
    let sqls: Vec<String> = steps.iter().map(|s| s.sql.clone()).collect();
    let want = engine::oracle(&tables, &sqls)?;
    // Unbudgeted, the session caches every micro column, about 4.3 bytes
    // per value (25.6 MB at full scale). The budget is 2.25 bytes per
    // value, about half. It applies to every table; `lineitem` caches
    // 12.0 MB unbudgeted at sf 0.02 and stays clearly inside it, so TPC-H
    // latencies do not flip with the seed.
    let cfg = || NoDbConfig {
        cache_budget: Some(ByteSize((sz.micro_rows * MICRO_COLS * 9 / 4) as u64)),
        ..product_config()
    };

    let m = Measured {
        primary: PRIMARY,
        secondary: SECONDARY,
        ..Measured::default()
    };
    let mut touched: HashSet<&str> = HashSet::new();
    let sql0 = &steps[0].sql;
    let (measured, layers, trace) =
        engine::session(args, m, cfg, &tables, sql0, &want[sql0], |k, c| {
            let step = &steps[k % steps.len()];
            let class = if step.tables.iter().any(|t| !touched.contains(t)) {
                FIRST_TOUCH
            } else if step.tpch {
                SECONDARY
            } else {
                PRIMARY
            };
            let tol = if step.tpch { TPCH_TOL } else { 1e-9 };
            c.query(class, &step.sql, &step.tables, false, &want[&step.sql], tol)?;
            touched.extend(step.tables.iter().copied());
            Ok(())
        })?;
    Ok(Outcome {
        measured,
        layers,
        trace,
        gen,
    })
}
