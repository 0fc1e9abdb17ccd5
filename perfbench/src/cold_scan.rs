//! `cold_scan`: first-touch queries over the micro table as CSV and as
//! JSON Lines. One embedded client, closed loop. Before each operation
//! (untimed) the table's auxiliary structures are dropped, so I/O,
//! tokenizing, conversion and pushdown do the work; the positional map
//! and cache are built but never read.

use nodb_csv::CsvOptions;

use crate::engine::{self, product_config, Table};
use crate::report::Measured;
use crate::{data, Args, BenchResult, Outcome, MICRO_COLS};

pub const PRIMARY: &str = "cold_csv";
pub const SECONDARY: &str = "cold_jsonl";

/// Query shapes, run in turn on each format. Equal weights put each
/// class's median inside the middle shape's mode and its 90th
/// percentile inside the slowest shape's.
const SHAPES: [&str; 3] = [
    // Wide aggregate: tokenizes every field up to the last column.
    "select sum(c149), min(c75), max(c0), count(*) from {t}",
    // Narrow projection behind a 1%-selective pushed-down predicate.
    "select c3, c4 from {t} where c2 < 10000000",
    // Two-conjunct count.
    "select count(*) from {t} where c10 < 500000000 and c20 >= 250000000",
];

pub fn run(args: &Args) -> BenchResult<Outcome> {
    let sz = args.sizes;
    let mut gen = data::GenTime::default();
    let micro = data::micro(&args.cache, sz.micro_rows, MICRO_COLS, args.seed, &mut gen)?;
    let tables = [
        Table {
            name: "t".into(),
            path: micro.csv.clone(),
            schema: micro.schema.clone(),
            csv: Some(CsvOptions::default()),
        },
        Table {
            name: "tj".into(),
            path: micro.jsonl.clone(),
            schema: micro.schema.clone(),
            csv: None,
        },
    ];
    // Operation k: format k % 2, shape (k / 2) % 3.
    let ops: Vec<(usize, String)> = (0..6)
        .map(|k| {
            (
                k % 2,
                SHAPES[(k / 2) % 3].replace("{t}", &tables[k % 2].name),
            )
        })
        .collect();
    let sqls: Vec<String> = ops.iter().map(|o| o.1.clone()).collect();
    let want = engine::oracle(&tables, &sqls)?;

    let m = Measured {
        primary: PRIMARY,
        secondary: SECONDARY,
        ..Measured::default()
    };
    let sql0 = &ops[0].1;
    let (measured, layers, trace) = engine::session(
        args,
        m,
        product_config,
        &tables,
        sql0,
        &want[sql0],
        |k, c| {
            let (fmt, sql) = &ops[k % ops.len()];
            let table = tables[*fmt].name.as_str();
            c.db.drop_aux(table)?;
            let class = if *fmt == 0 { PRIMARY } else { SECONDARY };
            c.query(class, sql, &[table], *fmt == 1, &want[sql], 1e-9)?;
            Ok(())
        },
    )?;
    Ok(Outcome {
        measured,
        layers,
        trace,
        gen,
    })
}
