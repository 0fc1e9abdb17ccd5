//! `bench_check` — the bench-baseline regression gate.
//!
//! The criterion shim appends one JSON object per measurement to the file
//! named by `NODB_BENCH_JSON` when the bench-smoke job runs (in smoke
//! mode each body runs three times; `min_ns` is the best of three). This
//! tool compares such a file against the committed `BENCH_BASELINE.json`
//! and fails (exit 1) when a **gated** benchmark — by default any whose
//! name contains `cold_scan` — regressed by more than the threshold
//! (default 25%), or disappeared from the run entirely (coverage rot).
//! The comparison uses `min_ns` (best observed run on each side): it is
//! the most noise-resistant single-machine statistic, though a baseline
//! committed from different hardware can still differ by more than the
//! threshold — prefer re-baselining from the CI artifact of a green run
//! so both sides come from the same runner class.
//!
//! ```text
//! bench_check compare    --baseline BENCH_BASELINE.json --current bench-current.json
//! bench_check rebaseline --current bench-current.json --out BENCH_BASELINE.json
//! ```
//!
//! Flags for `compare`: `--threshold 0.25` (fractional regression
//! allowed), `--gate cold_scan` (substring selecting gated benchmarks;
//! repeatable), `--min-ns 200000` (baseline entries faster than this are
//! reported but never gated — single-shot smoke timings of micro
//! benchmarks are pure noise), `--ratio NUM:DEN:MAX` (repeatable; a
//! same-run ratio gate, see below).
//!
//! A ratio gate fails when `mean(NUM) / mean(DEN)`, both taken from the
//! *current* run, exceeds `MAX`. It compares two paths measured on the
//! same machine minutes apart (e.g. `warm_query/tcp` against
//! `warm_query/embedded`), so runner noise largely cancels and no
//! rebaseline can hide a regression of one path against the other. A
//! ratio naming an entry absent from the run is an error, never a pass.
//!
//! Both files hold flat JSON objects with `"name"`, `"mean_ns"`,
//! `"min_ns"` and `"iters"` keys — one per line for the shim's sink, one
//! per array element for the committed baseline; the parser only looks at
//! the keys, so either layout works. Duplicate names (e.g. a group run
//! both by a fast-fail filter pass and a full sweep) keep the entry with
//! the smallest `min_ns` — the least noisy estimate.
//!
//! To re-baseline after an intentional perf change, run the bench-smoke
//! commands locally with `NODB_BENCH_JSON` set (see `.github/workflows/
//! ci.yml`), then `bench_check rebaseline` and commit the result.

use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy)]
struct Entry {
    mean_ns: u64,
    min_ns: u64,
    iters: u64,
}

/// Extract `(name -> Entry)` from any text that contains flat JSON
/// objects with `"name"` / `"mean_ns"` / `"min_ns"` / `"iters"` keys
/// (JSON-lines sink or pretty-printed baseline array alike). Duplicate
/// names keep the entry with the smallest min.
fn parse_entries(text: &str) -> BTreeMap<String, Entry> {
    let mut out: BTreeMap<String, Entry> = BTreeMap::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let Some(name) = scan_string_value(rest) else {
            continue;
        };
        // The numeric fields belong to the same object: stop at the
        // closing brace so a malformed entry cannot steal its
        // successor's numbers.
        let object = &rest[..rest.find('}').map_or(rest.len(), |p| p + 1)];
        let (Some(mean_ns), Some(min_ns)) = (
            scan_number_field(object, "\"mean_ns\""),
            scan_number_field(object, "\"min_ns\""),
        ) else {
            continue;
        };
        let entry = Entry {
            mean_ns,
            min_ns,
            iters: scan_number_field(object, "\"iters\"").unwrap_or(1),
        };
        out.entry(name)
            .and_modify(|e| {
                if entry.min_ns < e.min_ns {
                    *e = entry;
                }
            })
            .or_insert(entry);
    }
    out
}

/// After a key, skip `: "` and return the quoted value (no escapes —
/// benchmark names never contain quotes or backslashes; entries that do
/// are skipped).
fn scan_string_value(s: &str) -> Option<String> {
    let open = s.find('"')?;
    let body = &s[open + 1..];
    let close = body.find('"')?;
    let v = &body[..close];
    if v.contains('\\') {
        return None;
    }
    Some(v.to_string())
}

fn scan_number_field(s: &str, key: &str) -> Option<u64> {
    let pos = s.find(key)?;
    let after = &s[pos + key.len()..];
    let digits: String = after
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// One `--ratio NUM:DEN:MAX` gate.
struct RatioGate {
    num: String,
    den: String,
    max: f64,
}

impl RatioGate {
    fn parse(spec: &str) -> Option<RatioGate> {
        let mut parts = spec.split(':');
        let (Some(num), Some(den), Some(max), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return None;
        };
        let max: f64 = max.parse().ok()?;
        (!num.is_empty() && !den.is_empty() && max > 0.0).then(|| RatioGate {
            num: num.to_string(),
            den: den.to_string(),
            max,
        })
    }

    /// `mean(num) / mean(den)` in `current`; an entry missing from the
    /// run is an error rather than a silent pass.
    fn ratio(&self, current: &BTreeMap<String, Entry>) -> Result<f64, String> {
        let mean = |name: &str| {
            current
                .get(name)
                .map(|e| e.mean_ns)
                .ok_or_else(|| format!("ratio gate entry {name} is missing from this run"))
        };
        let (num, den) = (mean(&self.num)?, mean(&self.den)?);
        Ok(num as f64 / den.max(1) as f64)
    }
}

struct CompareArgs {
    baseline: String,
    current: String,
    threshold: f64,
    gates: Vec<String>,
    min_ns: u64,
    ratios: Vec<RatioGate>,
}

fn compare(args: CompareArgs) -> Result<bool, String> {
    let baseline_text = std::fs::read_to_string(&args.baseline)
        .map_err(|e| format!("cannot read baseline {}: {e}", args.baseline))?;
    let current_text = std::fs::read_to_string(&args.current)
        .map_err(|e| format!("cannot read current {}: {e}", args.current))?;
    let baseline = parse_entries(&baseline_text);
    let current = parse_entries(&current_text);
    if baseline.is_empty() {
        return Err(format!("no benchmark entries in {}", args.baseline));
    }
    if current.is_empty() {
        return Err(format!("no benchmark entries in {}", args.current));
    }

    let mut failures = 0usize;
    let mut gated = 0usize;
    for (name, base) in &baseline {
        if !args.gates.iter().any(|g| name.contains(g)) {
            continue;
        }
        gated += 1;
        let Some(cur) = current.get(name) else {
            println!("FAIL  {name}: present in baseline but missing from this run");
            failures += 1;
            continue;
        };
        let ratio = cur.min_ns as f64 / base.min_ns.max(1) as f64;
        let verdict = if base.min_ns < args.min_ns {
            "skip (below --min-ns)"
        } else if ratio > 1.0 + args.threshold {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{verdict:<22} {name}: baseline {} -> current {} ({:+.1}%)",
            fmt_ms(base.min_ns),
            fmt_ms(cur.min_ns),
            (ratio - 1.0) * 100.0,
        );
    }
    // The inverse coverage check: a gated benchmark present in this run
    // but absent from the baseline would otherwise never be compared,
    // so a regression in a newly added benchmark could pass forever.
    for name in current.keys() {
        if args.gates.iter().any(|g| name.contains(g)) && !baseline.contains_key(name) {
            println!(
                "FAIL  {name}: gated benchmark has no baseline entry — re-baseline to gate it"
            );
            failures += 1;
        }
    }
    for gate in &args.ratios {
        let ratio = gate.ratio(&current)?;
        let verdict = if ratio > gate.max {
            failures += 1;
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "{verdict:<22} ratio {} / {}: {ratio:.2}x (max {:.2}x)",
            gate.num, gate.den, gate.max
        );
    }
    if gated == 0 {
        return Err(format!(
            "no baseline entry matches the gate(s) {:?} — wrong baseline file?",
            args.gates
        ));
    }
    let ungated = current
        .keys()
        .filter(|n| !args.gates.iter().any(|g| n.contains(g)))
        .count();
    println!(
        "\n{gated} gated benchmark(s) checked at threshold {:.0}% \
         ({ungated} ungated measurement(s) recorded for reference); {failures} failure(s)",
        args.threshold * 100.0
    );
    if failures > 0 {
        println!(
            "If this regression is intentional, re-baseline: run the bench-smoke \
             commands with NODB_BENCH_JSON set, then \
             `bench_check rebaseline --current <sink> --out BENCH_BASELINE.json` \
             and commit the result."
        );
    }
    Ok(failures == 0)
}

fn rebaseline(current: &str, out: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(current)
        .map_err(|e| format!("cannot read current {current}: {e}"))?;
    let entries = parse_entries(&text);
    if entries.is_empty() {
        return Err(format!("no benchmark entries in {current}"));
    }
    let mut body = String::from("[\n");
    for (i, (name, e)) in entries.iter().enumerate() {
        body.push_str(&format!(
            "  {{\"name\":\"{name}\",\"mean_ns\":{},\"min_ns\":{},\"iters\":{}}}{}\n",
            e.mean_ns,
            e.min_ns,
            e.iters,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    body.push_str("]\n");
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {} entries to {out}", entries.len());
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench_check compare --baseline FILE --current FILE \
         [--threshold 0.25] [--gate cold_scan] [--min-ns 200000] \
         [--ratio NUM:DEN:MAX]...\n  \
         bench_check rebaseline --current FILE --out FILE"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    let mut baseline = String::from("BENCH_BASELINE.json");
    let mut current = String::new();
    let mut out = String::from("BENCH_BASELINE.json");
    let mut threshold = 0.25f64;
    let mut gates: Vec<String> = Vec::new();
    let mut min_ns = 200_000u64;
    let mut ratios: Vec<RatioGate> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let Some(value) = args.get(i) else {
            return usage();
        };
        match flag {
            "--baseline" => baseline = value.clone(),
            "--current" => current = value.clone(),
            "--out" => out = value.clone(),
            "--threshold" => match value.parse() {
                Ok(t) => threshold = t,
                Err(_) => return usage(),
            },
            "--gate" => gates.push(value.clone()),
            "--min-ns" => match value.parse() {
                Ok(n) => min_ns = n,
                Err(_) => return usage(),
            },
            "--ratio" => match RatioGate::parse(value) {
                Some(r) => ratios.push(r),
                None => return usage(),
            },
            _ => return usage(),
        }
        i += 1;
    }
    if current.is_empty() {
        return usage();
    }
    if gates.is_empty() {
        gates.push("cold_scan".to_string());
    }
    match mode.as_str() {
        "compare" => match compare(CompareArgs {
            baseline,
            current,
            threshold,
            gates,
            min_ns,
            ratios,
        }) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        "rebaseline" => match rebaseline(&current, &out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSONL: &str = concat!(
        "{\"name\":\"g/cold_scan/a\",\"mode\":\"test\",\"mean_ns\":1000000,\"min_ns\":900000,\"iters\":1}\n",
        "{\"name\":\"g/warm_scan/a\",\"mode\":\"test\",\"mean_ns\":200000,\"min_ns\":200000,\"iters\":1}\n",
        "{\"name\":\"g/cold_scan/a\",\"mode\":\"test\",\"mean_ns\":800000,\"min_ns\":800000,\"iters\":1}\n",
    );

    #[test]
    fn parses_jsonl_and_keeps_smallest_duplicate() {
        let m = parse_entries(JSONL);
        assert_eq!(m.len(), 2);
        assert_eq!(m["g/cold_scan/a"].mean_ns, 800_000);
        assert_eq!(m["g/warm_scan/a"].mean_ns, 200_000);
    }

    #[test]
    fn parses_pretty_array_form() {
        let pretty = "[\n  {\"name\":\"x/cold_scan\",\"mean_ns\":5,\"min_ns\":4,\"iters\":2}\n]\n";
        let m = parse_entries(pretty);
        assert_eq!(m["x/cold_scan"].min_ns, 4);
        assert_eq!(m["x/cold_scan"].iters, 2);
    }

    #[test]
    fn malformed_entry_does_not_steal_successor_numbers() {
        let text = concat!(
            "{\"name\":\"broken\"}\n",
            "{\"name\":\"good\",\"mean_ns\":7,\"min_ns\":6,\"iters\":1}\n",
        );
        let m = parse_entries(text);
        assert!(!m.contains_key("broken"));
        assert_eq!(m["good"].mean_ns, 7);
    }

    /// Run `compare` with the ratio gate `spec` over a run holding the
    /// `current` (name, mean_ns) pairs. The baseline is the run itself,
    /// so only the ratio gate can fail. `tag` keeps parallel tests'
    /// scratch files apart.
    fn compare_with_ratio(tag: &str, current: &[(&str, u64)], spec: &str) -> Result<bool, String> {
        let dir = std::env::temp_dir().join(format!("bench_check-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |name: &str, ns: u64| {
            format!("{{\"name\":\"{name}\",\"mean_ns\":{ns},\"min_ns\":{ns},\"iters\":3}}\n")
        };
        let body: String = current.iter().map(|&(n, ns)| line(n, ns)).collect();
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, &body).unwrap();
        let run = dir.join("current.json");
        std::fs::write(&run, &body).unwrap();
        let verdict = compare(CompareArgs {
            baseline: baseline.display().to_string(),
            current: run.display().to_string(),
            threshold: 0.25,
            gates: vec!["cold_scan".to_string()],
            min_ns: 0,
            ratios: vec![RatioGate::parse(spec).unwrap()],
        });
        let _ = std::fs::remove_dir_all(&dir);
        verdict
    }

    const RATIO: &str = "s/cold_scan/tcp:s/cold_scan/embedded:2.0";

    #[test]
    fn ratio_spec_parses_and_rejects_malformed() {
        let g = RatioGate::parse(RATIO).unwrap();
        assert_eq!(g.num, "s/cold_scan/tcp");
        assert_eq!(g.den, "s/cold_scan/embedded");
        assert_eq!(g.max, 2.0);
        for bad in ["a:b", "a:b:c", "a:b:2:3", ":b:2", "a:b:-1"] {
            assert!(RatioGate::parse(bad).is_none(), "{bad} should not parse");
        }
    }

    #[test]
    fn ratio_gate_passes_within_max() {
        let run = [
            ("s/cold_scan/tcp", 1_500_000),
            ("s/cold_scan/embedded", 1_190_000),
        ];
        assert_eq!(compare_with_ratio("pass", &run, RATIO), Ok(true));
    }

    #[test]
    fn ratio_gate_fails_above_max() {
        // The shape of the wire regression this gate exists for: tcp
        // 8.01 ms against 1.66 ms embedded, both from the same run.
        let run = [
            ("s/cold_scan/tcp", 8_010_000),
            ("s/cold_scan/embedded", 1_660_000),
        ];
        assert_eq!(compare_with_ratio("fail", &run, RATIO), Ok(false));
    }

    #[test]
    fn ratio_gate_missing_entry_is_an_error() {
        let run = [("s/cold_scan/embedded", 1_000_000)];
        let err = compare_with_ratio("missing", &run, RATIO).unwrap_err();
        assert!(err.contains("s/cold_scan/tcp"), "{err}");
    }
}
