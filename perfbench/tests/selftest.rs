//! Tiny-scale self-test: every workload in both modes prints every
//! metric `BENCHMARK.json` names, with its unit, and fails no operation.

use std::process::Command;

/// `(name, unit)` of every entry in one list of `BENCHMARK.json` (the
/// unit is empty for workloads).
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| -> String {
        obj.find(&format!("\"{f}\": \""))
            .map_or(String::new(), |at| {
                let at = at + f.len() + 5;
                obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
            })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let cache = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    let out = Command::new(env!("CARGO_BIN_EXE_nodb-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("benchmark runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let workloads: Vec<String> = listed(&spec, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, ["cold_scan", "warm_session", "live_logs"]);
    let lists = [listed(&spec, "end_to_end"), listed(&spec, "per_layer")];
    for w in &workloads {
        for trace in [0u8, 1] {
            let line = run(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0,"),
                "{w} trace {trace}: {line}"
            );
            let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
            assert_eq!(
                metrics.matches("\"value\"").count(),
                lists[trace as usize].len(),
                "{w} trace {trace} prints exactly the listed metrics: {line}"
            );
            for (name, unit) in &lists[trace as usize] {
                let head = format!("\"{name}\": {{\"value\": ");
                let at = metrics
                    .find(&head)
                    .unwrap_or_else(|| panic!("{w}: no {name} in {line}"));
                let rest = &metrics[at + head.len()..];
                let (value, tail) = rest.split_once(", ").expect("value, unit");
                let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert!(
                    tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{w}: {name} has unit {unit}: {line}"
                );
            }
        }
    }
}
