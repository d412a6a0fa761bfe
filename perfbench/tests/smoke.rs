//! Self-test of the benchmark at smoke scale: every workload runs, in both
//! trace modes, and prints every metric `BENCHMARK.json` names, with its
//! unit; a wrong pinned digest makes ops fail.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use minijson::Json;

/// Runs the benchmark binary and returns its result line, parsed.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seconds", "1"])
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} exited with {}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn u64_field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key} missing"))
}

fn assert_complete(workload: &str, trace: &str, section: &str) {
    let doc = run(&["--workload", workload, "--seed", "1", "--trace", trace]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}: {doc:?}");
    assert!(u64_field(&doc, "attempted") >= 1);
    assert_eq!(u64_field(&doc, "failed"), 0);
    let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics object");
    let declared = declared(section);
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload} trace {trace}: exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = doc.get("metrics").and_then(|ms| ms.get(&name));
        let m = m.unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}");
        let value = m.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn browser_prints_every_metric() {
    assert_complete("browser", "0", "end_to_end");
    assert_complete("browser", "1", "per_layer");
}

#[test]
fn corpus_prints_every_metric() {
    assert_complete("corpus", "0", "end_to_end");
    assert_complete("corpus", "1", "per_layer");
}

#[test]
fn service_prints_every_metric() {
    assert_complete("service", "0", "end_to_end");
    assert_complete("service", "1", "per_layer");
}

#[test]
fn wrong_pinned_digest_fails_ops() {
    let doc = run(&["--workload", "browser", "--seed", "1", "--trace", "0", "--pin", "deadbeef"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    let attempted = u64_field(&doc, "attempted");
    assert_eq!(u64_field(&doc, "failed"), attempted, "every op must miss the wrong digest");
    let ok = doc.get("metrics").and_then(|m| m.get("ok_frac")).and_then(|m| m.get("value"));
    assert_eq!(ok.and_then(Json::as_f64), Some(0.0));
}
