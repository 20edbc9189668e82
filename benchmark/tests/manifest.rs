//! `BENCHMARK.json` and the code agree on every metric name and unit,
//! and on the workload names.

use wsn_benchmark::workloads::Workload;
use wsn_benchmark::{END_TO_END, PER_LAYER};
use wsn_stats::JsonValue;

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn metrics(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn manifest_lists_what_the_benchmark_reports() {
    let doc = manifest();
    assert_eq!(metrics(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(metrics(&doc, "per_layer"), owned(&PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
