//! The metric lists the command prints match `BENCHMARK.json`.

use fec_perfbench::{END_TO_END, PER_LAYER};
use fec_trace::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    fec_trace::parse_json(&text).expect("BENCHMARK.json parses")
}

fn listed(key: &str) -> Vec<(String, String, String)> {
    let Some(Json::Arr(rows)) = manifest().get(key).cloned() else {
        panic!("{key} is a list");
    };
    let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).expect(k).to_string();
    rows.iter()
        .map(|r| (field(r, "name"), field(r, "unit"), field(r, "better")))
        .collect()
}

fn owned(rows: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    rows.iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
}
