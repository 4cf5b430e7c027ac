//! The metrics the program prints are exactly the ones `BENCHMARK.json`
//! declares.

use std::path::Path;

use dyser_perfbench::run::{end_to_end, per_layer, Measured};

fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

#[test]
fn per_layer_names_match_the_definition() {
    let printed: Vec<String> = per_layer(&Measured::default())
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, declared("per_layer"));
}

#[test]
fn end_to_end_names_match_the_definition() {
    let m = Measured {
        latencies_ms: vec![1.0; 100],
        round_jobs_per_s: vec![1.0],
        round_mcycles_per_s: vec![1.0],
        setup_s: vec![1.0],
        attempted: 1,
        ..Measured::default()
    };
    let printed: Vec<String> = end_to_end(&m)
        .expect("enough samples")
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(printed, declared("end_to_end"));
    let short = Measured {
        latencies_ms: vec![1.0; 99],
        ..m
    };
    assert!(
        end_to_end(&short).is_err(),
        "p90 needs ten samples beyond it"
    );
}
