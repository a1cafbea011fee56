//! `BENCHMARK.json` checks: the committed file obeys the schema, and
//! the schema checks catch the mistakes they exist for.

use rectpart_e2ebench::spec::{is_name, Spec};

#[test]
fn committed_spec_has_no_problems() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Spec::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(spec.problems(), Vec::<String>::new());
}

#[test]
fn name_rule() {
    assert!(is_name("core.solve.JAG-M-OPT-BEST.p50_ms"));
    assert!(is_name("9lives"));
    assert!(!is_name(""));
    assert!(!is_name("has space"));
    assert!(!is_name("slash/inside"));
}

fn minimal(workloads: &str, end_to_end: &str, per_layer: &str) -> String {
    format!(
        r#"{{"command": ["python3", "e2ebench/run.py"], "paths": ["e2ebench"],
            "run_seconds": 10, "workloads": [{workloads}],
            "end_to_end": [{end_to_end}], "per_layer": [{per_layer}]}}"#
    )
}

const TWO_WORKLOADS: &str = r#"{"name": "a", "why": "one"}, {"name": "b", "why": "two"}"#;
const SETUP: &str = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#;
const LAYER: &str = r#"{"name": "layer", "unit": "ms", "better": "lower"}"#;

fn problems(workloads: &str, end_to_end: &str, per_layer: &str) -> usize {
    Spec::parse(&minimal(workloads, end_to_end, per_layer))
        .unwrap()
        .problems()
        .len()
}

#[test]
fn minimal_spec_is_valid() {
    assert_eq!(problems(TWO_WORKLOADS, SETUP, LAYER), 0);
}

#[test]
fn broken_rules_are_reported() {
    assert_eq!(problems(r#"{"name": "a", "why": "one"}"#, SETUP, LAYER), 1);
    assert_eq!(
        problems(TWO_WORKLOADS, &SETUP.replace("0.25", "0.3"), LAYER),
        1
    );
    assert_eq!(
        problems(&TWO_WORKLOADS.replace(r#""b""#, r#""b c""#), SETUP, LAYER),
        1
    );
    let many_e2e = vec![SETUP; 17].join(", ");
    assert_eq!(problems(TWO_WORKLOADS, &many_e2e, LAYER), 1);
    let many_layers = vec![LAYER; 129].join(", ");
    assert_eq!(problems(TWO_WORKLOADS, SETUP, &many_layers), 1);
}

#[test]
fn end_to_end_metric_without_bound_does_not_parse() {
    let no_bound = SETUP.replace(r#", "bound": 0.25"#, "");
    assert!(Spec::parse(&minimal(TWO_WORKLOADS, &no_bound, LAYER)).is_err());
    let extra = TWO_WORKLOADS.replace(r#""why": "one""#, r#""why": "one", "x": 1"#);
    assert!(Spec::parse(&minimal(&extra, SETUP, LAYER)).is_err());
    assert!(Spec::parse("{}").is_err());
}
