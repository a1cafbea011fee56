//! End-to-end checks that need their own process: the `--gamma` policy
//! lives in a process-global, and span traces are process-global too, so
//! these run the `rectpart` binary instead of calling `run()` in-process.
//!
//! Covers:
//! * `--gamma auto` backend selection straddling the 75% zero-density
//!   threshold, observed through the stats JSON `gamma_backend` field;
//! * the stats JSON environment fields (`gamma_mode`, `gamma_backend`,
//!   `host_cores`);
//! * a mistyped `RECTPART_GAMMA` without `--gamma` exits 2, like a
//!   mistyped `--gamma`;
//! * `--trace-out`: the emitted Chrome trace-event JSON parses with
//!   `rectpart-json` and round-trips through it bit-identically, and the
//!   `.folded` variant emits collapsed stacks.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rectpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rectpart"))
        .args(args)
        .output()
        .expect("spawn rectpart binary")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rectpart-tg-{}-{name}", std::process::id()))
}

/// Runs `partition --gamma auto --stats FILE` on `csv` and returns the
/// parsed stats JSON.
fn stats_for(csv: &str, name: &str) -> rectpart_json::Json {
    let input = tmp(&format!("{name}.csv"));
    let stats = tmp(&format!("{name}.json"));
    std::fs::write(&input, csv).unwrap();
    let out = rectpart(&[
        "partition",
        "--gamma",
        "auto",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "2",
        "--algo",
        "RECT-UNIFORM",
        "--stats",
        stats.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = rectpart_json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&stats).ok();
    json
}

#[test]
fn gamma_auto_straddles_the_zero_density_threshold() {
    // 4x4 = 16 cells; the auto policy takes the sparse backend at >= 75%
    // zeros (12 of 16) and stays dense one zero below (11 of 16).
    let sparse = stats_for("1,0,0,0\n0,2,0,0\n0,0,3,0\n0,0,0,4\n", "sparse12");
    assert_eq!(
        sparse.get("gamma_backend").and_then(|j| j.as_str()),
        Some("sparse"),
        "12/16 zeros must select the sparse backend"
    );
    let dense = stats_for("1,0,0,0\n0,2,0,0\n0,0,3,0\n0,0,5,4\n", "dense11");
    assert_eq!(
        dense.get("gamma_backend").and_then(|j| j.as_str()),
        Some("dense"),
        "11/16 zeros must stay on the dense backend"
    );
    // Both runs report the policy that was in effect and the host shape.
    for json in [&sparse, &dense] {
        assert_eq!(
            json.get("gamma_mode").and_then(|j| j.as_str()),
            Some("auto")
        );
        let cores = json
            .get("host_cores")
            .and_then(|j| j.as_u64())
            .expect("host_cores present");
        assert!(cores >= 1);
    }
}

#[test]
fn trace_out_emits_parseable_roundtripping_chrome_json() {
    let input = tmp("trace.csv");
    let trace = tmp("trace.json");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--algo",
        "HIER-RB-LOAD",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace         ->"));
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = rectpart_json::parse(&text).expect("trace must be valid JSON");
    // Round-trip: re-serializing and re-parsing reproduces the document.
    let reparsed = rectpart_json::parse(&doc.to_string_pretty()).unwrap();
    assert_eq!(doc.to_string_pretty(), reparsed.to_string_pretty());
    let events = doc.get("traceEvents").expect("traceEvents array");
    let rectpart_json::Json::Arr(events) = events else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(
        doc.get("otherData")
            .and_then(|o| o.get("format"))
            .and_then(|j| j.as_str()),
        Some("rectpart-span-trace")
    );
    if cfg!(feature = "obs") {
        assert!(!events.is_empty(), "obs build must record span events");
        assert!(
            text.contains("cli.partition"),
            "root partition span expected in the trace"
        );
    } else {
        assert!(events.is_empty(), "without obs the trace is empty");
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_out_folded_emits_collapsed_stacks() {
    let input = tmp("folded.csv");
    let trace = tmp("trace.folded");
    std::fs::write(&input, "1,2,3,4\n5,6,7,8\n9,10,11,12\n13,14,15,16\n").unwrap();
    let out = rectpart(&[
        "partition",
        "--input",
        input.to_str().unwrap(),
        "-m",
        "4",
        "--algo",
        "JAG-M-HEUR-BEST",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    if cfg!(feature = "obs") {
        // Every line is "stack <count>" with the rectpart root frame.
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with("rectpart"), "bad folded line: {line}");
            let (_, count) = line.rsplit_once(' ').expect("space-separated count");
            count.parse::<u64>().expect("numeric leaf value");
        }
        assert!(
            text.contains("rectpart;cli.partition"),
            "partition span missing:\n{text}"
        );
    } else {
        assert!(text.is_empty(), "without obs the folded output is empty");
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_out_requires_a_file_value() {
    let out = rectpart(&["partition", "--input", "a.csv", "-m", "2", "--trace-out"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn mistyped_gamma_environment_is_a_usage_error() {
    let input = tmp("env-gamma.csv");
    std::fs::write(&input, "1,0\n0,2\n").unwrap();
    let run = |env: &str, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_rectpart"))
            .args(["partition", "--input", input.to_str().unwrap(), "-m", "2"])
            .args(extra)
            .env("RECTPART_GAMMA", env)
            .output()
            .expect("spawn rectpart binary")
    };
    // Without `--gamma`, an unparsable value stops the run before any work,
    // just as `--gamma spares` does.
    let out = run("spares", &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("\"spares\""),
        "the error must name the value: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(run("", &[]).status.code(), Some(2));
    // A valid value (any case) and an explicit flag both still run.
    assert_eq!(run("Sparse", &[]).status.code(), Some(0));
    assert_eq!(run("spares", &["--gamma", "dense"]).status.code(), Some(0));
    std::fs::remove_file(&input).ok();
}
