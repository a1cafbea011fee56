#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Support library for the workspace benchmarks: the `benchdiff`
//! regression detector over committed `BENCH_*.json` baselines.
//!
//! The benchmark harnesses emit JSON reports of **deterministic op
//! counters** (work units, probe counts, cache statistics — identical on
//! every host at every thread count) plus derived ratios and host
//! metadata. `benchdiff` compares only the counters, and would skip
//! wall-clock fields (`*_ns`, only comparable on one machine), so a
//! regression verdict is reproducible in CI regardless of runner speed:
//!
//! * only integer leaves ([`Json::UInt`]/[`Json::Int`]) at matching
//!   paths are compared — floats (derived ratios) and strings are
//!   ignored;
//! * keys ending in `_ns` and the environment keys (`host_cores`,
//!   `instrumented`, `benchmark`, `note`) are excluded;
//! * a leaf regresses when the current value exceeds the baseline by
//!   more than the configured tolerance (percent). Decreases never
//!   fail: lower op counts are improvements, and a shrunk baseline is
//!   reviewed when it is re-committed.

use rectpart_json::Json;

/// One integer leaf whose current value exceeds the baseline beyond
/// tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `.`-joined path of object keys and `[i]` array indices.
    pub path: String,
    /// Value in the baseline report.
    pub baseline: i128,
    /// Value in the current report.
    pub current: i128,
    /// Relative increase in percent (always > tolerance for a reported
    /// entry; 100 by convention for a zero baseline).
    pub increase_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} -> {} (+{:.2}%)",
            self.path, self.baseline, self.current, self.increase_pct
        )
    }
}

/// Environment/metadata keys that never participate in the diff.
const EXCLUDED_KEYS: [&str; 4] = ["host_cores", "instrumented", "benchmark", "note"];

fn excluded(key: &str) -> bool {
    key.ends_with("_ns") || EXCLUDED_KEYS.contains(&key)
}

fn as_int(j: &Json) -> Option<i128> {
    match *j {
        Json::UInt(u) => Some(u as i128),
        Json::Int(i) => Some(i as i128),
        _ => None,
    }
}

/// Recursively compares `current` against `baseline`, appending every
/// integer leaf that grew beyond `tolerance_pct` to `out`. Leaves
/// present on only one side are ignored (renamed or new metrics are
/// not regressions; shrinking coverage shows up in review of the
/// report diff itself).
fn walk(
    path: &mut String,
    baseline: &Json,
    current: &Json,
    tolerance_pct: f64,
    out: &mut Vec<Regression>,
) {
    match (baseline, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (key, bv) in b {
                if excluded(key) {
                    continue;
                }
                let Some(cv) = c.iter().find_map(|(k, v)| (k == key).then_some(v)) else {
                    continue;
                };
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(key);
                walk(path, bv, cv, tolerance_pct, out);
                path.truncate(len);
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            for (i, (bv, cv)) in b.iter().zip(c.iter()).enumerate() {
                let len = path.len();
                path.push_str(&format!("[{i}]"));
                walk(path, bv, cv, tolerance_pct, out);
                path.truncate(len);
            }
        }
        _ => {
            let (Some(b), Some(c)) = (as_int(baseline), as_int(current)) else {
                return;
            };
            if c <= b {
                return;
            }
            let increase_pct = if b == 0 {
                100.0
            } else {
                ((c - b) as f64 / b.abs() as f64) * 100.0
            };
            if increase_pct <= tolerance_pct {
                return;
            }
            out.push(Regression {
                path: path.clone(),
                baseline: b,
                current: c,
                increase_pct,
            });
        }
    }
}

/// Diffs two benchmark reports on their deterministic integer leaves.
/// Returns every leaf whose current value exceeds the baseline by more
/// than `tolerance_pct` percent, in document order.
pub fn diff_reports(baseline: &Json, current: &Json, tolerance_pct: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    walk(
        &mut String::new(),
        baseline,
        current,
        tolerance_pct,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ops: u64, wall_ns: u64) -> Json {
        Json::obj(vec![
            ("benchmark", Json::Str("t".into())),
            ("host_cores", Json::UInt(8)),
            (
                "cases",
                Json::Arr(vec![Json::obj(vec![
                    ("case", Json::Str("a".into())),
                    ("checked_ops", Json::UInt(ops)),
                    ("build_ns", Json::UInt(wall_ns)),
                    ("ratio", Json::Float(2.0)),
                ])]),
            ),
        ])
    }

    #[test]
    fn self_diff_is_empty() {
        let r = report(1000, 5);
        assert!(diff_reports(&r, &r, 0.0).is_empty());
    }

    #[test]
    fn op_count_increase_beyond_tolerance_is_reported() {
        let base = report(1000, 5);
        let worse = report(1100, 5);
        let regs = diff_reports(&base, &worse, 5.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "cases[0].checked_ops");
        assert_eq!((regs[0].baseline, regs[0].current), (1000, 1100));
        assert!((regs[0].increase_pct - 10.0).abs() < 1e-9);
        // Inside tolerance: clean.
        assert!(diff_reports(&base, &worse, 10.0).is_empty());
        assert!(diff_reports(&base, &report(1050, 5), 5.0).is_empty());
    }

    #[test]
    fn wall_clock_and_metadata_are_ignored() {
        let base = report(1000, 5);
        // Timing exploded, host shrank: not a regression.
        let mut noisy = report(1000, 5_000_000);
        if let Json::Obj(fields) = &mut noisy {
            for (k, v) in fields.iter_mut() {
                if k == "host_cores" {
                    *v = Json::UInt(1);
                }
            }
        }
        assert!(diff_reports(&base, &noisy, 0.0).is_empty());
    }

    #[test]
    fn decreases_and_missing_leaves_are_clean() {
        let base = report(1000, 5);
        assert!(diff_reports(&base, &report(900, 5), 0.0).is_empty());
        let renamed = Json::obj(vec![("other", Json::UInt(9999))]);
        assert!(diff_reports(&base, &renamed, 0.0).is_empty());
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let base = Json::obj(vec![("evictions", Json::UInt(0))]);
        let cur = Json::obj(vec![("evictions", Json::UInt(3))]);
        let regs = diff_reports(&base, &cur, 5.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].increase_pct, 100.0);
    }
}
