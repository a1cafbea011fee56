//! The `BENCHMARK.json` schema: what the benchmark runs, which metrics
//! it prints, and by how much each end-to-end metric may worsen.

use rectpart_json::Json;

use crate::compare::Better;

/// Most workloads a benchmark may define.
pub const MAX_WORKLOADS: usize = 8;
/// Most end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;
/// Largest allowed regression bound (a share of the parent median).
const MAX_BOUND: f64 = 0.25;

/// One named set of inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Workload name, passed as `--workload`.
    pub name: String,
    /// Why the workload was chosen (one line).
    pub why: String,
}

/// One metric the benchmark prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Allowed worsening of the median, as a share of the parent's
    /// median. Present exactly on end-to-end metrics.
    pub bound: Option<f64>,
}

/// A parsed `BENCHMARK.json`: the parts the compare tool reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The workloads.
    pub workloads: Vec<Workload>,
    /// Metrics a user of the system sees, printed by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers, printed by traced runs.
    pub per_layer: Vec<Metric>,
}

const TOP_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err(format!("{what}: expected an object"));
    };
    let mut got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    got.sort_unstable();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if got != want {
        return Err(format!("{what}: keys {got:?}, expected {want:?}"));
    }
    Ok(())
}

fn string(v: &Json, key: &str, what: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: `{key}` must be a string"))
}

fn array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))
}

fn metrics(v: &Json, key: &str, with_bound: bool) -> Result<Vec<Metric>, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    array(v, key)?
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let what = format!("{key}[{i}]");
            exact_keys(m, keys, &what)?;
            let better = string(m, "better", &what)?;
            let bound = if with_bound {
                let b = m.get("bound").and_then(Json::as_f64);
                Some(b.ok_or_else(|| format!("{what}: `bound` must be a number"))?)
            } else {
                None
            };
            Ok(Metric {
                name: string(m, "name", &what)?,
                unit: string(m, "unit", &what)?,
                better: Better::parse(&better)
                    .ok_or_else(|| format!("{what}: `better` must be lower or higher"))?,
                bound,
            })
        })
        .collect()
}

/// `true` for a valid workload or metric name, one that matches
/// `[A-Za-z0-9_.-]+`.
pub fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Spec {
    /// Parses the document and checks its shape (exact key sets and
    /// value types). Content rules are in [`Spec::problems`].
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = rectpart_json::parse(text).map_err(|e| e.to_string())?;
        exact_keys(&doc, &TOP_KEYS, "BENCHMARK.json")?;
        let workloads = array(&doc, "workloads")?
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let what = format!("workloads[{i}]");
                exact_keys(w, &["name", "why"], &what)?;
                Ok(Workload {
                    name: string(w, "name", &what)?,
                    why: string(w, "why", &what)?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end", true)?,
            per_layer: metrics(&doc, "per_layer", false)?,
        })
    }

    /// Every broken content rule, as one message each (empty = valid).
    /// [`Spec::parse`] already requires a bound on every end-to-end
    /// metric.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !(2..=MAX_WORKLOADS).contains(&self.workloads.len()) {
            out.push(format!("expected 2 to {MAX_WORKLOADS} workloads"));
        }
        if self.end_to_end.len() > MAX_END_TO_END {
            out.push(format!("more than {MAX_END_TO_END} end-to-end metrics"));
        }
        if self.per_layer.len() > MAX_PER_LAYER {
            out.push(format!("more than {MAX_PER_LAYER} per-layer metrics"));
        }
        for m in &self.end_to_end {
            if !m.bound.is_some_and(|b| (0.0..=MAX_BOUND).contains(&b)) {
                out.push(format!(
                    "metric `{}`: bound must be 0 to {MAX_BOUND}",
                    m.name
                ));
            }
        }
        let names = self.workloads.iter().map(|w| &w.name).chain(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .map(|m| &m.name),
        );
        for n in names.filter(|n| !is_name(n)) {
            out.push(format!("bad name `{n}`"));
        }
        out
    }
}
