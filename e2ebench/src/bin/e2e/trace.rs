//! Traced runs: spans recorded by the benchmark around each public call,
//! merged with the program's own span tree and counters into per-layer
//! metrics, a Chrome trace and a per-layer table.

use std::path::Path;
use std::time::Instant;

use rectpart_json::Json;
use rectpart_obs::span::{self, SpanNode};
use rectpart_obs::{Recorder, Report};

use crate::Layers;

/// Span kinds of the program's span tree that get per-layer metrics,
/// and whether work is charged to the kind itself. The others' work
/// lands in their child spans, so they get only a self time.
pub const SPAN_KINDS: [(&str, bool); 8] = [
    ("gamma.dense_build", true),
    ("gamma.sparse_build", true),
    ("onedim.nicol", false),
    ("onedim.nicol.bisect", true),
    ("core.stripe_solve", false),
    ("core.jag_m.feasibility", true),
    ("core.rect_nicol.refine", false),
    ("core.hier.level", false),
];

/// Chrome-trace thread id of the benchmark's own spans (the program's
/// threads count up from 0).
const CLIENT_TID: u64 = 1000;

/// One span recorded by the benchmark around a public call.
struct BenchSpan {
    name: &'static str,
    request: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// What the program recorded during the timed phase, frozen when it
/// ended, so that untimed work after it (the cold-engine checks) cannot
/// leak into the per-layer numbers.
struct TimedPhase {
    tree: Vec<SpanNode>,
    report: Report,
    chrome: Json,
}

/// Span recorder of the benchmark. Inert unless the run is traced and
/// its timed phase has begun.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    active: bool,
    spans: Vec<BenchSpan>,
    timed: Option<TimedPhase>,
}

impl Tracer {
    /// A tracer; `enabled` only in the traced build. Starts the
    /// program's span clock first, so both clocks share one epoch.
    pub fn new(enabled: bool) -> Tracer {
        let _ = rectpart_obs::StopWatch::start();
        Tracer {
            epoch: Instant::now(),
            enabled,
            active: false,
            spans: Vec::new(),
            timed: None,
        }
    }

    /// Starts the timed phase: everything recorded during set-up is
    /// dropped, so the traced numbers cover exactly the timed requests.
    pub fn begin_timed(&mut self) {
        if self.enabled {
            Recorder::global().reset();
            self.active = true;
        }
    }

    /// Ends the timed phase and freezes the program's span tree,
    /// counters and trace events as they stand.
    pub fn end_timed(&mut self) {
        if self.active {
            self.timed = Some(TimedPhase {
                tree: span::snapshot_tree(),
                report: Recorder::global().snapshot(),
                chrome: rectpart_obs::chrome::trace_json(),
            });
        }
        self.active = false;
    }

    /// Records one span of request `request`.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.active {
            self.spans.push(BenchSpan {
                name,
                request,
                start_ns: nanos(start.duration_since(self.epoch)),
                dur_ns: nanos(end.duration_since(start)),
            });
        }
    }

    /// Per-layer metrics of the timed phase, which made `requests`
    /// requests, from the program's span tree and counters. Empty when
    /// no timed phase was traced.
    pub fn layers(&self, requests: u64) -> Layers {
        let mut out = Layers::default();
        let Some(timed) = &self.timed else {
            return out;
        };
        let req = requests.max(1) as f64;
        let per_kind = self_times(&timed.tree);
        for (kind, charged) in SPAN_KINDS {
            let (self_ns, work) = per_kind
                .iter()
                .find(|(k, _, _)| *k == kind)
                .map_or((0, 0), |&(_, s, w)| (s, w));
            out.push(
                format!("span.{kind}.self_ms_per_req"),
                self_ns as f64 / 1e6 / req,
                "ms",
            );
            if charged {
                out.push(
                    format!("span.{kind}.work_per_req"),
                    work as f64 / req,
                    "count",
                );
                let ns_per_work = if work == 0 {
                    0.0
                } else {
                    self_ns as f64 / work as f64
                };
                out.push(format!("span.{kind}.ns_per_work"), ns_per_work, "ns");
            }
        }
        let report = &timed.report;
        let get = |name: &str| report.get(name).unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        out.push(
            "core.stripe_cache.hit_ratio".into(),
            report.stripe_cache_hit_rate().unwrap_or(0.0),
            "ratio",
        );
        let skips = get("core.jag_m.lazy_skips");
        out.push(
            "core.jag_m.lazy_skip_ratio".into(),
            ratio(skips, skips + get("core.jag_m.lazy_evals")),
            "ratio",
        );
        let reuses = get("onedim.scratch.reuses");
        out.push(
            "onedim.scratch.reuse_ratio".into(),
            ratio(reuses, reuses + get("onedim.scratch.allocs")),
            "ratio",
        );
        out.push(
            "onedim.probe_calls_per_req".into(),
            get("onedim.probe_calls") / req,
            "count",
        );
        out.push(
            "onedim.nicol_calls_per_req".into(),
            get("onedim.nicol_calls") / req,
            "count",
        );
        out
    }

    /// Writes the Chrome trace of the timed phase (the program's span
    /// events plus the benchmark's own spans on their own thread) to
    /// `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut doc = self
            .timed
            .as_ref()
            .map_or_else(rectpart_obs::chrome::trace_json, |t| t.chrome.clone());
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, Json::Arr(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                events.extend(self.spans.iter().map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(format!("e2e.{}", s.name))),
                        ("cat", Json::Str("e2e".into())),
                        ("ph", Json::Str("X".into())),
                        ("ts", Json::UInt(s.start_ns / 1_000)),
                        ("dur", Json::UInt(s.dur_ns / 1_000)),
                        ("pid", Json::UInt(1)),
                        ("tid", Json::UInt(CLIENT_TID)),
                        (
                            "args",
                            Json::obj(vec![
                                ("request", Json::UInt(s.request)),
                                ("dur_ns", Json::UInt(s.dur_ns)),
                            ]),
                        ),
                    ])
                }));
            }
        }
        std::fs::write(path, doc.to_string_pretty())
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per span kind: (kind, self wall ns, self work). A node's self wall
/// time is its inclusive wall time minus its children's; children that
/// ran on worker threads in parallel can sum past the parent, so the
/// difference saturates at 0.
fn self_times(tree: &[SpanNode]) -> Vec<(&'static str, u64, u64)> {
    let mut child_ns = vec![0u64; tree.len()];
    for node in tree {
        if let Some((_, parent_path)) = node.path.split_last() {
            if let Some(p) = tree.iter().position(|n| n.path == parent_path) {
                child_ns[p] += node.wall_ns;
            }
        }
    }
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (node, &children) in tree.iter().zip(&child_ns) {
        let Some(&(kind, _)) = node.path.last() else {
            continue;
        };
        let self_ns = node.wall_ns.saturating_sub(children);
        match out.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(entry) => {
                entry.1 += self_ns;
                entry.2 += node.work;
            }
            None => out.push((kind, self_ns, node.work)),
        }
    }
    out
}
