#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Implementation of the `rectpart` command-line tool.
//!
//! Three subcommands:
//!
//! * `generate` — write one of the paper's instance classes as CSV;
//! * `partition` — partition a CSV load matrix with any algorithm, print
//!   the quality report, optionally write the cell→processor owner map;
//! * `evaluate` — additionally price the partition under the BSP
//!   communication model.
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is a
//! thin wrapper.

// The name → algorithm registry lives in rectpart-core (shared with the
// fault-tolerant driver); re-exported here for backwards compatibility.
pub use rectpart_core::{algorithm_by_name, algorithm_names};

use std::path::PathBuf;

use rectpart_core::{
    GammaMode, LoadMatrix, PartitionError, PartitionStats, PrefixSum2D, Rect, RectpartError,
    RowUpdate,
};
use rectpart_engine::{Engine, EngineConfig, EngineStats, Query, RebalancePolicy, Request};
use rectpart_robust::{DriverFailure, SolverDriver, DEFAULT_LADDER};
use rectpart_simexec::{CommModel, Simulator};
use rectpart_workloads::io::{read_csv, write_csv};
use rectpart_workloads::{diagonal, multi_peak, peak, slac_like, uniform};

/// A parsed command line.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `rectpart generate --class C --rows R --cols C --seed S [--delta D] --out F`
    Generate {
        /// Instance class name.
        class: String,
        /// Output rows.
        rows: usize,
        /// Output columns.
        cols: usize,
        /// RNG seed.
        seed: u64,
        /// Heterogeneity for the uniform class.
        delta: f64,
        /// CSV destination.
        out: PathBuf,
    },
    /// `rectpart partition --input F --algo A -m M [--owners F] [--save F]
    /// [--stats [F]]`
    Partition {
        /// CSV load matrix to read.
        input: PathBuf,
        /// Algorithm name (see `rectpart algos`).
        algo: String,
        /// Processor count.
        m: usize,
        /// Optional owner-map CSV destination.
        owners: Option<PathBuf>,
        /// Optional partition JSON destination.
        save: Option<PathBuf>,
        /// Optional stats JSON destination (`-` = append to stdout
        /// output). `None` falls back to the `RECTPART_STATS` env var.
        stats: Option<String>,
        /// Optional span-trace destination: Chrome trace-event JSON, or
        /// collapsed stacks when the filename ends in `.folded`. `None`
        /// falls back to the `RECTPART_TRACE` env var.
        trace: Option<String>,
        /// Deterministic work budget for the fault-tolerant driver.
        budget: Option<u64>,
        /// Fallback ladder: `Some("-")` = default ladder, otherwise a
        /// comma-separated algorithm list. `None` = direct solve.
        fallback: Option<String>,
        /// Checksummed progress-snapshot destination; written at every
        /// ladder rung boundary and on cancellation.
        checkpoint: Option<PathBuf>,
        /// Minimum work units between routine snapshots (0 = every
        /// rung boundary).
        checkpoint_interval: Option<u64>,
        /// Snapshot file to resume a previous run from; the ladder and
        /// budget recorded in the snapshot are used.
        resume: Option<PathBuf>,
    },
    /// `rectpart evaluate --input F --algo A -m M [--stats [F]]`
    Evaluate {
        /// CSV load matrix to read.
        input: PathBuf,
        /// Algorithm name (see `rectpart algos`).
        algo: String,
        /// Processor count.
        m: usize,
        /// Optional stats JSON destination (see `Partition::stats`).
        stats: Option<String>,
        /// Optional span-trace destination (see `Partition::trace`).
        trace: Option<String>,
    },
    /// `rectpart serve --input F --queries Q.json [--out R.json]
    /// [--rebalance-threshold T] [--budget UNITS] [--stats [F]]`
    Serve {
        /// CSV load matrix the engine stays resident on.
        input: PathBuf,
        /// JSON request batch (see the usage text for the format).
        queries: PathBuf,
        /// Optional per-request results JSON destination.
        out: Option<PathBuf>,
        /// Stale partitions keep serving while their imbalance on the
        /// current (delta-patched) matrix stays at or below this, the
        /// `simexec::dynamic` rebalance trigger. `None` re-solves after
        /// every delta (the bit-identity default).
        rebalance_threshold: Option<f64>,
        /// Default per-query work budget; routes queries through the
        /// fault-tolerant driver.
        budget: Option<u64>,
        /// Optional stats JSON destination (see `Partition::stats`).
        stats: Option<String>,
        /// Optional span-trace destination (see `Partition::trace`).
        trace: Option<String>,
    },
    /// `rectpart algos`
    Algos,
    /// `rectpart --help`
    Help,
}

/// Errors surfaced to the user with exit code 2.
#[derive(Debug, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// A classified command failure; each class maps to a distinct nonzero
/// exit code so scripts can tell a bad invocation from bad data from an
/// exhausted budget (see [`CliError::exit_code`]).
#[derive(Debug)]
pub enum CliError {
    /// Malformed command line (exit 2).
    Usage(UsageError),
    /// Well-formed command, unusable data: unreadable/ragged CSV,
    /// degenerate matrix, infeasible `m` (exit 3).
    Input(String),
    /// The work budget ran out before any ladder rung could be
    /// admitted (exit 4).
    Budget(String),
    /// A `--resume` snapshot that cannot be trusted: torn or corrupt
    /// file, or a snapshot of a different instance (exit 5).
    Snapshot(String),
    /// Everything else — an algorithm bug or environment failure
    /// (exit 1).
    Internal(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Budget(_) => 4,
            CliError::Snapshot(_) => 5,
            CliError::Internal(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Input(m)
            | CliError::Budget(m)
            | CliError::Snapshot(m)
            | CliError::Internal(m) => {
                write!(f, "{m}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        // Every path the CLI reads or writes was named by the user.
        CliError::Input(e.to_string())
    }
}

impl From<PartitionError> for CliError {
    fn from(e: PartitionError) -> Self {
        CliError::Internal(format!("algorithm produced an invalid partition: {e}"))
    }
}

impl From<RectpartError> for CliError {
    fn from(e: RectpartError) -> Self {
        if e.is_input_error() {
            CliError::Input(e.to_string())
        } else if matches!(e, RectpartError::BudgetExhausted { .. }) {
            CliError::Budget(e.to_string())
        } else if matches!(e, RectpartError::SnapshotCorrupt { .. }) {
            CliError::Snapshot(e.to_string())
        } else {
            CliError::Internal(e.to_string())
        }
    }
}

impl From<DriverFailure> for CliError {
    fn from(f: DriverFailure) -> Self {
        // Attach the degradation report so the user sees how far the
        // ladder got before classifying the terminal error.
        let detail = format!("{}\n{}", f.error, f.report);
        match &f.error {
            e if e.is_input_error() => CliError::Input(detail),
            RectpartError::BudgetExhausted { .. } => CliError::Budget(detail),
            RectpartError::SnapshotCorrupt { .. } => CliError::Snapshot(detail),
            _ => CliError::Internal(detail),
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, UsageError> {
    match flag(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| UsageError(format!("invalid value for {name}: {v:?}"))),
    }
}

fn require<T>(v: Option<T>, name: &str) -> Result<T, UsageError> {
    v.ok_or_else(|| UsageError(format!("missing required option {name}")))
}

/// A flag whose value is optional: `--stats` alone (or followed by
/// another option) means stdout (`"-"`); `--stats FILE` names a file.
fn optional_value_flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1).map(String::as_str) {
        Some(v) if v == "-" || !v.starts_with('-') => Some(v.to_string()),
        _ => Some("-".to_string()),
    }
}

/// Extracts the global `--threads N` option, installs it as the
/// process-wide worker-thread budget for the parallel execution layer
/// (`0`/absent = auto-detect; `1` = serial), and returns the remaining
/// arguments for [`parse`]. Valid in any position with every
/// subcommand; if given more than once the last occurrence wins.
pub fn apply_global_threads(args: &[String]) -> Result<Vec<String>, UsageError> {
    let mut rest = args.to_vec();
    while let Some(i) = rest.iter().position(|a| a == "--threads") {
        let Some(v) = rest.get(i + 1) else {
            return Err(UsageError("--threads requires a value".into()));
        };
        let n: usize = v
            .parse()
            .map_err(|_| UsageError(format!("invalid value for --threads: {v:?}")))?;
        rectpart_parallel::set_global_threads(n);
        rest.drain(i..=i + 1);
    }
    Ok(rest)
}

/// Process-wide Γ backend choice from `--gamma`; `u8::MAX` = flag not
/// given (fall back to the `RECTPART_GAMMA` env var, then `auto`).
static GAMMA_MODE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(u8::MAX);

fn gamma_mode_to_u8(mode: GammaMode) -> u8 {
    match mode {
        GammaMode::Dense => 0,
        GammaMode::Sparse => 1,
        GammaMode::Auto => 2,
    }
}

/// The Γ backend policy in effect: the `--gamma` flag if given, else the
/// `RECTPART_GAMMA` environment variable, else automatic selection.
pub fn gamma_mode() -> GammaMode {
    match GAMMA_MODE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => GammaMode::Dense,
        1 => GammaMode::Sparse,
        2 => GammaMode::Auto,
        _ => GammaMode::from_env().unwrap_or(GammaMode::Auto),
    }
}

/// Extracts the global `--gamma dense|sparse|auto` option, installs it
/// as the process-wide Γ backend policy, and returns the remaining
/// arguments for [`parse`]. Valid in any position with every
/// subcommand; if given more than once the last occurrence wins.
/// Without the flag, a set `RECTPART_GAMMA` that does not parse is a
/// usage error, so a typo cannot silently select the default backend.
pub fn apply_global_gamma(args: &[String]) -> Result<Vec<String>, UsageError> {
    let mut rest = args.to_vec();
    if !rest.iter().any(|a| a == "--gamma") {
        if let Some(v) = std::env::var_os("RECTPART_GAMMA") {
            if v.to_str().and_then(GammaMode::parse).is_none() {
                return Err(UsageError(format!(
                    "invalid value for RECTPART_GAMMA: {v:?} (dense|sparse|auto)"
                )));
            }
        }
    }
    while let Some(i) = rest.iter().position(|a| a == "--gamma") {
        let Some(v) = rest.get(i + 1) else {
            return Err(UsageError(
                "--gamma requires a value (dense|sparse|auto)".into(),
            ));
        };
        let mode = GammaMode::parse(v).ok_or_else(|| {
            UsageError(format!(
                "invalid value for --gamma: {v:?} (dense|sparse|auto)"
            ))
        })?;
        GAMMA_MODE.store(gamma_mode_to_u8(mode), std::sync::atomic::Ordering::Relaxed);
        rest.drain(i..=i + 1);
    }
    Ok(rest)
}

/// Parses a full argument vector (excluding the binary name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "algos" => Ok(Command::Algos),
        "generate" => Ok(Command::Generate {
            class: require(flag(args, "--class").map(str::to_string), "--class")?,
            rows: require(parse_flag(args, "--rows")?, "--rows")?,
            cols: require(parse_flag(args, "--cols")?, "--cols")?,
            seed: parse_flag(args, "--seed")?.unwrap_or(0),
            delta: parse_flag(args, "--delta")?.unwrap_or(1.2),
            out: require(flag(args, "--out").map(PathBuf::from), "--out")?,
        }),
        "partition" => Ok(Command::Partition {
            input: require(flag(args, "--input").map(PathBuf::from), "--input")?,
            algo: flag(args, "--algo")
                .unwrap_or("JAG-M-HEUR-BEST")
                .to_string(),
            m: require(parse_flag(args, "-m")?, "-m")?,
            owners: flag(args, "--owners").map(PathBuf::from),
            save: flag(args, "--save").map(PathBuf::from),
            stats: optional_value_flag(args, "--stats"),
            trace: trace_out_flag(args)?,
            budget: parse_flag(args, "--budget")?,
            fallback: optional_value_flag(args, "--fallback"),
            checkpoint: flag(args, "--checkpoint").map(PathBuf::from),
            checkpoint_interval: parse_flag(args, "--checkpoint-interval")?,
            resume: flag(args, "--resume").map(PathBuf::from),
        }),
        "evaluate" => Ok(Command::Evaluate {
            input: require(flag(args, "--input").map(PathBuf::from), "--input")?,
            algo: flag(args, "--algo")
                .unwrap_or("JAG-M-HEUR-BEST")
                .to_string(),
            m: require(parse_flag(args, "-m")?, "-m")?,
            stats: optional_value_flag(args, "--stats"),
            trace: trace_out_flag(args)?,
        }),
        "serve" => Ok(Command::Serve {
            input: require(flag(args, "--input").map(PathBuf::from), "--input")?,
            queries: require(flag(args, "--queries").map(PathBuf::from), "--queries")?,
            out: flag(args, "--out").map(PathBuf::from),
            rebalance_threshold: parse_flag(args, "--rebalance-threshold")?,
            budget: parse_flag(args, "--budget")?,
            stats: optional_value_flag(args, "--stats"),
            trace: trace_out_flag(args)?,
        }),
        other => Err(UsageError(format!("unknown subcommand {other:?}"))),
    }
}

/// Resolves where the stats report should go: the `--stats` flag wins,
/// otherwise the `RECTPART_STATS` environment variable (non-empty) is
/// honoured so instrumented runs need no command-line changes.
fn stats_target(cli: Option<String>) -> Option<String> {
    cli.or_else(|| {
        std::env::var("RECTPART_STATS")
            .ok()
            .filter(|s| !s.is_empty())
    })
}

/// `--trace-out FILE` — unlike `--stats` the value is mandatory (traces
/// are too large for stdout).
fn trace_out_flag(args: &[String]) -> Result<Option<String>, UsageError> {
    match args.iter().position(|a| a == "--trace-out") {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with('-') => Ok(Some(v.to_string())),
            _ => Err(UsageError("--trace-out requires a FILE value".into())),
        },
    }
}

/// Resolves where the span trace should go: the `--trace-out` flag wins,
/// otherwise the `RECTPART_TRACE` environment variable (non-empty).
fn trace_target(cli: Option<String>) -> Option<String> {
    cli.or_else(|| {
        std::env::var("RECTPART_TRACE")
            .ok()
            .filter(|s| !s.is_empty())
    })
}

/// Writes the span trace to `target` and appends a pointer line: the
/// collapsed-stack text format when the filename ends in `.folded`
/// (ready for `flamegraph.pl` / speedscope), Chrome trace-event JSON
/// otherwise (load via Perfetto or `chrome://tracing`).
fn emit_trace(out: &mut String, target: &str) -> Result<(), std::io::Error> {
    let text = if target.ends_with(".folded") {
        rectpart_obs::flame::collapsed()
    } else {
        rectpart_obs::chrome::trace_json().to_string_pretty()
    };
    std::fs::write(target, text)?;
    out.push_str(&format!("\n  trace         -> {target}"));
    Ok(())
}

/// Builds the stats block: solution summary, the execution environment
/// (Γ policy and the backend it actually selected, host core count),
/// plus the recorder report.
/// The resident-engine block of the stats report. Batch commands
/// (`partition`, `evaluate`) never touch the engine, so theirs reports
/// zeros; `serve` reports the engine's real tallies.
fn engine_stats_json(s: &EngineStats) -> rectpart_json::Json {
    use rectpart_json::Json;
    Json::obj(vec![
        ("queries", Json::UInt(s.queries)),
        ("warm_hits", Json::UInt(s.warm_hits)),
        ("delta_rows_patched", Json::UInt(s.delta_rows_patched)),
    ])
}

fn stats_json(
    algo: &str,
    m: usize,
    summary: &rectpart_core::Summary,
    pfx: &PrefixSum2D,
    budget: Option<u64>,
    degradation: Option<&rectpart_robust::DegradationReport>,
) -> rectpart_json::Json {
    use rectpart_json::Json;
    let report = rectpart_obs::Recorder::global().snapshot();
    // Driver runs expose their budget and the fallback ladder they
    // walked (rung names in ladder order); direct solves report null.
    let fallback = match degradation {
        Some(rep) => Json::Arr(
            rep.rungs
                .iter()
                .map(|r| Json::Str(r.name.clone()))
                .collect(),
        ),
        None => Json::Null,
    };
    Json::obj(vec![
        ("algorithm", Json::Str(algo.to_string())),
        ("m", Json::UInt(m as u64)),
        ("budget", budget.map(Json::UInt).unwrap_or(Json::Null)),
        ("fallback", fallback),
        ("gamma_mode", Json::Str(gamma_mode().as_str().to_string())),
        (
            "gamma_backend",
            Json::Str(pfx.backend().as_str().to_string()),
        ),
        (
            "host_cores",
            Json::UInt(rectpart_parallel::host_cores() as u64),
        ),
        (
            "summary",
            Json::obj(vec![
                ("lmax", Json::UInt(summary.lmax)),
                ("lavg", Json::Float(summary.lavg)),
                ("imbalance", Json::Float(summary.imbalance)),
                ("rect_count", Json::UInt(summary.rect_count as u64)),
            ]),
        ),
        ("engine", engine_stats_json(&EngineStats::default())),
        ("stats", report.to_json()),
    ])
}

/// Builds the `serve` stats block: execution environment, the resident
/// engine's tallies, and the recorder report.
fn serve_stats_json(pfx: &PrefixSum2D, engine: &EngineStats) -> rectpart_json::Json {
    use rectpart_json::Json;
    let report = rectpart_obs::Recorder::global().snapshot();
    Json::obj(vec![
        ("mode", Json::Str("serve".to_string())),
        ("gamma_mode", Json::Str(gamma_mode().as_str().to_string())),
        (
            "gamma_backend",
            Json::Str(pfx.backend().as_str().to_string()),
        ),
        (
            "host_cores",
            Json::UInt(rectpart_parallel::host_cores() as u64),
        ),
        ("engine", engine_stats_json(engine)),
        ("stats", report.to_json()),
    ])
}

/// Appends the stats block to the report text (`"-"`) or writes it to a
/// file and appends a pointer line.
fn emit_stats(
    out: &mut String,
    target: &str,
    json: &rectpart_json::Json,
) -> Result<(), std::io::Error> {
    let text = json.to_string_pretty();
    if target == "-" {
        out.push_str("\nstats:\n");
        out.push_str(&text);
    } else {
        std::fs::write(target, text)?;
        out.push_str(&format!("\n  stats         -> {target}"));
    }
    Ok(())
}

/// Generates an instance of the named class.
pub fn generate_matrix(
    class: &str,
    rows: usize,
    cols: usize,
    seed: u64,
    delta: f64,
) -> Result<LoadMatrix, UsageError> {
    match class {
        "uniform" => Ok(uniform(rows, cols, seed).delta(delta).build()),
        "diagonal" => Ok(diagonal(rows, cols, seed).build()),
        "peak" => Ok(peak(rows, cols, seed).build()),
        "multi-peak" => Ok(multi_peak(rows, cols, seed).build()),
        "mesh" => Ok(slac_like()),
        other => Err(UsageError(format!(
            "unknown class {other:?} (uniform, diagonal, peak, multi-peak, mesh)"
        ))),
    }
}

/// Parses a serve-mode request batch.
///
/// The file is a JSON object with a `queries` array; each element is
/// either a solve —
/// `{"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 8}` with optional
/// `"region": [r0, r1, c0, c1]` (half-open), `"budget": N` and
/// `"fallback": ["A", "B"]` — or a delta:
/// `{"op": "delta", "rows": [{"row": 3, "cells": [..]}, ..]}`. A
/// missing `op` means solve.
pub fn parse_serve_requests(text: &str) -> Result<Vec<Request>, String> {
    use rectpart_json::Json;
    let json = rectpart_json::parse(text).map_err(|e| e.to_string())?;
    let queries = json
        .get("queries")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing \"queries\" array".to_string())?;
    let mut requests = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let op = match q.get("op") {
            None => "solve",
            Some(v) => v
                .as_str()
                .ok_or_else(|| format!("query {i}: \"op\" must be a string"))?,
        };
        match op {
            "solve" => {
                let algorithm = q
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("query {i}: missing \"algo\""))?
                    .to_string();
                let m = q
                    .get("m")
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("query {i}: missing \"m\""))?;
                let region = match q.get("region") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let bounds: Vec<usize> = v
                            .as_array()
                            .map(|a| a.iter().filter_map(Json::as_usize).collect())
                            .unwrap_or_default();
                        match bounds.as_slice() {
                            [r0, r1, c0, c1] => Some(Rect {
                                r0: *r0,
                                r1: *r1,
                                c0: *c0,
                                c1: *c1,
                            }),
                            _ => {
                                return Err(format!(
                                    "query {i}: \"region\" must be [r0, r1, c0, c1]"
                                ))
                            }
                        }
                    }
                };
                let budget = q.get("budget").and_then(Json::as_u64);
                let fallback = match q.get("fallback") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(v) => v
                        .as_array()
                        .ok_or_else(|| format!("query {i}: \"fallback\" must be an array"))?
                        .iter()
                        .map(|s| {
                            s.as_str().map(str::to_string).ok_or_else(|| {
                                format!("query {i}: \"fallback\" entries must be strings")
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                requests.push(Request::Solve(Query {
                    algorithm,
                    m,
                    region,
                    budget,
                    fallback,
                }));
            }
            "delta" => {
                let rows = q
                    .get("rows")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("query {i}: delta needs a \"rows\" array"))?;
                let mut updates = Vec::with_capacity(rows.len());
                for (j, entry) in rows.iter().enumerate() {
                    let row = entry
                        .get("row")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| format!("query {i} row {j}: missing \"row\""))?;
                    let cells = entry
                        .get("cells")
                        .and_then(Json::as_array)
                        .ok_or_else(|| format!("query {i} row {j}: missing \"cells\""))?
                        .iter()
                        .map(|c| {
                            c.as_u64()
                                .and_then(|v| u32::try_from(v).ok())
                                .ok_or_else(|| {
                                    format!("query {i} row {j}: cells must be u32 integers")
                                })
                        })
                        .collect::<Result<Vec<u32>, _>>()?;
                    updates.push(RowUpdate { row, cells });
                }
                requests.push(Request::Delta(updates));
            }
            other => return Err(format!("query {i}: unknown op {other:?}")),
        }
    }
    Ok(requests)
}

/// Builds the fallback ladder for a driver run: an explicit
/// `--fallback a,b,c` list wins; otherwise the requested algorithm
/// followed by the default ladder (minus duplicates), so `--budget`
/// alone still tries the user's algorithm first.
fn ladder_from(algo: &str, fallback: Option<&str>) -> Vec<String> {
    match fallback {
        Some(spec) if spec != "-" => spec
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        _ => {
            let mut ladder = vec![algo.to_string()];
            for name in DEFAULT_LADDER {
                if !ladder.iter().any(|l| l.eq_ignore_ascii_case(name)) {
                    ladder.push(name.to_string());
                }
            }
            ladder
        }
    }
}

/// Executes a parsed command; returns the text to print.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::Algos => Ok(algorithm_names().join("\n")),
        Command::Generate {
            class,
            rows,
            cols,
            seed,
            delta,
            out,
        } => {
            let m = generate_matrix(&class, rows, cols, seed, delta)?;
            write_csv(&m, &out)?;
            Ok(format!(
                "wrote {}x{} {class} instance (total load {}) to {}",
                m.rows(),
                m.cols(),
                m.total(),
                out.display()
            ))
        }
        Command::Partition {
            input,
            algo,
            m,
            owners,
            save,
            stats,
            trace,
            budget,
            fallback,
            checkpoint,
            checkpoint_interval,
            resume,
        } => {
            let stats_dst = stats_target(stats);
            let trace_dst = trace_target(trace);
            // Reset only when a report was requested, so unrelated runs
            // in the same process cannot wipe an in-flight recording.
            if stats_dst.is_some() || trace_dst.is_some() {
                rectpart_obs::Recorder::global().reset();
            }
            let matrix = {
                let _io = rectpart_obs::phase(rectpart_obs::Phase::Io);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliIo);
                read_csv(&input)?
            };
            RectpartError::check_problem(matrix.rows(), matrix.cols(), m)?;
            let pfx = PrefixSum2D::try_new_with(&matrix, gamma_mode())?;
            let driver_run =
                budget.is_some() || fallback.is_some() || checkpoint.is_some() || resume.is_some();
            let (part, degradation, sink) = if driver_run {
                // Fault-tolerant path: walk the fallback ladder under
                // the (optional) deterministic work budget, snapshotting
                // rung-boundary progress when a checkpoint file is
                // named. A resumed run takes its ladder and budget from
                // the snapshot, not from the command line.
                let mut driver =
                    SolverDriver::new().with_ladder(ladder_from(&algo, fallback.as_deref()));
                if let Some(units) = budget {
                    driver = driver.with_budget(units);
                }
                let mut sink = checkpoint.as_ref().map(|path| {
                    rectpart_resume::FileCheckpointer::new(path, checkpoint_interval.unwrap_or(0))
                });
                let _p = rectpart_obs::phase(rectpart_obs::Phase::Partition);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliPartition);
                let outcome = match (&resume, &mut sink) {
                    (Some(snap), Some(s)) => {
                        let progress = rectpart_resume::load_snapshot(snap)?;
                        driver.resume_checkpointed(&progress, &matrix, m, s)?
                    }
                    (Some(snap), None) => {
                        let progress = rectpart_resume::load_snapshot(snap)?;
                        driver.resume_from(&progress, &matrix, m)?
                    }
                    (None, Some(s)) => driver.try_solve_checkpointed(&matrix, m, s)?,
                    (None, None) => driver.try_solve(&matrix, m)?,
                };
                (outcome.partition, Some(outcome.report), sink)
            } else {
                let algorithm = algorithm_by_name(&algo).ok_or_else(|| {
                    UsageError(format!("unknown algorithm {algo:?}; see `rectpart algos`"))
                })?;
                let part = {
                    let _p = rectpart_obs::phase(rectpart_obs::Phase::Partition);
                    let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliPartition);
                    algorithm.partition(&pfx, m)
                };
                {
                    let _v = rectpart_obs::phase(rectpart_obs::Phase::Validate);
                    let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliValidate);
                    part.validate(&pfx)?;
                }
                (part, None, None)
            };
            let algo = degradation
                .as_ref()
                .and_then(|r| r.answered_by.clone())
                .unwrap_or(algo);
            let summary = part.summary(&pfx);
            let detail = PartitionStats::compute(&pfx, &part);
            let mut out = format!(
                "{algo} on {}x{} with m={m}:\n  Lmax          = {}\n  lower bound   = {}\n  avg load      = {:.1}\n  imbalance     = {:.4}\n  active parts  = {}\n  loads         = {}..{} (sd {:.1})\n  max aspect    = {:.2}\n  perimeter     = {}",
                matrix.rows(),
                matrix.cols(),
                summary.lmax,
                pfx.lower_bound(m),
                summary.lavg,
                summary.imbalance,
                summary.rect_count,
                detail.lmin,
                detail.lmax,
                detail.stddev,
                detail.max_aspect,
                detail.total_perimeter,
            );
            if let Some(path) = owners {
                let owner_matrix = LoadMatrix::from_vec(
                    matrix.rows(),
                    matrix.cols(),
                    part.owner_map(matrix.rows(), matrix.cols()),
                );
                write_csv(&owner_matrix, &path)?;
                out.push_str(&format!("\n  owners        -> {}", path.display()));
            }
            if let Some(path) = save {
                std::fs::write(&path, rectpart_json::to_string_pretty(&part))?;
                out.push_str(&format!("\n  partition     -> {}", path.display()));
            }
            if let Some(s) = &sink {
                out.push_str(&format!(
                    "\n  checkpoint    -> {} ({} snapshots)",
                    s.path().display(),
                    s.writes()
                ));
                if let Some(e) = s.last_error() {
                    out.push_str(&format!("\n  warning: last snapshot write failed: {e}"));
                }
            }
            if let Some(report) = &degradation {
                out.push_str("\nfallback:\n");
                out.push_str(&report.to_string());
            }
            if let Some(dst) = stats_dst {
                // A resumed run's budget lives in the snapshot; the
                // degradation report carries the authoritative value.
                let effective_budget = degradation.as_ref().and_then(|r| r.budget).or(budget);
                emit_stats(
                    &mut out,
                    &dst,
                    &stats_json(
                        &algo,
                        m,
                        &summary,
                        &pfx,
                        effective_budget,
                        degradation.as_ref(),
                    ),
                )?;
            }
            if let Some(dst) = trace_dst {
                emit_trace(&mut out, &dst)?;
            }
            Ok(out)
        }
        Command::Evaluate {
            input,
            algo,
            m,
            stats,
            trace,
        } => {
            let stats_dst = stats_target(stats);
            let trace_dst = trace_target(trace);
            // Reset only when a report was requested, so unrelated runs
            // in the same process cannot wipe an in-flight recording.
            if stats_dst.is_some() || trace_dst.is_some() {
                rectpart_obs::Recorder::global().reset();
            }
            let matrix = {
                let _io = rectpart_obs::phase(rectpart_obs::Phase::Io);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliIo);
                read_csv(&input)?
            };
            RectpartError::check_problem(matrix.rows(), matrix.cols(), m)?;
            let pfx = PrefixSum2D::try_new_with(&matrix, gamma_mode())?;
            let algorithm = algorithm_by_name(&algo).ok_or_else(|| {
                UsageError(format!("unknown algorithm {algo:?}; see `rectpart algos`"))
            })?;
            let part = {
                let _p = rectpart_obs::phase(rectpart_obs::Phase::Partition);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliPartition);
                algorithm.partition(&pfx, m)
            };
            {
                let _v = rectpart_obs::phase(rectpart_obs::Phase::Validate);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliValidate);
                part.validate(&pfx)?;
            }
            let summary = part.summary(&pfx);
            let rep = Simulator::new(CommModel::default()).evaluate(&pfx, &part);
            let mut out = format!(
                "{algo} on {}x{} with m={m}:\n  imbalance     = {:.4}\n  makespan      = {:.1}\n  halo volume   = {}\n  max neighbors = {}\n  speedup       = {:.2}\n  efficiency    = {:.1}%",
                matrix.rows(),
                matrix.cols(),
                summary.imbalance,
                rep.makespan,
                rep.comm_volume_total,
                rep.max_neighbors,
                rep.speedup,
                100.0 * rep.efficiency,
            );
            if let Some(dst) = stats_dst {
                emit_stats(
                    &mut out,
                    &dst,
                    &stats_json(&algo, m, &summary, &pfx, None, None),
                )?;
            }
            if let Some(dst) = trace_dst {
                emit_trace(&mut out, &dst)?;
            }
            Ok(out)
        }
        Command::Serve {
            input,
            queries,
            out,
            rebalance_threshold,
            budget,
            stats,
            trace,
        } => {
            use rectpart_json::Json;
            let stats_dst = stats_target(stats);
            let trace_dst = trace_target(trace);
            // Reset only when a report was requested, so unrelated runs
            // in the same process cannot wipe an in-flight recording.
            if stats_dst.is_some() || trace_dst.is_some() {
                rectpart_obs::Recorder::global().reset();
            }
            let (matrix, requests) = {
                let _io = rectpart_obs::phase(rectpart_obs::Phase::Io);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliIo);
                let matrix = read_csv(&input)?;
                let text = std::fs::read_to_string(&queries)?;
                let requests = parse_serve_requests(&text)
                    .map_err(|e| CliError::Input(format!("{}: {e}", queries.display())))?;
                (matrix, requests)
            };
            let cfg = EngineConfig {
                gamma_mode: gamma_mode(),
                rebalance: match rebalance_threshold {
                    Some(t) => RebalancePolicy::Threshold(t),
                    None => RebalancePolicy::EverySnapshot,
                },
                budget,
            };
            let request_count = requests.len();
            let mut engine = Engine::with_config(matrix, cfg)?;
            let mut text = format!(
                "serving {} requests on {}x{} (Γ resident, backend {})",
                request_count,
                engine.matrix().rows(),
                engine.matrix().cols(),
                engine.prefix().backend().as_str(),
            );
            let mut results = Vec::with_capacity(request_count);
            {
                let _p = rectpart_obs::phase(rectpart_obs::Phase::Partition);
                let _s = rectpart_obs::span::enter(rectpart_obs::span::SpanKind::CliPartition);
                for (i, req) in requests.iter().enumerate() {
                    match req {
                        Request::Solve(q) => {
                            let got =
                                engine
                                    .solve(q)
                                    .map_err(CliError::from)
                                    .map_err(|e| match e {
                                        CliError::Input(m) => {
                                            CliError::Input(format!("request {i}: {m}"))
                                        }
                                        other => other,
                                    })?;
                            let lmax = got.partition.lmax(engine.prefix());
                            text.push_str(&format!(
                                "\n  [{i}] solve {} m={}{}: Lmax={lmax}{}",
                                got.answered_by,
                                q.m,
                                match q.region {
                                    Some(r) =>
                                        format!(" region={}..{}x{}..{}", r.r0, r.r1, r.c0, r.c1),
                                    None => String::new(),
                                },
                                if got.warm_hit { " (warm)" } else { "" },
                            ));
                            results.push(Json::obj(vec![
                                ("op", Json::Str("solve".to_string())),
                                ("algorithm", Json::Str(q.algorithm.clone())),
                                ("answered_by", Json::Str(got.answered_by.clone())),
                                ("m", Json::UInt(q.m as u64)),
                                ("warm_hit", Json::Bool(got.warm_hit)),
                                ("lmax", Json::UInt(lmax)),
                                (
                                    "rects",
                                    Json::Arr(
                                        got.partition
                                            .rects()
                                            .iter()
                                            .map(|r| {
                                                Json::Arr(vec![
                                                    Json::UInt(r.r0 as u64),
                                                    Json::UInt(r.r1 as u64),
                                                    Json::UInt(r.c0 as u64),
                                                    Json::UInt(r.c1 as u64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]));
                        }
                        Request::Delta(rows) => {
                            let patched = engine
                                .apply_delta(rows)
                                .map_err(|e| CliError::Input(format!("request {i}: {e}")))?;
                            text.push_str(&format!("\n  [{i}] delta: {patched} rows patched"));
                            results.push(Json::obj(vec![
                                ("op", Json::Str("delta".to_string())),
                                ("rows_patched", Json::UInt(patched)),
                            ]));
                        }
                    }
                }
            }
            let s = engine.stats();
            text.push_str(&format!(
                "\nengine: {} queries, {} warm hits, {} delta rows",
                s.queries, s.warm_hits, s.delta_rows_patched
            ));
            if let Some(path) = out {
                let json = Json::obj(vec![("results", Json::Arr(results))]);
                std::fs::write(&path, json.to_string_pretty())?;
                text.push_str(&format!("\n  results       -> {}", path.display()));
            }
            if let Some(dst) = stats_dst {
                emit_stats(&mut text, &dst, &serve_stats_json(engine.prefix(), &s))?;
            }
            if let Some(dst) = trace_dst {
                emit_trace(&mut text, &dst)?;
            }
            Ok(text)
        }
    }
}

/// The usage text.
pub fn usage() -> String {
    "rectpart — rectangle partitioning of spatially located computations (IPDPS 2011)

USAGE:
  rectpart generate --class <uniform|diagonal|peak|multi-peak|mesh>
                    --rows N --cols N [--seed S] [--delta D] --out FILE.csv
  rectpart partition --input FILE.csv -m N [--algo NAME] [--owners OUT.csv]
                     [--save PARTITION.json] [--stats [OUT.json]]
                     [--trace-out TRACE.json] [--budget UNITS]
                     [--fallback [A,B,...]] [--checkpoint SNAP]
                     [--checkpoint-interval UNITS] [--resume SNAP]
  rectpart evaluate  --input FILE.csv -m N [--algo NAME] [--stats [OUT.json]]
                     [--trace-out TRACE.json]
  rectpart serve     --input FILE.csv --queries BATCH.json [--out OUT.json]
                     [--rebalance-threshold T] [--budget UNITS]
                     [--stats [OUT.json]] [--trace-out TRACE.json]
  rectpart algos

GLOBAL OPTIONS:
  --threads N    worker threads for the parallel execution layer
                 (default: auto-detect; 1 = fully serial; results are
                 identical at any thread count)
  --gamma MODE   prefix-sum (Γ) backend: dense, sparse, or auto
                 (default: the RECTPART_GAMMA env var, else auto; an
                 invalid RECTPART_GAMMA is a usage error).
                 auto picks the CSR-like sparse backend when at least
                 75% of the load matrix is zero; every backend returns
                 bit-identical answers, so this only affects memory
                 and speed
  --stats [F]    emit a JSON stats block (solution summary + counters,
                 phase timers, cache statistics, convergence traces).
                 With no FILE (or FILE = -) the block is appended to
                 stdout output; otherwise it is written to FILE. The
                 RECTPART_STATS env var names a default destination.
                 Counters need a build with `--features obs`; without
                 it the block reports {\"enabled\": false}.
  --trace-out F  write the hierarchical span trace of the run to F:
                 Chrome trace-event JSON (open in Perfetto or
                 chrome://tracing), or collapsed stacks when F ends in
                 .folded (pipe to flamegraph.pl / speedscope). The
                 work-anchored span tree is bit-identical at any thread
                 count; needs a build with `--features obs`. The
                 RECTPART_TRACE env var names a default destination.
  --budget N     run through the fault-tolerant driver under a
                 deterministic work budget of N units (not wall-clock
                 time: the same budget admits the same algorithms on
                 every machine and at every thread count). Rungs whose
                 a-priori estimate exceeds the remaining budget are
                 skipped; the degradation report is printed after the
                 partition report.
  --fallback [L] run the fallback ladder through the fault-tolerant
                 driver. With no value: the requested --algo followed by
                 JAG-M-OPT-BEST,JAG-M-HEUR-BEST,RECT-UNIFORM. With a
                 value: a comma-separated algorithm list, tried in
                 order; a rung that panics or returns an invalid cover
                 demotes to the next.
  --checkpoint SNAP
                 write a checksummed progress snapshot to SNAP at every
                 fallback-ladder rung boundary (and on cancellation), so
                 an interrupted run can be continued with --resume.
                 Snapshots are written atomically (tmp file + rename);
                 implies the fault-tolerant driver path.
  --checkpoint-interval UNITS
                 downsample routine snapshots: write one only after at
                 least UNITS work units since the last (default 0 =
                 every rung boundary)
SERVE MODE:
  `serve` loads the matrix once, builds the Γ prefix sum once, and keeps
  a resident engine warm across the whole request batch: repeated
  queries are answered from a solution cache, matrix deltas patch Γ
  row-incrementally instead of rebuilding it, and re-solves after a
  delta run on the patched Γ — every answer is bit-identical to a
  cold solve on the then-current matrix. The batch
  file is a JSON object {\"queries\": [...]} whose entries are either
    {\"op\": \"solve\", \"algo\": NAME, \"m\": N}
      with optional \"region\": [r0, r1, c0, c1] (half-open bounds),
      \"budget\": UNITS and \"fallback\": [NAME, ...] (both route the
      query through the fault-tolerant driver), or
    {\"op\": \"delta\", \"rows\": [{\"row\": R, \"cells\": [..]}, ...]}
      which rewrites whole matrix rows.
  --rebalance-threshold T keeps serving a stale partition while its
  imbalance on the current matrix stays at or below T (the dynamic
  rebalance trigger of the BSP simulator); without it every delta forces
  a re-solve.

  --resume SNAP  continue an interrupted run from the snapshot at SNAP.
                 The ladder and budget recorded in the snapshot are
                 used (--algo/--fallback/--budget are ignored); the
                 resumed outcome is bit-identical to an uninterrupted
                 run. A torn or corrupt snapshot, or one taken for a
                 different instance, exits 5.

EXIT CODES:
  0  success
  1  internal error (an algorithm bug or environment failure)
  2  usage error (malformed command line)
  3  invalid input (unreadable/ragged CSV, empty matrix, infeasible m)
  4  work budget exhausted before any algorithm could run
  5  unusable snapshot (torn/corrupt --resume file, or an instance or
     ladder mismatch)
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv(
            "generate --class peak --rows 32 --cols 48 --seed 7 --out /tmp/x.csv",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                class: "peak".into(),
                rows: 32,
                cols: 48,
                seed: 7,
                delta: 1.2,
                out: PathBuf::from("/tmp/x.csv"),
            }
        );
    }

    #[test]
    fn parses_partition_with_defaults() {
        let cmd = parse(&argv("partition --input a.csv -m 16")).unwrap();
        assert_eq!(
            cmd,
            Command::Partition {
                input: PathBuf::from("a.csv"),
                algo: "JAG-M-HEUR-BEST".into(),
                m: 16,
                owners: None,
                save: None,
                stats: None,
                trace: None,
                budget: None,
                fallback: None,
                checkpoint: None,
                checkpoint_interval: None,
                resume: None,
            }
        );
    }

    #[test]
    fn parses_budget_and_fallback() {
        let Command::Partition {
            budget, fallback, ..
        } = parse(&argv(
            "partition --input a.csv -m 4 --budget 5000 --fallback JAG-M-HEUR-BEST,RECT-UNIFORM",
        ))
        .unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!(budget, Some(5000));
        assert_eq!(fallback, Some("JAG-M-HEUR-BEST,RECT-UNIFORM".into()));
        // Bare --fallback (value position held by another option)
        // selects the default ladder.
        let Command::Partition {
            budget, fallback, ..
        } = parse(&argv("partition --input a.csv --fallback -m 4")).unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!((budget, fallback), (None, Some("-".into())));
        assert!(parse(&argv("partition --input a.csv -m 4 --budget lots")).is_err());
    }

    #[test]
    fn parses_checkpoint_and_resume_flags() {
        let Command::Partition {
            checkpoint,
            checkpoint_interval,
            resume,
            ..
        } = parse(&argv(
            "partition --input a.csv -m 4 --checkpoint s.snap --checkpoint-interval 500 --resume old.snap",
        ))
        .unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!(checkpoint, Some(PathBuf::from("s.snap")));
        assert_eq!(checkpoint_interval, Some(500));
        assert_eq!(resume, Some(PathBuf::from("old.snap")));
        assert!(parse(&argv(
            "partition --input a.csv -m 4 --checkpoint-interval soon"
        ))
        .is_err());
    }

    #[test]
    fn checkpoint_then_resume_matches_direct_run() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-ckpt-{}.csv", std::process::id()));
        let snap = dir.join(format!("rectpart-cli-ckpt-{}.snap", std::process::id()));
        run(Command::Generate {
            class: "peak".into(),
            rows: 16,
            cols: 16,
            seed: 9,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        let base = |checkpoint: Option<PathBuf>, resume: Option<PathBuf>| Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint,
            checkpoint_interval: None,
            resume,
        };
        // --checkpoint alone selects the driver path and leaves a
        // loadable snapshot behind.
        let watched = run(base(Some(snap.clone()), None)).unwrap();
        assert!(watched.contains("checkpoint    ->"), "{watched}");
        assert!(watched.contains("fallback:"), "{watched}");
        assert!(snap.exists());
        rectpart_resume::load_snapshot(&snap).expect("checkpoint must be loadable");
        // Resuming from the final boundary snapshot reproduces the
        // uninterrupted answer (same Lmax line, same answering rung).
        let resumed = run(base(None, Some(snap.clone()))).unwrap();
        let lmax = |s: &str| {
            s.lines()
                .find(|l| l.contains("Lmax"))
                .map(str::to_string)
                .expect("report has an Lmax line")
        };
        assert_eq!(lmax(&resumed), lmax(&watched));
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn corrupt_resume_snapshot_exits_five() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-badsnap-{}.csv", std::process::id()));
        let snap = dir.join(format!("rectpart-cli-badsnap-{}.snap", std::process::id()));
        std::fs::write(&input, "1,2\n3,4\n").unwrap();
        std::fs::write(&snap, "definitely not a snapshot").unwrap();
        let err = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 2,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: Some(snap.clone()),
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("snapshot"), "{err}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&snap).ok();
    }

    #[test]
    fn stats_block_reports_budget_and_fallback_ladder() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-statsb-{}.csv", std::process::id()));
        run(Command::Generate {
            class: "peak".into(),
            rows: 12,
            cols: 12,
            seed: 4,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        let msg = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: Some("-".into()),
            trace: None,
            budget: Some(1_000_000),
            fallback: Some("-".into()),
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap();
        let (_, json_text) = msg.split_once("stats:\n").expect("stats block present");
        let json = rectpart_json::parse(json_text).unwrap();
        assert_eq!(json.get("budget").and_then(|j| j.as_u64()), Some(1_000_000));
        // Batch commands pin the resident-engine block at zero: the
        // schema is stable across modes, only `serve` accumulates.
        let engine = json.get("engine").expect("engine block present");
        for key in ["queries", "warm_hits", "delta_rows_patched"] {
            assert_eq!(
                engine.get(key).and_then(|j| j.as_u64()),
                Some(0),
                "engine.{key} must be pinned to 0 in batch mode"
            );
        }
        let rectpart_json::Json::Arr(ladder) = json.get("fallback").expect("fallback present")
        else {
            panic!("fallback must be an array of rung names");
        };
        let names: Vec<&str> = ladder.iter().filter_map(|j| j.as_str()).collect();
        assert_eq!(
            names,
            vec!["JAG-M-HEUR-BEST", "JAG-M-OPT-BEST", "RECT-UNIFORM"]
        );
        // A direct (non-driver) run reports null for both.
        let msg = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: Some("-".into()),
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap();
        let (_, json_text) = msg.split_once("stats:\n").expect("stats block present");
        let json = rectpart_json::parse(json_text).unwrap();
        assert!(matches!(
            json.get("budget"),
            Some(rectpart_json::Json::Null)
        ));
        assert!(matches!(
            json.get("fallback"),
            Some(rectpart_json::Json::Null)
        ));
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn ladder_construction_rules() {
        // --budget alone: the requested algorithm heads the default
        // ladder, duplicates removed.
        assert_eq!(
            ladder_from("JAG-M-OPT-BEST", None),
            vec!["JAG-M-OPT-BEST", "JAG-M-HEUR-BEST", "RECT-UNIFORM"]
        );
        assert_eq!(
            ladder_from("RECT-NICOL", Some("-")),
            vec![
                "RECT-NICOL",
                "JAG-M-OPT-BEST",
                "JAG-M-HEUR-BEST",
                "RECT-UNIFORM"
            ]
        );
        // Explicit list wins; whitespace and empty segments dropped.
        assert_eq!(ladder_from("X", Some("a, b ,,c")), vec!["a", "b", "c"]);
    }

    #[test]
    fn driver_path_prints_fallback_report_and_classifies_errors() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-driver-{}.csv", std::process::id()));
        run(Command::Generate {
            class: "peak".into(),
            rows: 12,
            cols: 12,
            seed: 2,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        let base = Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: Some(1_000_000),
            fallback: Some("-".into()),
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        };
        let msg = run(base).unwrap();
        assert!(msg.contains("fallback:"), "{msg}");
        assert!(msg.contains("answered"), "{msg}");
        // A budget too small for Γ construction exhausts: exit code 4.
        let err = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: Some(3),
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("budget"), "{err}");
        // Infeasible m is an input error: exit code 3 (driver or not).
        let err = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 0,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        // Missing input file is an input error too.
        let err = run(Command::Partition {
            input: dir.join("rectpart-definitely-missing.csv"),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn parses_stats_flag_variants() {
        // Bare flag → stdout sentinel.
        let Command::Partition { stats, .. } =
            parse(&argv("partition --input a.csv -m 4 --stats")).unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!(stats, Some("-".into()));
        // Explicit "-" and a following option both mean stdout.
        let Command::Partition { stats, .. } =
            parse(&argv("partition --input a.csv --stats - -m 4")).unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!(stats, Some("-".into()));
        let Command::Partition { stats, m, .. } =
            parse(&argv("partition --input a.csv --stats -m 4")).unwrap()
        else {
            panic!("expected partition");
        };
        assert_eq!((stats, m), (Some("-".into()), 4));
        // A filename is captured.
        let Command::Evaluate { stats, .. } =
            parse(&argv("evaluate --input a.csv -m 4 --stats s.json")).unwrap()
        else {
            panic!("expected evaluate");
        };
        assert_eq!(stats, Some("s.json".into()));
    }

    #[test]
    fn gamma_flag_is_extracted_anywhere_and_validated() {
        // Valid flag (any position, any case) is removed from the argv and
        // installed; the last occurrence wins. Sparse and dense backends
        // return bit-identical answers, so other tests running concurrently
        // under a temporarily different mode still pass.
        let rest =
            apply_global_gamma(&argv("partition --gamma SPARSE --input a.csv -m 4")).unwrap();
        assert_eq!(rest, argv("partition --input a.csv -m 4"));
        assert_eq!(gamma_mode(), GammaMode::Sparse);
        let rest = apply_global_gamma(&argv("--gamma sparse evaluate --gamma auto")).unwrap();
        assert_eq!(rest, argv("evaluate"));
        assert_eq!(gamma_mode(), GammaMode::Auto);
        assert!(apply_global_gamma(&argv("partition --gamma")).is_err());
        assert!(apply_global_gamma(&argv("--gamma fast partition")).is_err());
        // Restore the unset sentinel so the env-var fallback stays testable.
        GAMMA_MODE.store(u8::MAX, std::sync::atomic::Ordering::Relaxed);
    }

    #[test]
    fn rejects_missing_and_bad_options() {
        assert!(parse(&argv("generate --class peak --rows 2 --out x")).is_err());
        assert!(parse(&argv("partition --input a.csv -m nope")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("algos")).unwrap(), Command::Algos);
    }

    #[test]
    fn generate_matrix_classes() {
        for class in ["uniform", "diagonal", "peak", "multi-peak"] {
            let m = generate_matrix(class, 8, 8, 1, 1.5).unwrap();
            assert_eq!((m.rows(), m.cols()), (8, 8));
        }
        assert!(generate_matrix("nope", 8, 8, 1, 1.5).is_err());
    }

    #[test]
    fn end_to_end_generate_partition_evaluate() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-{}.csv", std::process::id()));
        let owners = dir.join(format!("rectpart-cli-owners-{}.csv", std::process::id()));
        let msg = run(Command::Generate {
            class: "multi-peak".into(),
            rows: 24,
            cols: 24,
            seed: 3,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        assert!(msg.contains("multi-peak"));
        let msg = run(Command::Partition {
            input: input.clone(),
            algo: "HIER-RELAXED-LOAD".into(),
            m: 9,
            owners: Some(owners.clone()),
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap();
        assert!(msg.contains("imbalance"));
        assert!(owners.exists());
        let msg = run(Command::Evaluate {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 9,
            stats: None,
            trace: None,
        })
        .unwrap();
        assert!(msg.contains("speedup"));
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&owners).ok();
    }

    #[test]
    fn save_writes_roundtrippable_partition_json() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-save-in-{}.csv", std::process::id()));
        let saved = dir.join(format!("rectpart-cli-save-{}.json", std::process::id()));
        run(Command::Generate {
            class: "peak".into(),
            rows: 16,
            cols: 16,
            seed: 1,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 4,
            owners: None,
            save: Some(saved.clone()),
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap();
        let json = std::fs::read_to_string(&saved).unwrap();
        let part: rectpart_core::Partition = rectpart_json::from_str(&json).unwrap();
        assert_eq!(part.parts(), 4);
        assert!(part.validate_dims(16, 16).is_ok());
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&saved).ok();
    }

    #[test]
    fn unknown_algorithm_is_reported() {
        let input =
            std::env::temp_dir().join(format!("rectpart-cli-unknown-{}.csv", std::process::id()));
        std::fs::write(&input, "1,2\n3,4\n").unwrap();
        let err = run(Command::Partition {
            input: input.clone(),
            algo: "NOT-AN-ALGO".into(),
            m: 2,
            owners: None,
            save: None,
            stats: None,
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"));
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn stats_block_is_emitted_to_stdout_and_file() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("rectpart-cli-stats-in-{}.csv", std::process::id()));
        let stats_file = dir.join(format!("rectpart-cli-stats-{}.json", std::process::id()));
        run(Command::Generate {
            class: "peak".into(),
            rows: 20,
            cols: 20,
            seed: 5,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        // Stdout sentinel: the block rides along in the report text.
        let msg = run(Command::Partition {
            input: input.clone(),
            algo: "JAG-M-HEUR-BEST".into(),
            m: 6,
            owners: None,
            save: None,
            stats: Some("-".into()),
            trace: None,
            budget: None,
            fallback: None,
            checkpoint: None,
            checkpoint_interval: None,
            resume: None,
        })
        .unwrap();
        let (_, json_text) = msg.split_once("stats:\n").expect("stats block present");
        let json = rectpart_json::parse(json_text).unwrap();
        assert_eq!(
            json.get("algorithm").and_then(|j| j.as_str()),
            Some("JAG-M-HEUR-BEST")
        );
        assert!(json.get("summary").and_then(|s| s.get("lmax")).is_some());
        assert!(
            json.get("engine").and_then(|e| e.get("queries")).is_some(),
            "engine block present in the stats schema"
        );
        let recorder = json.get("stats").expect("recorder report present");
        let enabled = recorder
            .get("enabled")
            .and_then(|j| j.as_bool())
            .expect("enabled flag");
        assert_eq!(enabled, cfg!(feature = "obs"));
        if enabled {
            // Acceptance floor: at least 10 distinct counters in the block.
            let counters = recorder.get("counters").expect("counters present");
            let rectpart_json::Json::Obj(pairs) = counters else {
                panic!("counters must be an object");
            };
            assert!(pairs.len() >= 10, "only {} counters", pairs.len());
        }
        // File destination: same block written to disk.
        let msg = run(Command::Evaluate {
            input: input.clone(),
            algo: "RECT-NICOL".into(),
            m: 6,
            stats: Some(stats_file.display().to_string()),
            trace: None,
        })
        .unwrap();
        assert!(msg.contains("stats         ->"));
        let json = rectpart_json::parse(&std::fs::read_to_string(&stats_file).unwrap()).unwrap();
        assert_eq!(
            json.get("algorithm").and_then(|j| j.as_str()),
            Some("RECT-NICOL")
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&stats_file).ok();
    }

    #[test]
    fn serve_parses_and_requires_its_flags() {
        let args: Vec<String> = [
            "serve",
            "--input",
            "m.csv",
            "--queries",
            "q.json",
            "--out",
            "r.json",
            "--rebalance-threshold",
            "0.25",
            "--budget",
            "500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            parse(&args).unwrap(),
            Command::Serve {
                input: PathBuf::from("m.csv"),
                queries: PathBuf::from("q.json"),
                out: Some(PathBuf::from("r.json")),
                rebalance_threshold: Some(0.25),
                budget: Some(500),
                stats: None,
                trace: None,
            }
        );
        let args: Vec<String> = ["serve", "--input", "m.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&args).is_err(), "--queries is required");
    }

    #[test]
    fn serve_request_file_parsing() {
        let good = r#"{"queries": [
            {"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 4},
            {"algo": "RECT-UNIFORM", "m": 2,
             "region": [0, 4, 0, 4], "budget": 100, "fallback": ["RECT-UNIFORM"]},
            {"op": "delta", "rows": [{"row": 1, "cells": [1, 2, 3, 4]}]}
        ]}"#;
        let reqs = parse_serve_requests(good).unwrap();
        assert_eq!(reqs.len(), 3);
        let Request::Solve(q) = &reqs[1] else {
            panic!("second request must be a solve");
        };
        assert_eq!(q.region, Some(Rect::new(0, 4, 0, 4)));
        assert_eq!(q.budget, Some(100));
        assert_eq!(q.fallback, vec!["RECT-UNIFORM".to_string()]);
        let Request::Delta(rows) = &reqs[2] else {
            panic!("third request must be a delta");
        };
        assert_eq!(rows[0].cells, vec![1, 2, 3, 4]);

        for bad in [
            "not json",
            r#"{"no_queries": []}"#,
            r#"{"queries": [{"op": "solve", "m": 4}]}"#,
            r#"{"queries": [{"op": "solve", "algo": "X"}]}"#,
            r#"{"queries": [{"op": "warp", "algo": "X", "m": 1}]}"#,
            r#"{"queries": [{"op": "solve", "algo": "X", "m": 1, "region": [1, 2]}]}"#,
            r#"{"queries": [{"op": "delta"}]}"#,
            r#"{"queries": [{"op": "delta", "rows": [{"row": 0, "cells": [4294967296]}]}]}"#,
        ] {
            assert!(parse_serve_requests(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn serve_end_to_end_with_results_and_stats() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let input = dir.join(format!("rectpart-cli-serve-{pid}.csv"));
        let queries = dir.join(format!("rectpart-cli-serve-{pid}.q.json"));
        let results = dir.join(format!("rectpart-cli-serve-{pid}.r.json"));
        run(Command::Generate {
            class: "peak".into(),
            rows: 16,
            cols: 16,
            seed: 6,
            delta: 1.2,
            out: input.clone(),
        })
        .unwrap();
        let delta_cells: Vec<String> = (0..16).map(|c| (c % 7).to_string()).collect();
        std::fs::write(
            &queries,
            format!(
                r#"{{"queries": [
                    {{"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 4}},
                    {{"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 4}},
                    {{"op": "delta", "rows": [{{"row": 2, "cells": [{cells}]}}]}},
                    {{"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 4}},
                    {{"op": "solve", "algo": "JAG-M-OPT-BEST", "m": 4,
                      "region": [0, 8, 0, 8]}}
                ]}}"#,
                cells = delta_cells.join(", ")
            ),
        )
        .unwrap();
        let msg = run(Command::Serve {
            input: input.clone(),
            queries: queries.clone(),
            out: Some(results.clone()),
            rebalance_threshold: None,
            budget: None,
            stats: Some("-".into()),
            trace: None,
        })
        .unwrap();
        assert!(msg.contains("serving 5 requests"), "{msg}");
        assert!(msg.contains("(warm)"), "repeat query served warm: {msg}");
        assert!(msg.contains("1 rows patched"), "{msg}");
        assert!(msg.contains("engine: 4 queries, 1 warm hits"), "{msg}");

        // The results file reports every request in order.
        let json = rectpart_json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
        let rectpart_json::Json::Arr(items) = json.get("results").expect("results") else {
            panic!("results must be an array");
        };
        assert_eq!(items.len(), 5);
        assert_eq!(
            items[1].get("warm_hit").and_then(|j| j.as_bool()),
            Some(true)
        );
        assert_eq!(
            items[3].get("warm_hit").and_then(|j| j.as_bool()),
            Some(false)
        );
        assert_eq!(
            items[2].get("rows_patched").and_then(|j| j.as_u64()),
            Some(1)
        );

        // The stats block reports the engine's real tallies.
        let (_, json_text) = msg.split_once("stats:\n").expect("stats block present");
        let stats = rectpart_json::parse(json_text).unwrap();
        assert_eq!(stats.get("mode").and_then(|j| j.as_str()), Some("serve"));
        let engine = stats.get("engine").expect("engine block");
        assert_eq!(engine.get("queries").and_then(|j| j.as_u64()), Some(4));
        assert_eq!(engine.get("warm_hits").and_then(|j| j.as_u64()), Some(1));
        assert_eq!(
            engine.get("delta_rows_patched").and_then(|j| j.as_u64()),
            Some(1)
        );

        // A warm re-solve after the delta matches a cold partition run
        // on the patched matrix (bit-identity at the CLI boundary).
        let matrix = read_csv(&input).unwrap();
        let mut patched = matrix.clone();
        let row: Vec<u32> = (0..16u32).map(|c| c % 7).collect();
        patched.data_mut()[2 * 16..3 * 16].copy_from_slice(&row);
        let pfx = PrefixSum2D::try_new(&patched).unwrap();
        use rectpart_core::Partitioner as _;
        let cold = rectpart_core::JagMOpt::default().partition(&pfx, 4);
        let got_rects: Vec<Vec<u64>> = match items[3].get("rects") {
            Some(rectpart_json::Json::Arr(rs)) => rs
                .iter()
                .map(|r| match r {
                    rectpart_json::Json::Arr(v) => v.iter().filter_map(|x| x.as_u64()).collect(),
                    _ => panic!("rect must be an array"),
                })
                .collect(),
            _ => panic!("rects must be an array"),
        };
        let want: Vec<Vec<u64>> = cold
            .rects()
            .iter()
            .map(|r| vec![r.r0 as u64, r.r1 as u64, r.c0 as u64, r.c1 as u64])
            .collect();
        assert_eq!(got_rects, want, "serve answer diverged from cold solve");

        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&queries).ok();
        std::fs::remove_file(&results).ok();
    }

    #[test]
    fn serve_maps_engine_errors_to_input_exit_code() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let input = dir.join(format!("rectpart-cli-serve-err-{pid}.csv"));
        let queries = dir.join(format!("rectpart-cli-serve-err-{pid}.q.json"));
        std::fs::write(&input, "1,2\n3,4\n").unwrap();
        std::fs::write(
            &queries,
            r#"{"queries": [{"op": "solve", "algo": "RECT-UNIFORM", "m": 1,
                "region": [0, 9, 0, 9]}]}"#,
        )
        .unwrap();
        let err = run(Command::Serve {
            input: input.clone(),
            queries: queries.clone(),
            out: None,
            rebalance_threshold: None,
            budget: None,
            stats: None,
            trace: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("region"), "{err}");
        // A malformed batch file is also an input error.
        std::fs::write(&queries, "{").unwrap();
        let err = run(Command::Serve {
            input: input.clone(),
            queries: queries.clone(),
            out: None,
            rebalance_threshold: None,
            budget: None,
            stats: None,
            trace: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&queries).ok();
    }
}
