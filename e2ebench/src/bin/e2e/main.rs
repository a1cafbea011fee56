//! End-to-end wall-clock benchmark of rectpart.
//!
//! ```text
//! e2e --workload NAME --seed S [--seconds N] [--out FILE] [--trace-dir DIR]
//! ```
//!
//! Builds the workload's inputs, orders its cases by the seed, then runs
//! it as a closed loop with one client on one thread:
//!
//! 1. set-up, three times: build the resident state (the engine, for
//!    `pic-serve`) and make one untimed warm-up pass over the case list;
//!    `setup_s` is the median;
//! 2. timed phase: whole passes over the case list, enough for about
//!    `--seconds` seconds and at least 100 requests. Every pass runs
//!    every case once, and the gated latency metrics are taken over each
//!    case's fastest timed run: each case weighs the same, and host
//!    contention, which only ever adds time, drops out. The `wall_*`
//!    metrics are taken over every timed request;
//! 3. checks on every answer (valid cover, Lmax at or above the lower
//!    bound, the same answer on every pass, class inclusion, warm engine
//!    answers equal to a cold engine's). A failed check counts toward
//!    `error_rate` and makes the exit code 1.
//!
//! Prints every metric as `name value unit` and writes the full report
//! as JSON to `--out`. `--trace-dir` needs the `obs` feature: it records
//! spans during the timed phase and writes a Chrome trace and a
//! per-layer table there.

mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rectpart_core::{GammaMode, LoadMatrix, Partition, PrefixSum2D};
use rectpart_e2ebench::stats;
use rectpart_engine::Engine;
use rectpart_json::Json;

use trace::Tracer;
use workloads::{OneShot, Serve, Workload};

/// Thread budget of every phase. One thread, not one per core: on a
/// small shared host a fork-join waits for the slower core, and two
/// threads on two cores doubled the run-to-run spread of every timing.
const THREADS: usize = 1;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed requests: five runs of every case on the 20-case
/// workloads, so that each case's fastest run is likely to have met a
/// quiet host.
const MIN_REQUESTS: usize = 100;
/// The timed phase stops after the pass that crosses this many seconds
/// even when fewer requests were made, so a pathological slowdown still
/// ends the run.
const MAX_TIMED_S: f64 = 120.0;
/// Engine steps after the timed phase whose answers are compared with a
/// cold engine's.
const COLD_CHECKS: usize = 8;
/// At most this many failure messages are kept in the report.
const MAX_MESSAGES: usize = 20;

/// Algorithms with a `core.solve.<ALGO>.p50_ms` metric.
const SOLVE_ALGOS: [&str; 8] = [
    "RECT-UNIFORM",
    "RECT-NICOL",
    "JAG-PQ-HEUR-BEST",
    "JAG-M-HEUR-BEST",
    "HIER-RB-LOAD",
    "HIER-RELAXED-LOAD",
    "JAG-PQ-OPT-BEST",
    "JAG-M-OPT-BEST",
];
/// Algorithms with an `engine.solve.<ALGO>.p50_ms` metric: the three
/// distinct queries of a `pic-serve` step.
const ENGINE_ALGOS: [&str; 3] = ["JAG-M-OPT-BEST", "JAG-PQ-OPT-BEST", "HIER-RB-LOAD"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds: f64 = 10.0;
        let mut out = None;
        let mut trace_dir = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if seconds.is_nan() || seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--out" => out = Some(PathBuf::from(value()?)),
                "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            out,
            trace_dir,
        })
    }
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Layers(Vec<(String, f64, &'static str)>);

impl Layers {
    fn push(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    let v = Json::obj(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// Failure tally of every checked request.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            eprintln!("check failed: {msg}");
            self.messages.push(msg);
        }
    }
}

/// What one workload run measured.
struct Run {
    setup_s: Vec<f64>,
    timed_ns: u64,
    passes: usize,
    requests: u64,
    /// Latencies of the timed requests, per case. Every pass runs every
    /// case once.
    case_latencies_ms: Vec<Vec<f64>>,
    imbalance_mean: f64,
    checks: Checks,
    /// Per-layer metrics the untraced build measures with the clock.
    layers: Layers,
    /// Per-case details for the report.
    cases: Vec<Json>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The fastest of a case's timed runs.
fn best(latencies_ms: &[f64]) -> Option<f64> {
    latencies_ms.iter().copied().reduce(f64::min)
}

/// Timed passes: enough for about `seconds` at the warm-up pace, and
/// enough for [`MIN_REQUESTS`].
fn plan_passes(seconds: f64, pass_s: f64, per_pass: usize) -> usize {
    let for_count = MIN_REQUESTS.div_ceil(per_pass.max(1));
    let for_time = (seconds / pass_s.max(1e-9)).round() as usize;
    for_count.max(for_time).max(1)
}

/// Lmax of an answer, which no valid partition can put below the lower
/// bound.
fn checked_lmax(p: &Partition, pfx: &PrefixSum2D, m: usize, what: &str) -> Result<u64, String> {
    let lmax = p.lmax(pfx);
    let lb = pfx.lower_bound(m);
    if lmax < lb {
        return Err(format!("{what}: Lmax {lmax} below the lower bound {lb}"));
    }
    Ok(lmax)
}

/// One timed one-shot request.
struct Sample {
    total: Duration,
    matrix: Duration,
    prefix: Duration,
    solve: Duration,
    validate: Duration,
    lmax: u64,
    imbalance: f64,
    sparse: bool,
    gamma_bytes: usize,
}

/// Load → Γ → solve → validate, the way a caller with its own buffer
/// uses the library.
fn one_shot_request(
    input: &LoadMatrix,
    case: &workloads::Case,
    what: &str,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let matrix = LoadMatrix::try_from_vec(input.rows(), input.cols(), input.data().to_vec())
        .map_err(|e| format!("{what}: load: {e}"))?;
    let t1 = Instant::now();
    let pfx = PrefixSum2D::try_new_with(&matrix, GammaMode::Auto)
        .map_err(|e| format!("{what}: prefix: {e}"))?;
    let t2 = Instant::now();
    let part = case
        .algo
        .try_partition(&pfx, case.m)
        .map_err(|e| format!("{what}: solve: {e}"))?;
    let t3 = Instant::now();
    let valid = part.validate(&pfx);
    let imbalance = part.load_imbalance(&pfx);
    let t4 = Instant::now();
    valid.map_err(|e| format!("{what}: invalid cover: {e:?}"))?;
    let lmax = checked_lmax(&part, &pfx, case.m, what)?;
    let (sparse, gamma_bytes) = (pfx.is_sparse(), pfx.gamma_bytes());
    drop((part, pfx, matrix));
    let t5 = Instant::now();
    tracer.record("request", request, t0, t5);
    tracer.record("matrix", request, t0, t1);
    tracer.record("prefix", request, t1, t2);
    tracer.record("solve", request, t2, t3);
    tracer.record("validate", request, t3, t4);
    Ok(Sample {
        total: t5 - t0,
        matrix: t1 - t0,
        prefix: t2 - t1,
        solve: t3 - t2,
        validate: t4 - t3,
        lmax,
        imbalance,
        sparse,
        gamma_bytes,
    })
}

fn run_one_shot(w: &OneShot, seconds: f64, tracer: &mut Tracer) -> Run {
    let mut checks = Checks::default();
    let n = w.cases.len();
    let labels: Vec<String> = w
        .cases
        .iter()
        .map(|c| {
            format!(
                "{} {} m={}",
                w.instances[c.instance].label, c.algorithm, c.m
            )
        })
        .collect();
    let mut reference: Vec<Option<Sample>> = (0..n).map(|_| None).collect();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let results: Vec<Result<Sample, String>> = w
            .cases
            .iter()
            .zip(&labels)
            .map(|(c, what)| one_shot_request(&w.instances[c.instance].matrix, c, what, tracer, 0))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        for (i, r) in results.into_iter().enumerate() {
            checks.attempt(r.and_then(|s| {
                same_lmax(reference[i].as_ref(), s.lmax, &labels[i])?;
                reference[i].get_or_insert(s);
                Ok(())
            }));
        }
    }
    for &(jag_m, jag_pq) in &w.inclusion {
        if let (Some(a), Some(b)) = (&reference[jag_m], &reference[jag_pq]) {
            if a.lmax > b.lmax {
                checks.fail(format!(
                    "{}: Lmax {} above JAG-PQ-OPT's {} breaks class inclusion",
                    labels[jag_m], a.lmax, b.lmax
                ));
            }
        }
    }

    let passes = plan_passes(seconds, p50(&setup_s), n);
    let mut samples: Vec<(usize, Sample)> = Vec::with_capacity(passes * n);
    let mut case_latencies_ms = vec![Vec::with_capacity(passes); n];
    tracer.begin_timed();
    let start = Instant::now();
    let mut done = 0;
    while done < passes && start.elapsed().as_secs_f64() < MAX_TIMED_S {
        for (i, c) in w.cases.iter().enumerate() {
            let request = samples.len() as u64 + 1;
            let input = &w.instances[c.instance].matrix;
            let r = one_shot_request(input, c, &labels[i], tracer, request);
            checks.attempt(r.and_then(|s| {
                let same = same_lmax(reference[i].as_ref(), s.lmax, &labels[i]);
                case_latencies_ms[i].push(ms(s.total));
                samples.push((i, s));
                same
            }));
        }
        done += 1;
    }
    let timed_ns = nanos(start.elapsed());
    tracer.end_timed();

    let imbalances: Vec<f64> = reference.iter().flatten().map(|s| s.imbalance).collect();
    let stage = |f: fn(&Sample) -> Duration| -> Vec<f64> {
        samples.iter().map(|(_, s)| ms(f(s))).collect()
    };
    let core = CoreStages {
        matrix_ms: stage(|s| s.matrix),
        prefix_ms: stage(|s| s.prefix),
        prefix_ns_per_cell: samples
            .iter()
            .map(|(i, s)| {
                let m = &w.instances[w.cases[*i].instance].matrix;
                s.prefix.as_nanos() as f64 / (m.rows() * m.cols()) as f64
            })
            .collect(),
        gamma_bytes: samples.iter().map(|(_, s)| s.gamma_bytes as f64).collect(),
        sparse: samples
            .iter()
            .map(|(_, s)| f64::from(u8::from(s.sparse)))
            .collect(),
        solve_ms: samples
            .iter()
            .map(|(i, s)| (w.cases[*i].algorithm.as_str(), ms(s.solve)))
            .collect(),
        validate_ms: stage(|s| s.validate),
    };
    let mut layers = Layers::default();
    core_layers(&mut layers, &core);
    engine_layers(&mut layers, &EngineStages::default());

    let cases = w
        .cases
        .iter()
        .zip(&reference)
        .zip(&case_latencies_ms)
        .map(|((c, r), latency)| {
            let mut fields = vec![
                ("instance", Json::Str(w.instances[c.instance].label.clone())),
                ("algorithm", Json::Str(c.algorithm.clone())),
                ("m", Json::UInt(c.m as u64)),
                ("best_ms", Json::Float(best(latency).unwrap_or(0.0))),
            ];
            if let Some(r) = r {
                let backend = if r.sparse { "sparse" } else { "dense" };
                fields.push(("gamma_backend", Json::Str(backend.into())));
                fields.push(("lmax", Json::UInt(r.lmax)));
                fields.push(("imbalance", Json::Float(r.imbalance)));
            }
            Json::obj(fields)
        })
        .collect();

    Run {
        setup_s,
        timed_ns,
        passes: done,
        requests: samples.len() as u64,
        case_latencies_ms,
        imbalance_mean: stats::mean(&imbalances).unwrap_or(0.0),
        checks,
        layers,
        cases,
    }
}

/// Checks an answer against its case's first one: every solver is
/// deterministic.
fn same_lmax(first: Option<&Sample>, lmax: u64, what: &str) -> Result<(), String> {
    match first {
        Some(r) if r.lmax != lmax => Err(format!(
            "{what}: Lmax {lmax} differs from the first warm-up's {}",
            r.lmax
        )),
        _ => Ok(()),
    }
}

/// Stage samples of the core pipeline. `pic-serve` loads its matrix
/// once, so only the Γ size and backend are set there.
#[derive(Default)]
struct CoreStages<'a> {
    matrix_ms: Vec<f64>,
    prefix_ms: Vec<f64>,
    prefix_ns_per_cell: Vec<f64>,
    gamma_bytes: Vec<f64>,
    sparse: Vec<f64>,
    /// (algorithm, solve time) per request.
    solve_ms: Vec<(&'a str, f64)>,
    validate_ms: Vec<f64>,
}

/// The `core.*` per-layer metrics; 0 where a stage has no samples.
fn core_layers(layers: &mut Layers, s: &CoreStages) {
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    layers.push("core.matrix.p50_ms".into(), p50(&s.matrix_ms), "ms");
    layers.push("core.prefix.build_p50_ms".into(), p50(&s.prefix_ms), "ms");
    layers.push(
        "core.prefix.ns_per_cell".into(),
        p50(&s.prefix_ns_per_cell),
        "ns",
    );
    layers.push("core.prefix.bytes".into(), mean(&s.gamma_bytes), "bytes");
    layers.push("core.prefix.sparse_share".into(), mean(&s.sparse), "ratio");
    let all: Vec<f64> = s.solve_ms.iter().map(|&(_, t)| t).collect();
    layers.push("core.solve.p50_ms".into(), p50(&all), "ms");
    for algo in SOLVE_ALGOS {
        let v: Vec<f64> = s
            .solve_ms
            .iter()
            .filter(|&&(a, _)| a == algo)
            .map(|&(_, t)| t)
            .collect();
        layers.push(format!("core.solve.{algo}.p50_ms"), p50(&v), "ms");
    }
    layers.push(
        "core.solution.validate_p50_ms".into(),
        p50(&s.validate_ms),
        "ms",
    );
}

/// Stage samples of the resident engine (`pic-serve` only).
#[derive(Default)]
struct EngineStages {
    delta_ms: Vec<f64>,
    /// Solve times of the first query of each of [`ENGINE_ALGOS`].
    query_ms: Vec<Vec<f64>>,
    rows_patched: Vec<f64>,
    probes_skipped_per_step: f64,
    cache_hit_ratio: f64,
}

/// The `engine.*` per-layer metrics; 0 on the one-shot workloads.
fn engine_layers(layers: &mut Layers, s: &EngineStages) {
    layers.push("engine.apply_delta.p50_ms".into(), p50(&s.delta_ms), "ms");
    let rows = stats::mean(&s.rows_patched).unwrap_or(0.0);
    layers.push("engine.rows_patched_per_delta".into(), rows, "count");
    for (i, algo) in ENGINE_ALGOS.iter().enumerate() {
        let v = s.query_ms.get(i).map_or(0.0, |q| p50(q));
        layers.push(format!("engine.solve.{algo}.p50_ms"), v, "ms");
    }
    layers.push(
        "engine.warm_start_probes_skipped_per_step".into(),
        s.probes_skipped_per_step,
        "count",
    );
    layers.push("engine.cache_hit_ratio".into(), s.cache_hit_ratio, "ratio");
}

/// Position in the there-and-back walk over a drift series.
struct Walk {
    at: usize,
    forward: bool,
    len: usize,
}

impl Walk {
    fn new(len: usize, start: usize) -> Walk {
        Walk {
            at: start,
            forward: true,
            len,
        }
    }

    /// Steps in one pass: there and back, every directed step once.
    fn pass_len(&self) -> usize {
        2 * (self.len - 1)
    }

    /// Moves one snapshot on, turning at either end. Returns
    /// (from, to, step index in 0..pass_len).
    fn advance(&mut self) -> (usize, usize, usize) {
        if (self.forward && self.at + 1 == self.len) || (!self.forward && self.at == 0) {
            self.forward = !self.forward;
        }
        let from = self.at;
        self.at = if self.forward { from + 1 } else { from - 1 };
        let step = if self.forward {
            from
        } else {
            self.len - 1 + self.at
        };
        (from, self.at, step)
    }
}

/// One engine step.
struct StepSample {
    step: usize,
    total: Duration,
    delta: Duration,
    queries: Vec<Duration>,
    rows: u64,
    imbalance: Vec<f64>,
}

/// One request of `pic-serve`: patch the engine to the next snapshot,
/// then answer every query of the step and check the answers.
fn serve_step(
    engine: &mut Engine,
    w: &Serve,
    walk: &mut Walk,
    tracer: &mut Tracer,
    request: u64,
) -> Result<StepSample, String> {
    let (from, to, step) = walk.advance();
    let delta = if to > from {
        &w.forward[from]
    } else {
        &w.backward[to]
    };
    let t0 = Instant::now();
    let rows = engine
        .apply_delta(delta)
        .map_err(|e| format!("apply_delta {from}->{to}: {e}"))?;
    let t1 = Instant::now();
    tracer.record("apply_delta", request, t0, t1);
    let mut queries = Vec::with_capacity(w.queries.len());
    let mut answers: Vec<Partition> = Vec::with_capacity(w.queries.len());
    let mut imbalance = Vec::new();
    let mut last = t1;
    for (i, q) in w.queries.iter().enumerate() {
        let what = format!("step {from}->{to} {} m={}", q.algorithm, q.m);
        let out = engine.solve(q).map_err(|e| format!("{what}: {e}"))?;
        out.partition
            .validate(engine.prefix())
            .map_err(|e| format!("{what}: invalid cover: {e:?}"))?;
        checked_lmax(&out.partition, engine.prefix(), q.m, &what)?;
        match w.queries[..i].iter().position(|p| p == q) {
            Some(first) if !out.warm_hit || out.partition != answers[first] => {
                return Err(format!("{what}: repeated query was not a cache hit"));
            }
            None if out.warm_hit => {
                return Err(format!("{what}: stale cache hit after a delta"));
            }
            None => imbalance.push(out.partition.load_imbalance(engine.prefix())),
            Some(_) => {}
        }
        answers.push(out.partition);
        let now = Instant::now();
        tracer.record("engine_solve", request, last, now);
        queries.push(now - last);
        last = now;
    }
    tracer.record("request", request, t0, last);
    if engine.matrix() != &w.snapshots[to] {
        return Err(format!(
            "step {from}->{to}: resident matrix differs from snapshot {to}"
        ));
    }
    Ok(StepSample {
        step,
        total: last - t0,
        delta: t1 - t0,
        queries,
        rows,
        imbalance,
    })
}

/// Compares the warm engine's answers with a cold engine built on its
/// current matrix.
fn cold_check(engine: &mut Engine, w: &Serve) -> Result<(), String> {
    let mut cold = Engine::new(engine.matrix().clone()).map_err(|e| format!("cold engine: {e}"))?;
    for q in &w.queries {
        let warm = engine.solve(q).map_err(|e| e.to_string())?;
        let fresh = cold.solve(q).map_err(|e| e.to_string())?;
        if warm.partition != fresh.partition {
            return Err(format!(
                "{} m={}: warm answer differs from a cold engine's",
                q.algorithm, q.m
            ));
        }
    }
    Ok(())
}

fn run_serve(w: &Serve, seconds: f64, tracer: &mut Tracer) -> Result<Run, String> {
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut imbalances = Vec::new();
    let mut resident = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        // The default configuration: `GammaMode::Auto`, re-solve after
        // every delta.
        let mut engine =
            Engine::new(w.snapshots[w.start].clone()).map_err(|e| format!("engine: {e}"))?;
        let mut walk = Walk::new(w.snapshots.len(), w.start);
        let results: Vec<_> = (0..walk.pass_len())
            .map(|_| serve_step(&mut engine, w, &mut walk, tracer, 0))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        for r in results {
            checks.attempt(r.map(|s| {
                if rep == 0 {
                    imbalances.extend(s.imbalance);
                }
            }));
        }
        resident = Some((engine, walk));
    }
    let (mut engine, mut walk) = resident.expect("at least one set-up repetition");

    let per_pass = walk.pass_len();
    let passes = plan_passes(seconds, p50(&setup_s), per_pass);
    let before = engine.stats();
    let mut samples: Vec<StepSample> = Vec::with_capacity(passes * per_pass);
    tracer.begin_timed();
    let start = Instant::now();
    let mut done = 0;
    while done < passes && start.elapsed().as_secs_f64() < MAX_TIMED_S {
        for _ in 0..per_pass {
            let request = samples.len() as u64 + 1;
            let r = serve_step(&mut engine, w, &mut walk, tracer, request);
            checks.attempt(r.map(|s| samples.push(s)));
        }
        done += 1;
    }
    let timed_ns = nanos(start.elapsed());
    tracer.end_timed();
    let after = engine.stats();

    for _ in 0..COLD_CHECKS {
        let r = serve_step(&mut engine, w, &mut walk, tracer, 0)
            .and_then(|_| cold_check(&mut engine, w));
        checks.attempt(r);
    }

    let mut case_latencies_ms = vec![Vec::with_capacity(done); per_pass];
    for s in &samples {
        case_latencies_ms[s.step].push(ms(s.total));
    }
    let mut layers = Layers::default();
    let pfx = engine.prefix();
    core_layers(
        &mut layers,
        &CoreStages {
            gamma_bytes: vec![pfx.gamma_bytes() as f64],
            sparse: vec![f64::from(u8::from(pfx.is_sparse()))],
            ..CoreStages::default()
        },
    );
    let steps = samples.len().max(1) as f64;
    let queries = (after.queries - before.queries).max(1) as f64;
    engine_layers(
        &mut layers,
        &EngineStages {
            delta_ms: samples.iter().map(|s| ms(s.delta)).collect(),
            query_ms: ENGINE_ALGOS
                .iter()
                .map(|&algo| {
                    let i = w.queries.iter().position(|q| q.algorithm == algo);
                    i.map_or_else(Vec::new, |i| {
                        samples.iter().map(|s| ms(s.queries[i])).collect()
                    })
                })
                .collect(),
            rows_patched: samples.iter().map(|s| s.rows as f64).collect(),
            probes_skipped_per_step: (after.warm_start_probes_skipped
                - before.warm_start_probes_skipped) as f64
                / steps,
            cache_hit_ratio: (after.warm_hits - before.warm_hits) as f64 / queries,
        },
    );

    let backend = if pfx.is_sparse() { "sparse" } else { "dense" };
    let cases = w
        .queries
        .iter()
        .map(|q| {
            Json::obj(vec![
                ("instance", Json::Str("pic-mag-drift-256".into())),
                ("algorithm", Json::Str(q.algorithm.clone())),
                ("m", Json::UInt(q.m as u64)),
                ("gamma_backend", Json::Str(backend.into())),
            ])
        })
        .collect();
    Ok(Run {
        setup_s,
        timed_ns,
        passes: done,
        requests: samples.len() as u64,
        case_latencies_ms,
        imbalance_mean: stats::mean(&imbalances).unwrap_or(0.0),
        checks,
        layers,
        cases,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let traced = args.trace_dir.is_some();
    if traced && !rectpart_obs::Recorder::global().enabled() {
        eprintln!("e2e: --trace-dir needs a build with --features obs");
        return ExitCode::from(2);
    }
    match run(&args, traced) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the workload and reports; `Ok(false)` when a check failed.
fn run(args: &Args, traced: bool) -> Result<bool, String> {
    let mut tracer = Tracer::new(traced);
    let host_cores = rectpart_parallel::host_cores();
    rectpart_parallel::with_threads(THREADS, || {
        let t = Instant::now();
        let workload = workloads::build(&args.workload, args.seed).ok_or_else(|| {
            format!(
                "unknown workload `{}` (expected one of {:?})",
                args.workload,
                workloads::NAMES
            )
        })?;
        let input_gen_s = t.elapsed().as_secs_f64();
        let run = match &workload {
            Workload::OneShot(w) => run_one_shot(w, args.seconds, &mut tracer),
            Workload::Serve(w) => run_serve(w, args.seconds, &mut tracer)?,
        };
        report(args, &run, &tracer, host_cores, input_gen_s)
    })
}

fn report(
    args: &Args,
    run: &Run,
    tracer: &Tracer,
    host_cores: usize,
    input_gen_s: f64,
) -> Result<bool, String> {
    let requests = run.requests;
    // The gated timings are taken over each case's fastest timed run:
    // host contention only ever adds time, and on a shared host it comes
    // in episodes of seconds that cover whole passes. Taken over every
    // timed request instead, the p90 and the throughput spread several
    // times as much between runs there. So a slowdown of only some
    // repetitions, or one that grows from pass to pass, shows only in
    // the `wall_*` metrics, which are reported but not gated.
    let best_ms: Vec<f64> = run
        .case_latencies_ms
        .iter()
        .filter_map(|v| best(v))
        .collect();
    let all_ms: Vec<f64> = run.case_latencies_ms.concat();
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(0.0);
    let mut metrics = Layers::default();
    metrics.push("latency_p50_ms".into(), pct(&best_ms, 50.0), "ms");
    metrics.push("latency_p90_ms".into(), pct(&best_ms, 90.0), "ms");
    let pass_ms: f64 = best_ms.iter().sum();
    metrics.push(
        "throughput_rps".into(),
        best_ms.len() as f64 / (pass_ms / 1e3),
        "1/s",
    );
    metrics.push("wall_latency_p90_ms".into(), pct(&all_ms, 90.0), "ms");
    metrics.push(
        "wall_throughput_rps".into(),
        requests as f64 / (run.timed_ns as f64 / 1e9),
        "1/s",
    );
    metrics.push("imbalance_mean".into(), run.imbalance_mean, "ratio");
    let c = &run.checks;
    metrics.push(
        "error_rate".into(),
        c.failed as f64 / c.attempted.max(1) as f64,
        "ratio",
    );
    metrics.push("setup_s".into(), p50(&run.setup_s), "s");
    metrics.push("peak_rss_mb".into(), peak_rss_mb()?, "MB");

    let mut layers = Layers(run.layers.0.clone());
    if let Some(dir) = &args.trace_dir {
        layers.0.extend(tracer.layers(requests).0);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let chrome = dir.join(format!("{stem}.trace.json"));
        tracer
            .write_chrome(&chrome)
            .map_err(|e| format!("{}: {e}", chrome.display()))?;
        let table: String = layers
            .0
            .iter()
            .map(|(name, value, unit)| format!("{name:<48} {value:>16.6} {unit}\n"))
            .collect();
        let path = dir.join(format!("{stem}.layers.txt"));
        std::fs::write(&path, &table).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} and {}", chrome.display(), path.display());
    }

    for (name, value, unit) in metrics.0.iter().chain(&layers.0) {
        println!("{name} {value} {unit}");
    }
    let doc = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::UInt(args.seed)),
        ("traced", Json::Bool(args.trace_dir.is_some())),
        ("threads", Json::UInt(THREADS as u64)),
        ("host_cores", Json::UInt(host_cores as u64)),
        ("seconds", Json::Float(args.seconds)),
        ("timed_s", Json::Float(run.timed_ns as f64 / 1e9)),
        ("passes", Json::UInt(run.passes as u64)),
        ("requests", Json::UInt(requests)),
        ("attempted", Json::UInt(c.attempted)),
        ("failed", Json::UInt(c.failed)),
        (
            "failures",
            Json::Arr(c.messages.iter().map(|m| Json::Str(m.clone())).collect()),
        ),
        ("input_gen_s", Json::Float(input_gen_s)),
        (
            "setup_s_reps",
            Json::Arr(run.setup_s.iter().map(|&s| Json::Float(s)).collect()),
        ),
        ("cases", Json::Arr(run.cases.clone())),
        (
            "case_latencies_ms",
            Json::Arr(
                run.case_latencies_ms
                    .iter()
                    .map(|v| Json::Arr(v.iter().map(|&t| Json::Float(t)).collect()))
                    .collect(),
            ),
        ),
        ("metrics", metrics.to_json()),
        ("layers", layers.to_json()),
    ]);
    if let Some(out) = &args.out {
        std::fs::write(out, doc.to_string_pretty())
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(c.failed == 0)
}
