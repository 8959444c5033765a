//! **Serving benchmark** — open-loop Poisson load against the batched
//! serving engine (`crates/serve`), cold-started from a saved artifact.
//!
//! For each weight-storage mode (FP8-stored codes vs fake-quant f32) the
//! harness:
//!
//! 1. quantizes the workload once and saves a `.ptq` artifact
//!    (`PtqSession::from_spec(...).save_artifact`),
//! 2. cold-loads it (`PtqArtifact::load` → `Engine::from_artifact`) so
//!    the engine serves exactly what a deployment would restore,
//! 3. self-calibrates a base service rate from a few direct runs, then
//!    drives the engine at ≥3 offered loads (0.5× / 1× / 2× the base
//!    rate) with an open-loop Poisson arrival process — arrivals do not
//!    wait for completions, so queueing is real, and
//! 4. reports throughput vs p50/p95/p99 tail latency per offered load,
//!    plus submitted/completed/rejected/shed accounting, as a Markdown
//!    table and `bench_results/serve.json`.
//!
//! Flags: the shared vocabulary (`--quick` `--limit` `--only-format`
//! `--spec <path.json>` `--trace <path>`) plus
//! `--duration-ms <N>` (measured window per load point, default 2000),
//! `--loads <a,b,c>` (explicit offered loads in requests/s, overriding
//! self-calibration) and `--deadline-ms <N>` (give every 4th request a
//! deadline; sheds appear in the table instead of inflating the tail).
//!
//! The engine's batched execution is bit-identical to unbatched runs
//! (pinned by `crates/serve/tests/concurrency.rs`), so this benchmark is
//! purely about scheduling: latency distributions and throughput, not
//! accuracy.

use ptq_bench::{save_json, CommonFlags, MdTable};
use ptq_core::workflow::paper_recipe;
use ptq_core::{Approach, DataFormat, EngineSpec, PtqArtifact, PtqSession, WeightStorage};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo, build_zoo_limited, Workload, ZooFilter};
use ptq_serve::Engine;
use ptq_tensor::rng::TensorRng;
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One (storage × offered-load) measurement.
#[derive(Serialize)]
struct Point {
    /// Weight storage under test: `fp8` or `fakequant-f32`.
    weights: String,
    /// Cold artifact load time for this engine (ms).
    artifact_load_ms: f64,
    /// Offered load of the Poisson generator (requests/s).
    offered_rps: f64,
    /// Measured window length (ms).
    duration_ms: f64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    failed: u64,
    /// Completed requests per second over the window.
    throughput_rps: f64,
    /// Mean requests per dispatched batch.
    mean_batch: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

#[derive(Serialize)]
struct Report {
    workload: String,
    format: String,
    /// Serving knobs the engine ran with.
    max_batch: usize,
    batch_window_us: usize,
    queue_capacity: usize,
    workers: usize,
    /// Self-calibrated single-request service time (ms, direct run).
    service_ms: f64,
    points: Vec<Point>,
}

fn fail(msg: &str) -> ! {
    eprintln!("serve_bench: {msg}");
    std::process::exit(1)
}

/// Parse `--loads 50,100,200` into offered rates.
fn parse_loads(args: &[String]) -> Option<Vec<f64>> {
    let raw = ptq_bench::flag_value(args, "--loads")?;
    let loads: Vec<f64> = raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .unwrap_or_else(|_| fail(&format!("bad --loads entry {s:?}")))
        })
        .collect();
    if loads.is_empty() {
        fail("--loads needs at least one rate");
    }
    Some(loads)
}

/// Drive one engine at one offered load for `duration`; returns the
/// measured point. Open loop: the generator sleeps Poisson gaps and
/// submits regardless of how far behind the engine is.
fn drive(
    engine: &Engine,
    w: &Workload,
    offered_rps: f64,
    duration: Duration,
    deadline: Option<Duration>,
    rng: &mut TensorRng,
) -> (u64, Vec<ptq_serve::Ticket>, f64) {
    let mut tickets = Vec::new();
    let mut submitted = 0u64;
    let t0 = Instant::now();
    let mut next_at = t0;
    let mut i = 0usize;
    while t0.elapsed() < duration {
        let now = Instant::now();
        if now < next_at {
            std::thread::sleep(next_at - now);
        }
        let sample = &w.eval[i % w.eval.len()];
        // Every 4th request carries the deadline budget (when given):
        // a mixed stream shows shedding without starving the tail stats.
        let budget = if i.is_multiple_of(4) { deadline } else { None };
        // On Err the request was rejected; that is counted engine-side.
        if let Ok(t) = engine.submit_with_deadline(sample.clone(), budget) {
            tickets.push(t);
            submitted += 1;
        }
        i += 1;
        // Poisson arrivals: exponential gaps at rate `offered_rps`.
        let u = rng.unit().clamp(1e-7, 1.0 - 1e-7) as f64;
        let gap_s = -(1.0 - u).ln() / offered_rps;
        next_at += Duration::from_secs_f64(gap_s);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (submitted, tickets, wall_ms)
}

fn main() {
    let flags = CommonFlags::parse();
    let trace = ptq_bench::tracing::init_from_args(&flags.args);
    let duration = Duration::from_millis(
        ptq_bench::flag_value(&flags.args, "--duration-ms")
            .map(|v| {
                v.parse::<u64>()
                    .unwrap_or_else(|_| fail(&format!("bad --duration-ms {v:?}")))
            })
            .unwrap_or(2000),
    );
    let deadline = ptq_bench::flag_value(&flags.args, "--deadline-ms").map(|v| {
        Duration::from_millis(
            v.parse::<u64>()
                .unwrap_or_else(|_| fail(&format!("bad --deadline-ms {v:?}"))),
        )
    });
    let explicit_loads = parse_loads(&flags.args);

    // The served format: E4M3 static (the paper's headline recipe), or
    // whatever --only-format selects.
    let format = flags
        .only_format
        .unwrap_or(DataFormat::Fp8(Fp8Format::E4M3));

    let zoo = match flags.limit {
        Some(n) => build_zoo_limited(ZooFilter::Quick, n),
        None => build_zoo(ZooFilter::Quick),
    };
    let w = zoo.first().unwrap_or_else(|| fail("empty zoo"));
    eprintln!(
        "serving workload {} ({} eval samples)",
        w.spec.name,
        w.eval.len()
    );

    let serving = flags.serving();
    let artifact_dir = std::env::temp_dir().join(format!("ptq-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&artifact_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", artifact_dir.display())));

    let mut table = MdTable::new(&[
        "Weights",
        "Offered (req/s)",
        "Throughput (req/s)",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "Batch",
        "Completed",
        "Rejected",
        "Shed",
    ]);
    let mut points = Vec::new();
    let mut service_ms_report = 0.0;

    for storage in [WeightStorage::Fp8, WeightStorage::FakeQuantF32] {
        // Quantize once under the consolidated spec and persist: the
        // engine below never sees this session, only the artifact.
        let cfg = flags
            .tweak_config(paper_recipe(format, Approach::Static, w.spec.domain))
            .with_weight_storage(storage);
        let spec = EngineSpec::from_config(&cfg).with_serving(serving.clone());
        let path: PathBuf = artifact_dir.join(format!("{storage}.ptq"));
        PtqSession::from_spec(&spec)
            .save_artifact(w, &path)
            .unwrap_or_else(|e| fail(&format!("{storage}: save failed: {e}")));

        // Self-calibrate the base service rate from direct (unbatched)
        // runs of one cold-loaded model.
        let probe = PtqArtifact::load(&path)
            .unwrap_or_else(|e| fail(&format!("{storage}: probe load failed: {e}")));
        let mut service_ms = f64::MAX;
        for sample in w.eval.iter().take(3) {
            let t0 = Instant::now();
            let mut hook = probe.model.hook();
            probe
                .model
                .plans
                .run(&probe.model.graph, sample, &mut hook)
                .unwrap_or_else(|e| fail(&format!("{storage}: probe run failed: {e}")));
            service_ms = service_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        service_ms_report = service_ms;
        let base_rps = 1e3 / service_ms.max(1e-3);
        let loads: Vec<f64> = explicit_loads
            .clone()
            .unwrap_or_else(|| vec![0.5 * base_rps, base_rps, 2.0 * base_rps]);
        eprintln!("{storage}: service {service_ms:.2} ms/req (direct), offered loads {loads:?}");

        for &offered in &loads {
            // Fresh cold start per point: artifact -> engine, plan cache
            // empty, stats clean.
            let t0 = Instant::now();
            let art = PtqArtifact::load(&path)
                .unwrap_or_else(|e| fail(&format!("{storage}: load failed: {e}")));
            let engine = Engine::from_artifact(&art)
                .unwrap_or_else(|e| fail(&format!("{storage}: engine start failed: {e}")));
            let artifact_load_ms = t0.elapsed().as_secs_f64() * 1e3;

            // One warm-up per shape pays the plan build outside the
            // measured window.
            match engine.submit(w.eval[0].clone()) {
                Ok(t) => {
                    let _ = t.wait();
                }
                Err(e) => fail(&format!("{storage}: warm-up failed: {e}")),
            }
            engine.reset_stats();

            let mut rng = TensorRng::seed(0x5EEDBEEF ^ offered.to_bits());
            let (_submitted, tickets, wall_ms) =
                drive(&engine, w, offered, duration, deadline, &mut rng);
            // Redeem every ticket (open loop: only now do we block).
            for t in tickets {
                let _ = t.wait();
            }
            let stats = engine.stats();
            let ms = |us: u64| us as f64 / 1e3;
            let throughput = stats.completed as f64 / (wall_ms / 1e3).max(1e-9);
            table.row(vec![
                storage.to_string(),
                format!("{offered:.0}"),
                format!("{throughput:.0}"),
                format!("{:.2}", ms(stats.p50_us)),
                format!("{:.2}", ms(stats.p95_us)),
                format!("{:.2}", ms(stats.p99_us)),
                format!("{:.2}", stats.mean_batch()),
                stats.completed.to_string(),
                stats.rejected.to_string(),
                stats.shed.to_string(),
            ]);
            points.push(Point {
                weights: storage.to_string(),
                artifact_load_ms,
                offered_rps: offered,
                duration_ms: wall_ms,
                submitted: stats.submitted,
                completed: stats.completed,
                rejected: stats.rejected,
                shed: stats.shed,
                failed: stats.failed,
                throughput_rps: throughput,
                mean_batch: stats.mean_batch(),
                p50_ms: ms(stats.p50_us),
                p95_ms: ms(stats.p95_us),
                p99_ms: ms(stats.p99_us),
                max_ms: ms(stats.max_us),
            });
            if stats.failed > 0 {
                fail(&format!(
                    "{storage} @ {offered:.0} rps: {} requests failed execution",
                    stats.failed
                ));
            }
            engine.shutdown();
        }
    }

    println!("\n## Serving — throughput vs tail latency (open-loop Poisson)\n");
    table.print();
    println!(
        "\nengine: max_batch={}, window={}µs, queue={}, workers={} \
         (0 = one per core); every request bit-identical to an unbatched run",
        serving.max_batch, serving.batch_window_us, serving.queue_capacity, serving.workers
    );

    let report = Report {
        workload: w.spec.name.clone(),
        format: format.to_string(),
        max_batch: serving.max_batch,
        batch_window_us: serving.batch_window_us,
        queue_capacity: serving.queue_capacity,
        workers: serving.workers,
        service_ms: service_ms_report,
        points,
    };
    let path = save_json("serve", &report);
    if let Some(t) = trace {
        ptq_bench::tracing::finish(t, "serve");
    }
    let _ = std::fs::remove_dir_all(&artifact_dir);
    eprintln!("raw results -> {}", path.display());
}
