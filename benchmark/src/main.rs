//! The repo benchmark. Run from the repository root.
//!
//! ```text
//! ptq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is
//!     the result object the driver reads
//! ptq-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat <n>]
//!               [--no-trace | --trace-only]
//!     every workload, each in a fresh process, untraced then traced;
//!     with --repeat 2 the sets are compared against the bounds
//! ptq-benchmark --print-manifest
//!     BENCHMARK.json, generated from the tables in report.rs
//! ```

mod measure;
mod probes;
mod report;
mod spans;
mod workloads;

use report::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// As given; `--smoke` runs a tenth of it.
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    no_trace: bool,
    trace_only: bool,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        repeat: 1,
        no_trace: false,
        trace_only: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--smoke" => a.smoke = true,
            "--no-trace" => a.no_trace = true,
            "--trace-only" => a.trace_only = true,
            "--print-manifest" => a.print_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout has none.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("unresolved {r}"), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

/// One workload in this process.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {workload}; one of {}", names.join(", "));
        return ExitCode::from(2);
    }
    let trace = args.trace.unwrap_or(false);
    let seconds = if args.smoke {
        args.seconds / 10.0
    } else {
        args.seconds
    };
    let out_dir = out_dir();
    let tmp_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp_dir) {
        eprintln!("cannot create {}: {e}", tmp_dir.display());
        return ExitCode::from(2);
    }
    let ctx = workloads::Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds,
        trace,
        out_dir,
        tmp_dir: tmp_dir.clone(),
        yard: measure::Yardstick::new(workload == "decode_long"),
    };
    let t0 = Instant::now();
    let outcome = workloads::run(&ctx);
    let _ = std::fs::remove_dir_all(&tmp_dir);
    println!(
        "run workload={workload} seed={} seconds={seconds} trace={} smoke={} nproc={} commit={}",
        args.seed,
        u8::from(trace),
        if args.smoke {
            "1 (a tenth of the run: not comparable)"
        } else {
            "0"
        },
        measure::nproc(),
        git_commit()
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    if !trace {
        print!("{}", report::raw_lines(&outcome));
    }
    print!("{}", report::metric_lines(&outcome, trace));
    println!("wall_s {:.3}", t0.elapsed().as_secs_f64());
    println!("{}", report::contract_line(&outcome, trace));
    ExitCode::SUCCESS
}

/// What a child run printed: metric values by name, and its verdict.
struct ChildRun {
    values: BTreeMap<String, Option<f64>>,
    attempted: u64,
    failed: u64,
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.smoke.then_some("--smoke"))
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} trace={} exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut run = ChildRun {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, _unit] => {
                run.values.insert((*name).to_string(), value.parse().ok());
            }
            ["note", "attempted", n] => run.attempted = n.parse().unwrap_or(0),
            ["note", "failed", n] => run.failed = n.parse().unwrap_or(0),
            ["note" | "raw" | "run" | "wall_s", ..] => println!("  [{workload}] {line}"),
            _ => {}
        }
    }
    Ok(run)
}

fn show(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| format!("{v:.6}"))
}

/// Every workload, each in a fresh process; `--repeat 2` compares sets.
fn run_all(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    println!(
        "benchmark seed={} seconds={} smoke={} nproc={} commit={}",
        args.seed,
        args.seconds,
        u8::from(args.smoke),
        measure::nproc(),
        git_commit()
    );
    // sets[set][workload] = merged metric values of its runs.
    let mut sets: Vec<BTreeMap<&str, ChildRun>> = Vec::new();
    let mut ok = true;
    for set in 0..args.repeat {
        let mut by_workload = BTreeMap::new();
        for w in WORKLOADS {
            let mut merged = ChildRun {
                values: BTreeMap::new(),
                attempted: 0,
                failed: 0,
            };
            for trace in [false, true] {
                if (trace && args.no_trace) || (!trace && args.trace_only) {
                    continue;
                }
                println!("set {} {} trace={}", set + 1, w.name, u8::from(trace));
                match run_child(args, w.name, trace) {
                    Ok(run) => {
                        merged.values.extend(run.values);
                        merged.attempted += run.attempted;
                        merged.failed += run.failed;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
            if merged.failed > 0 {
                eprintln!(
                    "{}: {} of {} operations failed",
                    w.name, merged.failed, merged.attempted
                );
                ok = false;
            }
            by_workload.insert(w.name, merged);
        }
        sets.push(by_workload);
    }

    println!("\n## End-to-end (untraced rounds)");
    let value = |set: usize, w: &str, m: &str| sets[set][w].values.get(m).copied().flatten();
    for m in END_TO_END {
        for w in WORKLOADS {
            let a = value(0, w.name, m.name);
            let mut line = format!("{:<14} {:<15} {} {}", m.name, w.name, show(a), m.unit);
            if let (Some(a), Some(b)) = (a, sets.get(1).and_then(|_| value(1, w.name, m.name))) {
                let gap = (a - b).abs() / a.abs();
                let verdict = if gap <= m.bound { "ok" } else { "EXCEEDS" };
                line += &format!(
                    "  second {b:.6}  gap {gap:.4}  bound {}  {verdict}",
                    m.bound
                );
                ok &= gap <= m.bound;
            }
            println!("{line}");
        }
    }
    if !args.no_trace {
        println!(
            "\n## Per layer (traced run and kernel replays; null = not measured on this workload)"
        );
        for m in PER_LAYER {
            let cells: Vec<String> = WORKLOADS
                .iter()
                .map(|w| format!("{}={}", w.name, show(value(0, w.name, m.name))))
                .collect();
            println!("{:<34} {:<8} {}", m.name, m.unit, cells.join(" "));
        }
    }
    // Counts that must repeat exactly between sets.
    const EXACT: &[&str] = &[
        "artifact_kib",
        "ptq_rel_loss_pct",
        "fail_share",
        "nn.allocs_per_fwd",
        "nn.alloc_bytes_per_fwd",
        "nn.allocs_per_step",
        "nn.alloc_bytes_per_step",
        "tensor.kernel_alloc_bytes",
    ];
    if sets.len() > 1 && !args.no_trace {
        for m in EXACT {
            for w in WORKLOADS {
                let (a, b) = (value(0, w.name, m), value(1, w.name, m));
                if a != b {
                    println!(
                        "exact metric {m} on {} differs: {} vs {}",
                        w.name,
                        show(a),
                        show(b)
                    );
                    ok = false;
                }
            }
        }
    }
    let _ = write_report(args, &sets, t0.elapsed().as_secs_f64());
    println!("\nwall_s {:.1}", t0.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `benchmark/out/report.json`: the first set, every metric by name.
fn write_report(
    args: &Args,
    sets: &[BTreeMap<&str, ChildRun>],
    wall_s: f64,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"nproc\": {}, \"commit\": \"{}\", \"wall_s\": {}, \"workloads\": {{",
        args.seed,
        args.seconds,
        args.smoke,
        measure::nproc(),
        git_commit(),
        report::num(wall_s)
    );
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    if let Some(first) = sets.first() {
        let mut sep = "";
        for (w, run) in first {
            let _ = write!(
                s,
                "{sep}\"{w}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                run.attempted, run.failed
            );
            let mut msep = "";
            for (name, v) in &run.values {
                let v = v.map_or("null".to_string(), report::num);
                let _ = write!(
                    s,
                    "{msep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit_of(name)
                );
                msep = ", ";
            }
            s.push_str("}}");
            sep = ", ";
        }
    }
    s.push_str("}}\n");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join("report.json"), s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }

    match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}
