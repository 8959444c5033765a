//! Golden snapshot tests: re-run deterministic `ptq-bench` experiments and
//! diff their JSON output against fixtures committed under
//! `tests/golden/`. Everything in the pipeline is seeded, so any drift —
//! an accidental change to a kernel, an observer, a recipe, the zoo —
//! shows up here as a structured diff.
//!
//! To regenerate after an *intentional* change: run the listed command in
//! an empty directory and copy `bench_results/<name>.json` over the
//! fixture.

use ptq_trace::json::{approx_eq, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Float tolerance for the diff. The runs are bit-deterministic, so this
/// only has to absorb float → decimal → float round-tripping.
const REL_TOL: f64 = 1e-9;
const ABS_TOL: f64 = 1e-12;

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Run `ptq-bench <args>` in a scratch directory (so `bench_results/` lands
/// there, not in the repo) with tracing env cleared, and return the
/// scratch dir.
fn run_in_scratch(args: &[&str], tag: &str) -> PathBuf {
    let bin = env!("CARGO_BIN_EXE_ptq-bench");
    let dir = std::env::temp_dir().join(format!("ptq_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let status = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env_remove("PTQ_TRACE")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("ptq-bench runs");
    assert!(status.success(), "{bin} {args:?} failed: {status}");
    dir
}

fn assert_matches_golden(result: &Path, golden: &str, regen_hint: &str) {
    let got_body = std::fs::read_to_string(result)
        .unwrap_or_else(|e| panic!("missing result {}: {e}", result.display()));
    let want_body = std::fs::read_to_string(golden_path(golden))
        .unwrap_or_else(|e| panic!("missing fixture {golden}: {e}"));
    let got = Value::parse(&got_body).expect("result JSON parses");
    let want = Value::parse(&want_body).expect("fixture JSON parses");
    if let Err(diff) = approx_eq(&want, &got, REL_TOL, ABS_TOL) {
        panic!(
            "output drifted from tests/golden/{golden}\n  first mismatch: {diff}\n  \
             if intentional, regenerate with: {regen_hint}"
        );
    }
}

#[test]
fn fig1_matches_golden() {
    let dir = run_in_scratch(&["fig1"], "fig1");
    assert_matches_golden(
        &dir.join("bench_results/fig1.json"),
        "fig1.json",
        "ptq-bench fig1 (then copy bench_results/fig1.json)",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn table2_quick2_matches_golden() {
    let dir = run_in_scratch(&["table2", "--quick", "--limit", "2"], "table2");
    assert_matches_golden(
        &dir.join("bench_results/table2.json"),
        "table2_quick2.json",
        "ptq-bench table2 --quick --limit 2 (then copy bench_results/table2.json)",
    );
    std::fs::remove_dir_all(&dir).ok();
}
