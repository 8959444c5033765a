//! End-to-end test of the `--trace` flag: drives `ptq-bench table2` with
//! `PTQ_TRACE=debug`, then validates the NDJSON stream (per-op spans,
//! per-layer error gauges, cache counters, bracket-matched nesting) and
//! the aggregated `<name>_trace_report.json`.

use ptq_trace::json::Value;
use std::collections::HashMap;
use std::process::Command;

#[test]
fn table2_trace_flag_produces_valid_ndjson_and_report() {
    let dir = std::env::temp_dir().join(format!("ptq_trace_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace_path = dir.join("out.ndjson");

    let output = Command::new(env!("CARGO_BIN_EXE_ptq-bench"))
        .args([
            "table2",
            "--quick",
            "--limit",
            "1",
            "--trace",
            trace_path.to_str().expect("utf8 temp path"),
        ])
        .current_dir(&dir)
        .env("PTQ_TRACE", "debug")
        .output()
        .expect("table2 runs");
    assert!(output.status.success(), "table2 --trace failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("Trace profile"),
        "traced run prints a profile table"
    );

    // --- NDJSON stream ---------------------------------------------------
    let body = std::fs::read_to_string(&trace_path).expect("trace file written");
    let mut op_spans = 0usize;
    let mut weight_mse = 0usize;
    let mut counters: HashMap<String, f64> = HashMap::new();
    let mut stacks: HashMap<i64, Vec<(String, i64)>> = HashMap::new();
    for line in body.lines() {
        let v =
            Value::parse(line).unwrap_or_else(|e| panic!("unparseable NDJSON line: {e:?}: {line}"));
        let num = |k: &str| v.get(k).and_then(Value::as_f64);
        let txt = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let thread = num("thread").expect("thread") as i64;
        let depth = num("depth").expect("depth") as i64;
        let name = txt("name").expect("name");
        let stack = stacks.entry(thread).or_default();
        match txt("ev").expect("ev").as_str() {
            "span_enter" => {
                assert_eq!(depth, stack.len() as i64, "nesting is consistent");
                stack.push((name, depth));
            }
            "span_exit" => {
                let (top, tdepth) = stack.pop().expect("exit without enter");
                assert_eq!(name, top);
                assert_eq!(depth, tdepth);
                if name == "op" {
                    op_spans += 1;
                    let fields = v.get("fields").expect("op spans carry fields");
                    assert!(fields.get("kind").and_then(Value::as_str).is_some());
                    assert!(fields.get("elems").and_then(Value::as_f64).is_some());
                }
            }
            "counter" => {
                *counters.entry(name).or_default() += num("delta").expect("delta");
            }
            "gauge" => {
                if name == "quant.weight_mse" {
                    weight_mse += 1;
                    let fields = v.get("fields").expect("gauge fields");
                    assert!(fields.get("layer").and_then(Value::as_str).is_some());
                    assert!(num("value").expect("value") >= 0.0);
                }
            }
            other => panic!("unknown event kind {other}"),
        }
    }
    for (t, stack) in &stacks {
        assert!(stack.is_empty(), "thread {t} left spans open: {stack:?}");
    }
    assert!(op_spans > 0, "per-op spans present at debug level");
    assert!(weight_mse > 0, "per-layer weight-error gauges present");
    // Six table rows over one workload share at most two calibrations, so
    // both counters must have fired.
    assert!(
        counters.get("calib_cache.miss").copied().unwrap_or(0.0) >= 1.0,
        "cache misses recorded: {counters:?}"
    );
    assert!(
        counters.get("calib_cache.hit").copied().unwrap_or(0.0) >= 1.0,
        "cache hits recorded: {counters:?}"
    );

    // --- aggregated report ----------------------------------------------
    let report_body = std::fs::read_to_string(dir.join("bench_results/table2_trace_report.json"))
        .expect("trace report written next to the bench JSON");
    let report = Value::parse(&report_body).expect("report JSON parses");
    let ops = report
        .get("ops_by_time")
        .and_then(Value::as_array)
        .expect("ops_by_time array");
    assert!(!ops.is_empty(), "report ranks span groups");
    // Ranked descending by total time.
    let totals: Vec<f64> = ops
        .iter()
        .map(|o| o.get("total_ms").and_then(Value::as_f64).expect("total_ms"))
        .collect();
    assert!(
        totals.windows(2).all(|w| w[0] >= w[1]),
        "ops sorted by time"
    );
    assert!(
        report
            .get("layer_errors")
            .and_then(Value::as_array)
            .is_some_and(|l| !l.is_empty()),
        "report carries per-layer errors"
    );
    let names: Vec<&str> = report
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters array")
        .iter()
        .filter_map(|c| c.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"calib_cache.hit") && names.contains(&"calib_cache.miss"));

    // The main bench JSON must be unaffected by tracing (same file name,
    // same shape as an untraced run — byte-level equality is covered by
    // the golden test).
    assert!(dir.join("bench_results/table2.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
