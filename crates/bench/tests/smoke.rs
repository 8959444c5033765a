//! Smoke test of the whole experiment table: every entry `ptq-bench`
//! lists in its usage text runs to exit 0 on `--quick --limit 1`, and
//! every entry that is not a print-only command leaves a parseable
//! `bench_results/<name>.json`.

use ptq_trace::json::Value;
use std::path::Path;
use std::process::Command;

/// The commands that print and save nothing.
const PRINT_ONLY: [&str; 4] = ["zoo", "quantize", "sensitivity", "tune"];

fn ptq_bench(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ptq-bench"))
        .args(args)
        .current_dir(dir)
        .env_remove("PTQ_TRACE")
        .output()
        .expect("ptq-bench runs")
}

#[test]
fn every_table_entry_runs_and_writes_parseable_json() {
    let dir = std::env::temp_dir().join(format!("ptq_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    // The table, as the usage text prints it: two-space-indented lines,
    // command name first, `<workload>` where an operand is required.
    let usage = ptq_bench(&dir, &[]);
    assert_eq!(usage.status.code(), Some(2), "no experiment named: usage");
    let usage = String::from_utf8_lossy(&usage.stderr).into_owned();
    let entries: Vec<(&str, bool)> = usage
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .map(|l| {
            let name = l.split_whitespace().next().expect("entry name");
            (name, l.contains("<workload>"))
        })
        .filter(|&(name, _)| name != "all")
        .collect();
    assert!(entries.len() >= 16, "usage lists the table:\n{usage}");
    for name in PRINT_ONLY {
        assert!(entries.iter().any(|&(n, _)| n == name), "{name} listed");
    }

    // `all` covers every entry that takes no operand in one process; the
    // others get the quick zoo's first workload.
    let mut runs = vec![vec!["all"]];
    runs.extend(
        entries
            .iter()
            .filter(|&&(_, needs_workload)| needs_workload)
            .map(|&(name, _)| vec![name, "vgg_like"]),
    );
    for mut args in runs {
        args.extend(["--quick", "--limit", "1"]);
        let out = ptq_bench(&dir, &args);
        assert!(
            out.status.success(),
            "ptq-bench {args:?} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for &(name, _) in &entries {
        let path = dir.join(format!("bench_results/{name}.json"));
        if PRINT_ONLY.contains(&name) {
            assert!(!path.exists(), "{name} prints only");
            continue;
        }
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} wrote no {}: {e}", path.display()));
        let rows = Value::parse(&body).unwrap_or_else(|e| panic!("{name}.json: {e:?}"));
        assert!(rows.as_array().is_some(), "{name}.json is a row array");
    }
    std::fs::remove_dir_all(&dir).ok();
}
