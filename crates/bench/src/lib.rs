//! # ptq-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §3 for the
//! index). Every binary prints a Markdown table shaped like the paper's
//! and writes the raw numbers as JSON under `bench_results/` so that
//! EXPERIMENTS.md is regenerable.

pub mod flags;

pub use flags::CommonFlags;

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory experiment outputs are written to (repo-relative).
pub const RESULTS_DIR: &str = "bench_results";

/// Write an experiment's raw results as pretty JSON under
/// [`RESULTS_DIR`], creating the directory if needed. Returns the path.
///
/// # Panics
///
/// Panics if the directory or file cannot be written (experiments should
/// fail loudly, not silently drop results).
pub fn save_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = Path::new(RESULTS_DIR);
    fs::create_dir_all(dir).expect("create bench_results dir");
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, to_json_pretty(value)).expect("write results file");
    path
}

/// Render a `Serialize` value as pretty-printed JSON through
/// [`ptq_trace::json`], the workspace's one JSON tree and renderer.
/// Numbers become f64 on the way, so integers are exact up to 2^53 —
/// far beyond any count or byte total an experiment reports.
pub fn to_json_pretty<T: Serialize>(value: &T) -> String {
    fn tree(v: serde::Value) -> ptq_trace::json::Value {
        use ptq_trace::json::Value as Json;
        match v {
            serde::Value::Null => Json::Null,
            serde::Value::Bool(b) => Json::Bool(b),
            serde::Value::Int(i) => Json::Num(i as f64),
            serde::Value::UInt(u) => Json::Num(u as f64),
            serde::Value::Float(f) => Json::Num(f),
            serde::Value::Str(s) => Json::Str(s),
            serde::Value::Array(items) => Json::Array(items.into_iter().map(tree).collect()),
            serde::Value::Object(entries) => {
                Json::Object(entries.into_iter().map(|(k, v)| (k, tree(v))).collect())
            }
        }
    }
    tree(value.serialize()).render_pretty()
}

/// Value of a `--flag <value>` pair in `args`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--trace <path>` support shared by the bench binaries: installs the
/// NDJSON + in-memory sinks at startup and distills a
/// [`ptq_trace::TraceReport`] at exit.
pub mod tracing {
    use crate::RESULTS_DIR;
    use ptq_trace::{Level, MemorySink, NdjsonSink, TraceReport};
    use std::path::Path;
    use std::sync::Arc;

    /// A live trace for one binary run. Created by [`init_from_args`],
    /// consumed by [`finish`].
    pub struct TraceSession {
        memory: Arc<MemorySink>,
    }

    /// When `--trace <path>` is present, start recording: NDJSON streams
    /// to `path` while an in-memory sink feeds the exit-time report. The
    /// level comes from `PTQ_TRACE` (default `info`). Returns `None` —
    /// and records nothing — without the flag, so untraced runs stay on
    /// the disabled hot path.
    pub fn init_from_args(args: &[String]) -> Option<TraceSession> {
        let path = crate::flag_value(args, "--trace")?;
        let level = Level::from_env().unwrap_or(Level::Info);
        let ndjson = match NdjsonSink::create(Path::new(&path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace: cannot create {path}: {e} (tracing disabled)");
                return None;
            }
        };
        let memory = Arc::new(MemorySink::new());
        ptq_trace::install(vec![Arc::new(ndjson), memory.clone()], level);
        eprintln!("tracing at level {level} -> {path}");
        Some(TraceSession { memory })
    }

    /// Stop recording, flush the NDJSON file, write the aggregated report
    /// to `bench_results/<name>_trace_report.json` and print a top-ops
    /// profile table. The report lives in its own file so the experiment's
    /// main JSON stays byte-identical with tracing off or on.
    pub fn finish(session: TraceSession, name: &str) {
        ptq_trace::uninstall();
        let report = TraceReport::from_events(&session.memory.events());
        let dir = Path::new(RESULTS_DIR);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("trace: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}_trace_report.json"));
        match std::fs::write(&path, report.to_json().render_pretty()) {
            Ok(()) => eprintln!("trace report -> {}", path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
        println!("\n### Trace profile (top ops by wall-time)\n");
        print!("{}", report.render_top_ops_markdown(10));
    }
}

/// Format an `Option<f64>` rate as a percentage cell.
pub fn pct(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{:.2}%", v * 100.0),
        None => "—".to_string(),
    }
}

/// Markdown table helper: builds aligned rows.
#[derive(Debug, Default)]
pub struct MdTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        MdTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified already).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "table width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as Markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_table_renders() {
        let mut t = MdTable::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
    }

    #[test]
    fn serialized_values_render_through_the_one_json_tree() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            count: usize,
            rate: Option<f64>,
            scores: Vec<f32>,
        }
        let text = to_json_pretty(&Row {
            name: "a\"b".into(),
            count: 3,
            rate: None,
            scores: vec![0.5, 2.0],
        });
        let back = ptq_trace::json::Value::parse(&text).unwrap();
        assert_eq!(back.get("name").and_then(|v| v.as_str()), Some("a\"b"));
        assert_eq!(back.get("count").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(back.get("rate"), Some(&ptq_trace::json::Value::Null));
        assert_eq!(
            back.get("scores").and_then(|v| v.at(1)?.as_f64()),
            Some(2.0)
        );
        assert!(text.starts_with("{\n  \"name\": "), "{text}");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(Some(0.9264)), "92.64%");
        assert_eq!(pct(None), "—");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        MdTable::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }
}
