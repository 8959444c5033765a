//! What every experiment shares, owned once per process: the parsed
//! command line, the `--trace` session, the zoo, the zoo's calibration
//! cache and the `bench_results/` writer — plus the Markdown table
//! helper the experiments print with.

use crate::flags::Flags;
use ptq_core::config::{Approach, DataFormat, QuantConfig};
use ptq_core::workflow::{run_suite, SuiteRow};
use ptq_core::CalibCache;
use ptq_fp8::Fp8Format;
use ptq_metrics::Domain;
use ptq_models::{build_zoo, Workload, ZooFilter};
use ptq_trace::{Level, MemorySink, NdjsonSink, TraceReport};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The four 8-bit formats the paper compares, in its table order.
pub const FORMATS: [DataFormat; 4] = [
    DataFormat::Fp8(Fp8Format::E5M2),
    DataFormat::Fp8(Fp8Format::E4M3),
    DataFormat::Fp8(Fp8Format::E3M4),
    DataFormat::Int8,
];

/// Per-process experiment context.
pub struct Ctx {
    /// The parsed command line.
    pub flags: Flags,
    /// In-memory trace sink feeding the exit-time report (`--trace`).
    trace: Option<Arc<MemorySink>>,
    /// The zoo as far as it has been built: CV half first, then NLP half.
    zoo: Vec<Workload>,
    /// Whether the (CV, NLP) half is in `zoo`.
    built: (bool, bool),
    /// Calibrations of zoo members for the running experiment, keyed by
    /// `spec.name`. Experiments that build their own workloads must not
    /// use it: their names can repeat with different calibration sets.
    cache: CalibCache,
}

/// A zoo view together with the cache a sweep over it needs.
pub struct Sweep<'a> {
    /// The workloads, `--limit` applied.
    pub zoo: &'a [Workload],
    /// The zoo's calibration cache.
    pub cache: &'a CalibCache,
}

impl Sweep<'_> {
    /// One suite row over this view: the per-domain paper recipe passed
    /// through `tweak`, every workload's failure reported and skipped.
    pub fn row(
        &self,
        format: DataFormat,
        approach: Approach,
        tweak: impl Fn(QuantConfig) -> QuantConfig + Sync,
    ) -> SuiteRow {
        let row = run_suite(self.zoo, format, approach, self.cache, tweak);
        for e in &row.errors {
            eprintln!("  skipped {}: {}", e.workload, e.error);
        }
        row
    }
}

impl Ctx {
    /// Start a run. With `--trace <path>`, NDJSON streams to `path` while
    /// an in-memory sink feeds the exit-time report; the level comes from
    /// `PTQ_TRACE` (default `info`). Without the flag nothing is recorded
    /// and the run stays on the disabled hot path. A path that cannot be
    /// created is a bad flag value: exit 2.
    pub fn new(flags: Flags) -> Ctx {
        let trace = flags.trace.as_deref().map(|path| {
            let ndjson = NdjsonSink::create(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot create --trace {path}: {e}");
                std::process::exit(2);
            });
            let level = Level::from_env().unwrap_or(Level::Info);
            let memory = Arc::new(MemorySink::new());
            ptq_trace::install(vec![Arc::new(ndjson), memory.clone()], level);
            eprintln!("tracing at level {level} -> {path}");
            memory
        });
        Ctx {
            flags,
            trace,
            zoo: Vec::new(),
            built: (false, false),
            cache: CalibCache::new(),
        }
    }

    /// The `All`, `Cv` or `Nlp` view of the zoo (`--quick`: of the quick
    /// zoo), building the halves it needs that no earlier experiment of
    /// this process built. The zoo is CV workloads followed by NLP
    /// workloads, so every view is a contiguous slice of it.
    pub fn sweep(&mut self, view: ZooFilter) -> Sweep<'_> {
        let (want_cv, want_nlp) = (view != ZooFilter::Nlp, view != ZooFilter::Cv);
        if self.flags.quick && self.built != (true, true) {
            eprintln!("building quick zoo…");
            self.zoo = build_zoo(ZooFilter::Quick);
            self.built = (true, true);
        }
        if want_cv && !self.built.0 {
            eprintln!("building CV zoo…");
            let nlp = std::mem::replace(&mut self.zoo, build_zoo(ZooFilter::Cv));
            self.zoo.extend(nlp);
            self.built.0 = true;
        }
        if want_nlp && !self.built.1 {
            eprintln!("building NLP zoo…");
            self.zoo.extend(build_zoo(ZooFilter::Nlp));
            self.built.1 = true;
        }
        let split = self.zoo.partition_point(|w| w.spec.domain == Domain::Cv);
        let zoo = match view {
            ZooFilter::Cv => &self.zoo[..split],
            ZooFilter::Nlp => &self.zoo[split..],
            ZooFilter::All | ZooFilter::Quick => &self.zoo[..],
        };
        Sweep {
            zoo: self.flags.limited(zoo),
            cache: &self.cache,
        }
    }

    /// Write an experiment's raw results as pretty JSON to
    /// `bench_results/<name>.json`.
    pub fn save_json(&self, name: &str, value: serde::Value) {
        let path = write_result(name, &to_json_pretty(value));
        eprintln!("raw results -> {}", path.display());
    }

    /// End one experiment: report the zoo cache's traffic and empty it.
    ///
    /// The cache must not outlive its experiment. Five pairs of NLP zoo
    /// workloads share a `spec.name` (ROADMAP 5f), so which twin's
    /// calibration a name keeps depends on the sweep that filled the
    /// cache; carried over, `all` would write a different `fig12.json`
    /// than `fig12` alone.
    pub fn end_experiment(&mut self) {
        let cache = std::mem::take(&mut self.cache);
        if cache.hits() + cache.misses() > 0 {
            eprintln!(
                "calibration cache: {} entries, {} hits / {} misses",
                cache.len(),
                cache.hits(),
                cache.misses()
            );
        }
    }

    /// End the run named `command`: when tracing, flush the NDJSON file,
    /// write the aggregated report to
    /// `bench_results/<command>_trace_report.json` and print a top-ops
    /// profile table. The report lives in its own file so the experiments'
    /// JSON stays byte-identical with tracing off or on.
    pub fn finish(self, command: &str) {
        let Some(memory) = self.trace else { return };
        ptq_trace::uninstall();
        let report = TraceReport::from_events(&memory.events());
        let json = report.to_json().render_pretty();
        let path = write_result(&format!("{command}_trace_report"), &json);
        eprintln!("trace report -> {}", path.display());
        println!("\n### Trace profile (top ops by wall-time)\n");
        print!("{}", report.render_top_ops_markdown(10));
    }
}

/// Write `bench_results/<stem>.json` (relative to the working directory),
/// creating the directory if needed.
///
/// # Panics
///
/// Panics if the directory or file cannot be written (a run should fail
/// loudly, not silently drop results).
fn write_result(stem: &str, json: &str) -> PathBuf {
    let dir = Path::new("bench_results");
    fs::create_dir_all(dir).expect("create bench_results dir");
    let path = dir.join(format!("{stem}.json"));
    fs::write(&path, json).expect("write results file");
    path
}

/// Render a serialized value as pretty-printed JSON through
/// [`ptq_trace::json`], the workspace's one JSON tree and renderer.
/// Numbers become f64 on the way, so integers are exact up to 2^53 —
/// far beyond any count or byte total an experiment reports.
fn to_json_pretty(value: serde::Value) -> String {
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
    tree(value).render_pretty()
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
    use serde::Serialize;

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
        let row = Row {
            name: "a\"b".into(),
            count: 3,
            rate: None,
            scores: vec![0.5, 2.0],
        };
        let text = to_json_pretty(row.serialize());
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
