//! The traced run: an in-memory `ptq_trace` sink for the program's own
//! spans, the harness's call-site spans (`bench.*`) recorded beside them
//! on the same clock, and the analysis that turns both into per-layer
//! self times.
//!
//! Call-site spans carry an id and a parent id. Program spans are linked
//! by thread and time: a span's parent is the innermost span on its own
//! thread that contains it; a program span with no such parent (an `op`
//! on a `run_batch` thread) is adopted by the innermost program span on
//! another thread that contains it. A span's self time is its duration
//! minus the part its children cover.

use ptq_trace::{EventKind, FieldValue, Level, MemorySink, TraceEvent};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// `ptq_trace` thread ordinal.
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Call-site spans only: request/pass id and the id of the call-site
    /// span that caused this one (0 = none).
    pub id: u64,
    pub parent_id: u64,
    /// Fields the program recorded on the span (`kind`, `node`,
    /// `out_shape`, `elems` of an `op`; `requests` of a `serve.batch`).
    pub fields: Vec<(String, FieldValue)>,
    pub harness: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_ns() as f64 / 1e6
    }

    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Int(n) if k == key => Some(*n),
            _ => None,
        })
    }
}

/// Which module a span's self time belongs to. A call-site span's own
/// self time is time inside the layer it calls that no program span
/// covers, so it counts for that layer.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "op" | "act.quantize" | "bench.kernel" => "tensor",
        "plan.build" | "decode.prefill" | "decode.step" | "bench.forward" => "nn",
        "calibrate"
        | "quantize"
        | "quantize.from_artifact"
        | "bench.quantize"
        | "bench.prefill"
        | "bench.step" => "core",
        "bench.save" | "bench.load" => "artifact",
        "serve.batch" | "bench.request" => "serve",
        _ => "harness",
    }
}

/// Records call-site spans while the program records its own.
pub struct Tracer {
    epoch: Instant,
    sink: Arc<MemorySink>,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    /// Install the sink at `Debug` (per-op spans) and start the clock the
    /// call-site spans share with it.
    pub fn install() -> Tracer {
        let sink = Arc::new(MemorySink::new());
        ptq_trace::install(vec![sink.clone()], Level::Debug);
        Tracer {
            // Taken right after `install` took its own epoch; the two
            // differ by well under a microsecond.
            epoch: Instant::now(),
            sink,
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's `ptq_trace` ordinal, learnt from a marker
    /// event, so call-site spans nest with the program's spans.
    pub fn thread_tag(&self) -> u64 {
        let id = self.next_id() as i64;
        ptq_trace::counter(
            Level::Info,
            "bench.thread",
            0,
            &[("marker", FieldValue::Int(id))],
        );
        self.sink
            .events()
            .iter()
            .rev()
            .find(|e| e.name == "bench.thread" && e.field("marker") == Some(&FieldValue::Int(id)))
            .map_or(u64::MAX, |e| e.thread)
    }

    pub fn record(
        &self,
        name: &str,
        thread: u64,
        id: u64,
        parent_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                name: name.to_string(),
                thread,
                start_ns,
                end_ns: end_ns.max(start_ns),
                id,
                parent_id,
                fields: Vec::new(),
                harness: true,
            });
    }

    /// Stop recording and hand everything over for analysis.
    pub fn finish(self) -> Trace {
        ptq_trace::uninstall();
        let events = self.sink.events();
        let mut spans = self
            .spans
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut gauges: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for e in &events {
            match e.kind {
                EventKind::SpanExit { dur_ns } => spans.push(Span {
                    name: e.name.clone(),
                    thread: e.thread,
                    start_ns: e.ts_ns.saturating_sub(dur_ns),
                    end_ns: e.ts_ns,
                    id: 0,
                    parent_id: 0,
                    fields: e.fields.clone(),
                    harness: false,
                }),
                EventKind::Gauge { value } => {
                    gauges
                        .entry(e.name.clone())
                        .or_default()
                        .push((e.ts_ns, value));
                }
                _ => {}
            }
        }
        Trace {
            spans,
            gauges,
            events,
        }
    }
}

/// A call-site span around a synchronous call. With no tracer this is
/// just the call.
pub struct Site<'t> {
    pub tracer: Option<&'t Tracer>,
    pub thread: u64,
}

impl<'t> Site<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Site {
            thread: tracer.map_or(0, Tracer::thread_tag),
            tracer,
        }
    }

    pub fn next_id(&self) -> u64 {
        self.tracer.map_or(0, Tracer::next_id)
    }

    pub fn span<T>(&self, name: &str, id: u64, parent_id: u64, f: impl FnOnce() -> T) -> T {
        let Some(tr) = self.tracer else {
            return f();
        };
        let start = tr.now_ns();
        let out = f();
        tr.record(name, self.thread, id, parent_id, start, tr.now_ns());
        out
    }
}

pub struct Trace {
    pub spans: Vec<Span>,
    /// Program gauge observations by name: (ts_ns, value).
    pub gauges: BTreeMap<String, Vec<(u64, f64)>>,
    events: Vec<TraceEvent>,
}

pub struct Reconciliation {
    /// Total duration of the top-level call-site spans.
    pub callsite_ms: f64,
    /// Self time per layer over every span linked under them.
    pub layers_ms: BTreeMap<&'static str, f64>,
    /// Program spans no call-site span could be linked to (work on
    /// engine threads), by name.
    pub unlinked_ms: BTreeMap<String, f64>,
}

impl Reconciliation {
    /// Relative gap between the layer sum and the call-site total.
    pub fn gap(&self) -> f64 {
        let sum: f64 = self.layers_ms.values().sum();
        if self.callsite_ms > 0.0 {
            (sum - self.callsite_ms).abs() / self.callsite_ms
        } else {
            0.0
        }
    }
}

impl Trace {
    pub fn program_events(&self) -> usize {
        self.events.len()
    }

    /// The spans that ended, and gauges observed, by `end_ns`.
    pub fn before(&self, end_ns: u64) -> Trace {
        self.window(0, end_ns)
    }

    /// The spans lying inside, and gauges observed in, `[lo_ns, hi_ns]`.
    pub fn window(&self, lo_ns: u64, hi_ns: u64) -> Trace {
        Trace {
            spans: self
                .spans
                .iter()
                .filter(|s| s.start_ns >= lo_ns && s.end_ns <= hi_ns)
                .cloned()
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| {
                    let kept = v.iter().filter(|(ts, _)| (lo_ns..=hi_ns).contains(ts));
                    (k.clone(), kept.copied().collect())
                })
                .collect(),
            events: Vec::new(),
        }
    }

    pub fn gauge_max(&self, name: &str) -> Option<f64> {
        self.gauges
            .get(name)?
            .iter()
            .map(|&(_, v)| v)
            .reduce(f64::max)
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ms) of every span of that name, `None` when the span
    /// never appeared: an absent span is not a zero.
    pub fn durs_ms(&self, name: &str) -> Option<Vec<f64>> {
        let v: Vec<f64> = self.named(name).map(Span::dur_ms).collect();
        (!v.is_empty()).then_some(v)
    }

    pub fn total_ms(&self, name: &str) -> Option<f64> {
        self.durs_ms(name).map(|v| v.iter().sum())
    }

    /// `op` span time (ms) split by operator kind:
    /// (conv, linear, matmul, other); `None` without `op` spans.
    pub fn op_ms_by_kind(&self) -> Option<[f64; 4]> {
        let mut t = [0.0; 4];
        let mut any = false;
        for s in self.named("op") {
            any = true;
            let i = match s.str_field("kind") {
                Some("Conv2d") => 0,
                Some("Linear") => 1,
                Some("MatMul" | "BatchMatMul") => 2,
                _ => 3,
            };
            t[i] += s.dur_ms();
        }
        any.then_some(t)
    }

    /// For each span the index of its parent, by the rule in the module
    /// docs.
    fn parents(&self) -> Vec<Option<usize>> {
        let n = self.spans.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Outer spans first: by thread, start ascending, end descending;
        // a call-site span and a program span with equal bounds keep the
        // call-site span outside.
        order.sort_by_key(|&i| {
            let s = &self.spans[i];
            (
                s.thread,
                s.start_ns,
                std::cmp::Reverse(s.end_ns),
                !s.harness,
            )
        });
        let mut parent = vec![None; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut cur_thread = u64::MAX;
        for &i in &order {
            let s = &self.spans[i];
            if s.thread != cur_thread {
                stack.clear();
                cur_thread = s.thread;
            }
            while let Some(&top) = stack.last() {
                if self.spans[top].end_ns >= s.end_ns && self.spans[top].start_ns <= s.start_ns {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        // Adoption across threads: program spans only, by program spans
        // only (`serve.batch` adopting the `op`s of its `run_batch`).
        let adopters: Vec<usize> = (0..n)
            .filter(|&i| !self.spans[i].harness && self.spans[i].name == "serve.batch")
            .collect();
        for (s, slot) in self.spans.iter().zip(parent.iter_mut()) {
            if slot.is_some() || s.harness || s.name == "serve.batch" {
                continue;
            }
            *slot = adopters
                .iter()
                .copied()
                .filter(|&a| {
                    let p = &self.spans[a];
                    p.thread != s.thread && p.start_ns <= s.start_ns && p.end_ns >= s.end_ns
                })
                .max_by_key(|&a| self.spans[a].start_ns);
        }
        parent
    }

    /// Self time per layer under the top-level call-site spans, against
    /// their total.
    pub fn reconcile(&self) -> Reconciliation {
        let parent = self.parents();
        let n = self.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        // A span is linked when its chain of parents ends at a call-site
        // span.
        let mut linked = vec![None::<bool>; n];
        fn is_linked(
            i: usize,
            spans: &[Span],
            parent: &[Option<usize>],
            memo: &mut [Option<bool>],
        ) -> bool {
            if let Some(v) = memo[i] {
                return v;
            }
            let v = match parent[i] {
                None => spans[i].harness,
                Some(p) => is_linked(p, spans, parent, memo),
            };
            memo[i] = Some(v);
            v
        }
        let mut rec = Reconciliation {
            callsite_ms: 0.0,
            layers_ms: BTreeMap::new(),
            unlinked_ms: BTreeMap::new(),
        };
        for i in 0..n {
            let s = &self.spans[i];
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_ms = (s.dur_ns() - covered.min(s.dur_ns())) as f64 / 1e6;
            if is_linked(i, &self.spans, &parent, &mut linked) {
                if parent[i].is_none() {
                    rec.callsite_ms += s.dur_ms();
                }
                *rec.layers_ms.entry(layer_of(&s.name)).or_default() += self_ms;
            } else {
                *rec.unlinked_ms.entry(s.name.clone()).or_default() += self_ms;
            }
        }
        rec
    }

    /// One NDJSON line per span and per program counter/gauge event.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for e in &self.events {
            if !matches!(e.kind, EventKind::SpanEnter) {
                writeln!(w, "{}", e.to_ndjson())?;
            }
        }
        for s in self.spans.iter().filter(|s| s.harness) {
            writeln!(
                w,
                "{{\"ts_ns\":{},\"thread\":{},\"ev\":\"span_exit\",\"name\":\"{}\",\"dur_ns\":{},\"fields\":{{\"id\":{},\"parent\":{}}}}}",
                s.end_ns,
                s.thread,
                s.name,
                s.dur_ns(),
                s.id,
                s.parent_id
            )?;
        }
        w.flush()
    }
}
