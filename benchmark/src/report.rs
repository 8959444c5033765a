//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the writers for everything a run
//! prints. `BENCHMARK.json` is `--print-manifest` of these tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ptq_zoo",
        why: "PTQ of the 8-model quick zoo, save, load, first forward: core observers/quantizer, fp8 encode and artifact work; serve and decode do none",
    },
    Workload {
        name: "forward_cv",
        why: "one caller looping a conv-bound ResNet forward at batch 48: a conv2d_qq gain shows here and not on forward_nlp",
    },
    Workload {
        name: "forward_nlp",
        why: "one caller looping a BERT-like forward: linear_qq/LayerNorm/softmax bound, no conv, shapes straddle the thread fan-out cutoff",
    },
    Workload {
        name: "serve_open",
        why: "forward_nlp's model behind Engine: Poisson 60 and 120 req/s, then 16 in flight; a queue/batcher gain moves only this one",
    },
    Workload {
        name: "decode_long",
        why: "one FP8-KV decode stream to a 256 window: per-step schedule overhead and KV append/attention kernels dominate; no cross-stream batching",
    },
    Workload {
        name: "decode_streams",
        why: "8 concurrent Engine::generate streams: N separate m=1 linears each re-reading all weights, the case batched decode must speed up",
    },
];

#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports every one of these. What the unit of work (the
/// "op") is per workload is in the README's mapping table.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "first_op_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // The issue's workload-specific end-to-end names, kept as ungated
    // detail: each is the native reading behind a generic gated metric.
    pl("ptq_pass_s", "s", Lower),
    pl("cold_load_ms", "ms", Lower),
    pl("artifact_kib", "KiB", Lower),
    pl("ptq_rel_loss_pct", "%", Lower),
    pl("fwd_p50_ms", "ms", Lower),
    pl("serve_p50_ms", "ms", Lower),
    pl("serve_sat_rps", "req/s", Higher),
    pl("decode_tok_per_s", "tok/s", Higher),
    pl("ttft_p50_ms", "ms", Lower),
    pl("itl_p50_ms", "ms", Lower),
    pl("itl_p99_ms", "ms", Lower),
    pl("fail_share", "ratio", Lower),
    // machine
    pl("machine.peak_gflops", "GFLOP/s", Higher),
    pl("machine.membw_gbs", "GB/s", Higher),
    // fp8
    pl("fp8.lut_quantize_melem_s", "Melem/s", Higher),
    pl("fp8.lut_decode_melem_s", "Melem/s", Higher),
    pl("fp8.encode_codes_melem_s", "Melem/s", Higher),
    // tensor
    pl("tensor.conv2d_qq_us", "us", Lower),
    pl("tensor.conv2d_qq_gflops", "GFLOP/s", Higher),
    pl("tensor.conv2d_qq_roofline_frac", "ratio", Higher),
    pl("tensor.conv2d_qq_bytes", "bytes", Lower),
    pl("tensor.linear_qq_us", "us", Lower),
    pl("tensor.linear_qq_gflops", "GFLOP/s", Higher),
    pl("tensor.linear_qq_roofline_frac", "ratio", Higher),
    pl("tensor.linear_qq_bytes", "bytes", Lower),
    pl("tensor.matmul_qq_us", "us", Lower),
    pl("tensor.matmul_qq_gflops", "GFLOP/s", Higher),
    pl("tensor.matmul_qq_roofline_frac", "ratio", Higher),
    pl("tensor.matmul_qq_bytes", "bytes", Lower),
    pl("tensor.linear_qq_m1_us", "us", Lower),
    pl("tensor.linear_qq_m1_gflops", "GFLOP/s", Higher),
    pl("tensor.linear_qq_m1_roofline_frac", "ratio", Higher),
    pl("tensor.linear_qq_m1_bytes", "bytes", Lower),
    pl("tensor.linear_qq_m8_us", "us", Lower),
    pl("tensor.linear_qq_m8_gflops", "GFLOP/s", Higher),
    pl("tensor.linear_qq_m8_roofline_frac", "ratio", Higher),
    pl("tensor.linear_qq_m8_bytes", "bytes", Lower),
    pl("tensor.attn_step_q_fp8_us", "us", Lower),
    pl("tensor.attn_step_v_fp8_us", "us", Lower),
    pl("tensor.attn_step_q_f32_us", "us", Lower),
    pl("tensor.attn_step_v_f32_us", "us", Lower),
    pl("tensor.kv_append_fp8_ns", "ns", Lower),
    pl("tensor.kv_append_f32_ns", "ns", Lower),
    pl("tensor.act_quantize_melem_s", "Melem/s", Higher),
    pl("tensor.par_dispatch_us", "us", Lower),
    pl("tensor.kernel_alloc_bytes", "bytes", Lower),
    // nn, forwards
    pl("nn.plan_build_us", "us", Lower),
    pl("nn.share_conv", "ratio", Lower),
    pl("nn.share_linear", "ratio", Lower),
    pl("nn.share_matmul", "ratio", Lower),
    pl("nn.share_other", "ratio", Lower),
    pl("nn.fwd_self_frac", "ratio", Lower),
    pl("nn.allocs_per_fwd", "count", Lower),
    pl("nn.alloc_bytes_per_fwd", "bytes", Lower),
    pl("nn.arena_peak_kib", "KiB", Lower),
    pl("nn.macs_per_fwd", "count", Lower),
    pl("nn.eff_gflops", "GFLOP/s", Higher),
    // nn, decode
    pl("nn.prefill_ms", "ms", Lower),
    pl("nn.step_us_first", "us", Lower),
    pl("nn.step_us_last", "us", Lower),
    pl("nn.step_kernel_floor_us", "us", Lower),
    pl("nn.step_overhead_frac", "ratio", Lower),
    pl("nn.allocs_per_step", "count", Lower),
    pl("nn.alloc_bytes_per_step", "bytes", Lower),
    pl("nn.kv_bytes_per_token", "bytes", Lower),
    pl("nn.weight_bytes_per_token", "bytes", Lower),
    pl("nn.kv_greedy_agreement", "ratio", Higher),
    // core
    pl("core.calibrate_s", "s", Lower),
    pl("core.quantize_s", "s", Lower),
    pl("core.evaluate_s", "s", Lower),
    pl("core.pass_rate", "ratio", Higher),
    pl("core.session_new_us", "us", Lower),
    pl("core.spec_roundtrip_us", "us", Lower),
    // artifact
    pl("artifact.save_ms", "ms", Lower),
    pl("artifact.load_ms", "ms", Lower),
    pl("artifact.load_mib_s", "MiB/s", Higher),
    pl("artifact.first_fwd_ms", "ms", Lower),
    // serve
    pl("serve.overhead_ms", "ms", Lower),
    pl("serve.batch_exec_ms", "ms", Lower),
    pl("serve.queue_wait_ms", "ms", Lower),
    pl("serve.mean_batch_r60", "count", Higher),
    pl("serve.mean_batch_sat", "count", Higher),
    pl("serve.p95_ms_r60", "ms", Lower),
    pl("serve.p99_ms_r60", "ms", Lower),
    pl("serve.p50_ms_r120", "ms", Lower),
    pl("serve.p95_ms_r120", "ms", Lower),
    pl("serve.p99_ms_r120", "ms", Lower),
    pl("serve.slo_max_rps", "req/s", Higher),
    pl("serve.submitted", "count", Higher),
    pl("serve.completed", "count", Higher),
    pl("serve.rejected", "count", Lower),
    pl("serve.shed", "count", Lower),
    pl("serve.failed", "count", Lower),
    pl("serve.gen_late_max_ms", "ms", Lower),
    pl("serve.cpu_util", "ratio", Higher),
    pl("serve.gen_token_worker_us", "us", Lower),
    pl("serve.gen_overhead_frac", "ratio", Lower),
    pl("serve.stream_total_p50_ms", "ms", Lower),
    // trace
    pl("trace.overhead_frac", "ratio", Lower),
    pl("trace.events", "count", Lower),
];

/// Measured values by metric name. A name that is absent was not measured
/// on this workload (or its program span was missing): it prints as
/// `null` in the report and, because the contract line must hold numbers,
/// as 0 there.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub values: Values,
    /// Operations attempted in the timed phase and how many failed, were
    /// refused or failed an output check.
    pub attempted: u64,
    pub failed: u64,
    /// Free-form `key value` lines: sample counts per phase, caveats.
    pub notes: Vec<String>,
}

/// Shortest decimal that reads back as the same f64.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The names and units the run must report for this `--trace` value.
pub fn contract_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The last line of standard output, in the format the driver fixes.
pub fn contract_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = contract_metrics(trace)
        .into_iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(out.values.get(name).unwrap_or(0.0)),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// One `metric <name> <value|null> <unit>` line per metric; the full-run
/// mode parses these back.
pub fn metric_lines(out: &Outcome, trace: bool) -> String {
    let mut s = String::new();
    for (name, unit) in contract_metrics(trace) {
        let v = out.values.get(name).map_or("null".to_string(), num);
        writeln!(s, "metric {name} {v} {unit}").expect("string write");
    }
    s
}

/// In an untraced run, the raw (un-normalised) readings behind the gated
/// metrics: `raw <name> <value> <unit>` for each of the issue's
/// per-workload names the run measured.
pub fn raw_lines(out: &Outcome) -> String {
    let mut s = String::new();
    for m in PER_LAYER {
        if let Some(v) = out.values.get(m.name).filter(|_| !m.name.contains('.')) {
            writeln!(s, "raw {} {} {}", m.name, num(v), m.unit).expect("string write");
        }
    }
    s
}

/// `BENCHMARK.json`, generated so that it cannot drift from the tables.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("string write");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(w.name),
            json_str(w.why)
        )
        .expect("string write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name()),
            num(m.bound)
        )
        .expect("string write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.name())
        )
        .expect("string write");
    }
    s.push_str("  ]\n}\n");
    s
}
