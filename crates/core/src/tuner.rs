//! Accuracy-driven automatic tuning (Appendix A.1).
//!
//! The tuner walks a recipe lattice from cheapest (most aggressive
//! quantization) to most conservative, evaluating each candidate until the
//! accuracy criterion is met. The candidate order mirrors the paper's
//! tuning options: data format, static/dynamic approach, mixed formats,
//! operator-type fallbacks (e.g. LayerNorm), and finally individual
//! first/last-operator fallbacks.

use crate::calib_cache::CalibCache;
use crate::config::{Approach, DataFormat, QuantConfig};
use crate::session::PtqSession;
use crate::workflow::{paper_mixed_recipe, paper_recipe};
use ptq_fp8::Fp8Format;
use ptq_metrics::{passes_criterion, Domain};
use ptq_models::Workload;
use ptq_nn::OpClass;
use serde::{Deserialize, Serialize};

/// One named candidate configuration.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Human-readable name shown in tuning traces.
    pub name: String,
    /// The configuration to try.
    pub config: QuantConfig,
}

/// One evaluated tuning step.
///
/// A candidate whose evaluation *fails* (malformed graph, shape error,
/// kernel panic) is still recorded — with `score` NaN, `loss` infinite,
/// `passed` false and `error` set — so the lattice walk continues past it
/// instead of unwinding the whole tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneStep {
    /// Candidate name.
    pub name: String,
    /// Quantized score (NaN if the candidate failed to evaluate).
    pub score: f64,
    /// Relative loss vs FP32 (infinite if the candidate failed).
    pub loss: f64,
    /// Whether the criterion was met.
    pub passed: bool,
    /// Why the candidate failed to evaluate, if it did.
    pub error: Option<String>,
}

/// Tuning outcome: the trace and the first (cheapest) passing recipe.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Every evaluated step, in order.
    pub trace: Vec<TuneStep>,
    /// Index into `trace` of the accepted recipe, if any passed.
    pub accepted: Option<usize>,
    /// The accepted configuration.
    pub config: Option<QuantConfig>,
}

/// The accuracy-driven tuner.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    /// Relative-loss criterion (default 1 %).
    pub criterion: f64,
}

impl Default for AutoTuner {
    fn default() -> Self {
        AutoTuner {
            criterion: ptq_metrics::DEFAULT_CRITERION,
        }
    }
}

impl AutoTuner {
    /// Default tuner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate lattice for a workload, cheapest first.
    pub fn candidates(&self, workload: &Workload) -> Vec<Recipe> {
        let d = workload.spec.domain;
        let mut v = vec![
            Recipe {
                name: "E4M3 static".into(),
                config: paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Static, d),
            },
            Recipe {
                name: "E3M4 static".into(),
                config: paper_recipe(DataFormat::Fp8(Fp8Format::E3M4), Approach::Static, d),
            },
            Recipe {
                name: "E4M3 dynamic".into(),
                config: paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Dynamic, d),
            },
            Recipe {
                name: "mixed E4M3:E3M4".into(),
                config: paper_mixed_recipe(d),
            },
        ];
        // Fallback variants: exclude LayerNorm-class ops from extended
        // coverage is implicit (standard coverage); instead offer
        // first/last-op fallbacks for CNNs and per-op fallback of the
        // largest Linear for transformers.
        if d == Domain::Cv {
            let mut c = paper_recipe(DataFormat::Fp8(Fp8Format::E3M4), Approach::Static, d);
            c.quantize_first_last = false; // already default; explicit
            v.push(Recipe {
                name: "E3M4 static + first/last FP32".into(),
                config: c,
            });
        } else {
            // Fall back the final Linear (task head) to FP32.
            let linears = workload.graph.nodes_of_class(OpClass::Linear);
            if let Some(&last) = linears.last() {
                v.push(Recipe {
                    name: "E4M3 dynamic + head FP32".into(),
                    config: paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Dynamic, d)
                        .with_fallback(last),
                });
            }
        }
        v
    }

    /// Tune a workload: evaluate the lattice candidates in order and
    /// accept the first (cheapest) one that meets the criterion. When every
    /// candidate fails, operator-level tuning (Appendix A.1) takes over:
    /// rank the nodes by individual quantization sensitivity and retry the
    /// best lattice recipe with the top-`k` offenders falling back to FP32,
    /// for k = 1, 2, 4.
    ///
    /// One [`CalibCache`] is shared by the lattice walk and the fallback
    /// retries, so they sweep the workload's calibration set once per
    /// observer family rather than once per recipe.
    ///
    /// Fail-soft: a candidate that fails to evaluate is recorded with its
    /// `error` and the walk continues; a workload that cannot even be
    /// profiled ends the search with a `sensitivity profile` error step.
    pub fn tune(&self, workload: &Workload) -> TuneOutcome {
        let cache = CalibCache::new();
        let candidates = self.candidates(workload);
        let mut trace = Vec::new();
        let accept = |trace: Vec<TuneStep>, config: &QuantConfig| TuneOutcome {
            accepted: Some(trace.len() - 1),
            config: Some(config.clone()),
            trace,
        };
        let reject = |trace| TuneOutcome {
            trace,
            accepted: None,
            config: None,
        };
        for recipe in &candidates {
            let name = recipe.name.clone();
            if self.evaluate(workload, &cache, name, &recipe.config, &mut trace) {
                return accept(trace, &recipe.config);
            }
        }
        // Failed candidates carry loss = +inf, so total_cmp ranks them last
        // (and a trace of nothing but failures picks the first recipe).
        let best = trace
            .iter()
            .zip(&candidates)
            .min_by(|a, b| a.0.loss.total_cmp(&b.0.loss))
            .map(|(_, recipe)| recipe);
        let Some(best) = best else {
            return reject(trace);
        };
        let profile = match crate::sensitivity::sensitivity_profile(workload, &best.config) {
            Ok(p) => p,
            Err(e) => {
                trace.push(self.step(workload, "sensitivity profile".to_string(), Err(e)));
                return reject(trace);
            }
        };
        for k in [1usize, 2, 4] {
            let mut cfg = best.config.clone();
            cfg.fallback.extend(profile.top(k).iter().map(|n| n.node));
            let name = format!("{} + top-{k} sensitive ops FP32", best.name);
            if self.evaluate(workload, &cache, name, &cfg, &mut trace) {
                return accept(trace, &cfg);
            }
        }
        reject(trace)
    }

    /// Quantize `workload` under `config`, append the resulting step to
    /// `trace` and report whether it met the criterion.
    fn evaluate(
        &self,
        workload: &Workload,
        cache: &CalibCache,
        name: String,
        config: &QuantConfig,
        trace: &mut Vec<TuneStep>,
    ) -> bool {
        let mut sp = ptq_trace::span(ptq_trace::Level::Info, "tune.candidate");
        let result = PtqSession::new(config.clone())
            .cache(cache)
            .quantize(workload)
            .map(|out| out.score);
        let step = self.step(workload, name, result);
        if sp.active() {
            sp.record_str("workload", &workload.spec.name);
            sp.record_str("recipe", &step.name);
            sp.record_f64("score", step.score);
            sp.record_f64("loss", step.loss);
            sp.record_int("passed", i64::from(step.passed));
        }
        drop(sp);
        let passed = step.passed;
        trace.push(step);
        passed
    }

    /// The trace entry for a candidate's score, or for why it has none.
    fn step(
        &self,
        workload: &Workload,
        name: String,
        score: Result<f64, ptq_nn::PtqError>,
    ) -> TuneStep {
        match score {
            Ok(score) => TuneStep {
                name,
                score,
                loss: ptq_metrics::relative_loss(workload.fp32_score, score),
                passed: passes_criterion(workload.fp32_score, score, self.criterion),
                error: None,
            },
            Err(e) => TuneStep {
                name,
                score: f64::NAN,
                loss: f64::INFINITY,
                passed: false,
                error: Some(e.to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptq_models::{build_zoo, ZooFilter};

    #[test]
    fn tuner_terminates_and_traces() {
        let zoo = build_zoo(ZooFilter::Quick);
        let tuner = AutoTuner::new();
        let out = tuner.tune(&zoo[0]);
        assert!(!out.trace.is_empty());
        if let Some(i) = out.accepted {
            assert!(out.trace[i].passed);
            assert!(out.config.is_some());
            // First-fit: nothing before the accepted step passed.
            for s in &out.trace[..i] {
                assert!(!s.passed);
            }
        }
    }

    #[test]
    fn relaxed_criterion_accepts_earlier() {
        let zoo = build_zoo(ZooFilter::Quick);
        let strict = AutoTuner { criterion: 0.0001 };
        let loose = AutoTuner { criterion: 0.5 };
        let w = &zoo[1];
        let s = strict.tune(w);
        let l = loose.tune(w);
        // The loose tuner accepts at least as early as the strict one.
        let si = s.accepted.unwrap_or(usize::MAX);
        let li = l.accepted.unwrap_or(usize::MAX);
        assert!(li <= si, "loose {li} vs strict {si}");
    }

    #[test]
    fn tuner_is_fail_soft_on_broken_workloads() {
        let zoo = build_zoo(ZooFilter::Quick);
        let mut broken = zoo[0].clone();
        broken.spec.name = format!("{}/broken", broken.spec.name);
        broken.eval = vec![vec![]]; // no eval inputs -> arity error
        let tuner = AutoTuner::new();

        // Every candidate fails but is recorded; nothing is accepted and
        // nothing panics — not even the post-lattice fallback search.
        let out = tuner.tune(&broken);
        assert!(out.accepted.is_none());
        assert!(!out.trace.is_empty());
        for s in &out.trace {
            assert!(s.error.is_some(), "step {} should carry an error", s.name);
            assert!(s.score.is_nan());
            assert!(s.loss.is_infinite());
            assert!(!s.passed);
        }
    }

    #[test]
    fn candidates_differ_by_domain() {
        let zoo = build_zoo(ZooFilter::Quick);
        let tuner = AutoTuner::new();
        let cv = zoo
            .iter()
            .find(|w| w.spec.domain == ptq_metrics::Domain::Cv)
            .unwrap();
        let nlp = zoo
            .iter()
            .find(|w| w.spec.domain == ptq_metrics::Domain::Nlp)
            .unwrap();
        let c_cv = tuner.candidates(cv);
        let c_nlp = tuner.candidates(nlp);
        assert!(c_cv.iter().any(|r| r.name.contains("first/last")));
        assert!(c_nlp.iter().any(|r| r.name.contains("head FP32")));
    }
}
