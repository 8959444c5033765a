//! A workload = model graph + calibration data + eval data + metric.

use crate::task::{CalibSource, Metric};
use ptq_metrics::{Domain, WorkloadResult};
use ptq_nn::{ExecHook, Graph, NoopHook, PlanSet, PtqError, UnwrapOk};
use ptq_tensor::Tensor;

/// Static description of a workload, independent of any quantization
/// configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Unique name, e.g. `resnet_like_20/imagenet_syn`.
    pub name: String,
    /// CV or NLP (audio/recsys analogues are tagged NLP for Table-2
    /// aggregation, as in the paper's CV/NLP/All split).
    pub domain: Domain,
    /// Architecture family slug (`resnet_like`, `bert_like`, …).
    pub family: String,
}

/// A fully-materialized workload.
///
/// Labels are defined by the FP32 model's own predictions on *clean*
/// inputs, and evaluation runs on *perturbed* inputs, so the FP32 baseline
/// is realistically below 100 % and quantization error degrades the score
/// through shifted decision margins (see crate docs and DESIGN.md).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Static description.
    pub spec: WorkloadSpec,
    /// The FP32 model.
    pub graph: Graph,
    /// Default calibration batches (each entry is a full `Graph::run`
    /// input set).
    pub calib: Vec<Vec<Tensor>>,
    /// Eval batches.
    pub eval: Vec<Vec<Tensor>>,
    /// Scoring rule (labels baked in).
    pub metric: Metric,
    /// FP32 baseline score, computed at construction.
    pub fp32_score: f64,
    /// Optional augmentable calibration pool (CV only; Figure 7).
    pub calib_source: Option<CalibSource>,
    /// Lazily-built execution plans, keyed by input shape. Serves both
    /// `self.graph` and structurally-identical clones of it (e.g. a
    /// quantized model's graph with recalibrated BatchNorm statistics).
    /// `Clone` yields a fresh empty set.
    pub plans: PlanSet,
}

impl Workload {
    /// Assemble a workload and compute its FP32 baseline.
    pub fn new(
        spec: WorkloadSpec,
        graph: Graph,
        calib: Vec<Vec<Tensor>>,
        eval: Vec<Vec<Tensor>>,
        metric: Metric,
        calib_source: Option<CalibSource>,
    ) -> Self {
        let mut w = Workload {
            spec,
            graph,
            calib,
            eval,
            metric,
            fp32_score: 0.0,
            calib_source,
            plans: PlanSet::new(),
        };
        w.fp32_score = w.evaluate(&NoopHook).unwrap_ok();
        w
    }

    /// Run every eval batch through the graph under `hook` and score the
    /// outputs.
    pub fn evaluate<H>(&self, hook: &H) -> Result<f64, PtqError>
    where
        H: ExecHook + Clone + Send + Sync,
    {
        self.evaluate_graph(&self.graph, hook)
    }

    /// Evaluate with a *different* graph (e.g. one whose BatchNorm running
    /// stats were recalibrated) under `hook`, surfacing malformed-graph and
    /// shape failures as typed errors instead of panicking.
    ///
    /// Executes through cached [`ExecPlan`](ptq_nn::ExecPlan)s (one per
    /// eval-batch shape), so repeated evaluation reuses arena buffers
    /// instead of re-validating and re-allocating every pass. The batches
    /// go through [`PlanSet::run_each`], each under its own clone of
    /// `hook`: they fan out on the pool when no kernel of their plans
    /// does, and the score is the same bits either way.
    pub fn evaluate_graph<H>(&self, graph: &Graph, hook: &H) -> Result<f64, PtqError>
    where
        H: ExecHook + Clone + Send + Sync,
    {
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.eval.len());
        for mut out in self.plans.run_each(graph, &self.eval, hook)? {
            match (out.pop(), out.is_empty()) {
                (Some(t), true) => outputs.push(t),
                _ => {
                    return Err(PtqError::Internal(
                        "workloads are single-output".to_string(),
                    ))
                }
            }
        }
        Ok(self.metric.score(&outputs))
    }

    /// Feed every calibration batch through the graph under `hook`
    /// (outputs are discarded — the hook's observers are the point).
    pub fn calibrate(&self, hook: &mut dyn ExecHook) -> Result<(), PtqError> {
        self.calibrate_graph(&self.graph, hook)
    }

    /// Calibrate against a different graph instance, surfacing failures as
    /// typed errors. Planned execution with the weights packed once, like
    /// [`Workload::evaluate_graph`], but in batch order on the caller under
    /// the one `hook` ([`PlanSet::run_all`]). The observers' running
    /// min/max/absmax (`TensorStats`) would come out the same in any order;
    /// fanning the batches out on the pool was measured slower (DESIGN
    /// §10.2).
    pub fn calibrate_graph(&self, graph: &Graph, hook: &mut dyn ExecHook) -> Result<(), PtqError> {
        self.plans.run_all(graph, &self.calib, hook)
    }

    /// Package a quantized score into the pass-rate record.
    pub fn result(&self, quantized_score: f64) -> WorkloadResult {
        WorkloadResult {
            workload: self.spec.name.clone(),
            domain: self.spec.domain,
            fp32: self.fp32_score,
            quantized: quantized_score,
            size_mb: self.graph.size_mb(),
        }
    }

    /// True if the model contains BatchNorm nodes (CV recalibration
    /// applies).
    pub fn has_batchnorm(&self) -> bool {
        !self
            .graph
            .nodes_of_class(ptq_nn::OpClass::BatchNorm)
            .is_empty()
    }
}
