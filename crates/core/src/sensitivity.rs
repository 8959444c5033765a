//! Per-operator quantization sensitivity analysis.
//!
//! Appendix A.1: "there are some individual operators that have the most
//! impact on accuracy" — the tuner's operator-level fallbacks need to know
//! *which*. This module measures, for each quantizable node, the accuracy
//! (or output-MSE) impact of quantizing **only that node**, producing a
//! ranking the fallback search walks.

use crate::config::QuantConfig;
use crate::quantizer::{select_nodes, QuantizedModel};
use crate::workflow::calibrate_workload;
use ptq_models::Workload;
use ptq_nn::{NodeId, PtqError};
use serde::{Deserialize, Serialize};

/// Sensitivity of one node: the score drop when only this node is
/// quantized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSensitivity {
    /// Node id in the workload's graph.
    pub node: NodeId,
    /// The node's display name (e.g. `linear_26`).
    pub name: String,
    /// Operator class name.
    pub class: String,
    /// Workload score with only this node quantized.
    pub score: f64,
    /// Relative loss vs the FP32 baseline.
    pub loss: f64,
}

/// Per-node sensitivity profile of a workload under a config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityProfile {
    /// One entry per quantizable node, sorted most-sensitive first.
    pub nodes: Vec<NodeSensitivity>,
}

impl SensitivityProfile {
    /// The `k` most sensitive nodes (candidates for FP32 fallback).
    pub fn top(&self, k: usize) -> &[NodeSensitivity] {
        &self.nodes[..k.min(self.nodes.len())]
    }
}

/// Measure per-node sensitivity: for each node the config would quantize,
/// evaluate the workload with *only* that node quantized. `O(nodes ×
/// eval)` — intended for tuning sessions, not inner loops.
pub fn sensitivity_profile(
    workload: &Workload,
    cfg: &QuantConfig,
) -> Result<SensitivityProfile, PtqError> {
    let calib = calibrate_workload(workload, cfg)?;
    let all = select_nodes(&workload.graph, cfg);
    let mut nodes = Vec::with_capacity(all.len());
    for &keep in &all {
        let mut only_one = cfg.clone();
        for &id in &all {
            if id != keep {
                only_one.fallback.insert(id);
            }
        }
        let model = QuantizedModel::build(workload.graph.clone(), &calib, only_one)?;
        let score = workload.evaluate_graph(&model.graph, &model.hook())?;
        let node = &workload.graph.nodes()[keep];
        nodes.push(NodeSensitivity {
            node: keep,
            name: node.name.clone(),
            class: node.op.class().to_string(),
            score,
            loss: ptq_metrics::relative_loss(workload.fp32_score, score),
        });
    }
    nodes.sort_by(|a, b| b.loss.total_cmp(&a.loss));
    Ok(SensitivityProfile { nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantConfig;
    use ptq_fp8::Fp8Format;
    use ptq_models::{build_zoo, ZooFilter};
    use ptq_nn::UnwrapOk;

    #[test]
    fn profile_covers_all_quantizable_nodes_sorted() {
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[0];
        let cfg = QuantConfig::fp8(Fp8Format::E4M3);
        let profile = sensitivity_profile(w, &cfg).unwrap_ok();
        let expected = select_nodes(&w.graph, &cfg).len();
        assert_eq!(profile.nodes.len(), expected);
        for pair in profile.nodes.windows(2) {
            assert!(pair[0].loss >= pair[1].loss, "not sorted");
        }
        assert!(profile.top(2).len() <= 2);
    }

    #[test]
    fn single_node_loss_bounded_by_everything_quantized() {
        // Quantizing one node is (almost always) no worse than quantizing
        // all of them; allow small nonmonotonicity noise.
        let zoo = build_zoo(ZooFilter::Quick);
        let w = &zoo[1];
        let cfg = QuantConfig::fp8(Fp8Format::E5M2);
        let profile = sensitivity_profile(w, &cfg).unwrap_ok();
        let full = crate::PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();
        let max_single = profile.nodes.first().map(|n| n.loss).unwrap_or(0.0);
        assert!(
            max_single <= full.result.loss() + 0.1,
            "single {} vs full {}",
            max_single,
            full.result.loss()
        );
    }
}
