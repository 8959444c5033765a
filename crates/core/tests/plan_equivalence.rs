//! Planned execution vs the reference loop (`Graph::run`), across the quick
//! zoo and every hook family the PTQ pipeline uses: ahead-of-time planning
//! with arena-reused buffers must be a pure performance transform — zero
//! numeric or observer-visible difference.

use ptq_core::config::{
    ActGranularity, ActivationStorage, Approach, DataFormat, Granularity, QuantConfig,
    WeightStorage,
};
use ptq_core::{paper_recipe, CalibrationHook, PtqSession, QuantizedModel, UnwrapOk};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo, Workload, ZooFilter};
use ptq_nn::{ActBinding, ExecHook, ExecPlan, Graph, NoopHook, PlanSet};
use ptq_tensor::Tensor;

fn plan_for(graph: &Graph, inputs: &[Tensor]) -> ExecPlan {
    let shapes: Vec<Vec<usize>> = inputs.iter().map(|t| t.shape().to_vec()).collect();
    graph.plan(&shapes).unwrap_ok()
}

fn assert_tensors_identical(a: &[Tensor], b: &[Tensor], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: output count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape");
        for (va, vb) in x.data().iter().zip(y.data()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: bits");
        }
    }
}

#[test]
fn plan_matches_interpreter_under_noop_across_zoo() {
    for w in &build_zoo(ZooFilter::Quick) {
        let inputs = &w.eval[0];
        let plan = plan_for(&w.graph, inputs);
        let interp = w.graph.run(inputs, &mut NoopHook).unwrap_ok();
        // Twice: the second pass runs on warmed (reused) arena buffers.
        for pass in 0..2 {
            let planned = plan.run(&w.graph, inputs, &mut NoopHook).unwrap_ok();
            assert_tensors_identical(
                &interp,
                &planned,
                &format!("{} noop pass {pass}", w.spec.name),
            );
        }
    }
}

#[test]
fn plan_drives_calibration_identically_across_zoo() {
    for w in &build_zoo(ZooFilter::Quick) {
        let inputs = &w.calib[0];
        let mut hi = CalibrationHook::new();
        w.graph.run(inputs, &mut hi).unwrap_ok();
        let plan = plan_for(&w.graph, inputs);
        let mut hp = CalibrationHook::new();
        plan.run(&w.graph, inputs, &mut hp).unwrap_ok();
        let (di, dp) = (hi.into_data(), hp.into_data());
        assert_eq!(di.stats.len(), dp.stats.len(), "{}", w.spec.name);
        for (k, si) in &di.stats {
            let sp = dp.stats.get(k).expect("same observed keys");
            assert_eq!(
                si.absmax.to_bits(),
                sp.absmax.to_bits(),
                "{} node {} input {}",
                w.spec.name,
                k.node,
                k.input
            );
        }
        assert_eq!(di.channel_absmax.len(), dp.channel_absmax.len());
        for (n, ci) in &di.channel_absmax {
            let cp = &dp.channel_absmax[n];
            for (a, b) in ci.iter().zip(cp) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} channel absmax", w.spec.name);
            }
        }
    }
}

#[test]
fn fp8_stored_weights_match_fake_quant_across_zoo() {
    // The weight-storage knob is a pure memory transform: executing
    // FP8-stored weights through the fused `*_q` kernels must be
    // bit-identical to the legacy fake-quant f32 path — for every quick-zoo
    // workload, all three FP8 formats, per-tensor and per-channel weight
    // scales, on both the interpreter and the planned executor.
    for w in &build_zoo(ZooFilter::Quick) {
        let base = QuantConfig::fp8(Fp8Format::E4M3);
        let calib = ptq_core::calibrate_workload(w, &base).unwrap_ok();
        let inputs = &w.eval[0];
        for f in Fp8Format::ALL {
            for granularity in [Granularity::PerTensor, Granularity::PerChannel] {
                let mut cfg = QuantConfig::fp8(f);
                cfg.weight_granularity = granularity;
                let stored =
                    QuantizedModel::build(w.graph.clone(), &calib, cfg.clone()).unwrap_ok();
                let legacy = QuantizedModel::build(
                    w.graph.clone(),
                    &calib,
                    cfg.with_weight_storage(WeightStorage::FakeQuantF32),
                )
                .unwrap_ok();
                let what = format!("{} {f} {granularity:?}", w.spec.name);
                let has_fused_weights = stored.graph.nodes().iter().any(|n| {
                    stored.quantized_nodes.contains(&n.id)
                        && matches!(n.op, ptq_nn::Op::Conv2d { .. } | ptq_nn::Op::Linear { .. })
                });
                assert_eq!(
                    !stored.qweights.is_empty(),
                    has_fused_weights,
                    "{what}: fp8 storage engaged exactly for fused-kernel ops"
                );
                assert!(legacy.qweights.is_empty(), "{what}: legacy mode is f32");

                let ref_out = legacy.graph.run(inputs, &mut legacy.hook()).unwrap_ok();
                let interp = stored.graph.run(inputs, &mut stored.hook()).unwrap_ok();
                assert_tensors_identical(&ref_out, &interp, &format!("{what} interp"));
                let plan = plan_for(&stored.graph, inputs);
                let planned = plan
                    .run(&stored.graph, inputs, &mut stored.hook())
                    .unwrap_ok();
                assert_tensors_identical(&ref_out, &planned, &format!("{what} planned"));
            }
        }
    }
}

#[test]
fn fp8_coded_activations_match_fake_quant_across_zoo() {
    // The tentpole invariant of the activation datapath: quantizing
    // activations to codes at op boundaries and running code×code kernels
    // must be bit-identical to the fake-quant f32 execution — for every
    // quick-zoo workload, all three FP8 formats, per-tensor and per-tile
    // activation scales, on both the interpreter and the planned executor.
    for w in &build_zoo(ZooFilter::Quick) {
        let base = QuantConfig::fp8(Fp8Format::E4M3);
        let calib = ptq_core::calibrate_workload(w, &base).unwrap_ok();
        let inputs = &w.eval[0];
        for f in Fp8Format::ALL {
            for gran in [ActGranularity::PerTensor, ActGranularity::PerTile(16)] {
                let cfg = QuantConfig::fp8(f).with_act_granularity(gran);
                let coded = QuantizedModel::build(w.graph.clone(), &calib, cfg.clone()).unwrap_ok();
                let legacy = QuantizedModel::build(
                    w.graph.clone(),
                    &calib,
                    cfg.with_activation_storage(ActivationStorage::FakeQuantF32),
                )
                .unwrap_ok();
                let what = format!("{} {f} {gran:?}", w.spec.name);

                let ref_out = legacy.graph.run(inputs, &mut legacy.hook()).unwrap_ok();
                legacy.reset_act_bytes();
                coded.reset_act_bytes();
                let interp = coded.graph.run(inputs, &mut coded.hook()).unwrap_ok();
                assert_tensors_identical(&ref_out, &interp, &format!("{what} interp"));
                let plan = plan_for(&coded.graph, inputs);
                // Twice: the second pass reuses the arena's code/scale
                // buffers, which must not change the arithmetic.
                for pass in 0..2 {
                    let planned = plan
                        .run(&coded.graph, inputs, &mut coded.hook())
                        .unwrap_ok();
                    assert_tensors_identical(
                        &ref_out,
                        &planned,
                        &format!("{what} planned pass {pass}"),
                    );
                }
                // The datapath actually engaged: codes are cheaper than the
                // dense f32 they replaced on every workload with an
                // eligible op.
                let has_coded_ops = coded
                    .graph
                    .nodes()
                    .iter()
                    .any(|n| (0..2).any(|i| coded.act_coding(n, i) != ActBinding::F32));
                if has_coded_ops {
                    assert!(
                        coded.act_bytes() < coded.act_bytes_f32(),
                        "{what}: act_bytes {} vs f32 {}",
                        coded.act_bytes(),
                        coded.act_bytes_f32()
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_kernels_match_scalar_reference_across_zoo() {
    // The tentpole invariant of the blocked micro-kernels: register
    // blocking, cache tiling and decode-once panels are pure performance
    // transforms — for every quick-zoo workload, all three FP8 formats,
    // per-tensor and per-tile activation scales, on both the interpreter
    // and the planned executor, the blocked path must be bit-identical to
    // the scalar reference loops.
    use ptq_nn::OnPath;
    use ptq_tensor::ops::KernelPath;
    for w in &build_zoo(ZooFilter::Quick) {
        let base = QuantConfig::fp8(Fp8Format::E4M3);
        let calib = ptq_core::calibrate_workload(w, &base).unwrap_ok();
        let inputs = &w.eval[0];
        for f in Fp8Format::ALL {
            for gran in [ActGranularity::PerTensor, ActGranularity::PerTile(16)] {
                let cfg = QuantConfig::fp8(f).with_act_granularity(gran);
                let blocked = QuantizedModel::build(w.graph.clone(), &calib, cfg).unwrap_ok();
                let mut scalar = OnPath(blocked.hook(), KernelPath::ScalarReference);
                let what = format!("{} {f} {gran:?}", w.spec.name);

                let ref_out = blocked.graph.run(inputs, &mut scalar).unwrap_ok();
                let interp = blocked.graph.run(inputs, &mut blocked.hook()).unwrap_ok();
                assert_tensors_identical(&ref_out, &interp, &format!("{what} interp"));
                let plan = plan_for(&blocked.graph, inputs);
                // Twice: the second pass reuses warmed per-thread decode
                // panels, which must not change the arithmetic.
                for pass in 0..2 {
                    let planned = plan
                        .run(&blocked.graph, inputs, &mut blocked.hook())
                        .unwrap_ok();
                    assert_tensors_identical(
                        &ref_out,
                        &planned,
                        &format!("{what} planned pass {pass}"),
                    );
                }
            }
        }
    }
}

#[test]
fn plan_matches_interpreter_under_quantized_hooks_across_zoo() {
    for w in &build_zoo(ZooFilter::Quick) {
        let cfg = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let model = PtqSession::new(cfg).quantize(w).unwrap_ok().model;
        let inputs = &w.eval[0];
        let interp = model.graph.run(inputs, &mut model.hook()).unwrap_ok();
        let plan = plan_for(&model.graph, inputs);
        // Twice: weights and activation codes are borrowed through the
        // hook's `bind`; a warmed arena must not change that.
        for pass in 0..2 {
            let planned = plan
                .run(&model.graph, inputs, &mut model.hook())
                .unwrap_ok();
            assert_tensors_identical(
                &interp,
                &planned,
                &format!("{} quantized pass {pass}", w.spec.name),
            );
        }
    }
}

/// `Workload::evaluate_graph` runs its batches through `PlanSet::run_each`
/// (on the pool, one batch per claim, where no kernel of the plan fans
/// out); an in-order loop over `PlanSet::run` under one hook is its
/// oracle. Same score bits and the same activation-byte accounting, under
/// the FP32 hook and the quantized one, on every quick-zoo workload.
#[test]
fn evaluation_matches_an_in_order_loop_across_zoo() {
    fn in_order(w: &Workload, graph: &Graph, hook: &mut dyn ExecHook) -> f64 {
        let plans = PlanSet::new();
        let outputs: Vec<Tensor> = w
            .eval
            .iter()
            .map(|batch| plans.run(graph, batch, hook).unwrap_ok().remove(0))
            .collect();
        w.metric.score(&outputs)
    }
    let (mut pooled, mut serial) = (0, 0);
    for w in &build_zoo(ZooFilter::Quick) {
        let name = &w.spec.name;
        if w.plans
            .plan_for(&w.graph, &w.eval[0])
            .unwrap_ok()
            .fans_out()
        {
            serial += 1;
        } else {
            pooled += 1;
        }
        let fp32 = in_order(w, &w.graph, &mut NoopHook);
        assert_eq!(
            w.evaluate(&NoopHook).unwrap_ok().to_bits(),
            fp32.to_bits(),
            "{name}"
        );
        assert_eq!(w.fp32_score.to_bits(), fp32.to_bits(), "{name}");

        let out = PtqSession::new(QuantConfig::fp8(Fp8Format::E4M3))
            .quantize(w)
            .unwrap_ok();
        let model = &out.model;
        model.reset_act_bytes();
        let score = in_order(w, &model.graph, &mut model.hook());
        assert_eq!(out.score.to_bits(), score.to_bits(), "{name}");
        assert_eq!(out.act_bytes, model.act_bytes(), "{name}");
        assert_eq!(out.act_bytes_f32, model.act_bytes_f32(), "{name}");
        assert!(out.act_bytes > 0, "{name}: nothing was accounted");
    }
    assert!(
        pooled > 0 && serial > 0,
        "both paths ran: {pooled} pooled, {serial} serial"
    );
}
