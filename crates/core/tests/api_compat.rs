//! API-compat regression: every way into the [`PtqSession`] pipeline —
//! plain, through a [`CalibCache`], over pre-collected calibration data,
//! from an [`ptq_core::EngineSpec`], from a loaded artifact — must produce
//! bit-identical results.

use ptq_core::config::{Approach, DataFormat};
use ptq_core::{
    calibrate_workload, paper_recipe, run_suite, CalibCache, PtqSession, QuantOutcome, UnwrapOk,
};
use ptq_fp8::Fp8Format;
use ptq_models::{build_zoo, Workload, ZooFilter};
use ptq_nn::Param;

fn assert_outcomes_identical(a: &QuantOutcome, b: &QuantOutcome, what: &str) {
    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}: score");
    assert_eq!(a.result.workload, b.result.workload, "{what}: workload");
    assert_eq!(
        a.result.quantized.to_bits(),
        b.result.quantized.to_bits(),
        "{what}: result.quantized"
    );
    assert_eq!(
        a.result.fp32.to_bits(),
        b.result.fp32.to_bits(),
        "{what}: result.fp32"
    );
    assert_eq!(
        a.model.quantized_nodes, b.model.quantized_nodes,
        "{what}: quantized node set"
    );
    // Every parameter, quantized weights included: each quantized weight
    // is stored in the graph in place of its f32 tensor.
    assert_eq!(
        a.model.graph.params().count(),
        b.model.graph.params().count(),
        "{what}: parameter count"
    );
    for (id, pa) in a.model.graph.params() {
        let pb = b.model.graph.param(id).expect("same parameter ids");
        match (pa, pb) {
            (Param::F32(wa), Param::F32(wb)) => {
                assert_eq!(wa.shape(), wb.shape(), "{what}: param {id} shape");
                for (x, y) in wa.data().iter().zip(wb.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: param {id} bits");
                }
            }
            (Param::Fp8(qa), Param::Fp8(qb)) => {
                assert_eq!(qa, qb, "{what}: fp8 param {id} codes/scales")
            }
            _ => panic!("{what}: param {id} is stored differently"),
        }
    }
    assert_eq!(a.weight_bytes, b.weight_bytes, "{what}: weight_bytes");
    assert_eq!(
        a.weight_bytes_f32, b.weight_bytes_f32,
        "{what}: weight_bytes_f32"
    );
}

fn workloads() -> Vec<Workload> {
    // Three quick-zoo members spanning CV and NLP keep this fast while
    // still exercising BN recalibration and SmoothQuant recipe paths.
    let mut zoo = build_zoo(ZooFilter::Quick);
    zoo.truncate(3);
    zoo
}

#[test]
fn session_entry_points_agree_bit_for_bit() {
    for w in &workloads() {
        let cfg = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let session = PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();

        // Through a shared cache, cold then warm.
        let cache = CalibCache::new();
        for what in ["session with cache (cold)", "session with cache (warm)"] {
            let cached = PtqSession::new(cfg.clone())
                .cache(&cache)
                .quantize(w)
                .unwrap_ok();
            assert_outcomes_identical(&session, &cached, what);
        }

        // Over explicitly collected calibration data.
        let calib = calibrate_workload(w, &cfg).unwrap_ok();
        let with_session = PtqSession::new(cfg.clone())
            .quantize_calibrated(w, &calib)
            .unwrap_ok();
        assert_outcomes_identical(&session, &with_session, "with vs end-to-end");
    }
}

#[test]
fn weight_storage_modes_score_identically() {
    // Same arithmetic in both modes: identical scores, only the resident
    // weight representation differs.
    use ptq_core::WeightStorage;
    for w in &workloads() {
        let base = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let [stored, legacy] = [WeightStorage::Fp8, WeightStorage::FakeQuantF32].map(|storage| {
            PtqSession::new(base.clone().with_weight_storage(storage))
                .quantize(w)
                .unwrap_ok()
        });
        assert_eq!(
            stored.score.to_bits(),
            legacy.score.to_bits(),
            "{}: storage modes diverge",
            w.spec.name
        );
    }
}

#[test]
fn fp8_storage_reports_4x_weight_reduction_on_cv_and_nlp() {
    use ptq_metrics::Domain;
    let zoo = build_zoo(ZooFilter::Quick);
    for domain in [Domain::Cv, Domain::Nlp] {
        let w = zoo
            .iter()
            .find(|w| w.spec.domain == domain)
            .expect("quick zoo covers both domains");
        let cfg = paper_recipe(DataFormat::Fp8(Fp8Format::E4M3), Approach::Static, domain);
        let out = PtqSession::new(cfg).quantize(w).unwrap_ok();
        let mut params = out.model.graph.params();
        assert!(
            params.any(|(_, p)| matches!(p, Param::Fp8(_))),
            "{}: no fp8-stored weights",
            w.spec.name
        );
        let ratio = out.weight_bytes_f32 as f64 / out.weight_bytes as f64;
        assert!(
            ratio > 3.0 && ratio <= 4.0,
            "{}: expected ~4x weight reduction, got {ratio:.2}x ({} -> {} bytes)",
            w.spec.name,
            out.weight_bytes_f32,
            out.weight_bytes
        );
    }
}

#[test]
fn suite_rows_are_reproducible_through_the_session_path() {
    // run_suite executes through PtqSession internally; a second run (and
    // a run against a pre-warmed cache) must be bit-identical row-wise.
    let zoo = workloads();
    let e4m3 = DataFormat::Fp8(Fp8Format::E4M3);
    let cache = CalibCache::new();
    let a = run_suite(&zoo, e4m3, Approach::Static, &cache, |cfg| cfg);
    let b = run_suite(&zoo, e4m3, Approach::Static, &cache, |cfg| cfg);
    assert_eq!(a.label, b.label);
    assert!(
        a.errors.is_empty(),
        "quick workloads quantize: {:?}",
        a.errors
    );
    assert_eq!(a.results.len(), b.results.len());
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.quantized.to_bits(), y.quantized.to_bits());
        assert_eq!(x.fp32.to_bits(), y.fp32.to_bits());
    }
    assert_eq!(a.summary.all.to_bits(), b.summary.all.to_bits());

    // And per-row, each suite entry equals a standalone session run under
    // the same per-domain recipe.
    for (w, row) in zoo.iter().zip(&a.results) {
        let cfg = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let solo = PtqSession::new(cfg).quantize(w).unwrap_ok();
        assert_eq!(row.quantized.to_bits(), solo.result.quantized.to_bits());
    }
}

#[test]
fn from_spec_matches_the_builder_bit_for_bit() {
    // An EngineSpec wraps the QuantConfig: a session built from a spec
    // (including one that went through a JSON round-trip) must be
    // bit-identical to `PtqSession::new` with that QuantConfig.
    use ptq_core::EngineSpec;
    for w in &workloads() {
        let cfg = paper_recipe(
            DataFormat::Fp8(Fp8Format::E4M3),
            Approach::Static,
            w.spec.domain,
        );
        let builder = PtqSession::new(cfg.clone()).quantize(w).unwrap_ok();

        let spec = EngineSpec::from_config(&cfg);
        assert_eq!(
            spec.config, cfg,
            "{}: the spec holds the config",
            w.spec.name
        );
        let via_spec = PtqSession::from_spec(&spec).quantize(w).unwrap_ok();
        assert_outcomes_identical(&builder, &via_spec, "from_spec");

        let rehydrated = EngineSpec::from_json(&spec.to_json()).unwrap_ok();
        assert_eq!(spec, rehydrated, "{}: JSON round-trip", w.spec.name);
        let via_json = PtqSession::from_spec(&rehydrated).quantize(w).unwrap_ok();
        assert_outcomes_identical(&builder, &via_json, "from_spec via JSON");
    }
}

#[test]
fn with_artifact_restores_a_saved_session_bit_for_bit() {
    // Cold-start path: quantize + save, then re-enter the session flow via
    // `with_artifact` on the loaded file. No recalibration happens, and the
    // evaluation (plus a re-save) is bit-identical to the original run.
    use ptq_core::{PtqArtifact, QuantConfig};
    let scratch = |name: &str| {
        let mut p = std::env::temp_dir();
        p.push(format!("ptq-api-compat-{}-{name}", std::process::id()));
        p
    };
    let w = &workloads()[0];
    let cfg = paper_recipe(
        DataFormat::Fp8(Fp8Format::E4M3),
        Approach::Static,
        w.spec.domain,
    );
    let path = scratch("with_artifact.ptq");
    let saved = PtqSession::new(cfg.clone())
        .save_artifact(w, &path)
        .unwrap_ok();

    let art = PtqArtifact::load(&path).unwrap_ok();
    let reloaded = PtqSession::new(cfg.clone())
        .with_artifact(&art)
        .quantize(w)
        .unwrap_ok();
    assert_outcomes_identical(&saved, &reloaded, "with_artifact");

    // The adopted config comes from the artifact, so even a session seeded
    // with a *different* config evaluates the stored model identically.
    let mismatched = PtqSession::new(QuantConfig::int8())
        .with_artifact(&art)
        .quantize(w)
        .unwrap_ok();
    assert_outcomes_identical(&saved, &mismatched, "with_artifact (cfg override)");

    // Re-saving through the artifact-backed session reproduces the bytes.
    let resave = scratch("with_artifact_resave.ptq");
    PtqSession::new(cfg)
        .with_artifact(&art)
        .save_artifact(w, &resave)
        .unwrap_ok();
    assert_eq!(
        std::fs::read(&path).expect("read original"),
        std::fs::read(&resave).expect("read resave"),
        "artifact-backed re-save drifted"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&resave);
}
