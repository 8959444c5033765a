//! Tier-1 guard for the serving spine. The concurrency and generation
//! suites live in `crates/serve` and only run under `--workspace`; this is
//! the thin slice plain `cargo test` exercises: one quick NLP workload is
//! quantized, saved with a non-default serving section, cold-loaded, and
//! served from the artifact alone.

use fp8_ptq::core::config::{Approach, DataFormat, WeightStorage};
use fp8_ptq::core::{paper_recipe, EngineSpec, PtqArtifact, PtqSession, ServeSpec};
use fp8_ptq::fp8::Fp8Format;
use fp8_ptq::metrics::Domain;
use fp8_ptq::models::{build_zoo_limited, Workload, ZooFilter};
use fp8_ptq::nn::UnwrapOk;
use ptq_serve::Engine;

/// Behind `Engine::from_artifact`, under both weight-storage modes (FP8
/// codes through the fused kernels, and the fake-quant f32 reference), the
/// serving section read back from the CONFIG chunk is the one that was
/// saved, every admitted request is accounted for
/// (`submitted == completed + shed + failed`, none failed), and each
/// reply is bit-identical to a direct `PlanSet` run.
#[test]
fn engine_from_artifact_conserves_requests_and_matches_direct_runs() {
    let zoo = build_zoo_limited(ZooFilter::Quick, 5);
    let w = &zoo[4];
    assert_eq!(w.spec.domain, Domain::Nlp, "{}", w.spec.name);
    for storage in [WeightStorage::Fp8, WeightStorage::FakeQuantF32] {
        serve_from_artifact(w, storage);
    }
}

fn serve_from_artifact(w: &Workload, storage: WeightStorage) {
    let serving = ServeSpec {
        queue_capacity: 64,
        default_deadline_ms: None,
        workers: 2,
    };
    let recipe = paper_recipe(
        DataFormat::Fp8(Fp8Format::E4M3),
        Approach::Static,
        Domain::Nlp,
    )
    .with_weight_storage(storage);
    let spec = EngineSpec::from_config(&recipe).with_serving(serving.clone());
    let path = std::env::temp_dir().join(format!("ptq-serve-spine-{}.ptq", std::process::id()));
    PtqSession::from_spec(&spec)
        .save_artifact(w, &path)
        .unwrap_ok();
    let art = PtqArtifact::load(&path).unwrap_ok();
    std::fs::remove_file(&path).expect("remove scratch artifact");
    assert_eq!(art.serving, serving);
    assert_eq!(art.model.config, recipe);

    let engine = Engine::from_artifact(&art).expect("engine starts");
    assert_eq!(engine.spec(), &serving);
    // Fewer requests than `queue_capacity`, so none is refused at the door.
    let requests = &w.eval[..w.eval.len().min(24)];
    let tickets: Vec<_> = requests
        .iter()
        .map(|sample| engine.submit(sample.clone()).expect("admitted"))
        .collect();
    for (sample, ticket) in requests.iter().zip(tickets) {
        let served = ticket.wait().expect("served");
        let direct = art
            .model
            .plans
            .run(&art.model.graph, sample, &mut art.model.hook())
            .unwrap_ok();
        assert_eq!(
            served, direct,
            "{storage}: batched reply drifted from a direct run"
        );
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, requests.len() as u64);
    assert_eq!(stats.failed, 0, "{storage}");
    assert_eq!(stats.submitted, stats.completed + stats.shed + stats.failed);
    engine.shutdown();
}
