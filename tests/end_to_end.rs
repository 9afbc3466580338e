//! End-to-end integration: the full pipeline from workload generation
//! through profiling, training and scheduling, across crates.

use optum_platform::optum::{OptumConfig, OptumScheduler, ProfilerConfig, TracingCoordinator};
use optum_platform::sched::{AlibabaLike, BorgLike, Medea, NSigmaSched, RcLike};
use optum_platform::sim::{run, SimConfig};
use optum_platform::tracegen::{generate, WorkloadConfig};
use optum_platform::types::{SloClass, Tick};

const HOSTS: usize = 40;

fn workload() -> optum_platform::tracegen::Workload {
    generate(&WorkloadConfig::sized(HOSTS, 2, 77)).expect("generation succeeds")
}

#[test]
fn full_optum_pipeline_improves_on_reference() {
    let w = workload();
    let training = TracingCoordinator::new(HOSTS, 2)
        .collect(&w)
        .expect("profiling");
    assert!(!training.psi.is_empty());
    assert!(training.ero.observed_pairs() > 10);

    let optum =
        OptumScheduler::from_training(OptumConfig::default(), &training, ProfilerConfig::default())
            .expect("training succeeds");
    let reference = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).expect("reference run");
    let result = run(&w, optum, SimConfig::new(HOSTS)).expect("optum run");

    // Affinity subsets at this tiny scale are ~5 hosts per LS app;
    // a small unplaceable residue is expected.
    assert!(
        result.placement_rate() > 0.96,
        "optum placed {}",
        result.placement_rate()
    );
    // The headline: higher active-host utilization than the
    // production-like reference, with no capacity violations.
    let (base, opt) = (
        reference.mean_active_cpu_util(),
        result.mean_active_cpu_util(),
    );
    assert!(
        opt > base + 0.02,
        "expected consolidation: optum {opt:.3} vs reference {base:.3}"
    );
    assert!(result.violations.rate() < 0.01);
}

#[test]
fn all_baselines_complete_and_place_everything() {
    let w = workload();
    let schedulers: Vec<Box<dyn optum_platform::sim::Scheduler>> = vec![
        Box::new(AlibabaLike::default()),
        Box::new(RcLike::default()),
        Box::new(NSigmaSched::default()),
        Box::new(BorgLike::default()),
        Box::new(Medea::default()),
    ];
    for sched in schedulers {
        let name = sched.name();
        let r = run(&w, sched, SimConfig::new(HOSTS)).expect("run succeeds");
        assert!(
            r.placement_rate() > 0.97,
            "{name} placed only {:.3}",
            r.placement_rate()
        );
        assert_eq!(r.outcomes.len(), w.pods.len());
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let w = workload();
    let r1 = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).unwrap();
    let r2 = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).unwrap();
    assert_eq!(r1.outcomes, r2.outcomes);
    assert_eq!(r1.violations, r2.violations);
    let c1: Vec<_> = r1.cluster_series.iter().map(|s| s.mean_cpu_util).collect();
    let c2: Vec<_> = r2.cluster_series.iter().map(|s| s.mean_cpu_util).collect();
    assert_eq!(c1, c2);
}

#[test]
fn different_schedulers_same_workload_same_pod_set() {
    // Physics is placement-independent: every scheduler sees the same
    // pods with the same arrivals and nominal durations.
    let w = workload();
    let a = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).unwrap();
    let b = run(&w, BorgLike::default(), SimConfig::new(HOSTS)).unwrap();
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.nominal_duration, y.nominal_duration);
        assert_eq!(x.slo, y.slo);
    }
}

#[test]
fn outcome_invariants_hold() {
    let w = workload();
    let r = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).unwrap();
    let window = Tick(w.config.window_ticks());
    for o in &r.outcomes {
        if let Some(placed) = o.placed_at {
            assert!(placed >= o.arrival, "placed before arrival");
            assert!(placed < window);
            assert_eq!(o.wait_ticks, placed.0 - o.arrival.0);
        }
        if let Some(done) = o.completed_at {
            let placed = o.placed_at.expect("completed implies placed");
            assert!(done >= placed);
            let actual = o.actual_duration.expect("completed implies duration");
            assert_eq!(actual, done.0 - placed.0 + 1);
            if o.slo == SloClass::Be {
                // Contention only slows batch work down.
                assert!(
                    actual + 1 >= o.nominal_duration,
                    "BE pod finished impossibly fast: {actual} < {}",
                    o.nominal_duration
                );
            }
        }
        assert!((0.0..=1.0).contains(&o.worst_psi));
        assert!(o.max_pod_cpu_util >= 0.0);
        assert!(
            o.max_host_cpu_util <= 1.0 + 1e-9,
            "host util is capacity-clamped"
        );
    }
}

#[test]
fn lsr_pods_wait_less_than_be() {
    let w = workload();
    let r = run(&w, AlibabaLike::default(), SimConfig::new(HOSTS)).unwrap();
    let mean_wait = |slo: SloClass| {
        let waits: Vec<f64> = r.outcomes_of(slo).map(|o| o.wait_ticks as f64).collect();
        waits.iter().sum::<f64>() / waits.len().max(1) as f64
    };
    // LSR pods preempt BE pods, so they never wait longer on average.
    assert!(
        mean_wait(SloClass::Lsr) <= mean_wait(SloClass::Be) + 1.0,
        "LSR {} vs BE {}",
        mean_wait(SloClass::Lsr),
        mean_wait(SloClass::Be)
    );
}

#[test]
fn triple_ero_collection_tightens_predictions() {
    use optum_platform::predictors::{
        NodeObservation, OptumPredictor, OptumPredictorTriple, PodInfo, UsagePredictor,
    };
    use optum_platform::sim::SimConfig;

    let w = workload();
    let mut cfg = SimConfig::new(HOSTS);
    cfg.collect_training = true;
    cfg.collect_triple_ero = true;
    let r = run(&w, AlibabaLike::default(), cfg).expect("profiling run");
    let training = r.training.expect("training collected");
    let triples = training.triples.as_ref().expect("triples collected");
    assert!(
        triples.observed() > 10,
        "only {} triples",
        triples.observed()
    );

    // On a synthetic host drawn from real co-located apps, the
    // triple-wise composition is never looser than pairwise.
    let pods: Vec<PodInfo> = w
        .pods
        .iter()
        .take(12)
        .map(|p| PodInfo {
            app: p.spec.app,
            request: p.spec.request,
            limit: p.spec.limit,
        })
        .collect();
    let obs = NodeObservation {
        capacity: optum_platform::types::Resources::UNIT,
        pods: &pods,
        cpu_history: &[],
        mem_history: &[],
    };
    let pairwise = OptumPredictor.predict(&obs, &training);
    let triple = OptumPredictorTriple.predict(&obs, &training);
    assert!(
        triple.cpu <= pairwise.cpu + 1e-9,
        "triple {:.4} vs pairwise {:.4}",
        triple.cpu,
        pairwise.cpu
    );
    assert!(triple.cpu > 0.0);
}
