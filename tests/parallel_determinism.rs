//! The parallel execution layer's determinism contract: every
//! parallelized path — forest training, profiler training, experiment
//! fan-out — produces bit-identical results for every thread count.

use optum_platform::experiments::{churn, endtoend, ExpConfig, Runner};
use optum_platform::ml::{Matrix, RandomForest, Regressor};
use optum_platform::optum::{InterferenceProfiler, ProfilerConfig, TracingCoordinator};
use optum_platform::sched::{AlibabaLike, BorgLike, Medea};
use optum_platform::sim::Scheduler;
use optum_platform::tracegen::{generate, WorkloadConfig};

fn tiny() -> ExpConfig {
    ExpConfig {
        hosts: 20,
        days: 1,
        seed: 3,
        shards: None,
    }
}

#[test]
fn forest_training_is_thread_count_invariant() {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| vec![i as f64, (i % 5) as f64, ((i * 7) % 11) as f64])
        .collect();
    let y: Vec<f64> = (0..80).map(|i| ((i % 5) * ((i * 7) % 11)) as f64).collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let mut serial = RandomForest::default_params(13);
    serial.fit(&x, &y).unwrap();
    let serial_preds = serial.predict_matrix(&x);
    for threads in [2, 5, 16] {
        let mut par = RandomForest::default_params(13).with_threads(threads);
        par.fit(&x, &y).unwrap();
        let preds = par.predict_matrix(&x);
        for (a, b) in serial_preds.iter().zip(&preds) {
            assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
        }
    }
}

#[test]
fn profiler_training_is_thread_count_invariant() {
    let w = generate(&WorkloadConfig::sized(20, 1, 9)).unwrap();
    let training = TracingCoordinator::new(20, 1).collect(&w).unwrap();
    let mapes = |threads: usize| {
        let p = InterferenceProfiler::train(
            &training,
            ProfilerConfig {
                threads,
                ..ProfilerConfig::default()
            },
        )
        .unwrap();
        let mut ls = p.ls_mapes();
        let mut be = p.be_mapes();
        ls.sort_by_key(|(a, _)| a.0);
        be.sort_by_key(|(a, _)| a.0);
        (ls, be)
    };
    let serial = mapes(1);
    assert_eq!(serial, mapes(4));
}

#[test]
fn runner_fan_out_matches_serial_evals() {
    let runner = Runner::new(tiny()).unwrap();
    let roster = || -> Vec<Box<dyn Scheduler + Send>> {
        vec![
            Box::new(AlibabaLike::default()),
            Box::new(BorgLike::default()),
            Box::new(Medea::default()),
        ]
    };
    let serial: Vec<_> = roster()
        .into_iter()
        .map(|s| runner.run_eval(&runner.workload, s, |_| {}).unwrap())
        .collect();
    for threads in [2, 3] {
        let mut parallel_runner = Runner::new(tiny()).unwrap();
        parallel_runner.set_threads(threads);
        let parallel = parallel_runner.run_evals(roster()).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.scheduler, b.scheduler, "threads={threads}");
            assert_eq!(a.outcomes, b.outcomes, "threads={threads}");
            assert_eq!(a.violations, b.violations, "threads={threads}");
        }
    }
}

#[test]
fn figure_tsv_is_byte_identical_across_thread_counts() {
    let render = |threads: usize| {
        let mut runner = Runner::new(tiny()).unwrap();
        runner.set_threads(threads);
        endtoend::fig19(&mut runner).unwrap().render()
    };
    assert_eq!(render(1), render(3));
}

#[test]
fn churn_experiment_is_byte_identical_across_thread_counts() {
    // A reduced grid (one healthy arm, one stormy arm) keeps the test
    // cheap; the fan-out still interleaves chaos and healthy runs
    // across workers, which is exactly what must not leak into
    // results.
    let grid = [f64::INFINITY, 0.5];
    let render = |threads: usize| {
        let mut runner = Runner::new(tiny()).unwrap();
        runner.set_threads(threads);
        churn::churn_grid(&mut runner, &grid).unwrap().render()
    };
    let serial = render(1);
    assert!(serial.contains("0.50"), "stormy arm missing from output");
    assert_eq!(serial, render(3));
}
