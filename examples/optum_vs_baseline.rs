//! The paper's headline experiment in miniature: profile the workload
//! under the production scheduler, train Optum's offline profilers,
//! and compare utilization and pod performance across schedulers.
//!
//! ```text
//! cargo run --release --example optum_vs_baseline
//! ```

use optum_platform::optum::{OptumConfig, OptumScheduler, ProfilerConfig, TracingCoordinator};
use optum_platform::sched::{AlibabaLike, BorgLike, RcLike};
use optum_platform::sim::{run, SimConfig, SimResult};
use optum_platform::tracegen::{generate, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hosts = 60;
    let workload = generate(&WorkloadConfig::sized(hosts, 2, 42))?;

    // Phase 1 (❶–❸): the Tracing Coordinator collects profiling data
    // and the Offline Profiler trains per-application models.
    println!("profiling run + offline training…");
    let coordinator = TracingCoordinator::new(hosts, 2);
    let training = coordinator.collect(&workload)?;
    println!(
        "  {} PSI samples, {} completion samples, {} co-location pairs",
        training.psi.len(),
        training.ct.len(),
        training.ero.observed_pairs()
    );
    let optum = OptumScheduler::from_training(
        OptumConfig::default(),
        &training,
        ProfilerConfig::default(),
    )?;

    // Phase 2 (❹–❼): every scheduler replays the same workload.
    println!("evaluation runs…");
    let reference = run(&workload, AlibabaLike::default(), SimConfig::new(hosts))?;
    let contenders: Vec<SimResult> = vec![
        run(&workload, optum, SimConfig::new(hosts))?,
        run(&workload, RcLike::default(), SimConfig::new(hosts))?,
        run(&workload, BorgLike::default(), SimConfig::new(hosts))?,
    ];

    let base = reference.mean_active_cpu_util();
    println!(
        "\n{:<12} {:>10} {:>12} {:>10}",
        "scheduler", "util", "improvement", "violations"
    );
    println!(
        "{:<12} {:>9.1}% {:>12} {:>10.5}",
        reference.scheduler,
        base * 100.0,
        "—",
        reference.violations.rate()
    );
    for r in &contenders {
        let u = r.mean_active_cpu_util();
        println!(
            "{:<12} {:>9.1}% {:>+10.1}pp {:>10.5}",
            r.scheduler,
            u * 100.0,
            (u - base) * 100.0,
            r.violations.rate()
        );
    }
    Ok(())
}
