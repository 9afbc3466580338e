//! Learned PSI-vs-host-utilization curves for a few applications,
//! plus the training data's utilization coverage — a view into what
//! the Interference Profiler actually learned.
use optum_experiments::{ExpConfig, Runner};
use optum_types::AppId;

fn main() {
    let mut runner = Runner::new(ExpConfig::fast()).unwrap();
    let (_, prof) = runner.profilers().unwrap();
    let td = runner.training().unwrap();
    // Also show the training data's host-util coverage.
    let mut hu: Vec<f64> = td.psi.iter().map(|s| s.host_cpu_util).collect();
    hu.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "training host-util: p50 {:.2} p90 {:.2} p99 {:.2} max {:.2}",
        hu[hu.len() / 2],
        hu[hu.len() * 9 / 10],
        hu[hu.len() * 99 / 100],
        hu[hu.len() - 1]
    );
    for app in [0u32, 5, 10, 20] {
        let profile = &td.app_profiles[app as usize];
        if !profile.seen {
            continue;
        }
        print!(
            "app {app} (maxcpu {:.2} qps {:.2}): ",
            profile.max_cpu_util, profile.max_qps_norm
        );
        for h in [0.2, 0.4, 0.6, 0.8, 0.95] {
            let p = prof.predict_psi_raw(
                AppId(app),
                profile.max_cpu_util,
                profile.max_mem_util,
                h,
                0.5,
                profile.max_qps_norm,
            );
            print!(
                "h{h}:{} ",
                p.map(|v| format!("{v:.3}")).unwrap_or("--".into())
            );
        }
        println!();
    }
}
