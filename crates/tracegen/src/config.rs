//! Workload-generator configuration.
//!
//! Densities are expressed *per 100 hosts* so a configuration scales
//! from unit-test clusters (tens of hosts) to the paper's ~6,000-host
//! testbed without retuning.

/// Configuration of the synthetic workload generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed for population generation (physics noise derives
    /// per-entity sub-seeds from it).
    pub seed: u64,
    /// Number of hosts the workload is sized for.
    pub hosts: usize,
    /// Trace window length in days (the paper uses 8).
    pub days: u64,

    /// Latency-sensitive service applications per 100 hosts.
    pub ls_apps_per_100: f64,
    /// Latency-sensitive *reserved* applications per 100 hosts.
    pub lsr_apps_per_100: f64,
    /// Unclassified long-running applications per 100 hosts.
    pub unknown_apps_per_100: f64,
    /// System-agent applications per 100 hosts.
    pub system_apps_per_100: f64,
    /// VM-environment applications per 100 hosts.
    pub vmenv_apps_per_100: f64,
    /// Best-effort batch applications per 100 hosts.
    pub be_apps_per_100: f64,

    /// Mean LS replicas per application.
    pub ls_mean_replicas: f64,
    /// Mean LSR replicas per application.
    pub lsr_mean_replicas: f64,
    /// Mean replicas for unclassified/system/vmenv applications.
    pub other_mean_replicas: f64,
    /// Mean LS pod lifetime in days (replicas churn at this rate,
    /// producing the constant LS submission rate of Fig. 3(a)).
    pub ls_mean_lifetime_days: f64,

    /// Total BE pods per 100 hosts per day (across all BE apps).
    pub be_pods_per_100_per_day: f64,
    /// Bounded-Pareto shape of BE tasks-per-job (heavier tail → burstier
    /// arrivals, Fig. 7).
    pub be_tasks_per_job_alpha: f64,
    /// Maximum tasks per BE job.
    pub be_tasks_per_job_max: f64,
    /// Bounded-Pareto shape of BE nominal durations.
    pub be_duration_alpha: f64,
    /// Maximum BE nominal duration in ticks.
    pub be_duration_max_ticks: f64,

    /// Median LS CPU request (normalized cores; Fig. 6(a) shows ~0.05).
    pub ls_cpu_request_median: f64,
    /// Median BE CPU request (~0.03 in Fig. 6(a)).
    pub be_cpu_request_median: f64,
    /// Median LS memory request.
    pub ls_mem_request_median: f64,
    /// Median BE memory request.
    pub be_mem_request_median: f64,
    /// Log-scale spread of all request distributions.
    pub request_sigma: f64,

    /// Mean fraction of its CPU request an LS pod actually uses
    /// (Fig. 6(a): ~1/5).
    pub ls_cpu_usage_ratio: f64,
    /// Mean fraction of its CPU request a BE pod actually uses
    /// (Fig. 6(a): ~1/3).
    pub be_cpu_usage_ratio: f64,
    /// Fraction of its memory request an LS pod uses (stable;
    /// under-utilized per Fig. 6(b)).
    pub ls_mem_usage_ratio: f64,
    /// Fraction of its memory request a BE pod uses (~fully utilized).
    pub be_mem_usage_ratio: f64,
    /// Log-scale spread of the per-pod BE input-size factor (drives the
    /// high BE CPU CoV of Fig. 12(b)).
    pub be_input_sigma: f64,

    /// Amplitude of the LS diurnal QPS curve (Fig. 3(b)).
    pub diurnal_amp: f64,

    /// Fraction of the fleet each latency-sensitive application's
    /// affinity admits (services pin to hardware/zone subsets).
    pub ls_affinity_fraction: f64,
    /// Fraction of the fleet each best-effort application's affinity
    /// admits (batch is far less picky).
    pub be_affinity_fraction: f64,
}

impl WorkloadConfig {
    /// A workload sized for `hosts` hosts over `days` days with the
    /// calibrated default densities (matched against the published
    /// figures; see crate docs).
    pub fn sized(hosts: usize, days: u64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            hosts,
            days,
            ls_apps_per_100: 25.0,
            lsr_apps_per_100: 12.0,
            unknown_apps_per_100: 30.0,
            system_apps_per_100: 4.0,
            vmenv_apps_per_100: 3.0,
            be_apps_per_100: 15.0,
            ls_mean_replicas: 34.0,
            lsr_mean_replicas: 19.0,
            other_mean_replicas: 25.0,
            ls_mean_lifetime_days: 1.2,
            be_pods_per_100_per_day: 2000.0,
            be_tasks_per_job_alpha: 0.95,
            be_tasks_per_job_max: 60.0,
            be_duration_alpha: 0.26,
            be_duration_max_ticks: 5760.0,
            ls_cpu_request_median: 0.045,
            be_cpu_request_median: 0.05,
            ls_mem_request_median: 0.035,
            be_mem_request_median: 0.009,
            request_sigma: 0.55,
            ls_cpu_usage_ratio: 0.24,
            be_cpu_usage_ratio: 0.5,
            ls_mem_usage_ratio: 0.45,
            be_mem_usage_ratio: 0.95,
            be_input_sigma: 0.6,
            diurnal_amp: 0.45,
            ls_affinity_fraction: 0.12,
            be_affinity_fraction: 0.85,
        }
    }

    /// The paper's full testbed scale: ~6,000 hosts over 8 days.
    pub fn paper_scale(seed: u64) -> WorkloadConfig {
        WorkloadConfig::sized(6000, 8, seed)
    }

    /// A small configuration for unit tests: 40 hosts over 2 days.
    pub fn small(seed: u64) -> WorkloadConfig {
        WorkloadConfig::sized(40, 2, seed)
    }

    /// Scaling factor relative to the per-100-host densities.
    pub fn scale(&self) -> f64 {
        self.hosts as f64 / 100.0
    }

    /// Length of the trace window in ticks.
    pub fn window_ticks(&self) -> u64 {
        self.days * optum_types::TICKS_PER_DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_scales_with_hosts() {
        let c = WorkloadConfig::sized(300, 8, 1);
        assert_eq!(c.scale(), 3.0);
        assert_eq!(c.window_ticks(), 8 * 2880);
    }

    #[test]
    fn presets() {
        assert_eq!(WorkloadConfig::paper_scale(0).hosts, 6000);
        let s = WorkloadConfig::small(0);
        assert_eq!(s.hosts, 40);
        assert_eq!(s.days, 2);
    }
}
