//! Application profiles and the ground-truth performance physics.
//!
//! Each application owns the parameters of its pods' behavior: request
//! sizes, usage patterns, and — crucially — the *physics* mapping
//! runtime conditions to performance:
//!
//! * LS pods: instantaneous CPU PSI as a saturating (sigmoid) function
//!   of host CPU utilization, scaled by pod utilization and QPS
//!   (reproducing the correlations of Figs. 13–15);
//! * BE pods: a progress rate below 1 under host contention, inflating
//!   completion time (Fig. 16).
//!
//! All physics methods are pure functions of (identity, tick, host
//! state) with hash-based noise, so every scheduler sees the same world.

use optum_stats::{BoundedPareto, Diurnal};
use optum_types::{AppId, PodId, PodSpec, SloClass, Tick};

use crate::physics::{hash_noise, hash_noise_signed, keyed_noise, sigmoid, signed};

/// Parameters of a latency-sensitive (LS/LSR) application.
#[derive(Debug, Clone, PartialEq)]
pub struct LsParams {
    /// Steady-state replica count.
    pub replicas: usize,
    /// Per-pod diurnal QPS curve.
    pub qps: Diurnal,
    /// Mean pod lifetime in ticks (replicas churn, keeping the LS
    /// submission rate constant as in Fig. 3(a)).
    pub mean_lifetime_ticks: f64,
    /// Fraction of the CPU request used at zero load.
    pub cpu_floor: f64,
    /// Additional fraction of the CPU request used at peak QPS.
    pub cpu_span: f64,
    /// Stable fraction of the memory request in use.
    pub mem_util: f64,
    /// PSI sensitivity (peak pressure this app can experience).
    pub psi_sens: f64,
    /// Host CPU utilization at which pressure starts rising fast.
    pub psi_threshold: f64,
    /// Steepness of the pressure rise.
    pub psi_beta: f64,
    /// Base response time in milliseconds at zero pressure.
    pub rt_base_ms: f64,
}

/// Parameters of a best-effort (batch) application.
#[derive(Debug, Clone, PartialEq)]
pub struct BeParams {
    /// Job arrival rate per tick (anti-phase to the LS diurnal:
    /// valley filling).
    pub job_rate: Diurnal,
    /// Tasks spawned per job (heavy-tailed).
    pub tasks_per_job: BoundedPareto,
    /// Nominal task duration in ticks (heavy-tailed).
    pub duration: BoundedPareto,
    /// Mean fraction of the CPU request actually used.
    pub cpu_ratio: f64,
    /// Fraction of the memory request actually used (~1: BE memory is
    /// nearly fully utilized, Fig. 6(b)).
    pub mem_ratio: f64,
    /// Completion-time sensitivity to host CPU contention above the
    /// threshold.
    pub ct_cpu_sens: f64,
    /// Host CPU utilization where contention starts to bite.
    pub ct_cpu_threshold: f64,
    /// Completion-time sensitivity to host memory pressure.
    pub ct_mem_sens: f64,
    /// Host memory utilization where memory pressure starts to bite.
    pub ct_mem_threshold: f64,
}

/// Parameters of unclassified / system / VM-environment applications:
/// steady background consumers with no performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtherParams {
    /// Steady-state replica count.
    pub replicas: usize,
    /// Constant fraction of the CPU request in use.
    pub cpu_util: f64,
    /// Constant fraction of the memory request in use.
    pub mem_util: f64,
    /// Mean pod lifetime in ticks.
    pub mean_lifetime_ticks: f64,
}

/// Class-specific behavior of an application.
#[derive(Debug, Clone, PartialEq)]
pub enum AppKind {
    /// Latency-sensitive service (LS or LSR).
    Ls(LsParams),
    /// Best-effort batch.
    Be(BeParams),
    /// Background classes without explicit SLOs.
    Other(OtherParams),
}

/// A generated pod: the schedulable spec plus its fixed behavioral
/// factors.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPod {
    /// The unified request visible to the scheduler.
    pub spec: PodSpec,
    /// Multiplicative input-size factor on CPU usage and nominal work
    /// (high spread for BE → the CPU CoV of Fig. 12(b)).
    pub input_factor: f64,
    /// Multiplicative call-chain factor on response time (high spread
    /// → the RT CoV of Fig. 12(a)).
    pub rt_factor: f64,
}

/// One application's static profile, including its performance physics.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application identifier.
    pub id: AppId,
    /// SLO class shared by every pod of the app.
    pub slo: SloClass,
    /// CPU request of each pod (normalized cores).
    pub cpu_request: f64,
    /// Memory request of each pod.
    pub mem_request: f64,
    /// `limit = request × limit_factor` for both dimensions.
    pub limit_factor: f64,
    /// Class-specific behavior.
    pub kind: AppKind,
    /// Fraction of the fleet this app's affinity admits.
    pub affinity_fraction: f64,
    /// Derived noise seed (unique per app).
    pub seed: u64,
}

/// Per-(app, tick) physics terms, hoisted out of the per-pod hot loops
/// by [`AppProfile::tick_terms`]. Every field is an intermediate value
/// of the scalar physics methods, grouped exactly as those methods
/// group their multiplications, so the `*_keyed` variants are
/// bit-identical to the originals.
#[derive(Debug, Clone, Copy)]
pub struct TickTerms {
    /// [`AppProfile::qps_at`] — the app-level QPS curve value.
    pub qps_at: f64,
    /// [`AppProfile::qps_norm`].
    pub qps_norm: f64,
    /// The PSI QPS factor `0.4 + 0.6 * qps_norm`.
    pub qps_term: f64,
    /// CPU-usage base — the per-app factors of `pod_cpu_usage` left of
    /// the per-pod ones (`cpu_request * load` for LS, `cpu_request *
    /// cpu_ratio * centered` for BE, `cpu_request * cpu_util` for
    /// background).
    pub cpu_base: f64,
    /// Memory-usage base (`mem_request * utilization_ratio`).
    pub mem_base: f64,
}

/// The static parameters of an app's PSI sigmoid, extracted once so
/// the host-contention factor can be memoized per node instead of
/// recomputed per pod ([`AppProfile::psi_shape`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsiShape {
    /// Peak pressure the app can experience.
    pub sens: f64,
    /// Host CPU utilization where pressure starts rising fast.
    pub threshold: f64,
    /// Steepness of the rise.
    pub beta: f64,
    /// Denominator of the pod-relative-utilization term,
    /// `(2 * usage_mid).max(1e-9)`.
    pub denom: f64,
}

impl PsiShape {
    /// The host-contention sigmoid — a pure function of the host CPU
    /// utilization and `(beta, threshold)`, so pods sharing a shape on
    /// one host share the value.
    #[inline]
    pub fn contention(&self, host_cpu_util: f64) -> f64 {
        sigmoid(self.beta * (host_cpu_util - self.threshold))
    }
}

impl AppProfile {
    /// Whether this application's affinity admits a node.
    pub fn allows_node(&self, node: optum_types::NodeId) -> bool {
        crate::physics::affinity_allows(self.id.0, node.0, self.affinity_fraction)
    }

    /// The app-level QPS curve value at `t` (per pod, before per-pod
    /// noise); zero for non-LS apps.
    pub fn qps_at(&self, t: Tick) -> f64 {
        match &self.kind {
            AppKind::Ls(p) => p.qps.at(t.hour_of_day()),
            _ => 0.0,
        }
    }

    /// Peak of the QPS curve; zero for non-LS apps.
    pub fn max_qps(&self) -> f64 {
        match &self.kind {
            AppKind::Ls(p) => p.qps.base * (1.0 + p.qps.amp),
            _ => 0.0,
        }
    }

    /// App-level QPS at `t`, normalized by the curve peak to `[0, 1]`.
    pub fn qps_norm(&self, t: Tick) -> f64 {
        let max = self.max_qps();
        if max > 0.0 {
            self.qps_at(t) / max
        } else {
            0.0
        }
    }

    /// Per-pod QPS at `t`: the app curve with ±5% per-pod-per-tick
    /// noise (QPS is well balanced across pods; Fig. 12(a) shows
    /// CoV < 0.1).
    pub fn pod_qps(&self, pod: PodId, t: Tick) -> f64 {
        let noise = hash_noise_signed(self.seed, pod.0 as u64, t.0, 0.05);
        (self.qps_at(t) * (1.0 + noise)).max(0.0)
    }

    /// Hoists the per-tick terms of this app's physics: the diurnal
    /// curve reads (one `sin` each) and the app-level factor products,
    /// shared by every pod of the app within one tick. The `*_keyed`
    /// methods consume the result and are bit-identical to their
    /// scalar counterparts.
    pub fn tick_terms(&self, t: Tick) -> TickTerms {
        let qps_at = self.qps_at(t);
        let max = self.max_qps();
        let qps_norm = if max > 0.0 { qps_at / max } else { 0.0 };
        let (cpu_base, mem_base) = match &self.kind {
            AppKind::Ls(p) => {
                let load = p.cpu_floor + p.cpu_span * qps_norm;
                (self.cpu_request * load, self.mem_request * p.mem_util)
            }
            AppKind::Be(p) => {
                let peak = p.job_rate.base * (1.0 + p.job_rate.amp);
                let activity = if peak > 0.0 {
                    p.job_rate.at(t.hour_of_day()) / peak
                } else {
                    1.0
                };
                let centered = 1.0 + 0.7 * (activity - 1.0 / (1.0 + p.job_rate.amp));
                (
                    self.cpu_request * p.cpu_ratio * centered,
                    self.mem_request * p.mem_ratio,
                )
            }
            AppKind::Other(p) => (self.cpu_request * p.cpu_util, self.mem_request * p.mem_util),
        };
        TickTerms {
            qps_at,
            qps_norm,
            qps_term: 0.4 + 0.6 * qps_norm,
            cpu_base,
            mem_base,
        }
    }

    /// The static PSI sigmoid parameters of this app (see
    /// [`PsiShape`]); BE and background pods share generic ones.
    pub fn psi_shape(&self) -> PsiShape {
        let (sens, threshold, beta, usage_mid) = match &self.kind {
            AppKind::Ls(p) => (
                p.psi_sens,
                p.psi_threshold,
                p.psi_beta,
                p.cpu_floor + p.cpu_span / 2.0,
            ),
            AppKind::Be(_) | AppKind::Other(_) => (0.8, 0.8, 12.0, 0.3),
        };
        PsiShape {
            sens,
            threshold,
            beta,
            denom: (2.0 * usage_mid).max(1e-9),
        }
    }

    /// [`AppProfile::pod_qps`] from hoisted terms and the pod-tick's
    /// noise key ([`crate::noise_key`] of the pod id and `mix(tick)`).
    #[inline]
    pub fn pod_qps_keyed(&self, key: u64, terms: &TickTerms) -> f64 {
        let noise = signed(keyed_noise(self.seed, key), 0.05);
        (terms.qps_at * (1.0 + noise)).max(0.0)
    }

    /// [`AppProfile::pod_cpu_usage`] from hoisted terms: only the
    /// per-pod noise and input factor remain.
    #[inline]
    pub fn pod_cpu_usage_keyed(&self, key: u64, input_factor: f64, terms: &TickTerms) -> f64 {
        let unit = keyed_noise(self.seed, key);
        let raw = match &self.kind {
            AppKind::Ls(_) => terms.cpu_base * input_factor * (1.0 + signed(unit, 0.08)),
            AppKind::Be(_) => terms.cpu_base * input_factor * (1.0 + signed(unit, 0.1)),
            AppKind::Other(_) => terms.cpu_base * (1.0 + signed(unit, 0.05)),
        };
        raw.clamp(0.0, self.cpu_request * self.limit_factor)
    }

    /// [`AppProfile::pod_mem_usage`] from hoisted terms.
    #[inline]
    pub fn pod_mem_usage_keyed(&self, key: u64, terms: &TickTerms) -> f64 {
        let amplitude = match &self.kind {
            AppKind::Ls(_) => 0.005,
            AppKind::Be(_) | AppKind::Other(_) => 0.01,
        };
        let noise = 1.0 + signed(keyed_noise(self.seed.wrapping_add(1), key), amplitude);
        (terms.mem_base * noise).clamp(0.0, self.mem_request * self.limit_factor)
    }

    /// [`AppProfile::psi_instant`] from hoisted terms and a memoized
    /// host-contention factor (`shape.contention(host_cpu_util)` for
    /// this app's [`PsiShape`]).
    #[inline]
    pub fn psi_instant_keyed(
        &self,
        key: u64,
        pod_cpu_util: f64,
        shape: &PsiShape,
        contention: f64,
        terms: &TickTerms,
    ) -> f64 {
        let pod_rel = (pod_cpu_util / shape.denom).clamp(0.0, 1.0);
        let demand = 0.25 + 0.75 * pod_rel;
        let noise = keyed_noise(self.seed.wrapping_add(2), key) * 0.006;
        (shape.sens * contention * demand * terms.qps_term + noise).clamp(0.0, 1.0)
    }

    /// Node-level memory-pressure base of [`AppProfile::
    /// mem_psi_instant`] — a pure function of the host memory
    /// utilization, identical for every pod on the host.
    #[inline]
    pub fn mem_psi_base(host_mem_util: f64) -> f64 {
        0.08 * sigmoid(25.0 * (host_mem_util - 0.92))
    }

    /// [`AppProfile::mem_psi_instant`] from the hoisted node base.
    #[inline]
    pub fn mem_psi_instant_keyed(&self, key: u64, base: f64) -> f64 {
        let noise = keyed_noise(self.seed.wrapping_add(3), key) * 0.01;
        (base + noise).clamp(0.0, 1.0)
    }

    /// Actual CPU usage of a pod at `t` (normalized cores), before
    /// clamping by the pod limit.
    pub fn pod_cpu_usage(&self, pod: &GeneratedPod, t: Tick) -> f64 {
        let id = pod.spec.id.0 as u64;
        let raw = match &self.kind {
            AppKind::Ls(p) => {
                let load = p.cpu_floor + p.cpu_span * self.qps_norm(t);
                let noise = 1.0 + hash_noise_signed(self.seed, id, t.0, 0.08);
                self.cpu_request * load * pod.input_factor * noise
            }
            AppKind::Be(p) => {
                // BE tasks harvest more CPU in the LS troughs and are
                // throttled back at LS peaks; modulating by the app's
                // (anti-phase) activity curve reproduces the opposed
                // utilization swings of Fig. 4(a). The modulation is
                // centered so the mean stays at `cpu_ratio`.
                let peak = p.job_rate.base * (1.0 + p.job_rate.amp);
                let activity = if peak > 0.0 {
                    p.job_rate.at(t.hour_of_day()) / peak
                } else {
                    1.0
                };
                let centered = 1.0 + 0.7 * (activity - 1.0 / (1.0 + p.job_rate.amp));
                let noise = 1.0 + hash_noise_signed(self.seed, id, t.0, 0.1);
                self.cpu_request * p.cpu_ratio * centered * pod.input_factor * noise
            }
            AppKind::Other(p) => {
                let noise = 1.0 + hash_noise_signed(self.seed, id, t.0, 0.05);
                self.cpu_request * p.cpu_util * noise
            }
        };
        raw.clamp(0.0, self.cpu_request * self.limit_factor)
    }

    /// Actual memory usage of a pod at `t`.
    pub fn pod_mem_usage(&self, pod: &GeneratedPod, t: Tick) -> f64 {
        let id = pod.spec.id.0 as u64;
        let raw = match &self.kind {
            AppKind::Ls(p) => {
                // Stable: tiny noise keeps the CoV near zero.
                let noise = 1.0 + hash_noise_signed(self.seed.wrapping_add(1), id, t.0, 0.005);
                self.mem_request * p.mem_util * noise
            }
            AppKind::Be(p) => {
                let noise = 1.0 + hash_noise_signed(self.seed.wrapping_add(1), id, t.0, 0.01);
                self.mem_request * p.mem_ratio * noise
            }
            AppKind::Other(p) => {
                let noise = 1.0 + hash_noise_signed(self.seed.wrapping_add(1), id, t.0, 0.01);
                self.mem_request * p.mem_util * noise
            }
        };
        raw.clamp(0.0, self.mem_request * self.limit_factor)
    }

    /// Instantaneous CPU pressure (the *some* PSI the kernel would
    /// report) for an LS pod given its relative CPU utilization
    /// (`usage / request`), the host CPU utilization, and the tick.
    ///
    /// The sigmoid threshold makes pressure negligible on idle hosts
    /// and steep near saturation — exactly the regime an aggressive
    /// over-commit policy must avoid.
    pub fn psi_instant(
        &self,
        pod: &GeneratedPod,
        pod_cpu_util: f64,
        host_cpu_util: f64,
        t: Tick,
    ) -> f64 {
        let (sens, threshold, beta, usage_mid) = match &self.kind {
            AppKind::Ls(p) => (
                p.psi_sens,
                p.psi_threshold,
                p.psi_beta,
                p.cpu_floor + p.cpu_span / 2.0,
            ),
            // BE and background pods experience pressure too, with
            // generic parameters; only LS PSI feeds the profilers.
            AppKind::Be(_) | AppKind::Other(_) => (0.8, 0.8, 12.0, 0.3),
        };
        let contention = sigmoid(beta * (host_cpu_util - threshold));
        let pod_rel = (pod_cpu_util / (2.0 * usage_mid).max(1e-9)).clamp(0.0, 1.0);
        let demand = 0.25 + 0.75 * pod_rel;
        let qps_term = 0.4 + 0.6 * self.qps_norm(t);
        let noise = hash_noise(self.seed.wrapping_add(2), pod.spec.id.0 as u64, t.0) * 0.006;
        (sens * contention * demand * qps_term + noise).clamp(0.0, 1.0)
    }

    /// Instantaneous memory pressure: essentially zero until the host
    /// approaches memory saturation (memory PSI barely correlates with
    /// RT in Fig. 13).
    pub fn mem_psi_instant(&self, pod: PodId, host_mem_util: f64, t: Tick) -> f64 {
        let base = 0.08 * sigmoid(25.0 * (host_mem_util - 0.92));
        let noise = hash_noise(self.seed.wrapping_add(3), pod.0 as u64, t.0) * 0.01;
        (base + noise).clamp(0.0, 1.0)
    }

    /// Response time of an LS pod in milliseconds given its CPU
    /// pressure, amplified by the pod's call-chain factor (an RT
    /// includes the processing time of the pods it depends on, §3.3.1,
    /// which is why RT has a high CoV across pods of one app).
    pub fn response_time(&self, pod: &GeneratedPod, psi: f64, t: Tick) -> f64 {
        let AppKind::Ls(p) = &self.kind else {
            return 0.0;
        };
        let noise =
            1.0 + hash_noise_signed(self.seed.wrapping_add(4), pod.spec.id.0 as u64, t.0, 0.1);
        p.rt_base_ms * (1.0 + 6.0 * psi + 0.12 * self.qps_norm(t)) * pod.rt_factor * noise
    }

    /// Progress rate of a BE pod under host contention: 1.0 on an idle
    /// host, lower as CPU/memory utilization rise. Completion time is
    /// the wall-clock needed to integrate `nominal_duration` units of
    /// progress, so a rate of 0.5 doubles the completion time.
    #[inline]
    pub fn be_progress_rate(&self, host_cpu_util: f64, host_mem_util: f64) -> f64 {
        let AppKind::Be(p) = &self.kind else {
            return 1.0;
        };
        // A mild linear term ties completion time to utilization over
        // the whole range (Fig. 16); the threshold terms model the
        // steep degradation near saturation.
        let penalty = 0.08 * host_cpu_util
            + p.ct_cpu_sens * (host_cpu_util - p.ct_cpu_threshold).max(0.0)
            + p.ct_mem_sens * (host_mem_util - p.ct_mem_threshold).max(0.0);
        1.0 / (1.0 + penalty)
    }

    /// Steady-state replica count for long-running classes; zero for BE.
    pub fn replicas(&self) -> usize {
        match &self.kind {
            AppKind::Ls(p) => p.replicas,
            AppKind::Be(_) => 0,
            AppKind::Other(p) => p.replicas,
        }
    }

    /// Mean pod lifetime in ticks for long-running classes.
    pub fn mean_lifetime_ticks(&self) -> f64 {
        match &self.kind {
            AppKind::Ls(p) => p.mean_lifetime_ticks,
            AppKind::Be(_) => 0.0,
            AppKind::Other(p) => p.mean_lifetime_ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optum_types::Resources;

    fn ls_profile() -> AppProfile {
        AppProfile {
            id: AppId(1),
            slo: SloClass::Ls,
            cpu_request: 0.05,
            mem_request: 0.02,
            limit_factor: 2.0,
            affinity_fraction: 1.0,
            kind: AppKind::Ls(LsParams {
                replicas: 10,
                qps: Diurnal::new(100.0, 0.5, 0.0).unwrap(),
                mean_lifetime_ticks: 5000.0,
                cpu_floor: 0.06,
                cpu_span: 0.2,
                mem_util: 0.5,
                psi_sens: 0.8,
                psi_threshold: 0.65,
                psi_beta: 10.0,
                rt_base_ms: 20.0,
            }),
            seed: 77,
        }
    }

    fn be_profile() -> AppProfile {
        AppProfile {
            id: AppId(2),
            slo: SloClass::Be,
            cpu_request: 0.03,
            mem_request: 0.01,
            limit_factor: 2.0,
            affinity_fraction: 1.0,
            kind: AppKind::Be(BeParams {
                job_rate: Diurnal::new(0.01, 0.4, 12.0).unwrap(),
                tasks_per_job: BoundedPareto::new(1.0, 100.0, 1.0).unwrap(),
                duration: BoundedPareto::new(1.0, 1000.0, 0.7).unwrap(),
                cpu_ratio: 0.33,
                mem_ratio: 0.95,
                ct_cpu_sens: 3.0,
                ct_cpu_threshold: 0.6,
                ct_mem_sens: 1.5,
                ct_mem_threshold: 0.7,
            }),
            seed: 88,
        }
    }

    fn pod(app: &AppProfile, id: u32) -> GeneratedPod {
        GeneratedPod {
            spec: PodSpec {
                id: PodId(id),
                app: app.id,
                slo: app.slo,
                request: Resources::new(app.cpu_request, app.mem_request),
                limit: Resources::new(
                    app.cpu_request * app.limit_factor,
                    app.mem_request * app.limit_factor,
                ),
                arrival: Tick(0),
                nominal_duration: Some(100),
            },
            input_factor: 1.0,
            rt_factor: 1.0,
        }
    }

    #[test]
    fn qps_is_diurnal_and_normalized() {
        let app = ls_profile();
        let peak = Tick::from_hours(6);
        let trough = Tick::from_hours(18);
        assert!(app.qps_at(peak) > app.qps_at(trough));
        assert!((app.qps_norm(peak) - 1.0).abs() < 1e-9);
        assert!(app.qps_norm(trough) > 0.0);
        assert_eq!(be_profile().qps_at(peak), 0.0);
    }

    #[test]
    fn pod_qps_stays_near_app_curve() {
        let app = ls_profile();
        let t = Tick::from_hours(3);
        let q = app.pod_qps(PodId(9), t);
        assert!((q - app.qps_at(t)).abs() / app.qps_at(t) <= 0.05 + 1e-9);
    }

    #[test]
    fn ls_cpu_usage_tracks_load_and_stays_under_limit() {
        let app = ls_profile();
        let p = pod(&app, 3);
        let peak = app.pod_cpu_usage(&p, Tick::from_hours(6));
        let trough = app.pod_cpu_usage(&p, Tick::from_hours(18));
        assert!(peak > trough, "usage must follow QPS: {peak} vs {trough}");
        assert!(peak <= app.cpu_request * app.limit_factor + 1e-12);
        // Usage is far below request (the 5x gap of Fig. 6(a)).
        assert!(peak < app.cpu_request);
    }

    #[test]
    fn be_memory_nearly_fully_used() {
        let app = be_profile();
        let p = pod(&app, 4);
        let mem = app.pod_mem_usage(&p, Tick(50));
        assert!(mem > 0.9 * app.mem_request);
        assert!(mem <= app.mem_request * app.limit_factor);
    }

    #[test]
    fn psi_rises_with_host_utilization() {
        let app = ls_profile();
        let p = pod(&app, 5);
        let t = Tick::from_hours(6);
        let idle = app.psi_instant(&p, 0.2, 0.2, t);
        let busy = app.psi_instant(&p, 0.2, 0.95, t);
        assert!(busy > idle + 0.2, "psi {idle} -> {busy}");
        assert!((0.0..=1.0).contains(&busy));
    }

    #[test]
    fn psi_rises_with_pod_utilization_and_qps() {
        let app = ls_profile();
        let p = pod(&app, 5);
        let t_peak = Tick::from_hours(6);
        let low = app.psi_instant(&p, 0.05, 0.9, t_peak);
        let high = app.psi_instant(&p, 0.3, 0.9, t_peak);
        assert!(high > low);
        let t_trough = Tick::from_hours(18);
        let quiet = app.psi_instant(&p, 0.2, 0.9, t_trough);
        let loud = app.psi_instant(&p, 0.2, 0.9, t_peak);
        assert!(loud > quiet - 0.03, "qps term: {quiet} vs {loud}");
    }

    #[test]
    fn mem_psi_negligible_until_saturation() {
        let app = ls_profile();
        assert!(app.mem_psi_instant(PodId(1), 0.5, Tick(9)) < 0.03);
        assert!(app.mem_psi_instant(PodId(1), 0.99, Tick(9)) > 0.04);
    }

    #[test]
    fn response_time_grows_with_psi() {
        let app = ls_profile();
        let p = pod(&app, 6);
        let t = Tick::from_hours(1);
        assert!(app.response_time(&p, 0.8, t) > app.response_time(&p, 0.0, t));
        assert_eq!(be_profile().response_time(&p, 0.5, t), 0.0);
    }

    #[test]
    fn be_progress_slows_under_contention() {
        let app = be_profile();
        let idle = app.be_progress_rate(0.1, 0.1);
        let busy = app.be_progress_rate(0.95, 0.9);
        assert!(idle > 0.9);
        assert!(busy < 0.5);
        // Non-BE pods never slow down.
        assert_eq!(ls_profile().be_progress_rate(0.99, 0.99), 1.0);
    }

    fn other_profile() -> AppProfile {
        AppProfile {
            id: AppId(3),
            slo: SloClass::System,
            cpu_request: 0.02,
            mem_request: 0.015,
            limit_factor: 1.5,
            affinity_fraction: 1.0,
            kind: AppKind::Other(OtherParams {
                replicas: 6,
                cpu_util: 0.4,
                mem_util: 0.6,
                mean_lifetime_ticks: 8000.0,
            }),
            seed: 99,
        }
    }

    proptest::proptest! {
        /// Every keyed form reproduces its scalar reference in every
        /// bit — same multiplication grouping, same noise draws —
        /// across app kinds, seeds, pods, ticks and host states. A
        /// draw keyed with the wrong `seed + k` fails here.
        #[test]
        fn keyed_physics_is_bit_identical(
            kind in 0usize..3,
            seed in proptest::any::<u64>(),
            pod_id in proptest::any::<u32>(),
            tick in 0u64..200_000,
            input_factor in 0.05f64..8.0,
            host_cpu in 0f64..1.0,
            host_mem in 0f64..1.0,
            pod_util in 0f64..2.5,
        ) {
            let mut app = [ls_profile(), be_profile(), other_profile()][kind].clone();
            app.seed = seed;
            let mut p = pod(&app, pod_id);
            p.input_factor = input_factor;
            let t = Tick(tick);
            let terms = app.tick_terms(t);
            let shape = app.psi_shape();
            let key = crate::noise_key(pod_id as u64, crate::mix(tick));
            proptest::prop_assert_eq!(terms.qps_at.to_bits(), app.qps_at(t).to_bits());
            proptest::prop_assert_eq!(terms.qps_norm.to_bits(), app.qps_norm(t).to_bits());
            proptest::prop_assert_eq!(
                app.pod_cpu_usage_keyed(key, input_factor, &terms).to_bits(),
                app.pod_cpu_usage(&p, t).to_bits()
            );
            proptest::prop_assert_eq!(
                app.pod_mem_usage_keyed(key, &terms).to_bits(),
                app.pod_mem_usage(&p, t).to_bits()
            );
            proptest::prop_assert_eq!(
                app.pod_qps_keyed(key, &terms).to_bits(),
                app.pod_qps(p.spec.id, t).to_bits()
            );
            proptest::prop_assert_eq!(
                app.psi_instant_keyed(key, pod_util, &shape, shape.contention(host_cpu), &terms)
                    .to_bits(),
                app.psi_instant(&p, pod_util, host_cpu, t).to_bits()
            );
            proptest::prop_assert_eq!(
                app.mem_psi_instant_keyed(key, AppProfile::mem_psi_base(host_mem)).to_bits(),
                app.mem_psi_instant(p.spec.id, host_mem, t).to_bits()
            );
        }
    }

    #[test]
    fn physics_is_deterministic() {
        let app = ls_profile();
        let p = pod(&app, 7);
        let t = Tick(123);
        assert_eq!(app.pod_cpu_usage(&p, t), app.pod_cpu_usage(&p, t));
        assert_eq!(
            app.psi_instant(&p, 0.2, 0.5, t),
            app.psi_instant(&p, 0.2, 0.5, t)
        );
    }
}
