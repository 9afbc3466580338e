//! Service-level-objective classes of unified requests.
//!
//! The trace distinguishes six classes (Fig. 2(b) of the paper). Three of
//! them carry explicit SLO semantics and drive scheduling policy:
//!
//! * [`SloClass::Lsr`] — latency-sensitive *reserved* production
//!   services; they bind CPU cores and may preempt best-effort pods.
//! * [`SloClass::Ls`] — long-running latency-sensitive services.
//! * [`SloClass::Be`] — best-effort batch tasks.
//!
//! The remaining classes (`System`, `VmEnv`, `Unknown`) appear in the
//! population mix but carry no explicit SLO; the characterization focuses
//! on the first three, and so does the scheduler.

/// SLO class of a pod, mirroring the trace's `SLO Type` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SloClass {
    /// Best-effort batch tasks.
    Be,
    /// Latency-sensitive long-running services.
    Ls,
    /// Latency-sensitive reserved production services (CPU-bound cores).
    Lsr,
    /// Cluster system agents.
    System,
    /// Virtual-machine environment pods.
    VmEnv,
    /// Pods with no class information in the trace.
    Unknown,
}

impl SloClass {
    /// All classes, in the order the paper's Fig. 2(b) enumerates them.
    pub const ALL: [SloClass; 6] = [
        SloClass::Unknown,
        SloClass::System,
        SloClass::VmEnv,
        SloClass::Lsr,
        SloClass::Ls,
        SloClass::Be,
    ];

    /// Position of this class in [`SloClass::ALL`]: the layout of
    /// every per-class array (admission ledgers, churn accounting).
    pub const fn index(self) -> usize {
        match self {
            SloClass::Unknown => 0,
            SloClass::System => 1,
            SloClass::VmEnv => 2,
            SloClass::Lsr => 3,
            SloClass::Ls => 4,
            SloClass::Be => 5,
        }
    }

    /// The three classes with explicit SLO requirements, which the
    /// characterization and the scheduler focus on.
    pub const EXPLICIT: [SloClass; 3] = [SloClass::Be, SloClass::Ls, SloClass::Lsr];

    /// True for latency-sensitive classes (LS and LSR). LSR pods behave
    /// like LS pods for profiling purposes (§3.3.2).
    pub fn is_latency_sensitive(&self) -> bool {
        matches!(self, SloClass::Ls | SloClass::Lsr)
    }

    /// True for best-effort batch pods.
    pub fn is_best_effort(&self) -> bool {
        matches!(self, SloClass::Be)
    }

    /// True when the class carries an explicit SLO requirement.
    pub fn has_explicit_slo(&self) -> bool {
        matches!(self, SloClass::Be | SloClass::Ls | SloClass::Lsr)
    }

    /// Scheduling priority: higher values are scheduled first and may
    /// preempt lower ones. LSR pods preempt BE pods (§3.1.3).
    pub fn priority(&self) -> u8 {
        match self {
            SloClass::Lsr => 3,
            SloClass::Ls => 2,
            SloClass::System => 2,
            SloClass::VmEnv => 1,
            SloClass::Unknown => 1,
            SloClass::Be => 0,
        }
    }

    /// True when pods of this class run until explicitly stopped
    /// (services), as opposed to finite batch tasks.
    pub fn is_long_running(&self) -> bool {
        matches!(
            self,
            SloClass::Ls | SloClass::Lsr | SloClass::System | SloClass::VmEnv
        )
    }

    /// Short display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SloClass::Be => "BE",
            SloClass::Ls => "LS",
            SloClass::Lsr => "LSR",
            SloClass::System => "SYSTEM",
            SloClass::VmEnv => "VMEnv",
            SloClass::Unknown => "Unknown",
        }
    }
}

impl std::fmt::Display for SloClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_position_in_all() {
        for (i, c) in SloClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn lsr_preempts_be() {
        assert!(SloClass::Lsr.priority() > SloClass::Be.priority());
        assert!(SloClass::Ls.priority() > SloClass::Be.priority());
    }

    #[test]
    fn latency_sensitivity() {
        assert!(SloClass::Ls.is_latency_sensitive());
        assert!(SloClass::Lsr.is_latency_sensitive());
        assert!(!SloClass::Be.is_latency_sensitive());
        assert!(!SloClass::System.is_latency_sensitive());
    }

    #[test]
    fn explicit_slo_classes() {
        let explicit: Vec<_> = SloClass::ALL
            .iter()
            .filter(|c| c.has_explicit_slo())
            .collect();
        assert_eq!(explicit.len(), 3);
    }

    #[test]
    fn long_running_excludes_batch() {
        assert!(SloClass::Ls.is_long_running());
        assert!(!SloClass::Be.is_long_running());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(SloClass::Lsr.to_string(), "LSR");
        assert_eq!(SloClass::Unknown.to_string(), "Unknown");
    }
}
