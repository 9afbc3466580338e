//! Test-double schedulers, shared by the engine's unit tests and the
//! integration tests of this crate and `optum-shard`.

use optum_types::{DelayCause, PodSpec, Result};

use crate::scheduler::{Decision, Scheduler};
use crate::view::ClusterView;

/// First-fit by requests against raw capacity (no over-commit),
/// skipping nodes that take no new pods. Stateless, hence
/// checkpointable.
pub struct FirstFit;

impl Scheduler for FirstFit {
    fn name(&self) -> String {
        "first-fit".into()
    }

    fn select_node(&mut self, pod: &PodSpec, view: &ClusterView<'_>) -> Decision {
        for node in view.nodes {
            if node.is_schedulable() && pod.request.fits_within(&node.free_by_request()) {
                return Decision::Place(node.spec.id);
            }
        }
        Decision::Unplaceable(DelayCause::CpuAndMemory)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        Some(Vec::new())
    }

    fn load_state(&mut self, _state: &[u8]) -> Result<()> {
        Ok(())
    }
}

/// Declines every pod, so pods only wait, shed or preempt. The default
/// one cannot be checkpointed.
#[derive(Default)]
pub struct Refuse {
    checkpointable: bool,
}

impl Refuse {
    /// A decliner that saves an empty state, for tests that place pods
    /// themselves and checkpoint.
    pub fn checkpointable() -> Refuse {
        Refuse {
            checkpointable: true,
        }
    }
}

impl Scheduler for Refuse {
    fn name(&self) -> String {
        "refuser".into()
    }

    fn select_node(&mut self, _pod: &PodSpec, _view: &ClusterView<'_>) -> Decision {
        Decision::Unplaceable(DelayCause::Other)
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.checkpointable.then(Vec::new)
    }

    fn load_state(&mut self, _state: &[u8]) -> Result<()> {
        Ok(())
    }
}
