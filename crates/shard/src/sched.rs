//! Per-shard scheduling state: candidate scoring against the SoA node
//! table.
//!
//! Mirrors the shape of neon's `storage_controller` `ScheduleContext`:
//! a typed score computed per candidate node from the shard-local
//! state, with an explicit fit predicate (usage, memory guard,
//! over-commit request budgets) and a total order for tie-breaking.
//! The engine draws each pod's candidate set globally (power-of-k
//! choices over `(seed, pod, tick)`) and routes every draw to the shard
//! that owns it; each shard scores only those ([`best_proposals`]), and
//! the exchange takes the global minimum — so the chosen node is
//! identical whatever the shard count.

use crate::exchange::Proposal;
use crate::soa::NodeTable;

/// Scoring and admission parameters shared by every shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreParams {
    /// Memory admission guard: post-placement memory *usage* must stay
    /// under `mem_guard × capacity` (memory overload is unrecoverable,
    /// mirroring the legacy engine's guard).
    pub mem_guard: f64,
    /// CPU request over-commit budget (multiples of capacity).
    pub cpu_budget: f64,
    /// Memory request over-commit budget.
    pub mem_budget: f64,
}

impl Default for ScoreParams {
    fn default() -> ScoreParams {
        ScoreParams {
            mem_guard: 0.95,
            cpu_budget: 3.0,
            mem_budget: 1.25,
        }
    }
}

/// A pod's resource footprint, as seen by the scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodFootprint {
    /// CPU request.
    pub cpu_req: f64,
    /// Memory request.
    pub mem_req: f64,
    /// Mean CPU usage.
    pub cpu_use: f64,
    /// Mean memory usage.
    pub mem_use: f64,
}

/// Scores one candidate node for one pod: `None` when the pod does not
/// fit, otherwise the post-placement peak utilization (lower is
/// better — least-loaded alignment). The score is a pure function of
/// the node's state and the footprint, so every shard computes the
/// same value for the same node. Branch-free: every fit predicate is
/// evaluated and combined with `&`/`|`; always inlined, since a call
/// per candidate costs more than the scoring.
#[inline(always)]
pub fn score_candidate(
    nodes: &NodeTable,
    local: usize,
    pod: &PodFootprint,
    p: &ScoreParams,
) -> Option<f64> {
    let cpu_cap = nodes.cpu_cap[local];
    let mem_cap = nodes.mem_cap[local];
    let cpu_after = nodes.cpu_used[local] + pod.cpu_use;
    let mem_after = nodes.mem_used[local] + pod.mem_use;
    let over = (cpu_after > cpu_cap)
        | (mem_after > mem_cap * p.mem_guard)
        | (nodes.cpu_committed[local] + pod.cpu_req > cpu_cap * p.cpu_budget)
        | (nodes.mem_committed[local] + pod.mem_req > mem_cap * p.mem_budget);
    let fits = nodes.is_schedulable(local) & !over;
    fits.then_some((cpu_after / cpu_cap).max(mem_after / mem_cap))
}

/// One shard's scoring pass: `routed` holds the `(request, global
/// node)` candidates this shard owns, grouped by request in draw
/// order. Appends to `out`, for every request with a fitting
/// candidate, the `(request, proposal)` that folding
/// [`score_candidate`] through [`Proposal::merge`] in draw order gives,
/// bit for bit: lowest score, ties to the lower node. The running
/// argmin is written as selects, and a candidate that does not fit is
/// never taken.
pub fn best_proposals<'a>(
    nodes: &NodeTable,
    routed: &[(u32, u32)],
    footprint: impl Fn(u32) -> &'a PodFootprint,
    p: &ScoreParams,
    out: &mut Vec<(u32, Proposal)>,
) {
    for chunk in routed.chunk_by(|a, b| a.0 == b.0) {
        let request = chunk[0].0;
        let fp = footprint(request);
        let (mut best, mut found) = (Proposal::default(), false);
        for &(_, node) in chunk {
            let scored = score_candidate(nodes, nodes.local(node), fp, p);
            let (fits, score) = (scored.is_some(), scored.unwrap_or_default());
            let better = (score < best.score) | ((score == best.score) & (node < best.node));
            let take = fits & (!found | better);
            best.score = if take { score } else { best.score };
            best.node = if take { node } else { best.node };
            found |= fits;
        }
        if found {
            out.push((request, best));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::{Resident, STATE_DOWN, STATE_DRAINING, STATE_UP};

    fn pod(amt: f64) -> PodFootprint {
        PodFootprint {
            cpu_req: amt,
            mem_req: amt,
            cpu_use: amt / 2.0,
            mem_use: amt / 2.0,
        }
    }

    #[test]
    fn empty_node_scores_its_post_utilization() {
        let t = NodeTable::new(0, 4);
        let s = score_candidate(&t, 0, &pod(0.2), &ScoreParams::default()).unwrap();
        assert!((s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn loaded_node_scores_worse() {
        let mut t = NodeTable::new(0, 4);
        t.add_pod(
            1,
            Resident {
                pod: 0,
                cpu_use: 0.5,
                mem_use: 0.1,
                cpu_req: 0.6,
                mem_req: 0.2,
                end: 10,
            },
        );
        let p = ScoreParams::default();
        let empty = score_candidate(&t, 0, &pod(0.2), &p).unwrap();
        let loaded = score_candidate(&t, 1, &pod(0.2), &p).unwrap();
        assert!(loaded > empty);
    }

    #[test]
    fn unfit_and_down_nodes_decline() {
        let mut t = NodeTable::new(0, 4);
        let p = ScoreParams::default();
        // Usage overflow.
        assert!(score_candidate(&t, 0, &pod(2.5), &p).is_none());
        // Down node.
        t.set_state(2, STATE_DOWN);
        assert!(score_candidate(&t, 2, &pod(0.1), &p).is_none());
        // Request budget exhausted.
        for i in 0..40 {
            t.add_pod(
                3,
                Resident {
                    pod: i,
                    cpu_use: 0.001,
                    mem_use: 0.001,
                    cpu_req: 0.08,
                    mem_req: 0.001,
                    end: 10,
                },
            );
        }
        assert!(score_candidate(&t, 3, &pod(0.1), &p).is_none());
    }

    /// The early-return scorer the branch-free one replaced.
    fn early_return_score(
        t: &NodeTable,
        local: usize,
        pod: &PodFootprint,
        p: &ScoreParams,
    ) -> Option<f64> {
        if !t.is_schedulable(local) {
            return None;
        }
        let (cpu_cap, mem_cap) = (t.cpu_cap[local], t.mem_cap[local]);
        let cpu_after = t.cpu_used[local] + pod.cpu_use;
        let mem_after = t.mem_used[local] + pod.mem_use;
        if cpu_after > cpu_cap || mem_after > mem_cap * p.mem_guard {
            return None;
        }
        if t.cpu_committed[local] + pod.cpu_req > cpu_cap * p.cpu_budget
            || t.mem_committed[local] + pod.mem_req > mem_cap * p.mem_budget
        {
            return None;
        }
        Some((cpu_after / cpu_cap).max(mem_after / mem_cap))
    }

    #[test]
    fn branch_free_scorer_answers_as_the_early_return_one() {
        let mut rng = optum_types::SplitMix64::new(11);
        // Zero footprints and zero degrade factors included: 0/0 scores.
        let mut draw = |zero_every: u64| match rng.next_u64() % zero_every {
            0 => 0.0,
            _ => rng.next_f64(),
        };
        let p = ScoreParams::default();
        for _ in 0..2000 {
            let mut t = NodeTable::new(0, 1);
            t.set_state(
                0,
                [STATE_UP, STATE_DRAINING, STATE_DOWN][(draw(3) * 3.0) as usize % 3],
            );
            t.set_degrade(0, draw(3));
            let use_ = draw(4);
            t.add_pod(
                0,
                Resident {
                    pod: 0,
                    cpu_use: use_,
                    mem_use: draw(4),
                    cpu_req: 2.0 * draw(4),
                    mem_req: draw(4),
                    end: 0,
                },
            );
            let fp = PodFootprint {
                cpu_req: draw(3),
                mem_req: draw(3),
                cpu_use: draw(3),
                mem_use: draw(3),
            };
            let bits = |s: Option<f64>| s.map(f64::to_bits);
            assert_eq!(
                bits(score_candidate(&t, 0, &fp, &p)),
                bits(early_return_score(&t, 0, &fp, &p))
            );
        }
        // A zero-capacity node fits a zero footprint, with a 0/0 score.
        let mut t = NodeTable::new(0, 1);
        t.set_degrade(0, 0.0);
        assert!(score_candidate(&t, 0, &pod(0.0), &p).is_some_and(f64::is_nan));
    }
}
