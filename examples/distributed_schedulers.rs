//! Conflict resolution between parallel distributed schedulers
//! (the Deployment Module of §4.4).
//!
//! Several Optum schedulers each own a share of the pending queue and
//! propose placements independently; the Deployment Module accepts at
//! most one pod per host per round and re-dispatches the losers.
//!
//! ```text
//! cargo run --release --example distributed_schedulers
//! ```

use optum_platform::optum::deployment::{DeploymentModule, ProposedPlacement};
use optum_platform::types::{NodeId, PodId, StdRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let schedulers = 4;
    let pods_per_scheduler = 8;
    let hosts = 10u32;

    // Each scheduler independently proposes placements; because they
    // score similar cluster states, they often pick the same "best"
    // hosts — the conflict the Deployment Module exists to resolve.
    let mut proposals = Vec::new();
    for s in 0..schedulers {
        for k in 0..pods_per_scheduler {
            proposals.push(ProposedPlacement {
                pod: PodId((s * pods_per_scheduler + k) as u32),
                // Skewed host choice: everyone loves the same hot hosts.
                node: NodeId(rng.gen_range(0..hosts.min(4))),
                score: rng.gen_range(0.0..1.0),
                scheduler: s,
            });
        }
    }
    println!(
        "{} proposals from {} parallel schedulers",
        proposals.len(),
        schedulers
    );

    let module = DeploymentModule::new();
    let mut round = 0;
    let mut pending = proposals;
    while !pending.is_empty() {
        round += 1;
        let resolved = module.resolve(pending);
        println!(
            "round {round}: accepted {} placements, re-dispatched {}",
            resolved.accepted.len(),
            resolved.redispatched.len()
        );
        for p in &resolved.accepted {
            println!(
                "  pod {:>2} -> {} (scheduler {}, score {:.2})",
                p.pod.0, p.node, p.scheduler, p.score
            );
        }
        // Losers would be re-scored against fresh state; here they
        // simply retry different hosts next round.
        pending = resolved
            .redispatched
            .into_iter()
            .map(|mut p| {
                p.node = NodeId(rng.gen_range(0..hosts));
                p
            })
            .collect();
        if round > 20 {
            break;
        }
    }
}
