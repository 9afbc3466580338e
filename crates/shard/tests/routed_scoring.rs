//! Differential test of routed scoring: every shard scores only the
//! candidates it owns (`best_proposals`), and folding the shards'
//! proposals with `Proposal::merge` must give, score bits and node, what
//! a brute-force `score_candidate` + `Proposal::merge` fold over each
//! request's full candidate list gives on one table of the whole fleet.
//!
//! Node states are drawn to hit every branch of the fit predicate: Down
//! and Draining nodes, degraded capacities in [0, 1] (0 and 1 exactly
//! among them), near-full nodes. Candidates are drawn from a narrow
//! node window, so draws repeat nodes, and untouched nodes tie exactly.

use proptest::prelude::*;

use optum_shard::sched::{best_proposals, PodFootprint};
use optum_shard::soa::{Resident, STATE_DOWN, STATE_DRAINING};
use optum_shard::{score_candidate, NodeTable, Proposal, ScoreParams};
use optum_types::{NodeId, ShardLayout, SplitMix64};

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

/// Applies one node's drawn state to whichever table owns it.
fn draw_node(rng: &mut SplitMix64, table: &mut NodeTable, local: usize, pod: &mut u32) {
    match rng.next_u64() % 8 {
        0 => table.set_state(local, STATE_DOWN),
        1 => table.set_state(local, STATE_DRAINING),
        _ => {}
    }
    match rng.next_u64() % 6 {
        0 => table.set_degrade(local, 0.0),
        1 | 2 => table.set_degrade(local, rng.next_f64()),
        _ => {}
    }
    // Zero to three residents; a heavy one leaves the node near full.
    for _ in 0..rng.next_u64() % 4 {
        let amt = if rng.next_u64().is_multiple_of(3) {
            0.9
        } else {
            0.3
        } * rng.next_f64();
        table.add_pod(
            local,
            Resident {
                pod: *pod,
                cpu_use: amt,
                mem_use: amt * rng.next_f64(),
                cpu_req: amt * 2.0,
                mem_req: amt,
                end: 0,
            },
        );
        *pod += 1;
    }
}

/// Two tables holding the same drawn fleet: one whole, one per shard.
fn fleet(seed: u64, layout: &ShardLayout) -> (NodeTable, Vec<NodeTable>) {
    let hosts = layout.hosts as u32;
    let mut whole = NodeTable::new(0, hosts);
    let mut shards: Vec<NodeTable> = layout
        .ranges
        .iter()
        .map(|&(a, b)| NodeTable::new(a, b))
        .collect();
    let (mut rng_whole, mut rng_shard) = (SplitMix64::new(seed), SplitMix64::new(seed));
    let (mut pod_whole, mut pod_shard) = (0, 0);
    for node in 0..hosts {
        draw_node(&mut rng_whole, &mut whole, node as usize, &mut pod_whole);
        let t = &mut shards[layout.shard_of(NodeId(node)).unwrap()];
        let local = t.local(node);
        draw_node(&mut rng_shard, t, local, &mut pod_shard);
    }
    (whole, shards)
}

/// Requests with positive footprints and candidates from a node window
/// of `hosts / 4 + 1` ids, so draws repeat nodes.
fn requests(seed: u64, hosts: u32) -> Vec<(PodFootprint, Vec<u32>)> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let window = hosts / 4 + 1;
    let base = (rng.next_u64() % hosts as u64) as u32;
    (0..1 + rng.next_u64() % 24)
        .map(|_| {
            let amt = 0.001 + 0.6 * rng.next_f64();
            let fp = PodFootprint {
                cpu_req: amt,
                mem_req: amt * rng.next_f64() + 0.001,
                cpu_use: amt * rng.next_f64() + 0.001,
                mem_use: amt * rng.next_f64() + 0.001,
            };
            let k = 1 + rng.next_u64() % 16;
            let cands = (0..k)
                .map(|_| (base + (rng.next_u64() % window as u64) as u32) % hosts)
                .collect();
            (fp, cands)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routed_proposals_equal_the_brute_force_fold(seed in any::<u64>(), hosts in 1u32..300) {
        let reqs = requests(seed, hosts);
        let params = ScoreParams::default();
        for shards in SHARD_COUNTS {
            let layout = ShardLayout::contiguous(hosts as usize, shards);
            let (whole, tables) = fleet(seed, &layout);
            let mut routed = vec![Vec::new(); shards];
            for (i, (_, cands)) in reqs.iter().enumerate() {
                for &node in cands {
                    routed[layout.shard_of(NodeId(node)).unwrap()].push((i as u32, node));
                }
            }
            let mut winners: Vec<Option<Proposal>> = vec![None; reqs.len()];
            let mut out = Vec::new();
            // Last shard first: the fold must not care about order.
            for (table, routed) in tables.iter().zip(&routed).rev() {
                out.clear();
                best_proposals(table, routed, |i| &reqs[i as usize].0, &params, &mut out);
                prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                for &(i, p) in &out {
                    winners[i as usize] = Proposal::merge(winners[i as usize], Some(p));
                }
            }
            for (i, (fp, cands)) in reqs.iter().enumerate() {
                let brute = cands.iter().fold(None, |best, &node| {
                    let score = score_candidate(&whole, node as usize, fp, &params);
                    Proposal::merge(best, score.map(|score| Proposal { score, node }))
                });
                let bits = |p: Option<Proposal>| p.map(|p| (p.score.to_bits(), p.node));
                prop_assert_eq!(
                    bits(winners[i]),
                    bits(brute),
                    "hosts={} shards={} request={}",
                    hosts,
                    shards,
                    i
                );
            }
        }
    }
}
