//! Pins the bytes of a mid-run snapshot: where the engine keeps its
//! running state is not a property of the snapshot format, so a
//! faulted run (drain, crash, pod kills — suspended progress and
//! restart backoffs in flight) must checkpoint to exactly the bytes it
//! always did, and resume from them to the uninterrupted digest.

use optum_sim::checkpoint::{fnv1a, read_snapshot_file};
use optum_sim::testing::FirstFit;
use optum_sim::{run, SimConfig, Simulator};
use optum_trace::{generate, WorkloadConfig};
use optum_types::{sort_fault_plan, FaultEvent, FaultKind, NodeId, Tick};

const HOSTS: usize = 16;

/// FNV-1a of the tick-1000 snapshot below, recorded at the commit
/// before the running state moved onto the nodes (67e6386).
const PINNED_SNAPSHOT_FNV: u64 = 0xdf2e_c16c_d7db_91ec;

fn config() -> SimConfig {
    let mut cfg = SimConfig::new(HOSTS);
    cfg.record_ranks = true;
    cfg.collect_training = true;
    let fault = |at, node, kind| FaultEvent {
        at: Tick(at),
        node: NodeId(node),
        kind,
    };
    let mut plan = vec![
        fault(300, 2, FaultKind::DrainStart),
        fault(1100, 2, FaultKind::DrainEnd),
        fault(700, 5, FaultKind::Crash),
        fault(1200, 5, FaultKind::Recover),
        fault(900, 0, FaultKind::PodKill { selector: 7 }),
        fault(990, 1, FaultKind::PodKill { selector: 2 }),
        fault(995, 3, FaultKind::Degrade { factor: 0.6 }),
    ];
    sort_fault_plan(&mut plan);
    cfg.fault_events = plan;
    cfg
}

#[test]
fn mid_run_snapshot_bytes_are_pinned_and_resume_to_the_same_digest() {
    let path = std::env::temp_dir().join(format!("optum-pin-{}.snap", std::process::id()));
    let w = generate(&WorkloadConfig::small(11)).unwrap();
    let baseline = run(&w, FirstFit, config()).unwrap();
    assert!(baseline.churn.crashes == 1 && baseline.churn.pod_kills == 2);

    // Step to tick 1000 — the drain and the crash still in force — and
    // cut a snapshot there.
    let mut cfg = config();
    cfg.checkpoint_path = Some(path.clone());
    let mut sim = Simulator::new(&w, FirstFit, cfg).unwrap();
    let schedule = optum_trace::arrival_schedule(&w);
    let mut cursor = 0;
    while sim.next_step() < Tick(1000) {
        let t = sim.next_step();
        let inbox: &[_] = match schedule.get(cursor) {
            Some((at, ids)) if *at == t => {
                cursor += 1;
                ids
            }
            _ => &[],
        };
        sim.step(t, inbox).unwrap();
    }
    // The snapshot holds running pods and evicted ones still waiting.
    assert!(sim.running_count() > 0);
    assert!(w.pods.iter().any(|p| {
        let o = sim.outcome(p.spec.id).unwrap();
        o.evictions > 0 && o.node.is_none() && o.completed_at.is_none()
    }));
    assert_eq!(sim.checkpoint_now().unwrap(), Tick(1000));
    let bytes = read_snapshot_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        fnv1a(&bytes),
        PINNED_SNAPSHOT_FNV,
        "snapshot bytes changed: {:#018x}",
        fnv1a(&bytes)
    );

    let resumed = Simulator::resume(&w, FirstFit, config(), &bytes)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(resumed.digest(), baseline.digest());
    assert_eq!(resumed.outcomes, baseline.outcomes);
    assert_eq!(resumed.churn, baseline.churn);
}
