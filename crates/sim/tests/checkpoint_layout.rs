//! Snapshot-format hardening tests for the v3 shard-layout header:
//! version mismatch, shard-layout mismatch, and truncation must all be
//! rejected with clear errors instead of corrupt resumes.

use optum_sim::checkpoint::{fnv1a, read_snapshot_file, SNAP_VERSION};
use optum_sim::testing::FirstFit;
use optum_sim::{run, SimConfig, Simulator};
use optum_trace::{generate, Workload, WorkloadConfig};
use optum_types::ShardLayout;

const HOSTS: usize = 40;

fn workload() -> &'static Workload {
    use std::sync::OnceLock;
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| generate(&WorkloadConfig::small(11)).unwrap())
}

/// Runs a checkpointed simulation and returns the last snapshot bytes.
fn snapshot_bytes(shards: Option<usize>) -> Vec<u8> {
    // Tests run on parallel threads: one file per call, not per layout.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "optum-layout-{}-{}.snap",
        std::process::id(),
        CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let mut cfg = SimConfig::new(HOSTS);
    cfg.checkpoint_every = Some(250);
    cfg.checkpoint_path = Some(path.clone());
    if let Some(s) = shards {
        cfg.shard_layout = Some(ShardLayout::contiguous(HOSTS, s));
    }
    run(workload(), FirstFit, cfg).unwrap();
    let bytes = read_snapshot_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

fn resume_with(cfg: SimConfig, bytes: &[u8]) -> optum_types::Result<()> {
    Simulator::resume(workload(), FirstFit, cfg, bytes).map(|_| ())
}

/// Rewrites the trailer checksum after a payload patch, so the test
/// reaches the semantic validation instead of the checksum guard.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let sum = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn resume_roundtrips_with_recorded_layout() {
    let bytes = snapshot_bytes(None);
    assert!(resume_with(SimConfig::new(HOSTS), &bytes).is_ok());

    // An explicit single-shard layout is the same layout.
    let mut cfg = SimConfig::new(HOSTS);
    cfg.shard_layout = Some(ShardLayout::single(HOSTS));
    assert!(resume_with(cfg, &bytes).is_ok());
}

#[test]
fn shard_layout_mismatch_names_both_layouts() {
    // Checkpointed single-shard, resumed under --shards 4.
    let bytes = snapshot_bytes(None);
    let mut cfg = SimConfig::new(HOSTS);
    cfg.shard_layout = Some(ShardLayout::contiguous(HOSTS, 4));
    let err = resume_with(cfg, &bytes).unwrap_err().to_string();
    assert!(err.contains("shard layout"), "unexpected error: {err}");
    assert!(
        err.contains(&ShardLayout::single(HOSTS).describe()),
        "error must name the snapshot layout: {err}"
    );
    assert!(
        err.contains(&ShardLayout::contiguous(HOSTS, 4).describe()),
        "error must name the configured layout: {err}"
    );

    // And the converse: checkpointed under 4 shards, resumed default.
    let bytes = snapshot_bytes(Some(4));
    let err = resume_with(SimConfig::new(HOSTS), &bytes)
        .unwrap_err()
        .to_string();
    assert!(err.contains("shard layout"), "unexpected error: {err}");
}

#[test]
fn version_mismatch_is_rejected() {
    let mut bytes = snapshot_bytes(None);
    // The version is the u64 directly after the 8-byte magic.
    let bogus = (SNAP_VERSION + 7).to_le_bytes();
    bytes[8..16].copy_from_slice(&bogus);
    reseal(&mut bytes);
    let err = resume_with(SimConfig::new(HOSTS), &bytes)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("version") && err.contains(&SNAP_VERSION.to_string()),
        "unexpected error: {err}"
    );
}

#[test]
fn truncation_is_rejected_at_every_prefix() {
    let bytes = snapshot_bytes(None);
    // Cut inside the header (magic+version), inside the layout block,
    // and near the end; every prefix must fail cleanly, never panic.
    for cut in [4usize, 12, 40, 64, bytes.len() - 9, bytes.len() - 1] {
        let err = resume_with(SimConfig::new(HOSTS), &bytes[..cut]);
        assert!(err.is_err(), "truncated snapshot at {cut} bytes accepted");
    }
}
