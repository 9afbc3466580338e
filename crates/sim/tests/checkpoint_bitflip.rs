//! Bit-flip fuzzing of snapshot restore: a snapshot with any one bit
//! flipped either resumes or is refused, and a resumed engine steps on
//! without panicking.
//!
//! Two sweeps over one small mid-run snapshot (16 hosts, tick 120,
//! ranks and training collection on, so every section is populated):
//!
//! * **resealed** — the trailer checksum is recomputed after the flip,
//!   so restore has to judge the flipped payload itself. Every bit of
//!   the first 512 bytes (header, cursors, queues, the first nodes'
//!   resident pods) plus seeded bits across the rest; each accepted
//!   snapshot is stepped two ticks.
//! * **not resealed** — every flip must be refused by the checksum.
//!   That holds exactly, not just with high probability: each FNV-1a
//!   step is a bijection of the hash state for a fixed input byte, so a
//!   payload differing in one byte always ends in a different hash, and
//!   a flip inside the trailer changes the stored hash alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use optum_sim::checkpoint::{fnv1a, read_snapshot_file};
use optum_sim::testing::FirstFit;
use optum_sim::{SimConfig, Simulator};
use optum_trace::{arrival_schedule, generate, Workload, WorkloadConfig};
use optum_types::{PodId, SplitMix64, Tick};

const HOSTS: usize = 16;
const SNAP_TICK: Tick = Tick(120);
/// Leading bytes whose every bit the resealed sweep flips.
const HEAD_BYTES: usize = 512;
/// Seeded flips spread over the rest of the snapshot.
const TAIL_FLIPS: usize = 1024;

fn config() -> SimConfig {
    let mut cfg = SimConfig::new(HOSTS);
    cfg.record_ranks = true;
    cfg.collect_training = true;
    cfg
}

struct Fixture {
    workload: Workload,
    schedule: Vec<(Tick, Vec<PodId>)>,
    snapshot: Vec<u8>,
}

impl Fixture {
    /// The pods that arrive at tick `t` (the inbox of `step(t, …)`).
    fn arrivals_at(&self, t: Tick) -> &[PodId] {
        match self.schedule.binary_search_by_key(&t, |(at, _)| *at) {
            Ok(i) => &self.schedule[i].1,
            Err(_) => &[],
        }
    }
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let workload = generate(&WorkloadConfig::small(11)).unwrap();
        let schedule = arrival_schedule(&workload);
        let path = std::env::temp_dir().join(format!("optum-bitflip-{}.snap", std::process::id()));
        let mut cfg = config();
        cfg.checkpoint_path = Some(path.clone());
        let mut fx = Fixture {
            workload,
            schedule,
            snapshot: Vec::new(),
        };
        let mut sim = Simulator::new(&fx.workload, FirstFit, cfg).unwrap();
        while sim.next_step() < SNAP_TICK {
            let t = sim.next_step();
            sim.step(t, fx.arrivals_at(t)).unwrap();
        }
        assert!(sim.running_count() > 0, "the snapshot must hold residents");
        assert_eq!(sim.checkpoint_now().unwrap(), SNAP_TICK);
        fx.snapshot = read_snapshot_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        fx
    })
}

/// Rewrites the trailer checksum after a payload patch.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let sum = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

fn flipped(bit: usize) -> Vec<u8> {
    let mut bytes = fixture().snapshot.clone();
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes
}

/// Resumes from `bytes` and, if that is accepted, steps two ticks.
/// `Ok(true)` when the snapshot was accepted, `Ok(false)` when refused;
/// `Err` carries the message of a panic.
fn resume_and_step(bytes: &[u8]) -> Result<bool, String> {
    let fx = fixture();
    catch_unwind(AssertUnwindSafe(|| {
        let Ok(mut sim) = Simulator::resume(&fx.workload, FirstFit, config(), bytes) else {
            return false;
        };
        for _ in 0..2 {
            let t = sim.next_step();
            if sim.step(t, fx.arrivals_at(t)).is_err() {
                break;
            }
        }
        true
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// Every bit of the first [`HEAD_BYTES`] bytes, then [`TAIL_FLIPS`]
/// seeded bits of the rest of the payload (the trailer excluded: a
/// resealed trailer flip is no flip at all).
fn sweep_bits() -> Vec<usize> {
    let payload_bits = (fixture().snapshot.len() - 8) * 8;
    let head = HEAD_BYTES * 8;
    let mut rng = SplitMix64::new(0xb17f_11b5);
    let mut bits: Vec<usize> = (0..head).collect();
    bits.extend(
        (0..TAIL_FLIPS).map(|_| head + (rng.next_u64() % (payload_bits - head) as u64) as usize),
    );
    bits
}

#[test]
fn resealed_bit_flips_never_panic_resume_or_the_next_steps() {
    let mut accepted = 0;
    let mut panics = Vec::new();
    let bits = sweep_bits();
    for &bit in &bits {
        let mut bytes = flipped(bit);
        reseal(&mut bytes);
        match resume_and_step(&bytes) {
            Ok(ok) => accepted += ok as usize,
            Err(msg) => panics.push(format!("bit {bit} (byte {}): {msg}", bit / 8)),
        }
    }
    assert!(
        panics.is_empty(),
        "{} of {} resealed flips panicked ({accepted} accepted); first: {:#?}",
        panics.len(),
        bits.len(),
        &panics[..panics.len().min(8)]
    );
}

#[test]
fn unsealed_bit_flips_are_refused_by_the_checksum() {
    let fx = fixture();
    let total_bits = fx.snapshot.len() * 8;
    let mut rng = SplitMix64::new(0x5ea1);
    // One bit per byte of the head, every bit of the trailer, and
    // seeded bits across the payload.
    let bits = (0..HEAD_BYTES)
        .map(|byte| byte * 8 + byte % 8)
        .chain(total_bits - 64..total_bits)
        .chain((0..256).map(|_| (rng.next_u64() % total_bits as u64) as usize));
    for bit in bits {
        let err = Simulator::resume(&fx.workload, FirstFit, config(), &flipped(bit))
            .err()
            .unwrap_or_else(|| panic!("flip of bit {bit} was accepted"));
        assert!(
            err.to_string().contains("checksum"),
            "bit {bit}: refused for the wrong reason: {err}"
        );
    }
}

/// Byte offset of the first resident pod's id word: the header, the
/// cursors and the (empty at tick 120) queues come first, then node 0's
/// lifecycle, degrade factor and resident count.
fn first_resident_id_offset(bytes: &[u8]) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    // Magic, version, two fingerprints, shard count, fleet size.
    let shards = word(32);
    let mut at = 48 + 16 * shards + 8; // ranges, tick
    at += 8 + word(at); // scheduler name
    at += 8 + word(at); // scheduler state
    at += 16; // arrival and fault cursors
    at += 8 + 8 * word(at); // pending queue
    at += 8; // sorted flag
    at += 8 + 8 * word(at); // throttle buffer
    at += 8; // node count
    assert!(word(at + 16) > 0, "node 0 must hold a resident");
    at + 24
}

/// A resident pod's identity words must match the workload: a snapshot
/// whose first resident names another app is refused at restore, not
/// run with that app's physics (or, out of range, panicked on).
#[test]
fn resident_identity_is_checked_against_the_workload() {
    let fx = fixture();
    let id_at = first_resident_id_offset(&fx.snapshot);
    let pod = u64::from_le_bytes(fx.snapshot[id_at..id_at + 8].try_into().unwrap());
    let app_at = id_at + 8;
    let app = u64::from_le_bytes(fx.snapshot[app_at..app_at + 8].try_into().unwrap());
    assert_eq!(app, fx.workload.pods[pod as usize].spec.app.0 as u64);

    // The regression case: bit 2 of the app word's second byte.
    assert_eq!(app_at + 1, 178, "the layout moved");
    let mut bytes = flipped(178 * 8 + 2);
    reseal(&mut bytes);
    let err = Simulator::resume(&fx.workload, FirstFit, config(), &bytes)
        .err()
        .expect("a resident with a foreign app must be refused");
    assert!(
        err.to_string().contains(&format!("pod {pod}")),
        "the error must name the pod: {err}"
    );

    // An id word above u32::MAX that truncates to the right id.
    let mut bytes = fx.snapshot.clone();
    bytes[id_at..id_at + 8].copy_from_slice(&((1u64 << 32) | pod).to_le_bytes());
    reseal(&mut bytes);
    assert!(Simulator::resume(&fx.workload, FirstFit, config(), &bytes).is_err());
}
