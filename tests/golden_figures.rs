//! Golden-figure regression suite: the head of the fast-scale
//! `fig19`, `churn`, `degrade`, `overload`, `scale`, `serve` and
//! `disrupt` figure TSVs must match the snapshots in `tests/golden/`
//! byte for byte, at worker-thread counts 1 and 4 — plus checkpoint/resume
//! byte-identity and the degrade/overload sweeps' fig19 anchors.
//!
//! This turns two standing claims into CI-enforced tests: the figure
//! pipeline is deterministic (PR 1/2 verified thread-count invariance
//! by hand), and the observability instrumentation (PR 3) is
//! observation-only — recording spans and counters must not perturb a
//! single output byte.
//!
//! When figure output changes intentionally, regenerate with
//!
//! ```sh
//! cargo run --release -p optum-experiments --example gen_golden
//! ```
//!
//! and justify the diff in the PR.

use std::sync::OnceLock;

use optum_platform::experiments::output::head_lines;
use optum_platform::experiments::overload::OverloadArm;
use optum_platform::experiments::{
    churn, degrade, disrupt, endtoend, overload, scalebench, serve, ExpConfig, Runner,
};
use optum_platform::types::SloClass;

const FIG19_GOLDEN: &str = include_str!("golden/fig19_fast_head.tsv");
const CHURN_GOLDEN: &str = include_str!("golden/churn_fast_head.tsv");
const DEGRADE_GOLDEN: &str = include_str!("golden/degrade_fast_head.tsv");
const OVERLOAD_GOLDEN: &str = include_str!("golden/overload_fast_head.tsv");
const SCALE_GOLDEN: &str = include_str!("golden/scale_fast_head.tsv");
const SERVE_GOLDEN: &str = include_str!("golden/serve_fast_head.tsv");
const DISRUPT_GOLDEN: &str = include_str!("golden/disrupt_fast_head.tsv");

/// Must match `gen_golden.rs`.
const GOLDEN_LINES: usize = 20;
/// Must match `gen_golden.rs`: the scale head covers the outcome and
/// per-class panels, excluding the measured performance panel.
const SCALE_GOLDEN_LINES: usize = 15;
/// Must match `gen_golden.rs`: the serve head covers the session
/// outcome and per-class latency/ledger panels, excluding the
/// measured performance panel.
const SERVE_GOLDEN_LINES: usize = 26;
/// Must match `gen_golden.rs`: the disrupt head covers the session
/// outcome and per-class panels, excluding the measured recovery
/// panel (retry counts and proxy fault tallies are wall-clock racy).
const DISRUPT_GOLDEN_LINES: usize = 40;
/// Must match `gen_golden.rs`: one healthy arm, one stormy arm.
const CHURN_GRID: [f64; 2] = [f64::INFINITY, 0.5];
/// Must match `gen_golden.rs`: the fig19 anchor arm plus one lossy
/// distributed arm (the outage panel always runs).
const DEGRADE_LOSSES: [f64; 2] = [0.0, 0.2];
const DEGRADE_SHARDS: [usize; 2] = [1, 4];
/// Must match `gen_golden.rs`: the fig19 anchor arm plus the fully
/// protected extreme (10× storm, tight cap + decision deadline).
const OVERLOAD_INTENSITIES: [f64; 2] = [1.0, 10.0];
const OVERLOAD_CAPS: [Option<usize>; 2] = [None, Some(1000)];

/// Worker-thread counts the goldens are asserted at. `set_threads`
/// takes precedence over `OPTUM_THREADS`, so the test controls the
/// fan-out without touching process-global env.
const THREAD_COUNTS: [usize; 2] = [1, 4];

#[test]
fn fig19_fast_matches_golden_at_each_thread_count() {
    for threads in THREAD_COUNTS {
        let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
        runner.set_threads(threads);
        let rendered = endtoend::fig19(&mut runner).expect("fig19").render();
        assert_eq!(
            head_lines(&rendered, GOLDEN_LINES),
            FIG19_GOLDEN,
            "fig19 --fast drifted from tests/golden/fig19_fast_head.tsv at threads={threads} \
             (if intentional, regenerate with the gen_golden example)"
        );
    }
}

#[test]
fn degrade_fast_matches_golden_at_each_thread_count() {
    for threads in THREAD_COUNTS {
        let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
        runner.set_threads(threads);
        let rendered = degrade::degrade_grid(&mut runner, &DEGRADE_LOSSES, &DEGRADE_SHARDS)
            .expect("degrade")
            .render();
        assert_eq!(
            head_lines(&rendered, GOLDEN_LINES),
            DEGRADE_GOLDEN,
            "degrade drifted from tests/golden/degrade_fast_head.tsv at threads={threads} \
             (if intentional, regenerate with the gen_golden example)"
        );
    }
}

/// The degrade sweep's loss=0, k=1 arm must report exactly the fig19
/// `Optum` evaluation arm: the distributed machinery with a reliable
/// channel and a single replica is the plain scheduler.
#[test]
fn degrade_loss_zero_anchor_matches_fig19_optum_arm() {
    let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
    runner.set_threads(1);
    let rendered = degrade::degrade_grid(&mut runner, &[0.0], &[1])
        .expect("degrade")
        .render();
    endtoend::fig19(&mut runner).expect("fig19");
    let optum = &runner.roster_cache[0];
    assert_eq!(optum.scheduler, "Optum", "roster order changed");
    let row = rendered
        .lines()
        .find(|l| l.starts_with("0.0\t1\tOptum\t"))
        .expect("degrade output lacks the loss=0 k=1 arm");
    let rate = row.split('\t').nth(3).expect("placement_rate column");
    assert_eq!(
        rate,
        format!("{:.4}", optum.placement_rate()),
        "degrade anchor arm drifted from the fig19 Optum arm"
    );
}

/// A checkpointed fig19 run, killed and resumed from its last
/// snapshot, must render a byte-identical figure TSV — and both must
/// still match the golden head.
#[test]
fn fig19_resumed_from_checkpoint_is_byte_identical() {
    let snap =
        std::env::temp_dir().join(format!("optum-golden-resume-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);

    let mut checkpointed = Runner::new(ExpConfig::fast()).expect("workload generation");
    checkpointed.set_threads(1);
    // Fast scale is 5760 ticks: snapshots land at 2000 and 4000, both
    // before the mid-window commitment snapshot at 4680, so the
    // resumed run must reconstruct it identically.
    checkpointed.set_checkpointing(2000, snap.clone());
    let uninterrupted = endtoend::fig19(&mut checkpointed).expect("fig19").render();
    assert_eq!(
        head_lines(&uninterrupted, GOLDEN_LINES),
        FIG19_GOLDEN,
        "checkpoint writing perturbed fig19 output"
    );
    assert!(snap.exists(), "no checkpoint was written");

    let mut resumed_runner = Runner::new(ExpConfig::fast()).expect("workload generation");
    resumed_runner.set_threads(1);
    resumed_runner.set_resume(snap.clone());
    let resumed = endtoend::fig19(&mut resumed_runner)
        .expect("fig19")
        .render();
    let _ = std::fs::remove_file(&snap);
    assert_eq!(
        resumed, uninterrupted,
        "fig19 resumed from the tick-4000 checkpoint diverged from the uninterrupted run"
    );
}

/// The golden overload grid's arms at `THREAD_COUNTS[i]` worker
/// threads, run once per test binary. The grid is the suite's most
/// expensive computation (its unprotected 10× storm arms dominate), so
/// the overload tests share it instead of each re-running its arms.
fn overload_arms(i: usize) -> &'static [OverloadArm] {
    static ARMS: [OnceLock<Vec<OverloadArm>>; THREAD_COUNTS.len()] =
        [const { OnceLock::new() }; THREAD_COUNTS.len()];
    ARMS[i].get_or_init(|| {
        let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
        runner.set_threads(THREAD_COUNTS[i]);
        overload::overload_results(&mut runner, &OVERLOAD_INTENSITIES, &OVERLOAD_CAPS)
            .expect("overload results")
    })
}

/// The grid's arms at one worker thread, in grid order, restricted to
/// one (intensity, cap) cell per entry of `cells`.
fn overload_cells(cells: &[(f64, Option<usize>)]) -> Vec<&'static OverloadArm> {
    let mut arms = Vec::new();
    for &(intensity, cap) in cells {
        let before = arms.len();
        arms.extend(
            overload_arms(0)
                .iter()
                .filter(|a| a.intensity == intensity && a.cap == cap),
        );
        assert!(
            arms.len() > before,
            "the golden overload grid lacks the {intensity}x / {cap:?} cell"
        );
    }
    arms
}

#[test]
fn overload_fast_matches_golden_at_each_thread_count() {
    // The thread counts run side by side: each grid is serial work at
    // heart (one long storm arm), and the comparison is per count.
    std::thread::scope(|s| {
        let grids: Vec<_> = (0..THREAD_COUNTS.len())
            .map(|i| s.spawn(move || overload_arms(i)))
            .collect();
        for (grid, threads) in grids.into_iter().zip(THREAD_COUNTS) {
            let rendered = overload::overload_figure(grid.join().expect("overload grid")).render();
            assert_eq!(
                head_lines(&rendered, GOLDEN_LINES),
                OVERLOAD_GOLDEN,
                "overload drifted from tests/golden/overload_fast_head.tsv at threads={threads} \
                 (if intentional, regenerate with the gen_golden example)"
            );
        }
    });
}

/// The overload sweep's intensity=1, cap=∞ arm must reproduce the
/// fig19 `Optum` evaluation arm byte for byte: a unit-intensity storm
/// leaves the workload untouched and disabled protection leaves the
/// engine's hot paths untouched, so the overload subsystem costs
/// nothing when off.
#[test]
fn overload_calm_unprotected_arm_matches_fig19_optum_arm() {
    let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
    // Fan-out is bit-identical at every thread count (the golden test
    // above asserts it), so use auto threads for wall time.
    runner.set_threads(0);
    let arms = overload_cells(&[(1.0, None)]);
    endtoend::fig19(&mut runner).expect("fig19");
    let optum = &runner.roster_cache[0];
    assert_eq!(optum.scheduler, "Optum", "fig19 roster order changed");
    let arm = &arms[5].result;
    assert_eq!(arm.scheduler, "Optum", "overload roster order changed");
    assert_eq!(
        arm.outcomes, optum.outcomes,
        "overload anchor arm's pod outcomes drifted from the fig19 Optum arm"
    );
    assert_eq!(
        arm.cluster_series, optum.cluster_series,
        "overload anchor arm's cluster series drifted from the fig19 Optum arm"
    );
    assert_eq!(arm.overload.total_shed(), 0);
}

/// Under a 10× storm with the bounded queue, shedding must be
/// class-aware — best-effort absorbs denial first, the reserved tier
/// last — and the protection must keep the reserved tier's waiting
/// tail near its calm-weather value.
#[test]
fn overload_storm_sheds_in_class_order_and_protects_lsr_tail() {
    let arms = overload_cells(&[(1.0, Some(1000)), (10.0, Some(1000))]);
    let (calm, storm) = arms.split_at(6);
    for (calm_arm, storm_arm) in calm.iter().zip(storm) {
        let r = &storm_arm.result;
        let be = r.overload.class(SloClass::Be);
        let ls = r.overload.class(SloClass::Ls);
        let lsr = r.overload.class(SloClass::Lsr);
        assert!(
            be.shed_rate() >= ls.shed_rate() && ls.shed_rate() >= lsr.shed_rate(),
            "{}: shedding not in class order (BE {:.4} / LS {:.4} / LSR {:.4})",
            r.scheduler,
            be.shed_rate(),
            ls.shed_rate(),
            lsr.shed_rate()
        );
        assert!(
            be.shed_rate() > 0.0,
            "{}: a 10x storm over a bounded queue must shed best-effort work",
            r.scheduler
        );
        // Calm-weather LSR p99 is ~0 ticks at fast scale, so the 2×
        // criterion needs an absolute floor: allow up to an hour (120
        // ticks) of reserved-tier tail — the unprotected classes' tails
        // explode past 3000 ticks under the same storm.
        let p99_calm = overload::p99_wait(&calm_arm.result, SloClass::Lsr);
        let p99_storm = overload::p99_wait(r, SloClass::Lsr);
        assert!(
            p99_storm <= (2.0 * p99_calm).max(120.0),
            "{}: LSR p99 wait exploded under protection ({p99_storm:.1} ticks vs {p99_calm:.1} calm)",
            r.scheduler
        );
    }
}

/// The sharded engine's fast sweep (hosts {256, 1024} × shards
/// {1, 4}) must match the golden head byte for byte at worker-thread
/// counts 1 and 4. The head covers the outcome and per-class panels —
/// including the per-arm digest column, so this pins "shards and
/// threads are invisible in the physics" as a CI fact.
#[test]
fn scale_fast_matches_golden_at_each_thread_count() {
    for threads in THREAD_COUNTS {
        let rendered = scalebench::scale_with_threads(&ExpConfig::fast(), threads)
            .expect("scale")
            .render();
        assert_eq!(
            head_lines(&rendered, SCALE_GOLDEN_LINES),
            SCALE_GOLDEN,
            "scale drifted from tests/golden/scale_fast_head.tsv at threads={threads} \
             (if intentional, regenerate with the gen_golden example)"
        );
    }
}

/// The serve figure — full optumd/optumload sessions over real
/// loopback sockets — must match the golden head byte for byte. The
/// head covers the session-outcome panel (digest column included) and
/// the per-class latency/ledger panel; the figure itself contains a
/// conns=1 and a conns=4 arm at the same seed/rate, so this golden
/// pins the replay-determinism claim: socket interleaving and
/// connection count are invisible in every reported byte. (The serve
/// engine is single-threaded by design — the worker-pool thread knob
/// the other figures loop over does not exist here.)
#[test]
fn serve_fast_matches_golden() {
    let rendered = serve::serve(&ExpConfig::fast()).expect("serve").render();
    assert_eq!(
        head_lines(&rendered, SERVE_GOLDEN_LINES),
        SERVE_GOLDEN,
        "serve drifted from tests/golden/serve_fast_head.tsv \
         (if intentional, regenerate with the gen_golden example)"
    );
}

/// The disrupt figure — serve sessions through a seeded chaos proxy,
/// plus a leased death arm — must match the golden head byte for
/// byte. The head pins two claims at once: every reconnectable-fault
/// arm carries the *same digest as the fault-free baseline* (wire
/// faults are invisible in deterministic output), and the death arm's
/// ledger balances with a nonzero `disconnected` class (evictions are
/// a deterministic outcome, not an accounting leak).
#[test]
fn disrupt_fast_matches_golden() {
    let rendered = disrupt::disrupt(&ExpConfig::fast())
        .expect("disrupt")
        .render();
    assert_eq!(
        head_lines(&rendered, DISRUPT_GOLDEN_LINES),
        DISRUPT_GOLDEN,
        "disrupt drifted from tests/golden/disrupt_fast_head.tsv \
         (if intentional, regenerate with the gen_golden example)"
    );
}

/// Cross-figure anchor: the disrupt baseline (and therefore every
/// converging fault arm) reports exactly the digest of the serve
/// figure's conns=4 rate=1 arm — the chaos plumbing costs nothing
/// when quiet.
#[test]
fn disrupt_baseline_digest_matches_the_serve_conns4_arm() {
    let serve_digest = SERVE_GOLDEN
        .lines()
        .find(|l| l.starts_with("4\t1\tnone\t"))
        .and_then(|l| l.split('\t').next_back())
        .expect("serve golden lacks the conns=4 rate=1 arm");
    let disrupt_digest = DISRUPT_GOLDEN
        .lines()
        .find(|l| l.starts_with("baseline\t"))
        .and_then(|l| l.split('\t').next_back())
        .expect("disrupt golden lacks the baseline arm");
    assert_eq!(
        disrupt_digest, serve_digest,
        "the disrupt baseline arm drifted from the serve conns=4 arm"
    );
}

#[test]
fn churn_fast_matches_golden_at_each_thread_count() {
    for threads in THREAD_COUNTS {
        let mut runner = Runner::new(ExpConfig::fast()).expect("workload generation");
        runner.set_threads(threads);
        let rendered = churn::churn_grid(&mut runner, &CHURN_GRID)
            .expect("churn")
            .render();
        assert_eq!(
            head_lines(&rendered, GOLDEN_LINES),
            CHURN_GOLDEN,
            "churn drifted from tests/golden/churn_fast_head.tsv at threads={threads} \
             (if intentional, regenerate with the gen_golden example)"
        );
    }
}
