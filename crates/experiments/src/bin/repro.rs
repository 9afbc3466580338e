//! Regenerates the paper's figures from the synthetic testbed.
//!
//! ```text
//! repro <figure-id>... [--fast] [--hosts N] [--days D] [--seed S] [--threads T]
//!                      [--shards N] [--trace-summary] [--bench-dir DIR] [--no-bench]
//!                      [--checkpoint-every N] [--checkpoint-path FILE] [--resume FILE]
//!                      [--queue-cap N]
//! repro all [--fast]
//! ```
//!
//! `--shards N` narrows the `scale` experiment's shard grid to one arm
//! and records the N-shard layout in legacy-figure checkpoints (a
//! resume under a different `--shards` is rejected with an error
//! naming both layouts).
//!
//! `--queue-cap N` restricts the `overload` experiment to a single
//! queue-cap arm (`0` = unbounded) instead of its default cap grid;
//! it has no effect on other figures.
//!
//! `--threads` (or the `OPTUM_THREADS` environment variable) sets the
//! worker count for the parallel fan-out of independent simulations
//! and model fits; results are bit-identical for every thread count.
//!
//! After each figure a machine-readable perf snapshot is written to
//! `BENCH_<figure>.json` (wall time, per-phase span breakdown,
//! decision-latency histogram, peak RSS, placement/eviction counters;
//! see EXPERIMENTS.md). `--bench-dir` picks the output directory
//! (default: current directory), `--no-bench` disables the export,
//! and `--trace-summary` additionally prints a human-readable span
//! table to stderr. Figure TSV on stdout is unaffected.
//!
//! `--checkpoint-every N` writes a crash-consistent snapshot of the
//! reference run every N ticks to `--checkpoint-path` (default
//! `optum-reference.snap`); after a kill, `--resume FILE` continues
//! from the last snapshot and produces byte-identical figure TSVs.

use optum_experiments::{benchcheck, run_figure_with, snapshot, ExpConfig, Runner, ALL_FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_exit();
    }
    let mut config = ExpConfig::standard();
    let mut figures: Vec<String> = Vec::new();
    let mut trace_summary = false;
    let mut write_bench = true;
    let mut bench_dir = std::path::PathBuf::from(".");
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_path = std::path::PathBuf::from("optum-reference.snap");
    let mut resume_from: Option<std::path::PathBuf> = None;
    let mut queue_cap: Option<Option<usize>> = None;
    let mut gate = benchcheck::BenchCheckOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baselines" => gate.baseline_dir = flag_value(&args, &mut i),
            "--report" => gate.report = flag_value(&args, &mut i),
            "--tolerance-pct" => {
                let pct: f64 = flag_value(&args, &mut i);
                gate.tolerance = pct / 100.0;
            }
            "--retries" => gate.retries = flag_value(&args, &mut i),
            "--fast" => {
                config = ExpConfig {
                    seed: config.seed,
                    shards: config.shards,
                    ..ExpConfig::fast()
                }
            }
            "--trace-summary" => trace_summary = true,
            "--no-bench" => write_bench = false,
            "--bench-dir" => bench_dir = flag_value(&args, &mut i),
            "--checkpoint-every" => checkpoint_every = Some(flag_value(&args, &mut i)),
            "--checkpoint-path" => checkpoint_path = flag_value(&args, &mut i),
            "--resume" => resume_from = Some(flag_value(&args, &mut i)),
            "--queue-cap" => {
                let n: usize = flag_value(&args, &mut i);
                queue_cap = Some(if n == 0 { None } else { Some(n) });
            }
            "--hosts" => config.hosts = flag_value(&args, &mut i),
            "--days" => config.days = flag_value(&args, &mut i),
            "--seed" => config.seed = flag_value(&args, &mut i),
            "--shards" => config.shards = Some(flag_value(&args, &mut i)),
            "--threads" => {
                let t: usize = flag_value(&args, &mut i);
                // Export so every layer (experiment fan-out, profiler
                // training) resolves the same worker count.
                std::env::set_var(optum_parallel::THREADS_ENV, t.to_string());
            }
            "all" => figures.extend(ALL_FIGURES.iter().map(|s| s.to_string())),
            other => figures.push(other.to_string()),
        }
        i += 1;
    }
    if figures.iter().any(|f| f == "all") {
        figures = ALL_FIGURES.iter().map(|s| s.to_string()).collect();
    }
    // The perf-regression gate runs its own fresh runners (one per
    // attempt) so retries are comparable to the committed baseline.
    if figures.first().is_some_and(|f| f == "bench-check") {
        gate.figures = figures[1..].to_vec();
        match benchcheck::bench_check(&config, &gate) {
            Ok(verdicts) => {
                let report = benchcheck::render_report(&verdicts, &config, gate.tolerance);
                eprint!("{report}");
                if let Err(e) = std::fs::write(&gate.report, &report) {
                    eprintln!("# bench-check: cannot write {}: {e}", gate.report.display());
                    std::process::exit(1);
                }
                eprintln!("# wrote {}", gate.report.display());
                if verdicts.iter().all(benchcheck::FigureVerdict::pass) {
                    return;
                }
                // Missing baselines are actionable setup work, not a
                // perf regression: distinct exit code so CI can tell
                // "commit a baseline" apart from "you made it slower".
                if verdicts.iter().all(|v| v.pass() || v.missing) {
                    eprintln!("# bench-check: baselines missing (exit 3); see report");
                    std::process::exit(3);
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("# bench-check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "# scale: {} hosts, {} days, seed {}, {} worker threads",
        config.hosts,
        config.days,
        config.seed,
        optum_parallel::default_threads()
    );
    let mut runner = Runner::new(config.clone()).expect("workload generation");
    if let Some(every) = checkpoint_every {
        runner.set_checkpointing(every, checkpoint_path);
    }
    if let Some(path) = resume_from {
        runner.set_resume(path);
    }
    for id in &figures {
        // Each figure gets its own metrics window, so a BENCH snapshot
        // covers exactly one figure (shared-runner artifacts like the
        // reference run are attributed to the figure that computed
        // them).
        optum_obs::reset();
        let start = std::time::Instant::now();
        // `--queue-cap` narrows the overload sweep to one cap arm.
        let outcome = match (id.as_str(), queue_cap) {
            ("overload", Some(cap)) => optum_experiments::overload::overload_grid(
                &mut runner,
                &optum_experiments::overload::INTENSITY_GRID,
                &[cap],
            ),
            _ => run_figure_with(id, &mut runner, &config),
        };
        match outcome {
            Ok(fig) => {
                print!("{}", fig.render());
                let wall = start.elapsed().as_secs_f64();
                eprintln!("# {id} done in {wall:.1}s");
                let snap = optum_obs::snapshot();
                if trace_summary {
                    eprintln!("# trace summary for {id}:");
                    eprint!("{}", optum_obs::render_summary(&snap));
                    let tables = [
                        optum_sim::physics_stage_table(&snap),
                        optum_shard::tick_stage_table(&snap),
                    ];
                    for table in tables.into_iter().flatten() {
                        eprint!("\n{table}");
                    }
                }
                if write_bench {
                    let json = snapshot::bench_json(id, &config, wall, &snap);
                    match snapshot::write_bench(&bench_dir, id, &json) {
                        Ok(path) => eprintln!("# wrote {}", path.display()),
                        Err(e) => eprintln!("# BENCH export for {id} failed: {e}"),
                    }
                }
            }
            Err(e) => {
                eprintln!("# {id} FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: repro <figure-id>|all [--fast] [--hosts N] [--days D] [--seed S] [--threads T] [--shards N] [--trace-summary] [--bench-dir DIR] [--no-bench] [--checkpoint-every N] [--checkpoint-path FILE] [--resume FILE] [--queue-cap N]"
    );
    eprintln!(
        "       repro bench-check [figure-id...] [--fast] [--baselines DIR] [--report FILE] [--tolerance-pct N] [--retries N]"
    );
    eprintln!(
        "figures: {ALL_FIGURES:?} + fig22 + churn + degrade + overload + scale + serve + disrupt"
    );
    std::process::exit(2);
}

/// Parses the value that follows the flag at `args[*i]` and steps `i`
/// onto it. A missing or malformed value names the flag, prints the
/// usage and exits 2.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i) {
        None => eprintln!("repro: {flag} needs a value"),
        Some(value) => match value.parse() {
            Ok(v) => return v,
            Err(_) => eprintln!("repro: {flag} cannot take {value:?}"),
        },
    }
    usage_exit()
}
