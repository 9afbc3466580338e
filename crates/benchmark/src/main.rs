//! `optum-benchmark`: run one workload, run them all, or compare two
//! result documents. See `README.md` beside this crate.

use std::process::{Command, ExitCode};

use optum_benchmark::{compare, run, RunArgs, Scale, WORKLOADS};
use optum_experiments::benchcheck::Json;
use optum_obs::JsonWriter;

const USAGE: &str = "usage:
  optum-benchmark run --workload W --seed S [--seconds T] [--trace 0|1]
  optum-benchmark all [--seed S] [--seconds T] [--runs N] [--out FILE]
  optum-benchmark compare A.json B.json
workloads: calm-optum storm-optum serve-replay shard-100k";

/// Seconds the measured phase is sized for when `--seconds` is absent;
/// equals `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 16.0;

/// Marks the line of a child's output that carries its full result.
const DETAIL: &str = "detail ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Flags of `run` and `all`, parsed strictly: an unknown flag or a bad
/// value is an error, never a default.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    runs: Option<usize>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                flags.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                flags.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--runs" => {
                let v = value()?;
                flags.runs = Some(v.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad(v))?);
            }
            "--out" => flags.out = Some(value()?.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(flags)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let run_args = RunArgs {
        workload: flags
            .workload
            .ok_or_else(|| format!("run needs --workload\n{USAGE}"))?,
        seed: flags
            .seed
            .ok_or_else(|| format!("run needs --seed\n{USAGE}"))?,
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
        traced: flags.traced,
        scale: Scale::Full,
    };
    let result = run(&run_args).map_err(|e| format!("{}: {e}", run_args.workload))?;
    print!("{}", result.render());
    let mut detail = JsonWriter::new();
    result.detail_json(&mut detail);
    println!("{DETAIL}{}", detail.finish());
    println!("{}", result.contract_line());
    Ok(result.correct() && result.failed == 0)
}

/// Runs one workload in a child process (so peak RSS is its own) and
/// returns its detail JSON.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL) {
            Some(json) => detail = Some(json.to_string()),
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    detail.ok_or_else(|| format!("{workload}: child printed no result ({})", output.status))
}

fn cmd_all(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let seed = flags.seed.unwrap_or(42);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let runs = flags.runs.unwrap_or(1);
    let mut details = Vec::new();
    for (workload, _) in WORKLOADS {
        for r in 0..runs {
            details.push(child(workload, seed + r as u64, seconds, false)?);
        }
        details.push(child(workload, seed, seconds, true)?);
    }
    let mut ok = true;
    for d in &details {
        let json = Json::parse(d).map_err(|e| format!("child result does not parse: {e}"))?;
        ok &= json.get("correct") == Some(&Json::Bool(true));
        ok &= json.get("failed").and_then(Json::as_f64) == Some(0.0);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\"seed\":{seed},\"seconds\":{seconds},\"nproc\":{nproc},\"runs\":[{}]}}",
        details.join(",")
    );
    match flags.out {
        Some(path) => {
            std::fs::write(&path, doc).map_err(|e| format!("cannot write {path}: {e}"))?
        }
        None => println!("{doc}"),
    }
    println!(
        "# all: {}",
        if ok { "every check passed" } else { "FAILED" }
    );
    Ok(ok)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let rows = compare::compare(&read(a)?, &read(b)?).map_err(|e| e.to_string())?;
    print!("{}", compare::render(&rows));
    Ok(!rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression))
}
