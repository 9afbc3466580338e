//! `compare A.json B.json`: applies the end-to-end bounds to two result
//! documents written by `all` — the baseline `A` and the candidate `B`.

use optum_experiments::benchcheck::Json;
use optum_types::{Error, Result};

use crate::measure::Summary;
use crate::metrics::{applies, END_TO_END};
use crate::WORKLOADS;

/// How one metric of one workload fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the baseline by more than the bound.
    Ok,
    /// Worse by more than the bound, but either side's spread over its
    /// runs is wider than the bound: the runs cannot tell.
    Unresolved,
    /// Worse by more than the bound.
    Regression,
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline summary.
    pub a: Summary,
    /// Candidate summary.
    pub b: Summary,
    /// Share of the baseline by which the candidate is worse
    /// (negative = better).
    pub worse_by: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The untraced runs of one workload in a result document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

/// One metric over a workload's runs: the median of the per-run values
/// with their quartiles — the statistic the bound is applied to and the
/// spread it is weighed against. One run has no spread.
fn summarise(runs: &[&Json], metric: &str) -> Option<Summary> {
    let value = |run: &&Json| run.get("metrics")?.get(metric)?.get("value")?.as_f64();
    let values: Option<Vec<f64>> = runs.iter().map(value).collect();
    Some(Summary::of(&values?))
}

fn failed_share(runs: &[&Json]) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compares two result documents; `Err` when either does not parse or
/// lacks a workload's untraced run.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>> {
    let a = Json::parse(a_text)?;
    let b = Json::parse(b_text)?;
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let (runs_a, runs_b) = (untraced(&a, workload), untraced(&b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(Error::InvalidData(format!(
                "no untraced run of '{workload}' on one side"
            )));
        }
        for m in END_TO_END {
            if !applies(m.name, workload) {
                continue;
            }
            let missing = || Error::InvalidData(format!("'{workload}' lacks metric {}", m.name));
            let sa = summarise(&runs_a, m.name).ok_or_else(missing)?;
            let sb = summarise(&runs_b, m.name).ok_or_else(missing)?;
            let delta = if m.higher_is_better {
                sa.value - sb.value
            } else {
                sb.value - sa.value
            };
            let worse_by = delta / sa.value.abs().max(f64::MIN_POSITIVE);
            let verdict = if worse_by <= m.bound {
                Verdict::Ok
            } else if sa.spread().max(sb.spread()) > m.bound {
                Verdict::Unresolved
            } else {
                Verdict::Regression
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: sa,
                b: sb,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
        // Any increase in failures is a regression: there is no bound.
        let (fa, fb) = (failed_share(&runs_a), failed_share(&runs_b));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_share",
            a: Summary::single(fa),
            b: Summary::single(fb),
            worse_by: fb - fa,
            bound: 0.0,
            verdict: if fb > fa {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// Renders the comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "workload\tmetric\tA value [q1, q3] n\tB value [q1, q3] n\tworse by\tbound\tverdict\n",
    );
    for r in rows {
        let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] {}", s.value, s.q1, s.q3, s.n);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{:+.1}%\t{:.0}%\t{}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(pods_per_s: &[f64], failed: u64) -> String {
        let mut runs = Vec::new();
        for (workload, _) in WORKLOADS {
            for v in pods_per_s {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        let x = if m.name == "pods_per_s" { *v } else { 1.0 };
                        format!(r#""{}":{{"value":{x},"q1":{x},"q3":{x},"n":1}}"#, m.name)
                    })
                    .collect();
                runs.push(format!(
                    r#"{{"workload":"{workload}","traced":false,"attempted":10,"failed":{failed},"metrics":{{{}}}}}"#,
                    metrics.join(",")
                ));
            }
        }
        format!(r#"{{"runs":[{}]}}"#, runs.join(","))
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("row present")
            .verdict
    }

    #[test]
    fn bounds_are_applied_in_the_bad_direction_only() {
        let base = doc(&[100.0], 0);
        let rows = compare(&base, &doc(&[95.0], 0)).unwrap();
        assert_eq!(verdict_of(&rows, "pods_per_s"), Verdict::Ok);
        let rows = compare(&base, &doc(&[70.0], 0)).unwrap();
        assert_eq!(verdict_of(&rows, "pods_per_s"), Verdict::Regression);
        let rows = compare(&base, &doc(&[180.0], 0)).unwrap();
        assert_eq!(verdict_of(&rows, "pods_per_s"), Verdict::Ok);
        // The verdict-lag stand-ins of the workloads with no wire are
        // not compared.
        let lag_rows: Vec<&str> = rows
            .iter()
            .filter(|r| r.metric.starts_with("verdict_lag_"))
            .map(|r| r.workload.as_str())
            .collect();
        assert_eq!(lag_rows, ["serve-replay", "serve-replay"]);
    }

    #[test]
    fn wide_spread_is_unresolved_and_failures_always_count() {
        let noisy = doc(&[60.0, 100.0, 140.0], 0);
        let rows = compare(&noisy, &doc(&[60.0], 0)).unwrap();
        assert_eq!(verdict_of(&rows, "pods_per_s"), Verdict::Unresolved);
        let rows = compare(&doc(&[100.0], 0), &doc(&[100.0], 1)).unwrap();
        assert_eq!(verdict_of(&rows, "failed_share"), Verdict::Regression);
    }
}
