//! Human-readable rendering of a [`Snapshot`] — the `--trace-summary`
//! table printed by the `repro` binary.

use crate::registry::Snapshot;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1.0e3
}

/// Renders the stage budget of one span whose body is split by a
/// [`StageClock`](crate::StageClock): each lap counter's total, its
/// share of the span's total time and its cost per unit, for `per` =
/// (unit name, units in the run). `None` when the snapshot holds no
/// such span.
pub fn stage_table(snap: &Snapshot, span: &str, laps: &[&str], per: (&str, u64)) -> Option<String> {
    let total_ns = snap.span(span)?.total_ns.max(1) as f64;
    let ((unit, units), head) = (per, format!("{span} stage"));
    let mut out = format!(
        "{head:<28} {:>11} {:>7} {:>12}\n",
        "total_ms",
        "share",
        format!("ns/{unit}")
    );
    let total = (format!("{span} (span total)"), total_ns);
    let rows = laps
        .iter()
        .map(|&l| (l.to_string(), snap.counter(l).unwrap_or(0) as f64));
    for (name, ns) in rows.chain([total]) {
        let (ms, share, per_unit) = (ns / 1.0e6, 100.0 * ns / total_ns, ns / units.max(1) as f64);
        out.push_str(&format!(
            "{name:<28} {ms:>11.3} {share:>6.1}% {per_unit:>12.2}\n"
        ));
    }
    Some(out)
}

/// Renders the snapshot as an aligned text table: spans sorted by
/// total time (descending), then counters, gauges, and histograms.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();

    if !snap.spans.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10}\n",
            "span", "count", "total_ms", "self_ms", "mean_us", "p99_us", "max_us"
        ));
        let mut spans: Vec<_> = snap.spans.iter().collect();
        spans.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        for (name, s) in spans {
            out.push_str(&format!(
                "{:<28} {:>9} {:>11.3} {:>11.3} {:>10.2} {:>10.2} {:>10.2}\n",
                name,
                s.count,
                ms(s.total_ns),
                ms(s.self_ns),
                us(s.hist.mean() as u64),
                us(s.hist.quantile(0.99)),
                us(s.hist.max),
            ));
        }
    }

    if !snap.counters.is_empty() {
        out.push_str(&format!("\n{:<40} {:>14}\n", "counter", "value"));
        for (name, v) in &snap.counters {
            out.push_str(&format!("{name:<40} {v:>14}\n"));
        }
    }

    if !snap.gauges.is_empty() {
        out.push_str(&format!("\n{:<40} {:>14}\n", "gauge", "value"));
        for (name, v) in &snap.gauges {
            out.push_str(&format!("{name:<40} {v:>14.3}\n"));
        }
    }

    if !snap.hists.is_empty() {
        out.push_str(&format!(
            "\n{:<28} {:>9} {:>12} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "mean", "p50", "p99", "max"
        ));
        for (name, h) in &snap.hists {
            out.push_str(&format!(
                "{:<28} {:>9} {:>12.2} {:>10} {:>10} {:>10}\n",
                name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.count == 0 { 0 } else { h.max },
            ));
        }
    }

    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}
