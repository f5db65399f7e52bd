//! Metric values, percentiles, and the result line.

use crate::load::{LoadResult, OP_KINDS};
use pc_telemetry::JsonObject;
use std::time::Instant;

/// The benchmark's one clock read: every latency, rate and set-up time it
/// reports is wall-clock time by definition.
pub fn now() -> Instant {
    // pc-allow: D002 — a benchmark measures wall-clock time
    Instant::now()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The nearest-rank `q`-quantile of nanosecond samples, in microseconds.
pub fn percentile(ns: &[u64], q: f64) -> Option<f64> {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1)) - 1;
    sorted.get(rank).map(|&v| v as f64 / 1_000.0)
}

/// [`percentile`], but only when at least ten samples lie beyond it.
pub fn tail(ns: &[u64], q: f64) -> Option<f64> {
    let rank = ((q * ns.len() as f64).ceil() as usize).max(1) - 1;
    if ns.len() < rank + 11 {
        return None;
    }
    percentile(ns, q)
}

/// The median of plain values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-op attempted, succeeded and failed calls, and the latency samples
/// kept (answered calls after the warm-up).
pub fn print_ops(result: &LoadResult) {
    println!(
        "{:<13} {:>9} {:>9} {:>6} {:>8}",
        "op", "attempted", "succeeded", "failed", "samples"
    );
    for op in OP_KINDS {
        let attempted = result.attempted.get(&op).copied().unwrap_or(0);
        if attempted == 0 {
            continue;
        }
        let failed = result.failed.get(&op).copied().unwrap_or(0);
        let samples = result.latencies.get(&op).map_or(0, Vec::len);
        println!(
            "{:<13} {:>9} {:>9} {:>6} {:>8}",
            op.name(),
            attempted,
            attempted.saturating_sub(failed),
            failed,
            samples
        );
    }
    for f in &result.failures {
        println!("failure: {f}");
    }
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<42} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Prints the result line and returns whether the run was correct: every
/// answer right and no structural check failed (`violations`).
pub fn finish(result: &LoadResult, metrics: &[Metric], violations: Vec<String>) -> bool {
    let attempted: u64 = result.attempted.values().sum();
    let failed: u64 = result.failed.values().sum::<u64>() + violations.len() as u64;
    for v in violations.iter().take(5) {
        println!("structural check failed: {v}");
    }
    let correct = failed == 0 && attempted > 0;
    let mut values = JsonObject::new();
    for m in metrics {
        let mut entry = JsonObject::new();
        entry.set("value", m.value).set("unit", m.unit);
        values.set(&m.name, entry);
    }
    let mut line = JsonObject::new();
    line.set("correct", correct)
        .set("attempted", attempted.max(1))
        .set("failed", failed.min(attempted.max(1)))
        .set("metrics", values);
    println!("{}", line.to_compact());
    correct
}
