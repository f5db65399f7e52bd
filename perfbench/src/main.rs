//! `perfbench` — the end-to-end serving benchmark.
//!
//! ```text
//! perfbench --workload <identify-99|ingest-95|routed-90> --seed <n>
//!           --seconds <s> --trace <0|1> --pc <path to pc> --work <dir>
//! ```
//!
//! One run generates (or reloads) the seeded inputs, starts the release
//! `pc serve` replicas — behind `pc route` on the routed workload — times
//! their set-up, drives a closed loop of checked requests for `--seconds`,
//! reads peak memory, and shuts everything down. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` repeats the workload with per-request
//! stage traces, snapshots the servers' own counters, replays a sample of
//! the inputs through each layer in-process, and reports per-layer
//! metrics. The last line of standard output is one JSON object; any wrong
//! answer or failed structural check makes the exit code non-zero.

mod gen;
mod layers;
mod load;
mod procs;
mod report;

use load::OpKind;
use report::{percentile, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Tiers started per untraced run to time set-up; the median is reported
/// and the last one serves the load. When the first set-up says all of them
/// would take more than `SETUP_BUDGET_S` (the 100k-chip store opens in
/// ~14 s), two are made.
const SETUP_RUNS: usize = 3;
const SETUP_BUDGET_S: f64 = 20.0;
/// Cached input sets kept per workload besides the current one.
const CACHED_SEEDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pc: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pc = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad --seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            "--pc" => pc = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        pc: pc.ok_or("--pc is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` means a wrong answer or a failed check
/// (the result line is still printed, with `"correct": false`).
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = gen::spec(&args.workload).ok_or_else(|| {
        let names: Vec<_> = gen::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {:?} (one of {names:?})", args.workload)
    })?;
    let cache = args.work.join("cache");
    evict_cache(&cache, spec.name, args.seed);
    let inputs = gen::inputs(&spec, args.seed, &cache)?;
    println!(
        "perfbench {} seed {} ({}): {} chips at {:.0}% accuracy, {} replica(s){}, mix identify/characterize/ingest {}/{}/{} %, {} connections, {} s",
        spec.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        spec.chips,
        100.0 * (1.0 - spec.error_rate),
        spec.replicas,
        if spec.routed { " behind pc route" } else { "" },
        spec.mix[0],
        spec.mix[1],
        spec.mix[2],
        load::CONNECTIONS,
        args.seconds,
    );
    if inputs.generated_s > 0.0 {
        println!("generated inputs in {:.2} s", inputs.generated_s);
    }
    let tier_dir = args
        .work
        .join(format!("tier-{}-{}", spec.name, std::process::id()));
    if args.trace {
        layers::traced_run(
            &args.pc,
            &spec,
            &inputs,
            args.seed,
            args.seconds,
            &tier_dir,
            &args.work,
        )
    } else {
        untraced_run(&args, &spec, &inputs, &tier_dir)
    }
}

fn untraced_run(
    args: &Args,
    spec: &gen::Spec,
    inputs: &gen::Inputs,
    tier_dir: &Path,
) -> Result<bool, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut tier = None;
    for k in 0..SETUP_RUNS {
        let last =
            k + 1 == SETUP_RUNS || (k == 1 && setups[0] * SETUP_RUNS as f64 > SETUP_BUDGET_S);
        let t = procs::Tier::start(
            &args.pc,
            &inputs.db_path,
            &inputs.index_path,
            spec.replicas,
            spec.routed,
            tier_dir,
        )?;
        setups.push(t.setup_s);
        if last {
            tier = Some(t);
            break;
        }
        t.kill();
    }
    let tier = tier.ok_or("no tier was started")?;
    let result = load::run(tier.front(), spec, inputs, args.seed, args.seconds, false)?;
    let rss_kb: u64 = tier
        .procs()
        .map(|p| p.peak_rss_kb())
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .sum();
    tier.kill();

    let all: Vec<u64> = result.latencies.values().flatten().copied().collect();
    let identify = result
        .latencies
        .get(&OpKind::Identify)
        .cloned()
        .unwrap_or_default();
    let metrics = vec![
        Metric::new("setup_s", report::median(&setups), "s"),
        Metric::new("ops_per_s", result.ops_per_s, "1/s"),
        Metric::new(
            "identify_p50_us",
            percentile(&identify, 0.50).ok_or("no identify answered")?,
            "us",
        ),
        Metric::new(
            "latency_p90_us",
            percentile(&all, 0.90).ok_or("no call answered")?,
            "us",
        ),
        Metric::new("rss_mb", rss_kb as f64 / 1024.0, "MB"),
    ];
    println!("set-up runs (s): {setups:?}");
    report::print_ops(&result);
    report::print_metrics("end-to-end metrics", &metrics);
    report::print_metrics(
        "per-op latency, not in the result line",
        &op_metrics(&result),
    );
    Ok(report::finish(&result, &metrics, Vec::new()))
}

/// The per-op latency metrics this workload can report: the median of
/// every write op it sends, and each op's tail (p99 for reads, p90 for the rarer
/// writes) when at least ten samples lie beyond it. They stay out of the
/// result line, which carries the same metrics on every workload.
fn op_metrics(result: &load::LoadResult) -> Vec<Metric> {
    let mut out = Vec::new();
    for (op, q, tail_name) in [
        (OpKind::Identify, 0.99, "identify_p99_us"),
        (OpKind::Characterize, 0.90, "characterize_p90_us"),
        (OpKind::Ingest, 0.90, "ingest_p90_us"),
    ] {
        let Some(lats) = result.latencies.get(&op) else {
            continue;
        };
        // identify_p50_us is already an end-to-end metric.
        if let (false, Some(p50)) = (op == OpKind::Identify, report::tail(lats, 0.50)) {
            out.push(Metric::new(&format!("{}_p50_us", op.name()), p50, "us"));
        }
        if let Some(t) = report::tail(lats, q) {
            out.push(Metric::new(tail_name, t, "us"));
        }
    }
    out
}

/// Keeps the cache small: the current seed's inputs plus the most recently
/// used few of this workload.
fn evict_cache(cache: &Path, workload: &str, seed: u64) {
    let Ok(entries) = std::fs::read_dir(cache) else {
        return;
    };
    let current = format!("-s{seed}");
    let mut others: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name.starts_with(&format!("{workload}-v")) && !name.ends_with(&current))
                .then(|| Some((e.metadata().ok()?.modified().ok()?, e.path())))
                .flatten()
        })
        .collect();
    others.sort();
    let excess = others.len().saturating_sub(CACHED_SEEDS);
    for (_, path) in others.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(path);
    }
}
