//! The traced run: the same workload with per-request stage traces, the
//! servers' own counters before and after, and an in-process replay of a
//! sample of the inputs through each layer's public functions.
//!
//! Every per-layer number is measured from outside the program: from the
//! `Traced` body a replica (or the router) attaches to each answer, from
//! its `stats`/`metrics`/`ring-status` frames, or by timing a call into a
//! layer's public function here.

use crate::gen::{Inputs, Rng, Spec};
use crate::load::{self, LoadResult, OpKind, TracedCall};
use crate::procs::{self, Tier};
use crate::report::{self, median, percentile, Metric};
use pc_kernels::{distance_packed, score_subset, MetricKind, PackedErrors, Parallelism};
use pc_service::protocol::{self, MetricsBody, Request, Response, RingStatusBody, StatsBody};
use pc_service::{ShardedStore, StoreConfig};
use pc_telemetry::parse_json;
use probable_cause::{persistence, ErrorString, MinHasher};
use std::fs::{self, File};
use std::io::{BufReader, Write};
use std::path::Path;

/// Inputs replayed in-process per layer (a sample of the workload's own).
const REPLAY: usize = 120;

/// Counters read from one serving process.
struct Snapshot {
    stats: Option<StatsBody>,
    metrics: MetricsBody,
    ring: RingStatusBody,
}

fn snapshot(addr: &str, with_stats: bool) -> Result<Snapshot, String> {
    let mut client = procs::connect(addr)?;
    let mut ask = |request: Request| {
        client
            .call(&request)
            .map_err(|e| format!("{} to {addr}: {e}", request.op()))
    };
    let stats = if with_stats {
        match ask(Request::Stats)? {
            Response::Stats(s) => Some(s),
            other => return Err(format!("stats answered {other:?}")),
        }
    } else {
        None
    };
    let metrics = match ask(Request::Metrics)? {
        Response::Metrics(m) => m,
        other => return Err(format!("metrics answered {other:?}")),
    };
    let ring = match ask(Request::RingStatus)? {
        Response::RingStatus(r) => r,
        other => return Err(format!("ring-status answered {other:?}")),
    };
    Ok(Snapshot {
        stats,
        metrics,
        ring,
    })
}

/// Snapshots of every replica, then of the router if there is one.
/// Counters of a whole tier at one moment.
struct TierSnapshot {
    replicas: Vec<Snapshot>,
    router: Option<Snapshot>,
}

fn snapshot_tier(tier: &Tier) -> Result<TierSnapshot, String> {
    let replicas = tier
        .replicas
        .iter()
        .map(|p| snapshot(&p.addr, true))
        .collect::<Result<Vec<_>, _>>()?;
    let router = match &tier.router {
        Some(r) => Some(snapshot(&r.addr, false)?),
        None => None,
    };
    Ok(TierSnapshot { replicas, router })
}

fn op_row<'a>(m: &'a MetricsBody, op: &str) -> Option<&'a protocol::OpLatency> {
    m.ops.iter().find(|o| o.op == op)
}

/// One request's stage split as a replica measured it.
struct Stages {
    op: OpKind,
    decode_ns: u64,
    queue_wait_ns: u64,
    score_ns: u64,
    total_ns: u64,
}

/// The replicas' stage splits of the load's requests. Direct to a replica,
/// every answer's `Traced` body is one. Behind the router, the `Traced`
/// body is the router's own (it strips the replica's), so the split comes
/// from each replica's flight recorder (`trace-dump`: its most recent
/// requests, timed to write completion) read right after the load.
fn replica_stages(tier: &Tier, routed: bool, calls: &[TracedCall]) -> Result<Vec<Stages>, String> {
    if !routed {
        return Ok(calls
            .iter()
            .map(|c| Stages {
                op: c.op,
                decode_ns: c.trace.decode_ns,
                queue_wait_ns: c.trace.queue_wait_ns,
                score_ns: c.trace.score_ns,
                total_ns: c.trace.total_ns,
            })
            .collect());
    }
    let mut stages = Vec::new();
    for p in &tier.replicas {
        let traces = match procs::connect(&p.addr)?.call(&Request::TraceDump) {
            Ok(Response::TraceDump { traces }) => traces,
            Ok(other) => return Err(format!("trace-dump answered {other:?}")),
            Err(e) => return Err(format!("trace-dump to {}: {e}", p.addr)),
        };
        for t in traces {
            let Some(op) = load::OP_KINDS.into_iter().find(|k| k.wire_name() == t.op) else {
                continue;
            };
            stages.push(Stages {
                op,
                decode_ns: t.decode_ns,
                queue_wait_ns: t.queue_wait_ns,
                score_ns: t.score_ns,
                total_ns: t.total_ns,
            });
        }
    }
    Ok(stages)
}

/// One span of the in-memory trace: a client call or one of its parts.
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

/// Lays each traced call out as a `client.call` span whose children are
/// the answering process's stages followed by the client-side remainder
/// (`client.wire`: both socket hops plus client encode/decode), and checks
/// the structure: stages sum to the server total, the server total fits in
/// the client latency, and every child lies inside its parent.
fn spans_of(calls: &[TracedCall], routed: bool, violations: &mut Vec<String>) -> Vec<Span> {
    // The router answers with its own split, whose work stage is the
    // forward to a replica (or the fan-out to all of them).
    let names = if routed {
        [
            "router.decode",
            "router.queue_wait",
            "router.forward",
            "router.other",
        ]
    } else {
        [
            "server.decode",
            "pool.queue_wait",
            "pool.score",
            "server.other",
        ]
    };
    let mut spans = Vec::with_capacity(calls.len() * 6);
    for c in calls {
        let t = &c.trace;
        let stages = [
            (names[0], t.decode_ns),
            (names[1], t.queue_wait_ns),
            (names[2], t.score_ns),
            (names[3], t.other_ns),
        ];
        let sum: u64 = stages.iter().map(|s| s.1).sum();
        if sum != t.total_ns {
            violations.push(format!(
                "call {:#x}: stages sum to {sum} ns, total is {} ns",
                c.id, t.total_ns
            ));
        }
        if t.total_ns > c.latency_ns {
            violations.push(format!(
                "call {:#x}: server total {} ns exceeds client latency {} ns",
                c.id, t.total_ns, c.latency_ns
            ));
        }
        let parent_end = c.start_ns + c.latency_ns;
        spans.push(Span {
            id: c.id,
            name: "client.call",
            parent: None,
            start_ns: c.start_ns,
            end_ns: parent_end,
        });
        let mut at = c.start_ns;
        let wire = c.latency_ns.saturating_sub(t.total_ns);
        for (name, ns) in stages.into_iter().chain([("client.wire", wire)]) {
            spans.push(Span {
                id: c.id,
                name,
                parent: Some("client.call"),
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
        if at > parent_end {
            violations.push(format!(
                "call {:#x}: children end {} ns after their parent",
                c.id,
                at - parent_end
            ));
        }
    }
    spans
}

/// Self time per span name: duration minus the part its children cover.
fn self_times(spans: &[Span]) -> Vec<(&'static str, Vec<u64>)> {
    let mut by_name: Vec<(&'static str, Vec<u64>)> = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        // Spans of one call are contiguous: the parent, then its children.
        let parent = &spans[i];
        let mut j = i + 1;
        let mut covered = 0;
        while j < spans.len() && spans[j].id == parent.id && spans[j].parent.is_some() {
            covered += spans[j].end_ns - spans[j].start_ns;
            push_self(
                &mut by_name,
                spans[j].name,
                spans[j].end_ns - spans[j].start_ns,
            );
            j += 1;
        }
        push_self(
            &mut by_name,
            parent.name,
            (parent.end_ns - parent.start_ns).saturating_sub(covered),
        );
        i = j;
    }
    by_name
}

fn push_self(by_name: &mut Vec<(&'static str, Vec<u64>)>, name: &'static str, ns: u64) {
    match by_name.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => v.push(ns),
        None => by_name.push((name, vec![ns])),
    }
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut out = std::io::BufWriter::new(
        File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.name,
            s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs `f` once and returns its result and wall time in nanoseconds. The
/// result passes through `black_box`, so a pure call is not optimized away
/// when the caller drops it.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = crate::report::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_nanos() as u64)
}

fn median_ns(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// The traced run of `spec`: see the module docs. Returns whether every
/// answer was right and every structural check held.
pub fn traced_run(
    pc: &Path,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    tier_dir: &Path,
    work: &Path,
) -> Result<bool, String> {
    let tier = Tier::start(
        pc,
        &inputs.db_path,
        &inputs.index_path,
        spec.replicas,
        spec.routed,
        tier_dir,
    )?;
    let before = snapshot_tier(&tier)?;
    let result = load::run(tier.front(), spec, inputs, seed, seconds, true)?;
    let stages = replica_stages(&tier, spec.routed, &result.traced)?;
    let after = snapshot_tier(&tier)?;
    let replica_rss_kb = tier
        .replicas
        .iter()
        .map(|p| p.peak_rss_kb())
        .collect::<Result<Vec<_>, _>>()?;
    tier.kill();

    let mut violations = Vec::new();
    let spans = spans_of(&result.traced, spec.routed, &mut violations);
    let spans_path = work
        .join("spans")
        .join(format!("{}-s{seed}.jsonl", spec.name));
    write_spans(&spans_path, &spans)?;

    let mut metrics = served_metrics(spec, &result, &stages, &before, &after, &replica_rss_kb);
    let mut extra = served_extras(&stages, &before, &after);
    metrics.extend(replay(spec, inputs, seed)?);

    report::print_ops(&result);
    println!(
        "self time per span (p50 us, samples) — spans in {}:",
        spans_path.display()
    );
    for (name, v) in self_times(&spans) {
        println!(
            "  {:<18} {:>12.1} {:>8}",
            name,
            median_ns(&v) / 1_000.0,
            v.len()
        );
    }
    report::print_metrics("per-layer metrics", &metrics);
    extra.sort_by(|a, b| a.name.cmp(&b.name));
    report::print_metrics("per-layer, not in the result line", &extra);
    Ok(report::finish(&result, &metrics, violations))
}

fn score_of(stages: &[Stages], op: OpKind) -> Vec<u64> {
    stages
        .iter()
        .filter(|s| s.op == op)
        .map(|s| s.score_ns)
        .collect()
}

/// Per-layer metrics read off the served load: stage splits and counters.
fn served_metrics(
    spec: &Spec,
    result: &LoadResult,
    stages: &[Stages],
    before: &TierSnapshot,
    after: &TierSnapshot,
    replica_rss_kb: &[u64],
) -> Vec<Metric> {
    let wire: Vec<u64> = result
        .traced
        .iter()
        .map(|c| c.latency_ns.saturating_sub(c.trace.total_ns))
        .collect();
    let stage = |f: &dyn Fn(&Stages) -> u64| stages.iter().map(f).collect::<Vec<u64>>();
    let decode = stage(&|s| s.decode_ns);
    let total = stage(&|s| s.total_ns);
    let queue = stage(&|s| s.queue_wait_ns);
    let score_identify = score_of(stages, OpKind::Identify);

    let (mut admitted, mut rejected, mut evals) = (0u64, 0u64, 0u64);
    for (b, a) in before.replicas.iter().zip(&after.replicas) {
        if let (Some(bs), Some(as_)) = (b.stats, a.stats) {
            admitted += as_.admitted - bs.admitted;
            rejected += as_.rejected - bs.rejected;
            evals += as_.distance_evals - bs.distance_evals;
        }
    }
    let pending_max = [before, after]
        .iter()
        .flat_map(|t| t.replicas.iter().chain(t.router.iter()))
        .flat_map(|s| s.ring.nodes.iter().map(|n| n.pending))
        .max()
        .unwrap_or(0);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let us = |v: &[u64], q: f64| percentile(v, q).unwrap_or(0.0);

    vec![
        Metric::new("client.wire_us_p50", us(&wire, 0.5), "us"),
        Metric::new("server.decode_us_p50", us(&decode, 0.5), "us"),
        Metric::new("server.total_us_p50", us(&total, 0.5), "us"),
        Metric::new("server.total_us_p90", us(&total, 0.9), "us"),
        Metric::new("pool.queue_wait_us_p50", us(&queue, 0.5), "us"),
        Metric::new("pool.queue_wait_us_p90", us(&queue, 0.9), "us"),
        Metric::new("pool.score_us_p50.identify", us(&score_identify, 0.5), "us"),
        Metric::new(
            "pool.busy_ratio",
            ratio(rejected, admitted + rejected),
            "ratio",
        ),
        Metric::new(
            "store.distance_evals_per_op",
            ratio(evals, admitted),
            "count",
        ),
        Metric::new(
            "store.rss_kb_per_chip",
            replica_rss_kb.iter().copied().max().unwrap_or(0) as f64 / spec.chips as f64,
            "kB",
        ),
        Metric::new("ring.journal_pending_max", pending_max as f64, "count"),
        Metric::new("trace.ops_per_s", result.ops_per_s, "1/s"),
    ]
}

/// Per-layer metrics only some workloads can measure — the write ops'
/// score stage, checkpoint cost, the router's overhead — and the
/// checkpoint count, which has no better direction (more throughput means
/// more checkpoints). They are printed by name but stay out of the result
/// line, which carries the same metric set on every workload.
fn served_extras(stages: &[Stages], before: &TierSnapshot, after: &TierSnapshot) -> Vec<Metric> {
    // Every checkpoint saves every replica: count the busiest one.
    let saves = |s: &Snapshot| op_row(&s.metrics, "save").map_or(0, |r| r.count);
    let checkpoints = before
        .replicas
        .iter()
        .zip(&after.replicas)
        .map(|(b, a)| saves(a) - saves(b))
        .max();
    let mut extra = vec![Metric::new(
        "persistence.checkpoints",
        checkpoints.unwrap_or(0) as f64,
        "count",
    )];
    for (op, name) in [
        (OpKind::Characterize, "pool.score_us_p50.characterize"),
        (OpKind::Ingest, "pool.score_us_p50.ingest"),
    ] {
        if let Some(p) = percentile(&score_of(stages, op), 0.5) {
            extra.push(Metric::new(name, p, "us"));
        }
    }
    let saves: Vec<f64> = after
        .replicas
        .iter()
        .filter_map(|s| op_row(&s.metrics, "save"))
        .map(|r| r.p50_ns as f64 / 1_000.0)
        .collect();
    if !saves.is_empty() {
        extra.push(Metric::new("persistence.save_us_p50", median(&saves), "us"));
    }
    if let Some(router) = &after.router {
        // Replica-side p50s are weighted by how many requests each served.
        let replica_p50 = |op: &str| {
            let rows: Vec<_> = after
                .replicas
                .iter()
                .filter_map(|s| op_row(&s.metrics, op))
                .collect();
            let n: u64 = rows.iter().map(|r| r.count).sum();
            if n == 0 {
                return None;
            }
            Some(
                rows.iter()
                    .map(|r| r.p50_ns as f64 * r.count as f64)
                    .sum::<f64>()
                    / n as f64,
            )
        };
        if let (Some(r), Some(p)) = (op_row(&router.metrics, "identify"), replica_p50("identify")) {
            extra.push(Metric::new(
                "router.read_overhead_us_p50",
                (r.p50_ns as f64 - p) / 1_000.0,
                "us",
            ));
        }
        if let Some(r) = op_row(&router.metrics, "characterize") {
            // A routed write runs on every replica in turn.
            let sum: f64 = after
                .replicas
                .iter()
                .filter_map(|s| op_row(&s.metrics, "characterize"))
                .map(|row| row.p50_ns as f64)
                .sum();
            extra.push(Metric::new(
                "router.write_overhead_us_p50",
                (r.p50_ns as f64 - sum) / 1_000.0,
                "us",
            ));
        }
    }
    extra
}

/// Times a sample of the workload's inputs through each layer in-process,
/// against a store opened from the same persisted files.
fn replay(spec: &Spec, inputs: &Inputs, seed: u64) -> Result<Vec<Metric>, String> {
    let open = |p: &Path| {
        File::open(p)
            .map(BufReader::new)
            .map_err(|e| format!("cannot open {}: {e}", p.display()))
    };
    let probes: Vec<&ErrorString> = inputs
        .probes
        .iter()
        .take(REPLAY)
        .map(|p| &p.errors)
        .collect();
    let kind = MetricKind::PcJaccard;

    // Persistence, then the index and kernel layers over the loaded files.
    let (db, load_db_ns) =
        timed(|| persistence::load_db(open(&inputs.db_path)?).map_err(|e| e.to_string()));
    let db = db?;
    let (index, load_index_ns) =
        timed(|| persistence::load_index(open(&inputs.index_path)?).map_err(|e| e.to_string()));
    let mut index = index?;
    let hasher = MinHasher::new(index.bands(), index.rows_per_band(), index.seed());
    let mut rng = Rng::new(seed, 0x7265_706c_6179);
    let (mut to_packed, mut sign, mut cands, mut per_cand, mut pair) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for probe in &probes {
        let (packed, ns) = timed(|| probe.to_packed());
        to_packed.push(ns);
        let (_, sig_ns) = timed(|| hasher.signature(probe));
        sign.push(sig_ns);
        let (ids, cand_ns) = timed(|| index.candidates(probe));
        cands.push(cand_ns.saturating_sub(sig_ns));
        // The candidates' packed forms, as the store keeps them, plus a
        // random entry: the mostly-mismatching compares of a cluster scan.
        let mut entries: Vec<PackedErrors> = ids
            .iter()
            .filter_map(|&id| db.entry(id as usize))
            .map(|(_, fp)| fp.errors().to_packed())
            .collect();
        if !entries.is_empty() {
            let slots: Vec<usize> = (0..entries.len()).collect();
            let (_, ns) =
                timed(|| score_subset(&entries, &slots, &packed, kind, Parallelism::single()));
            per_cand.push(ns as f64 / entries.len() as f64);
        }
        if let Some((_, fp)) = db.entry(rng.below(db.len())) {
            entries.push(fp.errors().to_packed());
        }
        for e in &entries {
            let (_, ns) = timed(|| distance_packed(e, &packed, kind));
            pair.push(ns);
            bytes.push((e.container_bytes() + packed.container_bytes()) as f64);
        }
    }
    let mut inserts = Vec::new();
    for (k, probe) in probes.iter().enumerate() {
        let id = (db.len() + k) as u32;
        let (_, ns) = timed(|| index.insert(id, probe));
        inserts.push(ns);
    }
    drop((db, index));

    // The wire codec over requests drawn with the workload's mix.
    let requests = sample_requests(spec, inputs, seed);
    let (mut enc, mut dec, mut req_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for (seq, request) in requests.iter().enumerate() {
        let (text, ns) = timed(|| protocol::encode_request(seq as u64, request).to_compact());
        enc.push(ns);
        req_bytes.push((text.len() + 4) as f64);
        let (decoded, ns) = timed(|| {
            parse_json(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| protocol::decode_request(&v).map_err(|e| e.to_string()))
        });
        dec.push(ns);
        if decoded?.1 != *request {
            return Err("a request did not survive encode → decode".into());
        }
    }

    // The store, opened the way a replica opens it.
    let (store, open_ns) = timed(|| {
        ShardedStore::from_persisted(
            StoreConfig::default(),
            open(&inputs.db_path)?,
            open(&inputs.index_path)?,
        )
        .map_err(|e| e.to_string())
    });
    let store = store?;
    let (mut plan, mut shard, mut candidates, mut matched) =
        (Vec::new(), Vec::new(), 0usize, 0usize);
    for probe in &probes {
        let ((buckets, total), ns) = timed(|| store.plan_identify(probe));
        plan.push(ns);
        candidates += total;
        let mut shard_ns = 0;
        let mut partials = Vec::new();
        for (s, ids) in buckets
            .iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
        {
            let (best, ns) = timed(|| store.score_shard(s, ids, probe));
            shard_ns += ns;
            if let Some(b) = best.map_err(|e| e.to_string())? {
                partials.push(b);
            }
        }
        shard.push(shard_ns);
        matched += usize::from(store.merge_verdict(partials).is_ok());
    }
    // Characterize refines enrolled chips with fresh observations: the
    // workload's own when it sends characterize, else its enrolled probes.
    let observations: Vec<(String, &ErrorString)> = if inputs.tracked.is_empty() {
        inputs
            .probes
            .iter()
            .filter_map(|p| p.expect.as_ref().map(|(l, _)| (l.clone(), &p.errors)))
            .take(REPLAY)
            .collect()
    } else {
        inputs
            .tracked
            .iter()
            .flat_map(|t| t.observations.iter().map(move |o| (t.label.clone(), o)))
            .take(REPLAY)
            .collect()
    };
    let mut characterize = Vec::new();
    for (label, obs) in &observations {
        let (r, ns) = timed(|| store.characterize(label, obs));
        r.map_err(|e| e.to_string())?;
        characterize.push(ns);
    }
    // Cluster-ingest over the workload's device outputs (its probes when
    // it has no devices): every device's first output seeds its cluster,
    // then further outputs match against the full set, as under load.
    let outputs: Vec<&ErrorString> = if inputs.devices.is_empty() {
        probes.clone()
    } else {
        let rounds = inputs.devices[0].len();
        (0..rounds)
            .flat_map(|r| inputs.devices.iter().map(move |d| &d[r]))
            .take(inputs.devices.len() + REPLAY / 2)
            .collect()
    };
    let mut ingest = Vec::new();
    for out in &outputs {
        let (r, ns) = timed(|| store.cluster_ingest(out));
        r.map_err(|e| e.to_string())?;
        ingest.push(ns);
    }
    drop(store);

    let us = |v: &[u64]| median_ns(v) / 1_000.0;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Ok(vec![
        Metric::new("codec.request_bytes", mean(&req_bytes), "B"),
        Metric::new("codec.encode_request_us", us(&enc), "us"),
        Metric::new("codec.decode_request_us", us(&dec), "us"),
        Metric::new("store.plan_identify_us", us(&plan), "us"),
        Metric::new("store.score_shard_us", us(&shard), "us"),
        Metric::new("store.characterize_us", us(&characterize), "us"),
        Metric::new("store.cluster_ingest_us", us(&ingest), "us"),
        Metric::new(
            "store.candidates_per_identify",
            candidates as f64 / probes.len() as f64,
            "count",
        ),
        Metric::new(
            "store.match_per_candidate",
            if candidates == 0 {
                0.0
            } else {
                matched as f64 / candidates as f64
            },
            "ratio",
        ),
        Metric::new("store.open_s", open_ns as f64 / 1e9, "s"),
        Metric::new("minhash.signature_us", us(&sign), "us"),
        Metric::new("index.candidates_us", us(&cands), "us"),
        Metric::new("index.insert_us", us(&inserts), "us"),
        Metric::new("kernels.to_packed_us", us(&to_packed), "us"),
        Metric::new(
            "kernels.score_subset_ns_per_candidate",
            median(&per_cand),
            "ns",
        ),
        Metric::new("kernels.distance_packed_ns", median_ns(&pair), "ns"),
        Metric::new("kernels.bytes_per_compare", mean(&bytes), "B"),
        Metric::new("persistence.load_db_s", load_db_ns as f64 / 1e9, "s"),
        Metric::new("persistence.load_index_s", load_index_ns as f64 / 1e9, "s"),
    ])
}

/// Requests in the workload's exact mix, for the codec replay.
fn sample_requests(spec: &Spec, inputs: &Inputs, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0x0063_6f64_6563);
    load::deck(spec)
        .into_iter()
        .cycle()
        .take(REPLAY)
        .map(|op| match op {
            OpKind::Identify => Request::Identify {
                errors: inputs.probes[rng.below(inputs.probes.len())].errors.clone(),
            },
            OpKind::Characterize => {
                let t = &inputs.tracked[rng.below(inputs.tracked.len())];
                Request::Characterize {
                    label: t.label.clone(),
                    errors: t.observations[rng.below(t.observations.len())].clone(),
                }
            }
            OpKind::Ingest => {
                let d = &inputs.devices[rng.below(inputs.devices.len())];
                Request::ClusterIngest {
                    errors: d[rng.below(d.len())].clone(),
                }
            }
        })
        .collect()
}
