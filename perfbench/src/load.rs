//! The closed-loop load: each connection sends its next request only after
//! the previous answer arrived, through the public `ServiceClient`, and
//! checks every answer against the generator's expectations.

use crate::gen::{Inputs, Rng, Spec};
use crate::procs;
use pc_service::protocol::{Request, Response, TraceBody};
use pc_service::RetryPolicy;
use probable_cause::Fingerprint;
use std::collections::{BTreeMap, BTreeSet};
use std::thread;
use std::time::{Duration, Instant};

/// Load connections (the box has two cores).
pub const CONNECTIONS: usize = 2;
/// Calls per shuffled deck of ops (every mix is in steps of 5%).
const DECK: usize = 20;
/// Largest tolerated gap between a served distance and the linear scan's.
const DISTANCE_TOLERANCE: f64 = 1e-9;

/// The three load ops, in mix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Identify,
    Characterize,
    Ingest,
}

pub const OP_KINDS: [OpKind; 3] = [OpKind::Identify, OpKind::Characterize, OpKind::Ingest];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Identify => "identify",
            OpKind::Characterize => "characterize",
            OpKind::Ingest => "ingest",
        }
    }

    /// The op's name in the server's `metrics` frame.
    pub fn wire_name(self) -> &'static str {
        match self {
            OpKind::Ingest => "cluster-ingest",
            other => other.name(),
        }
    }
}

/// One answered request of the traced run, with the replica's stage split
/// (the router's, on the routed workload).
#[derive(Debug, Clone, Copy)]
pub struct TracedCall {
    /// Request id: connection in the high bits, call number in the low.
    pub id: u64,
    pub op: OpKind,
    /// Start of the call, in ns since the load began.
    pub start_ns: u64,
    /// Client-observed latency of the call.
    pub latency_ns: u64,
    pub trace: TraceBody,
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Client-observed latencies (ns) of answered calls after the warm-up,
    /// per op.
    pub latencies: BTreeMap<OpKind, Vec<u64>>,
    pub attempted: BTreeMap<OpKind, u64>,
    pub failed: BTreeMap<OpKind, u64>,
    /// Calls completed after the warm-up, over the measured window.
    pub ops_per_s: f64,
    pub traced: Vec<TracedCall>,
    /// The first few failure descriptions, for the report.
    pub failures: Vec<String>,
}

/// One request to send and what its answer must be.
enum Step {
    Identify(usize),
    Characterize(usize),
    Ingest { device: usize, output: usize },
}

struct ConnOut {
    latencies: BTreeMap<OpKind, Vec<u64>>,
    attempted: BTreeMap<OpKind, u64>,
    failed: BTreeMap<OpKind, u64>,
    /// (device, cluster) of every answered ingest, in order.
    ingests: Vec<(usize, u64)>,
    measured: u64,
    last_end: Instant,
    traced: Vec<TracedCall>,
    failures: Vec<String>,
}

/// Runs the closed loop against `addr` for `seconds` (after a warm-up of
/// a tenth of that, at most one second, whose latencies are not kept).
///
/// # Errors
///
/// A connection that cannot be opened, or a load thread that panicked.
pub fn run(
    addr: &str,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<LoadResult, String> {
    let warmup = Duration::from_secs_f64((seconds / 10.0).min(1.0));
    let measure = Duration::from_secs_f64(seconds);
    let clients = (0..CONNECTIONS)
        .map(|_| procs::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = crate::report::now();
    let window = Window {
        epoch,
        start: epoch + warmup,
        deadline: epoch + warmup + measure,
    };
    let outs = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                client.set_trace(trace);
                s.spawn(move || drive(conn, client, spec, inputs, seed, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let mut result = LoadResult::default();
    let mut measured = 0;
    let mut last_end = window.start;
    let mut ingests = Vec::new();
    for out in outs {
        for (op, mut lats) in out.latencies {
            result.latencies.entry(op).or_default().append(&mut lats);
        }
        for (op, n) in out.attempted {
            *result.attempted.entry(op).or_default() += n;
        }
        for (op, n) in out.failed {
            *result.failed.entry(op).or_default() += n;
        }
        measured += out.measured;
        last_end = last_end.max(out.last_end);
        ingests.extend(out.ingests);
        result.traced.extend(out.traced);
        result.failures.extend(out.failures);
    }
    let elapsed = last_end
        .saturating_duration_since(window.start)
        .as_secs_f64();
    result.ops_per_s = if elapsed > 0.0 {
        measured as f64 / elapsed
    } else {
        0.0
    };

    // Online clustering must be a bijection: one cluster id per device and
    // one device per cluster id. Every ingest on either side of a broken
    // pair counts as failed.
    let mut clusters_of: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    let mut devices_of: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for &(d, c) in &ingests {
        clusters_of.entry(d).or_default().insert(c);
        devices_of.entry(c).or_default().insert(d);
    }
    let broken = ingests
        .iter()
        .filter(|(d, c)| clusters_of[d].len() > 1 || devices_of[c].len() > 1)
        .count() as u64;
    if broken > 0 {
        *result.failed.entry(OpKind::Ingest).or_default() += broken;
        result.failures.push(format!(
            "{broken} cluster-ingest answers break the device/cluster bijection"
        ));
    }
    result.traced.sort_by_key(|t| (t.start_ns, t.id));
    Ok(result)
}

/// When the load began, when its measured window opens (the warm-up is
/// over), and when connections stop sending.
#[derive(Clone, Copy)]
struct Window {
    epoch: Instant,
    start: Instant,
    deadline: Instant,
}

fn drive(
    conn: usize,
    mut client: pc_service::ServiceClient,
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    window: Window,
) -> ConnOut {
    let mut rng = Rng::new(seed, 0x6c6f_6164_0000 + conn as u64);
    // Characterized chips are split between connections, so each label's
    // observation count and weight follow from this connection's own
    // sends alone.
    let owned: Vec<usize> = (0..inputs.tracked.len())
        .filter(|t| t % CONNECTIONS == conn)
        .collect();
    let mut current: Vec<Fingerprint> = inputs.tracked.iter().map(|t| t.enrolled.clone()).collect();
    let mut sent_to: Vec<usize> = vec![0; inputs.tracked.len()];
    let mut next_owned = 0;
    let policy = RetryPolicy {
        max_attempts: 8,
        jitter_seed: seed ^ conn as u64,
        ..RetryPolicy::default()
    };

    let mut out = ConnOut {
        latencies: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
        ingests: Vec::new(),
        measured: 0,
        last_end: window.start,
        traced: Vec::new(),
        failures: Vec::new(),
    };
    // Ops are dealt from a shuffled deck holding the mix exactly, so every
    // stretch of DECK calls has the workload's proportions.
    let mut deck = deck(spec);
    let mut dealt = deck.len();
    let mut calls = 0u64;
    while crate::report::now() < window.deadline {
        if dealt == deck.len() {
            shuffle(&mut deck, &mut rng);
            dealt = 0;
        }
        dealt += 1;
        // The generator provides characterized chips and devices whenever
        // the mix sends those ops.
        let step = match deck[dealt - 1] {
            OpKind::Identify => Step::Identify(rng.below(inputs.probes.len())),
            OpKind::Characterize => {
                let t = owned[next_owned % owned.len()];
                next_owned += 1;
                Step::Characterize(t)
            }
            OpKind::Ingest => Step::Ingest {
                device: rng.below(inputs.devices.len()),
                output: rng.below(inputs.devices[0].len()),
            },
        };
        let (op, request) = match &step {
            Step::Identify(p) => (
                OpKind::Identify,
                Request::Identify {
                    errors: inputs.probes[*p].errors.clone(),
                },
            ),
            Step::Characterize(t) => {
                let tracked = &inputs.tracked[*t];
                let obs = &tracked.observations[sent_to[*t] % tracked.observations.len()];
                (
                    OpKind::Characterize,
                    Request::Characterize {
                        label: tracked.label.clone(),
                        errors: obs.clone(),
                    },
                )
            }
            Step::Ingest { device, output } => (
                OpKind::Ingest,
                Request::ClusterIngest {
                    errors: inputs.devices[*device][*output].clone(),
                },
            ),
        };

        let started = crate::report::now();
        let answer = client.call_with_policy(&request, &policy);
        let ended = crate::report::now();
        let latency_ns = ended.duration_since(started).as_nanos() as u64;
        let in_window = started >= window.start;
        *out.attempted.entry(op).or_default() += 1;
        let id = ((conn as u64) << 48) | calls;
        calls += 1;

        let (response, trace_body) = match answer {
            Ok(Response::Traced { inner, trace }) => (Ok(*inner), Some(trace)),
            Ok(r) => (Ok(r), None),
            Err(e) => (Err(e.to_string()), None),
        };
        let verdict = match (&step, response) {
            (_, Err(e)) => Err(format!("{} transport failure: {e}", op.name())),
            (Step::Identify(p), Ok(r)) => check_identify(&inputs.probes[*p].expect, &r),
            (Step::Characterize(t), Ok(r)) => {
                let obs = &inputs.tracked[*t].observations
                    [sent_to[*t] % inputs.tracked[*t].observations.len()];
                sent_to[*t] += 1;
                match current[*t].refine(obs) {
                    Ok(next) => {
                        let v = check_characterize(&inputs.tracked[*t].label, &next, &r);
                        current[*t] = next;
                        v
                    }
                    Err(e) => Err(format!("local refine failed: {e}")),
                }
            }
            (Step::Ingest { device, .. }, Ok(Response::Clustered { cluster, .. })) => {
                out.ingests.push((*device, cluster));
                Ok(())
            }
            (Step::Ingest { .. }, Ok(r)) => Err(format!("cluster-ingest answered {r:?}")),
        };
        match verdict {
            Ok(()) => {
                if in_window {
                    out.latencies.entry(op).or_default().push(latency_ns);
                    out.measured += 1;
                    out.last_end = ended;
                    if let Some(trace) = trace_body {
                        out.traced.push(TracedCall {
                            id,
                            op,
                            start_ns: started.duration_since(window.epoch).as_nanos() as u64,
                            latency_ns,
                            trace,
                        });
                    }
                }
            }
            Err(e) => {
                *out.failed.entry(op).or_default() += 1;
                if out.failures.len() < 5 {
                    out.failures.push(e);
                }
            }
        }
    }
    out
}

/// One deck of ops: `DECK` slots holding the workload's mix exactly, in
/// mix order.
pub fn deck(spec: &Spec) -> Vec<OpKind> {
    OP_KINDS
        .iter()
        .zip(spec.mix)
        .flat_map(|(&op, pct)| std::iter::repeat_n(op, pct as usize * DECK / 100))
        .collect()
}

/// Fisher–Yates shuffle driven by the workload's seeded stream.
fn shuffle(deck: &mut [OpKind], rng: &mut Rng) {
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
}

fn check_identify(expect: &Option<(String, f64)>, got: &Response) -> Result<(), String> {
    match (expect, got) {
        (
            Some((label, distance)),
            Response::Match {
                label: l,
                distance: d,
            },
        ) if l == label && (d - distance).abs() <= DISTANCE_TOLERANCE => Ok(()),
        (None, Response::NoMatch { .. }) => Ok(()),
        _ => Err(format!("identify expected {expect:?}, got {got:?}")),
    }
}

fn check_characterize(label: &str, want: &Fingerprint, got: &Response) -> Result<(), String> {
    match got {
        Response::Characterized {
            label: l,
            weight,
            observations,
            created: false,
        } if l == label && *weight == want.weight() && *observations == want.observations() => {
            Ok(())
        }
        _ => Err(format!(
            "characterize {label} expected weight {} after {} observations, got {got:?}",
            want.weight(),
            want.observations()
        )),
    }
}
