//! The `pc-service` wire protocol: request/response values and their JSON
//! encoding.
//!
//! Every frame on the wire (see [`crate::codec`]) is one JSON object. A
//! request carries a client-chosen `seq`; the matching response echoes it,
//! so clients may pipeline many requests on one connection and match
//! responses out of order.
//!
//! Requests:
//!
//! ```text
//! {"seq":1,"op":"ping"}
//! {"seq":2,"op":"identify","size":32768,"positions":[3,17,...]}
//! {"seq":3,"op":"characterize","label":"chip-A","size":32768,"positions":[...]}
//! {"seq":4,"op":"cluster-ingest","size":32768,"positions":[...]}
//! {"seq":5,"op":"stats"}
//! {"seq":6,"op":"metrics"}
//! {"seq":7,"op":"trace-dump"}
//! {"seq":8,"op":"ring-status"}
//! {"seq":9,"op":"replay","entries":[{"wseq":41,"op":"characterize","label":"chip-A",...},...]}
//! {"seq":10,"op":"shutdown"}
//! ```
//!
//! Any request may additionally carry `"trace":true`
//! ([`encode_request_with`]); the response then arrives wrapped in
//! [`Response::Traced`] with a per-stage latency breakdown.
//!
//! Responses are `{"seq":N,"ok":true,"kind":...,...}`, or `"ok":false` with
//! `"retryable"` distinguishing backpressure (`busy`, retry after the hinted
//! delay) from hard failures (`error`).

use pc_telemetry::{JsonObject, JsonValue};
use probable_cause::ErrorString;
use std::fmt;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Algorithm 2 over the fingerprint database.
    Identify {
        /// The output's error string.
        errors: ErrorString,
    },
    /// Incremental Algorithm 1: refine (or create) the labelled fingerprint
    /// with one more observation.
    Characterize {
        /// Device label.
        label: String,
        /// The observation's error string.
        errors: ErrorString,
    },
    /// Online Algorithm 4: assign the output to a cluster, refining or
    /// seeding as needed.
    ClusterIngest {
        /// The output's error string.
        errors: ErrorString,
    },
    /// Server statistics snapshot.
    Stats,
    /// Per-op latency quantiles from the server's tracer; answered inline.
    Metrics,
    /// The flight recorder's recent request traces; answered inline.
    TraceDump,
    /// Durability checkpoint: persist the database and index now. The
    /// acknowledgement promises every previously-acknowledged mutation has
    /// reached disk.
    Save,
    /// Ring topology and replica-health snapshot; answered inline by both
    /// the router (full ring view) and plain replicas (self view).
    RingStatus,
    /// Router → replica journal replay after a node rejoins: re-apply the
    /// mutations the node missed while it was down, in original order.
    /// Every entry carries the router's global write sequence, so a replica
    /// that never lost its state skips the ones it already applied.
    Replay {
        /// Journaled mutations, oldest first.
        entries: Vec<SequencedEntry>,
    },
    /// Graceful shutdown: drain in-flight requests, persist, exit.
    Shutdown,
}

/// One journaled mutation inside a [`Request::Replay`] frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayEntry {
    /// A journaled `characterize` observation.
    Characterize {
        /// Device label.
        label: String,
        /// The observation's error string.
        errors: ErrorString,
    },
    /// A journaled `cluster-ingest` output.
    ClusterIngest {
        /// The output's error string.
        errors: ErrorString,
    },
}

/// A journaled mutation tagged with the router's global write sequence.
///
/// The router stamps every fanned-out write with a monotone `wseq` (both on
/// the live forward and in the journal), and each replica remembers the
/// highest `wseq` it has processed. A [`Request::Replay`] batch is therefore
/// idempotent: entries at or below the replica's watermark were already
/// applied live and are skipped, while a replica that restarted from its
/// last checkpoint (watermark reset) re-applies everything it lost.
#[derive(Debug, Clone, PartialEq)]
pub struct SequencedEntry {
    /// The router's global write sequence for this mutation (1-based).
    pub seq: u64,
    /// The mutation itself.
    pub entry: ReplayEntry,
}

/// Every request `op` string, in the order requests typically flow. The
/// server seeds its per-op latency tracer from this list.
pub const OPS: &[&str] = &[
    "ping",
    "identify",
    "characterize",
    "cluster-ingest",
    "stats",
    "metrics",
    "trace-dump",
    "save",
    "ring-status",
    "replay",
    "shutdown",
];

impl Request {
    /// The request's `op` string (also its telemetry label).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Identify { .. } => "identify",
            Request::Characterize { .. } => "characterize",
            Request::ClusterIngest { .. } => "cluster-ingest",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::TraceDump => "trace-dump",
            Request::Save => "save",
            Request::RingStatus => "ring-status",
            Request::Replay { .. } => "replay",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One replica's health row inside a [`RingStatusBody`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeStatus {
    /// The replica's address as the router dials it.
    pub addr: String,
    /// Health state: `"up"`, `"suspect"`, or `"down"`.
    pub state: String,
    /// Journaled mutations awaiting replay to this replica.
    pub pending: u64,
    /// Cumulative forward + probe failures observed for this replica.
    pub failures: u64,
}

/// Ring topology snapshot reported by [`Response::RingStatus`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RingStatusBody {
    /// `"router"` for the routing tier, `"replica"` for a shard server.
    pub role: String,
    /// The responder's identity (replica id or router address).
    pub id: String,
    /// Replication factor R (0 when answered by a plain replica).
    pub replication: u64,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: u64,
    /// The ring's placement seed.
    pub seed: u64,
    /// Whether quorum-of-2 read agreement is enabled.
    pub quorum: bool,
    /// Reads failed over to a lower-preference replica since start.
    pub failovers: u64,
    /// Quorum read pairs that disagreed since start.
    pub quorum_mismatches: u64,
    /// Requests shed with `busy` because a quorum was unreachable.
    pub sheds: u64,
    /// Journal entries replayed to rejoining replicas since start.
    pub replayed: u64,
    /// Per-replica health, in ring declaration order.
    pub nodes: Vec<NodeStatus>,
}

/// Server statistics reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Fingerprints stored.
    pub fingerprints: u64,
    /// Clusters formed by `cluster-ingest` so far.
    pub clusters: u64,
    /// Requests admitted to the submission queue since start.
    pub admitted: u64,
    /// Requests rejected with `busy` since start.
    pub rejected: u64,
    /// Full distance evaluations paid by identify and cluster-ingest
    /// scoring since start.
    pub distance_evals: u64,
    /// Request panics absorbed (injected or organic) since start.
    pub worker_panics: u64,
    /// Dispatcher loops restarted after a panic escaped a request since
    /// start.
    pub worker_respawns: u64,
    /// Whether the store is serving in degraded (linear-scan) mode while
    /// its routing index rebuilds.
    pub degraded: bool,
}

/// Latency quantiles for one request op, reported by [`Response::Metrics`].
/// All latencies are nanoseconds; quantiles are bucket-bounded estimates
/// from the server's per-op histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpLatency {
    /// The request op (`"identify"`, `"characterize"`, ...).
    pub op: String,
    /// Requests of this op observed since start.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 90th-percentile latency.
    pub p90_ns: u64,
    /// 99th-percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
}

/// Live serving metrics reported by [`Response::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsBody {
    /// Per-op latency quantiles, one row per op that has seen traffic.
    pub ops: Vec<OpLatency>,
    /// Requests currently waiting in the submission queue.
    pub queue_depth: u64,
    /// Requests that breached the slow threshold since start.
    pub slow_requests: u64,
    /// Whether the store is serving degraded (index rebuilding).
    pub degraded: bool,
}

/// Per-stage latency breakdown attached to a [`Response::Traced`] wrapper.
///
/// `other_ns` is the unattributed remainder, so the stage fields always sum
/// to exactly `total_ns`. Encode/write time cannot ride in the response
/// that is itself being encoded; it lands in the flight recorder instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceBody {
    /// Deterministic trace id (`pc_telemetry::trace::trace_id`).
    pub trace_id: u64,
    /// Wire frame → typed request.
    pub decode_ns: u64,
    /// Queue admission → dispatcher pickup.
    pub queue_wait_ns: u64,
    /// Scoring / mutation work.
    pub score_ns: u64,
    /// Unattributed remainder (`total - decode - queue_wait - score`).
    pub other_ns: u64,
    /// Total latency from decode begin to response build.
    pub total_ns: u64,
}

/// One flight-recorder entry on the wire, reported by
/// [`Response::TraceDump`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Deterministic trace id.
    pub trace_id: u64,
    /// The request's op.
    pub op: String,
    /// The request's sequence number on its connection.
    pub seq: u64,
    /// Wire frame → typed request.
    pub decode_ns: u64,
    /// Queue admission → dispatcher pickup.
    pub queue_wait_ns: u64,
    /// Scoring / mutation work.
    pub score_ns: u64,
    /// Response build → wire frame (includes writer-queue wait).
    pub encode_ns: u64,
    /// Wire frame → socket.
    pub write_ns: u64,
    /// Total latency from decode begin to write completion.
    pub total_ns: u64,
    /// Whether the request breached the slow threshold.
    pub slow: bool,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Identification succeeded: a fingerprint cleared the threshold.
    Match {
        /// Winning label (lowest distance, ties by label order).
        label: String,
        /// Its distance.
        distance: f64,
    },
    /// No fingerprint cleared the threshold.
    NoMatch {
        /// Closest candidate, if any candidate was scored at all.
        closest: Option<(String, f64)>,
    },
    /// The labelled fingerprint after a `characterize` observation.
    Characterized {
        /// Device label.
        label: String,
        /// Stable error bits remaining in the fingerprint.
        weight: u64,
        /// Observations folded in so far.
        observations: u32,
        /// Whether this observation created the label.
        created: bool,
    },
    /// Cluster assignment for an ingested output.
    Clustered {
        /// Assigned cluster id.
        cluster: u64,
        /// Whether the output seeded a new cluster.
        seeded: bool,
        /// Total clusters after this ingest.
        clusters: u64,
    },
    /// Statistics snapshot.
    Stats(StatsBody),
    /// Live per-op latency metrics.
    Metrics(MetricsBody),
    /// Recent request traces from the flight recorder.
    TraceDump {
        /// Recorded traces, oldest first.
        traces: Vec<TraceRecord>,
    },
    /// A response wrapped with its request's per-stage latency breakdown
    /// (the request carried `"trace":true`). Never nests.
    Traced {
        /// The wrapped response.
        inner: Box<Response>,
        /// Stage breakdown for the request that produced it.
        trace: TraceBody,
    },
    /// Acknowledgement of [`Request::Save`]: the database and index are on
    /// disk.
    Saved {
        /// Fingerprints in the persisted database.
        fingerprints: u64,
    },
    /// Ring topology and health snapshot.
    RingStatus(RingStatusBody),
    /// Acknowledgement of [`Request::Replay`]: how many journal entries
    /// the replica applied.
    Replayed {
        /// Entries applied (entries that failed store validation are
        /// skipped, not retried).
        applied: u64,
        /// Entries skipped because the replica's write-sequence watermark
        /// shows it already applied them live (absent on the wire → 0).
        skipped: u64,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the server drains and
    /// exits after sending it.
    ShuttingDown,
    /// Backpressure: the submission queue is full. Retry after the hint.
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// Hard failure (malformed request, size mismatch, ...). Not retryable.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Whether the response signals success (`"ok":true` on the wire).
    /// A [`Response::Traced`] wrapper delegates to its inner response.
    pub fn is_ok(&self) -> bool {
        match self {
            Response::Traced { inner, .. } => inner.is_ok(),
            Response::Busy { .. } | Response::Error { .. } => false,
            _ => true,
        }
    }

    /// Whether a failed response may be retried verbatim.
    pub fn is_retryable(&self) -> bool {
        match self {
            Response::Traced { inner, .. } => inner.is_retryable(),
            Response::Busy { .. } => true,
            _ => false,
        }
    }
}

/// A malformed frame: what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(message: impl Into<String>) -> ProtocolError {
    ProtocolError(message.into())
}

fn positions_json(errors: &ErrorString) -> Vec<JsonValue> {
    errors
        .positions()
        .iter()
        .map(|&b| JsonValue::U64(b))
        .collect()
}

fn set_errors(obj: &mut JsonObject, errors: &ErrorString) {
    obj.set("size", errors.size());
    obj.set("positions", positions_json(errors));
}

fn get_u64(obj: &JsonObject, key: &str) -> Result<u64, ProtocolError> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer `{key}`")))
}

fn get_str<'a>(obj: &'a JsonObject, key: &str) -> Result<&'a str, ProtocolError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err(format!("missing or non-string `{key}`")))
}

fn get_bool(obj: &JsonObject, key: &str) -> Result<bool, ProtocolError> {
    obj.get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| err(format!("missing or non-boolean `{key}`")))
}

fn get_errors(obj: &JsonObject) -> Result<ErrorString, ProtocolError> {
    let size = get_u64(obj, "size")?;
    let positions = obj
        .get("positions")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| err("missing or non-array `positions`"))?;
    let bits: Vec<u64> = positions
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| err("non-integer bit position")))
        .collect::<Result<_, _>>()?;
    ErrorString::from_sorted(bits, size).map_err(|e| err(format!("bad error string: {e}")))
}

/// Encodes a request as the wire JSON object.
pub fn encode_request(seq: u64, request: &Request) -> JsonObject {
    encode_request_with(seq, request, false)
}

/// Encodes a request, optionally asking the server to trace it
/// (`"trace":true` on the wire → the response arrives as
/// [`Response::Traced`]).
pub fn encode_request_with(seq: u64, request: &Request, trace: bool) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.set("seq", seq);
    obj.set("op", request.op());
    if trace {
        obj.set("trace", true);
    }
    match request {
        Request::Ping
        | Request::Stats
        | Request::Metrics
        | Request::TraceDump
        | Request::Save
        | Request::RingStatus
        | Request::Shutdown => {}
        Request::Identify { errors } | Request::ClusterIngest { errors } => {
            set_errors(&mut obj, errors);
        }
        Request::Characterize { label, errors } => {
            obj.set("label", label.as_str());
            set_errors(&mut obj, errors);
        }
        Request::Replay { entries } => {
            let rows: Vec<JsonValue> = entries
                .iter()
                .map(|sequenced| {
                    let mut o = JsonObject::new();
                    o.set("wseq", sequenced.seq);
                    match &sequenced.entry {
                        ReplayEntry::Characterize { label, errors } => {
                            o.set("op", "characterize");
                            o.set("label", label.as_str());
                            set_errors(&mut o, errors);
                        }
                        ReplayEntry::ClusterIngest { errors } => {
                            o.set("op", "cluster-ingest");
                            set_errors(&mut o, errors);
                        }
                    }
                    JsonValue::from(o)
                })
                .collect();
            obj.set("entries", rows);
        }
    }
    obj
}

/// Encodes a request the router forwards to a replica: like
/// [`encode_request_with`] but stamping the router-assigned `"origin"`
/// trace id so the replica's flight recorder correlates with the router's,
/// and, for fanned-out writes, the global `"wseq"` write sequence the
/// replica uses to deduplicate later journal replays.
pub fn encode_request_routed(
    seq: u64,
    request: &Request,
    trace: bool,
    origin: u64,
    wseq: Option<u64>,
) -> JsonObject {
    let mut obj = encode_request_with(seq, request, trace);
    obj.set("origin", origin);
    if let Some(wseq) = wseq {
        obj.set("wseq", wseq);
    }
    obj
}

/// Decodes a request frame into `(seq, request)`, dropping the optional
/// routing fields (see [`decode_request_routed`]).
///
/// # Errors
///
/// [`ProtocolError`] naming the first offending field.
pub fn decode_request(frame: &JsonValue) -> Result<(u64, Request), ProtocolError> {
    decode_request_routed(frame).map(|(seq, request, ..)| (seq, request))
}

fn decode_replay_entry(v: &JsonValue) -> Result<SequencedEntry, ProtocolError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err("replay entry is not an object"))?;
    let seq = get_u64(obj, "wseq")?;
    let entry = match get_str(obj, "op")? {
        "characterize" => ReplayEntry::Characterize {
            label: get_str(obj, "label")?.to_string(),
            errors: get_errors(obj)?,
        },
        "cluster-ingest" => ReplayEntry::ClusterIngest {
            errors: get_errors(obj)?,
        },
        other => return Err(err(format!("unknown replay entry op {other:?}"))),
    };
    Ok(SequencedEntry { seq, entry })
}

/// The fields [`decode_request_routed`] extracts from a frame:
/// `(seq, request, trace, origin, wseq)`.
pub type RoutedRequest = (u64, Request, bool, Option<u64>, Option<u64>);

/// Decodes a request frame into `(seq, request, trace, origin, wseq)`,
/// where `origin` is the optional router-assigned trace id a forwarded
/// frame carries and `wseq` the optional global write sequence stamped on
/// fanned-out mutations (each absent → `None`).
///
/// # Errors
///
/// [`ProtocolError`] naming the first offending field.
pub fn decode_request_routed(frame: &JsonValue) -> Result<RoutedRequest, ProtocolError> {
    let obj = frame
        .as_object()
        .ok_or_else(|| err("frame is not an object"))?;
    let seq = get_u64(obj, "seq")?;
    let trace = match obj.get("trace") {
        None => false,
        Some(v) => v.as_bool().ok_or_else(|| err("non-boolean `trace`"))?,
    };
    let origin = match obj.get("origin") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| err("non-integer `origin` trace id"))?,
        ),
    };
    let wseq = match obj.get("wseq") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| err("non-integer `wseq` write sequence"))?,
        ),
    };
    let request = match get_str(obj, "op")? {
        "ping" => Request::Ping,
        "identify" => Request::Identify {
            errors: get_errors(obj)?,
        },
        "characterize" => Request::Characterize {
            label: get_str(obj, "label")?.to_string(),
            errors: get_errors(obj)?,
        },
        "cluster-ingest" => Request::ClusterIngest {
            errors: get_errors(obj)?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "trace-dump" => Request::TraceDump,
        "save" => Request::Save,
        "ring-status" => Request::RingStatus,
        "replay" => Request::Replay {
            entries: obj
                .get("entries")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("missing or non-array `entries`"))?
                .iter()
                .map(decode_replay_entry)
                .collect::<Result<_, ProtocolError>>()?,
        },
        "shutdown" => Request::Shutdown,
        other => return Err(err(format!("unknown op {other:?}"))),
    };
    Ok((seq, request, trace, origin, wseq))
}

fn trace_body_json(trace: &TraceBody) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.set("trace_id", trace.trace_id);
    obj.set("decode_ns", trace.decode_ns);
    obj.set("queue_wait_ns", trace.queue_wait_ns);
    obj.set("score_ns", trace.score_ns);
    obj.set("other_ns", trace.other_ns);
    obj.set("total_ns", trace.total_ns);
    obj
}

fn decode_trace_body(v: &JsonValue) -> Result<TraceBody, ProtocolError> {
    let obj = v
        .as_object()
        .ok_or_else(|| err("`trace` is not an object"))?;
    Ok(TraceBody {
        trace_id: get_u64(obj, "trace_id")?,
        decode_ns: get_u64(obj, "decode_ns")?,
        queue_wait_ns: get_u64(obj, "queue_wait_ns")?,
        score_ns: get_u64(obj, "score_ns")?,
        other_ns: get_u64(obj, "other_ns")?,
        total_ns: get_u64(obj, "total_ns")?,
    })
}

fn trace_record_json(record: &TraceRecord) -> JsonObject {
    let mut obj = JsonObject::new();
    obj.set("trace_id", record.trace_id);
    obj.set("op", record.op.as_str());
    obj.set("seq", record.seq);
    obj.set("decode_ns", record.decode_ns);
    obj.set("queue_wait_ns", record.queue_wait_ns);
    obj.set("score_ns", record.score_ns);
    obj.set("encode_ns", record.encode_ns);
    obj.set("write_ns", record.write_ns);
    obj.set("total_ns", record.total_ns);
    obj.set("slow", record.slow);
    obj
}

fn decode_trace_record(v: &JsonValue) -> Result<TraceRecord, ProtocolError> {
    let obj = v.as_object().ok_or_else(|| err("trace is not an object"))?;
    Ok(TraceRecord {
        trace_id: get_u64(obj, "trace_id")?,
        op: get_str(obj, "op")?.to_string(),
        seq: get_u64(obj, "seq")?,
        decode_ns: get_u64(obj, "decode_ns")?,
        queue_wait_ns: get_u64(obj, "queue_wait_ns")?,
        score_ns: get_u64(obj, "score_ns")?,
        encode_ns: get_u64(obj, "encode_ns")?,
        write_ns: get_u64(obj, "write_ns")?,
        total_ns: get_u64(obj, "total_ns")?,
        slow: get_bool(obj, "slow")?,
    })
}

/// Encodes a response as the wire JSON object.
pub fn encode_response(seq: u64, response: &Response) -> JsonObject {
    if let Response::Traced { inner, trace } = response {
        let mut obj = encode_response(seq, inner);
        obj.set("trace", trace_body_json(trace));
        return obj;
    }
    let mut obj = JsonObject::new();
    obj.set("seq", seq);
    obj.set("ok", response.is_ok());
    match response {
        // Handled by the early return above; unreachable here.
        Response::Traced { .. } => {}
        Response::Metrics(m) => {
            obj.set("kind", "metrics");
            obj.set("queue_depth", m.queue_depth);
            obj.set("slow_requests", m.slow_requests);
            obj.set("degraded", m.degraded);
            let rows: Vec<JsonValue> = m
                .ops
                .iter()
                .map(|row| {
                    let mut o = JsonObject::new();
                    o.set("op", row.op.as_str());
                    o.set("count", row.count);
                    o.set("p50_ns", row.p50_ns);
                    o.set("p90_ns", row.p90_ns);
                    o.set("p99_ns", row.p99_ns);
                    o.set("max_ns", row.max_ns);
                    JsonValue::from(o)
                })
                .collect();
            obj.set("ops", rows);
        }
        Response::TraceDump { traces } => {
            obj.set("kind", "trace-dump");
            let rows: Vec<JsonValue> = traces
                .iter()
                .map(|t| JsonValue::from(trace_record_json(t)))
                .collect();
            obj.set("traces", rows);
        }
        Response::Pong => {
            obj.set("kind", "pong");
        }
        Response::Match { label, distance } => {
            obj.set("kind", "match");
            obj.set("label", label.as_str());
            obj.set("distance", *distance);
        }
        Response::NoMatch { closest } => {
            obj.set("kind", "no-match");
            if let Some((label, distance)) = closest {
                obj.set("closest_label", label.as_str());
                obj.set("closest_distance", *distance);
            }
        }
        Response::Characterized {
            label,
            weight,
            observations,
            created,
        } => {
            obj.set("kind", "characterized");
            obj.set("label", label.as_str());
            obj.set("weight", *weight);
            obj.set("observations", *observations);
            obj.set("created", *created);
        }
        Response::Clustered {
            cluster,
            seeded,
            clusters,
        } => {
            obj.set("kind", "clustered");
            obj.set("cluster", *cluster);
            obj.set("seeded", *seeded);
            obj.set("clusters", *clusters);
        }
        Response::Stats(s) => {
            obj.set("kind", "stats");
            obj.set("fingerprints", s.fingerprints);
            obj.set("clusters", s.clusters);
            obj.set("admitted", s.admitted);
            obj.set("rejected", s.rejected);
            obj.set("distance_evals", s.distance_evals);
            obj.set("worker_panics", s.worker_panics);
            obj.set("worker_respawns", s.worker_respawns);
            obj.set("degraded", s.degraded);
        }
        Response::Saved { fingerprints } => {
            obj.set("kind", "saved");
            obj.set("fingerprints", *fingerprints);
        }
        Response::RingStatus(body) => {
            obj.set("kind", "ring-status");
            obj.set("role", body.role.as_str());
            obj.set("id", body.id.as_str());
            obj.set("replication", body.replication);
            obj.set("vnodes", body.vnodes);
            obj.set("seed", body.seed);
            obj.set("quorum", body.quorum);
            obj.set("failovers", body.failovers);
            obj.set("quorum_mismatches", body.quorum_mismatches);
            obj.set("sheds", body.sheds);
            obj.set("replayed", body.replayed);
            let rows: Vec<JsonValue> = body
                .nodes
                .iter()
                .map(|node| {
                    let mut o = JsonObject::new();
                    o.set("addr", node.addr.as_str());
                    o.set("state", node.state.as_str());
                    o.set("pending", node.pending);
                    o.set("failures", node.failures);
                    JsonValue::from(o)
                })
                .collect();
            obj.set("nodes", rows);
        }
        Response::Replayed { applied, skipped } => {
            obj.set("kind", "replayed");
            obj.set("applied", *applied);
            obj.set("skipped", *skipped);
        }
        Response::ShuttingDown => {
            obj.set("kind", "shutting-down");
        }
        Response::Busy { retry_after_ms } => {
            obj.set("kind", "busy");
            obj.set("retryable", true);
            obj.set("retry_after_ms", *retry_after_ms);
        }
        Response::Error { message } => {
            obj.set("kind", "error");
            obj.set("retryable", false);
            obj.set("message", message.as_str());
        }
    }
    obj
}

/// Decodes a response frame into `(seq, response)`. A frame carrying a
/// `"trace"` object decodes as [`Response::Traced`] around its base kind.
///
/// # Errors
///
/// [`ProtocolError`] naming the first offending field.
pub fn decode_response(frame: &JsonValue) -> Result<(u64, Response), ProtocolError> {
    let obj = frame
        .as_object()
        .ok_or_else(|| err("frame is not an object"))?;
    let seq = get_u64(obj, "seq")?;
    let response = match get_str(obj, "kind")? {
        "metrics" => Response::Metrics(MetricsBody {
            ops: obj
                .get("ops")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("missing or non-array `ops`"))?
                .iter()
                .map(|row| {
                    let o = row.as_object().ok_or_else(|| err("op row not an object"))?;
                    Ok(OpLatency {
                        op: get_str(o, "op")?.to_string(),
                        count: get_u64(o, "count")?,
                        p50_ns: get_u64(o, "p50_ns")?,
                        p90_ns: get_u64(o, "p90_ns")?,
                        p99_ns: get_u64(o, "p99_ns")?,
                        max_ns: get_u64(o, "max_ns")?,
                    })
                })
                .collect::<Result<_, ProtocolError>>()?,
            queue_depth: get_u64(obj, "queue_depth")?,
            slow_requests: get_u64(obj, "slow_requests")?,
            degraded: get_bool(obj, "degraded")?,
        }),
        "trace-dump" => Response::TraceDump {
            traces: obj
                .get("traces")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("missing or non-array `traces`"))?
                .iter()
                .map(decode_trace_record)
                .collect::<Result<_, ProtocolError>>()?,
        },
        "pong" => Response::Pong,
        "match" => Response::Match {
            label: get_str(obj, "label")?.to_string(),
            distance: obj
                .get("distance")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| err("missing `distance`"))?,
        },
        "no-match" => Response::NoMatch {
            closest: match (obj.get("closest_label"), obj.get("closest_distance")) {
                (Some(l), Some(d)) => Some((
                    l.as_str()
                        .ok_or_else(|| err("non-string closest_label"))?
                        .to_string(),
                    d.as_f64()
                        .ok_or_else(|| err("non-number closest_distance"))?,
                )),
                (None, None) => None,
                _ => return Err(err("half-present closest candidate")),
            },
        },
        "characterized" => Response::Characterized {
            label: get_str(obj, "label")?.to_string(),
            weight: get_u64(obj, "weight")?,
            observations: u32::try_from(get_u64(obj, "observations")?)
                .map_err(|_| err("observation count overflows u32"))?,
            created: obj
                .get("created")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| err("missing `created`"))?,
        },
        "clustered" => Response::Clustered {
            cluster: get_u64(obj, "cluster")?,
            seeded: obj
                .get("seeded")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| err("missing `seeded`"))?,
            clusters: get_u64(obj, "clusters")?,
        },
        "stats" => Response::Stats(StatsBody {
            fingerprints: get_u64(obj, "fingerprints")?,
            clusters: get_u64(obj, "clusters")?,
            admitted: get_u64(obj, "admitted")?,
            rejected: get_u64(obj, "rejected")?,
            distance_evals: get_u64(obj, "distance_evals")?,
            // Resilience fields arrived with the fault-injection work; older
            // servers simply do not report them.
            worker_panics: get_u64(obj, "worker_panics").unwrap_or(0),
            worker_respawns: get_u64(obj, "worker_respawns").unwrap_or(0),
            degraded: obj
                .get("degraded")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        }),
        "saved" => Response::Saved {
            fingerprints: get_u64(obj, "fingerprints")?,
        },
        "ring-status" => Response::RingStatus(RingStatusBody {
            role: get_str(obj, "role")?.to_string(),
            id: get_str(obj, "id")?.to_string(),
            replication: get_u64(obj, "replication")?,
            vnodes: get_u64(obj, "vnodes")?,
            seed: get_u64(obj, "seed")?,
            quorum: get_bool(obj, "quorum")?,
            failovers: get_u64(obj, "failovers")?,
            quorum_mismatches: get_u64(obj, "quorum_mismatches")?,
            sheds: get_u64(obj, "sheds")?,
            replayed: get_u64(obj, "replayed")?,
            nodes: obj
                .get("nodes")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| err("missing or non-array `nodes`"))?
                .iter()
                .map(|row| {
                    let o = row
                        .as_object()
                        .ok_or_else(|| err("node row not an object"))?;
                    Ok(NodeStatus {
                        addr: get_str(o, "addr")?.to_string(),
                        state: get_str(o, "state")?.to_string(),
                        pending: get_u64(o, "pending")?,
                        failures: get_u64(o, "failures")?,
                    })
                })
                .collect::<Result<_, ProtocolError>>()?,
        }),
        "replayed" => Response::Replayed {
            applied: get_u64(obj, "applied")?,
            skipped: get_u64(obj, "skipped").unwrap_or(0),
        },
        "shutting-down" => Response::ShuttingDown,
        "busy" => Response::Busy {
            retry_after_ms: get_u64(obj, "retry_after_ms")?,
        },
        "error" => Response::Error {
            message: get_str(obj, "message")?.to_string(),
        },
        other => return Err(err(format!("unknown kind {other:?}"))),
    };
    let response = match obj.get("trace") {
        Some(v) => Response::Traced {
            inner: Box::new(response),
            trace: decode_trace_body(v)?,
        },
        None => response,
    };
    Ok((seq, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 4096).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let requests = [
            Request::Ping,
            Request::Identify {
                errors: es(&[1, 5, 9]),
            },
            Request::Characterize {
                label: "chip A % weird".to_string(),
                errors: es(&[]),
            },
            Request::ClusterIngest {
                errors: es(&[0, 4095]),
            },
            Request::Stats,
            Request::Metrics,
            Request::TraceDump,
            Request::Save,
            Request::RingStatus,
            Request::Replay { entries: vec![] },
            Request::Replay {
                entries: vec![
                    SequencedEntry {
                        seq: 41,
                        entry: ReplayEntry::Characterize {
                            label: "chip-B".to_string(),
                            errors: es(&[7, 8]),
                        },
                    },
                    SequencedEntry {
                        seq: 42,
                        entry: ReplayEntry::ClusterIngest { errors: es(&[11]) },
                    },
                ],
            },
            Request::Shutdown,
        ];
        for (seq, req) in requests.into_iter().enumerate() {
            let text = encode_request(seq as u64, &req).to_compact();
            let back = pc_telemetry::parse_json(&text).unwrap();
            assert_eq!(decode_request(&back).unwrap(), (seq as u64, req));
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = [
            Response::Pong,
            Response::Match {
                label: "x".into(),
                distance: 0.125,
            },
            Response::NoMatch { closest: None },
            Response::NoMatch {
                closest: Some(("y".into(), 0.75)),
            },
            Response::Characterized {
                label: "z".into(),
                weight: 321,
                observations: 4,
                created: true,
            },
            Response::Clustered {
                cluster: 7,
                seeded: false,
                clusters: 8,
            },
            Response::Stats(StatsBody {
                fingerprints: 1,
                clusters: 2,
                admitted: 4,
                rejected: 5,
                distance_evals: 6,
                worker_panics: 7,
                worker_respawns: 8,
                degraded: true,
            }),
            Response::Metrics(MetricsBody {
                ops: vec![
                    OpLatency {
                        op: "identify".into(),
                        count: 100,
                        p50_ns: 1_000,
                        p90_ns: 2_000,
                        p99_ns: 9_000,
                        max_ns: 12_345,
                    },
                    OpLatency {
                        op: "ping".into(),
                        count: 3,
                        p50_ns: 10,
                        p90_ns: 20,
                        p99_ns: 30,
                        max_ns: 31,
                    },
                ],
                queue_depth: 2,
                slow_requests: 1,
                degraded: false,
            }),
            Response::Metrics(MetricsBody::default()),
            Response::TraceDump {
                traces: vec![TraceRecord {
                    trace_id: 0xfeed_beef,
                    op: "identify".into(),
                    seq: 4,
                    decode_ns: 10,
                    queue_wait_ns: 20,
                    score_ns: 30,
                    encode_ns: 40,
                    write_ns: 50,
                    total_ns: 160,
                    slow: true,
                }],
            },
            Response::TraceDump { traces: vec![] },
            Response::Traced {
                inner: Box::new(Response::Match {
                    label: "chip".into(),
                    distance: 0.25,
                }),
                trace: TraceBody {
                    trace_id: 77,
                    decode_ns: 5,
                    queue_wait_ns: 6,
                    score_ns: 7,
                    other_ns: 2,
                    total_ns: 20,
                },
            },
            Response::Traced {
                inner: Box::new(Response::Busy { retry_after_ms: 3 }),
                trace: TraceBody::default(),
            },
            Response::Saved { fingerprints: 42 },
            Response::RingStatus(RingStatusBody {
                role: "router".into(),
                id: "127.0.0.1:9000".into(),
                replication: 2,
                vnodes: 64,
                seed: 0x5eed,
                quorum: true,
                failovers: 3,
                quorum_mismatches: 1,
                sheds: 2,
                replayed: 17,
                nodes: vec![
                    NodeStatus {
                        addr: "127.0.0.1:9001".into(),
                        state: "up".into(),
                        pending: 0,
                        failures: 0,
                    },
                    NodeStatus {
                        addr: "127.0.0.1:9002".into(),
                        state: "down".into(),
                        pending: 9,
                        failures: 4,
                    },
                ],
            }),
            Response::RingStatus(RingStatusBody::default()),
            Response::Replayed {
                applied: 9,
                skipped: 3,
            },
            Response::ShuttingDown,
            Response::Busy { retry_after_ms: 12 },
            Response::Error {
                message: "boom".into(),
            },
        ];
        for (seq, resp) in responses.into_iter().enumerate() {
            let text = encode_response(seq as u64, &resp).to_compact();
            let back = pc_telemetry::parse_json(&text).unwrap();
            assert_eq!(decode_response(&back).unwrap(), (seq as u64, resp));
        }
    }

    #[test]
    fn decode_rejects_malformed_requests() {
        for bad in [
            r#"[1,2]"#,
            r#"{"op":"identify","size":64,"positions":[1]}"#, // no seq
            r#"{"seq":1,"op":"teleport"}"#,
            r#"{"seq":1,"op":"identify","positions":[1]}"#, // no size
            r#"{"seq":1,"op":"identify","size":64,"positions":[9,3]}"#, // unsorted
            r#"{"seq":1,"op":"identify","size":4,"positions":[9]}"#, // out of range
            r#"{"seq":1,"op":"characterize","size":64,"positions":[1]}"#, // no label
        ] {
            let v = pc_telemetry::parse_json(bad).unwrap();
            assert!(decode_request(&v).is_err(), "{bad} should not decode");
        }
    }

    #[test]
    fn trace_flag_roundtrips_and_defaults_off() {
        let req = Request::Identify {
            errors: es(&[2, 3]),
        };
        let text = encode_request_with(9, &req, true).to_compact();
        let back = pc_telemetry::parse_json(&text).unwrap();
        assert_eq!(
            decode_request_routed(&back).unwrap(),
            (9, req.clone(), true, None, None)
        );

        let plain = encode_request(9, &req).to_compact();
        let back = pc_telemetry::parse_json(&plain).unwrap();
        assert_eq!(
            decode_request_routed(&back).unwrap(),
            (9, req, false, None, None)
        );

        let bad = pc_telemetry::parse_json(r#"{"seq":1,"op":"ping","trace":"yes"}"#).unwrap();
        assert!(decode_request_routed(&bad).is_err(), "non-bool trace flag");
    }

    #[test]
    fn routed_origin_roundtrips_and_defaults_absent() {
        let req = Request::Identify {
            errors: es(&[2, 3]),
        };
        let text = encode_request_routed(5, &req, true, 0xfeed, None).to_compact();
        let back = pc_telemetry::parse_json(&text).unwrap();
        assert_eq!(
            decode_request_routed(&back).unwrap(),
            (5, req.clone(), true, Some(0xfeed), None)
        );

        let write = Request::Characterize {
            label: "chip-W".to_string(),
            errors: es(&[2, 3]),
        };
        let text = encode_request_routed(6, &write, false, 0xfeed, Some(77)).to_compact();
        let back = pc_telemetry::parse_json(&text).unwrap();
        assert_eq!(
            decode_request_routed(&back).unwrap(),
            (6, write, false, Some(0xfeed), Some(77))
        );

        let plain = encode_request(5, &req).to_compact();
        let back = pc_telemetry::parse_json(&plain).unwrap();
        assert_eq!(
            decode_request_routed(&back).unwrap(),
            (5, req, false, None, None)
        );

        let bad = pc_telemetry::parse_json(r#"{"seq":1,"op":"ping","origin":"x"}"#).unwrap();
        assert!(decode_request_routed(&bad).is_err(), "non-integer origin");

        let bad = pc_telemetry::parse_json(r#"{"seq":1,"op":"ping","wseq":"x"}"#).unwrap();
        assert!(decode_request_routed(&bad).is_err(), "non-integer wseq");

        let bad_entry = pc_telemetry::parse_json(
            r#"{"seq":1,"op":"replay","entries":[{"wseq":1,"op":"save"}]}"#,
        )
        .unwrap();
        assert!(decode_request(&bad_entry).is_err(), "bad replay entry op");

        let no_seq = pc_telemetry::parse_json(
            r#"{"seq":1,"op":"replay","entries":[{"op":"cluster-ingest","size":64,"positions":[1]}]}"#,
        )
        .unwrap();
        assert!(
            decode_request(&no_seq).is_err(),
            "replay entry without wseq"
        );
    }

    #[test]
    fn ok_and_retryable_flags() {
        assert!(Response::Pong.is_ok());
        assert!(!Response::Busy { retry_after_ms: 1 }.is_ok());
        assert!(Response::Busy { retry_after_ms: 1 }.is_retryable());
        let e = Response::Error {
            message: "x".into(),
        };
        assert!(!e.is_ok());
        assert!(!e.is_retryable());
        let traced_busy = Response::Traced {
            inner: Box::new(Response::Busy { retry_after_ms: 1 }),
            trace: TraceBody::default(),
        };
        assert!(!traced_busy.is_ok());
        assert!(traced_busy.is_retryable());
        let traced_ok = Response::Traced {
            inner: Box::new(Response::Pong),
            trace: TraceBody::default(),
        };
        assert!(traced_ok.is_ok());
    }
}
