//! The replica tier (`pc serve`): the fingerprint store behind the shared
//! front end of [`crate::conn`], its dispatcher pool, and persistence.
//!
//! Connections submit `identify`, `characterize`, `cluster-ingest` and
//! `replay` to the bounded [`SubmissionQueue`]; the dispatcher answers them
//! through each connection's writer. `stats`, `save` and `ring-status` are
//! answered on the connection thread, as are the requests every tier
//! answers alike (`ping`, `metrics`, `trace-dump`, `shutdown`).
//!
//! Once the front end has drained its connections, the replica drains the
//! queue (every already-admitted job still answers), joins the dispatcher,
//! finishes a pending index rebuild, and persists the database + routing
//! index (atomically, see [`probable_cause::persistence`]) if paths were
//! configured.
//!
//! Resilience: startup recovers from torn or corrupt files via `.bak`
//! fallback and degraded-mode index rebuilds; the `save` request
//! checkpoints durably while the server runs.

use crate::codec;
use crate::conn::{self, Call, Front, Handle, Tier};
use crate::pool::{self, Job, Pool, PoolMetrics, Reply, SubmissionQueue, SubmitError};
use crate::protocol::{self, Request, Response, StatsBody};
use crate::store::{ShardedStore, StoreConfig};
use pc_telemetry::counter;
use pc_telemetry::trace::Tracer;
use probable_cause::persistence;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Store geometry and matching parameters.
    pub store: StoreConfig,
    /// Submission-queue capacity; submissions beyond it answer `busy`.
    pub queue_capacity: usize,
    /// Maximum jobs the dispatcher drains per wakeup.
    pub batch_size: usize,
    /// Per-frame payload cap.
    pub max_frame_bytes: u32,
    /// Back-off hint attached to `busy` responses.
    pub retry_after_ms: u64,
    /// Database file: loaded at startup if present, written at shutdown.
    pub db_path: Option<PathBuf>,
    /// Routing-index file: loaded with the database, written at shutdown.
    pub index_path: Option<PathBuf>,
    /// Connection deadline in milliseconds: both the per-frame completion
    /// deadline, measured from a frame's first byte (the slow-loris limit:
    /// a peer dripping bytes cannot hold a frame open past it), and the
    /// socket write timeout for responses. `None` disables both.
    pub timeout_ms: Option<u64>,
    /// Slow-request threshold in milliseconds: a traced request whose total
    /// latency meets or exceeds it logs a structured `slow_query` event and
    /// dumps the flight recorder. `None` disables the slow path.
    pub slow_ms: Option<u64>,
    /// Flight-recorder capacity: the last N request traces kept for dumps
    /// and `trace-dump` frames.
    pub flight_recorder_len: usize,
    /// Whether per-request tracing is live. Off means zero clock reads on
    /// the request path and empty `metrics`/`trace-dump` responses.
    pub trace: bool,
    /// Identity this replica reports in `ring-status` answers when it runs
    /// behind a `pc route` tier. `None` reports the bound address.
    pub replica_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            store: StoreConfig::default(),
            queue_capacity: 1024,
            batch_size: 32,
            max_frame_bytes: codec::MAX_FRAME_BYTES,
            retry_after_ms: 10,
            db_path: None,
            index_path: None,
            timeout_ms: Some(30_000),
            slow_ms: None,
            flight_recorder_len: 64,
            trace: true,
            replica_id: None,
        }
    }
}

/// A handle to a running server (see [`Handle`]); [`ServerHandle::store`]
/// reaches the store behind it.
pub type ServerHandle = Handle<Replica>;

impl Handle<Replica> {
    /// The store behind the server (for tests and embedding).
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.tier.store
    }
}

/// A running replica's state, shared by its connections and its handle.
pub struct Replica {
    front: Arc<Front>,
    store: Arc<ShardedStore>,
    queue: Arc<SubmissionQueue>,
    config: ServerConfig,
    pool_metrics: Arc<PoolMetrics>,
    /// Serializes checkpoint saves: two connections issuing `save` at once
    /// must not interleave writes to the same temp file.
    save_lock: Mutex<()>,
}

impl Replica {
    fn stats(&self) -> StatsBody {
        StatsBody {
            fingerprints: self.store.len() as u64,
            clusters: self.store.cluster_count() as u64,
            admitted: self.queue.admitted(),
            rejected: self.queue.rejected(),
            distance_evals: self.store.distance_evals(),
            worker_panics: self.pool_metrics.worker_panics(),
            worker_respawns: self.pool_metrics.worker_respawns(),
            degraded: self.store.degraded(),
        }
    }

    /// This replica's self view for a `ring-status` request: identity only;
    /// ring geometry and health live in the routing tier.
    fn ring_status(&self) -> protocol::RingStatusBody {
        protocol::RingStatusBody {
            role: "replica".to_string(),
            id: self
                .config
                .replica_id
                .clone()
                .unwrap_or_else(|| self.front.local_addr.to_string()),
            ..protocol::RingStatusBody::default()
        }
    }

    /// Checkpoints the store to the configured paths under the save lock.
    fn save(&self) -> io::Result<u64> {
        let _guard = self.save_lock.lock().unwrap_or_else(|p| p.into_inner());
        // Serializing whole-DB checkpoints across the durable (fsync +
        // fault-stall) write is exactly what save_lock is for; request
        // handling proceeds on other threads meanwhile.
        // pc-allow: C003 — save_lock exists to serialize checkpoints end to end
        self.store.save_to_paths(
            self.config.db_path.as_deref(),
            self.config.index_path.as_deref(),
        )
    }

    /// Admits a job or answers the backpressure/shutdown refusal inline. A
    /// refused job's stage timer still rides out with the refusal, so `busy`
    /// responses are traced too.
    fn submit(&self, reply: &Reply, seq: u64, job: Job) {
        let (job, response) = match self.queue.try_submit(job) {
            Ok(()) => return,
            Err(SubmitError::Full(job)) => (
                job,
                Response::Busy {
                    retry_after_ms: self.config.retry_after_ms,
                },
            ),
            Err(SubmitError::Closed(job)) => (
                job,
                Response::Error {
                    message: "server is shutting down".to_string(),
                },
            ),
        };
        pool::answer(reply, seq, job.into_trace(), response);
    }
}

impl Tier for Replica {
    const THREADS: &'static str = "pc";

    fn front(&self) -> &Arc<Front> {
        &self.front
    }

    fn dispatch(&self, request: Request, call: Call<'_>) {
        let Call {
            seq,
            wseq,
            trace,
            reply,
            ..
        } = call;
        let response = match request {
            Request::Identify { errors } => {
                let job = Job::Identify {
                    seq,
                    errors,
                    reply: reply.clone(),
                    trace,
                };
                return self.submit(reply, seq, job);
            }
            Request::Characterize { label, errors } => {
                let job = Job::Characterize {
                    seq,
                    label,
                    errors,
                    reply: reply.clone(),
                    trace,
                    wseq,
                };
                return self.submit(reply, seq, job);
            }
            Request::ClusterIngest { errors } => {
                let job = Job::ClusterIngest {
                    seq,
                    errors,
                    reply: reply.clone(),
                    trace,
                    wseq,
                };
                return self.submit(reply, seq, job);
            }
            Request::Replay { entries } => {
                let job = Job::Replay {
                    seq,
                    entries,
                    reply: reply.clone(),
                    trace,
                };
                return self.submit(reply, seq, job);
            }
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats()),
            Request::Metrics => Response::Metrics(
                self.front
                    .metrics(self.queue.depth() as u64, self.store.degraded()),
            ),
            Request::TraceDump => Response::TraceDump {
                traces: self.front.trace_dump(),
            },
            // Handled inline on the connection thread: a save is a
            // durability checkpoint, and the acknowledgement must mean
            // "the rename landed", not "the job was queued".
            Request::Save => match self.save() {
                Ok(fingerprints) => Response::Saved { fingerprints },
                Err(e) => {
                    counter!("service.save.failed").incr();
                    Response::Error {
                        message: format!("save failed: {e}"),
                    }
                }
            },
            Request::RingStatus => Response::RingStatus(self.ring_status()),
            Request::Shutdown => Response::ShuttingDown,
        };
        pool::answer(reply, seq, trace, response);
    }
}

/// Starts a server, loading any persisted state named by `config`.
///
/// Recovery at startup is best-effort but never lossy: a damaged database
/// file falls back to its `.bak` sibling; a damaged (or missing) index next
/// to an intact database puts the store into degraded linear-scan mode and
/// kicks off a background index rebuild, so the server answers correctly —
/// just slower — while it heals.
///
/// # Errors
///
/// Bind failures, or persisted state whose database *and* backup are both
/// unreadable.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let store = Arc::new(load_store(&config)?);
    if store.degraded() {
        // Heal in the background; serving stays correct via linear scans.
        let rebuild_store = Arc::clone(&store);
        thread::Builder::new()
            .name("pc-rebuild".to_string())
            .spawn(move || rebuild_store.build_index())?;
    }
    let (listener, front) = Front::bind(
        &config.addr,
        config.timeout_ms,
        config.max_frame_bytes,
        Tracer::new(
            protocol::OPS,
            config.flight_recorder_len,
            config.slow_ms,
            config.trace,
        ),
    )?;
    let queue = Arc::new(SubmissionQueue::new(config.queue_capacity));
    let pool = Pool::spawn(
        Arc::clone(&store),
        Arc::clone(&queue),
        config.batch_size,
        Arc::clone(&front.tracer),
    );
    let replica = Arc::new(Replica {
        front,
        store,
        queue,
        config,
        pool_metrics: pool.metrics(),
        save_lock: Mutex::new(()),
    });
    let drained = Arc::clone(&replica);
    conn::spawn(listener, replica, move || {
        pool.drain_and_join();
        // If a background rebuild never finished, finish it now: the index
        // file written below must cover every entry.
        if drained.store.degraded() && drained.config.index_path.is_some() {
            drained.store.build_index();
        }
        drained.save().map(drop)
    })
}

fn load_store(config: &ServerConfig) -> io::Result<ShardedStore> {
    let to_io = |e: persistence::DbIoError| match e {
        persistence::DbIoError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    };
    let Some(db_path) = &config.db_path else {
        return Ok(ShardedStore::new(config.store.clone()));
    };
    if !db_path.exists() && !persistence::bak_path(db_path).exists() {
        return Ok(ShardedStore::new(config.store.clone()));
    }
    // The database is the source of truth; it must load (possibly from its
    // backup). The index is merely an accelerator: any damage there means
    // degraded mode + rebuild, never a refused startup.
    let db = persistence::load_db_from_path(db_path).map_err(to_io)?;
    if matches!(db.source, persistence::LoadSource::Backup) {
        counter!("service.recovery.db_from_backup").incr();
    }
    let index_recovered = config.index_path.as_deref().and_then(|idx_path| {
        if !idx_path.exists() && !persistence::bak_path(idx_path).exists() {
            return None;
        }
        match persistence::load_index_from_path(idx_path) {
            Ok(rec) => Some(rec.value),
            Err(_) => {
                counter!("service.recovery.index_unreadable").incr();
                None
            }
        }
    });
    if let Some(index) = index_recovered {
        if ShardedStore::check_index(&db.value, &index).is_ok() {
            return ShardedStore::from_db_with_index(config.store.clone(), db.value, index)
                .map_err(to_io);
        }
        counter!("service.recovery.index_mismatch").incr();
    }
    counter!("service.recovery.degraded_start").incr();
    Ok(ShardedStore::from_db_degraded(
        config.store.clone(),
        db.value,
    ))
}
