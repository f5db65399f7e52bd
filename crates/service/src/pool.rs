//! The server's execution engine: a bounded submission queue drained by one
//! dispatcher thread.
//!
//! Connection threads *submit* [`Job`]s and never touch the store. A job is
//! its request's sequence number, reply channel and stage timer, plus its
//! [`Work`]: an identify, one write (characterize or cluster-ingest, with
//! the router's write sequence when a router sent it), or a journal replay
//! batch. The dispatcher pops jobs in batches and answers each in admission
//! order: identifies plan, score and threshold inline through
//! [`ShardedStore::identify`] (an LSH-routed identify scores about one
//! candidate, and a full-scan-sized candidate set borrows the kernels'
//! thread pool), and writes and replays run serially through the store's
//! one write step, [`ShardedStore::apply_write`], so writes are
//! deterministic in admission order.
//!
//! Backpressure is explicit: the queue has a fixed capacity and
//! [`SubmissionQueue::try_submit`] never blocks — a full queue bounces the
//! job back so the connection can answer `busy` with a retry hint instead of
//! stalling the read loop. Closing the queue lets already-admitted jobs
//! drain: the dispatcher keeps popping until the queue is empty, then exits
//! — that is the graceful-drain half of server shutdown.
//!
//! # Panic containment
//!
//! A panic while answering a job (organic, or injected via the
//! `store.score` fault site) fails only its own request: it runs under
//! `catch_unwind` and the caller gets an `Error` response instead of a hung
//! connection. A panic that escapes a job (the `pool.worker` fault site,
//! which answers its request first) restarts the dispatcher loop without
//! losing the rest of the popped batch. Both show up in [`PoolMetrics`],
//! which `stats` reports as `worker_panics` / `worker_respawns`.

use crate::protocol::{Response, SequencedEntry, TraceBody};
use crate::store::{ShardedStore, StoreError};
use pc_telemetry::counter;
use pc_telemetry::trace::{Stage, TraceBuilder, Tracer};
use probable_cause::ErrorString;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// One response leaving the engine for a connection's writer thread: the
/// request's sequence number, its payload, and — when tracing is enabled —
/// the request's stage timer, which the writer closes (encode/write laps)
/// and hands to the tracer.
pub struct Outbound {
    /// Request sequence number, echoed in the response.
    pub seq: u64,
    /// The response payload.
    pub response: Response,
    /// The request's stage timer, if the request was traced.
    pub trace: Option<Box<TraceBuilder>>,
}

impl Outbound {
    /// An untraced response.
    pub fn new(seq: u64, response: Response) -> Self {
        Self {
            seq,
            response,
            trace: None,
        }
    }
}

/// Where a job's response goes: the owning connection's writer channel.
pub type Reply = mpsc::Sender<Outbound>;

/// Records the score lap on `trace` (if present) and wraps `response` in
/// [`Response::Traced`] when the client asked for the breakdown on the wire.
///
/// Called exactly once per request, at the point its response is built —
/// everything from queue pickup to here counts as the score stage.
fn apply_trace(trace: &mut Option<Box<TraceBuilder>>, response: Response) -> Response {
    let Some(tb) = trace.as_deref_mut() else {
        return response;
    };
    tb.record_lap(Stage::Score);
    if !tb.wire() {
        return response;
    }
    let decode_ns = tb.stage_ns(Stage::Decode);
    let queue_wait_ns = tb.stage_ns(Stage::QueueWait);
    let score_ns = tb.stage_ns(Stage::Score);
    let total_ns = tb.total_so_far_ns();
    Response::Traced {
        inner: Box::new(response),
        trace: TraceBody {
            trace_id: tb.trace_id(),
            decode_ns,
            queue_wait_ns,
            score_ns,
            other_ns: total_ns.saturating_sub(decode_ns + queue_wait_ns + score_ns),
            total_ns,
        },
    }
}

/// A unit of admitted work: what to do, plus where and how to answer it.
pub struct Job {
    /// Request sequence number, echoed in the response.
    pub seq: u64,
    /// Response channel.
    pub reply: Reply,
    /// The request's stage timer, if tracing is enabled.
    pub trace: Option<Box<TraceBuilder>>,
    /// The work itself.
    pub work: Work,
}

/// What a [`Job`] asks of the store.
pub enum Work {
    /// Score an output against the store.
    Identify(ErrorString),
    /// Apply one write ([`ShardedStore::apply_write`]), stamped with the
    /// router's write sequence when a router fanned it out (0 otherwise).
    /// A live write is never skipped.
    Write(SequencedEntry),
    /// Apply a router journal replay batch, oldest first
    /// ([`ShardedStore::apply_replay`]): a rejoining replica catching up on
    /// missed writes, skipping those it already applied.
    Replay(Vec<SequencedEntry>),
}

/// Why a job was not admitted.
pub enum SubmitError {
    /// The queue is at capacity; retry after a back-off. The job is handed
    /// back so the caller can answer its reply channel.
    Full(Job),
    /// The queue is closed (server shutting down).
    Closed(Job),
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded, closable submission queue.
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    capacity: usize,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl SubmissionQueue {
    /// Creates a queue admitting at most `capacity` pending jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Admits `job` without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Closed`] after
    /// [`SubmissionQueue::close`]; both return the job to the caller.
    pub fn try_submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.lock_state();
        if state.closed {
            return Err(SubmitError::Closed(job));
        }
        if state.jobs.len() >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            counter!("service.queue.rejected").incr();
            return Err(SubmitError::Full(job));
        }
        state.jobs.push_back(job);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        counter!("service.queue.admitted").incr();
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or the queue is closed),
    /// then drains up to `max` jobs. Returns `None` only when the queue is
    /// closed *and* empty — every admitted job is handed out exactly once.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut state = self.lock_state();
        while state.jobs.is_empty() {
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let take = state.jobs.len().min(max.max(1));
        Some(state.jobs.drain(..take).collect())
    }

    /// Closes the queue: future submissions fail, pending jobs still drain.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.not_empty.notify_all();
    }

    /// Jobs admitted since construction.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Jobs rejected with `Full` since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs currently pending.
    pub fn depth(&self) -> usize {
        self.lock_state().jobs.len()
    }

    /// Queue state is a plain deque + flag, so no panic can leave it
    /// logically inconsistent — a poisoned lock is taken over, not
    /// propagated into the request path.
    // pc-allow: C004 — poison-recovery helper; callers scope the guard to one statement
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Panic-and-respawn accounting for the dispatcher, shared with the server
/// so `stats` can report it.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    panics: AtomicU64,
    respawns: AtomicU64,
}

impl PoolMetrics {
    /// Request panics absorbed (injected or organic) since start.
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Dispatcher loops restarted after a panic escaped a job since start.
    pub fn worker_respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }
}

/// The dispatcher thread over a store and a queue.
pub struct Pool {
    queue: Arc<SubmissionQueue>,
    metrics: Arc<PoolMetrics>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Pool {
    /// Spawns the dispatcher, with `batch_size` as its maximum drain per
    /// wakeup. The `tracer` receives a flight-recorder dump on every
    /// absorbed panic.
    pub fn spawn(
        store: Arc<ShardedStore>,
        queue: Arc<SubmissionQueue>,
        batch_size: usize,
        tracer: Arc<Tracer>,
    ) -> Self {
        let metrics = Arc::new(PoolMetrics::default());
        let dispatcher = Dispatcher {
            store,
            queue: Arc::clone(&queue),
            metrics: Arc::clone(&metrics),
            tracer,
        };
        let dispatcher = thread::Builder::new()
            .name("pc-dispatcher".to_string())
            .spawn(move || dispatcher.run(batch_size))
            // pc-allow: P002 — startup-only spawn, fails before any traffic is accepted
            .expect("spawn dispatcher");
        Self {
            queue,
            metrics,
            dispatcher: Some(dispatcher),
        }
    }

    /// The pool's panic/respawn accounting, shared with the caller.
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Closes the queue and blocks until every admitted job has been
    /// answered and the dispatcher has exited.
    pub fn drain_and_join(mut self) {
        self.queue.close();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

/// Sends `response` (wrapped by [`apply_trace`]) to the job's connection. A
/// connection that already went away is not the engine's failure.
pub(crate) fn answer(
    reply: &Reply,
    seq: u64,
    mut trace: Option<Box<TraceBuilder>>,
    response: Response,
) {
    let response = apply_trace(&mut trace, response);
    let _ = reply.send(Outbound {
        seq,
        response,
        trace,
    });
}

/// What the dispatcher thread owns.
struct Dispatcher {
    store: Arc<ShardedStore>,
    queue: Arc<SubmissionQueue>,
    metrics: Arc<PoolMetrics>,
    tracer: Arc<Tracer>,
}

impl Dispatcher {
    /// Answers jobs until the queue is closed and drained. A panic escaping
    /// a job restarts the loop; the rest of the popped batch lives outside
    /// the unwind, so no admitted job is lost to a sibling's panic.
    fn run(&self, batch_size: usize) {
        let mut pending = VecDeque::new();
        while catch_unwind(AssertUnwindSafe(|| self.drain(&mut pending, batch_size))).is_err() {
            self.metrics.respawns.fetch_add(1, Ordering::Relaxed);
            counter!("service.pool.respawns").incr();
        }
    }

    fn drain(&self, pending: &mut VecDeque<Job>, batch_size: usize) {
        loop {
            let Some(job) = pending.pop_front() else {
                let Some(batch) = self.queue.pop_batch(batch_size) else {
                    return;
                };
                counter!("service.dispatch.batches").incr();
                counter!("service.dispatch.jobs").add(batch.len() as u64);
                pending.extend(batch);
                continue;
            };
            self.handle(job);
        }
    }

    /// Counts one absorbed panic and dumps the flight recorder.
    fn note_panic(&self) {
        self.metrics.panics.fetch_add(1, Ordering::Relaxed);
        counter!("service.pool.panics").incr();
        self.tracer.dump("worker_panic");
    }

    /// Runs `work` under `catch_unwind`, so a poisoned request cannot take
    /// down the dispatcher: a panic fails only this request, as an `Error`,
    /// and so does a [`StoreError`].
    fn contained(
        &self,
        what: &str,
        work: impl FnOnce() -> Result<Response, StoreError>,
    ) -> Response {
        let message = match catch_unwind(AssertUnwindSafe(work)) {
            Ok(Ok(response)) => return response,
            Ok(Err(e)) => e.to_string(),
            Err(_) => {
                self.note_panic();
                format!("{what} panicked; request dropped")
            }
        };
        Response::Error { message }
    }

    /// Answers one job. Identifies score inline through
    /// [`ShardedStore::identify`]; writes and replays run in admission
    /// order through [`ShardedStore::apply_write`].
    fn handle(&self, job: Job) {
        let _span = pc_telemetry::time!("service.dispatch.route");
        let Job {
            seq,
            reply,
            mut trace,
            work,
        } = job;
        // Pickup closes the queue-wait stage: admission → here.
        if let Some(tb) = trace.as_deref_mut() {
            tb.record_lap(Stage::QueueWait);
        }
        let store = &*self.store;
        // The `pool.worker` fault answers its identify, then dies like a
        // real worker panic: `run` restarts the loop and the request gets
        // `Error` instead of hanging its connection.
        let worker_fault =
            matches!(work, Work::Identify(_)) && pc_faults::fail_point("pool.worker");
        let response = match work {
            Work::Identify(_) if worker_fault => {
                self.note_panic();
                Response::Error {
                    message: "identify failed (dispatcher panicked)".to_string(),
                }
            }
            Work::Identify(errors) => self.contained("identify", || {
                Ok(match store.identify(&errors)? {
                    Ok((label, distance)) => Response::Match { label, distance },
                    Err(closest) => Response::NoMatch { closest },
                })
            }),
            Work::Write(write) => self.contained(write.entry.op(), || store.apply_write(&write)),
            Work::Replay(entries) => self.contained("replay", || {
                let (applied, skipped) = store.apply_replay(&entries);
                Ok(Response::Replayed { applied, skipped })
            }),
        };
        answer(&reply, seq, trace, response);
        if worker_fault {
            // pc-allow: P003 — deliberate fault-injection site; the request is already answered
            panic!("injected fault at pool.worker");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReplayEntry;
    use crate::store::StoreConfig;

    fn job(seq: u64, reply: &Reply, work: Work) -> Job {
        Job {
            seq,
            reply: reply.clone(),
            trace: None,
            work,
        }
    }

    fn ingest(bits: &[u64]) -> Work {
        Work::Write(SequencedEntry {
            seq: 0,
            entry: ReplayEntry::ClusterIngest { errors: es(bits) },
        })
    }

    fn es(bits: &[u64]) -> ErrorString {
        ErrorString::from_sorted(bits.to_vec(), 4096).unwrap()
    }

    fn chip_bits(chip: u64) -> Vec<u64> {
        (0..40).map(|i| chip * 40 + i).collect()
    }

    fn store_with_chips(n: u64) -> Arc<ShardedStore> {
        let store = ShardedStore::new(StoreConfig {
            threshold: 0.3,
            ..StoreConfig::default()
        });
        for chip in 0..n {
            store
                .characterize(&format!("chip-{chip:02}"), &es(&chip_bits(chip)))
                .unwrap();
        }
        Arc::new(store)
    }

    #[test]
    fn pool_answers_identify_and_mutations() {
        let store = store_with_chips(8);
        let queue = Arc::new(SubmissionQueue::new(64));
        let pool = Pool::spawn(
            Arc::clone(&store),
            Arc::clone(&queue),
            8,
            Arc::new(Tracer::disabled()),
        );
        let (tx, rx) = mpsc::channel::<Outbound>();

        let characterize = Work::Write(SequencedEntry {
            seq: 0,
            entry: ReplayEntry::Characterize {
                label: "fresh".to_string(),
                errors: es(&[4, 44]),
            },
        });
        for (seq, work) in [
            (1, Work::Identify(es(&chip_bits(5)))),
            (2, ingest(&[9, 99, 999])),
            (3, characterize),
        ] {
            queue.try_submit(job(seq, &tx, work)).ok().unwrap();
        }

        let mut got = std::collections::BTreeMap::new();
        for _ in 0..3 {
            let out = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
            got.insert(out.seq, out.response);
        }
        assert_eq!(
            got[&1],
            Response::Match {
                label: "chip-05".to_string(),
                distance: 0.0
            }
        );
        assert_eq!(
            got[&2],
            Response::Clustered {
                cluster: 0,
                seeded: true,
                clusters: 1
            }
        );
        assert!(matches!(
            &got[&3],
            Response::Characterized { created: true, .. }
        ));
        pool.drain_and_join();
    }

    #[test]
    fn full_queue_bounces_jobs_back() {
        let queue = SubmissionQueue::new(1);
        let (tx, _rx) = mpsc::channel::<Outbound>();
        queue.try_submit(job(1, &tx, ingest(&[1]))).ok().unwrap();
        match queue.try_submit(job(2, &tx, ingest(&[1]))) {
            Err(SubmitError::Full(Job { seq: 2, .. })) => {}
            _ => panic!("second submit should bounce with the job"),
        }
        assert_eq!(queue.admitted(), 1);
        assert_eq!(queue.rejected(), 1);
    }

    #[test]
    fn close_drains_admitted_jobs() {
        let store = store_with_chips(4);
        let queue = Arc::new(SubmissionQueue::new(64));
        let (tx, rx) = mpsc::channel::<Outbound>();
        for seq in 0..20 {
            let work = Work::Identify(es(&chip_bits(seq % 4)));
            queue.try_submit(job(seq, &tx, work)).ok().unwrap();
        }
        drop(tx);
        // The pool starts with 20 jobs already queued; closing immediately
        // must still answer every one of them.
        let pool = Pool::spawn(store, Arc::clone(&queue), 4, Arc::new(Tracer::disabled()));
        pool.drain_and_join();
        let answered: Vec<_> = rx.try_iter().collect();
        assert_eq!(answered.len(), 20, "every admitted job must be answered");
        // After close, submissions are refused as Closed.
        let (tx2, _rx2) = mpsc::channel::<Outbound>();
        assert!(matches!(
            queue.try_submit(job(99, &tx2, ingest(&[1]))),
            Err(SubmitError::Closed(_))
        ));
    }
}
