//! The front end both tiers share: the accept loop, per-connection reader
//! and writer threads, the shutdown handle, and the answers built from the
//! request tracer.
//!
//! `pc serve` ([`crate::server`]) and `pc route` ([`crate::router`]) speak
//! the same protocol over the same connection machinery; each supplies only
//! its per-request dispatch and the step it runs once every connection has
//! closed. Thread anatomy of a running tier:
//!
//! ```text
//! {tier}-accept ── spawns ──▶ {tier}-conn-N (reader)  ──Outbound──▶  writer thread
//!                                     │ dispatch
//!                                     ▼
//!        replica: SubmissionQueue (bounded) ── pop_batch ──▶ pc-dispatcher
//!                                                  (plan → score → merge, mutations)
//!        router:  forward / fan out inline, answer in request order
//! ```
//!
//! The reader decodes frames and hands each request to the tier; whatever
//! answers it — the reader itself, or the replica's dispatcher — sends the
//! response down the connection's channel, and the writer encodes and
//! writes it.
//!
//! Shutdown can be triggered three ways — a `shutdown` request on any
//! connection, [`Handle::shutdown`] (or a [`ShutdownTrigger`]), or dropping
//! the handle — and is always graceful: the accept loop stops taking
//! connections, every connection's read half is closed so no *new* requests
//! arrive, answers already in flight still flow out through the writers,
//! the connection threads join, and then the tier's post-drain step runs.
//!
//! Deadlines: one timeout per tier is both the per-frame read deadline,
//! measured from a frame's first byte (the slow-loris defense), and the
//! socket write timeout. A quiet connection between frames stays open.
//!
//! The accept loop keeps only live connections: each accept first reaps the
//! connection threads that have finished, so a long-lived tier holds one
//! descriptor per open connection, not one per connection ever accepted.

use crate::codec::{self, CodecError, ReadGuard};
use crate::pool::{self, Outbound, Reply};
use crate::protocol::{self, MetricsBody, OpLatency, Request, TraceRecord};
use pc_telemetry::counter;
use pc_telemetry::trace::{trace_id, Stage, StageClock, TraceBuilder, Tracer};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// The connection-facing state a tier shares with its accept loop, its
/// connections and its handle.
pub(crate) struct Front {
    /// The bound address (resolves port 0).
    pub(crate) local_addr: SocketAddr,
    /// The tier's request tracer.
    pub(crate) tracer: Arc<Tracer>,
    shutting_down: AtomicBool,
    /// The per-frame read deadline; its limit is also the write timeout.
    guard: ReadGuard,
    max_frame_bytes: u32,
}

impl Front {
    /// Binds `addr`. `timeout_ms` is the per-frame read deadline and the
    /// socket write timeout of every accepted connection.
    pub(crate) fn bind(
        addr: &str,
        timeout_ms: Option<u64>,
        max_frame_bytes: u32,
        tracer: Tracer,
    ) -> io::Result<(TcpListener, Arc<Front>)> {
        let listener = TcpListener::bind(addr)?;
        let front = Front {
            local_addr: listener.local_addr()?,
            tracer: Arc::new(tracer),
            shutting_down: AtomicBool::new(false),
            guard: ReadGuard {
                frame_timeout: timeout_ms.map(Duration::from_millis),
            },
            max_frame_bytes,
        };
        Ok((listener, Arc::new(front)))
    }

    /// Whether shutdown has been triggered.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Idempotently triggers shutdown and wakes the blocking accept call.
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            counter!("service.shutdown.triggered").incr();
            // accept() has no timeout in std; a throwaway connection wakes it
            // so it can observe the flag.
            let _ = TcpStream::connect(self.local_addr);
        }
    }

    /// Live serving metrics from the tracer: per-op latency quantiles for
    /// every op that has seen traffic, plus the tier's own queue depth and
    /// degraded flag.
    pub(crate) fn metrics(&self, queue_depth: u64, degraded: bool) -> MetricsBody {
        let ops = self
            .tracer
            .snapshot()
            .into_iter()
            .filter_map(|(op, snap)| {
                if snap.count() == 0 {
                    return None;
                }
                let max_ns = snap.max().unwrap_or(0);
                Some(OpLatency {
                    op: op.to_string(),
                    count: snap.count(),
                    p50_ns: snap.quantile(0.50).unwrap_or(max_ns),
                    p90_ns: snap.quantile(0.90).unwrap_or(max_ns),
                    p99_ns: snap.quantile(0.99).unwrap_or(max_ns),
                    max_ns,
                })
            })
            .collect();
        MetricsBody {
            ops,
            queue_depth,
            slow_requests: self.tracer.slow_requests(),
            degraded,
        }
    }

    /// The flight recorder's contents as wire records, oldest first.
    pub(crate) fn trace_dump(&self) -> Vec<TraceRecord> {
        self.tracer
            .recent_traces()
            .into_iter()
            .map(|t| TraceRecord {
                trace_id: t.trace_id,
                op: t.op.to_string(),
                seq: t.seq,
                decode_ns: t.stage_ns(Stage::Decode),
                queue_wait_ns: t.stage_ns(Stage::QueueWait),
                score_ns: t.stage_ns(Stage::Score),
                encode_ns: t.stage_ns(Stage::Encode),
                write_ns: t.stage_ns(Stage::Write),
                total_ns: t.total_ns,
                slow: t.slow,
            })
            .collect()
    }
}

/// One decoded request on its way to the tier, with everything needed to
/// answer it.
pub(crate) struct Call<'a> {
    /// Request sequence number, echoed in the response.
    pub(crate) seq: u64,
    /// The trace id replica forwards carry: the frame's own `origin` when
    /// it was forwarded, else this connection's id for the request.
    pub(crate) origin: u64,
    /// The router's global write sequence on a fanned-out mutation.
    pub(crate) wseq: Option<u64>,
    /// The request's stage timer, if tracing is enabled.
    pub(crate) trace: Option<Box<TraceBuilder>>,
    /// The connection's writer channel.
    pub(crate) reply: &'a Reply,
}

impl Call<'_> {
    /// Sends `response` to the writer.
    pub(crate) fn answer(self, response: protocol::Response) {
        pool::answer(self.reply, self.seq, self.trace, response);
    }
}

/// What a tier plugs into the shared front end.
pub(crate) trait Tier: Send + Sync + 'static {
    /// Thread-name prefix: `{THREADS}-accept`, `{THREADS}-conn-N`.
    const THREADS: &'static str;

    /// The tier's connection-facing state.
    fn front(&self) -> &Arc<Front>;

    /// Answers one request: either inline through [`Call::answer`], or by
    /// handing the call's reply channel to whatever answers it later.
    fn dispatch(&self, request: Request, call: Call<'_>);
}

/// Starts the accept loop on `listener`. `drained` runs on the accept
/// thread once every connection has closed; its error is what
/// [`Handle::wait`] returns.
pub(crate) fn spawn<S: Tier>(
    listener: TcpListener,
    tier: Arc<S>,
    drained: impl FnOnce() -> io::Result<()> + Send + 'static,
) -> io::Result<Handle<S>> {
    let front = Arc::clone(tier.front());
    let accept_tier = Arc::clone(&tier);
    let accept_thread = thread::Builder::new()
        .name(format!("{}-accept", S::THREADS))
        .spawn(move || {
            accept_loop(listener, accept_tier)?;
            drained()?;
            counter!("service.shutdown.drained").incr();
            Ok(())
        })?;
    Ok(Handle {
        tier,
        front,
        accept_thread: Some(accept_thread),
    })
}

/// A handle to a running tier.
///
/// Dropping the handle shuts the tier down and blocks until it has
/// drained; call [`Handle::shutdown`] + [`Handle::wait`] to do the same
/// explicitly and observe errors.
pub struct Handle<S> {
    pub(crate) tier: Arc<S>,
    front: Arc<Front>,
    accept_thread: Option<JoinHandle<io::Result<()>>>,
}

impl<S> Handle<S> {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr
    }

    /// Triggers graceful shutdown without waiting.
    pub fn shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// A detached trigger that can shut the tier down from another thread
    /// while this handle is blocked in [`Handle::wait`].
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger(Arc::clone(&self.front))
    }

    /// Blocks until the tier has fully drained.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures and the tier's post-drain errors
    /// (a replica's final save).
    pub fn wait(mut self) -> io::Result<()> {
        self.join_accept()
    }

    /// [`Handle::shutdown`] followed by [`Handle::wait`].
    ///
    /// # Errors
    ///
    /// As [`Handle::wait`].
    pub fn shutdown_and_wait(self) -> io::Result<()> {
        self.shutdown();
        self.wait()
    }

    fn join_accept(&mut self) -> io::Result<()> {
        match self.accept_thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("accept thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl<S> Drop for Handle<S> {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.front.begin_shutdown();
            let _ = self.join_accept();
        }
    }
}

/// A clonable shutdown trigger detached from the owning [`Handle`].
#[derive(Clone)]
pub struct ShutdownTrigger(Arc<Front>);

impl ShutdownTrigger {
    /// Triggers graceful shutdown without waiting (idempotent).
    pub fn shutdown(&self) {
        self.0.begin_shutdown();
    }
}

fn accept_loop<S: Tier>(listener: TcpListener, tier: Arc<S>) -> io::Result<()> {
    let front = tier.front();
    let mut live: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    let mut next_conn = 0u64;
    loop {
        let accepted = listener.accept();
        // Reap finished connections: their threads join and their stream
        // clones close here, not at shutdown.
        let (done, running) = live.into_iter().partition(|(_, t)| t.is_finished());
        live = running;
        for (_, t) in done {
            let _ = t.join();
        }
        let (stream, _peer) = match accepted {
            Ok(pair) => pair,
            Err(_) if front.shutting_down() => break,
            Err(_) => continue,
        };
        if front.shutting_down() {
            break; // the wake-up connection, or a late client
        }
        counter!("service.conn.accepted").incr();
        let registered = stream.try_clone()?;
        let conn_tier = Arc::clone(&tier);
        let id = next_conn;
        next_conn += 1;
        let thread = thread::Builder::new()
            .name(format!("{}-conn-{id}", S::THREADS))
            .spawn(move || serve_connection(stream, conn_tier, id))?;
        live.push((registered, thread));
    }

    // Teardown. Closing read halves stops connections from admitting new
    // work; answers already in flight still flow out through the
    // per-connection writer threads, which the reader threads join.
    for (stream, _) in &live {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (_, t) in live {
        let _ = t.join();
    }
    Ok(())
}

fn serve_connection<S: Tier>(stream: TcpStream, tier: Arc<S>, conn_id: u64) {
    let front = tier.front();
    let guard = front.guard;
    if guard.is_active() {
        // The socket's read timeout is the guard's polling tick, not the
        // deadline itself: each timeout wakes the guarded read to check its
        // frame clock.
        let _ = stream.set_read_timeout(Some(guard.tick()));
    }
    let _ = stream.set_write_timeout(guard.frame_timeout);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Outbound>();
    let writer_tracer = Arc::clone(&front.tracer);
    let writer_thread = thread::spawn(move || write_loop(write_half, reply_rx, writer_tracer));

    // Errors no request can be correlated with go out under seq 0.
    let refuse = |message: String| {
        let _ = reply_tx.send(Outbound::new(0, protocol::Response::Error { message }));
    };
    let mut reader = BufReader::new(stream);
    loop {
        let frame = {
            let _span = pc_telemetry::time!("service.decode");
            if pc_faults::fail_point("wire.read") {
                // A read-side fault is an incident: capture the traces that
                // led up to it before the connection dies.
                front.tracer.dump("fault_injected");
                Err(CodecError::Io(pc_faults::injected_io("wire.read")))
            } else {
                codec::read_frame_guarded(&mut reader, front.max_frame_bytes, guard)
            }
        };
        let value = match frame {
            Ok(value) => value,
            Err(CodecError::Closed) => break,
            Err(e) => {
                // Framing is unrecoverable mid-stream: report and hang up.
                counter!("service.decode.framing_errors").incr();
                refuse(e.to_string());
                break;
            }
        };
        // The decode clock only runs when tracing is live: a disabled tracer
        // keeps the request path free of clock reads.
        let clock = front.tracer.enabled().then(StageClock::start);
        let (seq, request, wants_trace, origin, wseq) =
            match protocol::decode_request_routed(&value) {
                Ok(decoded) => decoded,
                Err(e) => {
                    // The frame boundary held, so the connection survives a
                    // malformed request.
                    counter!("service.decode.bad_requests").incr();
                    refuse(e.to_string());
                    continue;
                }
            };
        let op = request.op();
        count_request(op);
        let decode_ns = clock.map_or(0, |c| c.elapsed_ns());
        // A forwarded frame carries the router-assigned trace id; adopting
        // it makes flight-recorder entries greppable by the id the routing
        // tier reported.
        let trace = match origin {
            Some(id) => front
                .tracer
                .begin_forwarded(id, seq, op, decode_ns, wants_trace),
            None => front.tracer.begin(conn_id, seq, op, decode_ns, wants_trace),
        };
        let shutdown = matches!(request, Request::Shutdown);
        tier.dispatch(
            request,
            Call {
                seq,
                // Identical to the trace id above, even when tracing is off.
                origin: origin.unwrap_or_else(|| trace_id(conn_id, seq)),
                wseq,
                trace,
                reply: &reply_tx,
            },
        );
        if shutdown {
            front.begin_shutdown();
            break;
        }
    }

    // Dropping our sender lets the writer exit once any in-flight jobs have
    // delivered their responses through their own clones.
    drop(reply_tx);
    let _ = writer_thread.join();
    // Hang up now: the accept loop's registry clone keeps the descriptor
    // open until the next accept reaps it.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
    counter!("service.conn.closed").incr();
}

/// Per-op request counters (the `counter!` macro needs literal names).
fn count_request(op: &str) {
    match op {
        "ping" => counter!("service.requests.ping").incr(),
        "identify" => counter!("service.requests.identify").incr(),
        "characterize" => counter!("service.requests.characterize").incr(),
        "cluster-ingest" => counter!("service.requests.cluster_ingest").incr(),
        "stats" => counter!("service.requests.stats").incr(),
        "metrics" => counter!("service.requests.metrics").incr(),
        "trace-dump" => counter!("service.requests.trace_dump").incr(),
        "save" => counter!("service.requests.save").incr(),
        "ring-status" => counter!("service.requests.ring_status").incr(),
        "replay" => counter!("service.requests.replay").incr(),
        _ => counter!("service.requests.shutdown").incr(),
    }
}

fn write_loop(stream: TcpStream, replies: mpsc::Receiver<Outbound>, tracer: Arc<Tracer>) {
    let mut w = BufWriter::new(&stream);
    while let Ok(out) = replies.recv() {
        let Outbound {
            seq,
            response,
            mut trace,
        } = out;
        let _span = pc_telemetry::time!("service.respond");
        let frame = protocol::encode_response(seq, &response);
        if let Some(tb) = trace.as_deref_mut() {
            // Everything since the score lap — writer-queue wait plus the
            // encode itself — is the encode stage.
            tb.record_lap(Stage::Encode);
        }
        // An injected wire.write fault drops the connection exactly as a
        // failed send would: the peer never sees this acknowledgement.
        let fault = pc_faults::fail_point("wire.write");
        if fault {
            tracer.dump("fault_injected");
        }
        let failed = fault || codec::write_frame(&mut w, &frame).is_err();
        if failed {
            // The peer is gone; unblock our reader too and bail.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if let Some(mut tb) = trace {
            // write_frame flushes per frame, so this lap covers the real
            // socket write.
            tb.record_lap(Stage::Write);
            tracer.observe(tb.finish());
        }
        counter!("service.responses").incr();
    }
    let _ = w.flush();
}
