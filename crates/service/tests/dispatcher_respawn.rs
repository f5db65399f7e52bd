//! A `pool.worker` fault kills the dispatcher loop mid-batch: the faulted
//! identify answers a "panicked" `Error`, the loop restarts, and every
//! other job of the popped batch is still answered correctly.
//!
//! Its own test binary, because the fault registry is process-wide: the
//! plan armed here must not leak probes into any other test.

use pc_service::pool::{Job, Outbound, Pool, SubmissionQueue, Work};
use pc_service::protocol::Response;
use pc_service::store::{ShardedStore, StoreConfig};
use pc_telemetry::trace::Tracer;
use probable_cause::ErrorString;
use std::sync::{mpsc, Arc};

const JOBS: u64 = 12;
const CHIPS: u64 = 4;

fn chip(c: u64) -> ErrorString {
    ErrorString::from_sorted((0..40).map(|i| c * 40 + i).collect(), 4096).unwrap()
}

#[test]
fn worker_fault_fails_one_identify_and_the_batch_survives_the_restart() {
    let store = ShardedStore::new(StoreConfig {
        threshold: 0.3,
        ..StoreConfig::default()
    });
    for c in 0..CHIPS {
        store.characterize(&format!("chip-{c}"), &chip(c)).unwrap();
    }

    // Queue every job before the dispatcher starts, so all of them sit in
    // the batch it pops first.
    let queue = Arc::new(SubmissionQueue::new(64));
    let (tx, rx) = mpsc::channel::<Outbound>();
    for seq in 0..JOBS {
        let job = Job {
            seq,
            reply: tx.clone(),
            trace: None,
            work: Work::Identify(chip(seq % CHIPS)),
        };
        assert!(queue.try_submit(job).is_ok());
    }
    drop(tx);

    pc_faults::install(pc_faults::FaultPlan::parse("seed=1;pool.worker=n2").unwrap());
    let pool = Pool::spawn(
        Arc::new(store),
        Arc::clone(&queue),
        JOBS as usize,
        Arc::new(Tracer::disabled()),
    );
    let metrics = pool.metrics();
    pool.drain_and_join();
    pc_faults::uninstall();

    let answered: Vec<Outbound> = rx.try_iter().collect();
    assert_eq!(
        answered.len() as u64,
        JOBS,
        "every queued identify is answered"
    );
    let mut panicked = 0;
    for out in &answered {
        match &out.response {
            Response::Error { message } if message.contains("panicked") => {
                // Jobs run in admission order, so the second probe is seq 1.
                assert_eq!(out.seq, 1, "the faulted identify is the second one");
                panicked += 1;
            }
            Response::Match { label, distance } => {
                assert_eq!(label, &format!("chip-{}", out.seq % CHIPS));
                assert_eq!(*distance, 0.0);
            }
            other => panic!("seq {} answered {other:?}", out.seq),
        }
    }
    assert_eq!(panicked, 1, "exactly the faulted identify fails");
    assert_eq!(metrics.worker_panics(), 1);
    assert_eq!(metrics.worker_respawns(), 1);
}
