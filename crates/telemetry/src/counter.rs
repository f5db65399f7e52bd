//! Monotonic atomic event counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A monotonic event counter. Registered in the global
/// [`Collector`](crate::Collector) under a static name; incremented with relaxed
/// ordering from any thread.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A call-site handle to a named counter, designed to live in a `static`
/// (see the [`counter!`](crate::counter!) macro).
///
/// The first recording after the collector is installed resolves the name in
/// the registry and caches the reference; recording is lock-free from then
/// on. While no collector is installed, [`add`](Self::add) is one atomic
/// load and a branch.
#[derive(Debug)]
pub struct CounterHandle {
    name: &'static str,
    resolved: OnceLock<&'static Counter>,
}

impl CounterHandle {
    /// A handle to the counter named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            resolved: OnceLock::new(),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` to the counter; no-op when telemetry is not installed.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(collector) = crate::global() {
            self.resolved
                .get_or_init(|| collector.counter(self.name))
                .add(n);
        }
    }

    /// Increments the counter by one; no-op when telemetry is not installed.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value, or 0 when telemetry is not installed.
    pub fn get(&self) -> u64 {
        match crate::global() {
            Some(collector) => self
                .resolved
                .get_or_init(|| collector.counter(self.name))
                .get(),
            None => 0,
        }
    }
}
