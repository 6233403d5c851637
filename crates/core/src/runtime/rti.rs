//! The run-time infrastructure (RTI): the small coordinator every
//! federated execution runs under.
//!
//! Modeled on the rti/federate split of federated reactor runtimes: the
//! RTI owns *coordination*, never data. Concretely it provides
//!
//! * **start-time sync** — a barrier no federate passes until every
//!   federate has finished elaborating, so measured runs never overlap a
//!   competitor's setup and no channel sees traffic before all endpoints
//!   exist;
//! * **shutdown propagation** — a shared flag any federate (or the
//!   coordinator) raises; stalled sends and data-driven receives poll it,
//!   so one failing federate drains the whole federation promptly instead
//!   of deadlocking it;
//! * **liveness accounting** — each federate decrements a live counter on
//!   exit (including panic unwind, via `Drop`), and the last one out wakes
//!   the coordinator, which is what lets it stream telemetry samples while
//!   the federation runs and stop sampling the moment it is done;
//! * **teardown** — `join_all` joins *every* spawned thread before
//!   returning or re-raising anything, so no run leaks a thread: a panic
//!   in one federate is re-thrown on the coordinator only after the other
//!   threads are joined.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The coordinator's wake-up call: the last federate to exit notifies it
/// under the mutex, so a coordinator that saw a live federation under the
/// same mutex cannot miss the notification.
type ExitSignal = Arc<(Mutex<()>, Condvar)>;

/// The coordination context one federate thread holds for its lifetime.
///
/// Dropping it (normally or during a panic unwind) marks the federate
/// done; a panicking federate additionally raises the shutdown flag so
/// the rest of the federation unblocks.
pub(crate) struct FederateCtx {
    shutdown: Arc<AtomicBool>,
    barrier: Arc<Barrier>,
    live: Arc<AtomicUsize>,
    exited: ExitSignal,
}

impl FederateCtx {
    /// Blocks until every federate reaches its start line.
    pub fn start(&self) {
        self.barrier.wait();
    }

    /// `true` once any party requested shutdown.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Asks every federate to wind down at its next poll point.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// The shared flag itself, for blocking channel calls to poll.
    pub fn shutdown_flag(&self) -> &AtomicBool {
        &self.shutdown
    }
}

impl Drop for FederateCtx {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.request_shutdown();
        }
        if self.live.fetch_sub(1, Ordering::Release) == 1 {
            let (lock, done) = &*self.exited;
            let _held = lock.lock().unwrap_or_else(PoisonError::into_inner);
            done.notify_all();
        }
    }
}

/// How a federation's teardown went; the proof no thread leaked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Federate threads spawned.
    pub spawned: usize,
    /// Threads joined back (always equals `spawned` when `join_all`
    /// returns — a panic is re-raised only after every join).
    pub joined: usize,
}

/// The coordinator: spawns federates, waits on them (optionally sampling
/// telemetry at a cadence), and joins every thread.
pub(crate) struct Rti<R> {
    shutdown: Arc<AtomicBool>,
    barrier: Arc<Barrier>,
    live: Arc<AtomicUsize>,
    exited: ExitSignal,
    handles: Vec<(String, JoinHandle<R>)>,
}

impl<R: Send + 'static> Rti<R> {
    /// A coordinator for exactly `federates` threads (the start barrier is
    /// sized to that count; spawning more or fewer would hang or misfire).
    pub fn new(federates: usize) -> Rti<R> {
        Rti {
            shutdown: Arc::new(AtomicBool::new(false)),
            barrier: Arc::new(Barrier::new(federates.max(1))),
            live: Arc::new(AtomicUsize::new(0)),
            exited: Arc::default(),
            handles: Vec::with_capacity(federates),
        }
    }

    /// Spawns one federate. `body` receives its [`FederateCtx`] and must
    /// call [`FederateCtx::start`] before touching any channel.
    pub fn spawn<F>(&mut self, name: String, body: F)
    where
        F: FnOnce(FederateCtx) -> R + Send + 'static,
    {
        self.live.fetch_add(1, Ordering::Release);
        let ctx = FederateCtx {
            shutdown: self.shutdown.clone(),
            barrier: self.barrier.clone(),
            live: self.live.clone(),
            exited: self.exited.clone(),
        };
        let handle = std::thread::spawn(move || body(ctx));
        self.handles.push((name, handle));
    }

    /// `true` while at least one federate has not exited.
    pub fn any_live(&self) -> bool {
        self.live.load(Ordering::Acquire) > 0
    }

    /// How many federates have not exited yet (the stall watchdog compares
    /// this against the number of blocked channel endpoints).
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Coordinator-side shutdown request: every federate winds down at its
    /// next poll point (the watchdog's way out of a deadlocked federation).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Blocks until every federate exited, calling `sample` every `every`
    /// while the federation runs (the streaming-telemetry hook) and once
    /// more as soon as it is done — the last federate out wakes the wait,
    /// so it never outlasts the federation by up to a cadence. A `None`
    /// cadence degenerates to a plain wait-by-join in [`Rti::join_all`].
    pub fn wait_sampling(&self, every: Option<Duration>, mut sample: impl FnMut()) {
        let Some(every) = every else { return };
        let (lock, exited) = &*self.exited;
        while self.any_live() {
            let due = Instant::now() + every;
            let mut held = lock.lock().unwrap_or_else(PoisonError::into_inner);
            while self.any_live() {
                let Some(left) = due.checked_duration_since(Instant::now()) else { break };
                held = exited.wait_timeout(held, left).unwrap_or_else(PoisonError::into_inner).0;
            }
            drop(held);
            sample();
        }
    }

    /// Joins every spawned thread, in spawn order. A panicked federate is
    /// re-raised on the caller — but only after **all** threads are
    /// joined, so even the panic path leaks nothing.
    pub fn join_all(self) -> (Vec<(String, R)>, JoinStats) {
        let mut stats = JoinStats { spawned: self.handles.len(), joined: 0 };
        let mut results = Vec::with_capacity(self.handles.len());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for (name, handle) in self.handles {
            match handle.join() {
                Ok(r) => results.push((name, r)),
                Err(payload) => {
                    // keep joining; re-raise the first panic afterwards
                    panic.get_or_insert(payload);
                }
            }
            stats.joined += 1;
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn start_barrier_synchronizes_every_federate() {
        // no federate may observe fewer than n "armed" marks after start():
        // all arming happens before any barrier release
        let n = 4;
        let armed = Arc::new(AtomicUsize::new(0));
        let mut rti: Rti<usize> = Rti::new(n);
        for i in 0..n {
            let armed = armed.clone();
            rti.spawn(format!("f{i}"), move |ctx| {
                armed.fetch_add(1, Ordering::SeqCst);
                ctx.start();
                armed.load(Ordering::SeqCst)
            });
        }
        let (results, stats) = rti.join_all();
        assert_eq!(stats, JoinStats { spawned: n, joined: n });
        for (_, seen) in results {
            assert_eq!(seen, n, "a federate started before all were armed");
        }
    }

    #[test]
    fn panic_propagates_after_every_thread_is_joined() {
        let joined_proof = Arc::new(Mutex::new(Vec::new()));
        let proof = joined_proof.clone();
        let result = std::panic::catch_unwind(move || {
            let mut rti: Rti<()> = Rti::new(3);
            for i in 0..3 {
                let proof = proof.clone();
                rti.spawn(format!("f{i}"), move |ctx| {
                    ctx.start();
                    if i == 1 {
                        panic!("federate 1 exploded");
                    }
                    // the two survivors run to completion and record it
                    proof.lock().unwrap().push(i);
                });
            }
            rti.join_all();
        });
        let payload = result.expect_err("the federate panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("exploded"), "original payload is preserved, got {msg:?}");
        // both non-panicking federates were joined before the re-raise
        let mut proof = joined_proof.lock().unwrap().clone();
        proof.sort_unstable();
        assert_eq!(proof, vec![0, 2]);
    }

    #[test]
    fn panicking_federate_requests_shutdown_for_the_rest() {
        let mut rti: Rti<bool> = Rti::new(2);
        rti.spawn("waiter".into(), |ctx| {
            ctx.start();
            // spin until the panicking peer's unwind raises the flag
            while !ctx.shutdown_requested() {
                std::thread::yield_now();
            }
            true
        });
        rti.spawn("bomb".into(), |ctx| {
            ctx.start();
            panic!("boom");
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rti.join_all()));
        assert!(err.is_err(), "the bomb must re-raise");
    }

    #[test]
    fn sampling_runs_until_the_last_federate_exits() {
        let mut rti: Rti<()> = Rti::new(2);
        for i in 0..2 {
            rti.spawn(format!("f{i}"), move |ctx| {
                ctx.start();
                std::thread::sleep(Duration::from_millis(20 * (i as u64 + 1)));
            });
        }
        let mut ticks = 0usize;
        rti.wait_sampling(Some(Duration::from_millis(5)), || ticks += 1);
        assert!(!rti.any_live(), "sampling only returns once all federates exited");
        assert!(ticks >= 2, "the sampler observed the running federation");
        let (_, stats) = rti.join_all();
        assert_eq!(stats.spawned, stats.joined);
    }

    #[test]
    fn sampling_wait_returns_when_the_federation_finishes() {
        // the federation lives ~5 ms; a 2 s cadence must not hold the
        // coordinator until the next cadence point
        let mut rti: Rti<()> = Rti::new(1);
        rti.spawn("f".into(), |ctx| {
            ctx.start();
            std::thread::sleep(Duration::from_millis(5));
        });
        let cadence = Duration::from_secs(2);
        let started = Instant::now();
        let mut samples = 0usize;
        rti.wait_sampling(Some(cadence), || samples += 1);
        assert!(started.elapsed() < cadence / 2, "waited {:?}", started.elapsed());
        assert!(!rti.any_live());
        assert_eq!(samples, 1, "one closing sample");
        rti.join_all();
    }

    #[test]
    fn zero_activation_federates_join_cleanly() {
        let mut rti: Rti<u32> = Rti::new(3);
        for i in 0..3 {
            rti.spawn(format!("f{i}"), move |ctx| {
                ctx.start();
                i // exit immediately: a zero-work federate
            });
        }
        let (results, stats) = rti.join_all();
        assert_eq!(stats, JoinStats { spawned: 3, joined: 3 });
        assert_eq!(results.iter().map(|(_, r)| *r).sum::<u32>(), 3);
    }
}
