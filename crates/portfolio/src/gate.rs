//! Job hand-off for the resident warm worker pool.
//!
//! A [`Gate`] is the coordination core of `pool.rs`: one coordinator
//! thread publishes a sequence of jobs (clause-delta loads, solve
//! calls, inprocessing passes, teardown) to `n` resident workers, and
//! collects one report per worker per job. Each published generation
//! is also a fresh first-to-finish winner election over the same
//! slots, so the winner slot and stop flag are *reused* across queries
//! instead of reallocated:
//!
//! - every worker that reaches a verdict races to [`Gate::try_win`]; a
//!   compare-exchange on the winner slot guarantees exactly one
//!   succeeds, no matter how the finishes interleave;
//! - the winner — and only the winner — raises the stop flag, which
//!   the losing workers' solvers poll inside their propagation loops
//!   and abort on;
//! - only the winner extracts its model, so the answer reported upward
//!   is unambiguous even when several workers finish near-simultaneously.
//!
//! The CAS is `AcqRel`, so the winner's identity is a unique, totally
//! ordered decision; the stop flag is raised with `Release` and may be
//! polled with `Relaxed` by the solvers because it carries no data —
//! it only hastens loser shutdown, and the losers' reports reach the
//! coordinator through the ack edge below.
//!
//! Protocol (verified by the model tests in `tests/model.rs`):
//!
//! 1. the coordinator waits until the previous generation is fully
//!    acknowledged ([`Gate::idle`]), then resets the winner slot and
//!    stop flag, writes the job payload, and bumps the generation
//!    counter `seq` with a `Release` store ([`Gate::publish`]);
//! 2. each worker polls `seq` with `Acquire` ([`Gate::poll`]); seeing
//!    a new generation synchronizes with the publish, so the payload
//!    *and* the relaxed resets that preceded the `Release` store are
//!    visible — the worker reads the job ([`Gate::with_job`]), works,
//!    optionally races [`Gate::try_win`], and then writes its report
//!    slot and acknowledges with a `Release` `fetch_add` on the
//!    cumulative `acks` counter ([`Gate::submit`]);
//! 3. the coordinator's `Acquire` load of `acks` in [`Gate::idle`]
//!    synchronizes with every worker's `Release` increment (each
//!    increment heads its own release sequence), so once
//!    `acks == n · seq` all `n` report slots are safely readable and
//!    the payload slot is exclusively writable again.
//!
//! The reset in step 1 is the subtle part: the winner/stop writes can
//! be `Relaxed` *only because* they are ordered before the `Release`
//! store of `seq` and no worker touches the slots between its ack and
//! its next successful poll. The mutation tests in `tests/model.rs`
//! downgrade the `Acquire` on the ack path to `Relaxed` and show the
//! checker catches the resulting race on the report slot.

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;

#[cfg(not(feature = "fec_check"))]
use std::sync::Arc;

/// Sentinel stored in the winner slot while a generation is undecided.
const NO_WINNER: usize = usize::MAX;

/// Reusable many-generation job gate between one coordinator and `n`
/// resident workers.
pub struct Gate<J, R> {
    n: usize,
    /// Generation counter. Written only by the coordinator
    /// (`Release`), polled by workers (`Acquire`). Generation `g` is
    /// the `g`-th published job; 0 means nothing published yet.
    seq: AtomicUsize,
    /// Cumulative acknowledgement count across all generations;
    /// generation `g` is complete when `acks == n * g`.
    acks: AtomicUsize,
    /// Winner slot for the current generation's election.
    winner: AtomicUsize,
    #[cfg(not(feature = "fec_check"))]
    stop: Arc<AtomicBool>,
    #[cfg(feature = "fec_check")]
    stop: AtomicBool,
    /// The published job. Written by the coordinator while idle, read
    /// shared by workers between poll and ack.
    job: UnsafeCell<Option<J>>,
    /// One report slot per worker. Written by its worker before the
    /// ack, read by the coordinator after `idle()`.
    reports: Box<[UnsafeCell<Option<R>>]>,
}

// Safety: the generation protocol above partitions every access to
// the `UnsafeCell`s. The coordinator only writes `job` / reads
// `reports` while `idle()` holds (its `Acquire` on `acks` ordering it
// after every worker's `Release` ack); worker `i` only reads `job` and
// writes `reports[i]` between an `Acquire` poll of a fresh generation
// and its own ack. `J: Sync` because all workers read the payload
// concurrently; `R: Send` because reports move worker → coordinator.
unsafe impl<J: Send + Sync, R: Send> Sync for Gate<J, R> {}
unsafe impl<J: Send, R: Send> Send for Gate<J, R> {}

impl<J, R> Gate<J, R> {
    /// A gate for `n ≥ 1` workers, no job published.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a pool needs at least one worker");
        Gate {
            n,
            seq: AtomicUsize::new(0),
            acks: AtomicUsize::new(0),
            winner: AtomicUsize::new(NO_WINNER),
            #[cfg(not(feature = "fec_check"))]
            stop: Arc::new(AtomicBool::new(false)),
            #[cfg(feature = "fec_check")]
            stop: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            reports: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Number of resident workers this gate coordinates.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Coordinator: whether the latest generation (if any) has been
    /// acknowledged by every worker. The `Acquire` here is what makes
    /// the workers' report writes — and their last reads of the job
    /// slot — visible and ordered before any subsequent publish.
    pub fn idle(&self) -> bool {
        // `seq` has a single writer (the coordinator itself), so its
        // own Relaxed read is exact; `acks` carries the edge.
        let g = self.seq.load(Ordering::Relaxed);
        self.acks.load(Ordering::Acquire) == self.n * g
    }

    /// Coordinator: publishes the next job. Panics if the previous
    /// generation is still in flight.
    pub fn publish(&self, job: J) {
        assert!(self.idle(), "publish while a generation is in flight");
        // Reset-for-reuse. Relaxed suffices: both stores are ordered
        // before the Release store of `seq` below, so any worker that
        // observes the new generation also observes a fresh election;
        // and `idle()` just proved no worker can still be looking at
        // the previous one.
        self.winner.store(NO_WINNER, Ordering::Relaxed);
        self.stop.store(false, Ordering::Relaxed);
        self.job.with_mut(|p| unsafe { *p = Some(job) });
        let g = self.seq.load(Ordering::Relaxed);
        self.seq.store(g + 1, Ordering::Release);
    }

    /// Worker: the current generation if it differs from `last_seen`.
    /// A `Some(g)` return synchronizes with the publish of `g`.
    pub fn poll(&self, last_seen: usize) -> Option<usize> {
        let g = self.seq.load(Ordering::Acquire);
        (g != last_seen).then_some(g)
    }

    /// Worker: shared read access to the published job. Must only be
    /// called between a successful [`Gate::poll`] and the matching
    /// [`Gate::submit`].
    pub fn with_job<T>(&self, f: impl FnOnce(&J) -> T) -> T {
        self.job.with(|p| {
            // Safety: the poll's Acquire ordered this read after the
            // coordinator's payload write, and the coordinator will
            // not touch the slot again until this worker acks.
            f(unsafe { (*p).as_ref().expect("no job published") })
        })
    }

    /// Worker: deposit the report for the current generation and
    /// acknowledge it. After this the worker must not touch the job
    /// or its report slot until the next successful poll.
    pub fn submit(&self, worker: usize, report: R) {
        self.reports[worker].with_mut(|p| unsafe { *p = Some(report) });
        // Release: heads a release sequence on `acks`, so the
        // coordinator's Acquire load sees the report write above no
        // matter how the other workers' increments interleave.
        self.acks.fetch_add(1, Ordering::Release);
    }

    /// Worker: race to own the current generation's verdict. Exactly
    /// one caller per generation wins; the winner raises the stop
    /// flag, cancelling the other workers' solvers.
    pub fn try_win(&self, worker: usize) -> bool {
        debug_assert_ne!(worker, NO_WINNER, "worker id collides with the sentinel");
        let won = self
            .winner
            .compare_exchange(NO_WINNER, worker, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            self.stop.store(true, Ordering::Release);
        }
        won
    }

    /// The current generation's winning worker, once decided.
    pub fn winner(&self) -> Option<usize> {
        let w = self.winner.load(Ordering::Acquire);
        (w != NO_WINNER).then_some(w)
    }

    /// Whether the current generation's election has been decided and
    /// cancellation is under way.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The stop flag in the form [`fec_sat::Solver::set_stop_flag`]
    /// expects; installed once per resident worker at pool start and
    /// valid across every subsequent generation.
    #[cfg(not(feature = "fec_check"))]
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Coordinator: drain all report slots. Must only be called while
    /// [`Gate::idle`] — after a published generation this yields one
    /// `Some` per worker.
    pub fn take_reports(&self) -> Vec<Option<R>> {
        debug_assert!(self.idle(), "take_reports while a generation is in flight");
        self.reports
            .iter()
            // Safety: idle() means every worker acked; the Acquire in
            // idle() ordered their report writes before these reads,
            // and no worker writes again until the next publish.
            .map(|c| c.with_mut(|p| unsafe { (*p).take() }))
            .collect()
    }
}

#[cfg(all(test, not(feature = "fec_check")))]
mod tests {
    use super::*;

    #[test]
    fn generations_reuse_winner_and_stop() {
        let g: Gate<u32, u32> = Gate::new(2);
        assert!(g.idle());
        g.publish(7);
        assert!(!g.idle());
        assert_eq!(g.poll(0), Some(1));
        assert_eq!(g.poll(1), None, "same generation polls as unchanged");
        assert_eq!(g.with_job(|j| *j), 7);
        assert_eq!(g.winner(), None);
        assert!(!g.stop_requested());
        assert!(g.try_win(1));
        assert!(!g.try_win(0), "second claim must lose");
        assert!(g.stop_requested());
        assert!(g.stop_handle().load(Ordering::Relaxed));
        g.submit(0, 10);
        g.submit(1, 11);
        assert!(g.idle());
        assert_eq!(g.take_reports(), vec![Some(10), Some(11)]);
        assert_eq!(g.winner(), Some(1));

        // second generation: fresh election over the same slots
        g.publish(8);
        assert_eq!(g.poll(1), Some(2));
        assert!(!g.stop_requested(), "stop flag reset on publish");
        assert_eq!(g.winner(), None, "winner slot reset on publish");
        assert!(g.try_win(0));
        g.submit(0, 20);
        g.submit(1, 21);
        assert_eq!(g.take_reports(), vec![Some(20), Some(21)]);
        assert_eq!(g.winner(), Some(0));
    }

    #[test]
    fn concurrent_claims_elect_one() {
        let g: std::sync::Arc<Gate<u32, u32>> = std::sync::Arc::new(Gate::new(8));
        g.publish(0);
        let wins: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let g = std::sync::Arc::clone(&g);
                    s.spawn(move || g.try_win(i))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(wins.iter().filter(|&&w| w).count(), 1);
        let w = g.winner().unwrap();
        assert!(wins[w]);
        assert!(g.stop_requested());
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn publish_while_in_flight_panics() {
        let g: Gate<u32, u32> = Gate::new(1);
        g.publish(1);
        g.publish(2);
    }

    #[test]
    fn threaded_session_across_three_generations() {
        let g: std::sync::Arc<Gate<u32, u32>> = std::sync::Arc::new(Gate::new(4));
        std::thread::scope(|s| {
            for w in 0..4 {
                let g = std::sync::Arc::clone(&g);
                s.spawn(move || {
                    let mut last = 0;
                    loop {
                        let Some(seen) = g.poll(last) else {
                            std::thread::yield_now();
                            continue;
                        };
                        last = seen;
                        let job = g.with_job(|j| *j);
                        if job == u32::MAX {
                            g.submit(w, 0);
                            break;
                        }
                        g.try_win(w);
                        g.submit(w, job + w as u32);
                    }
                });
            }
            for gen in 0..3u32 {
                while !g.idle() {
                    std::thread::yield_now();
                }
                g.publish(100 * gen);
                while !g.idle() {
                    std::thread::yield_now();
                }
                let reports = g.take_reports();
                for (w, r) in reports.iter().enumerate() {
                    assert_eq!(*r, Some(100 * gen + w as u32));
                }
                assert!(g.winner().is_some());
            }
            while !g.idle() {
                std::thread::yield_now();
            }
            g.publish(u32::MAX);
        });
    }
}
