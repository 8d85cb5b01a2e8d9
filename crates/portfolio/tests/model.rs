//! Model-checking the portfolio's lock-free core with `fec-check`.
//!
//! Compiled only with `--features fec_check`, which swaps the `std`
//! primitives inside `ring.rs` and `gate.rs` for the checker's
//! instrumented shims — the code under test here is the *production*
//! ring and pool gate (with its winner election), not a copy. Each
//! test explores every thread interleaving within the preemption bound
//! and fails on any data race, assertion violation, deadlock, or
//! livelock, printing the offending schedule.
//!
//! The `mutation` module proves the checker has teeth: a one-slot
//! replica of the ring's publication protocol, with the orderings as
//! parameters, must pass with `Release`/`Acquire` and be *reported as
//! a race* with either side downgraded to `Relaxed` — the exact bug a
//! refactor could silently introduce and example-based tests on x86
//! would essentially never catch.

#![cfg(feature = "fec_check")]

use fec_check::{explore, CheckError, Config};
use fec_portfolio::{spsc, Gate};
use std::sync::Arc;

/// Exploration budget for the ring models. The schedule cap makes an
/// interleaving explosion a loud failure instead of a CI hang; tests
/// log the count so growth is visible in CI output.
fn cfg(preemptions: usize) -> Config {
    Config {
        preemptions,
        max_schedules: 150_000,
        ..Config::default()
    }
}

// ---------------------------------------------------------------- ring

#[test]
fn spsc_handoff_exhaustive() {
    // two pushes racing two pops (plus a post-join drain) through a
    // capacity-2 ring: every interleaving must be race-free, FIFO, and
    // lose nothing (the ring never fills here)
    let report = explore(&cfg(2), || {
        let (p, c) = spsc::<u32>(2);
        let producer = fec_check::thread::spawn(move || {
            assert!(p.push(1), "2 pushes into capacity 2 cannot drop");
            assert!(p.push(2));
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            got.extend(c.pop());
        }
        producer.join();
        got.extend(c.drain());
        assert_eq!(got, vec![1, 2], "FIFO, nothing lost");
    })
    .expect("SPSC handoff must be race-free");
    eprintln!(
        "spsc_handoff_exhaustive: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

#[test]
fn spsc_wraparound_and_full_ring_exhaustive() {
    // four pushes through a capacity-2 ring force index wraparound and
    // (on schedules where the consumer lags) full-ring drops; the
    // received values must always be a strictly increasing subsequence
    // and exactly the non-dropped pushes must arrive
    let report = explore(&cfg(2), || {
        let (p, c) = spsc::<u32>(2);
        let producer = fec_check::thread::spawn(move || {
            let mut sent = 0u32;
            for i in 0..4 {
                if p.push(i) {
                    sent += 1;
                }
            }
            sent
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend(c.pop());
        }
        let sent = producer.join();
        got.extend(c.drain());
        assert_eq!(got.len() as u32, sent, "every accepted push arrives");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "received subsequence keeps FIFO order: {got:?}"
        );
    })
    .expect("wraparound under concurrency must be race-free");
    eprintln!(
        "spsc_wraparound: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

#[test]
fn spsc_minimum_capacity_exhaustive() {
    // capacity request 1 rounds up to the minimum of 2; the tightest
    // ring gets the most slot reuse per op, so hammer it
    let report = explore(&cfg(3), || {
        let (p, c) = spsc::<u32>(1);
        let producer = fec_check::thread::spawn(move || {
            let a = p.push(10);
            let b = p.push(20);
            (a, b)
        });
        let first = c.pop();
        let (a, b) = producer.join();
        assert!(a && b, "2 pushes fit the rounded-up capacity");
        let mut got: Vec<u32> = first.into_iter().collect();
        got.extend(c.drain());
        assert_eq!(got, vec![10, 20]);
    })
    .expect("minimum-capacity ring must be race-free");
    eprintln!(
        "spsc_minimum_capacity: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

// ------------------------------------------------------------ election

#[test]
fn winner_election_exhaustive() {
    // one published generation, three workers racing to finish: exactly
    // one may win, the stop flag must be up afterwards, and the
    // recorded winner must be a worker that actually reported a win
    let report = explore(&cfg(3), || {
        let election: Arc<Gate<u32, u32>> = Arc::new(Gate::new(3));
        election.publish(0);
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let e = Arc::clone(&election);
                fec_check::thread::spawn(move || e.try_win(i))
            })
            .collect();
        let wins: Vec<bool> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one worker wins: {wins:?}"
        );
        let w = election.winner().expect("a winner must be recorded");
        assert!(wins[w], "recorded winner {w} must have won its CAS");
        assert!(
            election.stop_requested(),
            "the winner must raise the stop flag before returning"
        );
    })
    .expect("winner election must be race-free");
    eprintln!(
        "winner_election: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

#[test]
fn election_publishes_winner_report() {
    // the winner writes its report (modeled as an UnsafeCell) *before*
    // try_win; any thread that subsequently observes stop_requested()
    // may read it. This pins the AcqRel CAS + Release store to an
    // actual data-publication obligation, not just flag semantics.
    let report = explore(&cfg(2), || {
        let election: Arc<Gate<u32, u32>> = Arc::new(Gate::new(1));
        election.publish(0);
        let answer = Arc::new(fec_check::cell::UnsafeCell::new(0u32));
        let (e, a) = (Arc::clone(&election), Arc::clone(&answer));
        let worker = fec_check::thread::spawn(move || {
            a.with_mut(|p| unsafe { *p = 42 });
            assert!(e.try_win(0));
        });
        if election.stop_requested() {
            let v = answer.with(|p| unsafe { *p });
            assert_eq!(v, 42, "observing stop must imply seeing the answer");
        }
        worker.join();
    })
    .expect("winner publication must be race-free");
    eprintln!(
        "election_publishes_report: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

// ----------------------------------------------------- warm-pool gate

#[test]
fn pool_gate_handoff_reuse_and_teardown_exhaustive() {
    // the warm pool's whole lifecycle on the *production* Gate: a
    // published generation raced by two workers, slot reuse for a
    // second generation after a win (winner + stop flag reset at
    // publish), and a final teardown generation. The coordinator reads
    // the report slots through the acks Acquire edge *without joining
    // first* whenever a schedule allows it — that unjoined read is
    // exactly what the pool's wait_idle relies on.
    let report = explore(&cfg(2), || {
        let gate: Arc<Gate<u32, u32>> = Arc::new(Gate::new(2));

        // generation 1: publication + election
        gate.publish(10);
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let g = Arc::clone(&gate);
                fec_check::thread::spawn(move || {
                    let gen = g.poll(0).expect("published before spawn");
                    assert_eq!(gen, 1);
                    let job = g.with_job(|j| *j);
                    assert_eq!(job, 10, "payload published with the generation");
                    let won = g.try_win(w as usize);
                    g.submit(w as usize, job + w);
                    won
                })
            })
            .collect();
        let early = gate.idle();
        if early {
            // both acks observed before any join: the Release
            // fetch_adds alone must make the report writes readable
            assert_eq!(gate.take_reports(), vec![Some(10), Some(11)]);
        }
        let wins: Vec<bool> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "one winner: {wins:?}"
        );
        assert!(gate.stop_requested(), "winner raised the stop flag");
        assert!(gate.idle());
        if !early {
            assert_eq!(gate.take_reports(), vec![Some(10), Some(11)]);
        }

        // generation 2: reuse after a win — publish must reset the
        // election state before any worker sees the new generation
        gate.publish(20);
        assert!(!gate.stop_requested(), "stop flag reset on publish");
        assert_eq!(gate.winner(), None, "winner slot reset on publish");
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let g = Arc::clone(&gate);
                fec_check::thread::spawn(move || {
                    let gen = g.poll(1).expect("second generation visible");
                    assert_eq!(gen, 2);
                    let job = g.with_job(|j| *j);
                    assert_eq!(job, 20, "stale payload must not survive reuse");
                    let won = g.try_win(w as usize);
                    g.submit(w as usize, job + w);
                    won
                })
            })
            .collect();
        let wins: Vec<bool> = handles.into_iter().map(|h| h.join()).collect();
        assert_eq!(wins.iter().filter(|&&w| w).count(), 1, "fresh election");
        assert_eq!(gate.take_reports(), vec![Some(20), Some(21)]);

        // generation 3: teardown — workers ack without touching the
        // payload and exit; the coordinator may then drop the gate
        gate.publish(u32::MAX);
        let handles: Vec<_> = (0..2u32)
            .map(|w| {
                let g = Arc::clone(&gate);
                fec_check::thread::spawn(move || {
                    assert_eq!(g.poll(2), Some(3));
                    g.submit(w as usize, 0);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert!(gate.idle(), "teardown generation fully acknowledged");
    })
    .expect("pool gate lifecycle must be race-free");
    eprintln!(
        "pool_gate_handoff: {} schedules explored (+{} pruned)",
        report.schedules, report.pruned
    );
}

// ---------------------------------------------- mutation tests (teeth)

/// One-slot replica of `ring.rs`'s publication protocol with the
/// producer-side store and consumer-side load orderings as parameters.
/// Mirrors `Producer::push` (slot write, then tail store) and
/// `Consumer::pop` (tail load, then slot take) literally.
mod mutation {
    use fec_check::cell::UnsafeCell;
    use fec_check::sync::atomic::{AtomicUsize, Ordering};
    use fec_check::{explore, CheckError, Report};
    use std::sync::Arc;

    pub fn publication(store_ord: Ordering, load_ord: Ordering) -> Result<Report, CheckError> {
        explore(&super::cfg(2), move || {
            let slot = Arc::new(UnsafeCell::new(None::<u32>));
            let tail = Arc::new(AtomicUsize::new(0));
            let (s, t) = (Arc::clone(&slot), Arc::clone(&tail));
            let producer = fec_check::thread::spawn(move || {
                // push: write the slot, then publish it
                s.with_mut(|p| unsafe { *p = Some(7) });
                t.store(1, store_ord);
            });
            // pop: check publication, then take the slot
            if tail.load(load_ord) == 1 {
                let got = slot.with_mut(|p| unsafe { (*p).take() });
                assert_eq!(got, Some(7), "published slot must hold the item");
            }
            producer.join();
        })
    }
}

#[test]
fn correct_orderings_verify_clean() {
    let report = mutation::publication(
        fec_check::sync::atomic::Ordering::Release,
        fec_check::sync::atomic::Ordering::Acquire,
    )
    .expect("the ring's actual Release/Acquire pair is race-free");
    assert!(report.schedules > 1);
}

#[test]
fn release_store_downgraded_to_relaxed_is_a_race() {
    let err = mutation::publication(
        fec_check::sync::atomic::Ordering::Relaxed, // MUTATION: was Release
        fec_check::sync::atomic::Ordering::Acquire,
    )
    .expect_err("a relaxed publish store must be reported");
    assert!(
        matches!(err, CheckError::Race { .. }),
        "expected a data race, got: {err}"
    );
    eprintln!("detected as required: {err}");
}

#[test]
fn acquire_load_downgraded_to_relaxed_is_a_race() {
    let err = mutation::publication(
        fec_check::sync::atomic::Ordering::Release,
        fec_check::sync::atomic::Ordering::Relaxed, // MUTATION: was Acquire
    )
    .expect_err("a relaxed consume load must be reported");
    assert!(
        matches!(err, CheckError::Race { .. }),
        "expected a data race, got: {err}"
    );
    eprintln!("detected as required: {err}");
}

#[test]
fn head_release_downgraded_to_relaxed_is_a_race() {
    // the second Acquire/Release pair in the ring: the consumer's head
    // store returns slot ownership to the producer for wraparound
    // reuse; downgrade it and the producer's overwrite races the
    // consumer's take
    use fec_check::cell::UnsafeCell;
    use fec_check::sync::atomic::{AtomicUsize, Ordering};

    let run = |head_store: Ordering| {
        explore(&cfg(2), move || {
            let slot = Arc::new(UnsafeCell::new(Some(1u32))); // pre-filled, published
            let head = Arc::new(AtomicUsize::new(0));
            let (s, h) = (Arc::clone(&slot), Arc::clone(&head));
            let consumer = fec_check::thread::spawn(move || {
                let got = s.with_mut(|p| unsafe { (*p).take() });
                assert_eq!(got, Some(1));
                h.store(1, head_store);
            });
            // producer side of push after a full ring: reuse the slot
            // only once the consumer returned it
            if head.load(Ordering::Acquire) == 1 {
                slot.with_mut(|p| unsafe { *p = Some(2) });
            }
            consumer.join();
        })
    };
    run(Ordering::Release).expect("head handback with Release is race-free");
    let err = run(Ordering::Relaxed).expect_err("relaxed head handback must race");
    assert!(matches!(err, CheckError::Race { .. }), "got: {err}");
}

/// One-worker replica of the Gate's ack/reset path with the orderings
/// as parameters. Mirrors `Gate::submit` (report write, then `Release`
/// fetch_add on `acks`) and the coordinator's `idle()`-guarded reuse
/// (`Acquire` load of `acks`, then drain the report slot and overwrite
/// it for the next generation) literally.
mod gate_mutation {
    use fec_check::cell::UnsafeCell;
    use fec_check::sync::atomic::{AtomicUsize, Ordering};
    use fec_check::{explore, CheckError, Report};
    use std::sync::Arc;

    pub fn reset_path(ack_ord: Ordering, idle_ord: Ordering) -> Result<Report, CheckError> {
        explore(&super::cfg(2), move || {
            let report = Arc::new(UnsafeCell::new(None::<u32>));
            let acks = Arc::new(AtomicUsize::new(0));
            let (r, a) = (Arc::clone(&report), Arc::clone(&acks));
            let worker = fec_check::thread::spawn(move || {
                // submit: deposit the report, then acknowledge
                r.with_mut(|p| unsafe { *p = Some(7) });
                a.fetch_add(1, ack_ord);
            });
            // coordinator reset path: once idle, drain the report and
            // reuse the slot for the next generation's publish
            if acks.load(idle_ord) == 1 {
                let got = report.with_mut(|p| unsafe { (*p).take() });
                assert_eq!(got, Some(7), "ack implies the report is visible");
                report.with_mut(|p| unsafe { *p = None }); // slot reused
            }
            worker.join();
        })
    }
}

#[test]
fn gate_reset_path_verifies_clean() {
    let report = gate_mutation::reset_path(
        fec_check::sync::atomic::Ordering::Release,
        fec_check::sync::atomic::Ordering::Acquire,
    )
    .expect("the Gate's actual Release/Acquire ack pair is race-free");
    assert!(report.schedules > 1);
}

#[test]
fn gate_idle_acquire_downgraded_to_relaxed_is_a_race() {
    // the coordinator polls acks with Relaxed instead of Acquire before reusing the report slot — the
    // drain/overwrite now races the worker's report write
    let err = gate_mutation::reset_path(
        fec_check::sync::atomic::Ordering::Release,
        fec_check::sync::atomic::Ordering::Relaxed, // MUTATION: was Acquire
    )
    .expect_err("a relaxed idle poll must be reported");
    assert!(
        matches!(err, CheckError::Race { .. }),
        "expected a data race, got: {err}"
    );
    eprintln!("detected as required: {err}");
}

#[test]
fn gate_ack_release_downgraded_to_relaxed_is_a_race() {
    let err = gate_mutation::reset_path(
        fec_check::sync::atomic::Ordering::Relaxed, // MUTATION: was Release
        fec_check::sync::atomic::Ordering::Acquire,
    )
    .expect_err("a relaxed ack must be reported");
    assert!(
        matches!(err, CheckError::Race { .. }),
        "expected a data race, got: {err}"
    );
    eprintln!("detected as required: {err}");
}
