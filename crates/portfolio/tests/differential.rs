//! Differential validation of the warm [`Pool`] against the reference
//! DPLL oracle, plus determinism and proof-certification checks — on
//! one-off queries (a fresh pool's first solve) and on incremental
//! sessions.

// the pool is compiled out under the model-checking feature
#![cfg(not(feature = "fec_check"))]

use fec_portfolio::{Pool, PoolOutcome, PortfolioConfig};
use fec_sat::{reference, Budget, Lit, SolveResult, SolverStats, Var};

/// Deterministic xorshift64* for instance generation (no external
/// randomness: the 200 instances are the same on every run).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One-off query: a fresh pool's first solve over the whole formula.
fn solve_fresh(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    assumptions: &[Lit],
    budget: Budget,
    config: &PortfolioConfig,
) -> PoolOutcome {
    Pool::new(config).solve(num_vars, clauses.to_vec(), assumptions.to_vec(), budget)
}

/// A random CNF over `num_vars` variables: `num_clauses` clauses of
/// width 2–4 with distinct variables per clause and random polarities.
fn random_cnf(rng: &mut Rng, num_vars: usize, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            let width = 2 + rng.below(3) as usize;
            let mut vars = Vec::with_capacity(width);
            while vars.len() < width.min(num_vars) {
                let v = rng.below(num_vars as u64) as usize;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::with_sign(Var::from_index(v), rng.below(2) == 0))
                .collect()
        })
        .collect()
}

#[test]
fn portfolio_matches_reference_on_200_random_cnfs() {
    let mut rng = Rng(0x5EED_CAFE);
    let config = PortfolioConfig {
        certify: true,
        ..PortfolioConfig::with_jobs(4)
    };
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for instance in 0..200 {
        let num_vars = 6 + rng.below(12) as usize;
        // clause/variable ratio around the 3-SAT phase transition, so
        // both verdicts occur often
        let num_clauses = (num_vars as f64 * 3.8) as usize;
        let clauses = random_cnf(&mut rng, num_vars, num_clauses);
        let expected = reference::solve(num_vars, &clauses);
        let out = solve_fresh(num_vars, &clauses, &[], Budget::unlimited(), &config);
        match (&expected, out.result) {
            (Some(_), SolveResult::Sat) => {
                sat_seen += 1;
                // the portfolio's model must satisfy every clause
                let model: Vec<bool> = (0..num_vars)
                    .map(|v| out.value(Var::from_index(v)).unwrap_or(false))
                    .collect();
                assert!(
                    reference::check_model(&clauses, &model),
                    "instance {instance}: winning model does not satisfy the formula"
                );
            }
            (None, SolveResult::Unsat) => {
                unsat_seen += 1;
                // the winning worker's proof must certify the
                // refutation stand-alone: on a fresh pool its first
                // segment is its whole stream, inputs included
                let winner = out.stats.winner.expect("UNSAT has a winner");
                let steps = &out.proof_segments[winner];
                assert!(
                    !steps.is_empty(),
                    "certifying pool returns the winner's proof"
                );
                let mut checker = fec_drat::Checker::new();
                checker
                    .process_all(steps)
                    .unwrap_or_else(|e| panic!("instance {instance}: proof rejected: {e}"));
                assert!(
                    checker.is_refuted() || checker.is_rup(&[]),
                    "instance {instance}: proof does not refute the formula"
                );
            }
            (e, r) => panic!("instance {instance}: reference {e:?} but portfolio {r:?}"),
        }
        assert_eq!(out.stats.workers.len(), 4);
        assert!(out.stats.winner.is_some());
    }
    // the generator must exercise both verdicts heavily
    assert!(sat_seen >= 30, "only {sat_seen} SAT instances");
    assert!(unsat_seen >= 30, "only {unsat_seen} UNSAT instances");
}

#[test]
fn deterministic_mode_reproduces_winner_and_stats() {
    let mut rng = Rng(0xD37E_2217);
    let config = PortfolioConfig {
        deterministic: true,
        det_slice_conflicts: 50,
        seed: 7,
        ..PortfolioConfig::with_jobs(4)
    };
    for _ in 0..10 {
        let num_vars = 10 + rng.below(8) as usize;
        let clauses = random_cnf(&mut rng, num_vars, (num_vars as f64 * 4.0) as usize);
        let a = solve_fresh(num_vars, &clauses, &[], Budget::unlimited(), &config);
        let b = solve_fresh(num_vars, &clauses, &[], Budget::unlimited(), &config);
        assert_eq!(a.result, b.result);
        assert_eq!(a.stats.winner, b.stats.winner);
        assert_eq!(a.model, b.model);
        for (wa, wb) in a.stats.workers.iter().zip(&b.stats.workers) {
            assert_eq!(wa.conflicts, wb.conflicts);
            assert_eq!(wa.propagations, wb.propagations);
            assert_eq!(wa.decisions, wb.decisions);
            assert_eq!(wa.imported_clauses, wb.imported_clauses);
        }
    }
}

/// One query's complete observable surface: verdict, winner, model,
/// shipped-clause counter, and every per-worker statistics delta.
type QueryFingerprint = (
    SolveResult,
    Option<usize>,
    Option<Vec<Option<bool>>>,
    u64,
    Vec<SolverStats>,
);

/// Runs one fixed warm-pool session — an incremental CEGIS-shaped
/// workload of loads, clause-delta solves, and assumption-only solves
/// over deterministic random CNFs — and fingerprints every query.
fn deterministic_pool_session(config: &PortfolioConfig) -> Vec<QueryFingerprint> {
    let mut rng = Rng(0x1C0F_FEE5);
    let mut pool = Pool::new(config);
    let mut fingerprints = Vec::new();
    let num_vars = 12;
    // a satisfiable-ish base load, then five rounds of delta + solve
    pool.load(num_vars, random_cnf(&mut rng, num_vars, 20));
    for round in 0..5 {
        let delta = random_cnf(&mut rng, num_vars, 6);
        let assumptions = if round % 2 == 1 {
            vec![Lit::with_sign(
                Var::from_index(rng.below(num_vars as u64) as usize),
                rng.below(2) == 0,
            )]
        } else {
            Vec::new()
        };
        let out = pool.solve(num_vars, delta, assumptions, Budget::unlimited());
        fingerprints.push((
            out.result,
            out.stats.winner,
            out.model.clone(),
            out.stats.shipped_clauses,
            out.stats.workers.clone(),
        ));
        if out.result == SolveResult::Unsat && out.failed_assumptions.is_empty() {
            break; // formula refuted outright; later queries are moot
        }
    }
    fingerprints
}

#[test]
fn warm_pool_deterministic_mode_is_bit_identical_across_runs() {
    // three independent pools, same seed ⇒ the same winners, models,
    // shipped-clause counters, and per-worker stats deltas, query by
    // query — the reproducibility contract the CI determinism job pins
    let config = PortfolioConfig {
        deterministic: true,
        det_slice_conflicts: 50,
        seed: 11,
        ..PortfolioConfig::with_jobs(3)
    };
    let runs: Vec<_> = (0..3)
        .map(|_| deterministic_pool_session(&config))
        .collect();
    assert!(!runs[0].is_empty());
    assert_eq!(runs[0], runs[1], "run 2 diverged from run 1");
    assert_eq!(runs[0], runs[2], "run 3 diverged from run 1");
}

#[test]
fn warm_pool_matches_reference_on_incremental_sessions() {
    // 30 sessions × 4 growing queries: at every step the warm pool's
    // verdict must match the reference oracle solving the accumulated
    // formula from scratch, and SAT models must satisfy every clause
    let mut rng = Rng(0xF001_FEC2);
    let config = PortfolioConfig::with_jobs(2);
    for session in 0..30 {
        let num_vars = 6 + rng.below(8) as usize;
        let mut pool = Pool::new(&config);
        let mut accumulated: Vec<Vec<Lit>> = Vec::new();
        for step in 0..4 {
            let width = 4 + rng.below(6) as usize;
            let delta = random_cnf(&mut rng, num_vars, width);
            accumulated.extend(delta.iter().cloned());
            let expected = reference::solve(num_vars, &accumulated).is_some();
            let out = pool.solve(num_vars, delta, Vec::new(), Budget::unlimited());
            match out.result {
                SolveResult::Sat => {
                    assert!(expected, "session {session} step {step}: false SAT");
                    let model: Vec<bool> = (0..num_vars)
                        .map(|v| out.value(Var::from_index(v)).unwrap_or(false))
                        .collect();
                    assert!(
                        reference::check_model(&accumulated, &model),
                        "session {session} step {step}: warm model violates a clause"
                    );
                }
                SolveResult::Unsat => {
                    assert!(!expected, "session {session} step {step}: false UNSAT");
                    break; // monotone: stays UNSAT forever
                }
                SolveResult::Unknown => panic!("session {session} step {step}: Unknown"),
            }
        }
    }
}

#[test]
fn deterministic_mode_agrees_with_reference() {
    let mut rng = Rng(0xBEEF_0001);
    let config = PortfolioConfig {
        deterministic: true,
        det_slice_conflicts: 20,
        ..PortfolioConfig::with_jobs(3)
    };
    for instance in 0..40 {
        let num_vars = 6 + rng.below(10) as usize;
        let clauses = random_cnf(&mut rng, num_vars, (num_vars as f64 * 3.8) as usize);
        let expected = reference::solve(num_vars, &clauses).is_some();
        let out = solve_fresh(num_vars, &clauses, &[], Budget::unlimited(), &config);
        let got = match out.result {
            SolveResult::Sat => true,
            SolveResult::Unsat => false,
            SolveResult::Unknown => panic!("instance {instance}: unexpected Unknown"),
        };
        assert_eq!(got, expected, "instance {instance}");
    }
}

#[test]
fn failed_assumptions_from_the_winner() {
    // x0 ∧ (¬x0 ∨ x1) with assumption ¬x1 is UNSAT; the failed subset
    // must mention the assumption ¬x1
    let v = |i| Var::from_index(i);
    let clauses = vec![vec![Lit::pos(v(0))], vec![Lit::neg(v(0)), Lit::pos(v(1))]];
    let out = solve_fresh(
        2,
        &clauses,
        &[Lit::neg(v(1))],
        Budget::unlimited(),
        &PortfolioConfig::with_jobs(4),
    );
    assert_eq!(out.result, SolveResult::Unsat);
    assert!(
        out.failed_assumptions.contains(&Lit::neg(v(1))),
        "failed set {:?}",
        out.failed_assumptions
    );
    // dropping the assumption makes it satisfiable again
    let out = solve_fresh(
        2,
        &clauses,
        &[],
        Budget::unlimited(),
        &PortfolioConfig::with_jobs(4),
    );
    assert_eq!(out.result, SolveResult::Sat);
    assert_eq!(out.value(v(0)), Some(true));
    assert_eq!(out.value(v(1)), Some(true));
}

#[test]
fn budget_exhaustion_returns_unknown() {
    // a hard pigeonhole instance with a 1-conflict budget cannot finish
    let (num_vars, clauses) = pigeonhole(8, 7);
    let out = solve_fresh(
        num_vars,
        &clauses,
        &[],
        Budget {
            max_conflicts: 1,
            timeout: None,
        },
        &PortfolioConfig::with_jobs(4),
    );
    assert_eq!(out.result, SolveResult::Unknown);
    assert!(out.stats.winner.is_none());
    assert!(out.model.is_none());
}

#[test]
fn clause_sharing_is_observed_on_hard_unsat() {
    // pigeonhole generates many low-LBD clauses; with 4 workers some
    // imports should occur (not guaranteed per-worker, but across the
    // portfolio on an instance this hard it always happens in practice)
    let (num_vars, clauses) = pigeonhole(9, 8);
    let out = solve_fresh(
        num_vars,
        &clauses,
        &[],
        Budget::unlimited(),
        &PortfolioConfig::with_jobs(4),
    );
    assert_eq!(out.result, SolveResult::Unsat);
    assert!(
        out.stats.total.exported_clauses > 0,
        "no clauses exported: {:?}",
        out.stats.total
    );
}

/// PHP(n, m): n pigeons into m holes — UNSAT when n > m.
fn pigeonhole(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>) {
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    (pigeons * holes, clauses)
}
