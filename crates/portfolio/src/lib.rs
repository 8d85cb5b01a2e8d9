//! Parallel portfolio SAT solving.
//!
//! Races N diversified `fec-sat` CDCL workers over the same CNF: each
//! worker gets a distinct [`fec_sat::SolverConfig`] (restart schedule,
//! VSIDS decay, initial phases, seeded tie-breaking), workers exchange
//! low-LBD learned clauses through bounded lock-free SPSC rings, and the
//! first worker to reach a verdict cancels the rest through an atomic
//! stop flag checked inside their propagation loops.
//!
//! One engine, [`Pool`], answers every query; a one-off solve is a
//! fresh pool's first query. It has three execution modes:
//!
//! - `jobs == 1` — no threads, no rings; behaves exactly like a plain
//!   `Solver` with the default config.
//! - racing (default for `jobs > 1`) — one resident OS thread per
//!   worker, first-to-finish wins each query.
//! - [`PortfolioConfig::deterministic`] — the same workers run
//!   cooperatively on the calling thread in fixed round-robin conflict
//!   slices with synchronous sharing epochs: same seed ⇒ same winner
//!   and bit-for-bit identical statistics, for reproducible CI.
//!
//! # Certification
//!
//! With [`PortfolioConfig::certify`], every worker logs a DRAT stream
//! and each query returns every worker's segment of it. Clause sharing
//! would normally break proof self-containedness — an imported clause
//! is a consequence of the shared formula but not necessarily
//! derivable by unit propagation from the importer's own database — so
//! under proof logging the solver RUP-filters every import (see
//! `Solver::set_import_hook`): a shared clause is admitted only if
//! reverse unit propagation over the importer's live database derives
//! it, and is then logged as an ordinary learned clause. The winner's
//! stitched segments therefore check stand-alone with `fec-drat`.
//!
//! See [`Pool`] for a worked example.
//!
//! # Model checking the lock-free core
//!
//! The SPSC sharing ring and the pool's job gate (with its per-query
//! winner election) are hand-written lock-free code; their correctness
//! is *model-checked*, not just example-tested. With
//! `--features fec_check` the `ring` and `gate` modules compile against
//! the `fec-check` shims (swapped in by the private `sync` module) and
//! `tests/model.rs` exhaustively explores their thread interleavings —
//! including mutation tests proving a downgraded memory ordering is
//! caught as a data race. The pool itself is compiled out under that
//! feature (real solver threads cannot run inside a model); normal
//! builds pay zero cost.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod gate;
#[cfg(not(feature = "fec_check"))]
mod pool;
mod ring;
mod sync;

pub use gate::Gate;
#[cfg(not(feature = "fec_check"))]
pub use pool::{Pool, PoolOutcome, PortfolioStats};
pub use ring::{spsc, Consumer, Producer};

use fec_sat::{PhaseInit, RestartPolicy, SimplifyConfig, SolverConfig};

/// Portfolio-level configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PortfolioConfig {
    /// Number of workers. `1` means plain single-threaded solving.
    pub jobs: usize,
    /// Run workers in fixed round-robin conflict slices on the calling
    /// thread instead of racing threads: reproducible, but no parallel
    /// speedup.
    pub deterministic: bool,
    /// Conflicts per worker slice in deterministic mode.
    pub det_slice_conflicts: u64,
    /// Base seed; worker `i` derives its own seed from it.
    pub seed: u64,
    /// Log a DRAT stream in every worker and return per-query segments.
    pub certify: bool,
    /// Enable the SatELite-style pre-/inprocessing pipeline in the
    /// workers, *diversified* per worker (see [`diversify_simplify`]):
    /// different workers run different technique mixes, so the
    /// portfolio hedges across simplifier behaviours the same way it
    /// hedges across restart schedules.
    pub simplify: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            jobs: 1,
            deterministic: false,
            det_slice_conflicts: 2000,
            seed: 0,
            certify: false,
            simplify: false,
        }
    }
}

impl PortfolioConfig {
    /// Default configuration with `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        PortfolioConfig {
            jobs: jobs.max(1),
            ..PortfolioConfig::default()
        }
    }
}

/// The diversification schedule: the solver configuration of worker
/// `worker` under base seed `seed`.
///
/// Worker 0 always runs the stock default configuration, so a 1-job
/// portfolio is exactly the plain solver. Workers 1.. cycle through six
/// hand-picked heuristic mixes (restart cadence × decay × phase
/// polarity × tie-break randomization) with per-worker seeds, repeating
/// with different seeds past worker 6 — more workers never repeat an
/// identical search.
pub fn diversify(worker: usize, seed: u64) -> SolverConfig {
    // distinct, deterministic per-worker seed (splitmix-style mixing)
    let wseed =
        (seed ^ (worker as u64).wrapping_mul(0x9E3779B97F4A7C15)).wrapping_add(0xD1B54A32D192ED03);
    if worker == 0 {
        return SolverConfig {
            seed: wseed,
            ..SolverConfig::default()
        };
    }
    let base = SolverConfig {
        seed: wseed,
        ..SolverConfig::default()
    };
    match (worker - 1) % 6 {
        0 => SolverConfig {
            // deep dives: slow geometric restarts
            restart: RestartPolicy::Geometric {
                base: 100,
                factor: 1.5,
            },
            ..base
        },
        1 => SolverConfig {
            // aggressive focus on recent conflicts, opposite polarity
            var_decay: 0.90,
            phase_init: PhaseInit::AllTrue,
            ..base
        },
        2 => SolverConfig {
            // slow decay (broad activity memory), randomized everything
            var_decay: 0.99,
            restart: RestartPolicy::Geometric {
                base: 128,
                factor: 1.3,
            },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
        3 => SolverConfig {
            // lazy Luby with random phases
            restart: RestartPolicy::Luby { base: 256 },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
        4 => SolverConfig {
            // doubling geometric, shuffled branching order
            var_decay: 0.97,
            restart: RestartPolicy::Geometric {
                base: 100,
                factor: 2.0,
            },
            randomize_order: true,
            ..base
        },
        _ => SolverConfig {
            // rapid Luby with very aggressive decay
            var_decay: 0.85,
            restart: RestartPolicy::Luby { base: 50 },
            phase_init: PhaseInit::Random,
            randomize_order: true,
            ..base
        },
    }
}

/// The simplifier diversification schedule: the [`SimplifyConfig`] of
/// worker `worker` when [`PortfolioConfig::simplify`] is set.
///
/// Worker 0 runs the stock `SimplifyConfig::on()` pipeline (so a 1-job
/// simplifying portfolio is exactly the plain simplifying solver);
/// workers 1.. cycle through four technique mixes so that a formula
/// pathological for one technique (e.g. BVE blow-up on XOR chains) is
/// still simplified productively by some peer:
///
/// 1. elimination-focused: BVE + subsumption only, no probing/vivification
/// 2. propagation-focused: probing + vivification only, no BVE
/// 3. aggressive: everything, tight inprocessing cadence, more growth
/// 4. preprocessing only: one full pass up front, never inprocess
pub fn diversify_simplify(worker: usize) -> SimplifyConfig {
    if worker == 0 {
        return SimplifyConfig::on();
    }
    let base = SimplifyConfig::on();
    match (worker - 1) % 4 {
        0 => SimplifyConfig {
            probe: false,
            vivify: false,
            ..base
        },
        1 => SimplifyConfig {
            bve: false,
            subsume: true,
            ..base
        },
        2 => SimplifyConfig {
            inprocess_interval: 5,
            bve_grow: 8,
            bve_clause_limit: 32,
            probe_budget: 8_000,
            vivify_budget: 2_000,
            ..base
        },
        _ => SimplifyConfig {
            inprocess_interval: 0,
            ..base
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_zero_is_stock_config() {
        let c = diversify(0, 7);
        let d = SolverConfig::default();
        assert_eq!(c.var_decay, d.var_decay);
        assert_eq!(c.restart, d.restart);
        assert_eq!(c.phase_init, d.phase_init);
        assert!(!c.randomize_order);
    }

    #[test]
    fn diversification_is_distinct_and_deterministic() {
        let configs: Vec<SolverConfig> = (0..8).map(|i| diversify(i, 42)).collect();
        // deterministic
        for (i, c) in configs.iter().enumerate() {
            assert_eq!(*c, diversify(i, 42));
        }
        // pairwise distinct (seeds differ even when knobs repeat)
        for i in 0..configs.len() {
            for j in i + 1..configs.len() {
                assert_ne!(configs[i], configs[j], "workers {i} and {j} identical");
            }
        }
        // a different base seed changes every worker
        for i in 0..8 {
            assert_ne!(diversify(i, 42).seed, diversify(i, 43).seed);
        }
    }

    #[test]
    fn simplify_diversification() {
        // worker 0 is the stock full pipeline
        assert_eq!(diversify_simplify(0), SimplifyConfig::on());
        // every mix actually simplifies
        for w in 0..8 {
            assert!(diversify_simplify(w).enabled(), "worker {w} mix inert");
        }
        // the four mixes are pairwise distinct and then repeat
        let mixes: Vec<SimplifyConfig> = (1..5).map(diversify_simplify).collect();
        for i in 0..mixes.len() {
            for j in i + 1..mixes.len() {
                assert_ne!(mixes[i], mixes[j], "mixes {i} and {j} identical");
            }
        }
        assert_eq!(diversify_simplify(5), diversify_simplify(1));
        // the elimination-focused mix really drops probing/vivification
        let elim = diversify_simplify(1);
        assert!(elim.bve && elim.subsume && !elim.probe && !elim.vivify);
        // the propagation-focused mix really drops BVE
        assert!(!diversify_simplify(2).bve);
        // and the preprocess-only mix never inprocesses
        let pre = diversify_simplify(4);
        assert!(pre.preprocess && pre.inprocess_interval == 0);
        // off by default at the portfolio level
        assert!(!PortfolioConfig::default().simplify);
    }

    #[test]
    fn default_config() {
        let c = PortfolioConfig::default();
        assert_eq!(c.jobs, 1);
        assert!(!c.deterministic);
        assert!(!c.certify);
        assert_eq!(PortfolioConfig::with_jobs(0).jobs, 1);
        assert_eq!(PortfolioConfig::with_jobs(4).jobs, 4);
    }
}
