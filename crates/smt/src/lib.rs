//! Finite-domain theory layer over the `fec-sat` CDCL core.
//!
//! The paper encodes generator synthesis in Z3's QF_UFLRA; every one of
//! its formulas, however, ranges over *bounded* domains fixed by the
//! user constants `L_G`, `L_d`, `L_c`, `L_w` (§3.2). This crate provides
//! the machinery to express those formulas directly over booleans:
//!
//! - [`SmtSolver`]: incremental solver with `push`/`pop` scopes
//!   (implemented with activation literals, so learnt clauses survive
//!   pops soundly), fresh variables, and budgeted solving;
//! - boolean gadgets (Tseitin `and`/`or`/`xor`/`ite`/`iff`);
//! - cardinality constraints (totalizer and sequential-counter
//!   encodings — the encoding choice is an ablation axis, see
//!   `fec-bench/benches/card_ablation.rs`);
//! - [`UnaryInt`]: small bounded integers in monotone unary encoding
//!   (used for symbolic check-bit counts `len_c`).
//!
//! # Example: at most 2 of 4 flags
//!
//! ```
//! use fec_smt::{SmtSolver, SmtResult};
//!
//! let mut s = SmtSolver::new();
//! let xs: Vec<_> = (0..4).map(|_| s.fresh_lit()).collect();
//! s.at_most_k(&xs, 2);
//! s.add_clause(&[xs[0]]);
//! s.add_clause(&[xs[1]]);
//! s.add_clause(&[xs[2]]);
//! assert_eq!(s.solve(&[]), SmtResult::Unsat);
//! ```

#![forbid(unsafe_code)]

mod card;
mod gadgets;
mod int;
mod solver;

pub use card::CardEncoding;
pub use int::UnaryInt;
pub use solver::{CertificateStats, SmtResult, SmtSolver, SolveBackend};

pub use fec_portfolio::{PortfolioConfig, PortfolioStats};
pub use fec_sat::{Budget, Lit, Var};
