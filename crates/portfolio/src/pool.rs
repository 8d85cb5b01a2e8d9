//! Resident warm worker pool: the portfolio's solve engine.
//!
//! A [`Pool`] keeps `jobs` diversified CDCL workers alive across an
//! entire solving *session*. Consecutive queries ship only the clause
//! delta since the previous query (the caller's formula is monotone
//! under the activation-literal discipline — retraction is a unit
//! guard clause, also a delta), so every worker keeps its learned
//! clause database, VSIDS activities, phase saving, and previously
//! imported clauses warm from one query to the next. The SPSC sharing
//! mesh is likewise built once and reused: a clause exported during
//! query `q` may be imported during query `q+1`, which is sound for
//! exactly the same reason the warm learned-clause DB is — all
//! workers' formulas grow monotonically and stay identical. A one-off
//! query is simply a fresh pool's first `solve`.
//!
//! Threading model: the coordinator (the thread driving the [`Pool`])
//! publishes jobs through a [`Gate`] and the resident worker threads
//! park between generations. `load` and `inprocess` are
//! *fire-and-forget* — the coordinator returns as soon as the job is
//! published and overlaps its own work (e.g. the CEGIS synthesizer
//! query) with the workers'; `solve` waits for all acknowledgements
//! and collects per-query reports. A worker that panics still
//! acknowledges (with the panic instead of a report, and so does every
//! later generation it sees), so the next `solve` panics on the
//! coordinator instead of waiting forever, and dropping the pool still
//! tears every thread down.
//!
//! Certification: with [`PortfolioConfig::certify`] every worker keeps
//! its `MemoryProofLogger` installed for the pool's lifetime and each
//! `solve` report drains the buffered steps into a per-query *segment*
//! (covering any loads/inprocessing since the previous solve plus this
//! query's derivations). Concatenating worker `i`'s segments in query
//! order reconstructs worker `i`'s complete stand-alone DRAT stream,
//! so a stitching checker upstream (see `fec-smt`) certifies warm
//! answers exactly as it certifies cold ones.
//!
//! In deterministic mode (and for `jobs == 1`) the workers live inline
//! on the calling thread and run in fixed round-robin conflict slices
//! per query — same seed ⇒ bit-identical winners, statistics, and
//! shipped-clause counts across runs, queries, and pool instances.

use crate::gate::Gate;
use crate::ring::{spsc, Consumer, Producer};
use crate::{diversify, diversify_simplify, PortfolioConfig};
use fec_sat::{Budget, Lit, MemoryProofLogger, ProofStep, SolveResult, Solver, SolverStats, Var};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Learned clauses with LBD at most this are shared with peers (glue
/// clauses are the ones worth shipping).
const SHARE_LBD_MAX: u32 = 6;

/// Capacity of each pairwise sharing ring. Full rings drop clauses
/// rather than block the exporter.
const RING_CAPACITY: usize = 2048;

/// A clause in flight between workers: literals plus LBD at export time.
type SharedClause = (Vec<Lit>, u32);

/// Per-worker ends of the sharing mesh: the producers that broadcast a
/// worker's exports to every peer, and the consumers that drain every
/// peer's exports into that worker.
type MeshEnds = (Vec<Producer<SharedClause>>, Vec<Consumer<SharedClause>>);

/// Statistics of one [`Pool::solve`] query.
#[derive(Clone, Debug, Default)]
pub struct PortfolioStats {
    /// Index of the worker that produced the answer (`None` on
    /// `Unknown`).
    pub winner: Option<usize>,
    /// Per-worker search statistics, indexed by worker id: deltas since
    /// each worker's previous solve report, so they cover this query
    /// plus any loads/inprocessing in between.
    pub workers: Vec<SolverStats>,
    /// Field-wise sum over all workers.
    pub total: SolverStats,
    /// Wall-clock time of the whole call.
    pub wall: Duration,
    /// Clauses physically transferred into workers for this query,
    /// summed over workers: only the per-query delta ships — the
    /// O(delta) guarantee the regression tests pin down.
    pub shipped_clauses: u64,
}

/// What the coordinator publishes to the resident workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobKind {
    /// Apply the clause delta, no solving. Fire-and-forget.
    Load,
    /// Apply the delta, then race a solve under the assumptions.
    Solve,
    /// Run one on-demand inprocessing pass (`lits` = frozen literals).
    /// Fire-and-forget: overlaps with coordinator-side work.
    Inprocess,
    /// Tear the pool down.
    Quit,
}

struct Job {
    kind: JobKind,
    /// Total variable count after this job's delta.
    num_vars: usize,
    /// Clause delta since the previous job.
    clauses: Vec<Vec<Lit>>,
    /// `Solve`: assumptions; `Inprocess`: frozen literals.
    lits: Vec<Lit>,
    budget: Budget,
    /// The coordinator thread, unparked after every acknowledgement.
    waker: thread::Thread,
}

/// One worker's share of a solve query. The solver itself is not
/// `Send` (its proof logger may hold an `Rc`), so resident workers are
/// built and dropped inside their threads and only plain data crosses
/// back.
struct WorkerReport {
    result: SolveResult,
    /// Stats delta since this worker's previous solve report.
    stats: SolverStats,
    /// Winner only: the model on `Sat`.
    model: Option<Vec<Option<bool>>>,
    /// Winner only: the failed-assumption subset on `Unsat`.
    failed_assumptions: Vec<Lit>,
    /// The worker's proof segment when certifying.
    proof: Option<Vec<ProofStep>>,
}

/// A resident worker's acknowledgement of one generation: its report,
/// or the panic that left its solver unusable.
type Ack = thread::Result<WorkerReport>;

/// Result of one warm [`Pool::solve`] query.
pub struct PoolOutcome {
    /// The verdict (`Unknown` only if no worker finished in budget).
    pub result: SolveResult,
    /// On `Sat`: the winner's model, indexed by variable.
    pub model: Option<Vec<Option<bool>>>,
    /// On `Unsat` under assumptions: the winner's failed-assumption
    /// subset.
    pub failed_assumptions: Vec<Lit>,
    /// Per-query statistics (see [`PortfolioStats`]).
    pub stats: PortfolioStats,
    /// With [`PortfolioConfig::certify`]: one DRAT segment per worker,
    /// containing everything that worker logged since its previous
    /// solve report. Empty `Vec` per worker when not certifying.
    pub proof_segments: Vec<Vec<ProofStep>>,
}

impl PoolOutcome {
    /// The winner's assignment of `v` (`None` when unassigned or when
    /// the result was not `Sat`).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.as_ref().and_then(|m| m[v.index()])
    }
}

/// A resident warm portfolio: `jobs` diversified workers that persist
/// across queries, fed per-query clause deltas.
///
/// ```
/// use fec_portfolio::{Pool, PortfolioConfig};
/// use fec_sat::{Budget, Lit, SolveResult, Var};
///
/// let v = |i| Var::from_index(i);
/// let clauses = vec![
///     vec![Lit::pos(v(0)), Lit::pos(v(1))],
///     vec![Lit::neg(v(0)), Lit::pos(v(1))],
/// ];
/// let mut pool = Pool::new(&PortfolioConfig::with_jobs(4));
/// let out = pool.solve(2, clauses, Vec::new(), Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Sat);
/// assert_eq!(out.value(v(1)), Some(true));
/// // the next query ships only its delta to the same warm workers
/// let out = pool.solve(2, vec![vec![Lit::neg(v(1))]], Vec::new(), Budget::unlimited());
/// assert_eq!(out.result, SolveResult::Unsat);
/// ```
pub struct Pool {
    inner: PoolInner,
    /// Queries answered so far (drives trace events).
    queries: u64,
}

enum PoolInner {
    /// `jobs == 1` or deterministic mode: workers live on the calling
    /// thread, round-robin conflict slices per query.
    Inline(InlinePool),
    /// Racing mode: resident worker threads coordinated by a [`Gate`].
    Threaded(ThreadedPool),
}

impl Pool {
    /// Builds the pool: workers are constructed (and, in racing mode,
    /// their threads spawned and parked) immediately, with an empty
    /// formula.
    pub fn new(config: &PortfolioConfig) -> Pool {
        let n = config.jobs.max(1);
        let inner = if n == 1 || config.deterministic {
            PoolInner::Inline(InlinePool::new(n, config))
        } else {
            PoolInner::Threaded(ThreadedPool::new(n, config))
        };
        Pool { inner, queries: 0 }
    }

    /// Number of resident workers.
    pub fn jobs(&self) -> usize {
        match &self.inner {
            PoolInner::Inline(p) => p.workers.len(),
            PoolInner::Threaded(p) => p.gate.workers(),
        }
    }

    /// Ships a clause delta to every worker without solving.
    /// Fire-and-forget in racing mode: returns once published.
    pub fn load(&mut self, num_vars: usize, clauses: Vec<Vec<Lit>>) {
        match &mut self.inner {
            PoolInner::Inline(p) => p.load(num_vars, &clauses),
            PoolInner::Threaded(p) => p.publish(Job {
                kind: JobKind::Load,
                num_vars,
                clauses,
                lits: Vec::new(),
                budget: Budget::unlimited(),
                waker: thread::current(),
            }),
        }
    }

    /// Schedules one on-demand inprocessing pass in every worker, with
    /// `frozen` protected from elimination (assumption variables).
    /// Fire-and-forget in racing mode — it overlaps with whatever the
    /// coordinator does next, and the next `solve` waits for it.
    pub fn inprocess(&mut self, frozen: Vec<Lit>) {
        match &mut self.inner {
            PoolInner::Inline(p) => p.inprocess(&frozen),
            PoolInner::Threaded(p) => p.publish(Job {
                kind: JobKind::Inprocess,
                num_vars: 0,
                clauses: Vec::new(),
                lits: frozen,
                budget: Budget::unlimited(),
                waker: thread::current(),
            }),
        }
    }

    /// Ships the clause delta and races the warm workers on the query.
    ///
    /// Every worker receives the full budget; the first worker to reach
    /// a verdict wins the generation's election on the [`Gate`] and the
    /// rest cancel cooperatively inside their propagation loops.
    /// `Unknown` is returned only when *no* worker finished within the
    /// budget.
    ///
    /// # Panics
    ///
    /// If a worker panicked during this query or an earlier one (e.g.
    /// on a clause over a variable beyond `num_vars`).
    pub fn solve(
        &mut self,
        num_vars: usize,
        clauses: Vec<Vec<Lit>>,
        assumptions: Vec<Lit>,
        budget: Budget,
    ) -> PoolOutcome {
        let start = Instant::now();
        let n = self.jobs();
        let shipped = (clauses.len() * n) as u64;
        self.queries += 1;
        let _sp = fec_trace::span!(
            fec_trace::Level::Trace,
            "portfolio.pool.solve",
            "jobs" => n,
            "query" => self.queries,
            "delta_clauses" => clauses.len(),
            "vars" => num_vars,
        );
        let (reports, winner) = match &mut self.inner {
            PoolInner::Inline(p) => p.solve(num_vars, &clauses, &assumptions, budget),
            PoolInner::Threaded(p) => p.solve(Job {
                kind: JobKind::Solve,
                num_vars,
                clauses,
                lits: assumptions,
                budget,
                waker: thread::current(),
            }),
        };
        let out = assemble(reports, winner, shipped, start.elapsed());
        if fec_trace::enabled(fec_trace::Level::Debug) {
            fec_trace::counter!(
                fec_trace::Level::Debug,
                "portfolio.pool.shipped",
                out.stats.shipped_clauses
            );
            fec_trace::event!(
                fec_trace::Level::Debug,
                "portfolio.pool.query",
                "query" => self.queries,
                "result" => match out.result {
                    SolveResult::Sat => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                },
                "winner" => out.stats.winner.map_or(-1i64, |w| w as i64),
                "conflicts" => out.stats.total.conflicts,
                "shipped" => out.stats.shipped_clauses,
                "wall_us" => out.stats.wall.as_micros() as u64,
            );
        }
        out
    }
}

/// Builds worker `i`: its diversified solver, its proof logger when
/// certifying (installed before any clause, so the stream records the
/// whole input formula), and — when it has peers — the export/import
/// hooks onto its ends of the sharing mesh.
fn build_worker(
    i: usize,
    config: &PortfolioConfig,
    (prods, cons): MeshEnds,
) -> (Solver, Option<MemoryProofLogger>) {
    let mut cfg = diversify(i, config.seed);
    if config.simplify {
        cfg.simplify = diversify_simplify(i);
    }
    let mut s = Solver::with_config(cfg);
    let logger = config.certify.then(|| {
        let l = MemoryProofLogger::new();
        s.set_proof_logger(Box::new(l.clone()));
        l
    });
    if !prods.is_empty() {
        s.set_export_hook(
            Box::new(move |lits, lbd| {
                // share-traffic profile: what LBD quality actually
                // crosses the mesh
                fec_trace::hist!(fec_trace::Level::Debug, "portfolio.share.lbd", lbd);
                for p in &prods {
                    p.push((lits.to_vec(), lbd));
                }
            }),
            SHARE_LBD_MAX,
        );
        s.set_import_hook(Box::new(move || {
            let mut batch = Vec::new();
            for c in &cons {
                batch.extend(c.drain());
            }
            observe_import(i, batch.len());
            batch
        }));
    }
    (s, logger)
}

/// Build the full N·(N−1) SPSC ring mesh (one ring per ordered pair of
/// distinct workers) and regroup the ends per worker. With `n` workers
/// the returned vector has `n` entries; entry `i` holds worker `i`'s
/// producers (feeding each peer) and consumers (fed by each peer). A
/// lone worker gets no rings.
fn ring_mesh(n: usize) -> Vec<MeshEnds> {
    let mut producers: Vec<Vec<Producer<SharedClause>>> = (0..n).map(|_| Vec::new()).collect();
    let mut consumers: Vec<Vec<Consumer<SharedClause>>> = (0..n).map(|_| Vec::new()).collect();
    for (i, prods) in producers.iter_mut().enumerate() {
        for (j, cons) in consumers.iter_mut().enumerate() {
            if i != j {
                let (p, c) = spsc(RING_CAPACITY);
                prods.push(p);
                cons.push(c);
            }
        }
    }
    producers.into_iter().zip(consumers).collect()
}

/// Records one import-hook drain for worker `i`: the batch size into
/// the share-traffic histogram and the per-worker backlog gauge (the
/// drain happens at a restart boundary, so the batch size *is* the
/// queue depth that built up since the previous restart).
fn observe_import(i: usize, batch: usize) {
    if fec_trace::enabled(fec_trace::Level::Debug) {
        fec_trace::hist(
            fec_trace::Level::Debug,
            "portfolio.import.batch",
            batch as u64,
        );
        fec_trace::gauge(
            fec_trace::Level::Debug,
            &format!("portfolio.w{i}.queue_depth"),
            batch as i64,
        );
    }
}

/// One `portfolio.worker.done` event per worker with its full effort
/// breakdown — the per-worker view that makes sub-1.0× speedups
/// diagnosable (who burned the conflicts, who idled, who lost the
/// race after how long).
fn emit_worker_done(
    i: usize,
    stats: &SolverStats,
    result: SolveResult,
    won: bool,
    started: Instant,
) {
    fec_trace::event!(
        fec_trace::Level::Debug,
        "portfolio.worker.done",
        "worker" => i,
        "result" => match result {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "cancelled",
        },
        "won" => won,
        "conflicts" => stats.conflicts,
        "propagations" => stats.propagations,
        "restarts" => stats.restarts,
        "exported" => stats.exported_clauses,
        "imported" => stats.imported_clauses,
        "rejected" => stats.rejected_clauses,
        "elapsed_us" => started.elapsed().as_micros() as u64,
    );
}

/// One worker's report for a solve query: the per-query `stats` delta
/// and `proof` segment as given, plus — for the winner only — the
/// model or failed-assumption subset read off the finished solver.
fn report(
    s: &Solver,
    result: SolveResult,
    won: bool,
    num_vars: usize,
    stats: SolverStats,
    proof: Option<Vec<ProofStep>>,
) -> WorkerReport {
    let model = (won && result == SolveResult::Sat)
        .then(|| (0..num_vars).map(|v| s.value(Var::from_index(v))).collect());
    let failed_assumptions = if won && result == SolveResult::Unsat {
        s.failed_assumptions().to_vec()
    } else {
        Vec::new()
    };
    WorkerReport {
        result,
        stats,
        model,
        failed_assumptions,
        proof,
    }
}

/// Grows the variable space and applies the clause delta.
fn apply_delta(s: &mut Solver, num_vars: usize, clauses: &[Vec<Lit>]) {
    while s.num_vars() < num_vars {
        s.new_var();
    }
    for c in clauses {
        if !s.add_clause(c) {
            break; // formula refuted at level 0; solver answers Unsat from here
        }
    }
}

/// Folds per-query worker reports into the outcome. The winner is
/// named explicitly: every report may carry a proof segment, so "has a
/// proof" does not identify it.
fn assemble(
    reports: Vec<WorkerReport>,
    winner: Option<usize>,
    shipped: u64,
    wall: Duration,
) -> PoolOutcome {
    let mut stats = PortfolioStats {
        winner,
        wall,
        shipped_clauses: shipped,
        ..PortfolioStats::default()
    };
    let mut result = SolveResult::Unknown;
    let mut model = None;
    let mut failed = Vec::new();
    let mut segments = Vec::with_capacity(reports.len());
    for (i, r) in reports.into_iter().enumerate() {
        stats.total.merge(&r.stats);
        stats.workers.push(r.stats);
        segments.push(r.proof.unwrap_or_default());
        if Some(i) == winner {
            result = r.result;
            model = r.model;
            failed = r.failed_assumptions;
        }
    }
    PoolOutcome {
        result,
        model,
        failed_assumptions: failed,
        stats,
        proof_segments: segments,
    }
}

// ---------------------------------------------------------------------
// inline (deterministic / single-worker) pool
// ---------------------------------------------------------------------

struct InlinePool {
    workers: Vec<(Solver, Option<MemoryProofLogger>)>,
    /// Per-worker stats cursor: totals already reported by previous
    /// solve calls, so each report is a per-query delta.
    reported: Vec<SolverStats>,
    slice: u64,
}

impl InlinePool {
    fn new(n: usize, config: &PortfolioConfig) -> InlinePool {
        InlinePool {
            workers: ring_mesh(n)
                .into_iter()
                .enumerate()
                .map(|(i, ends)| build_worker(i, config, ends))
                .collect(),
            reported: vec![SolverStats::default(); n],
            slice: config.det_slice_conflicts.max(1),
        }
    }

    fn load(&mut self, num_vars: usize, clauses: &[Vec<Lit>]) {
        for (s, _) in &mut self.workers {
            apply_delta(s, num_vars, clauses);
        }
    }

    fn inprocess(&mut self, frozen: &[Lit]) {
        for (s, _) in &mut self.workers {
            s.preprocess(frozen);
        }
    }

    fn solve(
        &mut self,
        num_vars: usize,
        clauses: &[Vec<Lit>],
        assumptions: &[Lit],
        budget: Budget,
    ) -> (Vec<WorkerReport>, Option<usize>) {
        let start = Instant::now();
        self.load(num_vars, clauses);
        let n = self.workers.len();
        let mut verdict: Option<(usize, SolveResult)> = None;
        if n == 1 {
            let (s, _) = &mut self.workers[0];
            let r = s.solve_with_budget(assumptions, budget);
            if r != SolveResult::Unknown {
                verdict = Some((0, r));
            }
        } else {
            // fixed round-robin conflict slices with a fresh per-query
            // conflict ledger; wall-clock only enters through the
            // overall timeout, checked *between* epochs
            let mut spent = vec![0u64; n];
            'epochs: loop {
                let mut any_alive = false;
                for (i, (s, _)) in self.workers.iter_mut().enumerate() {
                    let remaining = budget.max_conflicts.saturating_sub(spent[i]);
                    if remaining == 0 {
                        continue;
                    }
                    any_alive = true;
                    let before = s.stats().conflicts;
                    let r = s.solve_with_budget(
                        assumptions,
                        Budget {
                            max_conflicts: remaining.min(self.slice),
                            timeout: None,
                        },
                    );
                    spent[i] += s.stats().conflicts - before;
                    if r != SolveResult::Unknown {
                        verdict = Some((i, r));
                        break 'epochs;
                    }
                }
                if !any_alive {
                    break;
                }
                if let Some(t) = budget.timeout {
                    if start.elapsed() >= t {
                        break;
                    }
                }
            }
        }
        let reports = self
            .workers
            .iter()
            .zip(&mut self.reported)
            .enumerate()
            .map(|(i, ((s, logger), reported))| {
                let (result, won) = match verdict {
                    Some((w, r)) if w == i => (r, true),
                    _ => (SolveResult::Unknown, false),
                };
                let delta = s.stats().delta_since(reported);
                *reported = s.stats();
                report(
                    s,
                    result,
                    won,
                    num_vars,
                    delta,
                    logger.as_ref().map(|l| l.take_steps()),
                )
            })
            .collect();
        (reports, verdict.map(|(w, _)| w))
    }
}

// ---------------------------------------------------------------------
// threaded (racing) pool
// ---------------------------------------------------------------------

struct ThreadedPool {
    gate: Arc<Gate<Job, Ack>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadedPool {
    fn new(n: usize, config: &PortfolioConfig) -> ThreadedPool {
        let gate = Arc::new(Gate::new(n));
        let handles = ring_mesh(n)
            .into_iter()
            .enumerate()
            .map(|(i, ends)| {
                let gate = Arc::clone(&gate);
                let config = *config;
                thread::spawn(move || worker_main(i, &gate, &config, ends))
            })
            .collect();
        ThreadedPool { gate, handles }
    }

    /// Blocks until the previous generation (if any) is acknowledged,
    /// then publishes `job` and wakes every worker. Returns without
    /// waiting for the new generation — callers that need the reports
    /// call [`ThreadedPool::wait_idle`] themselves.
    fn publish(&self, job: Job) {
        self.wait_idle();
        self.gate.publish(job);
        for h in &self.handles {
            h.thread().unpark();
        }
    }

    fn wait_idle(&self) {
        // workers unpark us via the job's waker after each ack; the
        // timeout is insurance against a stale waker (the Pool moved
        // threads between calls)
        while !self.gate.idle() {
            thread::park_timeout(Duration::from_millis(1));
        }
    }

    fn solve(&mut self, job: Job) -> (Vec<WorkerReport>, Option<usize>) {
        self.publish(job);
        self.wait_idle();
        let reports = self
            .gate
            .take_reports()
            .into_iter()
            .enumerate()
            .map(
                |(i, ack)| match ack.expect("every worker acked the solve generation") {
                    Ok(report) => report,
                    Err(_) => panic!("portfolio worker {i} panicked"),
                },
            )
            .collect();
        (reports, self.gate.winner())
    }
}

impl Drop for ThreadedPool {
    fn drop(&mut self) {
        // panicked workers still ack, so this neither hangs nor panics
        // when the coordinator is already unwinding from one
        self.publish(Job {
            kind: JobKind::Quit,
            num_vars: 0,
            clauses: Vec::new(),
            lits: Vec::new(),
            budget: Budget::unlimited(),
            waker: thread::current(),
        });
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of one resident worker thread.
fn worker_main(i: usize, gate: &Gate<Job, Ack>, config: &PortfolioConfig, ends: MeshEnds) {
    fec_trace::set_thread_name(format!("pool-worker-{i}"));
    let (mut s, logger) = build_worker(i, config, ends);
    s.set_stop_flag(gate.stop_handle());
    // totals already reported: each solve report is a per-query delta
    let mut reported = SolverStats::default();
    let mut last_gen = 0usize;
    let mut poisoned = false;
    loop {
        let Some(gen) = gate.poll(last_gen) else {
            thread::park();
            continue;
        };
        last_gen = gen;
        let (kind, waker) = gate.with_job(|job| (job.kind, job.waker.clone()));
        // a panic leaves the solver unusable: ack it, and every later
        // generation, with an error so the coordinator never waits on
        // this worker and surfaces the panic at its next solve
        let ack = if poisoned {
            Err(Box::new("worker poisoned by an earlier panic") as _)
        } else {
            panic::catch_unwind(AssertUnwindSafe(|| {
                gate.with_job(|job| run_job(i, gate, &mut s, logger.as_ref(), &mut reported, job))
            }))
        };
        poisoned |= ack.is_err();
        gate.submit(i, ack);
        waker.unpark();
        if kind == JobKind::Quit {
            break;
        }
    }
}

/// Runs one published job on worker `i`. Fire-and-forget generations
/// yield a blank report the coordinator never reads: their work rides
/// into the next solve's stats delta and proof segment.
fn run_job(
    i: usize,
    gate: &Gate<Job, Ack>,
    s: &mut Solver,
    logger: Option<&MemoryProofLogger>,
    reported: &mut SolverStats,
    job: &Job,
) -> WorkerReport {
    match job.kind {
        JobKind::Load => apply_delta(s, job.num_vars, &job.clauses),
        JobKind::Inprocess => {
            s.preprocess(&job.lits);
        }
        JobKind::Quit => {}
        JobKind::Solve => {
            apply_delta(s, job.num_vars, &job.clauses);
            let _wsp = fec_trace::span!(
                fec_trace::Level::Trace,
                "portfolio.pool.worker",
                "worker" => i,
            );
            let worker_start = Instant::now();
            let result = s.solve_with_budget(&job.lits, job.budget);
            // first verdict wins this generation's election and cancels
            // the rest, on slots reset at publish
            let won = result != SolveResult::Unknown && gate.try_win(i);
            if won {
                fec_trace::event!(
                    fec_trace::Level::Debug,
                    "portfolio.win",
                    "worker" => i,
                    "conflicts" => s.stats().conflicts,
                );
            }
            let delta = s.stats().delta_since(reported);
            *reported = s.stats();
            emit_worker_done(i, &delta, result, won, worker_start);
            // every worker ships its segment every query — the stitched
            // per-worker streams upstream need losers' derivations too
            // (their next-query imports may depend on them)
            return report(
                s,
                result,
                won,
                job.num_vars,
                delta,
                logger.map(|l| l.take_steps()),
            );
        }
    }
    WorkerReport {
        result: SolveResult::Unknown,
        stats: SolverStats::default(),
        model: None,
        failed_assumptions: Vec::new(),
        proof: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortfolioConfig;

    fn lit(i: i32) -> Lit {
        let v = Var::from_index((i.unsigned_abs() - 1) as usize);
        if i > 0 {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    fn cnf(clauses: &[&[i32]]) -> Vec<Vec<Lit>> {
        clauses
            .iter()
            .map(|c| c.iter().map(|&l| lit(l)).collect())
            .collect()
    }

    fn workout(config: &PortfolioConfig) {
        let mut pool = Pool::new(config);
        // query 1: satisfiable 3-var formula
        let out = pool.solve(
            3,
            cnf(&[&[1, 2], &[-1, 2], &[-2, 3]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Sat);
        assert_eq!(out.value(Var::from_index(1)), Some(true));
        assert_eq!(out.stats.shipped_clauses, (3 * pool.jobs()) as u64);
        // query 2: only the delta ships; formula forced UNSAT
        let out = pool.solve(
            3,
            cnf(&[&[-2], &[2, -3], &[3]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Unsat);
        assert_eq!(out.stats.shipped_clauses, (3 * pool.jobs()) as u64);
        // per-query deltas: each query cost each worker at most one
        // solve call (threaded) — never the session total
        for w in &out.stats.workers {
            assert!(w.solve_calls <= 4, "delta leaked cumulative totals");
        }
    }

    #[test]
    fn warm_pool_single_worker() {
        workout(&PortfolioConfig::with_jobs(1));
    }

    #[test]
    fn warm_pool_threaded() {
        workout(&PortfolioConfig::with_jobs(3));
    }

    #[test]
    fn warm_pool_deterministic() {
        let cfg = PortfolioConfig {
            deterministic: true,
            det_slice_conflicts: 64,
            ..PortfolioConfig::with_jobs(3)
        };
        workout(&cfg);
    }

    #[test]
    fn warm_assumption_session() {
        // the CEGIS verifier shape: one load, many assumption-only
        // solves — queries after the first ship zero clauses
        let mut pool = Pool::new(&PortfolioConfig::with_jobs(2));
        pool.load(4, cnf(&[&[1, 2, 3, 4], &[-1, -2], &[-3, -4]]));
        let mut shipped = 0;
        for i in 0..3 {
            let out = pool.solve(4, Vec::new(), vec![lit(i + 1)], Budget::unlimited());
            assert_eq!(out.result, SolveResult::Sat, "assuming {} is sat", i + 1);
            shipped += out.stats.shipped_clauses;
        }
        assert_eq!(shipped, 0, "assumption-only queries shipped clauses");
        let out = pool.solve(
            4,
            cnf(&[&[-1], &[-2], &[-3], &[-4]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(out.result, SolveResult::Unsat);
        assert_eq!(out.stats.shipped_clauses, 8);
    }

    #[test]
    fn certified_segments_stitch_per_worker() {
        let cfg = PortfolioConfig {
            certify: true,
            ..PortfolioConfig::with_jobs(2)
        };
        let mut pool = Pool::new(&cfg);
        let q1 = pool.solve(
            2,
            cnf(&[&[1, 2], &[-1, 2]]),
            Vec::new(),
            Budget::unlimited(),
        );
        assert_eq!(q1.result, SolveResult::Sat);
        assert_eq!(q1.proof_segments.len(), 2);
        let q2 = pool.solve(2, cnf(&[&[-2]]), Vec::new(), Budget::unlimited());
        assert_eq!(q2.result, SolveResult::Unsat);
        let w = q2.stats.winner.expect("unsat query has a winner");
        // stitch the winner's two segments and replay them through the
        // independent checker: the warm answer stays certifiable
        let mut checker = fec_drat::Checker::new();
        for seg in [&q1.proof_segments[w], &q2.proof_segments[w]] {
            for step in seg.iter() {
                checker.process(step).expect("stitched stream checks");
            }
        }
        assert!(checker.is_refuted(), "stitched stream proves UNSAT");
    }
}
