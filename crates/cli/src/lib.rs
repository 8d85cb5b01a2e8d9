//! Command implementations for the `fecsynth` binary.
//!
//! Kept in a library so the commands are unit-testable without
//! spawning processes; the binary (`src/bin/fecsynth.rs`) is a thin
//! argv → [`run`] shim.
//!
//! Error reporting contract: human-readable results go to the stdout
//! stream, diagnostics go to the stderr stream as one structured line
//! `error: kind=<kind> msg="<message>"`, and the exit code encodes the
//! failure class (0 success, 1 property fails / no solution, 2 usage
//! or unsupported input, 3 budget/timeout exhausted).

#![forbid(unsafe_code)]

mod bench_compare;
mod report;

use fec_gf2::BitVec;
use fec_hamming::{distance, Generator};
use fec_smt::Budget;
use fec_synth::cegis::{SynthError, SynthesisConfig, Synthesizer};
use fec_synth::spec::parse_property;
use fec_synth::verify::{sat_min_distance, verify_props_with, VerifyOptions, VerifyOutcome};
use fec_trace::{Level, TraceConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// Usage text for `--help` and argument errors.
pub const USAGE: &str = "\
fecsynth — synthesize, verify, and export Hamming FEC generators

USAGE:
    fecsynth analyze \"<property>\" [--max-check=N] [TRACE]
    fecsynth synth  \"<property>\" [--timeout=SECS] [--check-proofs] [--jobs=N]
                    [--simplify] [--incremental|--no-incremental] [TRACE]
    fecsynth verify \"<property>\" --coeff <rows> [--check-proofs] [--jobs=N]
                    [--simplify] [TRACE]
                    (rows like 101/110/111/011)
    fecsynth info   --coeff <rows>
    fecsynth emit   --coeff <rows> [--lang=c|rust] [--minimize]
    fecsynth encode --coeff <rows> --data <bits>
    fecsynth lint-kernel --coeff <rows> [--lang=c|rust] [--file PATH]
    fecsynth stream [--adapt] [--seed=N] [--bytes=N] [--depth=N]
                    [--gen-size=N] [--repair=N] [--timeout=SECS] [--jobs=N]
                    [--simplify] [TRACE]
    fecsynth trace-validate <file.jsonl>
    fecsynth report <trace.jsonl> [--json]
    fecsynth bench-compare <baseline-dir> <current-dir> [--json]

    --check-proofs  certify every solver answer: learned clauses are
                    re-checked as a DRAT proof by the independent
                    fec-drat RUP checker and SAT models are replayed
                    against the input clauses (aborts on discrepancy)
    --jobs=N        race every solver query across N diversified CDCL
                    workers sharing low-LBD learned clauses (parallel
                    portfolio; composes with --check-proofs — the
                    winning worker's proof is certified)
    --simplify      run SatELite-style pre-/inprocessing (bounded
                    variable elimination, subsumption, failed-literal
                    probing, vivification) in the backing solvers;
                    composes with --jobs (workers get diversified
                    technique mixes) and --check-proofs (simplifier
                    steps are part of the checked DRAT stream)
    --incremental   (synth; the default) keep solver state warm across
                    CEGIS iterations: learned clauses, branching
                    activities, and saved phases carry over, and with
                    --simplify an inprocessing pass runs between
                    iterations; --no-incremental selects the
                    from-scratch reference mode that rebuilds every
                    solver per iteration and replays counterexamples
    --minimize      (emit) run the cancellation-aware CSE minimizer and
                    emit the certified circuit instead of the sparse
                    per-column form; the output is accepted only if the
                    static validator proves it equal to the matrix

analyze runs the static feasibility pipeline without any solver: the
property is canonicalized (constant folding, interval narrowing,
dead-conjunct lints, a stable fecspec-v1 content hash), then every
generator's [n, k, d] requirement is checked against the classical
coding bounds (Singleton, sphere-packing, Plotkin, Griesmer, with
shortening/residual refinement; Gilbert–Varshamov for existence).
Verdicts: INFEASIBLE (printed with its arithmetic certificate, exit 1),
FEASIBLE (a code provably exists), NEEDS SEARCH (run synth).
--max-check=N bounds the check length when the property leaves it open
(default 14, matching synth).

stream simulates the packet-FEC pipeline (fec-stream) over a bursty
Gilbert–Elliott channel: a deterministic --bytes payload is packetized,
fountain-coded, encoded through the certified minimized kernels,
interleaved, corrupted, and decoded (detect-and-erase + recovery).
Every draw derives from --seed, so runs are bit-reproducible. With
--adapt, the first half of the stream probes the channel under the
static 802.3df deployment, the decoder's measured burst profile becomes
a §4.3 weighted spec handed to CEGIS, and the second half replays under
both codes; exit 1 if the adapted code fails to strictly lower residual
loss.

lint-kernel statically validates encoder artifacts against the matrix:
    without --file, every internal backend form (kernels, emitted C,
    emitted Rust, minimized circuit) is symbolically proved equivalent;
    with --file PATH, the given emitted source is parsed and proved
    instead. Diagnostics carry stable classes (missing-term,
    extra-term, shift-range, non-linear-op, …); exit 1 on any
    error-class lint.

TRACE (observability; any of these enables the collector):
    --trace=LEVEL       live span/event log on stderr
                        (error|warn|info|debug|trace; bare --trace = info)
    --trace-out=PATH    Chrome trace_event JSON — open in Perfetto
                        (https://ui.perfetto.dev) or about:tracing
    --trace-jsonl=PATH  raw event stream, one JSON object per line
                        (validate with `fecsynth trace-validate PATH`)
    --metrics-out=PATH  aggregated end-of-run counters + span timings
    --progress[=MS]     watchdog heartbeat: a `progress` record every MS
                        milliseconds (default 1000) plus a live one-line
                        status on stderr when it is a TTY — conflicts,
                        CEGIS iterations, learnt-DB size; handy for long
                        maximal(md) hunts
    --stall-after=MS    flag the run as stalled (progress records carry
                        stalled=true and a one-shot warn event fires)
                        after MS milliseconds with no solver restart or
                        CEGIS iteration (default 30000; needs --progress)

report replays a --trace-jsonl stream and attributes wall-clock to
phases (synth, verify, simplify, proof-check, portfolio, other) from
span self-times, plus progress/stall and instrument summaries; --json
emits the same breakdown machine-readably.

bench-compare validates every BENCH_*.json in <current-dir> against the
shared bench_meta schema and diffs metrics against <baseline-dir> with
per-metric-class regression thresholds (timings 50%, quality ratios
10%, booleans must not regress); exit 1 on any regression.

EXIT CODES:
    0 success / property HOLDS        2 usage, parse, or unsupported input
    1 property FAILS / no solution    3 solver budget or timeout exhausted

PROPERTY LANGUAGE (paper Fig. 3 + corr extension):
    len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4
         && md(G0) = 3 && minimal(len_c(G0))
    functions: len_d len_c len_1 md corr; objectives: minimal(e) maximal(e)

EXAMPLES:
    fecsynth analyze \"len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 6\"
    fecsynth synth \"len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))\"
    fecsynth verify \"md(G0) = 3\" --coeff 101/110/111/011
    fecsynth synth \"len_d(G0) = 4 && md(G0) = 3 && minimal(len_c(G0))\" \\
        --trace=info --trace-out=run.json --metrics-out=metrics.json
    fecsynth emit --coeff 101/110/111/011 --lang=c
";

/// Runs one CLI invocation; returns (exit code, stdout text, stderr
/// text). Diagnostics on the stderr stream follow the structured
/// one-line format described in the module docs.
pub fn run(args: &[String]) -> (i32, String, String) {
    let mut out = String::new();
    let mut err = String::new();
    let traced = match setup_trace(args) {
        Ok(t) => t,
        Err(e) => {
            fail(&mut err, "usage", &e);
            return (2, out, err);
        }
    };
    let code = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(args, &mut out, &mut err),
        Some("synth") => cmd_synth(args, &mut out, &mut err),
        Some("verify") => cmd_verify(args, &mut out, &mut err),
        Some("info") => cmd_info(args, &mut out, &mut err),
        Some("emit") => cmd_emit(args, &mut out, &mut err),
        Some("encode") => cmd_encode(args, &mut out, &mut err),
        Some("lint-kernel") => cmd_lint_kernel(args, &mut out, &mut err),
        Some("stream") => cmd_stream(args, &mut out, &mut err),
        Some("trace-validate") => cmd_trace_validate(args, &mut out, &mut err),
        Some("report") => report::cmd_report(args, &mut out, &mut err),
        Some("bench-compare") => bench_compare::cmd_bench_compare(args, &mut out, &mut err),
        Some("--help") | Some("-h") | None => {
            out.push_str(USAGE);
            0
        }
        Some(other) => {
            fail(&mut err, "usage", &format!("unknown command {other:?}"));
            err.push('\n');
            err.push_str(USAGE);
            2
        }
    };
    if traced {
        fec_trace::shutdown();
    }
    (code, out, err)
}

/// Writes the structured diagnostic line `error: kind=... msg="..."`.
pub(crate) fn fail(err: &mut String, kind: &str, msg: &str) {
    let _ = writeln!(err, "error: kind={kind} msg={msg:?}");
}

/// Exit code for a synthesis failure class (see module docs).
fn synth_exit_code(e: &SynthError) -> i32 {
    match e.kind() {
        "timeout" => 3,
        "no-solution" => 1,
        _ => 2, // unsupported, inconsistent: bad input
    }
}

/// Parses the `--trace*` family and installs the global collector when
/// any is present. Returns whether a collector was installed (the
/// caller must `fec_trace::shutdown()` afterwards).
fn setup_trace(args: &[String]) -> Result<bool, String> {
    let level_arg = flag_value(args, "trace");
    let chrome = flag_value(args, "trace-out");
    let jsonl = flag_value(args, "trace-jsonl");
    let metrics = flag_value(args, "metrics-out");
    let stderr_on = has_flag_or_value(args, "trace");
    let progress_on = has_flag_or_value(args, "progress");
    let stall_ms = flag_value(args, "stall-after");
    if !stderr_on && !progress_on && chrome.is_none() && jsonl.is_none() && metrics.is_none() {
        if stall_ms.is_some() {
            return Err("--stall-after requires --progress".into());
        }
        return Ok(false);
    }
    let level = match level_arg {
        Some(v) if !v.starts_with("--") => {
            Level::parse(v).ok_or_else(|| format!("bad --trace level {v:?}"))?
        }
        _ => Level::Info, // bare --trace
    };
    let mut config = TraceConfig::new(level);
    if stderr_on {
        config = config.stderr();
    }
    if let Some(p) = chrome {
        config = config
            .chrome_path(p)
            .map_err(|e| format!("cannot create --trace-out {p:?}: {e}"))?;
    }
    if let Some(p) = jsonl {
        config = config
            .jsonl_path(p)
            .map_err(|e| format!("cannot create --trace-jsonl {p:?}: {e}"))?;
    }
    if let Some(p) = metrics {
        config = config.metrics_path(p);
    }
    if progress_on {
        let every_ms = match flag_value(args, "progress") {
            Some(v) if !v.starts_with("--") => v
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms >= 1)
                .ok_or_else(|| format!("bad --progress interval {v:?} (milliseconds)"))?,
            _ => 1_000, // bare --progress: 1s heartbeat
        };
        config = config
            .progress_every(Duration::from_millis(every_ms))
            .progress_tty(true);
        if let Some(v) = stall_ms {
            let ms = v
                .parse::<u64>()
                .ok()
                .filter(|&ms| ms >= 1)
                .ok_or_else(|| format!("bad --stall-after {v:?} (milliseconds)"))?;
            config = config.stall_after(Duration::from_millis(ms));
        }
    } else if stall_ms.is_some() {
        return Err("--stall-after requires --progress".into());
    }
    fec_trace::install(config);
    Ok(true)
}

pub(crate) fn has_flag(args: &[String], name: &str) -> bool {
    let full = format!("--{name}");
    args.iter().any(|a| a == &full)
}

/// `--name`, `--name=v`, or `--name v` all count as present.
fn has_flag_or_value(args: &[String], name: &str) -> bool {
    has_flag(args, name) || flag_value(args, name).is_some()
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let eq = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v);
        }
        if a == &format!("--{name}") {
            return args.get(i + 1).map(String::as_str);
        }
    }
    None
}

fn parse_jobs(args: &[String]) -> usize {
    flag_value(args, "jobs")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn parse_coeff(args: &[String]) -> Result<Generator, String> {
    let rows = flag_value(args, "coeff").ok_or("missing --coeff <rows>")?;
    let text = rows.replace('/', "\n");
    Generator::from_coeff_str(&text).ok_or_else(|| format!("malformed coefficient rows {rows:?}"))
}

fn cmd_analyze(args: &[String], out: &mut String, err: &mut String) -> i32 {
    use fec_analyze::{PointVerdict, SpecError};
    let Some(spec) = args.get(1).filter(|s| !s.starts_with("--")) else {
        fail(err, "usage", "analyze: missing property argument");
        return 2;
    };
    let max_check = match parse_bounded(args, "max-check", 14, 1..=64) {
        Ok(v) => v,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let prop = match parse_property(spec) {
        Ok(p) => p,
        Err(e) => {
            fail(err, "parse", &e.to_string());
            return 2;
        }
    };
    if let Err(e) = fec_synth::spec::typecheck(&prop) {
        fail(err, "type", &e.to_string());
        return 2;
    }
    let a = match fec_analyze::analyze(&prop, max_check) {
        Ok(a) => a,
        Err(e) => {
            let kind = match e {
                SpecError::Unsupported(_) => "unsupported",
                SpecError::Inconsistent(_) => "inconsistent",
            };
            fail(err, kind, &e.to_string());
            return 2;
        }
    };
    let _ = writeln!(out, "canonical: {}", a.canon.canonical_text());
    let _ = writeln!(out, "hash: {}", a.canon.hash);
    for l in &a.canon.lints {
        let _ = writeln!(out, "{l}");
    }
    for g in &a.gens {
        let head = format!("G{}: [{}, {}] d >= {}", g.gen, g.n, g.k, g.d);
        match &g.verdict {
            PointVerdict::Infeasible(c) => {
                let _ = writeln!(out, "{head} — INFEASIBLE");
                let _ = writeln!(out, "  {c}");
            }
            PointVerdict::TriviallyFeasible => {
                let _ = writeln!(
                    out,
                    "{head} — FEASIBLE (Gilbert–Varshamov guarantees a code)"
                );
            }
            PointVerdict::NeedsSearch { d_lo, d_hi } => {
                let _ = writeln!(
                    out,
                    "{head} — NEEDS SEARCH (best achievable distance in {d_lo}..={d_hi})"
                );
            }
        }
    }
    let _ = writeln!(out, "verdict: {}", a.overall_kind());
    if let Some(c) = a.certificate() {
        fail(err, "no-solution", &c.to_string());
        return 1;
    }
    0
}

fn cmd_synth(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let Some(spec) = args.get(1).filter(|s| !s.starts_with("--")) else {
        fail(err, "usage", "synth: missing property argument");
        return 2;
    };
    let timeout = flag_value(args, "timeout")
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let prop = match parse_property(spec) {
        Ok(p) => p,
        Err(e) => {
            fail(err, "parse", &e.to_string());
            return 2;
        }
    };
    if has_flag(args, "incremental") && has_flag(args, "no-incremental") {
        fail(
            err,
            "usage",
            "synth: --incremental and --no-incremental are mutually exclusive",
        );
        return 2;
    }
    let config = SynthesisConfig {
        timeout: Duration::from_secs(timeout),
        check_certificates: has_flag(args, "check-proofs"),
        jobs: parse_jobs(args),
        simplify: has_flag(args, "simplify"),
        // warm solvers are the default; --no-incremental opts into the
        // from-scratch reference mode
        incremental: !has_flag(args, "no-incremental"),
        ..Default::default()
    };
    match Synthesizer::new(config).run(&prop) {
        Ok(r) => {
            for (i, g) in r.generators.iter().enumerate() {
                out.push_str(&format!(
                    "G{i}: ({}, {}) code, {} coefficient ones\n{}\n",
                    g.codeword_len(),
                    g.data_len(),
                    g.coefficient_ones(),
                    g
                ));
                out.push_str(&format!("coeff (for --coeff): {}\n", coeff_arg(g)));
            }
            out.push_str(&format!(
                "{} iterations, {:.2} s\n",
                r.iterations,
                r.elapsed.as_secs_f64()
            ));
            0
        }
        Err(e) => {
            fail(err, e.kind(), &e.to_string());
            synth_exit_code(&e)
        }
    }
}

fn cmd_verify(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let Some(spec) = args.get(1).filter(|s| !s.starts_with("--")) else {
        fail(err, "usage", "verify: missing property argument");
        return 2;
    };
    let g = match parse_coeff(args) {
        Ok(g) => g,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let prop = match parse_property(spec) {
        Ok(p) => p,
        Err(e) => {
            fail(err, "parse", &e.to_string());
            return 2;
        }
    };
    let opts = VerifyOptions {
        budget: Budget::unlimited(),
        check_certificates: has_flag(args, "check-proofs"),
        jobs: parse_jobs(args),
        simplify: has_flag(args, "simplify"),
        ..VerifyOptions::default()
    };
    let (outcome, stats) = verify_props_with(&[g], &prop, opts);
    if opts.check_certificates {
        out.push_str(&format!(
            "certificates: {} lemmas RUP-checked, {} models validated, {} UNSAT answers certified\n",
            stats.lemmas_checked, stats.models_validated, stats.unsat_certified
        ));
    }
    if opts.jobs > 1 {
        let queries = stats.portfolio.len();
        let shared: u64 = stats.portfolio.iter().map(|p| p.imported).sum();
        out.push_str(&format!(
            "portfolio: {} workers × {queries} queries, {} total conflicts, {shared} clauses imported\n",
            opts.jobs, stats.conflicts
        ));
        for (qi, p) in stats.portfolio.iter().enumerate() {
            let winner = p
                .winner
                .map_or("none".to_string(), |w| format!("worker {w}"));
            out.push_str(&format!(
                "  query {qi}: winner {winner}, per-worker conflicts {:?}\n",
                p.per_worker_conflicts
            ));
        }
    }
    match outcome {
        VerifyOutcome::Holds => {
            out.push_str(&format!("HOLDS ({:.2} s)\n", stats.elapsed.as_secs_f64()));
            0
        }
        VerifyOutcome::Fails { .. } => {
            out.push_str("FAILS\n");
            1
        }
        VerifyOutcome::Unknown => {
            out.push_str("UNKNOWN (budget exhausted)\n");
            3
        }
    }
}

fn cmd_info(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let g = match parse_coeff(args) {
        Ok(g) => g,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let md = if g.data_len() <= 20 {
        distance::min_distance_exhaustive(&g)
    } else {
        sat_min_distance(&g, Budget::unlimited()).0.unwrap_or(0)
    };
    out.push_str(&format!(
        "({}, {}) code: {} check bits, {} coefficient ones\n\
         minimum distance {md} → detects {} errors, corrects {}\n{}\n",
        g.codeword_len(),
        g.data_len(),
        g.check_len(),
        g.coefficient_ones(),
        md.saturating_sub(1),
        md.saturating_sub(1) / 2,
        g
    ));
    0
}

fn cmd_emit(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let g = match parse_coeff(args) {
        Ok(g) => g,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    if g.check_len() > 64 {
        fail(err, "usage", "emit supports at most 64 check bits");
        return 2;
    }
    let lang: fec_circ::Lang = match flag_value(args, "lang").unwrap_or("c").parse() {
        Ok(l) => l,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let circuit = if has_flag(args, "minimize") {
        // certified: minimize() falls back to the sparse circuit unless
        // the validator proves the optimized one equivalent
        Some(fec_circ::minimize(&g).circuit)
    } else if g.data_len() > 64 {
        // the legacy scalar emitters cap at one data word; wide codes
        // go through the circuit emitter (word-array parameter)
        Some(fec_circ::Circuit::from_generator(&g))
    } else {
        None
    };
    let src = match (circuit, lang) {
        (Some(c), fec_circ::Lang::C) => fec_circ::emit_c_circuit(&c),
        (Some(c), fec_circ::Lang::Rust) => fec_circ::emit_rust_circuit(&c),
        (None, fec_circ::Lang::C) => fec_codegen::emit_c(&g, false),
        (None, fec_circ::Lang::Rust) => fec_codegen::emit_rust(&g),
    };
    out.push_str(&src);
    0
}

/// One verdict line for `lint-kernel`; returns whether the report was
/// error-free.
fn lint_verdict(out: &mut String, form: &str, report: &fec_circ::Report) -> bool {
    if report.is_valid() {
        let _ = writeln!(
            out,
            "{form}: OK ({} xors proved equal to G)",
            report.xor_count
        );
    } else {
        let _ = writeln!(out, "{form}: FAIL");
    }
    for d in &report.diags {
        let _ = writeln!(out, "  {d}");
    }
    report.is_valid()
}

fn cmd_lint_kernel(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let g = match parse_coeff(args) {
        Ok(g) => g,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    if g.check_len() > 64 {
        fail(err, "usage", "lint-kernel supports at most 64 check bits");
        return 2;
    }
    let lang: fec_circ::Lang = match flag_value(args, "lang").unwrap_or("c").parse() {
        Ok(l) => l,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    if let Some(path) = flag_value(args, "file") {
        // validate one emitted source file against the matrix
        let src = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                fail(err, "usage", &format!("cannot read {path:?}: {e}"));
                return 2;
            }
        };
        let report = fec_circ::validate_source(&src, lang, &g);
        let ok = lint_verdict(out, path, &report);
        return i32::from(!ok);
    }
    // no --file: prove every internal backend form
    let mut all_ok = true;
    let wide = g.data_len() > 64;
    let sparse_circuit = fec_circ::Circuit::from_generator(&g);
    all_ok &= lint_verdict(
        out,
        "generator-circuit",
        &fec_circ::validate_circuit(&sparse_circuit, &g),
    );
    if wide {
        out.push_str("mask-kernel: skipped (runtime kernels cap at 64 data bits)\n");
        out.push_str("sparse-kernel: skipped\n");
        out.push_str("naive-kernel: skipped\n");
    } else {
        let mask = fec_circ::Circuit::from_mask_kernel(&fec_codegen::MaskKernel::new(&g));
        all_ok &= lint_verdict(out, "mask-kernel", &fec_circ::validate_circuit(&mask, &g));
        let sparse = fec_circ::Circuit::from_sparse_kernel(&fec_codegen::SparseKernel::new(&g));
        all_ok &= lint_verdict(
            out,
            "sparse-kernel",
            &fec_circ::validate_circuit(&sparse, &g),
        );
        let naive = fec_circ::Circuit::from_naive_kernel(&fec_codegen::NaiveKernel::new(&g));
        all_ok &= lint_verdict(out, "naive-kernel", &fec_circ::validate_circuit(&naive, &g));
    }
    let (c_src, rust_src) = if wide {
        (
            fec_circ::emit_c_circuit(&sparse_circuit),
            fec_circ::emit_rust_circuit(&sparse_circuit),
        )
    } else {
        (fec_codegen::emit_c(&g, true), fec_codegen::emit_rust(&g))
    };
    all_ok &= lint_verdict(
        out,
        "emitted-c",
        &fec_circ::validate_source(&c_src, fec_circ::Lang::C, &g),
    );
    all_ok &= lint_verdict(
        out,
        "emitted-rust",
        &fec_circ::validate_source(&rust_src, fec_circ::Lang::Rust, &g),
    );
    let m = fec_circ::minimize(&g);
    all_ok &= lint_verdict(out, "minimized-circuit", &m.report);
    let _ = writeln!(
        out,
        "minimizer: {} → {} xors ({:.1}% reduction vs sparse)",
        m.sparse_xor_count,
        m.xor_count(),
        m.reduction() * 100.0
    );
    i32::from(!all_ok)
}

fn cmd_encode(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let g = match parse_coeff(args) {
        Ok(g) => g,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let Some(data) = flag_value(args, "data") else {
        fail(err, "usage", "encode: missing --data <bits>");
        return 2;
    };
    let Some(bits) = BitVec::from_bitstring(data) else {
        fail(err, "usage", &format!("malformed data bits {data:?}"));
        return 2;
    };
    if bits.len() != g.data_len() {
        fail(
            err,
            "usage",
            &format!(
                "data is {} bits but the code expects {}",
                bits.len(),
                g.data_len()
            ),
        );
        return 2;
    }
    out.push_str(&format!("{}\n", g.encode(&bits)));
    0
}

/// Parses a `--name=N` numeric flag with bounds, or defaults.
fn parse_bounded(
    args: &[String],
    name: &str,
    default: usize,
    range: std::ops::RangeInclusive<usize>,
) -> Result<usize, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| range.contains(n))
            .ok_or_else(|| {
                format!(
                    "--{name} must be an integer in {}..={}, got {v:?}",
                    range.start(),
                    range.end()
                )
            }),
    }
}

/// One summary block for a stream run.
fn print_stream_report(out: &mut String, label: &str, o: &fec_stream::StreamOutcome, k: usize) {
    let s = &o.stats;
    let _ = writeln!(
        out,
        "{label}: {} data words, {} frames, {} channel bits ({} flips)",
        s.data_words, s.frames, s.channel_bits, s.channel_flips
    );
    let _ = writeln!(
        out,
        "  erased frames {}, recovered {}, lost {}, corrupted {}",
        s.erased_frames, s.recovered_words, s.lost_words, s.corrupted_words
    );
    let _ = writeln!(
        out,
        "  residual loss {:.4}, overhead {:.3}x, recovery latency mean {:.1} max {} frames",
        s.residual_loss(),
        s.overhead(k),
        s.recovery_latency_mean,
        s.recovery_latency_max
    );
    let p = &o.profile;
    let _ = writeln!(
        out,
        "  measured: ber {:.2e} (design {:.2e}), bursty {}, erasure rate {:.3}, mean erasure run {:.2}",
        p.estimated_ber(),
        p.design_ber(),
        if p.is_bursty() { "yes" } else { "no" },
        p.erasure_rate(),
        p.mean_erasure_run()
    );
}

fn cmd_stream(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let seed = flag_value(args, "seed")
        .map(|v| v.parse::<u64>())
        .transpose();
    let Ok(seed) = seed else {
        fail(err, "usage", "--seed must be an unsigned integer");
        return 2;
    };
    let seed = seed.unwrap_or(1);
    let bytes = match parse_bounded(args, "bytes", 16384, 1..=1 << 24) {
        Ok(v) => v,
        Err(e) => {
            fail(err, "usage", &e);
            return 2;
        }
    };
    let mut cfg = fec_stream::StreamConfig::static_8023df(seed);
    let parsed: Result<(), String> = (|| {
        cfg.depth = parse_bounded(args, "depth", cfg.depth, 1..=64)?;
        cfg.gen_size = parse_bounded(args, "gen-size", cfg.gen_size, 1..=64)?;
        cfg.repair = parse_bounded(args, "repair", cfg.repair, 0..=64)?;
        Ok(())
    })();
    if let Err(e) = parsed {
        fail(err, "usage", &e);
        return 2;
    }
    if cfg.repair > cfg.gen_size {
        fail(err, "usage", "--repair must not exceed --gen-size");
        return 2;
    }
    let payload = fec_stream::deterministic_payload(bytes, seed);
    let k = cfg.inner.data_len();
    let _ = writeln!(
        out,
        "stream: 802.3df (128,120), depth {}, gen size {}, repair {}, seed {seed}, {bytes} bytes",
        cfg.depth, cfg.gen_size, cfg.repair
    );

    if !has_flag(args, "adapt") {
        let o = fec_stream::run_stream(&payload, &cfg);
        print_stream_report(out, "static", &o, k);
        if !o.lost_words.is_empty() {
            let _ = writeln!(
                out,
                "  lost word indices (reported, zero-filled): {:?}",
                o.lost_words
            );
        }
        return 0;
    }

    let timeout = flag_value(args, "timeout")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let acfg = fec_stream::AdaptConfig {
        timeout: Duration::from_secs(timeout),
        jobs: parse_jobs(args),
        simplify: has_flag(args, "simplify"),
        ..Default::default()
    };
    let a = match fec_stream::run_adaptive(&payload, &cfg, &acfg) {
        Ok(a) => a,
        Err(e) => {
            fail(err, e.kind(), &e.to_string());
            return synth_exit_code(&e);
        }
    };
    print_stream_report(out, "probe (first half, static code)", &a.probe, k);
    let ad = &a.adapted;
    let _ = writeln!(
        out,
        "adapted: ({}, {}) composite, depth {}, repair {} — sum_w {:.2}, {} iterations, {:.2} s",
        ad.code.codeword_len(),
        ad.code.data_len(),
        ad.depth,
        ad.repair,
        ad.sum_w,
        ad.iterations,
        ad.elapsed.as_secs_f64()
    );
    print_stream_report(
        out,
        "replay (second half, static code)",
        &a.static_replay,
        k,
    );
    print_stream_report(
        out,
        "replay (second half, adapted code)",
        &a.adapted_replay,
        ad.code.data_len(),
    );
    let sres = a.static_replay.stats.residual_loss();
    let ares = a.adapted_replay.stats.residual_loss();
    if ares < sres {
        let _ = writeln!(
            out,
            "adapted improves residual loss: yes ({sres:.4} -> {ares:.4})"
        );
        0
    } else {
        let _ = writeln!(
            out,
            "adapted improves residual loss: NO ({sres:.4} -> {ares:.4})"
        );
        fail(
            err,
            "no-improvement",
            &format!("adapted residual {ares:.4} not below static {sres:.4}"),
        );
        1
    }
}

fn cmd_trace_validate(args: &[String], out: &mut String, err: &mut String) -> i32 {
    let Some(path) = args.get(1).filter(|s| !s.starts_with("--")) else {
        fail(
            err,
            "usage",
            "trace-validate: missing <file.jsonl> argument",
        );
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            fail(err, "usage", &format!("cannot read {path:?}: {e}"));
            return 2;
        }
    };
    match fec_trace::validate_jsonl(&text) {
        Ok(n) => {
            out.push_str(&format!("{path}: {n} records, schema OK\n"));
            0
        }
        Err(e) => {
            fail(err, "schema", &e);
            1
        }
    }
}

fn coeff_arg(g: &Generator) -> String {
    (0..g.data_len())
        .map(|r| {
            (0..g.check_len())
                .map(|c| if g.coefficients().get(r, c) { '1' } else { '0' })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fec-cli-test-{}-{name}", std::process::id()))
    }

    // the trace collector is process-global, so tests that install one
    // must not overlap
    static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn help_and_unknown() {
        let (code, out, _) = run(&[]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        let (code, _, err) = run(&argv(&["bogus"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn analyze_refutes_with_golden_certificate() {
        // the ISSUE acceptance example: Singleton-violating (8, 4, 6)
        let (code, out, err) = run(&argv(&[
            "analyze",
            "len_d(G0) = 4 && len_c(G0) = 4 && md(G0) = 6",
        ]));
        assert_eq!(code, 1, "{out}{err}");
        assert!(out.contains("G0: [8, 4] d >= 6 — INFEASIBLE"), "{out}");
        // golden certificate text: bound name + evaluated arithmetic
        assert!(
            out.contains(
                "no binary linear [8, 4, 6] code exists — singleton bound: \
                 d <= n - k + 1 = 8 - 4 + 1 = 5, but the spec requires d = 6"
            ),
            "{out}"
        );
        assert!(out.contains("verdict: infeasible"), "{out}");
        assert!(err.contains("error: kind=no-solution"), "{err}");
        assert!(err.contains("singleton"), "{err}");
    }

    #[test]
    fn analyze_reports_feasible_and_needs_search() {
        let (code, out, err) = run(&argv(&["analyze", "len_d(G0) = 4 && md(G0) = 3"]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("FEASIBLE (Gilbert–Varshamov"), "{out}");
        assert!(out.contains("verdict: trivially-feasible"), "{out}");
        assert!(out.contains("hash: fecspec-v1:"), "{out}");
        assert!(err.is_empty(), "{err}");
        // [10, 5, 4] sits in the open band between GV and the bounds
        let (code, out, _) = run(&argv(&[
            "analyze",
            "len_d(G0) = 5 && len_c(G0) = 5 && md(G0) = 4",
        ]));
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("NEEDS SEARCH (best achievable distance in 3..=4)"),
            "{out}"
        );
        assert!(out.contains("verdict: needs-search"), "{out}");
    }

    #[test]
    fn analyze_prints_lints_and_canonical_form() {
        let (code, out, _) = run(&argv(&[
            "analyze",
            "md(G0) >= 2 && md(G0) >= 3 && len_d(G0) = 2 + 2",
        ]));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("canonical: "), "{out}");
        assert!(out.contains("len_d(G[0]) = 4"), "{out}");
        assert!(out.contains("md(G[0]) >= 3"), "{out}");
        assert!(!out.contains(">= 2"), "{out}");
    }

    #[test]
    fn analyze_error_classes_and_exit_codes() {
        // parse error → kind=parse, exit 2
        let (code, _, err) = run(&argv(&["analyze", "md(G0) ="]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=parse"), "{err}");
        // type error → kind=type, exit 2
        let (code, _, err) = run(&argv(&["analyze", "md(G[-1]) = 3"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=type"), "{err}");
        // structurally unsupported → kind=unsupported, exit 2
        let (code, _, err) = run(&argv(&["analyze", "len_d(G0) = 4 && sum_w < 3"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=unsupported"), "{err}");
        // inconsistent → kind=inconsistent, exit 2
        let (code, _, err) = run(&argv(&[
            "analyze",
            "len_d(G0) = 4 && len_c(G0) >= 9 && len_c(G0) <= 2",
        ]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=inconsistent"), "{err}");
        // missing argument → usage
        let (code, _, err) = run(&argv(&["analyze"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
    }

    #[test]
    fn analyze_max_check_narrows_the_window() {
        // at the default window [4 + 14 = 18] d = 5 is guaranteed;
        // with one check bit it is refuted outright
        let (code, _, _) = run(&argv(&["analyze", "len_d(G0) = 4 && md(G0) = 5"]));
        assert_eq!(code, 0);
        let (code, out, err) = run(&argv(&[
            "analyze",
            "len_d(G0) = 4 && md(G0) = 5",
            "--max-check=1",
        ]));
        assert_eq!(code, 1, "{out}");
        assert!(err.contains("error: kind=no-solution"), "{err}");
    }

    #[test]
    fn synth_produces_a_code() {
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("(7, 4) code"), "{out}");
        assert!(out.contains("coeff (for --coeff):"));
        assert!(err.is_empty(), "{err}");
    }

    #[test]
    fn synth_rejects_bad_property() {
        let (code, _, err) = run(&argv(&["synth", "md(G0) ="]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=parse"), "{err}");
        assert!(err.contains("parse error"), "{err}");
    }

    #[test]
    fn synth_reports_infeasible() {
        let (code, _, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && len_c(G0) = 1 && md(G0) = 3",
            "--timeout=30",
        ]));
        assert_eq!(code, 1);
        assert!(err.contains("error: kind=no-solution"), "{err}");
        assert!(err.contains("no generator"), "{err}");
    }

    #[test]
    fn synth_timeout_exit_code() {
        // a zero-second deadline forces SynthError::Timeout → exit 3
        let (code, _, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 8 && len_c(G0) = 5 && md(G0) = 4",
            "--timeout=0",
        ]));
        assert_eq!(code, 3, "{err}");
        assert!(err.contains("error: kind=timeout"), "{err}");
    }

    #[test]
    fn verify_holds_and_fails() {
        let coeff = "101/110/111/011";
        let (code, out, err) = run(&argv(&["verify", "md(G0) = 3", "--coeff", coeff]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("HOLDS"));
        let (code, out, _) = run(&argv(&["verify", "md(G0) = 4", "--coeff", coeff]));
        assert_eq!(code, 1);
        assert!(out.contains("FAILS"));
    }

    #[test]
    fn verify_with_proof_checking() {
        let coeff = "101/110/111/011";
        let (code, out, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            coeff,
            "--check-proofs",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("certificates:"), "{out}");
        assert!(out.contains("UNSAT answers certified"), "{out}");
        // without the flag no certificate line is printed
        let (_, out, _) = run(&argv(&["verify", "md(G0) = 3", "--coeff", coeff]));
        assert!(!out.contains("certificates:"), "{out}");
    }

    #[test]
    fn synth_with_proof_checking() {
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
            "--check-proofs",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("(7, 4) code"), "{out}");
    }

    #[test]
    fn verify_with_jobs_portfolio() {
        let coeff = "101/110/111/011";
        let (code, out, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            coeff,
            "--jobs=4",
            "--check-proofs",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("portfolio: 4 workers"), "{out}");
        assert!(out.contains("winner worker"), "{out}");
        assert!(out.contains("certificates:"), "{out}");
        // single mode prints no portfolio summary
        let (_, out, _) = run(&argv(&["verify", "md(G0) = 3", "--coeff", coeff]));
        assert!(!out.contains("portfolio:"), "{out}");
    }

    #[test]
    fn synth_with_jobs_portfolio() {
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
            "--jobs=2",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("(7, 4) code"), "{out}");
    }

    #[test]
    fn synth_no_incremental_reference_mode() {
        // the from-scratch reference mode must reach the same optimum,
        // and the two mode flags reject being combined
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
            "--no-incremental",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("(7, 4) code"), "{out}");
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3",
            "--incremental",
            "--no-incremental",
        ]));
        assert_eq!(code, 2, "{out}");
        assert!(err.contains("mutually exclusive"), "{err}");
        // --incremental alone is the default, spelled out
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4",
            "--timeout=30",
            "--incremental",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(
            out.contains("(7, 4) code") || out.contains("(8, 4) code"),
            "{out}"
        );
    }

    #[test]
    fn verify_with_simplify() {
        let coeff = "101/110/111/011";
        // simplified answers must match plain ones, and proof checking
        // must still pass (simplifier steps are part of the DRAT stream)
        let (code, out, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            coeff,
            "--simplify",
            "--check-proofs",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("HOLDS"), "{out}");
        assert!(out.contains("certificates:"), "{out}");
        let (code, out, _) = run(&argv(&[
            "verify",
            "md(G0) = 4",
            "--coeff",
            coeff,
            "--simplify",
        ]));
        assert_eq!(code, 1);
        assert!(out.contains("FAILS"), "{out}");
    }

    #[test]
    fn synth_with_simplify() {
        let (code, out, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
            "--simplify",
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("(7, 4) code"), "{out}");
    }

    #[test]
    fn info_reports_distance() {
        let (code, out, _) = run(&argv(&["info", "--coeff", "101/110/111/011"]));
        assert_eq!(code, 0);
        assert!(out.contains("minimum distance 3"), "{out}");
        assert!(out.contains("corrects 1"));
    }

    #[test]
    fn emit_c_and_rust() {
        let (code, out, _) = run(&argv(&["emit", "--coeff", "11/01", "--lang=c"]));
        assert_eq!(code, 0);
        assert!(out.contains("uint64_t encode_checks"));
        let (code, out, _) = run(&argv(&["emit", "--coeff", "11/01", "--lang=rust"]));
        assert_eq!(code, 0);
        assert!(out.contains("pub fn encode_checks"));
        let (code, _, err) = run(&argv(&["emit", "--coeff", "11/01", "--lang=go"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
    }

    #[test]
    fn emit_minimize_is_certified_and_parseable() {
        // (12,5) shortened Hamming: enough overlap for real sharing
        let coeff = "10011/11010/01101/10110/01011/11100/00111/11001/10101/01110/11111/00011";
        let (code, out, _) = run(&argv(&["emit", "--coeff", coeff, "--minimize"]));
        assert_eq!(code, 0);
        assert!(out.contains("circuit form"), "{out}");
        // the emitted text itself re-validates
        let g = Generator::from_coeff_str(&coeff.replace('/', "\n")).unwrap();
        let rep = fec_circ::validate_source(&out, fec_circ::Lang::C, &g);
        assert!(rep.is_valid(), "{:?}", rep.diags);
        let (code, out, _) = run(&argv(&[
            "emit",
            "--coeff",
            coeff,
            "--minimize",
            "--lang=rust",
        ]));
        assert_eq!(code, 0);
        let rep = fec_circ::validate_source(&out, fec_circ::Lang::Rust, &g);
        assert!(rep.is_valid(), "{:?}", rep.diags);
    }

    #[test]
    fn lint_kernel_proves_all_internal_forms() {
        let (code, out, err) = run(&argv(&["lint-kernel", "--coeff", "101/110/111/011"]));
        assert_eq!(code, 0, "{out}{err}");
        for form in [
            "generator-circuit",
            "mask-kernel",
            "sparse-kernel",
            "naive-kernel",
            "emitted-c",
            "emitted-rust",
            "minimized-circuit",
        ] {
            assert!(
                out.contains(&format!("{form}: OK")),
                "{form} missing in {out}"
            );
        }
        assert!(out.contains("minimizer:"), "{out}");
    }

    #[test]
    fn lint_kernel_file_flags_defect_with_class_and_exit_1() {
        let g = Generator::from_coeff_str("101\n110\n111\n011").unwrap();
        let good = fec_codegen::emit_c(&g, false);
        let path = tmp_path("lint-good.c");
        std::fs::write(&path, &good).unwrap();
        let (code, out, _) = run(&argv(&[
            "lint-kernel",
            "--coeff",
            "101/110/111/011",
            "--file",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("OK"), "{out}");
        // tamper: drop one term → missing-term, exit 1
        let bad = good.replacen("(d >> 0) ^ ", "", 1);
        assert_ne!(bad, good);
        std::fs::write(&path, &bad).unwrap();
        let (code, out, _) = run(&argv(&[
            "lint-kernel",
            "--coeff",
            "101/110/111/011",
            "--file",
            path.to_str().unwrap(),
        ]));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("FAIL"), "{out}");
        assert!(out.contains("class=missing-term"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lint_kernel_usage_errors() {
        let (code, _, err) = run(&argv(&["lint-kernel"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
        let (code, _, err) = run(&argv(&[
            "lint-kernel",
            "--coeff",
            "11/01",
            "--file",
            "/nonexistent/kernel.c",
        ]));
        assert_eq!(code, 2);
        assert!(err.contains("cannot read"), "{err}");
        let (code, _, err) = run(&argv(&["lint-kernel", "--coeff", "11/01", "--lang=go"]));
        assert_eq!(code, 2);
        assert!(err.contains("unknown language"), "{err}");
    }

    #[test]
    fn encode_round_trip_with_fig2_data() {
        let (code, out, _) = run(&argv(&[
            "encode",
            "--coeff",
            "101/110/111/011",
            "--data",
            "0011",
        ]));
        assert_eq!(code, 0);
        assert_eq!(out.trim(), "0011100"); // the paper's Fig. 2 example
    }

    #[test]
    fn encode_length_mismatch() {
        let (code, _, err) = run(&argv(&[
            "encode",
            "--coeff",
            "101/110/111/011",
            "--data",
            "001",
        ]));
        assert_eq!(code, 2);
        assert!(err.contains("expects 4"), "{err}");
    }

    #[test]
    fn coeff_parsing_errors() {
        let (code, _, err) = run(&argv(&["info"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
        let (code, _, _) = run(&argv(&["info", "--coeff", "1x1"]));
        assert_eq!(code, 2);
    }

    #[test]
    fn stream_static_is_deterministic() {
        let args = argv(&["stream", "--seed=7", "--bytes=4096"]);
        let (code, out1, err) = run(&args);
        assert_eq!(code, 0, "{out1}{err}");
        assert!(out1.contains("residual loss"), "{out1}");
        assert!(out1.contains("measured: ber"), "{out1}");
        let (code, out2, _) = run(&args);
        assert_eq!(code, 0);
        assert_eq!(out1, out2, "same seed must be bit-identical");
        let (_, out3, _) = run(&argv(&["stream", "--seed=8", "--bytes=4096"]));
        assert_ne!(out1, out3, "different seed must change the run");
    }

    #[test]
    fn stream_usage_errors() {
        let (code, _, err) = run(&argv(&["stream", "--gen-size=0"]));
        assert_eq!(code, 2);
        assert!(err.contains("error: kind=usage"), "{err}");
        let (code, _, err) = run(&argv(&["stream", "--gen-size=8", "--repair=9"]));
        assert_eq!(code, 2);
        assert!(err.contains("must not exceed"), "{err}");
        let (code, _, err) = run(&argv(&["stream", "--bytes=zilch"]));
        assert_eq!(code, 2);
        assert!(err.contains("--bytes"), "{err}");
        let (code, _, err) = run(&argv(&["stream", "--seed=-3"]));
        assert_eq!(code, 2);
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn stream_adapt_improves_residual_and_is_traced() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let metrics = tmp_path("stream-metrics.json");
        let jsonl = tmp_path("stream.jsonl");
        let (code, out, err) = run(&argv(&[
            "stream",
            "--adapt",
            "--seed=1",
            "--bytes=16384",
            &format!("--metrics-out={}", metrics.display()),
            &format!("--trace-jsonl={}", jsonl.display()),
        ]));
        assert_eq!(code, 0, "{out}{err}");
        assert!(out.contains("adapted improves residual loss: yes"), "{out}");
        assert!(out.contains("probe (first half, static code)"), "{out}");
        assert!(out.contains("composite, depth"), "{out}");
        // the stream counters flow through the fec-trace metrics report
        let report = std::fs::read_to_string(&metrics).unwrap();
        for counter in [
            "stream.packets_in",
            "stream.recovered",
            "stream.bursts_observed",
        ] {
            assert!(report.contains(counter), "{counter} missing in {report}");
        }
        assert!(report.contains("stream.run"), "{report}");
        // and the raw event stream passes schema validation
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let n = fec_trace::validate_jsonl(&text).expect("schema-valid JSONL");
        assert!(n > 0);
        assert!(text.contains("stream.adapt"), "{text}");
        assert!(text.contains("stream.report"), "{text}");
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn traced_verify_emits_valid_jsonl_and_metrics() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let jsonl = tmp_path("verify.jsonl");
        let metrics = tmp_path("verify-metrics.json");
        let (code, out, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            "101/110/111/011",
            &format!("--trace-jsonl={}", jsonl.display()),
            &format!("--metrics-out={}", metrics.display()),
        ]));
        assert_eq!(code, 0, "{out}{err}");
        // the JSONL stream passes its own schema validator...
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let n = fec_trace::validate_jsonl(&text).expect("schema-valid JSONL");
        assert!(n > 0, "expected events, got none");
        assert!(text.contains("verify.query"), "{text}");
        // ...and via the trace-validate subcommand
        let (code, out, err) = run(&argv(&["trace-validate", jsonl.to_str().unwrap()]));
        assert_eq!(code, 0, "{err}");
        assert!(out.contains("schema OK"), "{out}");
        // metrics report was written and mentions the verify span
        let report = std::fs::read_to_string(&metrics).unwrap();
        assert!(report.contains("verify.query"), "{report}");
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn report_counts_portfolio_worker_spans() {
        // a traced 2-worker verify runs its queries on the warm pool;
        // the report must attribute the pool's worker spans
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let jsonl = tmp_path("portfolio.jsonl");
        let (code, out, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            "101/110/111/011",
            "--jobs=2",
            &format!("--trace-jsonl={}", jsonl.display()),
        ]));
        assert_eq!(code, 0, "{out}{err}");
        let (code, out, err) = run(&argv(&["report", jsonl.to_str().unwrap(), "--json"]));
        assert_eq!(code, 0, "{err}");
        let spans: u64 = out
            .split("\"worker_spans\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("no worker_spans in {out}"));
        assert!(spans > 0, "report saw no portfolio worker spans: {out}");
        let _ = std::fs::remove_file(&jsonl);
    }

    #[test]
    fn traced_synth_writes_chrome_trace() {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let chrome = tmp_path("synth-chrome.json");
        let (code, _, err) = run(&argv(&[
            "synth",
            "len_d(G0) = 4 && md(G0) = 3 && len_c(G0) <= 4 && minimal(len_c(G0))",
            "--timeout=30",
            &format!("--trace-out={}", chrome.display()),
        ]));
        assert_eq!(code, 0, "{err}");
        let text = std::fs::read_to_string(&chrome).unwrap();
        // streaming Chrome trace: an array of trace_event objects
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.contains("\"ph\":"), "{text}");
        assert!(text.contains("cegis.run"), "{text}");
        let _ = std::fs::remove_file(&chrome);
    }

    #[test]
    fn trace_validate_rejects_garbage() {
        let path = tmp_path("garbage.jsonl");
        std::fs::write(&path, "{\"not\": \"a trace record\"}\n").unwrap();
        let (code, _, err) = run(&argv(&["trace-validate", path.to_str().unwrap()]));
        assert_eq!(code, 1);
        assert!(err.contains("error: kind=schema"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_trace_level_is_a_usage_error() {
        let (code, _, err) = run(&argv(&[
            "verify",
            "md(G0) = 3",
            "--coeff",
            "101/110/111/011",
            "--trace=loud",
        ]));
        assert_eq!(code, 2);
        assert!(err.contains("bad --trace level"), "{err}");
    }
}
