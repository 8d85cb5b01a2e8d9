//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth|adapt|datapath|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop: one caller, one pass at a time, the
//! next pass starting when the previous one returns, for `--seconds`.
//! Human-readable results come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! split of a traced run with `--trace 1`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fec_perfbench::adapt::Adapt;
use fec_perfbench::datapath::Datapath;
use fec_perfbench::stats::{median, tail};
use fec_perfbench::synth::Synth;
use fec_perfbench::trace::{SpanLog, Tally};
use fec_perfbench::{secs_since, Pass, END_TO_END, PARTITION, PER_LAYER};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const WORKLOADS: [&str; 3] = ["synth", "adapt", "datapath"];

enum Bench {
    Synth(Synth),
    Adapt(Adapt),
    Datapath(Datapath),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Bench {
        match workload {
            "synth" => Bench::Synth(Synth::setup()),
            "adapt" => Bench::Adapt(Adapt::setup(seed)),
            _ => Bench::Datapath(Datapath::setup(seed)),
        }
    }

    fn pass(&self, probe: bool) -> Pass {
        match self {
            Bench::Synth(b) => b.pass(),
            Bench::Adapt(b) => b.pass(),
            Bench::Datapath(b) => b.pass(probe),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied();
    let workload = get("workload").unwrap_or("all").to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = get("seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Closed loop: passes back to back until `seconds` have elapsed (at
/// least one).
fn passes(bench: &Bench, seconds: f64, probe: bool) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || secs_since(start) < seconds {
        out.push(bench.pass(probe));
    }
    out
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(workload: &str, args: &Args) -> Outcome {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(Bench::setup(workload, args.seed));
        setup.push(secs_since(t));
    }
    let bench = bench.expect("at least one set-up");
    let setup_s = median(&setup);
    println!(
        "[{workload}] seed {} set-up {setup_s:.4} s (median of {SETUP_REPEATS})",
        args.seed
    );

    let (all, metrics) = if args.trace {
        let untraced = passes(&bench, args.seconds / 2.0, false);
        let log = SpanLog::install();
        let traced = passes(&bench, args.seconds / 2.0, true);
        let tally = log.take();
        fec_trace::shutdown();
        let layers = per_layer(&untraced, &traced, &tally);
        print_layers(workload, &layers);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), layers[name], unit))
            .collect();
        (
            untraced.into_iter().chain(traced).collect::<Vec<_>>(),
            metrics,
        )
    } else {
        let all = passes(&bench, args.seconds, false);
        print_figures(workload, &all);
        if let Bench::Datapath(d) = &bench {
            let rates: Vec<f64> = (0..3).map(|_| d.encode_mwords_s()).collect();
            println!(
                "[{workload}] encode_mwords_s = {:.6} Mwords/s median of 3, after the timed loop",
                median(&rates)
            );
        }
        let pass_s: Vec<f64> = all.iter().map(|p| p.secs).collect();
        let values = [median(&pass_s), setup_s];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name.to_string(), v, unit))
            .collect();
        (all, metrics)
    };

    let attempted = all.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = all.iter().flat_map(|p| &p.failures).collect();
    for f in failures.iter().take(10) {
        eprintln!("[{workload}] FAILED: {f}");
    }
    println!(
        "[{workload}] {} passes, {attempted} operations, {} failed",
        all.len(),
        failures.len()
    );
    Outcome {
        attempted,
        failed: failures.len() as u64,
        metrics,
    }
}

/// Prints each end-to-end figure as its median and tail over the passes.
fn print_figures(workload: &str, all: &[Pass]) {
    let mut names: Vec<(&str, &str)> = vec![("pass_s", "s")];
    names.extend(all[0].figures.iter().map(|&(n, _, u)| (n, u)));
    for (name, unit) in names {
        let xs: Vec<f64> = all
            .iter()
            .map(|p| match name {
                "pass_s" => p.secs,
                _ => p
                    .figures
                    .iter()
                    .find(|f| f.0 == name)
                    .map_or(f64::NAN, |f| f.1),
            })
            .collect();
        let mut line = format!("[{workload}] {name} = {:.6} {unit} median", median(&xs));
        match tail(&xs) {
            Some((pct, v)) if pct >= 50.0 => {
                let _ = write!(line, ", p{pct:.1} {v:.6} {unit}");
            }
            _ => line.push_str(", no tail above the median"),
        }
        let _ = write!(line, " (n={})", xs.len());
        println!("{line}");
    }
}

/// The traced run's per-layer split, as means per traced pass.
fn per_layer(untraced: &[Pass], traced: &[Pass], t: &Tally) -> BTreeMap<&'static str, f64> {
    let n = traced.len() as f64;
    let mean = |xs: &[Pass]| xs.iter().map(|p| p.secs).sum::<f64>() / xs.len() as f64;
    let (smt_cegis, _) = t.solves_in("cegis.run");
    let (smt_verify, _) = t.solves_in("bench.verify");
    let (smt_other, solves_other) = t.solves_in("");
    let mut v: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _, _)| (k, 0.0)).collect();
    let from_trace = [
        ("analyze.secs", t.secs("bench.analyze")),
        ("cegis.self.secs", t.secs("cegis.run") - smt_cegis),
        ("verify.self.secs", t.secs("bench.verify") - smt_verify),
        ("smt.solve.secs", t.secs("smt.solve")),
        ("stream.run.secs", t.secs("stream.run")),
        ("minimize.secs", t.secs("bench.minimize")),
        ("emit.secs", t.secs("bench.emit")),
        ("validate.secs", t.secs("bench.validate")),
        ("cegis.secs", t.secs("cegis.run")),
        ("cegis.iterations", t.counter("cegis.iterations") as f64),
        ("cegis.synth.secs", t.secs("cegis.synth")),
        ("cegis.verify.secs", t.secs("cegis.verify")),
        ("verify.secs", t.secs("bench.verify")),
        ("smt.solve.count", t.count("smt.solve") as f64),
        ("sat.conflicts", t.counter("sat.conflicts") as f64),
        // outside cegis.run and the verify calls, the only solver
        // queries on a default path are the §4.3 map solver's
        ("weights.map.secs", smt_other),
        ("weights.map.solves", solves_other as f64),
    ];
    for (k, x) in from_trace {
        v.insert(k, x / n);
    }
    // values measured from outside the layer calls take precedence
    let mut outside: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (k, x) in traced.iter().flat_map(|p| &p.layers) {
        *outside.entry(k).or_default() += x;
    }
    v.extend(outside.into_iter().map(|(k, x)| (k, x / n)));
    let total = mean(traced);
    let attributed: f64 = PER_LAYER[..PARTITION - 1]
        .iter()
        .map(|(k, _, _)| v[k])
        .sum();
    v.insert("unattributed.secs", total - attributed);
    v.insert("trace.total.secs", total);
    v.insert("untraced.total.secs", mean(untraced));
    v.insert("trace.overhead", total / mean(untraced) - 1.0);
    v
}

fn print_layers(workload: &str, v: &BTreeMap<&'static str, f64>) {
    for (i, (name, unit, _)) in PER_LAYER.iter().enumerate() {
        let share = if i < PARTITION {
            format!(
                "  ({:5.1}% of the traced pass)",
                100.0 * v[name] / v["trace.total.secs"]
            )
        } else {
            String::new()
        };
        println!("[{workload}] layer {name} = {:.6} {unit}{share}", v[name]);
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload synth|adapt|datapath|all --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for w in &chosen {
        let o = run(w, &args);
        attempted += o.attempted;
        failed += o.failed;
        for (name, value, unit) in o.metrics {
            let key = if chosen.len() > 1 {
                format!("{w}.{name}")
            } else {
                name
            };
            metrics.push((key, value, unit));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
