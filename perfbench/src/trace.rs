//! The traced run's view of the program. The benchmark installs
//! `fec-trace` with an in-memory JSONL sink and tallies, per span name,
//! total time and count, plus `smt.solve` time split by the enclosing
//! caller — the nesting that aggregated metrics lose.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Spans that own the solver queries issued inside them. `smt.solve`
/// time is attributed to the innermost enclosing one, or to `""`.
const SOLVE_CALLERS: [&str; 2] = ["cegis.run", "bench.verify"];

/// Totals gathered since the last [`SpanLog::take`].
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Σ duration (µs) and count per span name.
    spans: BTreeMap<String, (u64, u64)>,
    /// `smt.solve` Σ duration (µs) and count per enclosing caller.
    solves_in: BTreeMap<&'static str, (u64, u64)>,
    /// Counter totals per name.
    counters: BTreeMap<String, i64>,
}

impl Tally {
    /// Total seconds of the spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(us, _)| us as f64 * 1e-6)
    }

    /// Number of completed spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |&(_, n)| n)
    }

    /// `smt.solve` seconds and count inside `caller`: `cegis.run`,
    /// `bench.verify`, or `""` for outside both.
    pub fn solves_in(&self, caller: &str) -> (f64, u64) {
        self.solves_in
            .get(caller)
            .map_or((0.0, 0), |&(us, n)| (us as f64 * 1e-6, n))
    }

    /// Total of the counter `name`.
    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct Capture {
    open: HashMap<u64, Vec<String>>,
    tally: Tally,
}

impl Capture {
    fn record(&mut self, line: &str) {
        const KEPT: [&str; 3] = [
            "\"kind\": \"begin\"",
            "\"kind\": \"end\"",
            "\"kind\": \"counter\"",
        ];
        if !KEPT.iter().any(|k| line.contains(k)) {
            return;
        }
        let Ok(v) = fec_trace::parse_json(line.trim_end()) else {
            return;
        };
        let field = |k: &str| v.get(k).and_then(|x| x.as_num()).unwrap_or(0.0);
        let (Some(kind), Some(name)) = (
            v.get("kind").and_then(|x| x.as_str()),
            v.get("name").and_then(|x| x.as_str()),
        ) else {
            return;
        };
        let stack = self.open.entry(field("tid") as u64).or_default();
        match kind {
            "begin" => stack.push(name.to_string()),
            "end" => {
                // spans are RAII guards, so a thread closes them LIFO
                if stack.last().is_some_and(|top| top == name) {
                    stack.pop();
                }
                let us = field("dur_us") as u64;
                let e = self.tally.spans.entry(name.to_string()).or_default();
                e.0 += us;
                e.1 += 1;
                if name == "smt.solve" {
                    let caller = stack
                        .iter()
                        .rev()
                        .find_map(|s| SOLVE_CALLERS.iter().find(|&&c| c == s))
                        .copied()
                        .unwrap_or("");
                    let e = self.tally.solves_in.entry(caller).or_default();
                    e.0 += us;
                    e.1 += 1;
                }
            }
            _ => *self.tally.counters.entry(name.to_string()).or_default() += field("delta") as i64,
        }
    }
}

/// A `Write` sink for `fec-trace`'s JSONL records that keeps only the
/// span and counter tallies. The trace layer writes one whole record
/// per `write_all` call.
#[derive(Clone, Default)]
pub struct SpanLog(Arc<Mutex<Capture>>);

impl SpanLog {
    /// Installs the global trace collector with this log as its only
    /// sink, at full detail.
    pub fn install() -> SpanLog {
        let log = SpanLog::default();
        fec_trace::install(
            fec_trace::TraceConfig::new(fec_trace::Level::Off).jsonl_writer(Box::new(log.clone())),
        );
        log
    }

    /// The tallies since the previous call; resets them.
    pub fn take(&self) -> Tally {
        std::mem::take(&mut self.0.lock().expect("trace log poisoned").tally)
    }
}

impl Write for SpanLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Ok(line) = std::str::from_utf8(buf) {
            self.0.lock().expect("trace log poisoned").record(line);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
