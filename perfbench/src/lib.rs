//! End-to-end and per-layer benchmark of the FEC synthesis workspace's
//! default paths. See `README.md` beside this crate for the workloads,
//! the metrics and how the layers add up.

#![forbid(unsafe_code)]

pub mod adapt;
pub mod check;
pub mod datapath;
pub mod reference;
pub mod stats;
pub mod synth;
pub mod trace;

/// The end-to-end metrics of a `--trace 0` run, on every workload:
/// `(name, unit, better)`. `pass_s` is the median wall time of one
/// closed-loop pass; `setup_s` the median of the run's set-ups.
pub const END_TO_END: [(&str, &str, &str); 2] =
    [("pass_s", "s", "lower"), ("setup_s", "s", "lower")];

/// The per-layer metrics of a `--trace 1` run, on every workload (zero
/// where the workload leaves the layer idle), as means per traced pass.
/// The first [`PARTITION`] rows add up to `trace.total.secs`.
pub const PER_LAYER: [(&str, &str, &str); 32] = [
    ("analyze.secs", "s", "lower"),
    // cegis.run minus the smt.solve spans inside it
    ("cegis.self.secs", "s", "lower"),
    // the verify calls minus the smt.solve spans inside them
    ("verify.self.secs", "s", "lower"),
    ("smt.solve.secs", "s", "lower"),
    ("stream.run.secs", "s", "lower"),
    ("minimize.secs", "s", "lower"),
    ("emit.secs", "s", "lower"),
    ("validate.secs", "s", "lower"),
    // the traced pass minus the eight rows above
    ("unattributed.secs", "s", "lower"),
    ("trace.total.secs", "s", "lower"),
    ("untraced.total.secs", "s", "lower"),
    // trace.total.secs / untraced.total.secs - 1
    ("trace.overhead", "ratio", "lower"),
    ("cegis.secs", "s", "lower"),
    ("cegis.iterations", "count", "lower"),
    ("cegis.synth.secs", "s", "lower"),
    ("cegis.verify.secs", "s", "lower"),
    ("verify.secs", "s", "lower"),
    ("verify.conflicts", "count", "lower"),
    ("verify.propagations", "count", "lower"),
    ("verify.solve_calls", "count", "lower"),
    ("smt.solve.count", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("weights.map.secs", "s", "lower"),
    ("weights.map.solves", "count", "lower"),
    ("packet.secs", "s", "lower"),
    ("fountain.encode.secs", "s", "lower"),
    ("fountain.recover.secs", "s", "lower"),
    ("kernel.secs", "s", "lower"),
    ("kernel.circuit.mwords_s", "Mwords/s", "higher"),
    ("channel.secs", "s", "lower"),
    ("estimate.secs", "s", "lower"),
    // stream.run.secs minus the six stream layer rows above
    ("stream.other.secs", "s", "lower"),
];

/// Rows of [`PER_LAYER`] that partition the traced pass.
pub const PARTITION: usize = 9;

/// What one closed-loop pass of a workload did.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, seconds.
    pub secs: f64,
    /// Operations attempted (a synthesis job, a verify query, a stream
    /// run, one generator's emit-and-validate, ...).
    pub attempted: u64,
    /// One reason per failed operation.
    pub failures: Vec<String>,
    /// The pass's named end-to-end figures: `(name, value, unit)`. Every
    /// workload reports `xors`, the total XOR count of the minimized
    /// encoders of the codes the pass produced or deployed.
    pub figures: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values measured from outside the layer's calls.
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Records the outcome of one operation.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
