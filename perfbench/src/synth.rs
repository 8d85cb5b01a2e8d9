//! `synth`: the solver path. One pass synthesizes the nine
//! `minimal(len_c(G0))` rows of [`ROWS`] with the default synthesis
//! configuration, then verifies the 802.3df (128,120) code: md = 3
//! holds, md = 4 fails. Synthesis is mostly satisfiable queries; the
//! md = 3 proof is one large unsatisfiable one. The inputs are fixed,
//! so the seed does not change them.

use std::hint::black_box;
use std::time::Instant;

use fec_hamming::{standards, Generator};
use fec_synth::cegis::{SynthesisConfig, Synthesizer};
use fec_synth::spec::{parse_property, Prop};
use fec_synth::verify::{verify_min_distance_exact_with, VerifyOptions, VerifyOutcome};
use fec_trace::Level;

use crate::check;
use crate::reference::{Row, ROWS};
use crate::{secs_since, Pass};

pub struct Synth {
    rows: Vec<(Row, Prop)>,
    flagship: Generator,
}

impl Synth {
    /// Parses the nine specs, builds the 802.3df generator and warms up
    /// with one full pass.
    pub fn setup() -> Synth {
        let rows: Vec<(Row, Prop)> = ROWS
            .iter()
            .map(|&row| {
                let spec = format!(
                    "len_d(G0) = {} && 2 <= len_c(G0) <= 14 && md(G0) = {} && minimal(len_c(G0))",
                    row.k, row.md
                );
                (row, parse_property(&spec).expect("benchmark spec parses"))
            })
            .collect();
        let synth = Synth {
            rows,
            flagship: standards::ieee_8023df_128_120(),
        };
        black_box(synth.pass());
        synth
    }

    pub fn pass(&self) -> Pass {
        let start = Instant::now();
        let mut results = Vec::with_capacity(self.rows.len());
        for (_, prop) in &self.rows {
            {
                let _span = fec_trace::span!(Level::Info, "bench.analyze");
                black_box(fec_analyze::analyze(
                    prop,
                    SynthesisConfig::default().default_max_check,
                ))
                .ok();
            }
            results.push(Synthesizer::new(SynthesisConfig::default()).run(prop));
        }
        let synth_s = secs_since(start);

        let t = Instant::now();
        let verdicts: Vec<_> = [3, 4]
            .into_iter()
            .map(|d| {
                let _span = fec_trace::span!(Level::Info, "bench.verify");
                verify_min_distance_exact_with(&self.flagship, d, VerifyOptions::default())
            })
            .collect();
        let verify_s = secs_since(t);

        let mut pass = Pass {
            secs: secs_since(start),
            ..Pass::default()
        };
        let mut iterations = 0;
        let mut xors = 0;
        for ((row, _), result) in self.rows.iter().zip(&results) {
            let outcome = match result {
                Ok(r) => {
                    iterations += r.iterations;
                    let g = &r.generators[0];
                    xors += fec_circ::minimize(g).xor_count();
                    check::synthesized(g, row)
                }
                Err(e) => Err(format!("k={} md={}: {e}", row.k, row.md)),
            };
            pass.op(outcome);
        }
        let [(holds, hs), (fails, fs)] = [&verdicts[0], &verdicts[1]];
        pass.op(match holds {
            VerifyOutcome::Holds => check::distance_at_least_3(&self.flagship),
            other => Err(format!("802.3df md=3: {other:?}, expected Holds")),
        });
        pass.op(match fails {
            VerifyOutcome::Fails { witness: Some(w) } => check::weight_3_witness(&self.flagship, w),
            other => Err(format!(
                "802.3df md=4: {other:?}, expected Fails with a witness"
            )),
        });

        pass.figures = vec![
            ("xors", xors as f64, "count"),
            ("synth_s", synth_s, "s"),
            ("verify_s", verify_s, "s"),
            ("cegis_iterations", iterations as f64, "count"),
            (
                "verify_conflicts",
                (hs.conflicts + fs.conflicts) as f64,
                "count",
            ),
        ];
        pass.layers = vec![
            ("verify.conflicts", (hs.conflicts + fs.conflicts) as f64),
            (
                "verify.propagations",
                (hs.propagations + fs.propagations) as f64,
            ),
            (
                "verify.solve_calls",
                (hs.solve_calls + fs.solve_calls) as f64,
            ),
        ];
        pass
    }
}
