//! `adapt`: one `fec_stream::run_adaptive` call with the default
//! `AdaptConfig` on a seed-derived 16 KiB payload — what
//! `fecsynth stream --adapt --seed=N` runs. It is the only default path
//! through §4.3 weighted synthesis.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fec_stream::{
    deterministic_payload, run_adaptive, run_stream, synthesize_adapted, AdaptConfig, StreamConfig,
};

use crate::reference::{sum_w, sum_w_ratio, ADAPT_GENS};
use crate::{check, secs_since, Pass};

/// Payload bytes per call, as `fecsynth stream` uses by default.
pub const PAYLOAD_BYTES: usize = 16 * 1024;

/// Synthesis budget of the warm-up. A warm-up with the default budget
/// would cost the whole 20 s of a pass.
const WARM_UP_BUDGET: Duration = Duration::from_secs(1);

pub struct Adapt {
    payload: Vec<u8>,
    base: StreamConfig,
    config: AdaptConfig,
}

impl Adapt {
    /// Generates the payload and the static 802.3df configuration from
    /// `seed`, and warms up with the first two steps of `run_adaptive`:
    /// the static probe stream over the first half of the payload, then
    /// the adaptation from its profile with a 1 s synthesis budget.
    pub fn setup(seed: u64) -> Adapt {
        let payload = deterministic_payload(PAYLOAD_BYTES, seed);
        let base = StreamConfig::static_8023df(seed);
        let probe = run_stream(&payload[..PAYLOAD_BYTES / 2], &base);
        let warm_up = AdaptConfig {
            timeout: WARM_UP_BUDGET,
            ..AdaptConfig::default()
        };
        black_box(synthesize_adapted(&probe.profile, &warm_up)).ok();
        Adapt {
            payload,
            base,
            config: AdaptConfig::default(),
        }
    }

    pub fn pass(&self) -> Pass {
        let start = Instant::now();
        let result = run_adaptive(&self.payload, &self.base, &self.config);
        let mut pass = Pass {
            secs: secs_since(start),
            ..Pass::default()
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                pass.op(Err(format!("run_adaptive: {e}")));
                return pass;
            }
        };
        let adapted = &out.adapted;
        let problem = out
            .probe
            .profile
            .to_weighted_problem(self.config.word_len, Vec::new(), 0.0);
        let p = problem.bit_error_rate;
        let achieved = sum_w(&problem.weights, ADAPT_GENS, p, &adapted.map);
        let ratio = sum_w_ratio(&problem.weights, ADAPT_GENS, p, &adapted.map);
        let static_loss = out.static_replay.stats.residual_loss();
        let adapted_loss = out.adapted_replay.stats.residual_loss();
        pass.op(
            check::adapted_code(&adapted.code, ADAPT_GENS).and_then(|()| {
                if (achieved - adapted.sum_w).abs() > 1e-9 * achieved.max(1.0) {
                    Err(format!(
                        "reported sum_w {} but the map gives {achieved}",
                        adapted.sum_w
                    ))
                } else if adapted_loss >= static_loss {
                    Err(format!(
                        "adapted residual {adapted_loss} not below static {static_loss}"
                    ))
                } else {
                    Ok(())
                }
            }),
        );
        let xors: usize = adapted
            .code
            .segments()
            .iter()
            .map(|s| fec_circ::minimize(&s.generator).xor_count())
            .sum();
        pass.figures = vec![
            ("xors", xors as f64, "count"),
            ("adapt_s", pass.secs, "s"),
            ("sum_w_ratio", ratio, "ratio"),
            ("sum_w", achieved, "1"),
            ("sum_w_optimum", achieved / ratio, "1"),
            ("residual_loss", adapted_loss, "ratio"),
            ("static_residual_loss", static_loss, "ratio"),
            ("synthesis_iterations", adapted.iterations as f64, "count"),
        ];
        pass
    }
}
