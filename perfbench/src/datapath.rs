//! `datapath`: the solver-free path. One pass streams a seed-derived
//! 1 MiB payload through `fec_stream::run_stream` with the static
//! 802.3df configuration over the bursty Gilbert–Elliott channel, then
//! minimizes, emits (C and Rust) and validates the encoder of every
//! named standard generator — the `emit --minimize` path.

use std::hint::black_box;
use std::time::Instant;

use fec_channel::burst::{BlockInterleaver, GeState};
use fec_circ::{
    emit_c_circuit, emit_rust_circuit, validate_source, CircuitKernel, Lang, Minimized, Report,
};
use fec_gf2::BitVec;
use fec_hamming::{standards, Generator};
use fec_stream::fountain::{encode_repairs, recover_generation, repair_mask};
use fec_stream::{
    deterministic_payload, run_stream, sub_seed, BurstProfile, Packetizer, StreamConfig,
    StreamOutcome,
};
use fec_trace::Level;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::{check, secs_since, Pass};

/// Payload bytes per pass.
pub const PAYLOAD_BYTES: usize = 1 << 20;

/// Random data words per generator on which the minimized circuit is
/// compared with the matrix.
const CIRCUIT_TRIALS: usize = 64;

/// Domain of the seed for the erasure pattern of the fountain probe.
const ERASURE_DOMAIN: u64 = 0xE1;

/// The named standard generators the codegen sweep covers.
fn generators() -> Vec<(&'static str, Generator)> {
    vec![
        ("hamming_7_4", standards::hamming_7_4()),
        ("hamming_extended_8_4", standards::hamming_extended_8_4()),
        ("parity_16", standards::parity_code(16)),
        (
            "shortened_hamming_32_6",
            standards::shortened_hamming(32, 6).expect("(38,32) shortened Hamming"),
        ),
        (
            "shortened_hamming_57_7",
            standards::shortened_hamming(57, 7).expect("(64,57) shortened Hamming"),
        ),
        ("paper_g4_5", standards::paper_g4_5()),
        ("ieee_8023df_128_120", standards::ieee_8023df_128_120()),
    ]
}

pub struct Datapath {
    seed: u64,
    payload: Vec<u8>,
    config: StreamConfig,
    generators: Vec<(&'static str, Generator)>,
}

impl Datapath {
    /// Generates the payload and the static configuration from `seed`,
    /// and warms up with one full pass.
    pub fn setup(seed: u64) -> Datapath {
        let d = Datapath {
            seed,
            payload: deterministic_payload(PAYLOAD_BYTES, seed),
            config: StreamConfig::static_8023df(seed),
            generators: generators(),
        };
        black_box(d.pass(false));
        d
    }

    /// Minimizes, emits and validates the encoder of every generator.
    fn sweep(&self) -> Vec<(Minimized, [Report; 2])> {
        self.generators
            .iter()
            .map(|(_, g)| {
                let m = {
                    let _span = fec_trace::span!(Level::Info, "bench.minimize");
                    fec_circ::minimize(g)
                };
                let sources = {
                    let _span = fec_trace::span!(Level::Info, "bench.emit");
                    [
                        (emit_c_circuit(&m.circuit), Lang::C),
                        (emit_rust_circuit(&m.circuit), Lang::Rust),
                    ]
                };
                let reports = {
                    let _span = fec_trace::span!(Level::Info, "bench.validate");
                    sources.map(|(src, lang)| validate_source(&src, lang, g))
                };
                (m, reports)
            })
            .collect()
    }

    /// One pass; with `probe`, also times the stream layers one by one
    /// after the pass (outside its wall time).
    pub fn pass(&self, probe: bool) -> Pass {
        let start = Instant::now();
        let out = run_stream(&self.payload, &self.config);
        let stream_s = secs_since(start);
        let t = Instant::now();
        let artifacts = self.sweep();
        let emit_s = secs_since(t);
        let mut pass = Pass {
            secs: secs_since(start),
            ..Pass::default()
        };

        pass.op(check::stream_delivery(
            &self.payload,
            self.config.inner.data_len(),
            &out,
        ));
        let mut xors = 0;
        let mut flagship_xors = 0;
        for ((name, g), (m, reports)) in self.generators.iter().zip(&artifacts) {
            xors += m.xor_count();
            if g.codeword_len() == 128 {
                flagship_xors = m.xor_count();
            }
            pass.op(if let Some(bad) = reports.iter().find(|r| !r.is_valid()) {
                Err(format!("{name}: emitted source rejected: {:?}", bad.diags))
            } else {
                check::circuit_matches_matrix(&m.circuit, g, self.seed, CIRCUIT_TRIALS)
                    .map_err(|e| format!("{name}: {e}"))
            });
        }
        pass.figures = vec![
            ("xors", xors as f64, "count"),
            ("stream_s", stream_s, "s"),
            ("stream_mb_s", PAYLOAD_BYTES as f64 / 1e6 / stream_s, "MB/s"),
            ("emit_s", emit_s, "s"),
            ("residual_loss", out.stats.residual_loss(), "ratio"),
            ("corrupted_words", out.stats.corrupted_words as f64, "count"),
            ("xors_8023df", flagship_xors as f64, "count"),
        ];
        if probe {
            pass.layers = self.probe_layers(&out, stream_s);
        }
        pass
    }

    /// Encode throughput of the minimized 802.3df kernel over the
    /// frames of one pass, in million words per second.
    pub fn encode_mwords_s(&self) -> f64 {
        let frames = self.frames().frames;
        let (_, secs) = encode_checks(&frames);
        frames.len() as f64 / secs / 1e6
    }

    /// The frames `run_stream` sends for the payload — each
    /// generation's data words followed by its repair words — with the
    /// seconds packetizing and fountain encoding took.
    fn frames(&self) -> Frames {
        let cfg = &self.config;
        let t = Instant::now();
        let words = Packetizer::new(cfg.inner.data_len()).packetize(&self.payload);
        let packet_s = secs_since(t);
        let mut fountain_encode_s = 0.0;
        let mut frames: Vec<BitVec> = Vec::new();
        for (g, chunk) in words.chunks(cfg.gen_size).enumerate() {
            let t = Instant::now();
            let repairs = encode_repairs(chunk, mask_seed(cfg), g as u64, cfg.repair);
            fountain_encode_s += secs_since(t);
            frames.extend(chunk.iter().cloned());
            frames.extend(repairs);
        }
        Frames {
            words,
            frames,
            packet_s,
            fountain_encode_s,
        }
    }

    /// Times the stream layers one at a time, from outside, over the
    /// same payload and channel seed as the pass; `stream.other.secs`
    /// is what `run_stream` spent beyond them (receiver checks,
    /// assembly, audit).
    fn probe_layers(&self, out: &StreamOutcome, stream_s: f64) -> Vec<(&'static str, f64)> {
        let cfg = &self.config;
        let (k, n) = (cfg.inner.data_len(), cfg.inner.codeword_len());
        let Frames {
            words,
            frames,
            packet_s,
            fountain_encode_s,
        } = self.frames();
        let (checks, kernel_s) = encode_checks(&frames);
        let codewords: Vec<BitVec> = frames
            .iter()
            .zip(&checks)
            .map(|(f, &c)| f.concat(&BitVec::from_u128(u128::from(c), n - k)))
            .collect();

        let il = BlockInterleaver::new(cfg.depth, n);
        let mut state = GeState::Good;
        let mut rng = SmallRng::seed_from_u64(sub_seed(cfg.seed, 2));
        let mut channel_s = 0.0;
        let mut errors: Vec<BitVec> = Vec::new();
        for block in codewords.chunks(cfg.depth) {
            let t = Instant::now();
            let mut logical = BitVec::zeros(block.len() * n);
            for (f, cw) in block.iter().enumerate() {
                for i in cw.iter_ones() {
                    logical.set(f * n + i, true);
                }
            }
            let sent = il.interleave_partial(&logical);
            channel_s += secs_since(t);
            let mut tx = sent.clone();
            let t = Instant::now();
            cfg.channel.transmit(&mut rng, &mut state, &mut tx);
            black_box(il.deinterleave_partial(&tx));
            channel_s += secs_since(t);
            tx ^= &sent;
            errors.push(tx);
        }

        let t = Instant::now();
        let mut profile = BurstProfile::new();
        for e in &errors {
            profile.observe_gapped((0..e.len()).map(|i| Some(e.get(i))));
        }
        profile.finish();
        let estimate_s = secs_since(t);

        // erase frames independently at the pass's measured erasure rate
        let rate = out.stats.erased_frames as f64 / out.stats.frames.max(1) as f64;
        let mut rng = SmallRng::seed_from_u64(sub_seed(self.seed, ERASURE_DOMAIN));
        let mut fountain_recover_s = 0.0;
        for (g, chunk) in words.chunks(cfg.gen_size).enumerate() {
            let mut data: Vec<Option<BitVec>> = chunk
                .iter()
                .map(|w| (!rng.random_bool(rate)).then(|| w.clone()))
                .collect();
            let repairs: Vec<(u64, Option<BitVec>)> =
                encode_repairs(chunk, mask_seed(cfg), g as u64, cfg.repair)
                    .into_iter()
                    .enumerate()
                    .map(|(r, w)| {
                        let mask = repair_mask(chunk.len(), mask_seed(cfg), g as u64, r + 1);
                        (mask, (!rng.random_bool(rate)).then_some(w))
                    })
                    .collect();
            let t = Instant::now();
            black_box(recover_generation(&mut data, &repairs, k));
            fountain_recover_s += secs_since(t);
        }

        let parts = [
            ("packet.secs", packet_s),
            ("fountain.encode.secs", fountain_encode_s),
            ("fountain.recover.secs", fountain_recover_s),
            ("kernel.secs", kernel_s),
            ("channel.secs", channel_s),
            ("estimate.secs", estimate_s),
        ];
        let mut layers = parts.to_vec();
        layers.extend([
            ("stream.run.secs", stream_s),
            (
                "stream.other.secs",
                stream_s - parts.iter().map(|(_, s)| s).sum::<f64>(),
            ),
            (
                "kernel.circuit.mwords_s",
                frames.len() as f64 / kernel_s / 1e6,
            ),
        ]);
        layers
    }
}

/// [`Datapath::frames`]: the packetized payload, the frames sent, and
/// the seconds packetizing and fountain encoding took.
struct Frames {
    words: Vec<BitVec>,
    frames: Vec<BitVec>,
    packet_s: f64,
    fountain_encode_s: f64,
}

/// The repair-mask seed `run_stream` derives from the config's seed.
fn mask_seed(cfg: &StreamConfig) -> u64 {
    sub_seed(cfg.seed, 1)
}

/// Check bits of every frame through the minimized 802.3df kernel, and
/// the seconds the kernel took.
fn encode_checks(frames: &[BitVec]) -> (Vec<u64>, f64) {
    let mut kernel = CircuitKernel::minimized(&standards::ieee_8023df_128_120());
    let t = Instant::now();
    let checks = frames
        .iter()
        .map(|f| kernel.encode_checks_wide(f.words()))
        .collect();
    (checks, secs_since(t))
}
