//! The streaming pipeline: packetize → fountain repair → minimized-
//! kernel inner encode → block interleave → Gilbert–Elliott channel →
//! detect-and-erase decode → fountain recovery → burst estimation.
//!
//! Sender and receiver run in one process (this is a simulation), but
//! the receiver only ever uses information it would really have: inner
//! syndromes, recovered words, and the deterministic repair masks. The
//! sender-side truth is used solely to *audit* the outcome (the
//! `corrupted_words` count — deliveries the receiver wrongly trusted).
//!
//! The datapath works on packed words, not bits. The channel draws
//! each interleaver block's error pattern in channel order, on an
//! all-zero block, and the pattern is deinterleaved and XORed onto the
//! codewords. The channel's draws and flips do not depend on the bits
//! sent, so this delivers exactly the frames that transmitting the
//! interleaved codewords would. The interleaver moves only set bits,
//! so the cost follows the number of errors, not the stream length.
//!
//! The inner code runs bitsliced, 64 frames per pass of the certified
//! minimized kernel: the sender's encode, the receiver's
//! detect-and-erase (one 64-bit invalid-frame mask per pass), and the
//! estimator's re-encode of erased frames whose truth was recovered.
//! An accepted frame is never re-encoded: it re-encodes to exactly what
//! arrived. The estimator feeds each block's channel-order error and
//! known-bit vectors in O(len/64 + errors + gap edges).
//!
//! Every stage is allocation-light and memory-ordering-free: frames
//! are processed strictly in sequence, the only cross-frame state is
//! the Gilbert–Elliott channel state and the interleaver's block
//! position, and all randomness derives from `StreamConfig::seed`
//! through fixed domain-separated sub-seeds — the same seed always
//! yields the bit-identical run, on any thread count.

use crate::adapt::{synthesize_adapted, AdaptConfig, AdaptedCode};
use crate::estimate::BurstProfile;
use crate::fountain::{encode_repairs, recover_generation, repair_mask};
use crate::packet::Packetizer;
use fec_channel::burst::{BlockInterleaver, GeState, GilbertElliott};
use fec_circ::{CircuitKernel, CompositeKernel};
use fec_gf2::BitVec;
use fec_hamming::{standards, CompositeCode, Generator};
use fec_synth::cegis::SynthError;
use fec_trace::Level;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Domain-separated sub-seed derivation (splitmix64 finalizer), so the
/// channel, the repair masks, and payload generation never share a
/// stream.
pub fn sub_seed(seed: u64, domain: u64) -> u64 {
    let mut z = seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-random payload for smoke tests and benches.
pub fn deterministic_payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0));
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// The inner (per-frame) code: one synthesized generator or a §4.3
/// composite ensemble. Encode/decode always run on the certified
/// minimized kernels, never the naive matrix multiply.
#[derive(Clone, Debug)]
pub enum InnerCode {
    Single(Generator),
    Composite(CompositeCode),
}

impl InnerCode {
    pub fn data_len(&self) -> usize {
        match self {
            InnerCode::Single(g) => g.data_len(),
            InnerCode::Composite(c) => c.data_len(),
        }
    }

    pub fn codeword_len(&self) -> usize {
        match self {
            InnerCode::Single(g) => g.codeword_len(),
            InnerCode::Composite(c) => c.codeword_len(),
        }
    }

    fn kernel(&self) -> InnerKernel {
        match self {
            InnerCode::Single(g) => InnerKernel::Single {
                kernel: CircuitKernel::minimized(g),
                k: g.data_len(),
                n: g.codeword_len(),
            },
            InnerCode::Composite(c) => InnerKernel::Composite {
                kernel: CompositeKernel::new(c),
                k: c.data_len(),
                n: c.codeword_len(),
            },
        }
    }
}

enum InnerKernel {
    Single {
        kernel: CircuitKernel,
        k: usize,
        n: usize,
    },
    Composite {
        kernel: CompositeKernel,
        k: usize,
        n: usize,
    },
}

impl InnerKernel {
    /// Encodes every frame into its codeword, 64 frames per bitsliced
    /// pass of the minimized kernel.
    fn encode(&mut self, frames: &[BitVec]) -> Vec<BitVec> {
        let mut out = Vec::with_capacity(frames.len());
        for batch in frames.chunks(64) {
            match self {
                InnerKernel::Single { kernel, k, n } => {
                    let checks = kernel.encode_checks_batch(batch);
                    out.extend(batch.iter().zip(checks).map(|(data, c)| {
                        debug_assert_eq!(data.len(), *k);
                        data.concat(&BitVec::from_u128(c as u128, *n - *k))
                    }));
                }
                InnerKernel::Composite { kernel, n, .. } => {
                    let data: Vec<u64> = batch.iter().map(|w| w.to_u128() as u64).collect();
                    let words = kernel.encode_batch(&data);
                    out.extend(
                        words[..batch.len()]
                            .iter()
                            .map(|&w| BitVec::from_u128(w as u128, *n)),
                    );
                }
            }
        }
        out
    }

    /// Whether each received codeword passes its syndrome check, 64
    /// words per bitsliced pass.
    fn valid(&mut self, words: &[BitVec]) -> Vec<bool> {
        let mut out = Vec::with_capacity(words.len());
        for batch in words.chunks(64) {
            let invalid = match self {
                InnerKernel::Single { kernel, .. } => kernel.invalid_mask_batch(batch),
                InnerKernel::Composite { kernel, .. } => {
                    let words: Vec<u64> = batch.iter().map(|w| w.to_u128() as u64).collect();
                    kernel.invalid_mask_batch(&words)
                }
            };
            out.extend((0..batch.len()).map(|f| invalid >> f & 1 == 0));
        }
        out
    }

    fn data_len(&self) -> usize {
        match self {
            InnerKernel::Single { k, .. } | InnerKernel::Composite { k, .. } => *k,
        }
    }
}

/// One deployment of the pipeline.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    pub inner: InnerCode,
    /// Interleaver depth (frames per block; 1 = no interleaving).
    pub depth: usize,
    /// Fountain generation size in data words (≤ 64).
    pub gen_size: usize,
    /// Repair words per generation.
    pub repair: usize,
    /// Master seed; channel and repair masks use domain sub-seeds.
    pub seed: u64,
    pub channel: GilbertElliott,
}

impl StreamConfig {
    /// The static baseline: the 802.3df (128,120) code, a classic
    /// depth-4 interleave, and a thin fixed repair budget.
    pub fn static_8023df(seed: u64) -> StreamConfig {
        StreamConfig {
            inner: InnerCode::Single(standards::ieee_8023df_128_120()),
            depth: 4,
            gen_size: 16,
            repair: 2,
            seed,
            channel: GilbertElliott::bursty(),
        }
    }

    /// This config re-parameterized with a synthesized adapted code.
    pub fn with_adapted(&self, adapted: &AdaptedCode, gen_size: usize) -> StreamConfig {
        StreamConfig {
            inner: InnerCode::Composite(adapted.code.clone()),
            depth: adapted.depth,
            gen_size,
            repair: adapted.repair,
            seed: self.seed,
            channel: self.channel,
        }
    }
}

/// Aggregate counters for one stream run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Data words carried (packets in).
    pub data_words: u64,
    /// Total frames transmitted (data + repair).
    pub frames: u64,
    /// Channel bits transmitted.
    pub channel_bits: u64,
    /// Bits the channel actually flipped (sender-side audit).
    pub channel_flips: u64,
    /// Frames the inner code rejected (erasures).
    pub erased_frames: u64,
    /// Data frames among the erasures.
    pub erased_data_words: u64,
    /// Erased data words the fountain layer recovered.
    pub recovered_words: u64,
    /// Data words lost (reported to the caller, zero-filled in output).
    pub lost_words: u64,
    /// Deliveries the receiver wrongly trusted (silent corruption —
    /// sender-side audit; always part of residual loss).
    pub corrupted_words: u64,
    /// Bursts the decoder-side estimator observed.
    pub bursts_observed: u64,
    /// Mean fountain recovery latency, in frames, over recovered words.
    pub recovery_latency_mean: f64,
    /// Worst-case recovery latency in frames.
    pub recovery_latency_max: u64,
    /// Most erased frames seen in a single generation.
    pub max_generation_erasures: u64,
}

impl StreamStats {
    /// Fraction of data words not delivered intact: lost (reported) +
    /// corrupted (silent).
    pub fn residual_loss(&self) -> f64 {
        (self.lost_words + self.corrupted_words) as f64 / self.data_words.max(1) as f64
    }

    /// Channel bits per payload bit (inner + outer redundancy).
    pub fn overhead(&self, word_len: usize) -> f64 {
        self.channel_bits as f64 / (self.data_words.max(1) * word_len as u64) as f64
    }
}

/// Everything a stream run produces.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The delivered byte stream (lost words zero-filled).
    pub bytes: Vec<u8>,
    /// Indices of data words that were lost — *reported*, never
    /// silently wrong.
    pub lost_words: Vec<usize>,
    pub stats: StreamStats,
    /// The decoder's measured channel profile, ready for adaptation.
    pub profile: BurstProfile,
}

/// What the receiver knows of one frame's channel errors.
enum FrameErrors {
    /// Accepted by the inner code: the error vector is zero.
    Clean,
    /// Erased, truth reconstructed: the error vector.
    Seen(BitVec),
    /// Erased and never reconstructed.
    Unknown,
}

enum FrameKind {
    /// Data word with this stream-wide index.
    Data(usize),
    /// Repair word `r` (1-based) of this generation.
    Repair(usize, usize),
}

/// Runs the full pipeline over `bytes` and returns the delivered
/// stream plus its audit.
pub fn run_stream(bytes: &[u8], cfg: &StreamConfig) -> StreamOutcome {
    assert!((1..=64).contains(&cfg.gen_size), "gen_size must be 1..=64");
    let mut kernel = cfg.inner.kernel();
    let k = kernel.data_len();
    let n = cfg.inner.codeword_len();
    let pkt = Packetizer::new(k);
    let data_words = pkt.packetize(bytes);
    let d = data_words.len();
    let mask_seed = sub_seed(cfg.seed, 1);
    let channel_seed = sub_seed(cfg.seed, 2);

    let _span = fec_trace::span!(Level::Info, "stream.run",
        "data_words" => d, "word_len" => k, "codeword_len" => n,
        "depth" => cfg.depth, "gen_size" => cfg.gen_size, "repair" => cfg.repair);

    // --- sender: generations, repair words, frame sequence ---------
    let n_gens = d.div_ceil(cfg.gen_size);
    let mut frames: Vec<BitVec> = Vec::new();
    let mut kinds: Vec<FrameKind> = Vec::new();
    let mut frame_of_word = vec![0usize; d];
    let mut gen_last_frame = vec![0usize; n_gens];
    for (g, last_frame) in gen_last_frame.iter_mut().enumerate() {
        let base = g * cfg.gen_size;
        let chunk = &data_words[base..d.min(base + cfg.gen_size)];
        for (i, w) in chunk.iter().enumerate() {
            frame_of_word[base + i] = frames.len();
            frames.push(w.clone());
            kinds.push(FrameKind::Data(base + i));
        }
        for (ri, rep) in encode_repairs(chunk, mask_seed, g as u64, cfg.repair)
            .into_iter()
            .enumerate()
        {
            frames.push(rep);
            kinds.push(FrameKind::Repair(g, ri + 1));
        }
        *last_frame = frames.len().saturating_sub(1);
    }

    // --- inner encode (minimized kernels) + interleave + channel ---
    // The channel's flips and random draws do not depend on the bits
    // sent, so each block's error pattern is drawn on an all-zero
    // channel-order block and deinterleaved onto the codewords: the
    // same RNG stream and the same received frames as transmitting
    // the interleaved codewords themselves.
    let mut received = kernel.encode(&frames);
    let depth = cfg.depth.max(1);
    let il = BlockInterleaver::new(depth, n);
    let mut ge_state = GeState::Good;
    let mut rng = SmallRng::seed_from_u64(channel_seed);
    let mut blocks: Vec<(usize, usize)> = Vec::new(); // (first frame, count)
    let mut flips = 0u64;
    for start in (0..received.len()).step_by(depth) {
        let count = depth.min(received.len() - start);
        let mut errors = BitVec::zeros(count * n);
        flips += cfg.channel.transmit(&mut rng, &mut ge_state, &mut errors) as u64;
        for p in il.deinterleave_partial(&errors).iter_ones() {
            received[start + p / n].flip(p % n);
        }
        blocks.push((start, count));
    }

    // --- receiver: detect-and-erase, then fountain recovery --------
    let mut rx_words: Vec<Option<BitVec>> = Vec::with_capacity(received.len());
    let mut erased_frames = 0u64;
    let mut erased_data = 0u64;
    for (fi, (rxw, valid)) in received.iter().zip(kernel.valid(&received)).enumerate() {
        if valid {
            rx_words.push(Some(rxw.slice(0..k)));
        } else {
            erased_frames += 1;
            if matches!(kinds[fi], FrameKind::Data(_)) {
                erased_data += 1;
            }
            rx_words.push(None);
        }
    }

    let mut delivered: Vec<Option<BitVec>> = vec![None; d];
    let mut latencies: Vec<u64> = Vec::new();
    let mut max_gen_erasures = 0u64;
    for (g, &gen_last) in gen_last_frame.iter().enumerate() {
        let base = g * cfg.gen_size;
        let chunk_len = d.min(base + cfg.gen_size) - base;
        let mut gen_data: Vec<Option<BitVec>> = (0..chunk_len)
            .map(|i| rx_words[frame_of_word[base + i]].clone())
            .collect();
        let repair_eqs: Vec<(u64, Option<BitVec>)> = (1..=cfg.repair)
            .map(|r| {
                let fi = frame_of_word[base + chunk_len - 1] + r;
                (
                    repair_mask(chunk_len, mask_seed, g as u64, r),
                    rx_words[fi].clone(),
                )
            })
            .collect();
        let gen_erased = gen_data.iter().filter(|w| w.is_none()).count()
            + repair_eqs.iter().filter(|(_, w)| w.is_none()).count();
        max_gen_erasures = max_gen_erasures.max(gen_erased as u64);
        let rec = recover_generation(&mut gen_data, &repair_eqs, k);
        for &i in &rec {
            latencies.push((gen_last - frame_of_word[base + i]) as u64);
        }
        for (i, w) in gen_data.into_iter().enumerate() {
            delivered[base + i] = w;
        }
    }

    // --- decoder-side burst estimation -----------------------------
    // Each frame's error vector, from receiver knowledge only. A frame
    // the inner code accepted re-encodes to exactly what was received,
    // so its error vector is zero. An erased data frame's truth is its
    // fountain-recovered word; an erased repair frame's is recomputed
    // from its mask once the whole subset is known; these truths are
    // re-encoded together, 64 per kernel pass. Frames that stay
    // unknown become gaps in the channel-order view.
    let (seen_frames, truths): (Vec<usize>, Vec<BitVec>) = (0..frames.len())
        .filter(|&fi| rx_words[fi].is_none())
        .filter_map(|fi| {
            let truth = match kinds[fi] {
                FrameKind::Data(j) => delivered[j].clone(),
                FrameKind::Repair(g, r) => {
                    let base = g * cfg.gen_size;
                    let chunk_len = d.min(base + cfg.gen_size) - base;
                    let mask = repair_mask(chunk_len, mask_seed, g as u64, r);
                    let mut acc = BitVec::zeros(k);
                    let mut complete = true;
                    for i in 0..chunk_len {
                        if mask >> i & 1 == 1 {
                            match &delivered[base + i] {
                                Some(w) => acc ^= w,
                                None => {
                                    complete = false;
                                    break;
                                }
                            }
                        }
                    }
                    complete.then_some(acc)
                }
            };
            truth.map(|word| (fi, word))
        })
        .unzip();
    let mut frame_errors: Vec<FrameErrors> = rx_words
        .iter()
        .map(|w| match w {
            Some(_) => FrameErrors::Clean,
            None => FrameErrors::Unknown,
        })
        .collect();
    for (fi, mut e) in seen_frames.into_iter().zip(kernel.encode(&truths)) {
        e ^= &received[fi];
        frame_errors[fi] = FrameErrors::Seen(e);
    }
    let mut profile = BurstProfile::new();
    profile.frame_bits = n as u64;
    // Frame-order erasure evidence first: the syndrome verdict is
    // known for every frame, so this channel has no survivorship bias
    // even when recovery fails. Reconstructed erased frames also yield
    // the conditional in-frame error density the design BER needs.
    for (fi, errors) in frame_errors.iter().enumerate() {
        profile.observe_frame(rx_words[fi].is_none());
        match errors {
            FrameErrors::Clean => {}
            FrameErrors::Seen(e) => {
                profile.erased_truth_frames += 1;
                profile.erased_truth_flips += e.count_ones() as u64;
            }
            FrameErrors::Unknown => profile.unknown_frames += 1,
        }
    }
    // Then the bit-level view, block by block in channel order: the
    // bits of unknown frames are gaps, and each block costs
    // O(len/64 + errors + bits of unknown frames).
    for &(first, count) in &blocks {
        let mut err = BitVec::zeros(count * n);
        let mut gaps = BitVec::zeros(count * n);
        for (f, errors) in frame_errors[first..first + count].iter().enumerate() {
            match errors {
                FrameErrors::Clean => {}
                FrameErrors::Seen(e) => e.iter_ones().for_each(|i| err.set(f * n + i, true)),
                FrameErrors::Unknown => (f * n..(f + 1) * n).for_each(|p| gaps.set(p, true)),
            }
        }
        let mut known = BitVec::ones(count * n);
        known ^= &il.interleave_partial(&gaps);
        profile.observe_known(&il.interleave_partial(&err), &known);
    }
    profile.finish();

    // --- deliver + audit -------------------------------------------
    let mut lost: Vec<usize> = Vec::new();
    let mut corrupted = 0u64;
    let mut out_words: Vec<BitVec> = Vec::with_capacity(d);
    for (j, w) in delivered.iter().enumerate() {
        match w {
            Some(w) => {
                if *w != data_words[j] {
                    corrupted += 1; // sender-side audit only
                }
                out_words.push(w.clone());
            }
            None => {
                lost.push(j);
                out_words.push(BitVec::zeros(k));
            }
        }
    }
    let bytes_out = pkt.depacketize(&out_words, bytes.len());

    let recovered = latencies.len() as u64;
    let stats = StreamStats {
        data_words: d as u64,
        frames: frames.len() as u64,
        channel_bits: (frames.len() * n) as u64,
        channel_flips: flips,
        erased_frames,
        erased_data_words: erased_data,
        recovered_words: recovered,
        lost_words: lost.len() as u64,
        corrupted_words: corrupted,
        bursts_observed: profile.bursts_observed(),
        recovery_latency_mean: if recovered == 0 {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / recovered as f64
        },
        recovery_latency_max: latencies.iter().copied().max().unwrap_or(0),
        max_generation_erasures: max_gen_erasures,
    };

    fec_trace::counter!(Level::Info, "stream.packets_in", stats.data_words);
    fec_trace::counter!(
        Level::Info,
        "stream.packets_out",
        stats.data_words - stats.lost_words
    );
    fec_trace::counter!(Level::Info, "stream.frames_sent", stats.frames);
    fec_trace::counter!(Level::Info, "stream.erasures", stats.erased_frames);
    fec_trace::counter!(Level::Info, "stream.recovered", stats.recovered_words);
    fec_trace::counter!(Level::Info, "stream.lost", stats.lost_words);
    fec_trace::counter!(Level::Info, "stream.corrupted", stats.corrupted_words);
    fec_trace::counter!(Level::Info, "stream.bursts_observed", stats.bursts_observed);
    fec_trace::event!(Level::Info, "stream.report",
        "residual_loss" => stats.residual_loss(),
        "recovery_latency_mean" => stats.recovery_latency_mean,
        "recovery_latency_max" => stats.recovery_latency_max,
        "channel_flips" => stats.channel_flips,
        "max_generation_erasures" => stats.max_generation_erasures);

    StreamOutcome {
        bytes: bytes_out,
        lost_words: lost,
        stats,
        profile,
    }
}

/// The full adaptive experiment, in three acts on one byte stream.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// Act 1: the first half under the static code — the probe whose
    /// decoder measurements feed the synthesizer.
    pub probe: StreamOutcome,
    /// The synthesized, channel-tuned replacement.
    pub adapted: AdaptedCode,
    /// Act 2: the second half under the *static* code (control).
    pub static_replay: StreamOutcome,
    /// Act 3: the second half under the adapted code, same seed.
    pub adapted_replay: StreamOutcome,
}

/// Streams the first half of `bytes` under `base`, synthesizes an
/// adapted code from the decoder's measured profile, then streams the
/// second half under both codes for an apples-to-apples comparison.
pub fn run_adaptive(
    bytes: &[u8],
    base: &StreamConfig,
    acfg: &AdaptConfig,
) -> Result<AdaptiveOutcome, SynthError> {
    let split = bytes.len() / 2;
    let probe = run_stream(&bytes[..split], base);
    let adapted = synthesize_adapted(&probe.profile, acfg)?;
    let replay_seed = sub_seed(base.seed, 3);
    let static_cfg = StreamConfig {
        seed: replay_seed,
        ..base.clone()
    };
    let adapted_cfg = StreamConfig {
        seed: replay_seed,
        ..base.with_adapted(&adapted, acfg.gen_size)
    };
    let static_replay = run_stream(&bytes[split..], &static_cfg);
    let adapted_replay = run_stream(&bytes[split..], &adapted_cfg);
    Ok(AdaptiveOutcome {
        probe,
        adapted,
        static_replay,
        adapted_replay,
    })
}
