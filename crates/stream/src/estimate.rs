//! Online burst-profile estimation at the decoder.
//!
//! The receiver cannot see the channel, but it *can* reconstruct exact
//! error vectors for every erased frame the fountain layer recovers:
//! re-encoding the recovered data word gives the true codeword, and
//! XOR with the received frame is the error pattern. The pipeline maps
//! those patterns back through the interleaver into channel order and
//! feeds them here. The profile is a run-length histogram of error
//! bursts plus per-position counts — exactly the measured quantities a
//! §4.3 weighted spec needs (`BurstProfile::to_weighted_problem`), so
//! the observed channel closes the loop back into CEGIS.

use fec_gf2::BitVec;
use fec_synth::weights::{WeightedGenSpec, WeightedProblem};

/// Positions fold into this many buckets before any word-length fold;
/// 64 is a multiple of every word length the pipeline deploys.
const POS_BUCKETS: usize = 64;

/// A run-length histogram of decoder-observed channel error bursts.
#[derive(Clone, Debug, Default)]
pub struct BurstProfile {
    /// Channel bits covered by observations (including error-free ones).
    pub bits_observed: u64,
    /// Total bit errors observed.
    pub bit_errors: u64,
    /// Completed error bursts (maximal runs of consecutive error bits
    /// in channel order).
    pub bursts: u64,
    /// `run_hist[l-1]` = bursts of length `l` (last bucket = `≥ 64`).
    pub run_hist: Vec<u64>,
    /// Error counts folded by channel position mod 64 (re-folded by
    /// word length when building weights).
    pub position_errors: Vec<u64>,
    /// A run still open at the end of the last observation (bursts are
    /// allowed to span contiguous observations).
    open_run: u64,

    // -- frame-level erasure evidence -------------------------------
    // Bit-level vectors exist only for frames whose truth the decoder
    // reconstructed; an under-provisioned probe therefore sees mostly
    // the quiet channel (survivorship bias). The erasure *indicator*
    // sequence has no such bias: the decoder always knows which frames
    // its inner code rejected, and clustered erasures are the
    // unmistakable fingerprint of a burst channel.
    /// Channel bits per frame (set by the pipeline; 0 = unknown).
    pub frame_bits: u64,
    /// Frames whose syndrome verdict was observed.
    pub frames_observed: u64,
    /// Frames the inner code rejected.
    pub frame_erasures: u64,
    /// Completed maximal runs of consecutive erased frames.
    pub erasure_clusters: u64,
    /// `erasure_run_hist[l-1]` = clusters of `l` frames (last = `≥ 16`).
    pub erasure_run_hist: Vec<u64>,
    /// Erased frames whose error vector stayed unknown (unrecovered).
    pub unknown_frames: u64,
    /// Flips across erased frames whose truth *was* reconstructed …
    pub erased_truth_flips: u64,
    /// … and how many such frames there were.
    pub erased_truth_frames: u64,
    open_erasure: u64,
}

impl BurstProfile {
    pub fn new() -> BurstProfile {
        BurstProfile {
            run_hist: vec![0; 64],
            position_errors: vec![0; POS_BUCKETS],
            erasure_run_hist: vec![0; 16],
            ..Default::default()
        }
    }

    fn close_run(&mut self) {
        if self.open_run > 0 {
            let bucket = (self.open_run as usize).min(64) - 1;
            self.run_hist[bucket] += 1;
            self.bursts += 1;
            self.open_run = 0;
        }
    }

    /// Feeds one contiguous stretch of channel-order error bits
    /// (`true` = that channel bit was flipped). Stretches are assumed
    /// contiguous with the previous call, so bursts may span calls.
    pub fn observe(&mut self, errors: impl IntoIterator<Item = bool>) {
        for e in errors {
            if e {
                self.observe_error();
            } else {
                self.observe_clean(1);
            }
        }
    }

    /// [`BurstProfile::observe_gapped`] over packed channel-order
    /// vectors: bit `o` of `errors` is the error status of channel bit
    /// `o`, which is known where bit `o` of `known` is set (errors
    /// outside it are ignored). Runs in O(len/64 + errors + gap
    /// edges): each error-free stretch of known bits is one clean-run
    /// step, and each gap one discontinuity.
    pub(crate) fn observe_known(&mut self, errors: &BitVec, known: &BitVec) {
        assert_eq!(errors.len(), known.len(), "observe_known: length mismatch");
        let len = known.len();
        let mut ones = errors.iter_ones().peekable();
        let mut at = next_bit(known, 0, true);
        if at > 0 {
            self.discontinuity();
        }
        while at < len {
            let end = next_bit(known, at, false);
            while let Some(o) = ones.next_if(|&o| o < end) {
                if o >= at {
                    self.observe_clean((o - at) as u64);
                    self.observe_error();
                    at = o + 1;
                }
            }
            self.observe_clean((end - at) as u64);
            if end < len {
                self.discontinuity();
            }
            at = next_bit(known, end, true);
        }
    }

    fn observe_error(&mut self) {
        let pos = (self.bits_observed % POS_BUCKETS as u64) as usize;
        self.bits_observed += 1;
        self.bit_errors += 1;
        self.position_errors[pos] += 1;
        self.open_run += 1;
    }

    /// `len` error-free bits: any open run ends.
    fn observe_clean(&mut self, len: u64) {
        if len > 0 {
            self.close_run();
            self.bits_observed += len;
        }
    }

    /// Declares a discontinuity (e.g. frames whose error pattern is
    /// unknown because they stayed erased): any open run is closed.
    pub fn discontinuity(&mut self) {
        self.close_run();
    }

    fn close_erasure(&mut self) {
        if self.open_erasure > 0 {
            let bucket = (self.open_erasure as usize).min(16) - 1;
            self.erasure_run_hist[bucket] += 1;
            self.erasure_clusters += 1;
            self.open_erasure = 0;
        }
    }

    /// Feeds the next frame's inner-code verdict, in frame order.
    /// Unlike [`BurstProfile::observe`], this channel of evidence has
    /// no survivorship bias: the syndrome verdict is known for *every*
    /// frame, recovered or not.
    pub fn observe_frame(&mut self, erased: bool) {
        self.frames_observed += 1;
        if erased {
            self.frame_erasures += 1;
            self.open_erasure += 1;
        } else {
            self.close_erasure();
        }
    }

    /// Closes any open bit-level run and erasure cluster; call once
    /// when the observed stream ends.
    pub fn finish(&mut self) {
        self.close_run();
        self.close_erasure();
    }

    /// [`BurstProfile::observe`] over a channel-order stretch with
    /// gaps: `None` marks bits whose error status is unknown (they are
    /// not counted as observed and break any open run).
    pub fn observe_gapped(&mut self, bits: impl IntoIterator<Item = Option<bool>>) {
        for b in bits {
            match b {
                Some(e) => self.observe([e]),
                None => self.discontinuity(),
            }
        }
    }

    /// Completed bursts plus a still-open trailing run.
    pub fn bursts_observed(&self) -> u64 {
        self.bursts + u64::from(self.open_run > 0)
    }

    /// Empirical bit-error rate (floored away from zero so it can
    /// serve as the `p` of a synthesis objective).
    pub fn estimated_ber(&self) -> f64 {
        if self.bits_observed == 0 {
            return 1e-6;
        }
        (self.bit_errors as f64 / self.bits_observed as f64).max(1e-9)
    }

    /// Mean completed-burst length in bits (0 when none).
    pub fn mean_burst(&self) -> f64 {
        if self.bursts == 0 {
            return 0.0;
        }
        let total: u64 = self
            .run_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        total as f64 / self.bursts as f64
    }

    /// Bursts per observed channel bit (the burst arrival rate).
    pub fn burst_rate(&self) -> f64 {
        if self.bits_observed == 0 {
            return 0.0;
        }
        self.bursts_observed() as f64 / self.bits_observed as f64
    }

    /// Fraction of observed frames the inner code rejected.
    pub fn erasure_rate(&self) -> f64 {
        if self.frames_observed == 0 {
            return 0.0;
        }
        self.frame_erasures as f64 / self.frames_observed as f64
    }

    /// Mean completed erasure-cluster length in frames (0 when none).
    pub fn mean_erasure_run(&self) -> f64 {
        if self.erasure_clusters == 0 {
            return 0.0;
        }
        let total: u64 = self
            .erasure_run_hist
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        total as f64 / self.erasure_clusters as f64
    }

    /// Erasure clusters per observed channel bit (burst arrival rate
    /// seen through the erasure channel; 0 when frame evidence is
    /// missing).
    pub fn erasure_cluster_rate(&self) -> f64 {
        let bits = self.frames_observed * self.frame_bits;
        if bits == 0 {
            return 0.0;
        }
        self.erasure_clusters as f64 / bits as f64
    }

    /// `true` when errors cluster. Two independent witnesses, either
    /// suffices: recovered-frame error vectors show multi-bit runs, or
    /// the (bias-free) erasure-run lengths exceed what *independent*
    /// frame erasures at the same rate would produce — a geometric run
    /// law with mean `1/(1-e)` — by a clear margin.
    pub fn is_bursty(&self) -> bool {
        if self.bursts >= 4 && self.mean_burst() >= 2.0 {
            return true;
        }
        if self.erasure_clusters >= 4 {
            let independent = 1.0 / (1.0 - self.erasure_rate().min(0.9));
            return self.mean_erasure_run() >= (1.4 * independent).max(1.6);
        }
        false
    }

    /// The bit-error rate a synthesis objective should design against.
    /// [`BurstProfile::estimated_ber`] averages over known bits and is
    /// dominated by the quiet channel; what decides detection strength
    /// is the error density *inside* the frames that get hit, so this
    /// takes the worse of the average and the conditional density over
    /// erased frames whose truth was reconstructed.
    pub fn design_ber(&self) -> f64 {
        let base = self.estimated_ber();
        if self.erased_truth_frames > 0 && self.frame_bits > 0 {
            let cond = self.erased_truth_flips as f64
                / (self.erased_truth_frames * self.frame_bits) as f64;
            base.max(cond)
        } else {
            base
        }
    }

    /// Converts the measured profile into a §4.3 weighted spec over
    /// `word_len`-bit words: per-position weights are the folded error
    /// counts normalized to `[1, 100]` (uniform 100s when nothing was
    /// observed), and the objective's `p` is [`BurstProfile::design_ber`].
    pub fn to_weighted_problem(
        &self,
        word_len: usize,
        gens: Vec<WeightedGenSpec>,
        initial_bound: f64,
    ) -> WeightedProblem {
        let mut folded = vec![0u64; word_len];
        for (i, &n) in self.position_errors.iter().enumerate() {
            folded[i % word_len] += n;
        }
        let max = folded.iter().copied().max().unwrap_or(0);
        let weights: Vec<f64> = if max == 0 {
            vec![100.0; word_len]
        } else {
            folded
                .iter()
                .map(|&n| 1.0 + 99.0 * n as f64 / max as f64)
                .collect()
        };
        WeightedProblem {
            weights,
            gens,
            bit_error_rate: self.design_ber(),
            initial_bound,
        }
    }
}

/// The first position `≥ from` whose bit in `v` equals `value`, or
/// `v.len()` when there is none.
fn next_bit(v: &BitVec, from: usize, value: bool) -> usize {
    let words = v.words();
    let flip = if value { 0 } else { u64::MAX };
    let mut w = from / 64;
    let Some(&first) = words.get(w) else {
        return v.len();
    };
    let mut bits = (first ^ flip) & (u64::MAX << (from % 64));
    loop {
        if bits != 0 {
            return (w * 64 + bits.trailing_zeros() as usize).min(v.len());
        }
        w += 1;
        match words.get(w) {
            Some(&word) => bits = word ^ flip,
            None => return v.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_counted_across_observation_boundaries() {
        let mut p = BurstProfile::new();
        p.observe([false, true, true]);
        p.observe([true, false, false]); // continues the run → one burst of 3
        p.observe([true, true]); // still open
        assert_eq!(p.bursts, 1);
        assert_eq!(p.bursts_observed(), 2); // open trailing run counts
        assert_eq!(p.run_hist[2], 1); // length 3
        assert_eq!(p.bit_errors, 5);
        assert_eq!(p.bits_observed, 8);
        p.discontinuity();
        assert_eq!(p.bursts, 2);
        assert_eq!(p.run_hist[1], 1); // the trailing length-2 run
    }

    /// A sparse, bursty error pattern: short bursts at a low rate, with
    /// the first and last bit forced to an error now and then so runs
    /// start and end exactly at call boundaries.
    fn sparse_pattern(rng: &mut proptest::TestRng, len: usize) -> Vec<bool> {
        let mut bits = vec![false; len];
        let mut i = 0;
        while i < len {
            if rng.below(40) == 0 {
                let burst = 1 + rng.below(8) as usize;
                bits[i..len.min(i + burst)].fill(true);
                i += burst;
            }
            i += 1;
        }
        if len > 0 && rng.below(3) == 0 {
            bits[0] = true;
        }
        if len > 0 && rng.below(3) == 0 {
            bits[len - 1] = true;
        }
        bits
    }

    #[test]
    fn sparse_feed_matches_bit_by_bit_observe() {
        let mut rng = proptest::TestRng::deterministic("profile_sparse_feed");
        // (run spans a call boundary, run ends exactly at one, trailing
        // open run at the end, discontinuity between calls)
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            let (mut dense, mut sparse) = (BurstProfile::new(), BurstProfile::new());
            let mut prev_last = false;
            for _ in 0..1 + rng.below(6) {
                let len = rng.below(300) as usize;
                let bits = sparse_pattern(&mut rng, len);
                if let (Some(&first), true) = (bits.first(), prev_last) {
                    seen[usize::from(!first)] += 1;
                }
                dense.observe(bits.iter().copied());
                sparse.observe_known(&BitVec::from_bools(&bits), &BitVec::ones(len));
                if len > 0 {
                    prev_last = bits[len - 1];
                }
                if rng.below(4) == 0 {
                    seen[3] += usize::from(prev_last);
                    dense.discontinuity();
                    sparse.discontinuity();
                    prev_last = false;
                }
                assert_eq!(format!("{dense:?}"), format!("{sparse:?}"));
            }
            seen[2] += usize::from(prev_last);
            assert_eq!(dense.bursts_observed(), sparse.bursts_observed());
            dense.finish();
            sparse.finish();
            assert_eq!(format!("{dense:?}"), format!("{sparse:?}"));
        }
        assert!(seen.iter().all(|&n| n > 0), "scenario coverage {seen:?}");
    }

    /// A known-mask with gaps of 1..100 bits, adjacent gaps (a
    /// one-bit known stretch between two), and gaps that touch either
    /// end of the stretch now and then.
    fn gap_pattern(rng: &mut proptest::TestRng, len: usize) -> Vec<bool> {
        let mut known = vec![true; len];
        let mut i = 0;
        while i < len {
            if rng.below(60) == 0 {
                let gap = 1 + rng.below(100) as usize;
                known[i..len.min(i + gap)].fill(false);
                i += gap + usize::from(rng.below(3) == 0);
            }
            i += 1;
        }
        if len > 0 && rng.below(3) == 0 {
            let gap = len.min(1 + rng.below(8) as usize);
            known[..gap].fill(false);
        }
        if len > 0 && rng.below(3) == 0 {
            let gap = len.min(1 + rng.below(8) as usize);
            known[len - gap..].fill(false);
        }
        known
    }

    #[test]
    fn masked_feed_matches_observe_gapped() {
        let mut rng = proptest::TestRng::deterministic("profile_masked_feed");
        // (gap at a call's start, gap at its end, error next to a gap,
        // run open across a call boundary)
        let mut seen = [0usize; 4];
        for _ in 0..400 {
            let (mut dense, mut masked) = (BurstProfile::new(), BurstProfile::new());
            for _ in 0..1 + rng.below(6) {
                let len = rng.below(400) as usize;
                let errors = sparse_pattern(&mut rng, len);
                let known = gap_pattern(&mut rng, len);
                if len > 0 {
                    seen[0] += usize::from(!known[0]);
                    seen[1] += usize::from(!known[len - 1]);
                    seen[3] += usize::from(known[0] && errors[0] && dense.open_run > 0);
                }
                seen[2] += (1..len)
                    .filter(|&o| known[o] != known[o - 1] && errors[o] && errors[o - 1])
                    .count();
                dense.observe_gapped(known.iter().zip(&errors).map(|(&k, &e)| k.then_some(e)));
                masked.observe_known(&BitVec::from_bools(&errors), &BitVec::from_bools(&known));
                assert_eq!(format!("{dense:?}"), format!("{masked:?}"));
            }
            dense.finish();
            masked.finish();
            assert_eq!(format!("{dense:?}"), format!("{masked:?}"));
        }
        assert!(seen.iter().all(|&n| n > 0), "scenario coverage {seen:?}");
    }

    #[test]
    fn ber_and_mean_burst_match_hand_counts() {
        let mut p = BurstProfile::new();
        p.observe((0..100).map(|i| (10..14).contains(&i) || i == 50));
        p.discontinuity();
        assert_eq!(p.bit_errors, 5);
        assert!((p.estimated_ber() - 0.05).abs() < 1e-12);
        assert_eq!(p.bursts, 2);
        assert!((p.mean_burst() - 2.5).abs() < 1e-12);
        assert!(!p.is_bursty());
    }

    #[test]
    fn erasure_clustering_flags_burstiness_without_recovered_frames() {
        // 200 frames, erasures in runs of 4 every 20 frames → clearly
        // clustered, even though not a single error vector was seen.
        let mut p = BurstProfile::new();
        p.frame_bits = 128;
        for f in 0..200u64 {
            p.observe_frame(f % 20 < 4);
        }
        p.finish();
        assert_eq!(p.frame_erasures, 40);
        assert_eq!(p.erasure_clusters, 10);
        assert!((p.mean_erasure_run() - 4.0).abs() < 1e-12);
        assert!((p.erasure_rate() - 0.2).abs() < 1e-12);
        assert!(p.is_bursty(), "clustered erasures alone must flag bursty");

        // same erasure count scattered one frame at a time → not bursty
        let mut q = BurstProfile::new();
        q.frame_bits = 128;
        for f in 0..200u64 {
            q.observe_frame(f % 5 == 0);
        }
        q.finish();
        assert!((q.mean_erasure_run() - 1.0).abs() < 1e-12);
        assert!(!q.is_bursty());
    }

    #[test]
    fn design_ber_tracks_in_frame_conditional_density() {
        let mut p = BurstProfile::new();
        // quiet average: 2 errors over 10_000 known bits
        p.observe((0..10_000).map(|i| i == 3 || i == 7000));
        p.finish();
        let quiet = p.estimated_ber();
        assert!(quiet < 1e-3);
        assert_eq!(p.design_ber(), quiet, "no erased-frame evidence yet");
        // erased frames that did get reconstructed carried ~4 flips per
        // 128-bit frame → the design point must jump to that density
        p.frame_bits = 128;
        p.erased_truth_frames = 10;
        p.erased_truth_flips = 40;
        assert!((p.design_ber() - 40.0 / 1280.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_problem_reflects_positional_structure() {
        let mut p = BurstProfile::new();
        // errors always at position 3 mod 8 in a 64-bit pattern
        p.observe((0..640).map(|i| i % 8 == 3));
        p.discontinuity();
        let gens = vec![
            WeightedGenSpec {
                check_len: 5,
                min_distance: 3,
            },
            WeightedGenSpec {
                check_len: 1,
                min_distance: 2,
            },
        ];
        let w = p.to_weighted_problem(8, gens.clone(), 1000.0);
        assert_eq!(w.weights.len(), 8);
        assert_eq!(w.weights[3], 100.0);
        for j in [0, 1, 2, 4, 5, 6, 7] {
            assert_eq!(w.weights[j], 1.0);
        }
        assert!((w.bit_error_rate - 0.125).abs() < 1e-9);

        // nothing observed → uniform weights, floored BER
        let empty = BurstProfile::new().to_weighted_problem(8, gens, 1000.0);
        assert!(empty.weights.iter().all(|&x| x == 100.0));
        assert!(empty.bit_error_rate <= 1e-6);
    }
}
