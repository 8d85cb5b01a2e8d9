//! Bursty channels: the Gilbert–Elliott model and a block interleaver.
//!
//! The BSC assumes independent bit errors, but the optical/cellular
//! links that motivate FEC (paper §1) produce *bursts*. The
//! Gilbert–Elliott model is the standard two-state Markov channel:
//! a Good state with low bit-error rate and a Bad state with high one,
//! with configurable transition probabilities. Combined with the
//! [`BlockInterleaver`], it lets the experiments show *why* the
//! 802.3df stack concatenates a symbol-oriented outer code (KP4)
//! behind the inner Hamming code.

use fec_gf2::BitVec;
use rand::{Rng, RngExt};

/// A two-state Gilbert–Elliott channel.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    /// P(Good → Bad) per bit.
    pub p_gb: f64,
    /// P(Bad → Good) per bit.
    pub p_bg: f64,
    /// Bit-error rate in the Good state.
    pub ber_good: f64,
    /// Bit-error rate in the Bad state.
    pub ber_bad: f64,
}

/// Channel state carried between transmissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeState {
    Good,
    Bad,
}

impl GilbertElliott {
    /// A profile resembling a burst-prone optical link: long quiet
    /// stretches, short dense bursts.
    pub fn bursty() -> GilbertElliott {
        GilbertElliott {
            p_gb: 0.001,
            p_bg: 0.1,
            ber_good: 1e-4,
            ber_bad: 0.3,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run average bit-error rate.
    pub fn average_ber(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.ber_bad + (1.0 - pb) * self.ber_good
    }

    /// Transmits `word` in place, evolving `state`. Returns the number
    /// of flips.
    pub fn transmit<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: &mut GeState,
        word: &mut BitVec,
    ) -> usize {
        let mut flips = 0;
        for i in 0..word.len() {
            let (ber, p_leave) = match state {
                GeState::Good => (self.ber_good, self.p_gb),
                GeState::Bad => (self.ber_bad, self.p_bg),
            };
            if rng.random::<f64>() < ber {
                word.flip(i);
                flips += 1;
            }
            if rng.random::<f64>() < p_leave {
                *state = match state {
                    GeState::Good => GeState::Bad,
                    GeState::Bad => GeState::Good,
                };
            }
        }
        flips
    }
}

/// A rows × cols block interleaver: write row-major, read column-major,
/// so a burst of `b` consecutive channel bits lands in `⌈b/rows⌉`
/// different rows (codewords).
#[derive(Clone, Copy, Debug)]
pub struct BlockInterleaver {
    rows: usize,
    cols: usize,
}

impl BlockInterleaver {
    /// Creates an interleaver for `rows` codewords of `cols` bits.
    pub fn new(rows: usize, cols: usize) -> BlockInterleaver {
        assert!(rows > 0 && cols > 0);
        BlockInterleaver { rows, cols }
    }

    /// Total block size in bits.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` when the interleaver is trivial (1×1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interleaves: input bit `(r, c)` (row-major) moves to output
    /// position `c * rows + r`.
    pub fn interleave(&self, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.len(), "interleave: wrong length");
        self.interleave_partial(input)
    }

    /// The inverse permutation.
    pub fn deinterleave(&self, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.len(), "deinterleave: wrong length");
        self.deinterleave_partial(input)
    }

    /// [`BlockInterleaver::interleave`] for a final, partially filled
    /// block: any `input.len() ≤ rows·cols` is accepted. The block is
    /// read column-major as usual, skipping the cells past the input,
    /// so the result has exactly `input.len()` bits and agrees with
    /// the full permutation when the block is exactly full.
    ///
    /// With `l = q·cols + rem` (`rem < cols`), column `c` holds `q`
    /// input bits plus one more when `c < rem`, so row-major bit
    /// `(r, c)` lands at `c·q + min(c, rem) + r`. Only the set bits are
    /// moved: O(l/64 + popcount).
    pub fn interleave_partial(&self, input: &BitVec) -> BitVec {
        let l = input.len();
        assert!(l <= self.len(), "interleave_partial: input too long");
        let (q, rem) = (l / self.cols, l % self.cols);
        let mut out = BitVec::zeros(l);
        for src in input.iter_ones() {
            let (r, c) = (src / self.cols, src % self.cols);
            out.set(c * q + c.min(rem) + r, true);
        }
        out
    }

    /// The inverse of [`BlockInterleaver::interleave_partial`]: exact
    /// round-trip for every length up to `rows·cols`. Channel position
    /// `t` lies in one of the `rem` columns of `q + 1` bits when
    /// `t < rem·(q + 1)`, else in a later column of `q` bits.
    pub fn deinterleave_partial(&self, input: &BitVec) -> BitVec {
        let l = input.len();
        assert!(l <= self.len(), "deinterleave_partial: input too long");
        let (q, rem) = (l / self.cols, l % self.cols);
        let tall = rem * (q + 1);
        let mut out = BitVec::zeros(l);
        for t in input.iter_ones() {
            let (c, r) = if t < tall {
                (t / (q + 1), t % (q + 1))
            } else {
                (rem + (t - tall) / q, (t - tall) % q)
            };
            out.set(r * self.cols + c, true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn stationary_math() {
        let ge = GilbertElliott::bursty();
        let pb = ge.stationary_bad();
        assert!((pb - 0.001 / 0.101).abs() < 1e-12);
        assert!(ge.average_ber() > ge.ber_good);
        assert!(ge.average_ber() < ge.ber_bad);
    }

    #[test]
    fn empirical_ber_matches_average() {
        let ge = GilbertElliott::bursty();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut state = GeState::Good;
        let mut flips = 0usize;
        let bits_per_word = 1000;
        let words = 2_000;
        for _ in 0..words {
            let mut w = BitVec::zeros(bits_per_word);
            flips += ge.transmit(&mut rng, &mut state, &mut w);
        }
        let rate = flips as f64 / (bits_per_word * words) as f64;
        let expect = ge.average_ber();
        assert!(
            (rate - expect).abs() / expect < 0.2,
            "empirical {rate} vs stationary {expect}"
        );
    }

    #[test]
    fn errors_are_bursty_not_independent() {
        // adjacent-flip frequency must far exceed the independent-BSC
        // expectation at the same average BER
        let ge = GilbertElliott::bursty();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut state = GeState::Good;
        let mut adjacent = 0usize;
        let mut total = 0usize;
        for _ in 0..4_000 {
            let mut w = BitVec::zeros(500);
            ge.transmit(&mut rng, &mut state, &mut w);
            total += w.count_ones();
            for i in 1..w.len() {
                if w.get(i) && w.get(i - 1) {
                    adjacent += 1;
                }
            }
        }
        let p = ge.average_ber();
        let independent_expectation = 4_000.0 * 499.0 * p * p;
        assert!(
            adjacent as f64 > independent_expectation * 10.0,
            "adjacent {adjacent} vs independent {independent_expectation} (total flips {total})"
        );
    }

    #[test]
    fn interleaver_round_trips() {
        let il = BlockInterleaver::new(4, 7);
        let mut v = BitVec::zeros(28);
        for i in [0, 3, 7, 13, 20, 27] {
            v.set(i, true);
        }
        assert_eq!(il.deinterleave(&il.interleave(&v)), v);
    }

    #[test]
    fn interleaver_spreads_bursts() {
        // an 8-bit channel burst across a 8×16 interleave touches every
        // row at most once
        let il = BlockInterleaver::new(8, 16);
        let mut channel_view = BitVec::zeros(il.len());
        for i in 40..48 {
            channel_view.set(i, true); // the burst, in channel order
        }
        let logical = il.deinterleave(&channel_view);
        for r in 0..8 {
            let row = logical.slice(r * 16..(r + 1) * 16);
            assert!(row.count_ones() <= 1, "row {r} got {}", row.count_ones());
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn interleaver_length_checked() {
        BlockInterleaver::new(2, 3).interleave(&BitVec::zeros(5));
    }
}
