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
use rand::Rng;

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
    ///
    /// Each bit takes two draws, an error draw and then a transition
    /// draw, each the comparison `u < p` of a uniform `f64` sample
    /// against the current state's probability. Both are made on the
    /// integer the sample comes from (see [`draw_threshold`]), with
    /// the same outcome.
    pub fn transmit<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        state: &mut GeState,
        word: &mut BitVec,
    ) -> usize {
        // indexed by state: 0 = Good, 1 = Bad
        let ber = [self.ber_good, self.ber_bad].map(draw_threshold);
        let leave = [self.p_gb, self.p_bg].map(draw_threshold);
        let mut s = usize::from(*state == GeState::Bad);
        let mut flips = 0;
        for i in 0..word.len() {
            if rng.next_u64() >> 11 < ber[s] {
                word.flip(i);
                flips += 1;
            }
            if rng.next_u64() >> 11 < leave[s] {
                s ^= 1;
            }
        }
        *state = if s == 1 { GeState::Bad } else { GeState::Good };
        flips
    }
}

/// The integer form of the draw `u < p`. The `f64` sample is
/// `u = y·2^-53` with `y = next_u64() >> 11`, and both that product
/// and `p·2^53` are exact (scaling by a power of two), so
/// `y·2^-53 < p ⟺ y < ⌈p·2^53⌉` for every integer `y`. The cast
/// saturates, which keeps `p ≤ 0` and NaN never true and `p ≥ 1`
/// always true, as in the `f64` comparison.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
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

    /// An RNG that replays a fixed list of raw draws.
    struct Replay(std::vec::IntoIter<u64>);

    impl Rng for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replay exhausted")
        }
    }

    #[test]
    fn integer_draws_match_f64_draws() {
        use rand::RngExt;
        let ulp = f64::EPSILON / 2.0; // 2^-53
        let mut ps = vec![0.0, 1.0, ulp, 3.0 * ulp, 0.25, 1e-4, 0.001, 0.1, 0.3];
        for m in [3.0 * ulp, 0.25, 0.5] {
            ps.extend([
                f64::from_bits(m.to_bits() - 1),
                f64::from_bits(m.to_bits() + 1),
            ]);
        }
        for p in ps {
            let t = draw_threshold(p);
            // the raw draws on either side of the threshold, with
            // junk in the 11 bits the sample drops, then a random tail
            let mut raw: Vec<u64> = [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1]
                .iter()
                .filter(|&&y| y < 1 << 53)
                .flat_map(|&y| [y << 11, y << 11 | 0x7FF])
                .collect();
            let mut rng = SmallRng::seed_from_u64(p.to_bits());
            raw.extend((0..10_000).map(|_| rng.next_u64()));
            let mut float = Replay(raw.clone().into_iter());
            for &x in &raw {
                assert_eq!(
                    float.random::<f64>() < p,
                    x >> 11 < t,
                    "p = {p:e}, draw {x:#x}"
                );
            }
        }
    }

    #[test]
    fn transmit_matches_the_f64_reference() {
        use rand::RngExt;
        fn reference(
            ge: &GilbertElliott,
            rng: &mut SmallRng,
            state: &mut GeState,
            word: &mut BitVec,
        ) -> usize {
            let mut flips = 0;
            for i in 0..word.len() {
                let (ber, p_leave) = match state {
                    GeState::Good => (ge.ber_good, ge.p_gb),
                    GeState::Bad => (ge.ber_bad, ge.p_bg),
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
        let heavy = GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.2,
            ber_good: 0.01,
            ber_bad: 0.5,
        };
        for ge in [GilbertElliott::bursty(), heavy] {
            let (mut a, mut b) = (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
            let (mut sa, mut sb) = (GeState::Good, GeState::Good);
            for len in [0, 1, 63, 64, 65, 512, 4096] {
                let mut wa = BitVec::zeros(len);
                let mut wb = BitVec::zeros(len);
                assert_eq!(
                    ge.transmit(&mut a, &mut sa, &mut wa),
                    reference(&ge, &mut b, &mut sb, &mut wb)
                );
                assert_eq!((wa, sa), (wb, sb));
            }
            assert_eq!(a.next_u64(), b.next_u64(), "same number of draws");
        }
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
