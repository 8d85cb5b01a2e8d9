//! Compiled runtime kernels over validated circuits.
//!
//! `Circuit::eval` is the *testing* semantics: it re-resolves node
//! references and allocates a scratch vector on every call, which is
//! fine for spot checks and useless for datapaths that push millions
//! of words through an encoder (the Monte-Carlo robustness sweeps, the
//! streaming pipeline). [`CircuitKernel`] compiles a circuit once into
//! a flat op list over a reusable scratch buffer, so the per-word cost
//! is exactly `inputs` loads plus `xor_count` XORs — the §4.4 cost
//! model, executed literally.
//!
//! The same op list also runs *bitsliced*: the batch entry points
//! transpose up to 64 packed frames with an in-place 64×64 bit-matrix
//! transpose, so that bit `f` of input slot `i` is input `i` of frame
//! `f`, and run the op loop once. Each XOR then serves 64 frames, so
//! the per-64-frame cost is `xor_count` XORs plus one transpose per
//! 64 input bits (and one more for the check lanes when encoding).
//! Scalar and batch evaluation share the op loop and differ only in
//! how they load and store lanes, so the batch path runs exactly the
//! op list the minimizer certified.
//!
//! The intended construction path is [`CircuitKernel::minimized`],
//! which runs the certified CSE minimizer and therefore inherits its
//! guarantee: the compiled op list is provably equivalent to the
//! generator matrix. [`CompositeKernel`] lifts the same idea to
//! [`CompositeCode`] ensembles (one sub-kernel per segment plus a
//! gather map), covering the §4.3 weighted codes the stream pipeline
//! swaps in mid-flight.

use crate::ir::{Circuit, Node, Output};
use crate::minimize::minimize;
use fec_gf2::BitVec;
use fec_hamming::{CompositeCode, Generator};

/// Output slot marker for a constant-zero binding.
const ZERO: u32 = u32::MAX;

/// A circuit compiled to a flat evaluation plan with reusable scratch.
///
/// Value slots: `0..inputs` hold the data bits, `inputs + g` holds the
/// result of gate `g`. Ops are `(a, b)` slot pairs in evaluation
/// order; construction rejects the defects `Circuit` is permissive
/// about (unbound outputs, forward or out-of-range references), so
/// evaluation itself is branch-free and panic-free.
#[derive(Clone, Debug)]
pub struct CircuitKernel {
    inputs: usize,
    ops: Vec<(u32, u32)>,
    outs: Vec<u32>,
    vals: Vec<u64>,
}

impl CircuitKernel {
    /// Compiles `c` into a kernel.
    ///
    /// # Panics
    /// Panics on unbound outputs, forward/out-of-range node
    /// references, or more than 64 outputs — the same defects
    /// `validate_circuit` lints, enforced here because a compiled plan
    /// cannot represent them.
    pub fn new(c: &Circuit) -> CircuitKernel {
        let inputs = c.inputs();
        assert!(
            c.outputs().len() <= 64,
            "CircuitKernel packs outputs into a u64"
        );
        let slot = |n: Node, before_gate: usize| -> u32 {
            match n {
                Node::Input(i) => {
                    assert!((i as usize) < inputs, "kernel: input {i} out of range");
                    i
                }
                Node::Gate(g) => {
                    assert!((g as usize) < before_gate, "kernel: forward gate reference");
                    inputs as u32 + g
                }
            }
        };
        let ops: Vec<(u32, u32)> = c
            .gates()
            .iter()
            .enumerate()
            .map(|(gi, gate)| (slot(gate.a, gi), slot(gate.b, gi)))
            .collect();
        let outs: Vec<u32> = c
            .outputs()
            .iter()
            .enumerate()
            .map(|(j, o)| match *o {
                Output::Unbound => panic!("kernel: output {j} unbound"),
                Output::Zero => ZERO,
                Output::Node(n) => slot(n, c.gates().len()),
            })
            .collect();
        CircuitKernel {
            inputs,
            vals: vec![0; inputs + ops.len()],
            ops,
            outs,
        }
    }

    /// Minimizes the encoder for `g` with the certified CSE pass and
    /// compiles the resulting (validated) circuit.
    ///
    /// # Panics
    /// Panics if `g.check_len() > 64` (inherited from `minimize`).
    pub fn minimized(g: &Generator) -> CircuitKernel {
        let m = minimize(g);
        debug_assert!(m.report.is_valid());
        CircuitKernel::new(&m.circuit)
    }

    /// Number of data inputs `k`.
    pub fn data_len(&self) -> usize {
        self.inputs
    }

    /// Number of check-bit outputs.
    pub fn check_len(&self) -> usize {
        self.outs.len()
    }

    /// XOR ops per evaluation.
    pub fn xor_count(&self) -> usize {
        self.ops.len()
    }

    /// The one op loop. Scalar evaluation loads one data bit per
    /// input slot and reads bit 0 of each output; bitsliced
    /// evaluation loads one frame per bit and reads whole lanes.
    fn eval(&mut self) {
        for (i, &(a, b)) in self.ops.iter().enumerate() {
            self.vals[self.inputs + i] = self.vals[a as usize] ^ self.vals[b as usize];
        }
    }

    /// The value of output `j` after [`CircuitKernel::eval`].
    fn out_lane(&self, j: usize) -> u64 {
        match self.outs[j] {
            ZERO => 0,
            s => self.vals[s as usize],
        }
    }

    /// Loads input slot `i` with `lane(i)` for every input and runs
    /// the op loop.
    fn eval_with(&mut self, lane: impl Fn(usize) -> u64) {
        for (i, v) in self.vals[..self.inputs].iter_mut().enumerate() {
            *v = lane(i);
        }
        self.eval();
    }

    /// Packs bit 0 of every output into a check word.
    fn scalar_checks(&self) -> u64 {
        (0..self.outs.len()).fold(0, |acc, j| acc | (self.out_lane(j) & 1) << j)
    }

    /// Encodes the check bits for a `k ≤ 64` data word (bit `i` of
    /// `data` is data bit `i`).
    ///
    /// # Panics
    /// Panics if the circuit has more than 64 inputs.
    pub fn encode_checks(&mut self, data: u64) -> u64 {
        assert!(self.inputs <= 64, "encode_checks: use encode_checks_wide");
        self.eval_with(|i| (data >> i) & 1);
        self.scalar_checks()
    }

    /// Encodes the check bits for a wide data word packed as in
    /// `Circuit::eval` / `BitVec::words()`: input `i` is bit `i % 64`
    /// of `data[i / 64]`; missing words read as zero.
    pub fn encode_checks_wide(&mut self, data: &[u64]) -> u64 {
        self.eval_with(|i| data.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1));
        self.scalar_checks()
    }

    /// Bitsliced load of up to 64 packed frames: input slot `i` gets
    /// bit `i` of every frame (bit `f` of the lane from `frames[f]`),
    /// and `tail[j]` gets bit `inputs + j` the same way. Bits further
    /// out are ignored; missing words read as zero.
    fn load_batch(&mut self, frames: &[BitVec], tail: &mut [u64]) {
        assert!(frames.len() <= 64, "a batch holds at most 64 frames");
        let width = self.inputs + tail.len();
        for w in 0..width.div_ceil(64) {
            let mut block = [0u64; 64];
            for (row, frame) in block.iter_mut().zip(frames) {
                *row = frame.words().get(w).copied().unwrap_or(0);
            }
            transpose64(&mut block);
            for (i, &lane) in block.iter().enumerate().take(width - 64 * w) {
                let bit = 64 * w + i;
                if bit < self.inputs {
                    self.vals[bit] = lane;
                } else {
                    tail[bit - self.inputs] = lane;
                }
            }
        }
    }

    /// Bitsliced [`CircuitKernel::encode_checks_wide`] of up to 64
    /// frames: entry `f` of the result is the check word of
    /// `frames[f]` (zero past `frames.len()`). Data bits past `k` are
    /// ignored, as in the scalar path.
    ///
    /// # Panics
    /// Panics if `frames.len() > 64`.
    pub fn encode_checks_batch(&mut self, frames: &[BitVec]) -> [u64; 64] {
        self.load_batch(frames, &mut []);
        self.eval();
        let mut checks = [0u64; 64];
        for (j, c) in checks.iter_mut().enumerate().take(self.outs.len()) {
            *c = self.out_lane(j);
        }
        transpose64(&mut checks);
        checks
    }

    /// Checks up to 64 received codewords at once (data bits `0..k`,
    /// then the check bits): bit `f` of the result is set when
    /// `words[f]`'s received checks differ from a re-encode of its
    /// data bits. Bits past `words.len()` are clear.
    ///
    /// # Panics
    /// Panics if `words.len() > 64`.
    pub fn invalid_mask_batch(&mut self, words: &[BitVec]) -> u64 {
        let r = self.outs.len();
        let mut received = [0u64; 64];
        self.load_batch(words, &mut received[..r]);
        self.eval();
        (0..r).fold(0, |acc, j| acc | (self.out_lane(j) ^ received[j]))
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `c` of
/// `m[r]` is what bit `r` of `m[c]` was. Six rounds swap the
/// off-diagonal blocks of size 32, 16, …, 1.
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// One composite segment compiled: a gather map from composite data
/// bits to sub-word bits, the sub-encoder, and where its checks land
/// in the codeword.
#[derive(Clone, Debug)]
struct SegmentKernel {
    gather: Vec<u32>,
    kernel: CircuitKernel,
    check_offset: u32,
    check_mask: u64,
}

/// A [`CompositeCode`] compiled to per-segment minimized kernels.
///
/// Codeword layout matches `CompositeCode::encode`: data bits `0..k`
/// verbatim, then each segment's check bits in segment order. Both
/// ends must fit one `u64` (`codeword_len ≤ 64`), which covers every
/// §4.3 ensemble this workbench synthesizes.
#[derive(Clone, Debug)]
pub struct CompositeKernel {
    data_len: usize,
    codeword_len: usize,
    segs: Vec<SegmentKernel>,
}

impl CompositeKernel {
    /// Compiles every segment of `code` via the certified minimizer.
    ///
    /// # Panics
    /// Panics if `code.codeword_len() > 64`.
    pub fn new(code: &CompositeCode) -> CompositeKernel {
        assert!(
            code.codeword_len() <= 64,
            "CompositeKernel packs the codeword into a u64"
        );
        let mut segs = Vec::with_capacity(code.segments().len());
        let mut offset = code.data_len();
        for seg in code.segments() {
            let r = seg.generator.check_len();
            segs.push(SegmentKernel {
                gather: seg.bits.iter().map(|&b| b as u32).collect(),
                kernel: CircuitKernel::minimized(&seg.generator),
                check_offset: offset as u32,
                check_mask: mask64(r),
            });
            offset += r;
        }
        CompositeKernel {
            data_len: code.data_len(),
            codeword_len: offset,
            segs,
        }
    }

    /// Composite data length `k`.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Full codeword length `n`.
    pub fn codeword_len(&self) -> usize {
        self.codeword_len
    }

    /// Encodes `data` (bit `i` = data bit `i`) into the full codeword
    /// word: data verbatim, per-segment checks at their offsets.
    pub fn encode(&mut self, data: u64) -> u64 {
        debug_assert_eq!(data & !mask64(self.data_len), 0, "encode: stray high bits");
        let mut word = data;
        for seg in &mut self.segs {
            let mut sub = 0u64;
            for (si, &b) in seg.gather.iter().enumerate() {
                sub |= ((data >> b) & 1) << si;
            }
            word |= seg.kernel.encode_checks(sub) << seg.check_offset;
        }
        word
    }

    /// `true` when every segment's received checks match a re-encode
    /// of the received data bits (all syndromes zero).
    pub fn is_valid(&mut self, word: u64) -> bool {
        for seg in &mut self.segs {
            let mut sub = 0u64;
            for (si, &b) in seg.gather.iter().enumerate() {
                sub |= ((word >> b) & 1) << si;
            }
            let expect = seg.kernel.encode_checks(sub);
            let got = (word >> seg.check_offset) & seg.check_mask;
            if expect != got {
                return false;
            }
        }
        true
    }

    /// Bitsliced [`CompositeKernel::encode`] of up to 64 data words:
    /// entry `f` of the result is the codeword of `data[f]` (zero past
    /// `data.len()`). After the transpose, each segment's gather map
    /// is a list of lane indices. Data bits past `k` are ignored.
    ///
    /// # Panics
    /// Panics if `data.len() > 64`.
    pub fn encode_batch(&mut self, data: &[u64]) -> [u64; 64] {
        let mut lanes = lanes64(data);
        lanes[self.data_len..].fill(0);
        for seg in &mut self.segs {
            seg.kernel.eval_with(|si| lanes[seg.gather[si] as usize]);
            let at = seg.check_offset as usize;
            for j in 0..seg.kernel.check_len() {
                lanes[at + j] = seg.kernel.out_lane(j);
            }
        }
        transpose64(&mut lanes);
        lanes
    }

    /// Checks up to 64 received codewords at once: bit `f` of the
    /// result is set when any segment's received checks in `words[f]`
    /// differ from a re-encode of its received data bits. Bits past
    /// `words.len()` are clear.
    ///
    /// # Panics
    /// Panics if `words.len() > 64`.
    pub fn invalid_mask_batch(&mut self, words: &[u64]) -> u64 {
        let lanes = lanes64(words);
        let mut invalid = 0;
        for seg in &mut self.segs {
            seg.kernel.eval_with(|si| lanes[seg.gather[si] as usize]);
            let at = seg.check_offset as usize;
            for j in 0..seg.kernel.check_len() {
                invalid |= seg.kernel.out_lane(j) ^ lanes[at + j];
            }
        }
        invalid
    }
}

/// Up to 64 words transposed into bit lanes: bit `f` of lane `i` is
/// bit `i` of `words[f]`.
fn lanes64(words: &[u64]) -> [u64; 64] {
    assert!(words.len() <= 64, "a batch holds at most 64 frames");
    let mut m = [0u64; 64];
    m[..words.len()].copy_from_slice(words);
    transpose64(&mut m);
    m
}

fn mask64(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_gf2::BitVec;
    use fec_hamming::standards;

    fn encode_ref(g: &Generator, data: u64) -> u64 {
        let word = g.encode(&BitVec::from_u128(data as u128, g.data_len()));
        word.slice(g.data_len()..g.codeword_len()).to_u128() as u64
    }

    #[test]
    fn minimized_kernel_matches_generator_encode() {
        for g in [
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::shortened_hamming(32, 6).unwrap(),
            standards::shortened_hamming(57, 7).unwrap(),
        ] {
            let mut k = CircuitKernel::minimized(&g);
            assert_eq!(k.data_len(), g.data_len());
            assert_eq!(k.check_len(), g.check_len());
            let m = mask64(g.data_len());
            for d in [0u64, 1, 0x5555_5555_5555_5555, u64::MAX, 0xDEAD_BEEF] {
                let d = d & m;
                assert_eq!(k.encode_checks(d), encode_ref(&g, d), "{g:?} data {d:#x}");
            }
        }
    }

    #[test]
    fn wide_kernel_matches_flagship_generator() {
        let g = standards::ieee_8023df_128_120();
        let mut k = CircuitKernel::minimized(&g);
        for words in [
            [0u64, 0],
            [u64::MAX, (1u64 << 56) - 1],
            [0x0123_4567_89AB_CDEF, 0x00FE_DCBA_9876_5432],
        ] {
            let mut bits = BitVec::zeros(120);
            for i in 0..120 {
                bits.set(i, (words[i / 64] >> (i % 64)) & 1 == 1);
            }
            let expect = g.encode(&bits).slice(120..128).to_u128() as u64;
            assert_eq!(k.encode_checks_wide(&words), expect);
            assert_eq!(k.encode_checks_wide(bits.words()), expect);
        }
    }

    #[test]
    fn kernel_is_cheaper_than_sparse_on_the_flagship() {
        let g = standards::ieee_8023df_128_120();
        let k = CircuitKernel::minimized(&g);
        let sparse = Circuit::from_generator(&g).xor_count();
        assert!(k.xor_count() < sparse, "{} !< {sparse}", k.xor_count());
    }

    #[test]
    fn composite_kernel_matches_composite_code() {
        let code = CompositeCode::contiguous_msb_first(vec![
            standards::shortened_hamming(8, 4).unwrap(),
            standards::parity_code(8),
        ])
        .unwrap();
        let mut k = CompositeKernel::new(&code);
        assert_eq!(k.data_len(), 16);
        assert_eq!(k.codeword_len(), code.codeword_len());
        for d in [0u64, 0xFFFF, 0xA5C3, 0x1234, 0x8001] {
            let bits = BitVec::from_u128(d as u128, 16);
            let want = code.encode(&bits).to_u128() as u64;
            let got = k.encode(d);
            assert_eq!(got, want, "data {d:#x}");
            assert!(k.is_valid(got));
            // any single flip must be caught by these md ≥ 2 segments
            for b in 0..code.codeword_len() {
                assert!(!k.is_valid(got ^ (1 << b)), "flip {b} undetected");
            }
        }
    }

    #[test]
    fn composite_kernel_respects_from_map_interleaving() {
        // alternate bits between two segments, as weighted synthesis does
        let map: Vec<usize> = (0..16).map(|j| j % 2).collect();
        let code = CompositeCode::from_map(
            vec![
                standards::shortened_hamming(8, 4).unwrap(),
                standards::parity_code(8),
            ],
            &map,
        )
        .unwrap();
        let mut k = CompositeKernel::new(&code);
        for d in [0x00FFu64, 0xF0F0, 0x5555, 0xBEEF & 0xFFFF] {
            let bits = BitVec::from_u128(d as u128, 16);
            let want = code.encode(&bits).to_u128() as u64;
            assert_eq!(k.encode(d), want, "data {d:#x}");
        }
    }

    /// The seven named standard generators.
    fn standard_generators() -> Vec<Generator> {
        vec![
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::parity_code(16),
            standards::shortened_hamming(32, 6).unwrap(),
            standards::shortened_hamming(57, 7).unwrap(),
            standards::paper_g4_5(),
            standards::ieee_8023df_128_120(),
        ]
    }

    fn random_bits(rng: &mut proptest::TestRng, len: usize) -> BitVec {
        let words = (0..len.div_ceil(64)).map(|_| rng.next_u64()).collect();
        BitVec::from_words(words, len)
    }

    #[test]
    fn transpose64_matches_its_definition_and_is_an_involution() {
        let mut rng = proptest::TestRng::deterministic("transpose64");
        for _ in 0..32 {
            let m: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
            let mut t = m;
            transpose64(&mut t);
            for (r, row) in t.iter().enumerate() {
                for (c, col) in m.iter().enumerate() {
                    assert_eq!(row >> c & 1, col >> r & 1, "cell ({r}, {c})");
                }
            }
            transpose64(&mut t);
            assert_eq!(t, m);
        }
    }

    #[test]
    fn batch_encode_and_check_match_scalar_and_generator() {
        let mut rng = proptest::TestRng::deterministic("batch_kernel");
        for g in standard_generators() {
            let (k, n) = (g.data_len(), g.codeword_len());
            let mut kernel = CircuitKernel::minimized(&g);
            // batch sizes 0, 1, 2, 63, 64, and 150 = 64 + 64 + a partial 22
            for total in [0, 1, 2, 63, 64, 150] {
                let data: Vec<BitVec> = (0..total).map(|_| random_bits(&mut rng, k)).collect();
                let mut words = Vec::new();
                for batch in data.chunks(64) {
                    let checks = kernel.encode_checks_batch(batch);
                    assert!(checks[batch.len()..].iter().all(|&c| c == 0));
                    for (d, &c) in batch.iter().zip(&checks) {
                        let word = g.encode(d);
                        assert_eq!(c, kernel.encode_checks_wide(d.words()), "{g:?}");
                        assert_eq!(c, word.slice(k..n).to_u128() as u64, "{g:?}");
                        words.push(word);
                    }
                }
                // every received word clean, then one corrupted by
                // random flips: the mask is the scalar syndrome test
                for batch in words.chunks(64) {
                    assert_eq!(kernel.invalid_mask_batch(batch), 0, "{g:?}");
                    let mut rx = batch.to_vec();
                    for w in &mut rx {
                        for _ in 0..rng.below(3) {
                            w.flip(rng.below(n as u64) as usize);
                        }
                    }
                    let want = rx.iter().enumerate().fold(0u64, |acc, (f, w)| {
                        let bad = kernel.encode_checks_wide(w.words()) != w.bits_at(k);
                        acc | u64::from(bad) << f
                    });
                    assert_eq!(kernel.invalid_mask_batch(&rx), want, "{g:?}");
                }
            }
        }
    }

    #[test]
    fn batch_check_flags_every_single_bit_flip() {
        for g in standard_generators() {
            let (k, n) = (g.data_len(), g.codeword_len());
            let mut kernel = CircuitKernel::minimized(&g);
            let word = g.encode(&BitVec::from_words(
                vec![0x0123_4567_89AB_CDEF; k.div_ceil(64)],
                k,
            ));
            let positions: Vec<usize> = (0..n).collect();
            for chunk in positions.chunks(64) {
                let rx: Vec<BitVec> = chunk
                    .iter()
                    .map(|&b| {
                        let mut w = word.clone();
                        w.flip(b);
                        w
                    })
                    .collect();
                let all = u64::MAX >> (64 - chunk.len());
                assert_eq!(kernel.invalid_mask_batch(&rx), all, "{g:?}");
            }
        }
    }

    #[test]
    fn batch_encode_ignores_bits_past_k() {
        let mut rng = proptest::TestRng::deterministic("batch_stray_bits");
        for g in standard_generators() {
            let k = g.data_len();
            let mut kernel = CircuitKernel::minimized(&g);
            // whole words of junk: everything past bit k must be ignored
            let wide: Vec<BitVec> = (0..64)
                .map(|_| random_bits(&mut rng, k.div_ceil(64) * 64 + 64))
                .collect();
            let data: Vec<BitVec> = wide.iter().map(|w| w.slice(0..k)).collect();
            assert_eq!(
                kernel.encode_checks_batch(&wide),
                kernel.encode_checks_batch(&data)
            );
            for (w, d) in wide.iter().zip(&data) {
                assert_eq!(
                    kernel.encode_checks_wide(w.words()),
                    kernel.encode_checks_wide(d.words())
                );
            }
        }
    }

    #[test]
    fn composite_batch_matches_scalar_composite() {
        let gens = || {
            vec![
                standards::shortened_hamming(8, 4).unwrap(),
                standards::parity_code(8),
            ]
        };
        let map: Vec<usize> = (0..16).map(|j| j % 2).collect();
        let codes = [
            CompositeCode::contiguous_msb_first(gens()).unwrap(),
            CompositeCode::from_map(gens(), &map).unwrap(),
        ];
        let mut rng = proptest::TestRng::deterministic("composite_batch");
        for code in &codes {
            let mut k = CompositeKernel::new(code);
            let n = code.codeword_len();
            for total in [0, 1, 2, 63, 64] {
                // stray bits past k in the input must be ignored
                let raw: Vec<u64> = (0..total).map(|_| rng.next_u64()).collect();
                let data: Vec<u64> = raw.iter().map(|d| d & mask64(16)).collect();
                let words = k.encode_batch(&raw);
                assert!(words[total..].iter().all(|&w| w == 0));
                for (&d, &w) in data.iter().zip(&words) {
                    assert_eq!(w, k.encode(d), "data {d:#x}");
                    assert_eq!(
                        w,
                        code.encode(&BitVec::from_u128(d as u128, 16)).to_u128() as u64
                    );
                }
                assert_eq!(k.invalid_mask_batch(&words[..total]), 0);
                // one distinct single flip per frame: every one flagged
                let rx: Vec<u64> = (0..total).map(|f| words[f] ^ 1 << (f % n)).collect();
                let flagged = k.invalid_mask_batch(&rx);
                assert_eq!(flagged, mask64(total));
                for (f, &w) in rx.iter().enumerate() {
                    assert_eq!(flagged >> f & 1 == 1, !k.is_valid(w));
                }
            }
            // every single-bit flip of one codeword
            let word = k.encode(0xA5C3);
            let rx: Vec<u64> = (0..n).map(|b| word ^ 1 << b).collect();
            assert_eq!(k.invalid_mask_batch(&rx), mask64(n));
        }
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn kernel_rejects_unbound_outputs() {
        CircuitKernel::new(&Circuit::new(2, 1));
    }
}
