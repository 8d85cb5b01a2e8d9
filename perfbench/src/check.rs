//! Independent checks of each operation's output. Each returns `Err`
//! with a one-line reason; the caller counts the operation as failed.

use fec_circ::{Circuit, CircuitKernel};
use fec_gf2::BitVec;
use fec_hamming::{distance, CompositeCode, Generator};
use fec_stream::{Packetizer, StreamOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::reference::Row;

/// A synthesized generator meets its row: the requested data length,
/// the known optimal check length, and an exhaustively measured minimum
/// distance of at least the requested one.
pub fn synthesized(g: &Generator, row: &Row) -> Result<(), String> {
    if g.data_len() != row.k {
        return Err(format!(
            "k={} md={}: data length {}",
            row.k,
            row.md,
            g.data_len()
        ));
    }
    if g.check_len() != row.len_c {
        return Err(format!(
            "k={} md={}: len_c {} is not the known optimum {}",
            row.k,
            row.md,
            g.check_len(),
            row.len_c
        ));
    }
    let md = distance::min_distance_exhaustive(g);
    if md < row.md {
        return Err(format!("k={} md={}: measured distance {md}", row.k, row.md));
    }
    Ok(())
}

/// `md(g) ≥ 3` from the parity-check matrix `H = [Pᵀ | I]`, without a
/// solver: every column of `H` must be non-zero and distinct. The
/// check-bit columns are the unit vectors, so every data-bit column (a
/// row of `P`) must have at least two ones and appear only once.
pub fn distance_at_least_3(g: &Generator) -> Result<(), String> {
    let p = g.coefficients();
    let mut rows: Vec<u128> = Vec::with_capacity(p.rows());
    for (j, row) in p.iter_rows().enumerate() {
        if row.count_ones() < 2 {
            return Err(format!(
                "H column of data bit {j} has weight {}",
                row.count_ones()
            ));
        }
        rows.push(row.to_u128());
    }
    rows.sort_unstable();
    if rows.windows(2).any(|w| w[0] == w[1]) {
        return Err("two data bits share an H column".into());
    }
    Ok(())
}

/// A claimed counterexample to `md(g) ≥ 4`: a non-zero data word whose
/// codeword, re-encoded here, has weight exactly 3.
pub fn weight_3_witness(g: &Generator, witness: &BitVec) -> Result<(), String> {
    if witness.is_zero() {
        return Err("witness is the zero word".into());
    }
    let w = g.encode(witness).count_ones();
    if w != 3 {
        return Err(format!("witness codeword has weight {w}, not 3"));
    }
    Ok(())
}

/// A stream run's delivery audit is exact: the lost-word list matches
/// its count and is zero-filled, and the words outside it that differ
/// from the input are exactly `corrupted_words` — the silent
/// corruptions the run reports and counts in its residual loss.
pub fn stream_delivery(input: &[u8], word_len: usize, out: &StreamOutcome) -> Result<(), String> {
    if out.lost_words.len() as u64 != out.stats.lost_words {
        return Err("lost-word list and count disagree".into());
    }
    if out.bytes.len() != input.len() {
        return Err(format!(
            "{} bytes out for {} in",
            out.bytes.len(),
            input.len()
        ));
    }
    let pkt = Packetizer::new(word_len);
    let sent = pkt.packetize(input);
    let got = pkt.packetize(&out.bytes);
    let mut lost = out.lost_words.iter().peekable();
    let mut differing = 0u64;
    for (j, (s, g)) in sent.iter().zip(&got).enumerate() {
        if lost.peek() == Some(&&j) {
            lost.next();
            if !g.is_zero() {
                return Err(format!("lost word {j} is not zero-filled"));
            }
        } else if s != g {
            differing += 1;
        }
    }
    if differing != out.stats.corrupted_words {
        return Err(format!(
            "{differing} delivered words differ from the input, {} reported corrupted",
            out.stats.corrupted_words
        ));
    }
    Ok(())
}

/// A minimized circuit computes the generator's check bits: compiled
/// and run on `trials` seeded random data words, it matches the matrix
/// product `data · P`.
pub fn circuit_matches_matrix(
    circuit: &Circuit,
    g: &Generator,
    seed: u64,
    trials: usize,
) -> Result<(), String> {
    let mut kernel = CircuitKernel::new(circuit);
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = g.data_len();
    for _ in 0..trials {
        let words: Vec<u64> = (0..k.div_ceil(64)).map(|_| rng.next_u64()).collect();
        let mut data = BitVec::zeros(k);
        for i in 0..k {
            data.set(i, words[i / 64] >> (i % 64) & 1 == 1);
        }
        let expect = g.coefficients().vec_mul(&data).to_u128() as u64;
        if kernel.encode_checks_wide(data.words()) != expect {
            return Err(format!("circuit disagrees with the matrix on {data}"));
        }
    }
    Ok(())
}

/// The adapted code realizes its spec: one segment per requested
/// generator, in order, each with the requested check length and an
/// exhaustively measured distance of at least the requested one.
pub fn adapted_code(code: &CompositeCode, gens: [(usize, usize); 2]) -> Result<(), String> {
    let segs = code.segments();
    if segs.len() != gens.len() {
        return Err(format!("{} segments, expected {}", segs.len(), gens.len()));
    }
    for (i, (seg, &(len_c, md))) in segs.iter().zip(&gens).enumerate() {
        let g = &seg.generator;
        if g.check_len() != len_c {
            return Err(format!("G{i}: len_c {} is not {len_c}", g.check_len()));
        }
        let got = distance::min_distance_exhaustive(g);
        if got < md {
            return Err(format!("G{i}: measured distance {got} below {md}"));
        }
    }
    Ok(())
}
