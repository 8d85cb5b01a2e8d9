//! Property tests for `BlockInterleaver`, including the partial-block
//! variants the streaming pipeline leans on for its final frames. The
//! closed-form index maps are pinned to the skip-scan definition of the
//! partial permutation (`scan_interleave` / `scan_deinterleave`), not
//! just to round-tripping, which any bijection would pass.

use fec_channel::burst::BlockInterleaver;
use fec_gf2::BitVec;

fn random_bits(rng: &mut proptest::TestRng, len: usize) -> BitVec {
    let mut v = BitVec::zeros(len);
    for i in 0..len {
        if rng.below(2) == 1 {
            v.set(i, true);
        }
    }
    v
}

/// The partial interleave by definition: visit the full block's
/// channel positions in order, skip those whose row-major source lies
/// past the input, and copy bit by bit.
fn scan_interleave(rows: usize, cols: usize, input: &BitVec) -> BitVec {
    let l = input.len();
    let mut out = BitVec::zeros(l);
    let mut next = 0;
    for o in 0..rows * cols {
        let src = (o % rows) * cols + o / rows;
        if src < l {
            out.set(next, input.get(src));
            next += 1;
        }
    }
    out
}

/// The inverse of [`scan_interleave`], by the same scan.
fn scan_deinterleave(rows: usize, cols: usize, input: &BitVec) -> BitVec {
    let l = input.len();
    let mut out = BitVec::zeros(l);
    let mut next = 0;
    for o in 0..rows * cols {
        let src = (o % rows) * cols + o / rows;
        if src < l {
            out.set(src, input.get(next));
            next += 1;
        }
    }
    out
}

#[test]
fn partial_matches_the_scan_oracle_at_every_length() {
    let mut rng = proptest::TestRng::deterministic("interleaver_scan_oracle");
    for _ in 0..60 {
        let rows = 1 + rng.below(9) as usize;
        let cols = 1 + rng.below(40) as usize;
        let il = BlockInterleaver::new(rows, cols);
        for len in 0..=il.len() {
            let v = random_bits(&mut rng, len);
            let what = format!("{rows}x{cols} len {len}");
            assert_eq!(
                il.interleave_partial(&v),
                scan_interleave(rows, cols, &v),
                "{what}"
            );
            assert_eq!(
                il.deinterleave_partial(&v),
                scan_deinterleave(rows, cols, &v),
                "{what}"
            );
        }
    }
    // the pipeline's shape: 802.3df frames, depth 4, every partial fill
    let il = BlockInterleaver::new(4, 128);
    for len in 0..=il.len() {
        let v = random_bits(&mut rng, len);
        assert_eq!(
            il.interleave_partial(&v),
            scan_interleave(4, 128, &v),
            "len {len}"
        );
        assert_eq!(
            il.deinterleave_partial(&v),
            scan_deinterleave(4, 128, &v),
            "len {len}"
        );
    }
}

#[test]
fn full_block_round_trips_at_random_shapes() {
    let mut rng = proptest::TestRng::deterministic("interleaver_full_round_trip");
    for _ in 0..200 {
        let rows = 1 + rng.below(9) as usize;
        let cols = 1 + rng.below(40) as usize;
        let il = BlockInterleaver::new(rows, cols);
        let v = random_bits(&mut rng, il.len());
        assert_eq!(il.deinterleave(&il.interleave(&v)), v, "{rows}x{cols}");
        assert_eq!(il.interleave(&il.deinterleave(&v)), v, "{rows}x{cols}");
    }
}

#[test]
fn interleave_is_a_permutation() {
    // popcount is conserved and every singleton input maps to a
    // distinct output position
    let mut rng = proptest::TestRng::deterministic("interleaver_permutation");
    for _ in 0..50 {
        let rows = 1 + rng.below(6) as usize;
        let cols = 1 + rng.below(12) as usize;
        let il = BlockInterleaver::new(rows, cols);
        let mut seen = vec![false; il.len()];
        for i in 0..il.len() {
            let mut v = BitVec::zeros(il.len());
            v.set(i, true);
            let out = il.interleave(&v);
            assert_eq!(out.count_ones(), 1);
            let pos = out.iter_ones().next().unwrap();
            assert!(!seen[pos], "{rows}x{cols}: position {pos} hit twice");
            seen[pos] = true;
        }
    }
}

#[test]
fn partial_round_trips_at_non_divisible_lengths() {
    let mut rng = proptest::TestRng::deterministic("interleaver_partial_round_trip");
    for _ in 0..300 {
        let rows = 1 + rng.below(8) as usize;
        let cols = 1 + rng.below(24) as usize;
        let il = BlockInterleaver::new(rows, cols);
        // lengths deliberately *not* multiples of the block size,
        // including 0 and the exact block
        let len = rng.below(il.len() as u64 + 1) as usize;
        let v = random_bits(&mut rng, len);
        let tx = il.interleave_partial(&v);
        assert_eq!(tx.len(), len, "{rows}x{cols} len {len}");
        assert_eq!(tx.count_ones(), v.count_ones(), "partial is a permutation");
        assert_eq!(il.deinterleave_partial(&tx), v, "{rows}x{cols} len {len}");
    }
}

#[test]
fn partial_agrees_with_full_on_exact_blocks() {
    let mut rng = proptest::TestRng::deterministic("interleaver_partial_vs_full");
    for _ in 0..100 {
        let rows = 1 + rng.below(7) as usize;
        let cols = 1 + rng.below(16) as usize;
        let il = BlockInterleaver::new(rows, cols);
        let v = random_bits(&mut rng, il.len());
        assert_eq!(il.interleave_partial(&v), il.interleave(&v));
        assert_eq!(il.deinterleave_partial(&v), il.deinterleave(&v));
    }
}

#[test]
fn depth_one_is_the_identity() {
    // a 1×cols interleaver must be a no-op in every variant, at every
    // partial length
    let mut rng = proptest::TestRng::deterministic("interleaver_depth_one");
    for _ in 0..100 {
        let cols = 1 + rng.below(64) as usize;
        let il = BlockInterleaver::new(1, cols);
        let v = random_bits(&mut rng, cols);
        assert_eq!(il.interleave(&v), v);
        assert_eq!(il.deinterleave(&v), v);
        let len = rng.below(cols as u64 + 1) as usize;
        let p = random_bits(&mut rng, len);
        assert_eq!(il.interleave_partial(&p), p);
        assert_eq!(il.deinterleave_partial(&p), p);
    }
}

#[test]
fn single_column_is_the_identity_too() {
    // rows×1: channel order equals logical order
    let il = BlockInterleaver::new(5, 1);
    let mut rng = proptest::TestRng::deterministic("interleaver_single_col");
    let v = random_bits(&mut rng, 5);
    assert_eq!(il.interleave(&v), v);
    let p = random_bits(&mut rng, 3);
    assert_eq!(il.interleave_partial(&p), p);
    assert_eq!(il.deinterleave_partial(&p), p);
}
