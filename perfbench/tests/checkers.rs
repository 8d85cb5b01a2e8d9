//! Each checker, fed a wrong answer, must report a failure.

use fec_hamming::{standards, CompositeCode, Generator};
use fec_perfbench::check;
use fec_perfbench::reference::{Row, ADAPT_GENS};
use fec_stream::{deterministic_payload, run_stream, StreamConfig};

/// A (7,4) generator whose data bit 3 has a weight-1 H column, so its
/// minimum distance is 2 while its check length matches the md-3 row.
fn md2_generator() -> Generator {
    Generator::from_coeff_str("110\n101\n011\n100").expect("valid coefficients")
}

const MD3_ROW: Row = Row {
    k: 4,
    md: 3,
    len_c: 3,
};

#[test]
fn a_distance_2_generator_fails_the_synthesis_check() {
    assert!(check::synthesized(&standards::hamming_7_4(), &MD3_ROW).is_ok());
    assert!(check::synthesized(&md2_generator(), &MD3_ROW).is_err());
}

#[test]
fn a_non_optimal_check_length_fails_the_synthesis_check() {
    // the (8,4) extended Hamming code has md 4 >= 3, but len_c 4 is not
    // the optimum 3
    assert!(check::synthesized(&standards::hamming_extended_8_4(), &MD3_ROW).is_err());
}

#[test]
fn a_distance_2_generator_fails_the_column_check() {
    assert!(check::distance_at_least_3(&standards::ieee_8023df_128_120()).is_ok());
    assert!(check::distance_at_least_3(&md2_generator()).is_err());
}

#[test]
fn a_witness_of_the_wrong_weight_fails() {
    let g = standards::hamming_7_4();
    // a weight-3 codeword exists in the (7,4) code and a weight-4 one too
    let (mut three, mut four) = (None, None);
    for d in 1u128..16 {
        let data = fec_gf2::BitVec::from_u128(d, 4);
        match g.encode(&data).count_ones() {
            3 => three = Some(data),
            4 => four = Some(data),
            _ => {}
        }
    }
    assert!(check::weight_3_witness(&g, &three.expect("weight-3 codeword")).is_ok());
    assert!(check::weight_3_witness(&g, &four.expect("weight-4 codeword")).is_err());
    assert!(check::weight_3_witness(&g, &fec_gf2::BitVec::zeros(4)).is_err());
}

#[test]
fn a_corrupted_payload_fails_the_delivery_check() {
    let payload = deterministic_payload(8 * 1024, 5);
    let cfg = StreamConfig::static_8023df(5);
    let out = run_stream(&payload, &cfg);
    let k = cfg.inner.data_len();
    assert!(check::stream_delivery(&payload, k, &out).is_ok());

    // flip a bit of a delivered word that is neither lost nor already
    // corrupted
    let words = fec_stream::Packetizer::new(k).packetize(&out.bytes);
    let sent = fec_stream::Packetizer::new(k).packetize(&payload);
    let j = (0..words.len())
        .find(|j| !out.lost_words.contains(j) && words[*j] == sent[*j])
        .expect("an intact word");
    let mut bad = out.clone();
    bad.bytes[j * k / 8] ^= 1 << (j * k % 8);
    assert!(check::stream_delivery(&payload, k, &bad).is_err());

    // a lost word that is not zero-filled also fails
    if let Some(&lost) = out.lost_words.first() {
        let mut bad = out.clone();
        bad.bytes[lost * k / 8 + 1] ^= 0xFF;
        assert!(check::stream_delivery(&payload, k, &bad).is_err());
    }
}

#[test]
fn a_circuit_for_another_matrix_fails_the_matrix_check() {
    let g = standards::shortened_hamming(32, 6).expect("(38,32) shortened Hamming");
    let circuit = fec_circ::minimize(&g).circuit;
    assert!(check::circuit_matches_matrix(&circuit, &g, 1, 64).is_ok());
    // the same shape with one coefficient flipped
    let mut p = g.coefficients().clone();
    p.set(0, 0, !p.get(0, 0));
    let flipped = Generator::from_coefficients(p);
    assert!(check::circuit_matches_matrix(&circuit, &flipped, 1, 64).is_err());
}

#[test]
fn an_adapted_code_off_its_spec_fails() {
    let strong = standards::shortened_hamming(7, 5).expect("(12,7) shortened Hamming");
    let parity = standards::parity_code(9);
    let map: Vec<usize> = (0..16).map(|j| usize::from(j < 9)).collect();
    let good = CompositeCode::from_map(vec![strong.clone(), parity.clone()], &map).expect("code");
    assert!(check::adapted_code(&good, ADAPT_GENS).is_ok());

    // a distance-1 "strong" generator with the right check length
    let weak_strong = Generator::from_coeff_str(&["00000"; 7].join("\n")).expect("zero matrix");
    let bad = CompositeCode::from_map(vec![weak_strong, parity], &map).expect("code");
    assert!(check::adapted_code(&bad, ADAPT_GENS).is_err());
}
