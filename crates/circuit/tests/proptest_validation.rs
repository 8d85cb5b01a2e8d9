//! Property tests: for random generator matrices, every backend form —
//! the three runtime kernels lifted to circuits, the emitted C, the
//! emitted Rust, and the minimized circuit — is *proved* equivalent to
//! the matrix by the static validator; and validating any form against
//! a perturbed matrix is refuted with the right lint class.

use fec_circ::{
    minimize, validate_circuit, validate_source, Circuit, CircuitKernel, Lang, LintClass,
};
use fec_codegen::{emit_c, emit_rust, MaskKernel, NaiveKernel, SparseKernel};
use fec_gf2::{BitMatrix, BitVec};
use fec_hamming::Generator;
use proptest::prelude::*;

/// A deterministic random coefficient matrix (cells from splitmix64).
fn random_generator(seed: u64, k: usize, r: usize) -> Generator {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut m = BitMatrix::zeros(k, r);
    for y in 0..k {
        for j in 0..r {
            m.set(y, j, next() & 1 == 1);
        }
    }
    Generator::from_coefficients(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend form validates against the matrix it came from.
    #[test]
    fn prop_all_backend_forms_validate(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8) {
        let g = random_generator(seed, k, r);
        let circuits = [
            ("generator", Circuit::from_generator(&g)),
            ("mask", Circuit::from_mask_kernel(&MaskKernel::new(&g))),
            ("sparse", Circuit::from_sparse_kernel(&SparseKernel::new(&g))),
            ("naive", Circuit::from_naive_kernel(&NaiveKernel::new(&g))),
        ];
        for (form, c) in &circuits {
            let rep = validate_circuit(c, &g);
            prop_assert!(rep.is_valid(), "{form}: {:?}", rep.diags);
        }
        let rep = validate_source(&emit_c(&g, true), Lang::C, &g);
        prop_assert!(rep.is_valid(), "emitted C: {:?}", rep.diags);
        let rep = validate_source(&emit_rust(&g), Lang::Rust, &g);
        prop_assert!(rep.is_valid(), "emitted Rust: {:?}", rep.diags);
    }

    /// Minimization never loses equivalence and never costs more than
    /// the sparse baseline; its emitted sources validate too.
    #[test]
    fn prop_minimize_is_certified_and_no_worse(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8) {
        let g = random_generator(seed, k, r);
        let m = minimize(&g);
        prop_assert!(m.report.is_valid(), "{:?}", m.report.diags);
        prop_assert!(m.xor_count() <= m.sparse_xor_count);
        let rep = validate_source(&fec_circ::emit_c_circuit(&m.circuit), Lang::C, &g);
        prop_assert!(rep.is_valid(), "minimized C: {:?}", rep.diags);
        let rep = validate_source(&fec_circ::emit_rust_circuit(&m.circuit), Lang::Rust, &g);
        prop_assert!(rep.is_valid(), "minimized Rust: {:?}", rep.diags);
    }

    /// The minimized circuit agrees with the MaskKernel on random data
    /// words — the symbolic proof and the concrete semantics coincide.
    #[test]
    fn prop_minimized_eval_matches_kernel(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8, d in 0u64..u64::MAX) {
        let g = random_generator(seed, k, r);
        let m = minimize(&g);
        let kernel = MaskKernel::new(&g);
        let d = if k == 64 { d } else { d & ((1u64 << k) - 1) };
        prop_assert_eq!(m.circuit.eval_u64(d), kernel.encode_checks(d));
    }

    /// The bitsliced batch path of the minimized kernel agrees with its
    /// scalar path and with the matrix, for encode and for the check,
    /// on any batch size and on words wider than one `u64`.
    #[test]
    fn prop_batch_kernel_matches_scalar(seed in 0u64..u64::MAX, k in 1usize..=140, r in 1usize..=8, frames in 0usize..=64) {
        let g = random_generator(seed, k, r);
        let mut kernel = CircuitKernel::minimized(&g);
        let mut rng = proptest::TestRng::deterministic(&format!("batch {seed}"));
        let data: Vec<BitVec> = (0..frames)
            .map(|_| BitVec::from_words((0..k.div_ceil(64)).map(|_| rng.next_u64()).collect(), k))
            .collect();
        let checks = kernel.encode_checks_batch(&data);
        let mut words = Vec::new();
        for (d, &c) in data.iter().zip(&checks) {
            prop_assert_eq!(c, kernel.encode_checks_wide(d.words()));
            let mut word = g.encode(d);
            prop_assert_eq!(c, word.bits_at(k) & (u64::MAX >> (64 - r)));
            if rng.below(2) == 0 {
                word.flip(rng.below(k as u64 + r as u64) as usize);
            }
            words.push(word);
        }
        let want = words.iter().enumerate().fold(0u64, |acc, (f, w)| {
            acc | u64::from(!g.is_valid(w)) << f
        });
        prop_assert_eq!(kernel.invalid_mask_batch(&words), want);
    }

    /// Flipping one coefficient makes every form fail validation
    /// against the perturbed matrix, with the matching term class.
    #[test]
    fn prop_flipped_cell_is_refuted(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8, y_pick in 0usize..64, j_pick in 0usize..64) {
        let g = random_generator(seed, k, r);
        let (y, j) = (y_pick % k, j_pick % r);
        let mut m = BitMatrix::zeros(k, r);
        for yy in 0..k {
            for jj in 0..r {
                m.set(yy, jj, g.coefficients().get(yy, jj));
            }
        }
        let was_set = m.get(y, j);
        m.set(y, j, !was_set);
        let g2 = Generator::from_coefficients(m);

        // the *circuit* faithful to g cannot match g2
        let rep = validate_circuit(&Circuit::from_generator(&g), &g2);
        prop_assert!(!rep.is_valid());
        // cell was 1 in g: the form has a term g2 lacks → extra-term;
        // cell was 0 in g: g2 requires a term the form lacks → missing-term
        if was_set {
            prop_assert!(rep.has_class(LintClass::ExtraTerm), "{:?}", rep.diags);
        } else {
            prop_assert!(rep.has_class(LintClass::MissingTerm), "{:?}", rep.diags);
        }
        // and the emitted source is refuted the same way
        let rep = validate_source(&emit_c(&g, false), Lang::C, &g2);
        prop_assert!(!rep.is_valid());
    }
}
