//! Reference answers the benchmark checks the program against. None of
//! them comes from the synthesizer.

use fec_hamming::robustness::choose_times_pow;

/// One `minimal(len_c(G0))` row of the `synth` workload with its known
/// optimal check length.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Data length `k`.
    pub k: usize,
    /// Requested minimum distance.
    pub md: usize,
    /// The smallest `len_c` of a binary `[k + len_c, k, md]` code,
    /// clamped to the spec's lower bound of 2.
    pub len_c: usize,
}

/// Table 1's k = 4 rows md = 2..8 and the k = 8 rows md = 5 and 6.
pub const ROWS: [Row; 9] = [
    Row {
        k: 4,
        md: 2,
        len_c: 2,
    },
    Row {
        k: 4,
        md: 3,
        len_c: 3,
    },
    Row {
        k: 4,
        md: 4,
        len_c: 4,
    },
    Row {
        k: 4,
        md: 5,
        len_c: 7,
    },
    Row {
        k: 4,
        md: 6,
        len_c: 8,
    },
    Row {
        k: 4,
        md: 7,
        len_c: 10,
    },
    Row {
        k: 4,
        md: 8,
        len_c: 11,
    },
    Row {
        k: 8,
        md: 5,
        len_c: 8,
    },
    Row {
        k: 8,
        md: 6,
        len_c: 9,
    },
];

/// Where the optimal check lengths in [`ROWS`] come from.
pub const ROWS_SOURCE: &str = "k=4: the Griesmer bound n >= sum_{i<4} ceil(d/2^i), met with \
     equality for d=3..8 by the [7,4,3] Hamming, [8,4,4] extended Hamming, [11,4,5], [12,4,6], \
     [14,4,7] and [15,4,8] simplex codes (d=2 needs len_c=1, clamped to the spec's floor of 2); \
     k=8: the binary tables of Grassl (codetables.de) and Brouwer, where [16,8,5] and [17,8,6] \
     are optimal and no [15,8,5] or [16,8,6] code exists";

/// The generator shapes `fec_stream::synthesize_adapted` asks for:
/// `(len_c, md)` of the strong and the weak generator.
pub const ADAPT_GENS: [(usize, usize); 2] = [(5, 3), (1, 2)];

/// `sum_w` of `map` (`map[j]` = generator protecting bit `j`) under the
/// §4.3 objective `Σ_j w_j · C(len_d + len_c, md) · p^md` of its
/// generator.
pub fn sum_w(weights: &[f64], gens: [(usize, usize); 2], p: f64, map: &[usize]) -> f64 {
    let mut len_d = [0usize; 2];
    for &g in map {
        len_d[g] += 1;
    }
    let f = |g: usize| choose_times_pow(len_d[g] + gens[g].0, gens[g].1, p);
    weights.iter().zip(map).map(|(w, &g)| w * f(g)).sum()
}

/// `sum_w` of `map` over the exact optimum: 1.0 for an optimal map,
/// larger for a worse one.
pub fn sum_w_ratio(weights: &[f64], gens: [(usize, usize); 2], p: f64, map: &[usize]) -> f64 {
    sum_w(weights, gens, p, map) / exact_optimum(weights, gens, p).0
}

/// The exact optimum of the §4.3 objective over every map that leaves
/// both generators non-empty, with one optimal map.
///
/// For a fixed split `t = len_d(G0)` the objective is
/// `f1 · Σ w + (f0 − f1) · Σ_{j ∈ G0} w_j`, linear in the bits placed
/// on `G0`, so the best `t`-set is the `t` lightest bits when
/// `f0 ≥ f1` and the `t` heaviest otherwise. Trying both ends for every
/// `t = 1..lw−1` and keeping the minimum is exact.
pub fn exact_optimum(weights: &[f64], gens: [(usize, usize); 2], p: f64) -> (f64, Vec<usize>) {
    let lw = weights.len();
    let mut order: Vec<usize> = (0..lw).collect();
    order.sort_by(|&a, &b| weights[a].total_cmp(&weights[b]));
    let mut best: Option<(f64, Vec<usize>)> = None;
    for t in 1..lw {
        let lightest = &order[..t];
        let heaviest = &order[lw - t..];
        for chosen in [lightest, heaviest] {
            let mut map = vec![1usize; lw];
            for &j in chosen {
                map[j] = 0;
            }
            let value = sum_w(weights, gens, p, &map);
            if best.as_ref().is_none_or(|(b, _)| value < *b) {
                best = Some((value, map));
            }
        }
    }
    best.expect("at least two weights")
}
