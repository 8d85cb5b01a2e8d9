//! Golden fingerprints of `run_stream`: the exact statistics, burst
//! profile, lost-word list and a hash of the delivered bytes for four
//! configurations, pinned so that any change in the datapath's
//! observable behaviour fails here. (`same_seed_is_bit_identical`
//! compares two runs of one build, so it cannot see such a change.)
//!
//! The four configurations cover the default static deployment, a
//! partial final interleaver block with a short final generation, a
//! heavy channel that leaves erased frames unrecoverable (gaps in the
//! estimator's view), and the composite code `run_adaptive` deploys.

use fec_channel::burst::GilbertElliott;
use fec_stream::{
    deterministic_payload, run_adaptive, run_stream, AdaptConfig, StreamConfig, StreamOutcome,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A histogram as its length and its non-zero `bucket: count` pairs.
fn sparse(hist: &[u64]) -> String {
    let nonzero: Vec<String> = hist
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, n)| format!("{i}: {n}"))
        .collect();
    format!("len {} {{{}}}", hist.len(), nonzero.join(", "))
}

/// Every observable of one run, one item per line.
fn fingerprint(out: &StreamOutcome) -> String {
    let p = &out.profile;
    let lost_bytes: Vec<u8> = out
        .lost_words
        .iter()
        .flat_map(|&j| (j as u64).to_le_bytes())
        .collect();
    format!(
        "stats {:?}\n\
         bits_observed {} bit_errors {} bursts {} bursts_observed {}\n\
         run_hist {}\n\
         position_errors {:?}\n\
         frame_bits {} frames_observed {} frame_erasures {} erasure_clusters {}\n\
         erasure_run_hist {}\n\
         unknown_frames {} erased_truth_flips {} erased_truth_frames {}\n\
         lost_words {} fnv1a {:#018x}\n\
         bytes_len {} bytes_fnv1a {:#018x}",
        out.stats,
        p.bits_observed,
        p.bit_errors,
        p.bursts,
        p.bursts_observed(),
        sparse(&p.run_hist),
        p.position_errors,
        p.frame_bits,
        p.frames_observed,
        p.frame_erasures,
        p.erasure_clusters,
        sparse(&p.erasure_run_hist),
        p.unknown_frames,
        p.erased_truth_flips,
        p.erased_truth_frames,
        out.lost_words.len(),
        fnv1a(&lost_bytes),
        out.bytes.len(),
        fnv1a(&out.bytes),
    )
}

fn check(name: &str, out: &StreamOutcome, golden: &str) {
    let got = fingerprint(out);
    assert!(
        got == golden,
        "{name}: fingerprint changed\n--- got ---\n{got}\n--- golden ---\n{golden}"
    );
}

#[test]
fn static_8023df_64k_seed_1() {
    let payload = deterministic_payload(64 * 1024, 1);
    let out = run_stream(&payload, &StreamConfig::static_8023df(1));
    check("static", &out, STATIC_8023DF);
}

#[test]
fn depth_3_partial_block_and_short_generation() {
    let payload = deterministic_payload(10_000, 2);
    let cfg = StreamConfig {
        depth: 3,
        gen_size: 13,
        repair: 3,
        ..StreamConfig::static_8023df(2)
    };
    let out = run_stream(&payload, &cfg);
    // 667 data words: a final generation of 4 words, and 823 frames,
    // so the final interleaver block holds a single frame
    assert_eq!(out.stats.data_words % 13, 4);
    assert_eq!(out.stats.frames % 3, 1);
    check("depth 3", &out, DEPTH_3);
}

#[test]
fn heavy_channel_leaves_unknown_frames() {
    let payload = deterministic_payload(16 * 1024, 3);
    let cfg = StreamConfig {
        channel: GilbertElliott {
            p_gb: 0.01,
            p_bg: 0.05,
            ber_good: 1e-3,
            ber_bad: 0.4,
        },
        ..StreamConfig::static_8023df(3)
    };
    let out = run_stream(&payload, &cfg);
    assert!(
        out.profile.unknown_frames > 0,
        "the estimator must see gaps"
    );
    check("heavy", &out, HEAVY);
}

#[test]
fn adaptive_run_seed_1() {
    let payload = deterministic_payload(16 * 1024, 1);
    let a = run_adaptive(
        &payload,
        &StreamConfig::static_8023df(1),
        &AdaptConfig::default(),
    )
    .expect("synthesis");
    let got = format!(
        "map {:?} depth {} repair {}\n\
         --- probe\n{}\n--- static replay\n{}\n--- composite replay\n{}",
        a.adapted.map,
        a.adapted.depth,
        a.adapted.repair,
        fingerprint(&a.probe),
        fingerprint(&a.static_replay),
        fingerprint(&a.adapted_replay),
    );
    assert!(
        got == ADAPTIVE,
        "adaptive: fingerprint changed\n--- got ---\n{got}\n--- golden ---\n{ADAPTIVE}"
    );
}

const STATIC_8023DF: &str = "\
stats StreamStats { data_words: 4370, frames: 4918, channel_bits: 629504, channel_flips: 1851, erased_frames: 1087, erased_data_words: 957, recovered_words: 90, lost_words: 867, corrupted_words: 2, bursts_observed: 170, recovery_latency_mean: 10.477777777777778, recovery_latency_max: 17, max_generation_erasures: 12 }\n\
bits_observed 505344 bit_errors 180 bursts 170 bursts_observed 170\n\
run_hist len 64 {0: 162, 1: 6, 2: 2}\n\
position_errors [6, 2, 5, 6, 2, 1, 2, 4, 2, 3, 1, 4, 1, 1, 2, 4, 1, 1, 1, 3, 3, 2, 4, 3, 4, 3, 1, 0, 2, 0, 2, 0, 2, 1, 2, 0, 4, 4, 5, 5, 2, 3, 6, 5, 1, 1, 6, 5, 2, 3, 4, 4, 4, 3, 6, 1, 7, 5, 3, 3, 3, 2, 1, 1]\n\
frame_bits 128 frames_observed 4918 frame_erasures 1087 erasure_clusters 485\n\
erasure_run_hist len 16 {0: 237, 1: 95, 2: 48, 3: 66, 4: 17, 5: 6, 6: 6, 7: 6, 8: 1, 9: 1, 10: 2}\n\
unknown_frames 970 erased_truth_flips 180 erased_truth_frames 117\n\
lost_words 867 fnv1a 0xe6cc0b302d8df655\n\
bytes_len 65536 bytes_fnv1a 0xe4416cd96d98147e";
const DEPTH_3: &str = "\
stats StreamStats { data_words: 667, frames: 823, channel_bits: 105344, channel_flips: 229, erased_frames: 158, erased_data_words: 120, recovered_words: 38, lost_words: 82, corrupted_words: 0, bursts_observed: 64, recovery_latency_mean: 8.973684210526315, recovery_latency_max: 15, max_generation_erasures: 9 }\n\
bits_observed 91904 bit_errors 71 bursts 64 bursts_observed 64\n\
run_hist len 64 {0: 57, 1: 7}\n\
position_errors [2, 4, 1, 1, 2, 4, 1, 1, 3, 2, 0, 1, 0, 0, 0, 2, 2, 3, 1, 3, 1, 0, 1, 2, 0, 1, 1, 0, 0, 0, 1, 1, 2, 1, 2, 1, 0, 0, 1, 0, 1, 0, 2, 2, 1, 0, 2, 0, 1, 1, 0, 0, 1, 1, 1, 2, 1, 0, 1, 0, 1, 2, 2, 1]\n\
frame_bits 128 frames_observed 823 frame_erasures 158 erasure_clusters 94\n\
erasure_run_hist len 16 {0: 58, 1: 17, 2: 14, 3: 3, 5: 2}\n\
unknown_frames 105 erased_truth_flips 71 erased_truth_frames 53\n\
lost_words 82 fnv1a 0xc347195767b04c4b\n\
bytes_len 10000 bytes_fnv1a 0xfaec10f34c538ebd";
const HEAVY: &str = "\
stats StreamStats { data_words: 1093, frames: 1231, channel_bits: 157568, channel_flips: 11191, erased_frames: 1196, erased_data_words: 1061, recovered_words: 0, lost_words: 1061, corrupted_words: 8, bursts_observed: 0, recovery_latency_mean: 0.0, recovery_latency_max: 0, max_generation_erasures: 18 }\n\
bits_observed 4480 bit_errors 0 bursts 0 bursts_observed 0\n\
run_hist len 64 {}\n\
position_errors [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n\
frame_bits 128 frames_observed 1231 frame_erasures 1196 erasure_clusters 30\n\
erasure_run_hist len 16 {0: 4, 1: 2, 2: 2, 5: 1, 8: 2, 11: 1, 12: 1, 15: 17}\n\
unknown_frames 1196 erased_truth_flips 0 erased_truth_frames 0\n\
lost_words 1061 fnv1a 0x1729ec2958288baa\n\
bytes_len 16384 bytes_fnv1a 0x37b230ae04d261c3";
const ADAPTIVE: &str = "\
map [0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1] depth 1 repair 3\n\
--- probe\n\
stats StreamStats { data_words: 547, frames: 617, channel_bits: 78976, channel_flips: 270, erased_frames: 143, erased_data_words: 126, recovered_words: 10, lost_words: 116, corrupted_words: 0, bursts_observed: 17, recovery_latency_mean: 10.5, recovery_latency_max: 14, max_generation_erasures: 12 }\n\
bits_observed 62208 bit_errors 17 bursts 17 bursts_observed 17\n\
run_hist len 64 {0: 17}\n\
position_errors [0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 2, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0]\n\
frame_bits 128 frames_observed 617 frame_erasures 143 erasure_clusters 56\n\
erasure_run_hist len 16 {0: 24, 1: 10, 2: 10, 3: 6, 4: 2, 5: 1, 7: 1, 9: 1, 10: 1}\n\
unknown_frames 131 erased_truth_flips 17 erased_truth_frames 12\n\
lost_words 116 fnv1a 0x37fd4ed70d887407\n\
bytes_len 8192 bytes_fnv1a 0x6caef9c6fad92910\n\
--- static replay\n\
stats StreamStats { data_words: 547, frames: 617, channel_bits: 78976, channel_flips: 204, erased_frames: 117, erased_data_words: 104, recovered_words: 11, lost_words: 93, corrupted_words: 0, bursts_observed: 20, recovery_latency_mean: 7.0, recovery_latency_max: 17, max_generation_erasures: 7 }\n\
bits_observed 65664 bit_errors 20 bursts 20 bursts_observed 20\n\
run_hist len 64 {0: 20}\n\
position_errors [0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1]\n\
frame_bits 128 frames_observed 617 frame_erasures 117 erasure_clusters 61\n\
erasure_run_hist len 16 {0: 35, 1: 11, 2: 6, 3: 7, 6: 2}\n\
unknown_frames 104 erased_truth_flips 20 erased_truth_frames 13\n\
lost_words 93 fnv1a 0x07cb7b51a723d4f2\n\
bytes_len 8192 bytes_fnv1a 0xc8fdf6d5b0eb6a01\n\
--- composite replay\n\
stats StreamStats { data_words: 4096, frames: 4864, channel_bits: 107008, channel_flips: 288, erased_frames: 118, erased_data_words: 109, recovered_words: 82, lost_words: 27, corrupted_words: 3, bursts_observed: 148, recovery_latency_mean: 10.365853658536585, recovery_latency_max: 18, max_generation_erasures: 5 }\n\
bits_observed 106392 bit_errors 196 bursts 148 bursts_observed 148\n\
run_hist len 64 {0: 120, 1: 15, 2: 8, 3: 3, 4: 2}\n\
position_errors [4, 3, 6, 4, 5, 5, 6, 6, 6, 2, 5, 3, 4, 4, 2, 1, 0, 2, 4, 1, 1, 2, 1, 4, 0, 1, 2, 1, 1, 3, 1, 2, 3, 4, 1, 2, 4, 2, 2, 3, 4, 1, 1, 3, 4, 5, 4, 4, 6, 5, 5, 4, 2, 3, 3, 5, 4, 4, 4, 1, 0, 3, 3, 5]\n\
frame_bits 22 frames_observed 4864 frame_erasures 118 erasure_clusters 93\n\
erasure_run_hist len 16 {0: 71, 1: 21, 4: 1}\n\
unknown_frames 28 erased_truth_flips 196 erased_truth_frames 90\n\
lost_words 27 fnv1a 0x30139bc0ede60559\n\
bytes_len 8192 bytes_fnv1a 0x9a90195659891433";
