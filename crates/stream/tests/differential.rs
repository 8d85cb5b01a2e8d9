//! Differential bit-exactness checks for the streaming pipeline,
//! run under fixed seeds in CI (`stream-smoke`).
//!
//! The contract under test is the ISSUE's acceptance criterion: the
//! decoded stream is bit-exact vs. the input at configured loss rates,
//! and when loss exceeds the code's capability the pipeline *reports*
//! the affected words rather than silently corrupting them.

use fec_channel::burst::GilbertElliott;
use fec_stream::{
    deterministic_payload, run_adaptive, run_stream, AdaptConfig, AdaptiveOutcome, StreamConfig,
};

/// A loss rate the configured pipeline (802.3df + depth-4 interleave +
/// 8 repair words per 16-word generation) is provisioned to beat.
fn within_capability(seed: u64) -> StreamConfig {
    StreamConfig {
        repair: 8,
        channel: GilbertElliott {
            p_gb: 3e-4,
            p_bg: 0.25,
            ber_good: 0.0,
            ber_bad: 0.25,
        },
        ..StreamConfig::static_8023df(seed)
    }
}

#[test]
fn clean_channel_is_a_bit_exact_identity() {
    let payload = deterministic_payload(4096, 9);
    let cfg = StreamConfig {
        channel: GilbertElliott {
            p_gb: 0.0,
            p_bg: 1.0,
            ber_good: 0.0,
            ber_bad: 0.0,
        },
        ..StreamConfig::static_8023df(9)
    };
    let out = run_stream(&payload, &cfg);
    assert_eq!(out.bytes, payload);
    assert!(out.lost_words.is_empty());
    assert_eq!(out.stats.erased_frames, 0);
    assert_eq!(out.stats.channel_flips, 0);
}

#[test]
fn decoded_stream_is_bit_exact_at_configured_loss() {
    for seed in [1u64, 2, 3, 4, 5] {
        let payload = deterministic_payload(8192, seed);
        let out = run_stream(&payload, &within_capability(seed));
        assert!(
            out.stats.channel_flips > 0,
            "seed {seed}: the channel must actually corrupt something"
        );
        assert_eq!(
            out.stats.corrupted_words, 0,
            "seed {seed}: no silent corruption"
        );
        assert!(
            out.lost_words.is_empty(),
            "seed {seed}: losses at this rate must be recovered (lost {:?})",
            out.lost_words
        );
        assert_eq!(
            out.bytes, payload,
            "seed {seed}: delivery must be bit-exact"
        );
    }
}

#[test]
fn overload_reports_losses_and_never_corrupts() {
    // Thin repair on the full bursty channel: loss exceeds capability,
    // so words MUST go missing — and every damaged word must be in
    // `lost_words`, zero-filled, with nothing silently wrong.
    for seed in [1u64, 2, 3] {
        let payload = deterministic_payload(8192, seed);
        let cfg = StreamConfig {
            repair: 1,
            ..StreamConfig::static_8023df(seed)
        };
        let out = run_stream(&payload, &cfg);
        assert!(
            !out.lost_words.is_empty(),
            "seed {seed}: overload must lose words"
        );
        assert_eq!(
            out.stats.corrupted_words, 0,
            "seed {seed}: overload must report, not corrupt"
        );
        // Word-level audit: recompute both sides' words and check that
        // every mismatch is a reported loss.
        let pkt = fec_stream::Packetizer::new(cfg.inner.data_len());
        let sent = pkt.packetize(&payload);
        let got = pkt.packetize(&out.bytes);
        assert_eq!(sent.len(), got.len());
        for (j, (s, g)) in sent.iter().zip(&got).enumerate() {
            if s != g {
                assert!(
                    out.lost_words.contains(&j),
                    "seed {seed}: word {j} differs but was not reported lost"
                );
            }
        }
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let payload = deterministic_payload(8192, 7);
    let cfg = StreamConfig::static_8023df(7);
    let a = run_stream(&payload, &cfg);
    let b = run_stream(&payload, &cfg);
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.lost_words, b.lost_words);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.profile.bit_errors, b.profile.bit_errors);
    assert_eq!(a.profile.run_hist, b.profile.run_hist);
    assert_eq!(a.profile.erasure_run_hist, b.profile.erasure_run_hist);
}

#[test]
fn adapted_code_beats_static_on_the_bursty_channel() {
    // The headline experiment at one fixed seed: probe the first half
    // under the static 802.3df deployment, synthesize from the
    // decoder's measured profile, and replay the second half under
    // both. The adapted code must deliver strictly lower residual loss.
    let payload = deterministic_payload(16384, 1);
    let base = StreamConfig::static_8023df(1);
    let a = run_adaptive(&payload, &base, &AdaptConfig::default()).expect("synthesis");
    let static_res = a.static_replay.stats.residual_loss();
    let adapted_res = a.adapted_replay.stats.residual_loss();
    assert!(
        adapted_res < static_res,
        "adapted residual {adapted_res} must be strictly below static {static_res}"
    );
    // The probe must have genuinely observed the channel…
    assert!(a.probe.profile.bits_observed > 0);
    assert!(a.probe.stats.erased_frames > 0);
    // …and the synthesized replacement must be a real composite code.
    assert_eq!(a.adapted.code.data_len(), 16);
    assert!(a.adapted.code.codeword_len() <= 64);
}

#[test]
fn adaptation_is_deterministic() {
    // No part of the adaptive run may depend on the wall clock: the
    // same seed and payload must give the same synthesized code and the
    // same replays.
    let payload = deterministic_payload(16384, 1);
    let base = StreamConfig::static_8023df(1);
    let run = || run_adaptive(&payload, &base, &AdaptConfig::default()).expect("synthesis");
    let (a, b) = (run(), run());
    let generators = |o: &AdaptiveOutcome| {
        o.adapted
            .code
            .segments()
            .iter()
            .map(|s| s.generator.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(a.adapted.map, b.adapted.map);
    assert_eq!(generators(&a), generators(&b));
    assert_eq!(a.adapted.sum_w.to_bits(), b.adapted.sum_w.to_bits());
    assert_eq!(a.adapted.iterations, b.adapted.iterations);
    assert_eq!(
        (a.adapted.depth, a.adapted.repair),
        (b.adapted.depth, b.adapted.repair)
    );
    assert_eq!(a.static_replay.stats, b.static_replay.stats);
    assert_eq!(a.adapted_replay.stats, b.adapted_replay.stats);
    assert_eq!(a.adapted_replay.bytes, b.adapted_replay.bytes);
    assert_eq!(a.adapted_replay.lost_words, b.adapted_replay.lost_words);
}
