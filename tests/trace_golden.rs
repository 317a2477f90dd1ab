//! Golden digests of the synthetic paper-trace generator.
//!
//! Every experiment, baseline and pinned benchmark count in this
//! repository is a function of the exact event stream `AtumLike` emits for
//! a seed. These tests fold every event of three representative traces into
//! a 64-bit digest and pin it, so any change to the generator that adds,
//! drops or reorders an RNG draw, or perturbs one floating-point result,
//! fails `cargo test` instead of silently shifting every downstream figure.

use seta::trace::gen::{AtumLike, AtumLikeConfig};
use seta::trace::{AccessKind, TraceEvent};

/// FNV-1a over 64-bit words: the event count and a fold of every event's
/// address, kind and flush marker, in stream order.
fn digest(events: impl Iterator<Item = TraceEvent>) -> (u64, u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut count = 0u64;
    for ev in events {
        let words = match ev {
            TraceEvent::Ref(r) => {
                let kind = match r.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                    AccessKind::InstrFetch => 2,
                };
                [r.addr, kind]
            }
            TraceEvent::Flush => [u64::MAX, 3],
        };
        for w in words {
            h = (h ^ w).wrapping_mul(PRIME);
        }
        count += 1;
    }
    (count, h)
}

#[test]
fn paper_segments_digest_is_pinned() {
    let trace = AtumLike::segment_range(AtumLikeConfig::paper_like(), 0xCACE, 0, 2);
    assert_eq!(digest(trace), (700_002, 15_608_080_013_335_346_824));
}

#[test]
fn warm_scaled_trace_digest_is_pinned() {
    let mut config = AtumLikeConfig::scaled(50);
    config.flush_between_segments = false;
    assert_eq!(
        digest(AtumLike::new(config, 11)),
        (20_000, 3_778_922_498_875_128_715)
    );
}

#[test]
fn write_heavy_multiprogram_digest_is_pinned() {
    let mut config = AtumLikeConfig::scaled(10);
    config.multiprogram.processes = 8;
    config.multiprogram.process.data.write_fraction = 0.5;
    assert_eq!(
        digest(AtumLike::new(config, 0x5EED)),
        (70_002, 1_305_696_109_990_905_701)
    );
}
