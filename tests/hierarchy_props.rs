//! Property tests over the full stack: arbitrary reference streams through
//! the two-level hierarchy with all strategies attached.

use proptest::prelude::*;
use seta::cache::{
    CacheConfig, Frame, L1Half, L2Half, L2RequestKind, L2RequestView, Policy, TwoLevel,
};
use seta::core::lookup::TransformKind;
use seta::core::packed::LaneSpec;
use seta::sim::runner::{simulate, standard_strategies};
use seta::trace::{TraceEvent, TraceRecord};

/// Every field of one [`L2RequestView`], owned, so request sequences from
/// different hierarchies can be compared.
#[derive(Debug, Clone, PartialEq)]
struct SeenRequest {
    kind: L2RequestKind,
    addr: u64,
    set: u64,
    tag: u64,
    hit: bool,
    hit_way: Option<u8>,
    mru_distance: Option<usize>,
    frames: Vec<Frame>,
    tags: Vec<u64>,
    order: Vec<u8>,
    hint_correct: Option<bool>,
    lanes: Option<(LaneSpec, Vec<u64>)>,
}

impl SeenRequest {
    fn of(req: &L2RequestView<'_>) -> Self {
        SeenRequest {
            kind: req.kind,
            addr: req.addr,
            set: req.set,
            tag: req.tag,
            hit: req.hit,
            hit_way: req.hit_way,
            mru_distance: req.mru_distance,
            frames: req.frames.iter().collect(),
            tags: req.frames.tags().to_vec(),
            order: req.order.to_vec(),
            hint_correct: req.hint_correct,
            lanes: req.lanes.map(|l| (l.spec(), l.words().to_vec())),
        }
    }
}

/// L2 geometries behind one 256 B direct-mapped L1 with 16 B blocks:
/// mixed sizes, block sizes and associativities, with packed lanes on
/// where a 16-bit, one-subset partial compare is realizable.
fn member_l2s() -> Vec<(CacheConfig, Option<LaneSpec>)> {
    [
        (1024u64, 32u64, 4u32),
        (2048, 16, 8),
        (512, 16, 2),
        (4096, 64, 16),
    ]
    .into_iter()
    .map(|(size, block, assoc)| {
        let config = CacheConfig::new(size, block, assoc).expect("valid L2");
        (
            config,
            LaneSpec::try_new(16, 1, TransformKind::XorFold, assoc),
        )
    })
    .collect()
}

fn arbitrary_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        prop_oneof![
            9 => (0u64..0x8000, 0u8..3).prop_map(|(addr, k)| TraceEvent::Ref(match k {
                0 => TraceRecord::read(addr),
                1 => TraceRecord::write(addr),
                _ => TraceRecord::ifetch(addr),
            })),
            1 => Just(TraceEvent::Flush),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hierarchy never over-fills either level and its counters add up.
    #[test]
    fn hierarchy_counters_are_consistent(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 32, 4).expect("valid L2");
        let mut h = TwoLevel::new(l1, l2).expect("compatible levels");
        h.run(events.iter().copied(), &mut ());
        let s = h.stats();

        let refs = events.iter().filter(|e| !e.is_flush()).count() as u64;
        let flushes = events.iter().filter(|e| e.is_flush()).count() as u64;
        prop_assert_eq!(s.processor_refs, refs);
        prop_assert_eq!(s.flushes, flushes);
        prop_assert!(s.read_ins <= s.processor_refs);
        prop_assert!(s.read_in_hits <= s.read_ins);
        prop_assert!(s.write_backs <= s.read_ins, "at most one wb per miss");
        prop_assert!(s.write_back_hits <= s.write_backs);
        prop_assert!(h.l1().resident_blocks() <= 16);
        prop_assert!(h.l2().resident_blocks() <= 32);
        prop_assert!(s.global_miss_ratio() <= s.l1_miss_ratio() + 1e-12);
    }

    /// Every strategy agrees with the cache on every hit/miss, for any
    /// stream (enforced by a debug assertion in the runner; this exercises
    /// it and checks the aggregate counts).
    #[test]
    fn strategies_agree_on_arbitrary_streams(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(2048, 32, 8).expect("valid L2");
        let out = simulate(l1, l2, events, &standard_strategies(8, 16));
        for s in &out.strategies {
            prop_assert_eq!(s.probes.hits.count, out.hierarchy.read_in_hits);
        }
    }

    /// Replaying the same stream twice from a fresh hierarchy gives
    /// identical results (full determinism end to end).
    #[test]
    fn simulation_is_deterministic(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 16, 4).expect("valid L2");
        let a = simulate(l1, l2, events.iter().copied(), &standard_strategies(4, 16));
        let b = simulate(l1, l2, events, &standard_strategies(4, 16));
        prop_assert_eq!(a.hierarchy, b.hierarchy);
        for (x, y) in a.strategies.iter().zip(&b.strategies) {
            prop_assert_eq!(x.probes, y.probes);
        }
    }

    /// A flush at any point erases all state: the next reference misses.
    #[test]
    fn flush_always_cold_starts(mut events in arbitrary_events()) {
        events.push(TraceEvent::Flush);
        events.push(TraceEvent::Ref(TraceRecord::read(0x40)));
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2 = CacheConfig::new(1024, 16, 4).expect("valid L2");
        let mut h = TwoLevel::new(l1, l2).expect("compatible levels");
        let before_last: Vec<_> = events[..events.len() - 1].to_vec();
        h.run(before_last, &mut ());
        let read_ins = h.stats().read_ins;
        let hits = h.stats().read_in_hits;
        h.process(&events[events.len() - 1], &mut ());
        prop_assert_eq!(h.stats().read_ins, read_ins + 1, "post-flush ref reaches L2");
        prop_assert_eq!(h.stats().read_in_hits, hits, "and misses there");
    }

    /// `TwoLevel::step` is exactly the L1 half followed by the L2 half.
    #[test]
    fn step_is_the_l1_half_then_the_l2_half(events in arbitrary_events()) {
        let l1 = CacheConfig::new(512, 16, 2).expect("valid L1");
        let l2 = CacheConfig::new(2048, 32, 4).expect("valid L2");
        let mut whole = TwoLevel::new(l1, l2).expect("compatible levels");
        let mut front = L1Half::new(l1);
        let mut back = L2Half::new(&l1, l2, Policy::Lru, 0).expect("compatible levels");
        let mut seen_whole = Vec::new();
        let mut seen_halves = Vec::new();
        for event in &events {
            whole.process(event, &mut |r: &L2RequestView<'_>| seen_whole.push(SeenRequest::of(r)));
            match event {
                TraceEvent::Ref(r) => {
                    if let Some(miss) = front.access(r) {
                        let mut obs = |r: &L2RequestView<'_>| seen_halves.push(SeenRequest::of(r));
                        back.serve(&miss, &mut obs);
                    }
                }
                TraceEvent::Flush => {
                    front.flush();
                    back.flush();
                }
            }
        }
        prop_assert_eq!(seen_whole, seen_halves);
        prop_assert_eq!(*whole.stats(), back.stats(&front));
        prop_assert_eq!(whole.level_stats(), (*front.cache().stats(), *back.cache().stats()));
    }

    /// One L1 half feeding k L2 halves is k separate hierarchies: the same
    /// hierarchy counters, the same L2 statistics, and the same sequence
    /// of every request field, frames, hints and lanes included.
    #[test]
    fn one_l1_half_feeds_many_l2_halves(events in arbitrary_events()) {
        let l1 = CacheConfig::direct_mapped(256, 16).expect("valid L1");
        let l2s = member_l2s();
        let mut front = L1Half::new(l1);
        let mut backs: Vec<(L2Half, Vec<SeenRequest>)> = l2s
            .iter()
            .map(|&(l2, lanes)| {
                let mut back = L2Half::new(&l1, l2, Policy::Lru, 0).expect("compatible levels");
                if let Some(spec) = lanes {
                    prop_assert!(back.enable_partial_lanes(spec));
                }
                (back, Vec::new())
            })
            .collect();
        for event in &events {
            match event {
                TraceEvent::Ref(r) => {
                    if let Some(miss) = front.access(r) {
                        for (back, seen) in &mut backs {
                            let mut obs = |r: &L2RequestView<'_>| seen.push(SeenRequest::of(r));
                            back.serve(&miss, &mut obs);
                        }
                    }
                }
                TraceEvent::Flush => {
                    front.flush();
                    for (back, _) in &mut backs {
                        back.flush();
                    }
                }
            }
        }
        for ((l2, lanes), (back, seen)) in l2s.iter().zip(&backs) {
            let mut alone = TwoLevel::new(l1, *l2).expect("compatible levels");
            if let Some(spec) = lanes {
                prop_assert!(alone.enable_partial_lanes(*spec));
            }
            let mut seen_alone = Vec::new();
            alone.run(events.iter().copied(), &mut |r: &L2RequestView<'_>| {
                seen_alone.push(SeenRequest::of(r))
            });
            prop_assert_eq!(&seen_alone, seen, "{}", l2.label());
            prop_assert_eq!(*alone.stats(), back.stats(&front), "{}", l2.label());
            prop_assert_eq!(alone.l2().stats(), back.cache().stats(), "{}", l2.label());
            prop_assert_eq!(alone.l1().stats(), front.cache().stats(), "{}", l2.label());
        }
    }
}
