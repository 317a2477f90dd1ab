//! Concurrency correctness properties of the served cache.
//!
//! Three pinned invariants, exercised at 1/2/16 threads like the sharded
//! sweep's property tests:
//!
//! 1. **Sequential identity** — a 1-thread replay of the bundled Dinero
//!    trace produces shared-cache statistics bit-identical to sequential
//!    [`simulate`], probes included, for every kind of lookup strategy.
//! 2. **Disjoint-key occupancy** — when chunks touch disjoint sets, an
//!    N-thread replay leaves exactly the per-set occupancy (and resident
//!    blocks) of a sequential replay, and its per-client tallies sum to
//!    the sequential replay's statistics and probes.
//! 3. **Conservation** — client-side and cache-side tallies agree at
//!    every thread count, on arbitrary workloads, for every strategy,
//!    with requests answered from MRU words included.
//! 4. **MRU words** — a one-client replay answers from the sets' MRU
//!    words exactly the requests that a sequential hierarchy, sharing no
//!    code with the served cache, sees hit the MRU block without changing
//!    it. (That every word names its bank's MRU frame is a unit property
//!    of the cache module.)

use proptest::prelude::*;
use seta_cache::CacheConfig;
use seta_core::lookup::{
    Banked, LookupStrategy, Mru, Naive, PartialCompare, ScanOrder, Traditional, TransformKind,
};
use seta_core::StrategyKind;
use seta_serve::loadgen::{replay_with_cache, unchanging_mru_hits};
use seta_serve::{replay, replay_contended, LoadSpec};
use seta_sim::runner::simulate;
use seta_trace::format::DineroReader;
use seta_trace::{TraceEvent, TraceRecord};

const TINY_DIN: &str = include_str!("../../../traces/tiny.din");

fn tiny_events() -> Vec<TraceEvent> {
    DineroReader::new(TINY_DIN.as_bytes())
        .collect::<Result<Vec<_>, _>>()
        .expect("bundled trace parses")
}

fn guard_geometry() -> (CacheConfig, CacheConfig) {
    (
        CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
        CacheConfig::new(64 * 1024, 32, 4).unwrap(),
    )
}

#[test]
fn one_thread_replay_is_bit_identical_to_sequential_simulate() {
    let (l1, l2) = guard_geometry();
    let events = tiny_events();
    let strategies: Vec<Box<dyn seta_core::lookup::LookupStrategy>> = vec![Box::new(Mru::full())];
    let sequential = simulate(l1, l2, events.iter().cloned(), &strategies);

    let spec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
    let served = replay(&events, 1, &spec);

    assert!(served.conserves(), "{served:?}");
    assert_eq!(served.l2_stats, sequential.l2_stats, "shared-cache stats");
    assert_eq!(served.l1_stats, sequential.l1_stats, "private L1 stats");
    assert_eq!(served.refs, sequential.hierarchy.processor_refs);
    assert_eq!(served.read_ins, sequential.hierarchy.read_ins);
    assert_eq!(served.read_in_hits, sequential.hierarchy.read_in_hits);
    assert_eq!(served.write_backs, sequential.hierarchy.write_backs);
    assert_eq!(
        served.l2_probes, sequential.strategies[0].probes,
        "probe pricing matches the sweep scorer"
    );
}

/// The strategy behind `kind`, boxed the way `simulate` takes it.
fn boxed(kind: StrategyKind) -> Box<dyn LookupStrategy> {
    match kind {
        StrategyKind::Traditional(s) => Box::new(s),
        StrategyKind::Naive(s) => Box::new(s),
        StrategyKind::Mru(s) => Box::new(s),
        StrategyKind::Partial(s) => Box::new(s),
        StrategyKind::Banked(s) => Box::new(s),
    }
}

/// Every kind of lookup strategy, each built-in variant once.
fn every_kind() -> [StrategyKind; 9] {
    [
        StrategyKind::Traditional(Traditional),
        StrategyKind::Naive(Naive),
        StrategyKind::Mru(Mru::full()),
        StrategyKind::Mru(Mru::truncated(2)),
        // `simulate` keeps packed lanes for the first partial compare only,
        // so the other two are priced from tags it packs per request; the
        // served cache keeps lanes for whichever one it runs.
        StrategyKind::Partial(PartialCompare::new(16, 1, TransformKind::XorFold)),
        StrategyKind::Partial(PartialCompare::new(16, 2, TransformKind::Improved)),
        StrategyKind::Partial(PartialCompare::new(32, 1, TransformKind::Swap)),
        StrategyKind::Banked(Banked::new(2, ScanOrder::Frame)),
        StrategyKind::Banked(Banked::new(2, ScanOrder::Mru)),
    ]
}

/// `(address, is_write)` pairs as trace events.
fn mixed_events(addrs: &[(u64, bool)]) -> Vec<TraceEvent> {
    addrs
        .iter()
        .map(|&(a, w)| {
            TraceEvent::Ref(if w {
                TraceRecord::write(a)
            } else {
                TraceRecord::read(a)
            })
        })
        .collect()
}

/// Serve prices a read-in from what the bank's access reports, plus the
/// set contents that partial compare and truncated MRU lists read before
/// it; `simulate` prices from the hierarchy's request view. A 1-client
/// replay must book exactly `simulate`'s probes for every kind, so the two
/// inputs cannot drift apart.
#[test]
fn one_thread_replay_prices_every_kind_like_simulate() {
    let kinds = every_kind();
    let strategies: Vec<Box<dyn LookupStrategy>> = kinds.iter().map(|&k| boxed(k)).collect();
    let events = tiny_events();
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
    for assoc in [4, 8] {
        let l2 = CacheConfig::new(64 * 1024, 32, assoc).unwrap();
        let sequential = simulate(l1, l2, events.iter().cloned(), &strategies);
        for (kind, expected) in kinds.iter().zip(&sequential.strategies) {
            let served = replay(&events, 1, &LoadSpec::new(l1, l2, *kind));
            assert_eq!(served.l2_stats, sequential.l2_stats, "{}", expected.name);
            assert_eq!(
                served.l2_probes, expected.probes,
                "{} at a = {assoc}",
                expected.name
            );
        }
    }
}

#[test]
fn disjoint_key_chunks_match_sequential_occupancy() {
    // 64-set shared cache; four chunks, each touching only its own 16
    // sets, read-only (so no cross-chunk write-back traffic exists). The
    // final contents, and every set's hits, misses and probes, must then
    // be independent of interleaving, whichever client's tally slot
    // counted them.
    let l1 = CacheConfig::direct_mapped(512, 16).unwrap();
    let l2 = CacheConfig::new(8 * 1024, 32, 4).unwrap(); // 64 sets
    let num_sets = l2.num_sets();
    assert_eq!(num_sets, 64);

    let sets_per_chunk = 16u64;
    let block = 32u64;
    let mut events = Vec::new();
    for chunk in 0..4u64 {
        for i in 0..600u64 {
            let set = chunk * sets_per_chunk + (i % sets_per_chunk);
            // Vary the tag so sets see misses, evictions and re-hits.
            let tag = (i / sets_per_chunk) % 7;
            let addr = (tag * num_sets + set) * block;
            events.push(TraceEvent::Ref(TraceRecord::read(addr)));
        }
    }

    let mut spec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
    spec.chunks = Some(4);
    let (base, base_cache) = replay_with_cache(&events, 1, &spec);
    assert!(base.conserves());

    for threads in [1usize, 2, 4, 16] {
        let (out, cache) = replay_with_cache(&events, threads, &spec);
        assert!(out.conserves(), "{threads} threads");
        assert_eq!(out.requests, base.requests, "{threads} threads");
        assert_eq!(cache.stats(), base_cache.stats(), "{threads} threads");
        assert_eq!(
            cache.probe_stats(),
            base_cache.probe_stats(),
            "{threads} threads"
        );
        for set in 0..num_sets {
            assert_eq!(
                cache.occupancy(set),
                base_cache.occupancy(set),
                "set {set} at {threads} threads"
            );
        }
        let mut got = cache.resident_addrs();
        let mut want = base_cache.resident_addrs();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{threads} threads");
    }
}

/// Requests a one-client replay answered without the lock, from its
/// contention report: accesses that took no acquisition.
fn lock_free_requests(events: &[TraceEvent], spec: &LoadSpec) -> u64 {
    let (out, report) = replay_contended(events, 1, spec);
    assert_eq!(report.total_accesses(), out.requests);
    report.lock_free()
}

/// At one client, the requests answered from MRU words are exactly the
/// hierarchy's MRU hits that change nothing, for every strategy but
/// partial compare, which answers none without the lock: its price at
/// MRU distance 0 reads the set's contents.
#[test]
fn one_client_lock_free_requests_match_the_hierarchy() {
    let events = tiny_events();
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
    for assoc in [1, 4, 8] {
        let l2 = CacheConfig::new(64 * 1024, 32, assoc).unwrap();
        for kind in every_kind() {
            let oracle = unchanging_mru_hits(l1, l2, kind, &events);
            match kind {
                StrategyKind::Partial(_) => assert_eq!(oracle, 0),
                _ => assert!(oracle > 0, "a = {assoc}: the trace re-hits MRU blocks"),
            }
            let got = lock_free_requests(&events, &LoadSpec::new(l1, l2, kind));
            assert_eq!(got, oracle, "{} at a = {assoc}", kind.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The one-client oracle on arbitrary workloads, flushes included.
    #[test]
    fn one_client_lock_free_requests_match_the_hierarchy_anywhere(
        addrs in proptest::collection::vec((0u64..0x8000, any::<bool>()), 50..400),
        flush_at in 0usize..500,
    ) {
        let (l1, l2) = guard_geometry();
        let mut events = mixed_events(&addrs);
        if flush_at < 400 {
            events.insert(flush_at.min(events.len()), TraceEvent::Flush);
        }
        let spec = LoadSpec::new(l1, l2, StrategyKind::Mru(Mru::full()));
        prop_assert_eq!(
            lock_free_requests(&events, &spec),
            unchanging_mru_hits(l1, l2, spec.strategy, &events)
        );
    }

    /// Client and cache tallies conserve for arbitrary mixed workloads at
    /// 1, 2, 4 and 16 threads, for every strategy, with requests answered
    /// from MRU words included. The instrumented replay also conserves,
    /// sees every request as one access of its stripe, at most one
    /// acquisition each (exactly one under partial compare), and one wait
    /// and one hold sample per acquisition.
    #[test]
    fn counters_conserve_at_all_thread_counts(
        addrs in proptest::collection::vec((0u64..0x8000, any::<bool>()), 50..400),
        flush_at in 0usize..500,
    ) {
        let (l1, l2) = guard_geometry();
        let mut events = mixed_events(&addrs);
        // Values past the workload length mean "no flush" — the vendored
        // proptest subset has no option combinator.
        if flush_at < 400 {
            events.insert(flush_at.min(events.len()), TraceEvent::Flush);
        }
        let expected_refs = addrs.len() as u64;
        for kind in every_kind() {
            let spec = LoadSpec::new(l1, l2, kind);
            for threads in [1usize, 2, 4, 16] {
                let out = replay(&events, threads, &spec);
                prop_assert_eq!(out.refs, expected_refs, "{} threads", threads);
                prop_assert!(out.conserves(), "{} at {} threads: {:?}", kind.name(), threads, out);
                let (out, report) = replay_contended(&events, threads, &spec);
                prop_assert!(out.conserves(), "{} at {} threads", kind.name(), threads);
                prop_assert_eq!(report.total_accesses(), out.requests);
                prop_assert_eq!(report.total_hits(), out.l2_stats.hits());
                let acquisitions = report.total_acquisitions();
                prop_assert!(acquisitions <= out.requests);
                if matches!(kind, StrategyKind::Partial(_)) {
                    prop_assert_eq!(acquisitions, out.requests, "{}", kind.name());
                }
                for s in &report.stripes {
                    prop_assert_eq!(s.wait_ns.count, s.acquisitions);
                    prop_assert_eq!(s.hold_ns.count, s.acquisitions);
                }
            }
        }
    }
}
