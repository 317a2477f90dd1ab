//! The pricer trusts the hit way and MRU distance that the cache reports,
//! so those facts are checked here against an oracle that shares no code
//! with `SetBank`: Mattson's one-pass LRU stack analysis. Under LRU an
//! `a`-way set hits exactly when a reference's stack distance is below
//! `a`, and the position a hit held in the set's recency list is that
//! stack distance.
//!
//! Every L2 request of [`TwoLevel`] (read-ins and write-backs, in issue
//! order, with the stacks cleared at each flush) is replayed into a
//! [`MattsonAnalyzer`] with the L2's block size and set count. The same
//! request stream then drives a bare [`SetBank`] and a one-client
//! [`ConcurrentCache`], whose reported facts must match the stack too.
//! The processor stream itself, flushes included, drives a plain
//! [`Cache`] at associativities 1 to 8 against a stack of its own; a = 1
//! is the direct-mapped L1 of every hierarchy here.

use proptest::prelude::*;
use seta::cache::{
    AddressMapper, Cache, CacheConfig, L2Observer, L2RequestKind, L2RequestView, MattsonAnalyzer,
    Policy, SetBank, TwoLevel,
};
use seta::core::lookup::Mru;
use seta::core::{MruDistanceHistogram, StrategyKind};
use seta::serve::ConcurrentCache;
use seta::sim::runner::{simulate, standard_strategies};
use seta::trace::gen::{AtumLike, AtumLikeConfig};
use seta::trace::{TraceEvent, TraceRecord};

/// One L2 request in issue order, or a flush.
#[derive(Debug, Clone, Copy)]
enum Request {
    Access { addr: u64, write_back: bool },
    Flush,
}

/// Checks every request the hierarchy issues against the stack as it goes,
/// and records the stream for the other caches.
struct Oracle {
    stack: MattsonAnalyzer,
    assoc: usize,
    /// Stack distances of read-in hits: what `RunOutcome::mru_hist` must
    /// hold.
    read_in_hits: MruDistanceHistogram,
    stream: Vec<Request>,
}

impl Oracle {
    fn new(l2: CacheConfig) -> Self {
        Oracle {
            stack: MattsonAnalyzer::new(l2.block_size(), l2.num_sets()),
            assoc: l2.associativity() as usize,
            read_in_hits: MruDistanceHistogram::new(l2.associativity() as usize),
            stream: Vec::new(),
        }
    }

    fn flush(&mut self) {
        self.stack.flush();
        self.stream.push(Request::Flush);
    }

    /// The stack distance of the next reference to `addr`, if it is
    /// within the cache's associativity (a hit).
    fn observe(&mut self, addr: u64) -> Option<usize> {
        self.stack.observe(addr).filter(|&d| d < self.assoc)
    }
}

impl L2Observer for Oracle {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        let write_back = req.kind == L2RequestKind::WriteBack;
        self.stream.push(Request::Access {
            addr: req.addr,
            write_back,
        });
        let distance = self.observe(req.addr);
        assert_eq!(req.hit, distance.is_some(), "hit of {req:?}");
        assert_eq!(req.mru_distance, distance, "MRU distance of {req:?}");
        assert_eq!(req.hit_way.is_some(), req.hit);
        if let (false, Some(d)) = (write_back, distance) {
            self.read_in_hits.record(d);
        }
    }
}

/// Runs `events` through a fresh hierarchy under the oracle, checks
/// `simulate`'s MRU histogram against it, and returns the L2 request
/// stream.
fn check_hierarchy(l1: CacheConfig, l2: CacheConfig, events: &[TraceEvent]) -> Vec<Request> {
    let mut hierarchy = TwoLevel::new(l1, l2).expect("L1 blocks fit in L2 blocks");
    let mut oracle = Oracle::new(l2);
    for event in events {
        if event.is_flush() {
            oracle.flush();
        }
        hierarchy.process(event, &mut oracle);
    }
    let strategies = standard_strategies(l2.associativity(), 16);
    let outcome = simulate(l1, l2, events.iter().copied(), &strategies);
    assert_eq!(outcome.hierarchy, *hierarchy.stats());
    for d in 0..oracle.assoc {
        assert_eq!(
            outcome.mru_hist.count(d),
            oracle.read_in_hits.count(d),
            "read-in hits at distance {d}"
        );
    }
    assert_eq!(outcome.mru_hist.total(), oracle.read_in_hits.total());
    oracle.stream
}

/// Replays the request stream into a bare `SetBank` and a one-client
/// `ConcurrentCache`, checking each against a fresh stack.
fn check_banks(l2: CacheConfig, stream: &[Request]) {
    let assoc = l2.associativity();
    let mapper = AddressMapper::new(l2.block_size(), l2.num_sets());
    let mut bank = SetBank::new(l2.num_sets() as usize, assoc as usize, Policy::Lru, 0);
    let served = ConcurrentCache::new(l2, StrategyKind::Mru(Mru::full()), 4);
    let mut oracle = Oracle::new(l2);
    for &request in stream {
        let Request::Access { addr, write_back } = request else {
            oracle.flush();
            bank.flush();
            served.flush();
            continue;
        };
        let distance = oracle.observe(addr);
        let set = mapper.set_of(addr) as usize;
        let access = bank.access(set, mapper.tag_of(addr), write_back);
        assert_eq!(access.hit, distance.is_some(), "bank hit at {addr:#x}");
        assert_eq!(access.mru_distance, distance, "bank distance at {addr:#x}");

        let response = if write_back {
            served.write_back(addr)
        } else {
            served.read_in(addr)
        };
        assert_eq!(response.hit, distance.is_some(), "served hit at {addr:#x}");
        // Full-list MRU prices a hit at distance d as d + 2 probes and a
        // miss as a + 1, so the response's probes carry the distance the
        // bank reported. Write-backs are free under the optimization.
        let expected = match (write_back, distance) {
            (true, _) => 0,
            _ if assoc == 1 => 1,
            (false, Some(d)) => d as u32 + 2,
            (false, None) => assoc + 1,
        };
        assert_eq!(response.probes, expected, "served probes at {addr:#x}");
    }
}

/// Replays the processor stream into a plain `Cache`, checking each
/// access against a fresh stack with that cache's block size and set
/// count. Returns how many hits were below the MRU position.
fn check_cache(config: CacheConfig, events: &[TraceEvent]) -> usize {
    let mut cache = Cache::new(config);
    let mut deep_hits = 0;
    let mut stack = MattsonAnalyzer::new(config.block_size(), config.num_sets());
    let assoc = config.associativity() as usize;
    for event in events {
        let TraceEvent::Ref(r) = event else {
            stack.flush();
            cache.flush();
            continue;
        };
        let distance = stack.observe(r.addr).filter(|&d| d < assoc);
        let access = cache.access(r.addr, r.kind.is_write());
        assert_eq!(access.hit, distance.is_some(), "cache hit at {:#x}", r.addr);
        assert_eq!(
            access.mru_distance, distance,
            "cache distance at {:#x}",
            r.addr
        );
        deep_hits += usize::from(distance.is_some_and(|d| d > 0));
    }
    deep_hits
}

/// The associativities a plain `Cache` is checked at.
const CACHE_ASSOCS: [u32; 4] = [1, 2, 4, 8];

fn small_l1() -> CacheConfig {
    CacheConfig::direct_mapped(256, 16).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary read/write streams with an optional flush, over L2s of
    /// every associativity from direct-mapped to fully associative.
    #[test]
    fn cache_facts_match_the_lru_stack(
        refs in proptest::collection::vec((0u64..0x4000, any::<bool>()), 1..600),
        flush_at in 0usize..900,
        geometry in 0usize..6,
    ) {
        let (size, block, assoc) = [
            (512u64, 16u64, 1u32),
            (512, 32, 2),
            (1024, 16, 4),
            (1024, 32, 8),
            (2048, 32, 16),
            (512, 32, 16),
        ][geometry];
        let l2 = CacheConfig::new(size, block, assoc).unwrap();
        let mut events: Vec<TraceEvent> = refs
            .iter()
            .map(|&(a, w)| {
                TraceEvent::Ref(if w { TraceRecord::write(a) } else { TraceRecord::read(a) })
            })
            .collect();
        // Values past the stream's length mean "no flush".
        if flush_at < events.len() {
            events.insert(flush_at, TraceEvent::Flush);
        }
        let stream = check_hierarchy(small_l1(), l2, &events);
        check_banks(l2, &stream);
        for assoc in CACHE_ASSOCS {
            check_cache(CacheConfig::new(256 * u64::from(assoc), 16, assoc).unwrap(), &events);
        }
    }
}

/// The paper-like workload, cold-started per segment, at the
/// associativities of Table 4.
#[test]
fn paper_trace_matches_the_lru_stack() {
    let mut cfg = AtumLikeConfig::paper_like();
    cfg.segments = 3;
    cfg.refs_per_segment = 20_000;
    let events: Vec<TraceEvent> = AtumLike::new(cfg, 7).collect();
    let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
    for assoc in [1u32, 2, 4, 8, 16] {
        let l2 = CacheConfig::new(32 * 1024, 32, assoc).unwrap();
        let stream = check_hierarchy(l1, l2, &events);
        let flushes = stream
            .iter()
            .filter(|r| matches!(r, Request::Flush))
            .count();
        assert_eq!(flushes, events.iter().filter(|e| e.is_flush()).count());
        assert!(flushes > 0, "segments are cold-started");
        check_banks(l2, &stream);
    }
    for assoc in CACHE_ASSOCS {
        let deep_hits = check_cache(CacheConfig::new(4 * 1024, 16, assoc).unwrap(), &events);
        assert_eq!(deep_hits > 0, assoc > 1, "a = {assoc}");
    }
}

/// The oracle is not vacuous: a cache that is not LRU disagrees with it.
#[test]
#[should_panic(expected = "hit of")]
fn a_fifo_l2_fails_the_stack_oracle() {
    let l1 = small_l1();
    let l2 = CacheConfig::new(64, 16, 4).unwrap(); // one 4-way set
    let mut hierarchy = TwoLevel::with_l2_policy(l1, l2, Policy::Fifo, 0).unwrap();
    let mut oracle = Oracle::new(l2);
    // A, B, C, D fill the set; touching A keeps it MRU under LRU, but
    // FIFO evicts it for E, so the final A misses under FIFO only. Every
    // address maps to L1 set 0, so each reference reaches the L2.
    for block in [0u64, 1, 2, 3, 0, 4, 0] {
        let event = TraceEvent::Ref(TraceRecord::read(block * 0x1000));
        hierarchy.process(&event, &mut oracle);
    }
}
