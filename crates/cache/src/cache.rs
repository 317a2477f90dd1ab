//! The set-associative write-back cache.

use crate::addr::AddressMapper;
use crate::bank::{SetBank, SetFrames};
use crate::config::CacheConfig;
use crate::replacement::Policy;
use crate::stats::CacheStats;
use seta_core::packed::{LaneSpec, LaneView};

/// A block evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Block-aligned address of the evicted block.
    pub addr: u64,
    /// Whether the block was dirty (must be written back).
    pub dirty: bool,
}

/// Outcome of one [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was resident.
    pub hit: bool,
    /// The way the block now occupies (the hit way, or the filled way on a
    /// miss).
    pub way: u8,
    /// On a hit, the block's position in the set's recency list *before*
    /// this access (0 = it was the MRU block). `None` on a miss. This is
    /// the paper's MRU distance, the quantity behind `f_i` in Figure 5.
    pub mru_distance: Option<usize>,
    /// The victim, if a valid block was displaced.
    pub evicted: Option<EvictedBlock>,
}

/// A set-associative write-back cache (contents and recency only — lookup
/// *cost* is priced separately by `seta-core`'s strategies against
/// [`Cache::set_frames`] / [`Cache::set_order`] views).
///
/// # Example
///
/// ```
/// use seta_cache::{Cache, CacheConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cache = Cache::new(CacheConfig::new(1024, 16, 2)?);
/// assert!(!cache.access(0x100, true).hit); // cold miss, fills dirty
/// let r = cache.access(0x100, false);
/// assert!(r.hit);
/// assert_eq!(r.mru_distance, Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    mapper: AddressMapper,
    /// All set-local state (tags, flags, recency, packed lanes) lives in
    /// one [`SetBank`] spanning every set; `Cache` adds the address
    /// mapping on top.
    bank: SetBank,
    /// Counted from every access the bank reports.
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with LRU replacement (the paper's choice for
    /// its level-two caches).
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, Policy::Lru, 0)
    }

    /// Creates an empty cache with the given replacement policy.
    ///
    /// `seed` feeds [`Policy::Random`]'s RNG and is ignored by the
    /// deterministic policies.
    pub fn with_policy(config: CacheConfig, policy: Policy, seed: u64) -> Self {
        let mapper = AddressMapper::new(config.block_size(), config.num_sets());
        let assoc = config.associativity() as usize;
        let num_sets = config.num_sets() as usize;
        Cache {
            config,
            mapper,
            bank: SetBank::new(num_sets, assoc, policy, seed),
            stats: CacheStats::new(),
        }
    }

    /// Starts maintaining packed tag lanes under `spec`, so partial-compare
    /// pricing and lookups against this cache can use the precomputed SWAR
    /// form ([`seta_core::StrategyKind::price`],
    /// [`seta_core::lookup::PartialCompare::lookup_packed`]). Returns
    /// `false` (and maintains nothing) if `spec`'s associativity does not
    /// match this cache's. The lanes are (re)built from the current frame
    /// tags, so this can be enabled mid-run.
    pub fn enable_partial_lanes(&mut self, spec: LaneSpec) -> bool {
        self.bank.enable_partial_lanes(spec)
    }

    /// The packed-lane spec in force, if lanes are maintained.
    pub fn lane_spec(&self) -> Option<LaneSpec> {
        self.bank.lane_spec()
    }

    /// One set's packed lanes for a lookup, if lanes are maintained.
    #[inline]
    pub fn lane_view(&self, set: u64) -> Option<LaneView<'_>> {
        self.bank.lane_view(Self::set_index(set))
    }

    /// The geometry of this cache.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The address mapper for this geometry.
    #[inline]
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The frames of one set, indexed by way.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn set_frames(&self, set: u64) -> SetFrames<'_> {
        self.bank.frames(Self::set_index(set))
    }

    /// The recency list of one set, most-recently-used way first.
    ///
    /// Under LRU this is exactly the per-set MRU list the paper's MRU
    /// lookup scheme consults.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn set_order(&self, set: u64) -> &[u8] {
        self.bank.order(Self::set_index(set))
    }

    /// Non-mutating residency check: the way holding `addr`, if resident.
    pub fn probe(&self, addr: u64) -> Option<u8> {
        let set = self.mapper.set_of(addr);
        let tag = self.mapper.tag_of(addr);
        self.bank.probe(Self::set_index(set), tag)
    }

    /// Performs one access: looks the block up, refreshes recency on a hit,
    /// fills (evicting if needed) on a miss. `is_write` marks the block
    /// dirty.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let set = self.mapper.set_of(addr);
        let tag = self.mapper.tag_of(addr);
        self.apply(set, tag, is_write, self.locate(set, tag))
    }

    /// Where block `tag` of `set` sits: its way and that way's recency
    /// position (0 = MRU), or `None` on a miss. Read-only; see
    /// [`SetBank::locate`].
    #[inline(always)]
    pub(crate) fn locate(&self, set: u64, tag: u64) -> Option<(u8, usize)> {
        self.bank.locate(Self::set_index(set), tag)
    }

    /// Performs the access to `(set, tag)` that [`locate`](Self::locate)
    /// found, without searching the set again: `found` must be
    /// `locate(set, tag)` on the cache as it stands. `access(addr, w)` is
    /// `apply(set, tag, w, locate(set, tag))` for the address's set and
    /// tag.
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        set: u64,
        tag: u64,
        is_write: bool,
        found: Option<(u8, usize)>,
    ) -> AccessResult {
        // Counted on each side of the hit test, where the compiler knows a
        // hit evicts nothing: one count after the two sides join measured
        // ≈1 ns slower per access on a direct-mapped L1.
        let i = Self::set_index(set);
        let r = if found.is_some() {
            let r = self.bank.apply(i, tag, is_write, found);
            self.stats.record(&r, is_write);
            r
        } else {
            let r = self.bank.apply(i, tag, is_write, None);
            self.stats.record(&r, is_write);
            r
        };
        AccessResult {
            hit: r.hit,
            way: r.way,
            mru_distance: r.mru_distance,
            evicted: r.evicted.map(|(tag, dirty)| EvictedBlock {
                addr: self.mapper.block_addr(tag, set),
                dirty,
            }),
        }
    }

    #[inline]
    fn set_index(set: u64) -> usize {
        usize::try_from(set).expect("set fits usize")
    }

    /// Invalidates every block and resets recency lists (statistics are
    /// kept). Dirty contents are discarded — this models the cold-start
    /// segment boundaries of the paper's trace methodology, not an orderly
    /// write-back flush.
    pub fn flush(&mut self) {
        self.bank.flush();
    }

    /// Invalidates the block holding `addr`, if resident, returning whether
    /// a block was dropped. Dirty contents are discarded — this models a
    /// coherency invalidation from another processor (the paper's footnote
    /// 1), not a write-back.
    ///
    /// The freed frame keeps its recency position; the victim-selection
    /// preference for invalid frames is what lets set-associative caches
    /// reuse invalidated frames on the next miss to the set.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let set = self.mapper.set_of(addr);
        let tag = self.mapper.tag_of(addr);
        self.bank.invalidate(Self::set_index(set), tag)
    }

    /// Number of invalid (empty) block frames.
    pub fn empty_frames(&self) -> usize {
        self.config.num_frames() as usize - self.bank.resident_blocks()
    }

    /// Number of valid blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.bank.resident_blocks()
    }

    /// Iterates over the block-aligned addresses of all resident blocks.
    pub fn resident_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.bank
            .resident_tags()
            .map(move |(set, tag)| self.mapper.block_addr(tag, set as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Cache {
        // 8 sets × 2 ways × 16 B = 256 B.
        Cache::new(CacheConfig::new(256, 16, 2).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x44, false).hit, "same block, different offset");
    }

    #[test]
    fn eviction_reports_victim_address() {
        let mut c = small();
        // Three blocks mapping to set 0 in a 2-way cache: 0x000, 0x100, 0x200.
        c.access(0x000, false);
        c.access(0x100, true);
        let r = c.access(0x200, false);
        assert!(!r.hit);
        let e = r.evicted.expect("the LRU block is displaced");
        assert_eq!(e.addr, 0x000);
        assert!(!e.dirty);
        // 0x000 was evicted; 0x100 survives.
        assert!(c.probe(0x100).is_some());
        assert!(c.probe(0x000).is_none());
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert_eq!(
            r.evicted,
            Some(EvictedBlock {
                addr: 0x000,
                dirty: true
            })
        );
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true);
        c.access(0x100, false);
        let r = c.access(0x200, false);
        assert!(r.evicted.expect("eviction").dirty);
    }

    #[test]
    fn mru_distance_is_pre_access_position() {
        let mut c = small();
        c.access(0x000, false); // way A
        c.access(0x100, false); // way B, now MRU
        let r = c.access(0x000, false);
        assert_eq!(r.mru_distance, Some(1));
        let r = c.access(0x000, false);
        assert_eq!(r.mru_distance, Some(0));
    }

    #[test]
    fn direct_mapped_works() {
        let mut c = Cache::new(CacheConfig::direct_mapped(256, 16).unwrap());
        assert!(!c.access(0x000, false).hit);
        assert!(c.access(0x000, false).hit);
        let r = c.access(0x100, false); // conflicts in a direct-mapped cache
        assert!(!r.hit);
        assert_eq!(r.evicted.unwrap().addr, 0x000);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small();
        for i in 0..16 {
            c.access(i * 16, true);
        }
        assert!(c.resident_blocks() > 0);
        c.flush();
        assert_eq!(c.resident_blocks(), 0);
        assert!(!c.access(0x00, false).hit);
    }

    #[test]
    fn stats_track_accesses_and_evictions() {
        let mut c = small();
        c.access(0x000, true);
        c.access(0x000, false);
        c.access(0x100, false);
        c.access(0x200, false); // evicts dirty 0x000
        let s = c.stats();
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 3);
        assert_eq!(s.dirty_evictions(), 1);
    }

    #[test]
    fn resident_addrs_round_trip() {
        let mut c = small();
        c.access(0x123, false);
        c.access(0x456, false);
        let mut addrs: Vec<u64> = c.resident_addrs().collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0x120, 0x450]);
    }

    #[test]
    fn invalid_frames_fill_before_eviction() {
        // 1 set, 4 ways.
        let mut c = Cache::new(CacheConfig::new(64, 16, 4).unwrap());
        c.access(0x000, false);
        c.access(0x100, false);
        // Two frames still empty; next misses must not evict.
        assert!(c.access(0x200, false).evicted.is_none());
        assert!(c.access(0x300, false).evicted.is_none());
        // Now the set is full; the next miss evicts the LRU block (0x000).
        assert_eq!(c.access(0x400, false).evicted.unwrap().addr, 0x000);
    }

    #[test]
    fn lru_order_is_exact() {
        // Fully associative 4-way, verify full LRU sequence.
        let mut c = Cache::new(CacheConfig::new(64, 16, 4).unwrap());
        for a in [0x000u64, 0x100, 0x200, 0x300] {
            c.access(a, false);
        }
        c.access(0x000, false); // refresh 0x000
                                // Victim order should now be 0x100, 0x200, 0x300, 0x000.
        assert_eq!(c.access(0x400, false).evicted.unwrap().addr, 0x100);
        assert_eq!(c.access(0x500, false).evicted.unwrap().addr, 0x200);
        assert_eq!(c.access(0x600, false).evicted.unwrap().addr, 0x300);
        assert_eq!(c.access(0x700, false).evicted.unwrap().addr, 0x000);
    }

    #[test]
    fn invalidate_drops_resident_blocks() {
        let mut c = small();
        c.access(0x000, true);
        assert!(c.invalidate(0x004), "any address in the block matches");
        assert!(!c.invalidate(0x000), "already gone");
        assert!(!c.access(0x000, false).hit);
        assert_eq!(c.empty_frames(), 16 - 1);
    }

    #[test]
    fn invalidated_frame_is_refilled_before_evicting_live_blocks() {
        // 1 set, 4 ways, all filled; invalidate one, next miss must land
        // in the freed frame without evicting anything (footnote 1).
        let mut c = Cache::new(CacheConfig::new(64, 16, 4).unwrap());
        for a in [0x000u64, 0x100, 0x200, 0x300] {
            c.access(a, false);
        }
        c.invalidate(0x100);
        let r = c.access(0x400, false);
        assert!(r.evicted.is_none(), "freed frame is reused");
        assert!(c.probe(0x000).is_some());
        assert!(c.probe(0x300).is_some());
    }

    #[test]
    fn partial_lanes_stay_coherent_through_mutations() {
        use seta_core::lookup::TransformKind;
        let mut c = small();
        let spec = LaneSpec::try_new(16, 1, TransformKind::XorFold, 2).unwrap();
        assert!(c.enable_partial_lanes(spec));
        assert_eq!(c.lane_spec(), Some(spec));
        let wrong_assoc = LaneSpec::try_new(16, 1, TransformKind::XorFold, 4).unwrap();
        assert!(
            !c.enable_partial_lanes(wrong_assoc),
            "associativity mismatch"
        );
        assert_eq!(c.lane_spec(), Some(spec), "rejected spec must not stick");
        // Every fill/invalidate/flush below re-asserts lane coherence in
        // debug builds via debug_check_lanes.
        for i in 0..64u64 {
            c.access(i * 48, i % 2 == 0);
        }
        c.invalidate(0);
        c.flush();
        for i in 0..32u64 {
            c.access(i * 32, false);
        }
        assert!(c.lane_view(0).is_some());
    }

    #[test]
    fn lanes_enabled_mid_run_match_lanes_enabled_up_front() {
        use seta_core::lookup::TransformKind;
        let spec = LaneSpec::try_new(16, 2, TransformKind::Improved, 2).unwrap();
        let mut warm = small();
        let mut late = small();
        assert!(warm.enable_partial_lanes(spec));
        for i in 0..48u64 {
            warm.access(i * 80, i % 3 == 0);
            late.access(i * 80, i % 3 == 0);
        }
        assert!(late.enable_partial_lanes(spec), "rebuilds from live tags");
        for set in 0..warm.config().num_sets() {
            assert_eq!(
                warm.lane_view(set).unwrap().words(),
                late.lane_view(set).unwrap().words(),
                "set {set}"
            );
        }
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x100, false);
        let order_before = c.set_order(0).to_vec();
        let _ = c.probe(0x000);
        assert_eq!(c.set_order(0), order_before.as_slice());
        assert_eq!(c.stats().accesses(), 2, "probe is not an access");
    }

    proptest! {
        /// The cache agrees with a reference model: a map from set index to
        /// an LRU-ordered list of resident tags.
        #[test]
        fn matches_reference_lru_model(
            addrs in proptest::collection::vec(0u64..0x1000, 1..300)
        ) {
            use std::collections::HashMap;
            let config = CacheConfig::new(512, 16, 4).unwrap();
            let mut cache = Cache::new(config);
            let mapper = *cache.mapper();
            let mut model: HashMap<u64, Vec<u64>> = HashMap::new();

            for &addr in &addrs {
                let set = mapper.set_of(addr);
                let tag = mapper.tag_of(addr);
                let list = model.entry(set).or_default();
                let model_hit = list.contains(&tag);
                if let Some(pos) = list.iter().position(|&t| t == tag) {
                    list.remove(pos);
                } else if list.len() == 4 {
                    list.pop();
                }
                list.insert(0, tag);

                let r = cache.access(addr, false);
                prop_assert_eq!(r.hit, model_hit, "addr {:#x}", addr);
            }

            // Final contents agree.
            for (set, list) in &model {
                for &tag in list {
                    prop_assert!(
                        cache.probe(mapper.block_addr(tag, *set)).is_some(),
                        "tag {:#x} set {} missing", tag, set
                    );
                }
            }
        }

        /// FIFO agrees with a reference queue model: victims leave in
        /// arrival order regardless of hits.
        #[test]
        fn matches_reference_fifo_model(
            addrs in proptest::collection::vec(0u64..0x1000, 1..300)
        ) {
            use std::collections::HashMap;
            let config = CacheConfig::new(512, 16, 4).unwrap();
            let mut cache = Cache::with_policy(config, Policy::Fifo, 0);
            let mapper = *cache.mapper();
            // Reference model: per-set queue of tags, newest first.
            let mut model: HashMap<u64, Vec<u64>> = HashMap::new();

            for &addr in &addrs {
                let set = mapper.set_of(addr);
                let tag = mapper.tag_of(addr);
                let queue = model.entry(set).or_default();
                let model_hit = queue.contains(&tag);
                if !model_hit {
                    if queue.len() == 4 {
                        queue.pop();
                    }
                    queue.insert(0, tag);
                }
                let r = cache.access(addr, false);
                prop_assert_eq!(r.hit, model_hit, "addr {:#x}", addr);
            }
        }

        /// Random replacement stays within capacity and never evicts a
        /// block while invalid frames remain in the set.
        #[test]
        fn random_policy_fills_empty_frames_first(
            addrs in proptest::collection::vec(0u64..0x400, 1..100)
        ) {
            let config = CacheConfig::new(256, 16, 4).unwrap();
            let mut cache = Cache::with_policy(config, Policy::Random, 42);
            for &addr in &addrs {
                let set = cache.mapper().set_of(addr);
                let empty_in_set = cache
                    .set_frames(set)
                    .iter()
                    .filter(|f| !f.valid)
                    .count();
                let r = cache.access(addr, false);
                if !r.hit && empty_in_set > 0 {
                    prop_assert!(r.evicted.is_none(), "evicted with {empty_in_set} empty frames");
                }
                prop_assert!(cache.resident_blocks() <= 16);
            }
        }

        /// A one-way cache, the benchmark's every L1, agrees under every
        /// policy with a reference model that holds one `(tag, dirty)` slot
        /// per set: writes, flushes and invalidations included, down to the
        /// evicted address, the statistics and the (trivial) recency list.
        #[test]
        fn one_way_cache_matches_reference_model(
            ops in proptest::collection::vec((0u64..0x800, 0u8..16), 1..300),
            policy_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            let policy = Policy::ALL[policy_idx];
            // 16 sets x 1 way x 16 B.
            let config = CacheConfig::direct_mapped(256, 16).unwrap();
            let mut cache = Cache::with_policy(config, policy, seed);
            let mapper = *cache.mapper();
            let mut model: Vec<Option<(u64, bool)>> = vec![None; 16];
            let (mut hits, mut misses, mut write_hits, mut evictions, mut dirty_evictions) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for (addr, op) in ops {
                let set = mapper.set_of(addr);
                let tag = mapper.tag_of(addr);
                let slot = &mut model[set as usize];
                match op {
                    0 => {
                        cache.flush();
                        model.fill(None);
                    }
                    1 => {
                        let resident = slot.is_some_and(|(t, _)| t == tag);
                        if resident {
                            *slot = None;
                        }
                        prop_assert_eq!(cache.invalidate(addr), resident);
                    }
                    _ => {
                        let write = op % 2 == 0;
                        let r = cache.access(addr, write);
                        match *slot {
                            Some((t, dirty)) if t == tag => {
                                hits += 1;
                                write_hits += u64::from(write);
                                *slot = Some((t, dirty || write));
                                prop_assert_eq!(r.mru_distance, Some(0));
                                prop_assert_eq!(r.evicted, None);
                            }
                            old => {
                                misses += 1;
                                let evicted = old.map(|(t, dirty)| EvictedBlock {
                                    addr: mapper.block_addr(t, set),
                                    dirty,
                                });
                                evictions += u64::from(evicted.is_some());
                                dirty_evictions += u64::from(evicted.is_some_and(|e| e.dirty));
                                *slot = Some((tag, write));
                                prop_assert_eq!(r.mru_distance, None);
                                prop_assert_eq!(r.evicted, evicted);
                            }
                        }
                        prop_assert_eq!(r.way, 0);
                    }
                }
                let frames: Vec<(u64, bool)> = cache
                    .set_frames(set)
                    .iter()
                    .filter(|f| f.valid)
                    .map(|f| (f.tag, f.dirty))
                    .collect();
                prop_assert_eq!(frames, model[set as usize].into_iter().collect::<Vec<_>>());
                prop_assert_eq!(cache.set_order(set), &[0u8][..]);
            }
            let s = cache.stats();
            prop_assert_eq!(
                [s.hits(), s.misses(), s.write_hits(), s.evictions(), s.dirty_evictions()],
                [hits, misses, write_hits, evictions, dirty_evictions]
            );
            prop_assert_eq!(cache.resident_blocks(), model.iter().flatten().count());
        }

        /// Total resident blocks never exceeds capacity and set recency
        /// lists stay permutations.
        #[test]
        fn capacity_and_permutation_invariants(
            addrs in proptest::collection::vec(any::<u64>(), 1..200)
        ) {
            let config = CacheConfig::new(256, 16, 2).unwrap();
            let mut cache = Cache::new(config);
            for &addr in &addrs {
                cache.access(addr, addr % 3 == 0);
                prop_assert!(cache.resident_blocks() <= 16);
                for set in 0..cache.config().num_sets() {
                    let order = cache.set_order(set);
                    let mut sorted = order.to_vec();
                    sorted.sort_unstable();
                    prop_assert_eq!(sorted, vec![0u8, 1]);
                }
            }
        }
    }
}
