//! Set-local storage shared by [`Cache`](crate::Cache) and concurrent
//! front-ends.
//!
//! A [`SetBank`] owns the frames, replacement state, statistics, and
//! optional packed tag lanes for a contiguous range of sets, addressed by
//! `(set, tag)` rather than by full address. [`Cache`](crate::Cache) wraps
//! one bank spanning the whole cache behind an
//! [`AddressMapper`](crate::AddressMapper); a striped concurrent cache wraps many small
//! banks, each behind its own lock, without re-implementing any of the
//! fill/evict/recency logic.

use crate::block::Frame;
use crate::replacement::{Policy, ReplacementState};
use crate::stats::CacheStats;
use seta_core::packed::{LaneSpec, LaneView, PackedLanes};

/// Outcome of one [`SetBank::access`], in tag space. Callers that know the
/// bank's address mapping reconstruct the victim's block address from
/// `(victim tag, set)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// Whether the tag was resident.
    pub hit: bool,
    /// The way the block now occupies (the hit way, or the filled way on a
    /// miss).
    pub way: u8,
    /// On a hit, the block's position in the set's recency list *before*
    /// this access (0 = MRU). `None` on a miss.
    pub mru_distance: Option<usize>,
    /// On an evicting miss, the displaced `(tag, dirty)` pair.
    pub evicted: Option<(u64, bool)>,
}

/// The set-local storage of a set-associative write-back cache: frames,
/// recency, statistics, and (optionally) the packed-lane mirror of the
/// stored tags. Works purely in `(set, tag)` space — it knows nothing of
/// block sizes or addresses.
#[derive(Debug, Clone)]
pub struct SetBank {
    num_sets: usize,
    assoc: usize,
    frames: Vec<Frame>,
    replacement: ReplacementState,
    stats: CacheStats,
    /// Packed-lane mirror of the stored tags for SWAR partial compares
    /// (see [`seta_core::packed`]); kept coherent with `frames` at every
    /// tag write. `None` until [`enable_partial_lanes`](Self::enable_partial_lanes).
    lanes: Option<PackedLanes>,
}

impl SetBank {
    /// An empty bank of `num_sets` sets, `assoc` ways each. `seed` feeds
    /// [`Policy::Random`]'s RNG and is ignored by deterministic policies.
    pub fn new(num_sets: usize, assoc: usize, policy: Policy, seed: u64) -> Self {
        SetBank {
            num_sets,
            assoc,
            frames: vec![Frame::empty(); num_sets * assoc],
            replacement: ReplacementState::new(policy, num_sets, assoc, seed),
            stats: CacheStats::new(),
            lanes: None,
        }
    }

    /// Number of sets in this bank.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Accumulated statistics.
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
    pub fn frames(&self, set: usize) -> &[Frame] {
        &self.frames[set * self.assoc..(set + 1) * self.assoc]
    }

    /// The recency list of one set, most-recently-used way first.
    pub fn order(&self, set: usize) -> &[u8] {
        self.replacement.order(set)
    }

    /// Non-mutating residency check: the way holding `tag` in `set`.
    pub fn probe(&self, set: usize, tag: u64) -> Option<u8> {
        self.frames(set)
            .iter()
            .position(|f| f.matches(tag))
            .map(|w| w as u8)
    }

    /// Number of valid blocks in one set.
    pub fn occupancy(&self, set: usize) -> usize {
        self.frames(set).iter().filter(|f| f.valid).count()
    }

    /// Number of valid blocks across the whole bank.
    pub fn resident_blocks(&self) -> usize {
        self.frames.iter().filter(|f| f.valid).count()
    }

    /// Iterates over `(set, tag)` for every resident block.
    pub fn resident_tags(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let assoc = self.assoc;
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.valid)
            .map(move |(i, f)| (i / assoc, f.tag))
    }

    /// Starts maintaining packed tag lanes under `spec` (see
    /// [`Cache::enable_partial_lanes`](crate::Cache::enable_partial_lanes)).
    /// Returns `false` if `spec`'s associativity does not match the bank's.
    pub fn enable_partial_lanes(&mut self, spec: LaneSpec) -> bool {
        if spec.ways() as usize != self.assoc {
            return false;
        }
        let mut lanes = PackedLanes::new(spec, self.num_sets);
        let mut tags = vec![0u64; self.assoc];
        for set in 0..self.num_sets {
            for (w, f) in self.frames(set).iter().enumerate() {
                tags[w] = f.tag;
            }
            lanes.rebuild_set(set, &tags);
        }
        self.lanes = Some(lanes);
        true
    }

    /// The packed-lane spec in force, if lanes are maintained.
    pub fn lane_spec(&self) -> Option<LaneSpec> {
        self.lanes.as_ref().map(|l| l.spec())
    }

    /// One set's packed lanes for a lookup, if lanes are maintained.
    pub fn lane_view(&self, set: usize) -> Option<LaneView<'_>> {
        self.lanes.as_ref().map(|l| l.view(set))
    }

    /// Debug-build check that the packed lanes still mirror `set`'s frame
    /// tags — the coherence invariant of [`seta_core::packed`], asserted
    /// at every site that mutates a set.
    pub(crate) fn debug_check_lanes(&self, set: usize) {
        #[cfg(debug_assertions)]
        if let Some(lanes) = &self.lanes {
            let tags: Vec<u64> = self.frames(set).iter().map(|f| f.tag).collect();
            lanes.assert_coherent(set, &tags);
        }
        #[cfg(not(debug_assertions))]
        let _ = set;
    }

    /// Performs one access to `(set, tag)`: refreshes recency on a hit,
    /// fills (evicting if needed) on a miss. `is_write` marks the block
    /// dirty.
    pub fn access(&mut self, set: usize, tag: u64, is_write: bool) -> BankAccess {
        let base = set * self.assoc;

        if let Some(way) = self.frames(set).iter().position(|f| f.matches(tag)) {
            let way = way as u8;
            let mru_distance = self.replacement.recency_of(set, way);
            self.replacement.touch(set, way);
            if is_write {
                self.frames[base + way as usize].dirty = true;
            }
            self.stats.record_access(true, is_write);
            return BankAccess {
                hit: true,
                way,
                mru_distance: Some(mru_distance),
                evicted: None,
            };
        }

        // Miss: fill the lowest-numbered invalid frame first (the usual
        // hardware convention; the paper's footnote 1 only requires that
        // empty frames are reused before live blocks are evicted), and ask
        // the policy for a victim only when the set is full.
        let way = match self.frames(set).iter().position(|f| !f.valid) {
            Some(way) => way as u8,
            None => self.replacement.victim(set),
        };
        let victim = &self.frames[base + way as usize];
        let evicted = victim.valid.then_some((victim.tag, victim.dirty));
        if let Some((_, dirty)) = evicted {
            self.stats.record_eviction(dirty);
        }
        self.frames[base + way as usize] = Frame::filled(tag, is_write);
        // The fill is the only operation that writes a frame's tag, so it
        // is the only place the packed lanes need an incremental update.
        if let Some(lanes) = &mut self.lanes {
            lanes.on_fill(set, way as usize, tag);
        }
        self.debug_check_lanes(set);
        self.replacement.fill(set, way);
        self.stats.record_access(false, is_write);
        BankAccess {
            hit: false,
            way,
            mru_distance: None,
            evicted,
        }
    }

    /// Invalidates every block and resets recency lists (statistics are
    /// kept). See [`Cache::flush`](crate::Cache::flush).
    pub fn flush(&mut self) {
        for f in &mut self.frames {
            f.invalidate();
        }
        self.replacement.reset();
        // Invalidation clears valid bits but keeps tags in place, so the
        // packed lanes (which mirror tags regardless of validity) are
        // still coherent without an update.
        #[cfg(debug_assertions)]
        for set in 0..self.num_sets {
            self.debug_check_lanes(set);
        }
    }

    /// Invalidates `(set, tag)` if resident, returning whether a block was
    /// dropped. See [`Cache::invalidate`](crate::Cache::invalidate).
    pub fn invalidate(&mut self, set: usize, tag: u64) -> bool {
        let base = set * self.assoc;
        if let Some(way) = self.frames(set).iter().position(|f| f.matches(tag)) {
            self.frames[base + way].invalidate();
            // Tags survive invalidation, so the lanes stay coherent.
            self.debug_check_lanes(set);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> SetBank {
        SetBank::new(4, 2, Policy::Lru, 0)
    }

    #[test]
    fn tag_space_access_round_trip() {
        let mut b = bank();
        assert!(!b.access(1, 0x10, false).hit);
        let r = b.access(1, 0x10, true);
        assert!(r.hit);
        assert_eq!(r.mru_distance, Some(0));
        assert_eq!(b.probe(1, 0x10), Some(r.way));
        assert_eq!(b.probe(0, 0x10), None, "other sets untouched");
    }

    #[test]
    fn eviction_reports_victim_tag_and_dirty() {
        let mut b = bank();
        b.access(0, 0xa, true);
        b.access(0, 0xb, false);
        let r = b.access(0, 0xc, false);
        assert!(!r.hit);
        assert_eq!(r.evicted, Some((0xa, true)), "LRU dirty victim");
        assert_eq!(b.occupancy(0), 2);
    }

    #[test]
    fn resident_tags_enumerates_by_set() {
        let mut b = bank();
        b.access(0, 0x1, false);
        b.access(3, 0x2, false);
        let mut got: Vec<(usize, u64)> = b.resident_tags().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0x1), (3, 0x2)]);
        assert_eq!(b.resident_blocks(), 2);
    }

    #[test]
    fn flush_and_invalidate_keep_stats() {
        let mut b = bank();
        b.access(2, 0x5, false);
        assert!(b.invalidate(2, 0x5));
        assert!(!b.invalidate(2, 0x5));
        b.access(2, 0x6, false);
        b.flush();
        assert_eq!(b.resident_blocks(), 0);
        assert_eq!(b.stats().accesses(), 2);
    }

    #[test]
    fn invalid_frames_fill_lowest_way_first_under_every_policy() {
        for policy in Policy::ALL {
            let mut b = SetBank::new(2, 4, policy, 3);
            for (i, tag) in (0x10..0x14u64).enumerate() {
                let r = b.access(1, tag, false);
                assert_eq!(r.way as usize, i, "{policy}: cold fill order");
                assert_eq!(
                    r.evicted, None,
                    "{policy}: no eviction while a frame is free"
                );
            }
            // Punch a hole in the middle of a full set: the next miss
            // reuses it instead of evicting a live block.
            assert!(b.invalidate(1, 0x12));
            let r = b.access(1, 0x20, false);
            assert_eq!((r.way, r.evicted), (2, None), "{policy}: hole refilled");
            assert!(b.access(1, 0x21, false).evicted.is_some(), "{policy}");
        }
    }

    #[test]
    fn random_victims_follow_the_seeded_sequence() {
        // Random draws from its RNG only once the set is full, so the
        // four cold fills leave the victim stream untouched.
        let mut b = SetBank::new(1, 4, Policy::Random, 7);
        let ways: Vec<u8> = (0..20u64).map(|t| b.access(0, t, false).way).collect();
        assert_eq!(
            ways,
            [0, 1, 2, 3, 0, 0, 2, 1, 3, 1, 2, 1, 3, 0, 0, 0, 2, 0, 1, 0]
        );
    }

    #[test]
    fn lanes_reject_wrong_assoc() {
        use seta_core::lookup::TransformKind;
        let mut b = bank();
        let wrong = LaneSpec::try_new(16, 1, TransformKind::XorFold, 4).unwrap();
        assert!(!b.enable_partial_lanes(wrong));
        let spec = LaneSpec::try_new(16, 1, TransformKind::XorFold, 2).unwrap();
        assert!(b.enable_partial_lanes(spec));
        assert_eq!(b.lane_spec(), Some(spec));
        for t in 0..32u64 {
            b.access((t % 4) as usize, t, t % 3 == 0);
        }
        assert!(b.lane_view(0).is_some());
    }
}
