//! Set-local storage shared by [`Cache`](crate::Cache) and concurrent
//! front-ends.
//!
//! A [`SetBank`] owns the tags and flags, replacement state and optional
//! packed tag lanes for a contiguous range of sets, addressed by
//! `(set, tag)` rather than by full address. [`Cache`](crate::Cache) wraps
//! one bank spanning the whole cache behind an
//! [`AddressMapper`](crate::AddressMapper); a striped concurrent cache wraps many small
//! banks, each behind its own lock, without re-implementing any of the
//! fill/evict/recency logic.
//!
//! The bank keeps no counters. Every access returns a [`BankAccess`], and
//! the bank's owner counts from it
//! ([`CacheStats::record`](crate::CacheStats::record)) wherever suits it:
//! [`Cache`](crate::Cache) in one [`CacheStats`](crate::CacheStats) of its own, a
//! concurrent cache in a tally per client, so no request writes a counter
//! that another client's requests also write.

use crate::block::Frame;
use crate::replacement::{Policy, ReplacementState};
use seta_core::packed::{LaneSpec, LaneView, PackedLanes};

/// Flag bit: the way holds a block.
const VALID: u8 = 1;
/// Flag bit: the held block was written since it was filled.
const DIRTY: u8 = 2;

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

/// The frame a stored tag and its flag byte describe.
#[inline]
fn frame(tag: u64, flags: u8) -> Frame {
    Frame {
        valid: flags & VALID != 0,
        dirty: flags & DIRTY != 0,
        tag,
    }
}

/// A borrowed view of one set's block frames, indexed by way.
///
/// The bank stores a set as a contiguous tag array plus one flag byte per
/// way, so the view hands out [`Frame`]s by value and lends the tag array
/// itself ([`tags`](Self::tags)) to lookups that want the raw tags.
#[derive(Clone, Copy)]
pub struct SetFrames<'a> {
    tags: &'a [u64],
    flags: &'a [u8],
}

impl<'a> SetFrames<'a> {
    /// Number of ways.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set has no ways (never true for a real cache).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The frame in `way`, if the way exists.
    #[inline]
    pub fn get(&self, way: usize) -> Option<Frame> {
        Some(frame(*self.tags.get(way)?, *self.flags.get(way)?))
    }

    /// The frames in way order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Frame> + 'a {
        self.tags.iter().zip(self.flags).map(|(&t, &f)| frame(t, f))
    }

    /// The stored tags in way order, valid or not. An invalid way keeps
    /// the tag it last held (0 if it never held one).
    #[inline]
    pub fn tags(&self) -> &'a [u64] {
        self.tags
    }

    /// Bit `w` set iff way `w` holds a block: the valid bits as the
    /// pricer and [`SetView`](seta_core::SetView) take them.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than [`MAX_ASSOC`](seta_core::MAX_ASSOC)
    /// ways, which a `u32` cannot hold.
    #[inline]
    pub fn valid_mask(&self) -> u32 {
        assert!(
            self.flags.len() <= seta_core::MAX_ASSOC,
            "a {}-way set has no valid mask",
            self.flags.len()
        );
        self.flags
            .iter()
            .enumerate()
            .fold(0, |m, (w, &f)| m | u32::from(f & VALID) << w)
    }

    /// The way holding `tag`, if it holds it validly.
    #[inline]
    pub fn position(&self, tag: u64) -> Option<usize> {
        self.tags
            .iter()
            .zip(self.flags)
            .position(|(&t, &f)| t == tag && f & VALID != 0)
    }
}

impl std::fmt::Debug for SetFrames<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The set-local storage of a set-associative write-back cache: tags and
/// flags, recency, and (optionally) the packed-lane mirror of the stored
/// tags. It counts nothing: callers count from the [`BankAccess`] each
/// access returns. Works purely in `(set, tag)` space — it knows nothing
/// of block sizes or addresses.
///
/// Each set is a run of `assoc` tags in one flat `u64` array plus a run of
/// `assoc` flag bytes (valid, dirty) — 9 bytes a way instead of a 16-byte
/// [`Frame`] — so a search scans one contiguous tag slice and views borrow
/// that slice instead of copying it.
#[derive(Debug, Clone)]
pub struct SetBank {
    num_sets: usize,
    assoc: usize,
    tags: Vec<u64>,
    flags: Vec<u8>,
    replacement: ReplacementState,
    /// Packed-lane mirror of the stored tags for SWAR partial compares
    /// (see [`seta_core::packed`]); kept coherent with `tags` at every
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
            tags: vec![0; num_sets * assoc],
            flags: vec![0; num_sets * assoc],
            replacement: ReplacementState::new(policy, num_sets, assoc, seed),
            lanes: None,
        }
    }

    /// Number of sets in this bank.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    #[inline]
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The frames of one set, indexed by way.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn frames(&self, set: usize) -> SetFrames<'_> {
        let ways = set * self.assoc..(set + 1) * self.assoc;
        SetFrames {
            tags: &self.tags[ways.clone()],
            flags: &self.flags[ways],
        }
    }

    /// The recency list of one set, most-recently-used way first.
    #[inline]
    pub fn order(&self, set: usize) -> &[u8] {
        self.replacement.order(set)
    }

    /// Non-mutating residency check: the way holding `tag` in `set`.
    pub fn probe(&self, set: usize, tag: u64) -> Option<u8> {
        self.locate(set, tag).map(|(way, _)| way)
    }

    /// Number of valid blocks in one set.
    pub fn occupancy(&self, set: usize) -> usize {
        self.frames(set)
            .flags
            .iter()
            .filter(|&&f| f & VALID != 0)
            .count()
    }

    /// Number of valid blocks across the whole bank.
    pub fn resident_blocks(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }

    /// Iterates over `(set, tag)` for every resident block.
    pub fn resident_tags(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let assoc = self.assoc;
        self.tags
            .iter()
            .zip(&self.flags)
            .enumerate()
            .filter(|(_, (_, &f))| f & VALID != 0)
            .map(move |(i, (&tag, _))| (i / assoc, tag))
    }

    /// Starts maintaining packed tag lanes under `spec` (see
    /// [`Cache::enable_partial_lanes`](crate::Cache::enable_partial_lanes)).
    /// Returns `false` if `spec`'s associativity does not match the bank's.
    pub fn enable_partial_lanes(&mut self, spec: LaneSpec) -> bool {
        if spec.ways() as usize != self.assoc {
            return false;
        }
        let mut lanes = PackedLanes::new(spec, self.num_sets);
        for set in 0..self.num_sets {
            lanes.rebuild_set(set, self.frames(set).tags());
        }
        self.lanes = Some(lanes);
        true
    }

    /// The packed-lane spec in force, if lanes are maintained.
    pub fn lane_spec(&self) -> Option<LaneSpec> {
        self.lanes.as_ref().map(|l| l.spec())
    }

    /// One set's packed lanes for a lookup, if lanes are maintained.
    #[inline]
    pub fn lane_view(&self, set: usize) -> Option<LaneView<'_>> {
        self.lanes.as_ref().map(|l| l.view(set))
    }

    /// Debug-build check that the packed lanes still mirror `set`'s stored
    /// tags — the coherence invariant of [`seta_core::packed`], asserted
    /// at every site that mutates a set.
    pub(crate) fn debug_check_lanes(&self, set: usize) {
        #[cfg(debug_assertions)]
        if let Some(lanes) = &self.lanes {
            lanes.assert_coherent(set, self.frames(set).tags());
        }
        #[cfg(not(debug_assertions))]
        let _ = set;
    }

    /// Where `tag` sits in `set`: its way and that way's recency position
    /// (0 = MRU), or `None` if it is not resident. Read-only; the one
    /// search of a set, so a caller that needs the hit facts before an
    /// access [`locate`](Self::locate)s once and hands the result to
    /// [`apply`](Self::apply).
    ///
    /// A one-way set (every benchmark L1) is one tag compare and one flag
    /// test: its only way is always the MRU.
    #[inline(always)]
    pub(crate) fn locate(&self, set: usize, tag: u64) -> Option<(u8, usize)> {
        if self.assoc == 1 {
            return (self.tags[set] == tag && self.flags[set] & VALID != 0).then_some((0, 0));
        }
        let way = self.frames(set).position(tag)? as u8;
        Some((way, self.replacement.recency_of(set, way)))
    }

    /// Performs one access to `(set, tag)`: refreshes recency on a hit,
    /// fills (evicting if needed) on a miss. `is_write` marks the block
    /// dirty.
    #[inline]
    pub fn access(&mut self, set: usize, tag: u64, is_write: bool) -> BankAccess {
        self.apply(set, tag, is_write, self.locate(set, tag))
    }

    /// Performs the access that [`locate`](Self::locate) found: `found`
    /// must be `locate(set, tag)` on the set as it stands. Mutates the set
    /// without searching it again: a hit moves the way to the front from
    /// its known recency position; a miss fills the lowest-numbered empty
    /// way, or the policy's victim.
    #[inline(always)]
    pub(crate) fn apply(
        &mut self,
        set: usize,
        tag: u64,
        is_write: bool,
        found: Option<(u8, usize)>,
    ) -> BankAccess {
        debug_assert_eq!(found, self.locate(set, tag), "stale locate result");
        if self.assoc == 1 {
            return self.apply_direct(set, tag, is_write, found.is_some());
        }
        let Some((way, pos)) = found else {
            return self.fill(set, tag, is_write);
        };
        self.replacement.touch_at(set, pos);
        self.flags[set * self.assoc + way as usize] |= u8::from(is_write) * DIRTY;
        BankAccess {
            hit: true,
            way,
            mru_distance: Some(pos),
            evicted: None,
        }
    }

    /// [`apply`](Self::apply) for a one-way set. Its recency list is
    /// always `[0]`, so neither side touches it: a hit ORs in the dirty
    /// bit, and a miss replaces way 0 whatever the policy (so
    /// [`Policy::Random`] draws nothing from its RNG).
    #[inline(always)]
    fn apply_direct(&mut self, set: usize, tag: u64, is_write: bool, hit: bool) -> BankAccess {
        let dirty = u8::from(is_write) * DIRTY;
        if hit {
            self.flags[set] |= dirty;
            return BankAccess {
                hit: true,
                way: 0,
                mru_distance: Some(0),
                evicted: None,
            };
        }
        let victim = self.flags[set];
        let evicted = (victim & VALID != 0).then_some((self.tags[set], victim & DIRTY != 0));
        self.tags[set] = tag;
        self.flags[set] = VALID | dirty;
        if let Some(lanes) = &mut self.lanes {
            lanes.on_fill(set, 0, tag);
        }
        self.debug_check_lanes(set);
        BankAccess {
            hit: false,
            way: 0,
            mru_distance: None,
            evicted,
        }
    }

    /// The miss half of [`apply`](Self::apply): fills the lowest-numbered
    /// invalid frame first (the usual hardware convention; the paper's
    /// footnote 1 only requires that empty frames are reused before live
    /// blocks are evicted), and asks the policy for a victim only when the
    /// set is full.
    fn fill(&mut self, set: usize, tag: u64, is_write: bool) -> BankAccess {
        let ways = set * self.assoc..(set + 1) * self.assoc;
        let tags = &mut self.tags[ways.clone()];
        let flags = &mut self.flags[ways];
        let way = match flags.iter().position(|&f| f & VALID == 0) {
            Some(way) => {
                self.replacement.fill(set, way as u8);
                way as u8
            }
            None => self.replacement.replace(set),
        };
        let w = way as usize;
        let victim = flags[w];
        let evicted = (victim & VALID != 0).then_some((tags[w], victim & DIRTY != 0));
        tags[w] = tag;
        flags[w] = VALID | (u8::from(is_write) * DIRTY);
        // The fill is the only operation that writes a tag, so it is the
        // only place the packed lanes need an incremental update.
        if let Some(lanes) = &mut self.lanes {
            lanes.on_fill(set, w, tag);
        }
        self.debug_check_lanes(set);
        BankAccess {
            hit: false,
            way,
            mru_distance: None,
            evicted,
        }
    }

    /// Invalidates every block and resets recency lists. See
    /// [`Cache::flush`](crate::Cache::flush).
    pub fn flush(&mut self) {
        self.flags.fill(0);
        self.replacement.reset();
        // Invalidation clears flags but keeps tags in place, so the packed
        // lanes (which mirror tags regardless of validity) are still
        // coherent without an update.
        #[cfg(debug_assertions)]
        for set in 0..self.num_sets {
            self.debug_check_lanes(set);
        }
    }

    /// Invalidates `(set, tag)` if resident, returning whether a block was
    /// dropped. See [`Cache::invalidate`](crate::Cache::invalidate).
    pub fn invalidate(&mut self, set: usize, tag: u64) -> bool {
        if let Some((way, _)) = self.locate(set, tag) {
            self.flags[set * self.assoc + way as usize] = 0;
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
    use crate::stats::CacheStats;
    use proptest::prelude::*;

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
    fn flush_and_invalidate_drop_blocks() {
        let mut b = bank();
        b.access(2, 0x5, false);
        assert!(b.invalidate(2, 0x5));
        assert!(!b.invalidate(2, 0x5));
        assert!(!b.access(2, 0x5, false).hit, "an invalidated block misses");
        b.access(2, 0x6, false);
        b.flush();
        assert_eq!(b.resident_blocks(), 0);
        assert!(!b.access(2, 0x6, false).hit, "a flushed block misses");
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
    #[should_panic(expected = "a 64-way set has no valid mask")]
    fn a_set_wider_than_a_valid_mask_is_refused() {
        SetBank::new(1, 64, Policy::Lru, 0).frames(0).valid_mask();
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

    #[test]
    fn set_frames_view_reads_tags_and_flags() {
        let mut b = bank();
        b.access(1, 0x7, true);
        let f = b.frames(1);
        assert_eq!((f.len(), f.is_empty()), (2, false));
        assert_eq!(f.get(0), Some(Frame::filled(0x7, true)));
        assert_eq!(f.get(1), Some(Frame::empty()));
        assert_eq!(f.get(2), None);
        assert_eq!(f.tags(), &[0x7, 0]);
        assert_eq!(f.position(0x7), Some(0));
        assert_eq!(f.position(0), None, "an empty way's tag never matches");
        assert_eq!(f.valid_mask(), 0b01);
        assert_eq!(
            format!("{f:?}"),
            format!("{:?}", f.iter().collect::<Vec<_>>())
        );
    }

    /// The bank as it stored sets before the tag/flag layout: one 16-byte
    /// [`Frame`] per way, searched frame by frame, with its own recency
    /// lists (remove and re-insert), victim choice and counters. The
    /// differential oracle for the flat store and its `locate`/`apply`
    /// split, and for `CacheStats::record` counting from what `apply`
    /// returns; it shares no replacement or statistics code with either.
    struct FrameBank {
        assoc: usize,
        policy: Policy,
        frames: Vec<Frame>,
        /// Per-set recency lists, most-recently-used way first.
        orders: Vec<Vec<u8>>,
        /// Draws [`Policy::Random`]'s victims: the same seeded stream the
        /// bank's replacement state draws from.
        rng: rand::rngs::StdRng,
        /// Hits, misses, write hits, write misses, evictions, dirty
        /// evictions.
        counts: [u64; 6],
        lanes: Option<PackedLanes>,
    }

    impl FrameBank {
        fn new(num_sets: usize, assoc: usize, policy: Policy, seed: u64) -> Self {
            use rand::SeedableRng;
            FrameBank {
                assoc,
                policy,
                frames: vec![Frame::empty(); num_sets * assoc],
                orders: vec![(0..assoc as u8).collect(); num_sets],
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                counts: [0; 6],
                lanes: None,
            }
        }

        fn frames(&self, set: usize) -> &[Frame] {
            &self.frames[set * self.assoc..(set + 1) * self.assoc]
        }

        fn tags(&self, set: usize) -> Vec<u64> {
            self.frames(set).iter().map(|f| f.tag).collect()
        }

        fn locate(&self, set: usize, tag: u64) -> Option<(u8, usize)> {
            let way = self.frames(set).iter().position(|f| f.matches(tag))? as u8;
            let pos = self.orders[set].iter().position(|&w| w == way);
            Some((way, pos.expect("every way is listed")))
        }

        fn make_mru(&mut self, set: usize, way: u8) {
            let order = &mut self.orders[set];
            order.retain(|&w| w != way);
            order.insert(0, way);
        }

        fn access(&mut self, set: usize, tag: u64, is_write: bool) -> BankAccess {
            let base = set * self.assoc;
            if let Some((way, pos)) = self.locate(set, tag) {
                if self.policy == Policy::Lru {
                    self.make_mru(set, way);
                }
                if is_write {
                    self.frames[base + way as usize].dirty = true;
                    self.counts[2] += 1;
                }
                self.counts[0] += 1;
                return BankAccess {
                    hit: true,
                    way,
                    mru_distance: Some(pos),
                    evicted: None,
                };
            }
            let way = match self.frames(set).iter().position(|f| !f.valid) {
                Some(way) => way as u8,
                None => match self.policy {
                    Policy::Lru | Policy::Fifo => *self.orders[set].last().expect("ways"),
                    Policy::Random => {
                        use rand::Rng;
                        self.rng.gen_range(0..self.assoc) as u8
                    }
                },
            };
            let victim = self.frames[base + way as usize];
            self.frames[base + way as usize] = Frame::filled(tag, is_write);
            if let Some(lanes) = &mut self.lanes {
                lanes.on_fill(set, way as usize, tag);
            }
            if self.policy != Policy::Random {
                self.make_mru(set, way);
            }
            self.counts[1] += 1;
            if is_write {
                self.counts[3] += 1;
            }
            if victim.valid {
                self.counts[4] += 1;
                if victim.dirty {
                    self.counts[5] += 1;
                }
            }
            BankAccess {
                hit: false,
                way,
                mru_distance: None,
                evicted: victim.valid.then_some((victim.tag, victim.dirty)),
            }
        }

        fn invalidate(&mut self, set: usize, tag: u64) -> bool {
            match self.locate(set, tag) {
                Some((way, _)) => {
                    self.frames[set * self.assoc + way as usize].invalidate();
                    true
                }
                None => false,
            }
        }

        fn flush(&mut self) {
            for f in &mut self.frames {
                f.invalidate();
            }
            for order in &mut self.orders {
                for (i, w) in order.iter_mut().enumerate() {
                    *w = i as u8;
                }
            }
        }
    }

    /// One step of a differential run. Tags are reduced modulo a range
    /// sized to the associativity, so hits, evictions and invalidations
    /// all occur at every width.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Access { set: usize, tag: u64, write: bool },
        Invalidate { set: usize, tag: u64 },
        Flush,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            24 => (0usize..4, any::<u64>(), any::<bool>())
                .prop_map(|(set, tag, write)| Op::Access { set, tag, write }),
            2 => (0usize..4, any::<u64>()).prop_map(|(set, tag)| Op::Invalidate { set, tag }),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        /// The flat tag/flag store behaves exactly like the frame store it
        /// replaced: `locate` finds the model's hit way and recency
        /// position before every access, and `apply` on that result gives
        /// the model's outcome, frames, recency lists, resident set and
        /// (with lanes on) lane words; the counters recorded from every
        /// outcome match the model's. One-way sets, which take the bank's
        /// direct-mapped path, are one associativity in five, under all
        /// three policies.
        #[test]
        fn flat_store_matches_frame_store(
            ops in proptest::collection::vec(op(), 1..240),
            policy_idx in 0usize..3,
            assoc_idx in 0usize..5,
            lanes in any::<bool>(),
            seed in 0u64..1000,
        ) {
            use seta_core::lookup::TransformKind;
            let policy = Policy::ALL[policy_idx];
            let assoc = [1usize, 2, 4, 8, 16][assoc_idx];
            let tags = 2 * assoc as u64 + 2;
            let mut flat = SetBank::new(4, assoc, policy, seed);
            let mut stats = CacheStats::new();
            let mut model = FrameBank::new(4, assoc, policy, seed);
            // A one-way set has no lanes to pack.
            if let Some(spec) =
                LaneSpec::try_new(16, 1, TransformKind::XorFold, assoc as u32).filter(|_| lanes)
            {
                prop_assert!(flat.enable_partial_lanes(spec));
                model.lanes = Some(PackedLanes::new(spec, 4));
            }
            for op in ops {
                match op {
                    Op::Access { set, tag, write } => {
                        let tag = tag % tags;
                        let found = flat.locate(set, tag);
                        prop_assert_eq!(found, model.locate(set, tag));
                        let access = flat.apply(set, tag, write, found);
                        stats.record(&access, write);
                        prop_assert_eq!(access, model.access(set, tag, write));
                    }
                    Op::Invalidate { set, tag } => {
                        let tag = tag % tags;
                        prop_assert_eq!(flat.invalidate(set, tag), model.invalidate(set, tag));
                    }
                    Op::Flush => {
                        flat.flush();
                        model.flush();
                    }
                }
                for set in 0..4 {
                    let frames: Vec<Frame> = flat.frames(set).iter().collect();
                    prop_assert_eq!(frames.as_slice(), model.frames(set), "set {}", set);
                    prop_assert_eq!(flat.frames(set).tags(), model.tags(set).as_slice());
                    prop_assert_eq!(flat.order(set), model.orders[set].as_slice());
                    prop_assert_eq!(
                        flat.occupancy(set),
                        model.frames(set).iter().filter(|f| f.valid).count()
                    );
                    for tag in 0..tags {
                        prop_assert_eq!(flat.probe(set, tag), model.locate(set, tag).map(|l| l.0));
                    }
                    if let (Some(view), Some(lanes)) = (flat.lane_view(set), &model.lanes) {
                        prop_assert_eq!(view.words(), lanes.view(set).words());
                    }
                }
                let s = &stats;
                prop_assert_eq!(
                    [
                        s.hits(),
                        s.misses(),
                        s.write_hits(),
                        s.write_misses(),
                        s.evictions(),
                        s.dirty_evictions(),
                    ],
                    model.counts
                );
                let resident: Vec<(usize, u64)> = flat.resident_tags().collect();
                let expected: Vec<(usize, u64)> = model
                    .frames
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.valid)
                    .map(|(i, f)| (i / assoc, f.tag))
                    .collect();
                prop_assert_eq!(resident, expected);
            }
        }
    }
}
