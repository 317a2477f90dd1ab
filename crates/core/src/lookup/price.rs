//! Table 1 as code: each strategy's probe count from the facts a cache
//! access already has.
//!
//! Cache contents do not depend on the lookup strategy, so the cache's own
//! access already knows where the block sits: the hit way and its MRU
//! distance. Each Table 1 probe count is a closed form in those facts,
//! plus, for two strategies, one bitmask of the set's contents: partial
//! compare's step-one candidates and a truncated MRU list's named ways.
//! [`StrategyKind::price`] evaluates those closed forms without searching
//! the set again. The serial [`lookup`](crate::LookupStrategy::lookup)s stay
//! as its differential oracle.

use crate::lookup::{Lookup, PartialCompare, ScanOrder, StrategyKind};
use crate::packed::{LaneSpec, LaneView};
use crate::set_view::SetView;

/// One request's target set as the pricer reads it: the incoming tag, what
/// the cache's access found, and the pre-access set contents, all borrowed
/// from the cache.
///
/// # Example
///
/// ```
/// use seta_core::lookup::{Mru, Naive};
/// use seta_core::{PricedSet, StrategyKind};
///
/// // A 4-way set holding tags 5..=8; tag 7 sits in way 2, third in
/// // recency order.
/// let set = PricedSet {
///     tag: 7,
///     hit_way: Some(2),
///     mru_distance: Some(2),
///     tags: &[5, 6, 7, 8],
///     valid: 0b1111,
///     order: &[3, 0, 2, 1],
///     lanes: None,
/// };
/// assert_eq!(StrategyKind::Naive(Naive).price(&set), 3); // w + 1
/// assert_eq!(StrategyKind::Mru(Mru::full()).price(&set), 4); // d + 2
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PricedSet<'a> {
    /// Full-width incoming tag.
    pub tag: u64,
    /// The way holding the block, or `None` on a miss.
    pub hit_way: Option<u8>,
    /// On a hit, the hit way's pre-access position in `order` (0 = MRU).
    pub mru_distance: Option<usize>,
    /// Stored tags in way order, valid or not. The slice's length is the
    /// associativity.
    pub tags: &'a [u64],
    /// Bit `w` set iff way `w` holds a block.
    pub valid: u32,
    /// The recency order, most-recently-used way first.
    pub order: &'a [u8],
    /// The set's packed lanes, when the cache maintains them. Partial
    /// compare reads them only if they are packed for its own geometry.
    pub lanes: Option<LaneView<'a>>,
}

impl PricedSet<'_> {
    /// Number of ways.
    #[inline]
    pub fn ways(&self) -> usize {
        self.tags.len()
    }

    /// The same set as a [`SetView`], for the serial lookups: `explain`'s
    /// observed searches and strategies outside this crate.
    pub fn view(&self) -> SetView {
        SetView::from_valid_mask(self.tags, self.valid, self.order)
    }
}

impl StrategyKind {
    /// The probes a lookup of `set` costs: Table 1 evaluated at the hit
    /// way `w` and MRU distance `d` the cache already found, without
    /// searching the set. Probe-for-probe equal to the serial search,
    /// [`lookup_observed`](Self::lookup_observed) on
    /// [`set.view()`](PricedSet::view).
    ///
    /// With `a` ways:
    ///
    /// | strategy | hit | miss |
    /// |---|---|---|
    /// | any, `a = 1` | 1 | 1 |
    /// | traditional | 1 | 1 |
    /// | naive | `w + 1` | `a` |
    /// | MRU, full list | `d + 2` | `a + 1` |
    /// | MRU, list of `L` | `d + 2` if `d < L`, else `2 + L + u` | `a + 1` |
    /// | banked `b`, frame order | `⌊w/b⌋ + 1` | `⌈a/b⌉` |
    /// | banked `b`, MRU order | `2 + ⌊d/b⌋` | `1 + ⌈a/b⌉` |
    /// | partial, `s` subsets | `Σ_{j<h}(1 + ∣Cⱼ∣) + 1 + ∣{c ∈ C_h : c ≤ k}∣` | `Σⱼ(1 + ∣Cⱼ∣)` |
    ///
    /// `u` is the number of ways below `w` that the truncated list does
    /// not name. `Cⱼ` is the set of valid slots of subset `j` whose
    /// stored `k`-bit slice matches the incoming one (step one's
    /// candidates), and the hit sits in subset `h` at slot `k`. The hit is
    /// always its own candidate, so a hit needs no full-tag compare to
    /// price.
    ///
    /// # Panics
    ///
    /// Panics where [`lookup`](Self::lookup) would: a partial compare
    /// whose subsets do not divide `a`, or whose tags are too narrow. Also
    /// panics on an MRU-ordered hit that carries no `mru_distance`.
    #[inline]
    pub fn price(&self, set: &PricedSet<'_>) -> u32 {
        self.price_scanned(set.ways(), set.hit_way, set.mru_distance, self.scan(set))
    }

    /// The [`Lookup`] of `tag` in `view` that a fast
    /// [`lookup`](crate::LookupStrategy::lookup) found at `hit_way`, priced
    /// by [`price`](Self::price). The fast lookups only find the hit (and
    /// its MRU distance, where the strategy scans in recency order), so
    /// Table 1 lives in the pricer alone.
    #[inline]
    pub(crate) fn priced_lookup(
        &self,
        view: &SetView,
        tag: u64,
        hit_way: Option<u8>,
        mru_distance: Option<usize>,
    ) -> Lookup {
        let set = PricedSet {
            tag,
            hit_way,
            mru_distance,
            tags: view.tags(),
            valid: view.valid_mask(),
            order: view.order(),
            lanes: None,
        };
        Lookup {
            hit_way,
            probes: self.price(&set),
        }
    }

    /// Whether [`scan`](Self::scan) reads the contents of an `ways`-way
    /// set. Only partial compare and a truncated MRU list do. A cache can
    /// skip building a [`PricedSet`] for every other strategy.
    #[inline]
    pub fn scans(&self, ways: usize) -> bool {
        ways > 1
            && match self {
                StrategyKind::Partial(_) => true,
                StrategyKind::Mru(m) => m.list_len().is_some_and(|l| l < ways),
                _ => false,
            }
    }

    /// The contents half of [`price`](Self::price): a way bitmask that
    /// holds partial compare's step-one candidates (`∪ Cⱼ`), or the ways
    /// a truncated MRU list names. It is 0 for every other strategy.
    ///
    /// It reads `set`'s tags, valid mask, order and lanes. Of the hit
    /// facts it reads only `hit_way`, and only as a bound: with a known
    /// hit, partial compare stops at the hit's subset, as its lookup does,
    /// since candidates past it cost nothing. So a cache can take it with
    /// `hit_way: None` before its access mutates the set, then finish with
    /// [`price_scanned`](Self::price_scanned) from what the access
    /// reports.
    #[inline]
    pub fn scan(&self, set: &PricedSet<'_>) -> u32 {
        if !self.scans(set.ways()) {
            return 0;
        }
        match self {
            StrategyKind::Partial(p) => p.candidates(set),
            StrategyKind::Mru(m) => {
                let listed = m.list_len().unwrap_or(set.ways());
                set.order[..listed].iter().fold(0, |mask, &w| mask | 1 << w)
            }
            _ => 0,
        }
    }

    /// The hit-facts half of [`price`](Self::price): Table 1 at hit way
    /// `hit_way` and MRU distance `mru_distance`, given the
    /// [`scan`](Self::scan) of the same set, so that
    /// `price_scanned(set.ways(), set.hit_way, set.mru_distance, scan(set))`
    /// is `price(set)`.
    // `(a + b - 1) / b` beats `div_ceil` here: the bench guard measured
    // ~5 ns/access more for the div_ceil form on the banked miss path (its
    // extra remainder + branch defeats the single-division codegen).
    #[allow(clippy::manual_div_ceil)]
    #[inline]
    pub fn price_scanned(
        &self,
        ways: usize,
        hit_way: Option<u8>,
        mru_distance: Option<usize>,
        scanned: u32,
    ) -> u32 {
        let a = ways as u32;
        if a == 1 {
            return 1;
        }
        let distance = || mru_distance.expect("a hit has an MRU distance") as u32;
        match (self, hit_way) {
            (StrategyKind::Traditional(_), _) => 1,
            (StrategyKind::Naive(_), Some(w)) => u32::from(w) + 1,
            (StrategyKind::Naive(_), None) => a,
            (StrategyKind::Mru(_), None) => a + 1,
            (StrategyKind::Mru(m), Some(w)) => {
                let listed = m.list_len().map_or(a, |l| (l as u32).min(a));
                let d = distance();
                if d < listed {
                    d + 2
                } else {
                    // Past the list, the unnamed ways are scanned in frame
                    // order.
                    let below = (1u32 << w) - 1;
                    2 + listed + (!scanned & below).count_ones()
                }
            }
            (StrategyKind::Banked(b), hit) => {
                let banks = b.banks();
                match (b.order(), hit) {
                    (ScanOrder::Frame, Some(w)) => u32::from(w) / banks + 1,
                    (ScanOrder::Frame, None) => (a + banks - 1) / banks,
                    (ScanOrder::Mru, Some(_)) => 2 + distance() / banks,
                    (ScanOrder::Mru, None) => 1 + (a + banks - 1) / banks,
                }
            }
            (StrategyKind::Partial(p), hit) => {
                let subsets = p.subsets();
                match hit {
                    None => subsets + scanned.count_ones(),
                    Some(w) => {
                        debug_assert!(scanned >> w & 1 == 1, "a hit is its own candidate");
                        // The hit's subset, ⌊w/n⌋ with n = a/s, is
                        // ⌊w·s/a⌋; a cache's `a` is a power of two, so
                        // that is a shift and no division.
                        let ws = u32::from(w) * subsets;
                        let subset = if a.is_power_of_two() {
                            ws >> a.trailing_zeros()
                        } else {
                            ws / a
                        };
                        let through_hit = u32::MAX >> (31 - u32::from(w));
                        subset + 1 + (scanned & through_hit).count_ones()
                    }
                }
            }
        }
    }
}

impl PartialCompare {
    /// Whether `spec` is [`lane_spec`](Self::lane_spec)`(ways)`: the one
    /// gate on reading a cache's lanes. A spec exists only for a
    /// realizable geometry, so equal fields are equal specs, and the
    /// divisions `lane_spec` makes are skipped.
    #[inline]
    fn packed_by(&self, spec: LaneSpec, ways: usize) -> bool {
        spec.ways() as usize == ways
            && spec.tag_bits() == self.tag_bits()
            && spec.subsets() == self.subsets()
            && spec.transform() == self.transform()
    }

    /// Step one as a way bitmask: bit `w` set iff way `w` is valid and its
    /// stored slice matches the incoming tag's, over the subsets a lookup
    /// searches (see [`StrategyKind::scan`]). It reads the cache's own
    /// lanes when they are packed for this geometry, else packs the stored
    /// tags here, as [`lookup`](crate::LookupStrategy::lookup) does.
    fn candidates(&self, set: &PricedSet<'_>) -> u32 {
        let through = set.hit_way.map_or(u32::MAX, u32::from);
        let (codec, packed) = match set.lanes {
            Some(lanes) if self.packed_by(lanes.spec, set.ways()) => {
                debug_assert_eq!(
                    lanes.words,
                    &self.pack(set.tags).1[..lanes.words.len()],
                    "lane words are stale for this set's tags"
                );
                return lanes
                    .codec
                    .candidates(lanes.words, set.valid, set.tag, through);
            }
            _ => self.pack(set.tags),
        };
        let words = &packed[..self.subsets() as usize];
        codec.candidates(words, set.valid, set.tag, through)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{Banked, LookupStrategy, Mru, Naive, Traditional, TransformKind};
    use crate::packed::PackedLanes;
    use proptest::prelude::*;

    /// A well-formed set: `tags` unique among valid ways, `order` a
    /// permutation.
    struct Set {
        tags: Vec<u64>,
        valid: u32,
        order: Vec<u8>,
    }

    impl Set {
        fn full(tags: &[u64], order: &[u8]) -> Set {
            Set {
                tags: tags.to_vec(),
                valid: u32::MAX >> (32 - tags.len()),
                order: order.to_vec(),
            }
        }

        /// The set's [`PricedSet`] for an incoming `tag`, with the hit
        /// facts a cache would report.
        fn priced<'a>(&'a self, tag: u64, lanes: Option<LaneView<'a>>) -> PricedSet<'a> {
            let hit_way = (0..self.tags.len())
                .find(|&w| self.valid >> w & 1 == 1 && self.tags[w] == tag)
                .map(|w| w as u8);
            PricedSet {
                tag,
                hit_way,
                mru_distance: hit_way.map(|w| self.order.iter().position(|&o| o == w).unwrap()),
                tags: &self.tags,
                valid: self.valid,
                order: &self.order,
                lanes,
            }
        }
    }

    fn price(kind: impl LookupStrategy, set: &Set, tag: u64) -> u32 {
        kind.kind().unwrap().price(&set.priced(tag, None))
    }

    /// Every strategy configuration the differential test covers at `a`
    /// ways.
    fn kinds(a: usize) -> Vec<StrategyKind> {
        let mut kinds = vec![
            StrategyKind::Traditional(Traditional),
            StrategyKind::Naive(Naive),
            StrategyKind::Mru(Mru::full()),
        ];
        kinds.extend((1..=a).map(|l| StrategyKind::Mru(Mru::truncated(l))));
        for order in [ScanOrder::Frame, ScanOrder::Mru] {
            let banks = std::iter::successors(Some(1u32), |b| Some(b * 2));
            kinds.extend(
                banks
                    .take_while(|&b| b as usize <= a)
                    .map(|b| StrategyKind::Banked(Banked::new(b, order))),
            );
        }
        for transform in [
            TransformKind::None,
            TransformKind::XorFold,
            TransformKind::Improved,
            TransformKind::Swap,
        ] {
            for tag_bits in [16, 32] {
                for s in (1..=a as u32).filter(|s| a as u32 % s == 0) {
                    if tag_bits / (a as u32 / s) >= 1 {
                        let p = PartialCompare::new(tag_bits, s, transform);
                        kinds.push(StrategyKind::Partial(p));
                    }
                }
            }
        }
        kinds
    }

    /// A random `a`-way set and incoming tag drawn from `seed`. Tags
    /// share their high half so slices match often, and invalid ways keep
    /// stale tags, some of them copies of a live neighbour's, whose
    /// slices still match.
    fn random_set(a: usize, seed: u64, hit: bool) -> (Set, u64) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Bits 0..6 hold the way, so valid tags are unique.
        let mut tags: Vec<u64> = (0..a as u64)
            .map(|w| 0xA5A5_0000 | (next() % 64) << 6 | w)
            .collect();
        let mut valid = 0u32;
        for w in 0..a {
            match next() % 4 {
                0 => {}                           // invalid, stale tag of its own
                1 => tags[w] = tags[(w + 1) % a], // invalid copy of a neighbour
                _ => valid |= 1 << w,
            }
        }
        let mut order: Vec<u8> = (0..a as u8).collect();
        for i in (1..a).rev() {
            order.swap(i, next() as usize % (i + 1));
        }
        let pick = next() as usize % a;
        let tag = if hit && valid >> pick & 1 == 1 {
            tags[pick]
        } else {
            // Way bits 0x3F name no way, so this misses.
            0xA5A5_0000 | (next() % 64) << 6 | 0x3F
        };
        (Set { tags, valid, order }, tag)
    }

    proptest! {
        /// The pricer is probe-for-probe the serial search, for every
        /// strategy configuration, with and without maintained lanes.
        #[test]
        fn price_equals_serial_lookup(i in 0usize..6, seed in any::<u64>(), hit in any::<bool>()) {
            let a = [1usize, 2, 4, 8, 16, 32][i];
            let (set, tag) = random_set(a, seed, hit);
            let view = SetView::from_valid_mask(&set.tags, set.valid, &set.order);
            for kind in kinds(a) {
                // The serial search, not the fast lookup: the fast
                // lookups price through `price` themselves.
                let want = kind.lookup_observed(&view, tag, &mut ());
                let priced = set.priced(tag, None);
                prop_assert_eq!(priced.hit_way, want.hit_way);
                prop_assert_eq!(kind.price(&priced), want.probes, "{} without lanes", kind.name());
                if let StrategyKind::Partial(p) = kind {
                    let Some(spec) = p.lane_spec(a) else { continue };
                    let mut lanes = PackedLanes::new(spec, 1);
                    lanes.rebuild_set(0, &set.tags);
                    let priced = set.priced(tag, Some(lanes.view(0)));
                    prop_assert_eq!(kind.price(&priced), want.probes, "{} with lanes", kind.name());
                    // Lanes packed for another geometry are ignored.
                    let other = LaneSpec::try_new(p.tag_bits() + 1, p.subsets(), p.transform(), a as u32);
                    if let Some(other) = other {
                        let mut lanes = PackedLanes::new(other, 1);
                        lanes.rebuild_set(0, &set.tags);
                        let priced = set.priced(tag, Some(lanes.view(0)));
                        prop_assert_eq!(kind.price(&priced), want.probes, "{} foreign lanes", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn any_kind_prices_a_one_way_set_at_one() {
        let set = Set::full(&[9], &[0]);
        for kind in kinds(1) {
            for tag in [9, 10] {
                assert_eq!(kind.price(&set.priced(tag, None)), 1, "{}", kind.name());
            }
        }
    }

    #[test]
    fn traditional_is_one_probe() {
        let set = Set::full(&[1, 2, 3, 4], &[3, 2, 1, 0]);
        for tag in 0..6 {
            assert_eq!(price(Traditional, &set, tag), 1);
        }
    }

    #[test]
    fn naive_hit_is_way_plus_one_and_miss_is_a() {
        let tags: Vec<u64> = (10..18).collect();
        let set = Set::full(&tags, &[7, 6, 5, 4, 3, 2, 1, 0]);
        for (w, &tag) in tags.iter().enumerate() {
            assert_eq!(price(Naive, &set, tag), w as u32 + 1);
        }
        assert_eq!(price(Naive, &set, 99), 8);
    }

    #[test]
    fn mru_hit_is_distance_plus_two_and_miss_is_a_plus_one() {
        // Way order 2, 0, 3, 1: tag 12 at d = 0, 10 at 1, 13 at 2, 11 at 3.
        let set = Set::full(&[10, 11, 12, 13], &[2, 0, 3, 1]);
        for (d, tag) in [12u64, 10, 13, 11].into_iter().enumerate() {
            assert_eq!(price(Mru::full(), &set, tag), d as u32 + 2);
        }
        assert_eq!(price(Mru::full(), &set, 99), 5);
    }

    #[test]
    fn truncated_mru_scans_unlisted_ways_in_frame_order() {
        // List of 1 names way 2; the rest scan as ways 0, 1, 3.
        let set = Set::full(&[10, 11, 12, 13], &[2, 0, 3, 1]);
        let m = Mru::truncated(1);
        assert_eq!(price(m, &set, 12), 2); // d = 0 < L
        assert_eq!(price(m, &set, 10), 2 + 1); // way 0, no unlisted way below
        assert_eq!(price(m, &set, 11), 2 + 1 + 1); // way 1: way 0 below
        assert_eq!(price(m, &set, 13), 2 + 1 + 2); // way 3: ways 0, 1 below
        assert_eq!(price(m, &set, 99), 5);
        // A list of 2 names ways 2 and 0; way 3 then has only way 1 below.
        assert_eq!(price(Mru::truncated(2), &set, 13), 2 + 2 + 1);
    }

    #[test]
    fn banked_prices_by_group() {
        let tags: Vec<u64> = (10..18).collect();
        let set = Set::full(&tags, &[7, 6, 5, 4, 3, 2, 1, 0]);
        let frame = Banked::new(3, ScanOrder::Frame);
        assert_eq!(price(frame, &set, 10), 1); // ⌊0/3⌋ + 1
        assert_eq!(price(frame, &set, 16), 3); // ⌊6/3⌋ + 1
        assert_eq!(price(frame, &set, 99), 3); // ⌈8/3⌉
        let mru = Banked::new(4, ScanOrder::Mru);
        assert_eq!(price(mru, &set, 17), 2); // way 7, d = 0
        assert_eq!(price(mru, &set, 13), 3); // way 3, d = 4
        assert_eq!(price(mru, &set, 99), 3); // 1 + ⌈8/4⌉
    }

    #[test]
    fn partial_pays_one_probe_per_false_match_ahead_of_the_hit() {
        let p = PartialCompare::new(16, 1, TransformKind::Swap);
        // k = 4 and every slot compares nibble 0. Ways 0 and 2 falsely
        // match the incoming nibble 5 ahead of the hit in way 3; way 1
        // does not match.
        let set = Set::full(&[0x1235, 0x4566, 0x7895, 0xAAA5], &[0, 1, 2, 3]);
        assert_eq!(price(p, &set, 0xAAA5), 1 + 2 + 1);
        // A miss pays step one plus every candidate.
        assert_eq!(price(p, &set, 0xBBB5), 1 + 3);
        assert_eq!(price(p, &set, 0xBBB7), 1);
        // An invalid way never becomes a candidate, though its stale
        // slice matches.
        let mut stale = Set::full(&[0x1235, 0x4566, 0x7895, 0xAAA5], &[0, 1, 2, 3]);
        stale.valid = 0b1011;
        assert_eq!(price(p, &stale, 0xAAA5), 1 + 1 + 1);
    }

    #[test]
    fn partial_hit_in_a_later_subset_pays_every_earlier_subset() {
        // 4 ways, 2 subsets, k = 8: subset 0 compares bytes 0 and 1.
        let p = PartialCompare::new(16, 2, TransformKind::None);
        let set = Set::full(&[0x00AA, 0x00BB, 0x00CC, 0x00DD], &[0, 1, 2, 3]);
        // Slot 1 of subset 0 (byte 1 = 0x00) falsely matches; subset 1
        // slot 0 is the hit.
        assert_eq!(price(p, &set, 0x00CC), (1 + 1) + 1 + 1);
        assert_eq!(price(p, &set, 0x00AA), 1 + 1);
        assert_eq!(price(p, &set, 0x0011), (1 + 1) + (1 + 1));
    }

    #[test]
    fn scans_only_for_partial_and_truncated_lists() {
        assert!(!StrategyKind::Traditional(Traditional).scans(8));
        assert!(!StrategyKind::Naive(Naive).scans(8));
        assert!(!StrategyKind::Mru(Mru::full()).scans(8));
        assert!(!StrategyKind::Mru(Mru::truncated(8)).scans(8));
        assert!(StrategyKind::Mru(Mru::truncated(7)).scans(8));
        assert!(!StrategyKind::Banked(Banked::new(2, ScanOrder::Mru)).scans(8));
        let p = StrategyKind::Partial(PartialCompare::new(16, 1, TransformKind::XorFold));
        assert!(p.scans(8));
        assert!(!p.scans(1), "a one-way set is direct-mapped");
    }
}
