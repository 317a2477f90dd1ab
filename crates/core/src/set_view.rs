//! The input to a lookup: a snapshot of one cache set.

use std::fmt;

/// Maximum associativity a [`SetView`] can hold.
///
/// The paper studies associativities up to 16; 32 leaves headroom for
/// extension studies while keeping the view a small, copyable, heap-free
/// value.
pub const MAX_ASSOC: usize = 32;

/// A snapshot of one cache set: stored tags, valid bits, and the MRU order,
/// as a lookup strategy would see them at the start of a cache access.
///
/// Stored tags are full-width (`u64`). A correctly functioning cache's tags
/// uniquely identify blocks within a set, so *full* compares against a
/// `SetView` are exact; the narrower stored-tag widths the paper studies
/// (16 and 32 bits) matter only to the *partial*-compare strategy, which
/// extracts its k-bit slices from a configured `t`-bit window (see
/// [`PartialCompare`](crate::lookup::PartialCompare)).
///
/// # Example
///
/// ```
/// use seta_core::SetView;
///
/// let view = SetView::from_parts(&[10, 20], &[true, false], &[1, 0]);
/// assert_eq!(view.ways(), 2);
/// assert!(view.is_valid(0));
/// assert!(!view.is_valid(1));
/// assert_eq!(view.order(), &[1, 0]);
/// ```
#[derive(Clone, Copy)]
pub struct SetView {
    ways: u8,
    tags: [u64; MAX_ASSOC],
    valid: u32,
    order: [u8; MAX_ASSOC],
}

impl SetView {
    /// Builds a view from parallel slices: `tags[w]` and `valid[w]` describe
    /// way `w`, and `order` lists ways most-recently-used first.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length, exceed [`MAX_ASSOC`], are
    /// empty, or if `order` is not a permutation of the ways.
    pub fn from_parts(tags: &[u64], valid: &[bool], order: &[u8]) -> Self {
        let ways = tags.len();
        assert!(ways > 0, "a set has at least one way");
        assert!(
            ways <= MAX_ASSOC,
            "associativity {ways} exceeds MAX_ASSOC {MAX_ASSOC}"
        );
        assert_eq!(valid.len(), ways, "valid mask length mismatch");
        assert_eq!(order.len(), ways, "order length mismatch");
        let mut seen = [false; MAX_ASSOC];
        for &w in order {
            assert!((w as usize) < ways, "order names way {w} of {ways}");
            assert!(!seen[w as usize], "order repeats way {w}");
            seen[w as usize] = true;
        }
        let mask = valid
            .iter()
            .enumerate()
            .fold(0, |m, (w, &v)| m | u32::from(v) << w);
        Self::build(tags, mask, order)
    }

    /// A view of a set whose valid bits are already a bitmask (bit `w` set
    /// iff way `w` holds a block), for callers that guarantee the
    /// invariants: `tags` and `order` of equal length in `1..=MAX_ASSOC`,
    /// `order` a permutation of the ways, and no bit of `valid` at or
    /// above the way count. A cache's set store meets them on every
    /// access. Release builds skip the O(ways) validation; debug builds
    /// check everything.
    pub fn from_valid_mask(tags: &[u64], valid: u32, order: &[u8]) -> Self {
        #[cfg(debug_assertions)]
        {
            let bools: Vec<bool> = (0..tags.len()).map(|w| valid >> w & 1 == 1).collect();
            let checked = Self::from_parts(tags, &bools, order);
            assert_eq!(checked.valid, valid, "valid mask names ways past the set");
        }
        Self::build(tags, valid, order)
    }

    /// Shared constructor body; callers have validated (or vouch for) the
    /// invariants. The slice copies still bound-check `ways`.
    fn build(tags: &[u64], valid: u32, order: &[u8]) -> Self {
        let ways = tags.len();
        let mut view = SetView {
            ways: ways as u8,
            tags: [0; MAX_ASSOC],
            valid,
            order: [0; MAX_ASSOC],
        };
        view.tags[..ways].copy_from_slice(tags);
        view.order[..ways].copy_from_slice(order);
        view
    }

    /// Number of ways in the set.
    pub fn ways(&self) -> usize {
        self.ways as usize
    }

    /// Stored tag of way `w` (meaningful only if [`is_valid`](Self::is_valid)).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn tag(&self, w: usize) -> u64 {
        assert!(w < self.ways(), "way {w} out of range");
        self.tags[w]
    }

    /// Whether way `w` holds a block.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn is_valid(&self, w: usize) -> bool {
        assert!(w < self.ways(), "way {w} out of range");
        self.valid & (1 << w) != 0
    }

    /// All stored tags as a slice (`tags()[w]` is meaningful only when the
    /// corresponding [`valid_mask`](Self::valid_mask) bit is set).
    pub fn tags(&self) -> &[u64] {
        &self.tags[..self.ways()]
    }

    /// The MRU order: way indices, most-recently-used first.
    pub fn order(&self) -> &[u8] {
        &self.order[..self.ways()]
    }

    /// Bitmask of valid ways: bit `w` set iff way `w` holds a block.
    #[inline]
    pub fn valid_mask(&self) -> u32 {
        self.valid
    }

    /// Whole-set equality bitmask: bit `w` set iff way `w` is valid and its
    /// stored tag equals `tag`. This is the branchless core of the fast
    /// lookup paths — one pass of data-parallel compares, no early exits —
    /// so the compiler is free to vectorize it.
    #[inline]
    pub fn eq_mask(&self, tag: u64) -> u32 {
        let mut m = 0u32;
        for (w, &t) in self.tags[..self.ways()].iter().enumerate() {
            m |= ((t == tag) as u32) << w;
        }
        m & self.valid
    }

    /// The way whose valid stored tag equals `tag`, if any. This is ground
    /// truth — what an oracle with free parallel compare would find.
    #[inline]
    pub fn matching_way(&self, tag: u64) -> Option<u8> {
        (0..self.ways())
            .find(|&w| self.is_valid(w) && self.tags[w] == tag)
            .map(|w| w as u8)
    }
}

impl fmt::Debug for SetView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SetView");
        d.field("ways", &self.ways());
        let tags: Vec<Option<u64>> = (0..self.ways())
            .map(|w| self.is_valid(w).then(|| self.tags[w]))
            .collect();
        d.field("tags", &tags);
        d.field("order", &self.order());
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let v = SetView::from_parts(&[1, 2, 3, 4], &[true, false, true, false], &[3, 1, 0, 2]);
        assert_eq!(v.ways(), 4);
        assert_eq!(v.tag(2), 3);
        assert!(v.is_valid(0));
        assert!(!v.is_valid(3));
        assert_eq!(v.order(), &[3, 1, 0, 2]);
    }

    #[test]
    fn matching_way_ignores_invalid() {
        let v = SetView::from_parts(&[9, 9], &[false, true], &[0, 1]);
        assert_eq!(v.matching_way(9), Some(1));
        assert_eq!(v.matching_way(8), None);
    }

    #[test]
    fn single_way_view() {
        let v = SetView::from_parts(&[42], &[true], &[0]);
        assert_eq!(v.ways(), 1);
        assert_eq!(v.matching_way(42), Some(0));
    }

    #[test]
    fn max_assoc_is_supported() {
        let tags: Vec<u64> = (0..MAX_ASSOC as u64).collect();
        let valid = vec![true; MAX_ASSOC];
        let order: Vec<u8> = (0..MAX_ASSOC as u8).rev().collect();
        let v = SetView::from_parts(&tags, &valid, &order);
        assert_eq!(
            v.matching_way(MAX_ASSOC as u64 - 1),
            Some(MAX_ASSOC as u8 - 1)
        );
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_view_panics() {
        SetView::from_parts(&[], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "MAX_ASSOC")]
    fn oversized_view_panics() {
        let tags = vec![0u64; MAX_ASSOC + 1];
        let valid = vec![true; MAX_ASSOC + 1];
        let order: Vec<u8> = (0..=MAX_ASSOC as u8).collect();
        SetView::from_parts(&tags, &valid, &order);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_order_panics() {
        SetView::from_parts(&[1, 2], &[true, true], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "names way")]
    fn out_of_range_order_panics() {
        SetView::from_parts(&[1, 2], &[true, true], &[0, 2]);
    }

    #[test]
    fn valid_mask_constructor_matches_checked_constructor() {
        let tags = [1u64, 2, 3, 4];
        let valid = [true, false, true, true];
        let order = [3u8, 1, 0, 2];
        let checked = SetView::from_parts(&tags, &valid, &order);
        let masked = SetView::from_valid_mask(&tags, 0b1101, &order);
        assert_eq!(checked.ways(), masked.ways());
        assert_eq!(checked.order(), masked.order());
        assert_eq!(checked.valid_mask(), masked.valid_mask());
        for w in 0..4 {
            assert_eq!(checked.is_valid(w), masked.is_valid(w));
            assert_eq!(checked.tag(w), masked.tag(w));
        }
    }

    #[test]
    fn debug_shows_invalid_ways_as_none() {
        let v = SetView::from_parts(&[7, 8], &[true, false], &[0, 1]);
        let s = format!("{v:?}");
        assert!(s.contains("Some(7)"), "{s}");
        assert!(s.contains("None"), "{s}");
    }
}
