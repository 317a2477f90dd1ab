//! Banked serial implementations: the `b×t`-wide middle ground.
//!
//! The paper's §1 notes that "implementations using tag widths of `b×t`
//! (`1 < b < a`) are possible and can result in intermediate costs and
//! performance, but are not considered here." This module considers them:
//! a `b×t`-bit-wide tag memory with `b` comparators reads and compares
//! `b` stored tags per probe, so a set of `a` ways is searched in groups
//! of `b` — `⌈a/b⌉` probes on a miss instead of `a`.

use crate::lookup::{Lookup, LookupStrategy, StrategyKind};
use crate::observe::ProbeObserver;
use crate::set_view::SetView;

/// The order in which a [`Banked`] lookup visits way groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanOrder {
    /// Fixed frame order: group `g` covers ways `[g·b, (g+1)·b)`.
    /// `b = 1` is exactly the naive scheme; `b = a` is the traditional
    /// parallel implementation.
    Frame,
    /// Most-recently-used order: one extra probe reads the per-set MRU
    /// list, then ways are visited `b` at a time from most- to
    /// least-recently used. `b = 1` is exactly the MRU scheme.
    Mru,
}

impl std::fmt::Display for ScanOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanOrder::Frame => f.write_str("frame"),
            ScanOrder::Mru => f.write_str("mru"),
        }
    }
}

/// A banked serial lookup: `b` tags read and compared per probe.
///
/// Cost model: a hit in the `g`-th group visited (0-based) costs `g + 1`
/// probes (plus one for the MRU-list read under [`ScanOrder::Mru`]);
/// a miss visits every group. A one-way set is a direct-mapped lookup.
///
/// # Example
///
/// ```
/// use seta_core::lookup::{Banked, LookupStrategy, ScanOrder};
/// use seta_core::SetView;
///
/// let view = SetView::from_parts(&[5, 6, 7, 8], &[true; 4], &[0, 1, 2, 3]);
/// let two_banks = Banked::new(2, ScanOrder::Frame);
/// assert_eq!(two_banks.lookup(&view, 7).probes, 2); // ways {5,6} then {7,8}
/// assert_eq!(two_banks.lookup(&view, 9).probes, 2); // miss: both groups
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Banked {
    banks: u32,
    order: ScanOrder,
}

impl Banked {
    /// Creates a lookup with `b` banks (tags compared per probe).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: u32, order: ScanOrder) -> Self {
        assert!(banks >= 1, "at least one bank is required");
        Banked { banks, order }
    }

    /// Tags compared per probe.
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// The scan order.
    pub fn order(&self) -> ScanOrder {
        self.order
    }

    fn scan<I, P>(&self, view: &SetView, tag: u64, ways: I, base_probes: u32, obs: &mut P) -> Lookup
    where
        I: Iterator<Item = u8>,
        P: ProbeObserver + ?Sized,
    {
        let total = view.ways() as u32;
        let mut probes = base_probes;
        for (visited, w) in ways.enumerate() {
            let visited = visited as u32;
            if visited % self.banks == 0 {
                probes += 1;
                obs.group_probe(visited / self.banks, self.banks.min(total - visited) as u8);
            }
            if view.is_valid(w as usize) && view.tag(w as usize) == tag {
                return Lookup {
                    hit_way: Some(w),
                    probes,
                };
            }
        }
        Lookup {
            hit_way: None,
            probes,
        }
    }

    fn search<P: ProbeObserver + ?Sized>(&self, view: &SetView, tag: u64, obs: &mut P) -> Lookup {
        if view.ways() == 1 {
            obs.tag_probe(0);
            return Lookup {
                hit_way: view.matching_way(tag),
                probes: 1,
            };
        }
        match self.order {
            ScanOrder::Frame => self.scan(view, tag, 0..view.ways() as u8, 0, obs),
            ScanOrder::Mru => {
                obs.mru_list_read();
                self.scan(view, tag, view.order().iter().copied(), 1, obs)
            }
        }
    }
}

impl LookupStrategy for Banked {
    #[inline]
    fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        // Fast path: the whole-set equality bitmask finds the hit — its
        // lowest set bit in frame order, its first order entry in MRU
        // order — and the pricer counts the probes. `search` stays as the
        // scalar reference behind `lookup_observed`.
        let m = view.eq_mask(tag);
        let (hit_way, mru_distance) = match self.order {
            ScanOrder::Frame => ((m != 0).then(|| m.trailing_zeros() as u8), None),
            ScanOrder::Mru => {
                let order = view.order();
                let d = (m != 0)
                    .then(|| order.iter().position(|&w| m >> w & 1 != 0))
                    .flatten();
                (d.map(|d| order[d]), d)
            }
        };
        StrategyKind::Banked(*self).priced_lookup(view, tag, hit_way, mru_distance)
    }

    fn lookup_observed(&self, view: &SetView, tag: u64, obs: &mut dyn ProbeObserver) -> Lookup {
        self.search(view, tag, obs)
    }

    fn name(&self) -> String {
        format!("banked[b={},{}]", self.banks, self.order)
    }

    fn kind_name(&self) -> &'static str {
        "banked"
    }

    fn kind(&self) -> Option<crate::lookup::StrategyKind> {
        Some(StrategyKind::Banked(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{Mru, Naive, Traditional};

    fn view() -> SetView {
        SetView::from_parts(
            &[10, 11, 12, 13, 14, 15, 16, 17],
            &[true; 8],
            &[7, 6, 5, 4, 3, 2, 1, 0],
        )
    }

    #[test]
    fn one_bank_frame_is_naive() {
        let v = view();
        let banked = Banked::new(1, ScanOrder::Frame);
        for tag in 9u64..19 {
            assert_eq!(banked.lookup(&v, tag), Naive.lookup(&v, tag), "tag {tag}");
        }
    }

    #[test]
    fn full_banks_frame_is_traditional() {
        let v = view();
        let banked = Banked::new(8, ScanOrder::Frame);
        for tag in 9u64..19 {
            assert_eq!(
                banked.lookup(&v, tag),
                Traditional.lookup(&v, tag),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn one_bank_mru_is_mru() {
        let v = view();
        let banked = Banked::new(1, ScanOrder::Mru);
        for tag in 9u64..19 {
            assert_eq!(
                banked.lookup(&v, tag),
                Mru::full().lookup(&v, tag),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn frame_groups_cost_by_group_index() {
        let v = view();
        let b2 = Banked::new(2, ScanOrder::Frame);
        // Ways 0-1 in probe 1, ways 2-3 in probe 2, etc.
        assert_eq!(b2.lookup(&v, 10).probes, 1);
        assert_eq!(b2.lookup(&v, 11).probes, 1);
        assert_eq!(b2.lookup(&v, 12).probes, 2);
        assert_eq!(b2.lookup(&v, 15).probes, 3);
        assert_eq!(b2.lookup(&v, 17).probes, 4);
        assert_eq!(b2.lookup(&v, 99).probes, 4);
    }

    #[test]
    fn mru_groups_follow_recency() {
        let v = view(); // MRU order 7,6,5,4,3,2,1,0
        let b4 = Banked::new(4, ScanOrder::Mru);
        // Way 7 is MRU: 1 list probe + 1 group probe.
        assert_eq!(b4.lookup(&v, 17).probes, 2);
        assert_eq!(b4.lookup(&v, 14).probes, 2); // way 4, still first group
        assert_eq!(b4.lookup(&v, 13).probes, 3); // way 3, second group
        assert_eq!(b4.lookup(&v, 99).probes, 3); // miss: list + 2 groups
    }

    #[test]
    fn uneven_group_sizes_round_up() {
        // 8 ways, 3 banks: groups of 3, 3, 2 → 3 probes on a miss.
        let v = view();
        let b3 = Banked::new(3, ScanOrder::Frame);
        assert_eq!(b3.lookup(&v, 99).probes, 3);
        assert_eq!(b3.lookup(&v, 16).probes, 3); // way 6 in the last group
    }

    #[test]
    fn one_way_set_is_direct_mapped() {
        let v = SetView::from_parts(&[3], &[true], &[0]);
        for order in [ScanOrder::Frame, ScanOrder::Mru] {
            let b = Banked::new(2, order);
            assert_eq!(b.lookup(&v, 3).probes, 1);
            assert_eq!(b.lookup(&v, 4).probes, 1);
        }
    }

    #[test]
    fn more_banks_never_cost_more() {
        let v = view();
        for tag in 9u64..19 {
            for order in [ScanOrder::Frame, ScanOrder::Mru] {
                let mut prev = u32::MAX;
                for b in [1u32, 2, 4, 8] {
                    let probes = Banked::new(b, order).lookup(&v, tag).probes;
                    assert!(probes <= prev, "b={b} {order} tag={tag}");
                    prev = probes;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        Banked::new(0, ScanOrder::Frame);
    }

    #[test]
    fn name_encodes_configuration() {
        assert_eq!(Banked::new(2, ScanOrder::Mru).name(), "banked[b=2,mru]");
    }
}
