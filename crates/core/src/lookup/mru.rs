//! The MRU-ordered serial implementation.

use crate::lookup::{Lookup, LookupStrategy, StrategyKind};
use crate::observe::ProbeObserver;
use crate::set_view::SetView;

/// The MRU serial implementation (§2.1 of the paper): one probe reads the
/// per-set MRU list, then stored tags are scanned serially from
/// most-recently-used to least-recently-used. Temporal locality makes early
/// list positions far more likely to hit, so hits average well under a
/// frame-order scan; misses cost `a + 1` probes — one worse than naive,
/// because the list was consulted uselessly.
///
/// [`Mru::truncated`] models the paper's reduced MRU lists (Figure 5): only
/// the first `len` list entries are stored; the rest of the set is then
/// scanned in arbitrary (frame) order. Keeping a short list cuts the MRU
/// memory while staying close to full-list performance as long as `len`
/// grows linearly with associativity.
///
/// A one-way set is a direct-mapped lookup: one probe, no list.
///
/// # Example
///
/// ```
/// use seta_core::lookup::{LookupStrategy, Mru};
/// use seta_core::SetView;
///
/// // Way 2 is the MRU block.
/// let view = SetView::from_parts(&[5, 6, 7, 8], &[true; 4], &[2, 0, 3, 1]);
/// let r = Mru::full().lookup(&view, 7);
/// assert_eq!(r.probes, 2); // 1 for the list + 1 probe found it first
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mru {
    /// Number of MRU-list entries kept; `None` means the full list.
    list_len: Option<usize>,
}

impl Mru {
    /// The full-list variant (what an LRU cache gets for free).
    pub fn full() -> Self {
        Mru { list_len: None }
    }

    /// A reduced list of `len` entries; the remainder of the set is scanned
    /// in frame order after the list is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (a zero-length list is the naive scheme —
    /// use [`Naive`](crate::lookup::Naive) instead).
    pub fn truncated(len: usize) -> Self {
        assert!(len > 0, "a zero-length MRU list is the naive scheme");
        Mru {
            list_len: Some(len),
        }
    }

    /// The configured list length, `None` for full.
    pub fn list_len(&self) -> Option<usize> {
        self.list_len
    }

    /// The search order for a view: list entries first, then unlisted ways
    /// in frame order.
    fn search_order<'a>(&self, view: &'a SetView) -> impl Iterator<Item = u8> + 'a {
        let listed = self.list_len.unwrap_or(view.ways()).min(view.ways());
        let head = view.order()[..listed].iter().copied();
        let order = view.order();
        let tail = (0..view.ways() as u8).filter(move |w| !order[..listed].contains(w));
        head.chain(tail)
    }

    fn search<P: ProbeObserver + ?Sized>(&self, view: &SetView, tag: u64, obs: &mut P) -> Lookup {
        if view.ways() == 1 {
            // Direct-mapped: no list, single compare.
            obs.tag_probe(0);
            return Lookup {
                hit_way: view.matching_way(tag),
                probes: 1,
            };
        }
        let mut probes = 1; // reading the MRU list
        obs.mru_list_read();
        for w in self.search_order(view) {
            probes += 1;
            obs.tag_probe(w);
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
}

impl LookupStrategy for Mru {
    fn lookup(&self, view: &SetView, tag: u64) -> Lookup {
        // Fast path: one whole-set equality bitmask finds the hit, its
        // position in the recency order is the MRU distance, and the
        // pricer counts the probes. `search` stays as the scalar
        // reference behind `lookup_observed`.
        let m = view.eq_mask(tag);
        let order = view.order();
        let mru_distance = (m != 0)
            .then(|| order.iter().position(|&w| m >> w & 1 != 0))
            .flatten();
        let hit_way = mru_distance.map(|d| order[d]);
        StrategyKind::Mru(*self).priced_lookup(view, tag, hit_way, mru_distance)
    }

    fn lookup_observed(&self, view: &SetView, tag: u64, obs: &mut dyn ProbeObserver) -> Lookup {
        self.search(view, tag, obs)
    }

    fn name(&self) -> String {
        match self.list_len {
            None => "mru".into(),
            Some(l) => format!("mru[{l}]"),
        }
    }

    fn kind_name(&self) -> &'static str {
        "mru"
    }

    fn kind(&self) -> Option<crate::lookup::StrategyKind> {
        Some(StrategyKind::Mru(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> SetView {
        // tags per way: w0=10, w1=11, w2=12, w3=13; MRU order 2,0,3,1.
        SetView::from_parts(&[10, 11, 12, 13], &[true; 4], &[2, 0, 3, 1])
    }

    #[test]
    fn full_list_probes_follow_mru_distance() {
        let v = view();
        // distance 0 (way 2): 1 list + 1 = 2 probes, etc.
        assert_eq!(Mru::full().lookup(&v, 12).probes, 2);
        assert_eq!(Mru::full().lookup(&v, 10).probes, 3);
        assert_eq!(Mru::full().lookup(&v, 13).probes, 4);
        assert_eq!(Mru::full().lookup(&v, 11).probes, 5);
    }

    #[test]
    fn miss_costs_a_plus_one() {
        let v = view();
        let r = Mru::full().lookup(&v, 99);
        assert_eq!(r.hit_way, None);
        assert_eq!(r.probes, 5);
    }

    #[test]
    fn truncated_list_scans_tail_in_frame_order() {
        let v = view();
        // List of 1: search order = [2] then frames 0,1,3.
        let m = Mru::truncated(1);
        assert_eq!(m.lookup(&v, 12).probes, 2); // in the list
        assert_eq!(m.lookup(&v, 10).probes, 3); // first tail entry (way 0)
        assert_eq!(m.lookup(&v, 11).probes, 4); // way 1
        assert_eq!(m.lookup(&v, 13).probes, 5); // way 3
        assert_eq!(m.lookup(&v, 99).probes, 5); // miss
    }

    #[test]
    fn truncated_longer_than_set_acts_full() {
        let v = view();
        let m = Mru::truncated(16);
        for tag in [10u64, 11, 12, 13, 99] {
            assert_eq!(m.lookup(&v, tag), Mru::full().lookup(&v, tag));
        }
    }

    #[test]
    fn one_way_set_is_direct_mapped() {
        let v = SetView::from_parts(&[3], &[true], &[0]);
        assert_eq!(Mru::full().lookup(&v, 3).probes, 1);
        assert_eq!(Mru::full().lookup(&v, 4).probes, 1);
    }

    #[test]
    fn finds_blocks_regardless_of_list_length() {
        let v = view();
        for len in 1..=4 {
            for (way, tag) in [(0u8, 10u64), (1, 11), (2, 12), (3, 13)] {
                let r = Mru::truncated(len).lookup(&v, tag);
                assert_eq!(r.hit_way, Some(way), "len={len} tag={tag}");
            }
        }
    }

    #[test]
    fn invalid_frames_still_cost_probes() {
        let v = SetView::from_parts(&[10, 11], &[false, true], &[0, 1]);
        // Search order [0, 1]: probe invalid way 0, then hit way 1.
        let r = Mru::full().lookup(&v, 11);
        assert_eq!(r.probes, 3);
    }

    #[test]
    #[should_panic(expected = "naive")]
    fn zero_length_list_panics() {
        Mru::truncated(0);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Mru::full().name(), "mru");
        assert_eq!(Mru::truncated(2).name(), "mru[2]");
    }
}
