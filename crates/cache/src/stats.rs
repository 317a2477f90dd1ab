//! Per-cache access statistics.

use crate::bank::BankAccess;
use serde::{Deserialize, Serialize};

/// Hit/miss and eviction counters for one cache.
///
/// # Example
///
/// ```
/// use seta_cache::CacheStats;
///
/// let mut s = CacheStats::new();
/// s.record_access(true, false);
/// s.record_access(false, true);
/// assert_eq!(s.accesses(), 2);
/// assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    hits: u64,
    misses: u64,
    write_hits: u64,
    write_misses: u64,
    evictions: u64,
    dirty_evictions: u64,
}

impl CacheStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records one access outcome. Adds flags rather than branching on
    /// them: on a write-heavy trace neither flag is predictable.
    #[inline]
    pub fn record_access(&mut self, hit: bool, is_write: bool) {
        let (hit, miss, write) = (u64::from(hit), u64::from(!hit), u64::from(is_write));
        self.hits += hit;
        self.misses += miss;
        self.write_hits += hit & write;
        self.write_misses += miss & write;
    }

    /// Records `hits` hits at once, `write_hits` of them writes: counts a
    /// caller kept in counters of its own, folded back in.
    #[inline]
    pub fn record_hits(&mut self, hits: u64, write_hits: u64) {
        debug_assert!(write_hits <= hits, "more write hits than hits");
        self.hits += hits;
        self.write_hits += write_hits;
    }

    /// Records one [`SetBank`](crate::SetBank) access from the outcome the
    /// bank returned: a hit or a miss, and on an evicting miss the
    /// displaced block, dirty or clean. The bank keeps no counters of its
    /// own, so its owner counts here, in memory it alone writes.
    #[inline]
    pub fn record(&mut self, access: &BankAccess, is_write: bool) {
        self.record_access(access.hit, is_write);
        let (valid, dirty) = match access.evicted {
            Some((_, dirty)) => (true, dirty),
            None => (false, false),
        };
        self.record_displaced(valid, dirty);
    }

    /// Records an eviction, dirty or clean.
    #[inline]
    pub fn record_eviction(&mut self, dirty: bool) {
        self.record_displaced(true, dirty);
    }

    /// Records what a fill displaced: an eviction if the frame was `valid`,
    /// a dirty one if it was also `dirty`. A fill into an empty frame
    /// (`valid == false`) counts nothing.
    #[inline]
    fn record_displaced(&mut self, valid: bool, dirty: bool) {
        self.evictions += u64::from(valid);
        self.dirty_evictions += u64::from(valid & dirty);
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Write hits.
    pub fn write_hits(&self) -> u64 {
        self.write_hits
    }

    /// Write misses.
    pub fn write_misses(&self) -> u64 {
        self.write_misses
    }

    /// Evictions of valid blocks.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of dirty blocks (these become write-backs).
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Misses divided by accesses; 0 when there have been no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    /// Hits divided by accesses; 0 when there have been no accesses.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            write_hits: self.write_hits + other.write_hits,
            write_misses: self.write_misses + other.write_misses,
            evictions: self.evictions + other.evictions,
            dirty_evictions: self.dirty_evictions + other.dirty_evictions,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        *self = *self + other;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::new(), |acc, s| acc + s)
    }
}

impl<'a> std::iter::Sum<&'a CacheStats> for CacheStats {
    fn sum<I: Iterator<Item = &'a CacheStats>>(iter: I) -> CacheStats {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::new();
        s.record_access(true, false);
        s.record_access(true, true);
        s.record_access(false, true);
        s.record_eviction(true);
        s.record_eviction(false);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.write_hits(), 1);
        assert_eq!(s.write_misses(), 1);
        assert_eq!(s.evictions(), 2);
        assert_eq!(s.dirty_evictions(), 1);
    }

    #[test]
    fn displaced_counts_only_valid_frames() {
        let mut s = CacheStats::new();
        s.record_displaced(false, false);
        s.record_displaced(false, true);
        assert_eq!(s, CacheStats::new(), "an empty frame evicts nothing");
        s.record_displaced(true, false);
        s.record_displaced(true, true);
        assert_eq!((s.evictions(), s.dirty_evictions()), (2, 1));
    }

    #[test]
    fn record_counts_a_bank_access_and_its_victim() {
        let access = |hit, evicted| BankAccess {
            hit,
            way: 0,
            mru_distance: hit.then_some(0),
            evicted,
        };
        let mut s = CacheStats::new();
        s.record(&access(true, None), true);
        s.record(&access(false, None), false);
        s.record(&access(false, Some((0x1, false))), true);
        s.record(&access(false, Some((0x2, true))), false);
        assert_eq!(
            [
                s.hits(),
                s.misses(),
                s.write_hits(),
                s.write_misses(),
                s.evictions(),
                s.dirty_evictions(),
            ],
            [1, 3, 1, 1, 2, 1]
        );
    }

    #[test]
    fn ratios_handle_empty() {
        let s = CacheStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn ratios_sum_to_one() {
        let mut s = CacheStats::new();
        for i in 0..10 {
            s.record_access(i % 3 == 0, false);
        }
        assert!((s.miss_ratio() + s.hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_combines_componentwise() {
        let mut a = CacheStats::new();
        a.record_access(true, true);
        let mut b = CacheStats::new();
        b.record_access(false, false);
        b.record_eviction(true);
        let c = a + b;
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = CacheStats::new();
        a.record_access(true, false);
        let mut b = CacheStats::new();
        b.record_access(false, true);
        b.record_eviction(false);
        let sum = a + b;
        a += b;
        assert_eq!(a, sum);
    }

    #[test]
    fn sum_over_iterators() {
        let parts: Vec<CacheStats> = (0..4)
            .map(|i| {
                let mut s = CacheStats::new();
                s.record_access(i % 2 == 0, false);
                s
            })
            .collect();
        let by_value: CacheStats = parts.iter().copied().sum();
        let by_ref: CacheStats = parts.iter().sum();
        assert_eq!(by_value, by_ref);
        assert_eq!(by_value.accesses(), 4);
        assert_eq!(by_value.hits(), 2);
        let empty: CacheStats = std::iter::empty::<CacheStats>().sum();
        assert_eq!(empty, CacheStats::new());
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats::new();
        s.record_access(true, false);
        s.reset();
        assert_eq!(s, CacheStats::new());
    }
}
