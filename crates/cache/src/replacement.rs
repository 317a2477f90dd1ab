//! Replacement policies.
//!
//! Every set keeps an explicit *recency list*: a permutation of its way
//! indices ordered most-recently-used first. For LRU this list both picks
//! victims (the tail) and *is* the MRU search order that the MRU lookup
//! strategy of the paper consults — the paper notes that a true-LRU cache
//! already maintains exactly this information, which is why the MRU scheme
//! needs no extra memory there.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which replacement policy a [`Cache`](crate::Cache) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Replace the least-recently-used block; hits refresh recency.
    /// This is what the paper's level-two caches use.
    Lru,
    /// Replace in arrival order; hits do not refresh recency.
    Fifo,
    /// Replace a uniformly random valid frame.
    Random,
}

impl Policy {
    /// All policies, in a fixed canonical order.
    pub const ALL: [Policy; 3] = [Policy::Lru, Policy::Fifo, Policy::Random];
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Policy::Lru => "LRU",
            Policy::Fifo => "FIFO",
            Policy::Random => "random",
        };
        f.write_str(name)
    }
}

/// Per-cache replacement machinery: the recency lists of every set plus the
/// RNG used by [`Policy::Random`].
#[derive(Debug, Clone)]
pub struct ReplacementState {
    policy: Policy,
    assoc: usize,
    /// Concatenated per-set recency lists, most-recently-used first.
    /// `order[set * assoc ..][..assoc]` is always a permutation of
    /// `0..assoc`.
    order: Vec<u8>,
    rng: StdRng,
}

impl ReplacementState {
    /// Creates state for `num_sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or exceeds 256 (way indices are stored as
    /// bytes; the paper studies associativities up to 16).
    pub fn new(policy: Policy, num_sets: usize, assoc: usize, seed: u64) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        assert!(
            assoc <= 256,
            "associativity {assoc} exceeds supported maximum 256"
        );
        let mut order = Vec::with_capacity(num_sets * assoc);
        for _ in 0..num_sets {
            order.extend((0..assoc as u16).map(|w| w as u8));
        }
        ReplacementState {
            policy,
            assoc,
            order,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The recency list of a set, most-recently-used first.
    #[inline]
    pub fn order(&self, set: usize) -> &[u8] {
        &self.order[set * self.assoc..(set + 1) * self.assoc]
    }

    #[inline]
    fn order_mut(&mut self, set: usize) -> &mut [u8] {
        &mut self.order[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Position of `way` in the recency list of `set` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `way` is not a way of this cache (the list is a
    /// permutation, so every valid way is present).
    #[inline]
    pub fn recency_of(&self, set: usize, way: u8) -> usize {
        self.order(set)
            .iter()
            .position(|&w| w == way)
            .expect("recency list is a permutation of the ways")
    }

    /// Records a hit on `way`, refreshing recency under LRU.
    #[inline]
    pub fn touch(&mut self, set: usize, way: u8) {
        if self.policy == Policy::Lru {
            self.move_to_front(set, way);
        }
    }

    /// Records a hit on the way at recency position `pos` of `set`, as
    /// [`touch`](Self::touch) does, for a caller that already knows the
    /// position: no search of the recency list. A hit on the MRU way
    /// (`pos == 0`) changes nothing.
    #[inline]
    pub(crate) fn touch_at(&mut self, set: usize, pos: usize) {
        if self.policy == Policy::Lru {
            to_front(self.order_mut(set), pos);
        }
    }

    /// Records a fill into `way` (a new block arrived), refreshing recency
    /// under LRU and FIFO.
    #[inline]
    pub fn fill(&mut self, set: usize, way: u8) {
        match self.policy {
            Policy::Lru | Policy::Fifo => self.move_to_front(set, way),
            Policy::Random => {}
        }
    }

    /// Chooses the way to evict for a miss in a full `set`. Callers fill
    /// invalid frames before asking, so [`Policy::Random`] draws from its
    /// RNG only when a live block must go.
    #[inline]
    pub fn victim(&mut self, set: usize) -> u8 {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                *self.order(set).last().expect("associativity is positive")
            }
            Policy::Random => self.rng.gen_range(0..self.assoc) as u8,
        }
    }

    /// Chooses the way to evict for a miss in a full `set` and records the
    /// fill into it: [`victim`](Self::victim) then [`fill`](Self::fill).
    /// Under LRU and FIFO the victim is the tail of the recency list, so
    /// the fill rotates the whole list without searching it.
    #[inline]
    pub(crate) fn replace(&mut self, set: usize) -> u8 {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                let last = self.assoc - 1;
                to_front(self.order_mut(set), last)
            }
            Policy::Random => self.rng.gen_range(0..self.assoc) as u8,
        }
    }

    #[inline]
    fn move_to_front(&mut self, set: usize, way: u8) {
        let order = self.order_mut(set);
        let pos = order
            .iter()
            .position(|&w| w == way)
            .expect("recency list is a permutation of the ways");
        to_front(order, pos);
    }

    /// Resets every set's recency list to the initial order (used on flush).
    pub fn reset(&mut self) {
        let assoc = self.assoc;
        for chunk in self.order.chunks_mut(assoc) {
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = i as u8;
            }
        }
    }
}

/// Moves the way at position `pos` of a recency list to the front,
/// shifting the `pos` ways above it back one place, and returns it. A way
/// already at the front (`pos == 0`) moves nothing. The shift is a plain
/// byte loop: lists are at most a few dozen bytes, and a `copy_within`
/// here compiles to a `memmove` call that measured slower.
#[inline]
fn to_front(order: &mut [u8], pos: usize) -> u8 {
    let way = order[pos];
    let mut i = pos;
    while i > 0 {
        order[i] = order[i - 1];
        i -= 1;
    }
    order[0] = way;
    way
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn is_permutation(order: &[u8]) -> bool {
        let mut seen = vec![false; order.len()];
        for &w in order {
            if (w as usize) >= order.len() || seen[w as usize] {
                return false;
            }
            seen[w as usize] = true;
        }
        true
    }

    #[test]
    fn initial_order_is_identity() {
        let s = ReplacementState::new(Policy::Lru, 4, 4, 0);
        for set in 0..4 {
            assert_eq!(s.order(set), &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn lru_touch_moves_to_front() {
        let mut s = ReplacementState::new(Policy::Lru, 1, 4, 0);
        s.touch(0, 2);
        assert_eq!(s.order(0), &[2, 0, 1, 3]);
        s.touch(0, 3);
        assert_eq!(s.order(0), &[3, 2, 0, 1]);
        s.touch(0, 3);
        assert_eq!(s.order(0), &[3, 2, 0, 1]);
    }

    #[test]
    fn fifo_touch_does_not_reorder() {
        let mut s = ReplacementState::new(Policy::Fifo, 1, 4, 0);
        s.touch(0, 2);
        assert_eq!(s.order(0), &[0, 1, 2, 3]);
        s.fill(0, 2);
        assert_eq!(s.order(0), &[2, 0, 1, 3]);
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut s = ReplacementState::new(Policy::Lru, 1, 4, 0);
        s.touch(0, 3);
        s.touch(0, 1);
        // order: 1 3 0 2 → victim 2
        assert_eq!(s.victim(0), 2);
    }

    #[test]
    fn random_victim_covers_all_ways() {
        let mut s = ReplacementState::new(Policy::Random, 1, 4, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.victim(0) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn recency_of_tracks_positions() {
        let mut s = ReplacementState::new(Policy::Lru, 1, 4, 0);
        s.touch(0, 2);
        assert_eq!(s.recency_of(0, 2), 0);
        assert_eq!(s.recency_of(0, 0), 1);
        assert_eq!(s.recency_of(0, 3), 3);
    }

    #[test]
    fn reset_restores_identity() {
        let mut s = ReplacementState::new(Policy::Lru, 2, 4, 0);
        s.touch(0, 3);
        s.touch(1, 2);
        s.reset();
        assert_eq!(s.order(0), &[0, 1, 2, 3]);
        assert_eq!(s.order(1), &[0, 1, 2, 3]);
    }

    #[test]
    fn sets_are_independent() {
        let mut s = ReplacementState::new(Policy::Lru, 2, 2, 0);
        s.touch(0, 1);
        assert_eq!(s.order(0), &[1, 0]);
        assert_eq!(s.order(1), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_assoc_panics() {
        ReplacementState::new(Policy::Lru, 1, 0, 0);
    }

    proptest! {
        #[test]
        fn order_stays_a_permutation(
            ops in proptest::collection::vec((0usize..3, 0u8..8), 0..200)
        ) {
            let mut s = ReplacementState::new(Policy::Lru, 2, 8, 1);
            for (op, way) in ops {
                match op {
                    0 => s.touch(way as usize % 2, way),
                    1 => s.fill(way as usize % 2, way),
                    _ => { s.victim(way as usize % 2); }
                }
                prop_assert!(is_permutation(s.order(0)));
                prop_assert!(is_permutation(s.order(1)));
            }
        }

        /// Touching by a known recency position is touching by way, under
        /// every policy.
        #[test]
        fn touch_at_matches_touch(
            ways in proptest::collection::vec((0usize..2, 0u8..8), 1..200),
            policy_idx in 0usize..3,
        ) {
            let policy = Policy::ALL[policy_idx];
            let mut by_way = ReplacementState::new(policy, 2, 8, 1);
            let mut by_pos = ReplacementState::new(policy, 2, 8, 1);
            for (set, way) in ways {
                by_way.touch(set, way);
                by_pos.touch_at(set, by_pos.recency_of(set, way));
                prop_assert_eq!(by_way.order(set), by_pos.order(set));
                // Interleave fills so FIFO and LRU orders drift apart.
                if way % 3 == 0 {
                    by_way.fill(set, way / 2);
                    by_pos.fill(set, way / 2);
                }
            }
            prop_assert_eq!(&by_way.order, &by_pos.order);
        }

        /// Replacing is choosing a victim and filling it, under every
        /// policy.
        #[test]
        fn replace_matches_victim_then_fill(
            ops in proptest::collection::vec((0usize..2, 0u8..4), 1..200),
            policy_idx in 0usize..3,
        ) {
            let policy = Policy::ALL[policy_idx];
            let mut split = ReplacementState::new(policy, 2, 4, 9);
            let mut fused = ReplacementState::new(policy, 2, 4, 9);
            for (set, way) in ops {
                if way == 0 {
                    let victim = split.victim(set);
                    split.fill(set, victim);
                    prop_assert_eq!(fused.replace(set), victim);
                } else {
                    split.touch(set, way);
                    fused.touch(set, way);
                }
                prop_assert_eq!(split.order(set), fused.order(set));
            }
        }

        #[test]
        fn touched_way_is_mru(ways in proptest::collection::vec(0u8..8, 1..100)) {
            let mut s = ReplacementState::new(Policy::Lru, 1, 8, 1);
            for &w in &ways {
                s.touch(0, w);
                prop_assert_eq!(s.order(0)[0], w);
            }
        }
    }
}
