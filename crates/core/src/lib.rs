//! Inexpensive implementations of set-associativity.
//!
//! This crate is the primary contribution of the reproduction of
//! *Kessler, Jooss, Lebeck and Hill, "Inexpensive Implementations of
//! Set-Associativity" (ISCA 1989)*: the four ways of implementing an
//! a-way set-associative cache lookup, priced in **probes** (tag-memory
//! read-and-compare operations):
//!
//! | strategy | hardware | hit cost | miss cost |
//! |---|---|---|---|
//! | [`Traditional`](lookup::Traditional) | `a×t`-wide tag RAM, `a` comparators | 1 | 1 |
//! | [`Naive`](lookup::Naive) | `t`-wide tag RAM, 1 comparator | `(a−1)/2 + 1` | `a` |
//! | [`Mru`](lookup::Mru) | same + per-set MRU list | `1 + Σ i·fᵢ` | `a + 1` |
//! | [`PartialCompare`](lookup::PartialCompare) | same, sliced comparator | `≈ 2 + (a−1)/2^(k+1)` | `≈ 1 + a/2^k` |
//!
//! The crate is self-contained (no dependency on the cache simulator): a
//! lookup strategy prices a search of one cache set given a [`SetView`] —
//! the set's stored tags, valid bits, and MRU order — and the incoming
//! tag. Driving strategies against live caches is `seta-sim`'s job.
//!
//! Submodules:
//!
//! * [`lookup`] — the four strategies behind the [`LookupStrategy`] trait.
//! * [`observe`] — the zero-cost [`ProbeObserver`] hook exposing the
//!   micro-events behind each lookup's probe count.
//! * [`transform`] — GF(2)-linear tag transformations that randomize the
//!   high tag bits so partial compares behave (§2.2 and Figure 6).
//! * [`packed`] — packed-lane tag storage and the SWAR evaluation of the
//!   partial-compare step one (all slots of a subset in one XOR).
//! * [`model`] — the closed-form expected-probe formulas of Table 1.
//! * [`timing`] — the access/cycle-time and package-count cost model of
//!   Table 2.
//! * [`probe`] — probe accounting used by trace-driven runs.
//! * [`dist`] — MRU-distance (`fᵢ`) histograms for Figure 5.
//! * [`contention`] — the shared-bus queueing model behind the paper's
//!   multiprocessor motivation.
//!
//! # Example
//!
//! Price one lookup under two implementations:
//!
//! ```
//! use seta_core::lookup::{LookupStrategy, Naive, Traditional};
//! use seta_core::SetView;
//!
//! // A 4-way set holding tags 7, 9, 3, 5; MRU order [2, 0, 3, 1].
//! let view = SetView::from_parts(&[7, 9, 3, 5], &[true; 4], &[2, 0, 3, 1]);
//! let hit = Traditional.lookup(&view, 3);
//! assert_eq!((hit.hit_way, hit.probes), (Some(2), 1));
//! let hit = Naive.lookup(&view, 3);
//! assert_eq!((hit.hit_way, hit.probes), (Some(2), 3)); // scanned ways 0,1,2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contention;
pub mod dist;
pub mod lookup;
pub mod model;
pub mod observe;
pub mod packed;
pub mod probe;
pub mod set_view;
pub mod timing;
pub mod transform;

pub use dist::MruDistanceHistogram;
pub use lookup::{Lookup, LookupStrategy, PricedSet, StrategyKind};
pub use observe::ProbeObserver;
pub use packed::{LaneSpec, LaneView, PackedLanes};
pub use probe::{ProbeStats, Tally};
pub use set_view::{SetView, MAX_ASSOC};

#[cfg(test)]
mod concurrency_audit {
    //! Send/Sync audit of every type a concurrent cache shares across
    //! threads. Lookup strategies and their state are immutable values —
    //! stored tags live in the cache, not the strategy — so all of them
    //! must be freely shareable. A compile failure here means someone
    //! added interior mutability (or a raw pointer) to strategy state,
    //! which would silently forbid `seta-serve`'s striped sharing.

    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn strategy_state_is_send_and_sync() {
        assert_send_sync::<StrategyKind>();
        assert_send_sync::<lookup::Traditional>();
        assert_send_sync::<lookup::Naive>();
        assert_send_sync::<lookup::Mru>();
        assert_send_sync::<lookup::PartialCompare>();
        assert_send_sync::<lookup::Banked>();
        assert_send_sync::<lookup::ScanOrder>();
        assert_send_sync::<lookup::TransformKind>();
    }

    #[test]
    fn lookup_inputs_and_outputs_are_send_and_sync() {
        assert_send_sync::<SetView>();
        assert_send_sync::<PricedSet<'static>>();
        assert_send_sync::<Lookup>();
        assert_send_sync::<LaneSpec>();
        assert_send_sync::<PackedLanes>();
        assert_send_sync::<LaneView<'static>>();
        assert_send_sync::<ProbeStats>();
        assert_send_sync::<Tally>();
        assert_send_sync::<MruDistanceHistogram>();
    }
}
