//! Probe-level observation of lookups.
//!
//! A [`ProbeObserver`] receives the micro-events behind one lookup's probe
//! count: which ways a serial scan touched, when the MRU list was read,
//! which subsets a partial compare probed, and which stored tags passed a
//! partial compare (and whether the full compare then matched). The
//! aggregate probe count in [`Lookup`](crate::lookup::Lookup) says *how
//! much* a search cost; the observer events say *why*.
//!
//! Every method defaults to a no-op and the unit type `()` implements the
//! trait, so the un-instrumented path — `LookupStrategy::lookup`, which drives
//! the same search code with `&mut ()` — monomorphizes the hooks away
//! entirely. Instrumented callers go through
//! [`LookupStrategy::lookup_observed`](crate::lookup::LookupStrategy::lookup_observed),
//! which takes `&mut dyn ProbeObserver` so it stays object-safe for the
//! `Box<dyn LookupStrategy>` collections the simulator uses.
//!
//! # Example
//!
//! Count the ways a naive scan examines:
//!
//! ```
//! use seta_core::lookup::{LookupStrategy, Naive};
//! use seta_core::{ProbeObserver, SetView};
//!
//! #[derive(Default)]
//! struct Touched(Vec<u8>);
//! impl ProbeObserver for Touched {
//!     fn tag_probe(&mut self, way: u8) {
//!         self.0.push(way);
//!     }
//! }
//!
//! let view = SetView::from_parts(&[5, 6, 7, 8], &[true; 4], &[0, 1, 2, 3]);
//! let mut touched = Touched::default();
//! let r = Naive.lookup_observed(&view, 7, &mut touched);
//! assert_eq!(r.probes, 3);
//! assert_eq!(touched.0, vec![0, 1, 2]);
//! ```

/// Receives the micro-events of one lookup.
///
/// Every method is a no-op by default; implement only the events a given
/// analysis needs. The events map to probes as follows:
///
/// * [`tag_probe`](Self::tag_probe) — one probe (a serial single-tag
///   read-and-compare, as in the naive and MRU scans);
/// * [`group_probe`](Self::group_probe) — one probe reading several ways
///   at once (the whole set for traditional, one bank group for banked);
/// * [`mru_list_read`](Self::mru_list_read) — one probe (the per-set MRU
///   list);
/// * [`partial_probe`](Self::partial_probe) — one probe (a subset's
///   concurrent step-one partial compare);
/// * [`partial_candidate`](Self::partial_candidate) — one probe (the
///   serial step-two full compare of a tag that passed step one). A
///   candidate with `matched == false` is a *false match*: a probe the
///   partial compare failed to filter out.
pub trait ProbeObserver {
    /// A serial read-and-compare of the single stored tag at `way`.
    fn tag_probe(&mut self, _way: u8) {}

    /// A wide read-and-compare of `ways` stored tags in one probe
    /// (`group` is the 0-based visit order of the group).
    fn group_probe(&mut self, _group: u32, _ways: u8) {}

    /// The extra probe that reads the per-set MRU list.
    fn mru_list_read(&mut self) {}

    /// A step-one concurrent partial compare over subset `subset`.
    fn partial_probe(&mut self, _subset: u32) {}

    /// A stored tag at `way` passed the partial compare and was
    /// full-compared; `matched` is the full compare's outcome.
    fn partial_candidate(&mut self, _way: u8, _matched: bool) {}
}

/// The do-nothing observer, for un-instrumented lookups.
impl ProbeObserver for () {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_observer_accepts_every_event() {
        let mut obs = ();
        obs.tag_probe(0);
        obs.group_probe(0, 4);
        obs.mru_list_read();
        obs.partial_probe(1);
        obs.partial_candidate(2, true);
    }

    #[test]
    fn default_methods_are_no_ops() {
        struct OnlyTags(u32);
        impl ProbeObserver for OnlyTags {
            fn tag_probe(&mut self, _way: u8) {
                self.0 += 1;
            }
        }
        let mut o = OnlyTags(0);
        o.tag_probe(1);
        o.mru_list_read(); // defaulted, must not disturb state
        assert_eq!(o.0, 1);
    }
}
