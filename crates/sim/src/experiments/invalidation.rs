//! Extension study: coherency invalidations and empty-frame reuse.
//!
//! The paper's footnote 1 argues that associativity pays off under
//! multiprocessor coherency traffic: "a miss to a set-associative cache
//! can fill any empty block frame in the set, whereas a miss to a
//! direct-mapped cache can fill only a single frame. Increasing
//! associativity increases the chance that an invalidated block frame will
//! be quickly used again." The paper cites only "preliminary models"; this
//! study measures it.
//!
//! Methodology: the usual uniprocessor trace drives the hierarchy, while a
//! deterministic invalidation stream (the stand-in for remote processors'
//! exclusive-ownership requests, since the traces are uniprocessor) drops
//! random resident L2 blocks at a configurable rate. We record the L2
//! local miss ratio and the mean fraction of empty L2 frames as
//! associativity grows.

use crate::experiments::ExperimentParams;
use crate::report::{f4, TextTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use seta_cache::TwoLevel;
use seta_trace::gen::AtumLike;
use seta_trace::TraceEvent;

/// Measurements at one associativity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvalidationRow {
    /// L2 associativity.
    pub assoc: u32,
    /// L2 local miss ratio with the invalidation stream applied.
    pub local_miss_ratio: f64,
    /// L2 local miss ratio without invalidations (baseline).
    pub baseline_local_miss_ratio: f64,
    /// Mean fraction of empty L2 frames (sampled every invalidation round).
    pub mean_empty_fraction: f64,
    /// Invalidations that actually dropped a resident L2 block.
    pub invalidations_applied: u64,
}

/// The computed study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InvalidationStudy {
    /// One processor reference in `period` triggers an invalidation round.
    pub period: u64,
    /// Blocks invalidated per round.
    pub burst: usize,
    /// One row per associativity.
    pub rows: Vec<InvalidationRow>,
}

/// Runs the study across the paper's associativity sweep.
pub fn run(params: &ExperimentParams) -> InvalidationStudy {
    run_with(params, &[1, 2, 4, 8, 16], 500, 8)
}

/// Runs the study with explicit associativities, invalidation period and
/// burst size.
///
/// # Panics
///
/// Panics if `period` is zero.
pub fn run_with(
    params: &ExperimentParams,
    assocs: &[u32],
    period: u64,
    burst: usize,
) -> InvalidationStudy {
    assert!(period > 0, "invalidation period must be positive");
    let preset = params.preset;
    let rows = assocs
        .iter()
        .map(|&assoc| {
            let l1 = preset.l1().expect("preset geometry is valid");
            let l2 = preset.l2(assoc).expect("preset geometry is valid");

            // Baseline: no invalidations.
            let mut base = TwoLevel::new(l1, l2).expect("compatible levels");
            base.run(AtumLike::new(params.trace.clone(), params.seed), &mut ());
            let baseline = base.stats().local_miss_ratio();

            // With the invalidation stream.
            let mut h = TwoLevel::new(l1, l2).expect("compatible levels");
            let mut rng = StdRng::seed_from_u64(params.seed ^ 0xD15C_0DE5);
            let mut refs = 0u64;
            let mut applied = 0u64;
            let mut empty_samples = 0.0f64;
            let mut samples = 0u64;
            let total_frames = l2.num_frames() as f64;
            let mut resident = Vec::new();
            for event in AtumLike::new(params.trace.clone(), params.seed) {
                if let TraceEvent::Ref(_) = event {
                    refs += 1;
                    if refs % period == 0 {
                        // Invalidate `burst` random resident blocks: a remote
                        // processor takes ownership of lines we share.
                        resident.clear();
                        resident.extend(h.l2().resident_addrs());
                        if !resident.is_empty() {
                            for _ in 0..burst {
                                let victim = resident[rng.gen_range(0..resident.len())];
                                if h.invalidate_block(victim).1 {
                                    applied += 1;
                                }
                            }
                        }
                        empty_samples += h.l2().empty_frames() as f64 / total_frames;
                        samples += 1;
                    }
                }
                h.process(&event, &mut ());
            }
            InvalidationRow {
                assoc,
                local_miss_ratio: h.stats().local_miss_ratio(),
                baseline_local_miss_ratio: baseline,
                mean_empty_fraction: if samples == 0 {
                    0.0
                } else {
                    empty_samples / samples as f64
                },
                invalidations_applied: applied,
            }
        })
        .collect();
    InvalidationStudy {
        period,
        burst,
        rows,
    }
}

impl InvalidationStudy {
    /// The row for an associativity.
    pub fn row(&self, assoc: u32) -> Option<&InvalidationRow> {
        self.rows.iter().find(|r| r.assoc == assoc)
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            ["Assoc", "Local miss", "Baseline", "Penalty", "Empty frac"]
                .map(String::from)
                .to_vec(),
        );
        for r in &self.rows {
            t.row(vec![
                r.assoc.to_string(),
                f4(r.local_miss_ratio),
                f4(r.baseline_local_miss_ratio),
                f4(r.local_miss_ratio - r.baseline_local_miss_ratio),
                f4(r.mean_empty_fraction),
            ]);
        }
        format!(
            "Coherency invalidations ({} blocks every {} refs; footnote 1 study)\n{}",
            self.burst,
            self.period,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    fn study() -> InvalidationStudy {
        run_with(&tiny_params(), &[1, 4, 8], 250, 8)
    }

    #[test]
    fn invalidations_raise_the_miss_ratio() {
        let s = study();
        for r in &s.rows {
            assert!(
                r.local_miss_ratio > r.baseline_local_miss_ratio,
                "a={}: {} vs baseline {}",
                r.assoc,
                r.local_miss_ratio,
                r.baseline_local_miss_ratio
            );
            assert!(r.invalidations_applied > 0, "a={}", r.assoc);
        }
    }

    #[test]
    fn wider_associativity_reuses_empty_frames_better() {
        // Footnote 1: more associativity → invalidated frames are refilled
        // sooner → fewer empty frames on average.
        let s = study();
        let direct = s.row(1).expect("a=1").mean_empty_fraction;
        let wide = s.row(8).expect("a=8").mean_empty_fraction;
        assert!(
            wide < direct,
            "empty fraction at a=8 ({wide}) should be below direct-mapped ({direct})"
        );
    }

    #[test]
    fn empty_fraction_shrinks_monotonically() {
        // Footnote 1 is a *utilization* claim: each step up in
        // associativity leaves fewer frames sitting empty. (The raw miss
        // penalty of an invalidation is roughly associativity-independent
        // — a dropped block costs one extra miss when re-referenced no
        // matter the geometry — so it is not asserted.)
        let s = study();
        let fracs: Vec<f64> = s.rows.iter().map(|r| r.mean_empty_fraction).collect();
        for w in fracs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "not monotone: {fracs:?}");
        }
    }

    #[test]
    fn render_reports_penalty_column() {
        let s = study().render();
        assert!(s.contains("Penalty"), "{s}");
        assert!(s.contains("Empty frac"), "{s}");
    }
}
