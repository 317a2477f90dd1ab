//! One module per table and figure of the paper.
//!
//! Every experiment follows the same shape: a `run` function takes
//! [`ExperimentParams`] (trace scale and seed) and returns a serializable
//! results struct with a `render()` method that prints a paper-style text
//! table. The bench crate regenerates each table/figure by calling these,
//! and `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! | module | reproduces |
//! |---|---|
//! | [`table1`] | Table 1 — analytical expected probes per method |
//! | [`table2`] | Table 2 — trial implementation timings and package counts |
//! | [`fig3`]   | Figure 3 — probes vs associativity, ± write-back optimization |
//! | [`fig4`]   | Figure 4 — read-in hits and misses separately |
//! | [`fig5`]   | Figure 5 — reduced MRU lists and the fᵢ distribution |
//! | [`fig6`]   | Figure 6 — partial compare vs tag width and transform |
//! | [`table4`] | Table 4 — the full configuration grid |
//!
//! Extension studies beyond the paper's published evaluation (each grounded
//! in a specific remark in the text — see the module docs):
//!
//! | module | extends |
//! |---|---|
//! | [`banked`] | §1's unevaluated `b×t`-wide middle ground |
//! | [`hashrehash`] | footnote 2's hash-rehash comparator at 2-way |
//! | [`warmth`] | §3's "warmer results were similar" note |
//! | [`invalidation`] | footnote 1's empty-frame / coherency argument |
//! | [`timing_effective`] | Table 2 timings at measured probe counts |
//! | [`contention`] | the introduction's bus-contention economics |
//! | [`deep`] | the abstract's "level two (or higher)" — a third level |
//! | [`policy`] | §2.1's free-LRU assumption under FIFO/random replacement |

pub mod banked;
pub mod contention;
pub mod deep;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod hashrehash;
pub mod invalidation;
pub mod policy;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod timing_effective;
pub mod warmth;

use serde::{Deserialize, Serialize};
use seta_trace::gen::AtumLikeConfig;

/// Shared knobs for the trace-driven experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentParams {
    /// The workload to generate.
    pub trace: AtumLikeConfig,
    /// Workload seed (experiments are deterministic given this).
    pub seed: u64,
    /// Stored-tag width `t` (the paper's default is 16).
    pub tag_bits: u32,
    /// The L1/L2 geometry Figures 3–6 run on. The paper used 16K-16 over
    /// 256K-32; scaled-down runs should shrink the caches along with the
    /// trace, or the L2 never warms up and scan-position statistics are
    /// dominated by partially-filled sets.
    pub preset: crate::config::HierarchyPreset,
}

impl ExperimentParams {
    /// Full paper scale: 23 segments × 350K references, t = 16, the
    /// 16K-16 / 256K-32 hierarchy.
    pub fn paper() -> Self {
        ExperimentParams {
            trace: AtumLikeConfig::paper_like(),
            seed: 0xCACE,
            tag_bits: 16,
            preset: crate::config::figures_preset(),
        }
    }

    /// Paper structure shrunk by `factor` for fast runs (trace only; shrink
    /// `preset` yourself if the trace no longer warms the full-size L2).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(factor: u64) -> Self {
        ExperimentParams {
            trace: AtumLikeConfig::scaled(factor),
            ..Self::paper()
        }
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Canonical display labels for the four standard strategies, in
/// [`standard_strategies`](crate::runner::standard_strategies) order.
pub const STANDARD_LABELS: [&str; 4] = ["Traditional", "Naive", "MRU", "Partial"];

/// Runs the Figures 3–6 hierarchy (16K-16 L1, 256K-32 L2) at each of the
/// given associativities with the standard strategy set, regenerating the
/// same deterministic trace for every run.
pub(crate) fn sweep_standard(
    params: &ExperimentParams,
    assocs: &[u32],
) -> Vec<crate::runner::RunOutcome> {
    use crate::partition::available_threads;
    use crate::runner::{simulate_many_with_threads, RunSpec};

    let preset = params.preset;
    let specs: Vec<RunSpec> = assocs
        .iter()
        .map(|&a| RunSpec {
            l1: preset.l1().expect("preset geometry is valid"),
            l2: preset.l2(a).expect("preset geometry is valid"),
            trace: params.trace.clone(),
            seed: params.seed,
            tag_bits: params.tag_bits,
        })
        .collect();
    simulate_many_with_threads(&specs, available_threads())
}

/// Small-but-warm parameters for tests: a 4K-16 / 16K-32 hierarchy whose
/// L2 (512 blocks) turns over several times per 30K-reference segment.
#[cfg(test)]
pub(crate) fn tiny_params() -> ExperimentParams {
    let mut p = ExperimentParams::scaled(1);
    p.trace.segments = 2;
    p.trace.refs_per_segment = 30_000;
    // Chosen for the vendored RNG stream: the statistical claims the
    // experiment tests assert (warmth, invalidation utilization, fig6
    // transform quality) hold with comfortable margins at this seed.
    p.seed = 0xCACE_0020;
    p.preset = crate::config::HierarchyPreset::new(4 * 1024, 16, 16 * 1024, 32);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_published_scale() {
        let p = ExperimentParams::paper();
        assert_eq!(p.trace.segments, 23);
        assert_eq!(p.tag_bits, 16);
    }

    #[test]
    fn scaled_params_shrink() {
        assert!(
            ExperimentParams::scaled(10).trace.total_refs()
                < ExperimentParams::paper().trace.total_refs()
        );
    }
}
