//! Property tests for the sharded sweep runner: splitting a cold-start
//! trace into per-segment shards and merging the counters is invisible.
//! For any sweep spec, `simulate_many_with_threads` — at any worker count, including
//! the sequential fallback — returns `RunOutcome`s bit-identical to a
//! plain per-spec `simulate` over the whole trace — including sweeps whose
//! specs share a trace, seed and L1 and so run as one group.

use proptest::prelude::*;
use seta::cache::CacheConfig;
use seta::sim::partition::available_threads;
use seta::sim::runner::{simulate, simulate_many_with_threads, standard_strategies, RunSpec};
use seta::trace::gen::{AtumLike, AtumLikeConfig, MultiprogramConfig};

/// A small but structurally complete sweep spec: 1–4 segments, cold or
/// warm, mixed cache shapes. Short quanta so even tiny segments context
/// switch and touch the OS stream.
fn arbitrary_spec() -> impl Strategy<Value = RunSpec> {
    (
        (1usize..=4, 100u64..400),
        (any::<bool>(), any::<u64>(), 0usize..3),
    )
        .prop_map(|((segments, refs_per_segment), (cold, seed, shape))| {
            let multiprogram = MultiprogramConfig {
                mean_quantum: 50,
                os_burst: 8,
                ..MultiprogramConfig::default()
            };
            let (l1, l2) = match shape {
                0 => (
                    CacheConfig::direct_mapped(256, 16).expect("valid L1"),
                    CacheConfig::new(2048, 32, 4).expect("valid L2"),
                ),
                1 => (
                    CacheConfig::direct_mapped(512, 32).expect("valid L1"),
                    CacheConfig::new(4096, 32, 8).expect("valid L2"),
                ),
                _ => (
                    CacheConfig::new(512, 16, 2).expect("valid L1"),
                    CacheConfig::new(2048, 16, 4).expect("valid L2"),
                ),
            };
            RunSpec {
                l1,
                l2,
                trace: AtumLikeConfig {
                    segments,
                    refs_per_segment,
                    flush_between_segments: cold,
                    multiprogram,
                },
                seed,
                tag_bits: 14,
            }
        })
}

/// A sweep built to form groups (specs sharing trace, seed and L1): every
/// spec runs one trace, cold or warm; about one in four takes another seed;
/// the L1 is one of three (one of them 2-way); and the L2 geometry (size,
/// block size, associativity) and tag width vary freely within a group.
fn grouped_sweep() -> impl Strategy<Value = Vec<RunSpec>> {
    (
        (1usize..=4, 100u64..300, any::<bool>(), any::<u64>()),
        proptest::collection::vec((0usize..3, 0usize..5, 0usize..3, 0usize..4), 2..=7),
    )
        .prop_map(|((segments, refs_per_segment, cold, seed), members)| {
            let trace = AtumLikeConfig {
                segments,
                refs_per_segment,
                flush_between_segments: cold,
                multiprogram: MultiprogramConfig {
                    mean_quantum: 50,
                    os_burst: 8,
                    ..MultiprogramConfig::default()
                },
            };
            members
                .into_iter()
                .map(|(l1, l2, tag, reseed)| RunSpec {
                    l1: match l1 {
                        0 => CacheConfig::direct_mapped(256, 16),
                        1 => CacheConfig::new(512, 16, 2),
                        _ => CacheConfig::direct_mapped(512, 16),
                    }
                    .expect("valid L1"),
                    l2: match l2 {
                        0 => CacheConfig::new(2048, 32, 4),
                        1 => CacheConfig::new(4096, 32, 8),
                        2 => CacheConfig::new(2048, 16, 4),
                        3 => CacheConfig::new(1024, 16, 2),
                        _ => CacheConfig::new(4096, 64, 16),
                    }
                    .expect("valid L2"),
                    trace: trace.clone(),
                    seed: if reseed == 0 { seed ^ 1 } else { seed },
                    tag_bits: [12, 14, 16][tag],
                })
                .collect()
        })
}

/// Bit-identity via serialization, as in `explain_props`: two outcomes
/// are the same iff every field (including f64 ratios) agrees exactly.
fn fingerprint(outcome: &seta::sim::RunOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

/// The unsharded reference: one sequential pass over the whole trace.
fn sequential(spec: &RunSpec) -> String {
    let strategies = standard_strategies(spec.l2.associativity(), spec.tag_bits);
    fingerprint(&simulate(
        spec.l1,
        spec.l2,
        AtumLike::new(spec.trace.clone(), spec.seed),
        &strategies,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded work queue returns outcomes bit-identical to the
    /// sequential reference, in spec order, at every worker count —
    /// sequential fallback (1), fewer workers than shards, and more
    /// workers than shards.
    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential(
        specs in proptest::collection::vec(arbitrary_spec(), 1..=3),
    ) {
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let outcomes = simulate_many_with_threads(&specs, threads);
            prop_assert_eq!(outcomes.len(), specs.len());
            for (i, out) in outcomes.iter().enumerate() {
                prop_assert_eq!(
                    &fingerprint(out),
                    &expected[i],
                    "spec {} diverged at {} worker(s)",
                    i,
                    threads
                );
            }
        }
    }

    /// The default worker count (the machine's available parallelism)
    /// agrees too.
    #[test]
    fn default_worker_pool_agrees_with_sequential(spec in arbitrary_spec()) {
        let expected = sequential(&spec);
        let outcomes = simulate_many_with_threads(std::slice::from_ref(&spec), available_threads());
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(&fingerprint(&outcomes[0]), &expected);
    }

    /// Grouped sweeps — specs sharing one trace pass and one L1 but not
    /// their L2 or tag width, next to specs with another seed or another
    /// L1 — are bit-identical to the sequential reference at every worker
    /// count.
    #[test]
    fn grouped_sweep_is_bit_identical_to_sequential(specs in grouped_sweep()) {
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let outcomes = simulate_many_with_threads(&specs, threads);
            prop_assert_eq!(outcomes.len(), specs.len());
            for (i, out) in outcomes.iter().enumerate() {
                prop_assert_eq!(
                    &fingerprint(out),
                    &expected[i],
                    "spec {} diverged at {} worker(s)",
                    i,
                    threads
                );
            }
        }
    }
}
