//! Property tests for the span tracing layer: recording spans must never
//! change what a run computes, and the recorded spans must be structurally
//! sound. For any sweep spec and any worker count, `simulate_many_traced`
//! returns outcomes bit-identical to the sequential reference; every
//! track's spans are well-nested with monotone timestamps; and the shard
//! spans' counter attachments sum exactly to the aggregate run statistics.

use proptest::prelude::*;
use seta::cache::CacheConfig;
use seta::obs::{SpanRecord, SpanTrace};
use seta::sim::runner::{
    simulate, simulate_many_traced_with_threads, simulate_traced, standard_strategies, RunSpec,
};
use seta::sim::RunOutcome;
use seta::trace::gen::{AtumLike, AtumLikeConfig, MultiprogramConfig};

/// A small but structurally complete sweep spec, as in `shard_props`:
/// 1–4 segments, cold or warm, mixed cache shapes.
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

fn fingerprint(outcome: &RunOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

fn sequential(spec: &RunSpec) -> String {
    let strategies = standard_strategies(spec.l2.associativity(), spec.tag_bits);
    fingerprint(&simulate(
        spec.l1,
        spec.l2,
        AtumLike::new(spec.trace.clone(), spec.seed),
        &strategies,
    ))
}

/// Total optimized probes a run charged, summed over every strategy —
/// the quantity the shard spans' `probes` counters must conserve.
fn outcome_probes(out: &RunOutcome) -> u64 {
    out.strategies
        .iter()
        .map(|s| s.probes.hits.probes + s.probes.misses.probes + s.probes.write_backs.probes)
        .sum()
}

/// Asserts every track of `trace` is internally sound: timestamps are
/// monotone in recording order, no span ends before it starts, and any
/// two spans on the same track are either nested or disjoint.
fn assert_tracks_well_formed(trace: &SpanTrace) {
    let mut tracks: Vec<u32> = trace.spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        let spans: Vec<&SpanRecord> = trace.spans.iter().filter(|s| s.track == track).collect();
        let mut last_start = 0u64;
        for s in &spans {
            prop_assert!(
                s.start_us >= last_start,
                "track {}: span {:?} opened before its predecessor",
                track,
                s.name
            );
            last_start = s.start_us;
            let end = s.start_us.checked_add(s.dur_us);
            prop_assert!(
                end.is_some(),
                "track {}: span {:?} overflows",
                track,
                s.name
            );
        }
        // Spans are recorded in open order, so a later span either starts
        // after an earlier one ended (disjoint) or closes no later than it
        // (nested). Anything else is a partial overlap — impossible if the
        // buffer really closed LIFO.
        for (i, a) in spans.iter().enumerate() {
            let a_end = a.start_us + a.dur_us;
            for b in &spans[i + 1..] {
                let b_end = b.start_us + b.dur_us;
                prop_assert!(
                    b.start_us >= a_end || b_end <= a_end,
                    "track {}: spans {:?} and {:?} partially overlap",
                    track,
                    a.name,
                    b.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The traced sweep returns outcomes bit-identical to the sequential
    /// reference at every worker count, and the trace it records is
    /// well-formed with counters that conserve the aggregate statistics.
    #[test]
    fn traced_sweep_is_invisible_and_records_sound_spans(
        specs in proptest::collection::vec(arbitrary_spec(), 1..=2),
    ) {
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let (outcomes, trace) = simulate_many_traced_with_threads(&specs, threads);
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
            assert_tracks_well_formed(&trace);
            // Every reference and probe the sweep performed lands in
            // exactly one shard span's counters.
            let shard_refs: u64 = trace
                .with_cat("shard")
                .filter_map(|s| s.counter("refs"))
                .sum();
            let total_refs: u64 = outcomes.iter().map(|o| o.hierarchy.processor_refs).sum();
            prop_assert_eq!(shard_refs, total_refs, "refs at {} worker(s)", threads);
            let shard_probes: u64 = trace
                .with_cat("shard")
                .filter_map(|s| s.counter("probes"))
                .sum();
            let total_probes: u64 = outcomes.iter().map(outcome_probes).sum();
            prop_assert_eq!(shard_probes, total_probes, "probes at {} worker(s)", threads);
            // Exactly one sweep root, one merge span, and one root per
            // worker that participated.
            prop_assert_eq!(trace.with_cat("sweep").count(), 1);
            prop_assert_eq!(trace.with_cat("merge").count(), 1);
            prop_assert!(trace.with_cat("worker").count() >= 1);
        }
    }

    /// A grouped sweep's shard spans conserve every counter of the
    /// outcomes — each span sums its members — and a cold multi-segment
    /// trace yields exactly one shard per (group, segment).
    #[test]
    fn grouped_sweep_spans_conserve_and_count_groups(specs in grouped_sweep()) {
        // Every spec runs the same trace, so a group is a distinct
        // (L1, seed) pair.
        let mut groups: Vec<(CacheConfig, u64)> = Vec::new();
        for spec in &specs {
            if !groups.contains(&(spec.l1, spec.seed)) {
                groups.push((spec.l1, spec.seed));
            }
        }
        let trace_config = &specs[0].trace;
        let splits = trace_config.flush_between_segments && trace_config.segments > 1;
        let expected: Vec<String> = specs.iter().map(sequential).collect();
        for threads in [1usize, 2, 16] {
            let (outcomes, trace) = simulate_many_traced_with_threads(&specs, threads);
            for (i, out) in outcomes.iter().enumerate() {
                prop_assert_eq!(&fingerprint(out), &expected[i], "spec {}", i);
            }
            assert_tracks_well_formed(&trace);
            let shard_sum = |counter: &str| -> u64 {
                trace
                    .with_cat("shard")
                    .filter_map(|s| s.counter(counter))
                    .sum()
            };
            let total = |f: fn(&RunOutcome) -> u64| -> u64 { outcomes.iter().map(f).sum() };
            prop_assert_eq!(shard_sum("refs"), total(|o| o.hierarchy.processor_refs));
            prop_assert_eq!(shard_sum("read_ins"), total(|o| o.hierarchy.read_ins));
            prop_assert_eq!(shard_sum("read_in_hits"), total(|o| o.hierarchy.read_in_hits));
            prop_assert_eq!(shard_sum("write_backs"), total(|o| o.hierarchy.write_backs));
            prop_assert_eq!(shard_sum("probes"), total(outcome_probes));
            let shards = trace.with_cat("shard").count();
            if splits {
                prop_assert_eq!(shards, groups.len() * trace_config.segments);
            } else {
                prop_assert_eq!(shards, groups.len());
            }
        }
    }

    /// The traced single run agrees with the plain one and its segment
    /// spans conserve the run's counters.
    #[test]
    fn traced_simulate_is_invisible_and_segments_conserve(spec in arbitrary_spec()) {
        let strategies = standard_strategies(spec.l2.associativity(), spec.tag_bits);
        let plain = simulate(
            spec.l1,
            spec.l2,
            AtumLike::new(spec.trace.clone(), spec.seed),
            &strategies,
        );
        let (traced, trace) = simulate_traced(
            spec.l1,
            spec.l2,
            AtumLike::new(spec.trace.clone(), spec.seed),
            &strategies,
        );
        prop_assert_eq!(fingerprint(&traced), fingerprint(&plain));
        assert_tracks_well_formed(&trace);
        let seg_refs: u64 = trace
            .with_cat("segment")
            .filter_map(|s| s.counter("refs"))
            .sum();
        prop_assert_eq!(seg_refs, traced.hierarchy.processor_refs);
        let seg_read_ins: u64 = trace
            .with_cat("segment")
            .filter_map(|s| s.counter("read_ins"))
            .sum();
        prop_assert_eq!(seg_read_ins, traced.hierarchy.read_ins);
    }
}
