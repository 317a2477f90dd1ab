//! The simulation loop: one trace pass scores every lookup strategy.

use serde::{Deserialize, Serialize};
use seta_cache::{
    CacheConfig, CacheStats, L1Half, L2Half, L2Observer, L2RequestKind, L2RequestView, TwoLevel,
    TwoLevelStats,
};
use seta_core::lookup::{
    Lookup, LookupStrategy, Mru, Naive, PartialCompare, StrategyKind, Traditional, TransformKind,
};
use seta_core::packed::LaneSpec;
use seta_core::{model, MruDistanceHistogram, ProbeStats, MAX_ASSOC};
use seta_obs::{labeled, ServeHandle, ServeHeartbeat, SpanBuffer, SpanClock, SpanId, SpanTrace};
use seta_trace::TraceEvent;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Probe results for one strategy over one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyResult {
    /// The strategy's [`name`](LookupStrategy::name).
    pub name: String,
    /// Probe statistics with the write-back optimization: write-backs cost
    /// zero probes (the paper's default for all figures and Table 4).
    pub probes: ProbeStats,
    /// Probe statistics without the optimization: write-backs are priced as
    /// real lookups (Figure 3's upper curves).
    pub probes_no_opt: ProbeStats,
}

/// Everything measured by one simulation pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Label of the L1 configuration.
    pub l1_label: String,
    /// Label of the L2 configuration.
    pub l2_label: String,
    /// L2 associativity.
    pub assoc: u32,
    /// Hierarchy counters (miss ratios, request mix, hint accuracy).
    pub hierarchy: TwoLevelStats,
    /// L1 access statistics.
    pub l1_stats: CacheStats,
    /// L2 access statistics.
    pub l2_stats: CacheStats,
    /// Per-strategy probe statistics.
    pub strategies: Vec<StrategyResult>,
    /// MRU-distance histogram of read-in hits (Figure 5's `fᵢ`).
    pub mru_hist: MruDistanceHistogram,
    /// Fraction of L2 requests that change the per-set MRU list — the `u`
    /// in Table 2's MRU cycle-time formula `250 + 50(x+u)`.
    pub mru_update_fraction: f64,
}

impl RunOutcome {
    /// The result for a strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&StrategyResult> {
        self.strategies.iter().find(|s| s.name == name)
    }
}

/// Scores every strategy against each L2 request's pre-access set state.
pub(crate) struct Scorer<'a> {
    strategies: &'a [Box<dyn LookupStrategy>],
    /// Each strategy's closed-enum form, resolved once: built-ins are
    /// priced by [`StrategyKind::price`], and `None` (a strategy defined
    /// outside `seta-core`) runs its own serial lookup.
    kinds: Vec<Option<StrategyKind>>,
    pub(crate) results: Vec<(ProbeStats, ProbeStats)>,
    pub(crate) mru_hist: MruDistanceHistogram,
    /// Requests that change the MRU list (hits away from the MRU position,
    /// plus every miss) — Table 2's update probability `u`.
    pub(crate) mru_updates: u64,
    pub(crate) requests: u64,
}

impl<'a> Scorer<'a> {
    pub(crate) fn new(strategies: &'a [Box<dyn LookupStrategy>], assoc: u32) -> Self {
        assert!(
            assoc as usize <= MAX_ASSOC,
            "lookups price sets of at most {MAX_ASSOC} ways, not {assoc}"
        );
        Scorer {
            strategies,
            kinds: strategies.iter().map(|s| s.kind()).collect(),
            results: vec![(ProbeStats::new(), ProbeStats::new()); strategies.len()],
            mru_hist: MruDistanceHistogram::new(assoc as usize),
            mru_updates: 0,
            requests: 0,
        }
    }

    /// Scores one request, with `probes(i, kind, strategy)` giving strategy
    /// `i`'s probe count.
    ///
    /// The plain path prices each strategy (see
    /// [`on_l2_request`](L2Observer::on_l2_request)); the explain pass
    /// (see [`crate::explain`]) runs `lookup_observed` with its event
    /// recorders, so instrumentation records exactly the books the
    /// statistics keep.
    pub(crate) fn score_with<F>(&mut self, req: &L2RequestView<'_>, mut probes: F)
    where
        F: FnMut(usize, Option<StrategyKind>, &dyn LookupStrategy) -> u32,
    {
        if req.kind == L2RequestKind::ReadIn && req.hit {
            self.mru_hist
                .record(req.mru_distance.expect("hits have an MRU distance"));
        }
        self.requests += 1;
        if req.mru_distance != Some(0) {
            // A hit away from the front, or any miss, reorders the list;
            // write-backs count too ("they update the MRU list").
            self.mru_updates += 1;
        }

        let books = self
            .strategies
            .iter()
            .zip(&self.kinds)
            .zip(&mut self.results);
        for (i, ((strategy, &kind), (opt, no_opt))) in books.enumerate() {
            let probes = probes(i, kind, strategy.as_ref());
            match req.kind {
                L2RequestKind::ReadIn => {
                    if req.hit {
                        opt.record_hit(probes);
                        no_opt.record_hit(probes);
                    } else {
                        opt.record_miss(probes);
                        no_opt.record_miss(probes);
                    }
                }
                L2RequestKind::WriteBack => {
                    // With the optimization the L1's position hint lets the
                    // write-back proceed with no tag probes at all.
                    opt.record_write_back(0);
                    no_opt.record_write_back(probes);
                }
            }
        }
    }
}

impl L2Observer for Scorer<'_> {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        // The request already knows where the block sits, so built-in
        // strategies price from that without searching the set. A
        // `SetView` is built only if a strategy outside `seta-core` needs
        // one to search.
        let set = req.priced();
        let mut view = None;
        self.score_with(req, |_, kind, strategy| match kind {
            Some(k) => {
                let probes = k.price(&set);
                // Debug builds check the price and the cache's hit way
                // against the serial search, the pricer's oracle.
                debug_assert_eq!(
                    k.lookup_observed(view.get_or_insert_with(|| set.view()), req.tag, &mut ()),
                    Lookup {
                        hit_way: req.hit_way,
                        probes
                    },
                    "{} priced {:?} unlike its serial search",
                    k.name(),
                    req.addr
                );
                probes
            }
            None => {
                let view = view.get_or_insert_with(|| set.view());
                strategy.lookup(view, req.tag).probes
            }
        });
    }
}

/// The packed-lane geometry the hierarchy should maintain for
/// `strategies`: the first partial-compare strategy whose spec is
/// realizable at associativity `assoc`. Feeding this to
/// [`TwoLevel::enable_partial_lanes`] lets the partial-compare pricer read
/// precomputed lane words instead of packing the set on every request.
pub(crate) fn partial_lane_spec(
    strategies: &[Box<dyn LookupStrategy>],
    assoc: u32,
) -> Option<LaneSpec> {
    strategies.iter().find_map(|s| match s.kind() {
        Some(StrategyKind::Partial(p)) => p.lane_spec(assoc as usize),
        _ => None,
    })
}

/// Runs one simulation: drives `events` through a fresh two-level
/// hierarchy and prices every L2 request under each strategy.
///
/// Cache *contents* are strategy-independent, so the single pass yields
/// exact probe statistics for all strategies simultaneously — the same
/// methodology as the paper's trace-driven study.
///
/// # Panics
///
/// Panics if `l2` has more than [`MAX_ASSOC`] ways: the lookups are
/// defined over sets of at most that many.
pub fn simulate<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[Box<dyn LookupStrategy>],
) -> RunOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    simulate_with_l2_policy(l1, l2, seta_cache::Policy::Lru, 0, events, strategies)
}

/// [`simulate`] with an explicit L2 replacement policy — the ablation knob
/// for the paper's assumption that true-LRU replacement provides the MRU
/// lookup's search order for free. Under FIFO the recency list is fill
/// order; under random replacement it never changes, and the MRU scheme
/// degrades to a fixed-order scan.
pub fn simulate_with_l2_policy<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    l2_policy: seta_cache::Policy,
    policy_seed: u64,
    events: I,
    strategies: &[Box<dyn LookupStrategy>],
) -> RunOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut hierarchy = TwoLevel::with_l2_policy(l1, l2, l2_policy, policy_seed)
        .expect("L1 blocks must fit in L2 blocks");
    if let Some(spec) = partial_lane_spec(strategies, l2.associativity()) {
        hierarchy.enable_partial_lanes(spec);
    }
    let mut scorer = Scorer::new(strategies, l2.associativity());
    hierarchy.run(events, &mut scorer);
    assemble_outcome(&hierarchy, scorer, strategies)
}

/// Totals already attributed to earlier segments of a traced run, so each
/// segment span carries only its own deltas and the per-segment counters
/// sum exactly to the run's aggregate statistics.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentMark {
    refs: u64,
    read_ins: u64,
    read_in_hits: u64,
    write_backs: u64,
    probes: u64,
}

impl SegmentMark {
    /// Closes `span` with this segment's counter deltas and advances the
    /// mark to the current totals.
    fn close_segment(
        &mut self,
        buf: &mut SpanBuffer,
        span: SpanId,
        stats: &TwoLevelStats,
        results: &[(ProbeStats, ProbeStats)],
    ) {
        let probes = shard_probe_total(results);
        buf.counter(span, "refs", stats.processor_refs - self.refs);
        buf.counter(span, "read_ins", stats.read_ins - self.read_ins);
        buf.counter(span, "read_in_hits", stats.read_in_hits - self.read_in_hits);
        buf.counter(span, "write_backs", stats.write_backs - self.write_backs);
        buf.counter(span, "probes", probes - self.probes);
        buf.close(span);
        *self = SegmentMark {
            refs: stats.processor_refs,
            read_ins: stats.read_ins,
            read_in_hits: stats.read_in_hits,
            write_backs: stats.write_backs,
            probes,
        };
    }
}

/// [`simulate`] with span tracing: the identical event loop (the same
/// [`TwoLevel::process`] calls the plain path makes), plus a [`SpanTrace`]
/// with one span per flush-delimited trace segment. Each segment span
/// carries that segment's reference, read-in, write-back and probe deltas,
/// so counter sums over the trace equal the outcome's aggregate statistics
/// exactly. The per-access hot path pays nothing — the clock is read twice
/// per *segment*, not per reference.
pub fn simulate_traced<I>(
    l1: CacheConfig,
    l2: CacheConfig,
    events: I,
    strategies: &[Box<dyn LookupStrategy>],
) -> (RunOutcome, SpanTrace)
where
    I: IntoIterator<Item = TraceEvent>,
{
    let mut hierarchy = TwoLevel::new(l1, l2).expect("L1 blocks must fit in L2 blocks");
    if let Some(spec) = partial_lane_spec(strategies, l2.associativity()) {
        hierarchy.enable_partial_lanes(spec);
    }
    let mut scorer = Scorer::new(strategies, l2.associativity());
    let mut buf = SpanBuffer::new(0, SpanClock::new());
    let root = buf.open("simulate", "run");
    let mut segment = 0u64;
    let mut seg_span = buf.open("segment-0", "segment");
    let mut mark = SegmentMark::default();
    for event in events {
        let is_flush = matches!(event, TraceEvent::Flush);
        hierarchy.process(&event, &mut scorer);
        if is_flush {
            mark.close_segment(&mut buf, seg_span, hierarchy.stats(), &scorer.results);
            segment += 1;
            seg_span = buf.open(format!("segment-{segment}"), "segment");
        }
    }
    mark.close_segment(&mut buf, seg_span, hierarchy.stats(), &scorer.results);
    buf.close(root);
    let mut trace = SpanTrace::new();
    trace.name_track(0, "main");
    trace.absorb(buf);
    (assemble_outcome(&hierarchy, scorer, strategies), trace)
}

/// Builds the [`RunOutcome`] from a finished hierarchy and scorer (shared
/// by the plain and instrumented simulation paths).
pub(crate) fn assemble_outcome(
    hierarchy: &TwoLevel,
    scorer: Scorer<'_>,
    strategies: &[Box<dyn LookupStrategy>],
) -> RunOutcome {
    let (l1_stats, l2_stats) = hierarchy.level_stats();
    let mru_update_fraction = if scorer.requests == 0 {
        0.0
    } else {
        scorer.mru_updates as f64 / scorer.requests as f64
    };
    RunOutcome {
        l1_label: hierarchy.l1().config().label(),
        l2_label: hierarchy.l2().config().label(),
        assoc: hierarchy.l2().config().associativity(),
        hierarchy: *hierarchy.stats(),
        l1_stats,
        l2_stats,
        strategies: strategies
            .iter()
            .zip(scorer.results)
            .map(|(s, (probes, probes_no_opt))| StrategyResult {
                name: s.name(),
                probes,
                probes_no_opt,
            })
            .collect(),
        mru_hist: scorer.mru_hist,
        mru_update_fraction,
    }
}

/// One run of a parameter sweep: a hierarchy plus the workload to drive
/// it and the tag width for the standard strategy set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// L1 configuration.
    pub l1: CacheConfig,
    /// L2 configuration.
    pub l2: CacheConfig,
    /// Workload configuration.
    pub trace: seta_trace::gen::AtumLikeConfig,
    /// Workload seed.
    pub seed: u64,
    /// Stored-tag width for the standard strategies.
    pub tag_bits: u32,
}

impl RunSpec {
    /// Whether this spec's trace decomposes into independent per-segment
    /// shards: every segment starts from a cold (flushed) hierarchy, so
    /// simulating segments separately and summing the counters is
    /// bit-identical to one sequential pass.
    fn splits_by_segment(&self) -> bool {
        self.trace.flush_between_segments && self.trace.segments > 1
    }

    /// Whether `other` sees the same L1 miss stream: the same trace, seed
    /// and L1. Such specs differ only below the L1 (L2 geometry, tag
    /// width), and the hierarchy does not enforce inclusion, so one trace
    /// pass through one L1 can feed every one of their L2s.
    fn shares_l1_stream(&self, other: &RunSpec) -> bool {
        self.l1 == other.l1 && self.seed == other.seed && self.trace == other.trace
    }
}

/// One work item of a sharded sweep: a contiguous segment range of one
/// group of specs that share their L1 miss stream.
pub(crate) struct Shard {
    /// Indices of the group's specs, ascending.
    members: Vec<usize>,
    seg_start: usize,
    seg_end: usize,
}

impl Shard {
    /// Simulates segments `seg_start..seg_end` for every member: generates
    /// the segments once, runs them through one L1, and hands every L1 miss
    /// to each member's L2 and scorer in turn. Returns the members'
    /// mergeable counters, in member order.
    fn run(&self, specs: &[RunSpec]) -> Vec<ShardOutcome> {
        let lead = &specs[self.members[0]];
        let strategies: Vec<_> = self
            .members
            .iter()
            .map(|&i| standard_strategies(specs[i].l2.associativity(), specs[i].tag_bits))
            .collect();
        let mut l1 = L1Half::new(lead.l1);
        let mut l2s: Vec<(L2Half, Scorer<'_>)> = self
            .members
            .iter()
            .zip(&strategies)
            .map(|(&i, strategies)| {
                let spec = &specs[i];
                let assoc = spec.l2.associativity();
                let mut l2 = L2Half::new(&spec.l1, spec.l2, seta_cache::Policy::Lru, 0)
                    .expect("L1 blocks must fit in L2 blocks");
                if let Some(lanes) = partial_lane_spec(strategies, assoc) {
                    l2.enable_partial_lanes(lanes);
                }
                (l2, Scorer::new(strategies, assoc))
            })
            .collect();
        let events = seta_trace::gen::AtumLike::segment_range(
            lead.trace.clone(),
            lead.seed,
            self.seg_start,
            self.seg_end,
        );
        for event in events {
            match event {
                TraceEvent::Ref(r) => {
                    if let Some(miss) = l1.access(&r) {
                        for (l2, scorer) in &mut l2s {
                            l2.serve(&miss, scorer);
                        }
                    }
                }
                TraceEvent::Flush => {
                    l1.flush();
                    for (l2, _) in &mut l2s {
                        l2.flush();
                    }
                }
            }
        }
        l2s.into_iter()
            .map(|(l2, scorer)| ShardOutcome {
                hierarchy: l2.stats(&l1),
                l1_stats: *l1.cache().stats(),
                l2_stats: *l2.cache().stats(),
                results: scorer.results,
                mru_hist: scorer.mru_hist,
                mru_updates: scorer.mru_updates,
                requests: scorer.requests,
            })
            .collect()
    }
}

/// The mergeable counters one shard produces for one member spec.
/// Everything in a [`RunOutcome`] except the labels is a sum (or a ratio
/// of sums) of these.
pub(crate) struct ShardOutcome {
    hierarchy: TwoLevelStats,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
    results: Vec<(ProbeStats, ProbeStats)>,
    mru_hist: MruDistanceHistogram,
    mru_updates: u64,
    requests: u64,
}

impl ShardOutcome {
    /// Folds `other` (a later segment range of the same spec) into `self`.
    fn merge(&mut self, other: ShardOutcome) {
        self.hierarchy += other.hierarchy;
        self.l1_stats += other.l1_stats;
        self.l2_stats += other.l2_stats;
        debug_assert_eq!(self.results.len(), other.results.len());
        for (a, b) in self.results.iter_mut().zip(other.results) {
            a.0 = a.0 + b.0;
            a.1 = a.1 + b.1;
        }
        self.mru_hist.merge(&other.mru_hist);
        self.mru_updates += other.mru_updates;
        self.requests += other.requests;
    }

    /// Finishes the fold into the public outcome type.
    fn into_outcome(self, spec: &RunSpec) -> RunOutcome {
        let mru_update_fraction = if self.requests == 0 {
            0.0
        } else {
            self.mru_updates as f64 / self.requests as f64
        };
        RunOutcome {
            l1_label: spec.l1.label(),
            l2_label: spec.l2.label(),
            assoc: spec.l2.associativity(),
            hierarchy: self.hierarchy,
            l1_stats: self.l1_stats,
            l2_stats: self.l2_stats,
            strategies: standard_strategies(spec.l2.associativity(), spec.tag_bits)
                .iter()
                .zip(self.results)
                .map(|(s, (probes, probes_no_opt))| StrategyResult {
                    name: s.name(),
                    probes,
                    probes_no_opt,
                })
                .collect(),
            mru_hist: self.mru_hist,
            mru_update_fraction,
        }
    }
}

/// Splits the sweep into its units of work. Specs are first grouped by
/// what their L1 miss stream depends on — trace, seed and L1 — so each
/// segment is generated and each L1 simulated once per group, not once
/// per spec; L2 geometry and tag width may differ within a group. Each
/// group then splits like a single spec: one shard per cold-start segment
/// if its trace decomposes, one whole-trace shard otherwise (warm traces
/// carry cache state across segment boundaries and must run
/// sequentially). Shards come out in (group, segment) order, groups in
/// order of their first spec.
fn shard_plan(specs: &[RunSpec]) -> Vec<Shard> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|g| specs[g[0]].shares_l1_stream(spec))
        {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut shards = Vec::new();
    for members in groups {
        let lead = &specs[members[0]];
        let segments = lead.trace.segments;
        if lead.splits_by_segment() {
            shards.extend((0..segments).map(|k| Shard {
                members: members.clone(),
                seg_start: k,
                seg_end: k + 1,
            }));
        } else {
            shards.push(Shard {
                members,
                seg_start: 0,
                seg_end: segments,
            });
        }
    }
    shards
}

/// Hooks the sharded sweep loop calls around each unit of work.
///
/// The default [`NoTracer`] implements every method as an empty body on a
/// unit worker type, so the un-traced [`simulate_many_with_threads`]
/// monomorphizes to exactly the code it had before tracing existed — the
/// same zero-cost pattern as `ProbeObserver`. The traced path
/// substitutes [`SweepSpanTracer`], which records per-shard, queue-wait
/// and merge spans into per-worker [`SpanBuffer`]s merged at join.
pub(crate) trait SweepTracer: Sync {
    /// Per-worker recorder state, created and consumed on the worker's
    /// own thread.
    type Worker;
    /// Called on the worker's thread before it starts draining the queue.
    /// Track 0 is the coordinating thread; workers are 1-based.
    fn worker_start(&self, track: u32) -> Self::Worker;
    /// Called when the worker dequeues a shard, before simulating it.
    fn shard_begin(&self, worker: &mut Self::Worker, shard: &Shard);
    /// Called when the shard's simulation finishes, with its members'
    /// counters in member order.
    fn shard_end(&self, worker: &mut Self::Worker, outs: &[ShardOutcome]);
    /// Called when the queue is drained, still on the worker's thread.
    fn worker_finish(&self, worker: Self::Worker);
    /// Brackets the sequential fold of shard outcomes on the main thread.
    fn merge_begin(&self);
    /// See [`merge_begin`](SweepTracer::merge_begin).
    fn merge_end(&self);
}

/// The zero-cost tracer: every hook is empty and the worker state is `()`.
pub(crate) struct NoTracer;

impl SweepTracer for NoTracer {
    type Worker = ();
    fn worker_start(&self, _track: u32) {}
    fn shard_begin(&self, _worker: &mut (), _shard: &Shard) {}
    fn shard_end(&self, _worker: &mut (), _outs: &[ShardOutcome]) {}
    fn worker_finish(&self, _worker: ()) {}
    fn merge_begin(&self) {}
    fn merge_end(&self) {}
}

/// Span state the coordinating thread owns: its own buffer (track 0,
/// holding the sweep root and merge spans) and the merged trace.
struct SweepTracerState {
    main: SpanBuffer,
    sweep: SpanId,
    merge: Option<SpanId>,
    trace: SpanTrace,
}

/// The recording tracer behind [`simulate_many_traced_with_threads`].
///
/// Workers record into private buffers (no locking on the hot path); the
/// shared mutex is taken once per worker at join to merge, and briefly on
/// the main thread around the fold.
pub(crate) struct SweepSpanTracer {
    clock: SpanClock,
    state: std::sync::Mutex<SweepTracerState>,
}

/// One worker's open-span bookkeeping: the worker root, the currently
/// open queue-wait span, and the in-flight shard span.
pub(crate) struct SpanWorker {
    buf: SpanBuffer,
    root: SpanId,
    wait: SpanId,
    current: Option<SpanId>,
}

impl SweepSpanTracer {
    fn new() -> Self {
        let clock = SpanClock::new();
        let mut main = SpanBuffer::new(0, clock.clone());
        let sweep = main.open("sweep", "sweep");
        let mut trace = SpanTrace::new();
        trace.name_track(0, "main");
        SweepSpanTracer {
            clock,
            state: std::sync::Mutex::new(SweepTracerState {
                main,
                sweep,
                merge: None,
                trace,
            }),
        }
    }

    /// Closes the sweep root and returns the merged trace.
    fn finish(self, shards: usize, workers: usize) -> SpanTrace {
        let mut st = self.state.into_inner().expect("tracer state intact");
        st.main.counter(st.sweep, "shards", shards as u64);
        st.main.counter(st.sweep, "workers", workers as u64);
        st.main.close(st.sweep);
        st.trace.absorb(st.main);
        st.trace
    }
}

impl SweepTracer for SweepSpanTracer {
    type Worker = SpanWorker;

    fn worker_start(&self, track: u32) -> SpanWorker {
        let mut buf = SpanBuffer::new(track, self.clock.clone());
        let root = buf.open(format!("worker-{track}"), "worker");
        let wait = buf.open("queue-wait", "queue-wait");
        SpanWorker {
            buf,
            root,
            wait,
            current: None,
        }
    }

    fn shard_begin(&self, w: &mut SpanWorker, shard: &Shard) {
        w.buf.close(w.wait);
        let members: Vec<String> = shard.members.iter().map(usize::to_string).collect();
        let name = format!(
            "specs {} seg{}..{}",
            members.join(","),
            shard.seg_start,
            shard.seg_end
        );
        w.current = Some(w.buf.open(name, "shard"));
    }

    fn shard_end(&self, w: &mut SpanWorker, outs: &[ShardOutcome]) {
        // Counters are sums over the members, so span counters still add
        // up to the outcomes' totals.
        let id = w.current.take().expect("shard_begin opened the span");
        let sum = |f: fn(&ShardOutcome) -> u64| outs.iter().map(f).sum::<u64>();
        w.buf
            .counter(id, "refs", sum(|o| o.hierarchy.processor_refs));
        w.buf.counter(id, "read_ins", sum(|o| o.hierarchy.read_ins));
        w.buf
            .counter(id, "read_in_hits", sum(|o| o.hierarchy.read_in_hits));
        w.buf
            .counter(id, "write_backs", sum(|o| o.hierarchy.write_backs));
        w.buf
            .counter(id, "probes", sum(|o| shard_probe_total(&o.results)));
        w.buf.close(id);
        w.wait = w.buf.open("queue-wait", "queue-wait");
    }

    fn worker_finish(&self, mut w: SpanWorker) {
        w.buf.close(w.wait);
        w.buf.close(w.root);
        let mut st = self.state.lock().expect("tracer state intact");
        let track = w.buf.track();
        st.trace.name_track(track, format!("worker-{track}"));
        st.trace.absorb(w.buf);
    }

    fn merge_begin(&self) {
        let mut st = self.state.lock().expect("tracer state intact");
        let id = st.main.open("merge", "merge");
        st.merge = Some(id);
    }

    fn merge_end(&self) {
        let mut st = self.state.lock().expect("tracer state intact");
        let id = st.merge.take().expect("merge_begin opened the span");
        st.main.close(id);
    }
}

/// The live-monitoring tracer behind [`simulate_many_served_with_threads`].
///
/// Wraps [`SweepSpanTracer`] — a served sweep still yields the span trace —
/// and additionally publishes sweep progress to a [`ServeHandle`]:
/// `sweep_shards_total`/`sweep_workers` gauges at start, running
/// `sweep_shards_done_total`/`sweep_refs_total`/`sweep_probes_total`
/// counters, a per-worker `sweep_worker_busy{worker="N"}` gauge flipped
/// around every shard plus a `sweep_worker_shards_total{worker="N"}`
/// counter, and a heartbeat after each shard. All publishing happens at
/// shard granularity — the per-access hot path inside each shard is the
/// same monomorphized code as the un-served sweep.
pub(crate) struct ServeSweepTracer {
    inner: SweepSpanTracer,
    handle: ServeHandle,
    started: Instant,
    workers: usize,
    refs: AtomicU64,
}

impl ServeSweepTracer {
    fn new(handle: ServeHandle, shards: usize, workers: usize) -> Self {
        handle.update_metrics(|m| {
            let g = m.gauge("sweep_shards_total");
            m.set_gauge(g, shards as f64);
            let g = m.gauge("sweep_workers");
            m.set_gauge(g, workers as f64);
            // Register the running counters up front so the first scrape
            // already shows the full schema at zero.
            m.counter("sweep_shards_done_total");
            m.counter("sweep_refs_total");
            m.counter("sweep_probes_total");
        });
        ServeSweepTracer {
            inner: SweepSpanTracer::new(),
            handle,
            started: Instant::now(),
            workers,
            refs: AtomicU64::new(0),
        }
    }

    fn heartbeat(&self, refs: u64) -> ServeHeartbeat {
        ServeHeartbeat {
            active_workers: Some(self.workers as u64),
            ..ServeHeartbeat::at(refs, self.started.elapsed().as_secs_f64())
        }
    }

    /// Publishes the closing heartbeat and returns the merged span trace.
    /// The caller owns the handle's `finish_run` — a sweep CLI may want to
    /// publish final tables before declaring the run done.
    fn finish(self, shards: usize, workers: usize) -> SpanTrace {
        let hb = self.heartbeat(self.refs.load(Ordering::Relaxed));
        self.handle.publish_heartbeat(&hb);
        self.inner.finish(shards, workers)
    }
}

impl SweepTracer for ServeSweepTracer {
    type Worker = SpanWorker;

    fn worker_start(&self, track: u32) -> SpanWorker {
        let worker = track.to_string();
        self.handle.update_metrics(|m| {
            let g = m.gauge(&labeled("sweep_worker_busy", "worker", &worker));
            m.set_gauge(g, 0.0);
            m.counter(&labeled("sweep_worker_shards_total", "worker", &worker));
        });
        self.inner.worker_start(track)
    }

    fn shard_begin(&self, w: &mut SpanWorker, shard: &Shard) {
        self.inner.shard_begin(w, shard);
        let worker = w.buf.track().to_string();
        self.handle.update_metrics(|m| {
            let g = m.gauge(&labeled("sweep_worker_busy", "worker", &worker));
            m.set_gauge(g, 1.0);
        });
    }

    fn shard_end(&self, w: &mut SpanWorker, outs: &[ShardOutcome]) {
        self.inner.shard_end(w, outs);
        let worker = w.buf.track().to_string();
        let shard_refs: u64 = outs.iter().map(|o| o.hierarchy.processor_refs).sum();
        let shard_probes: u64 = outs.iter().map(|o| shard_probe_total(&o.results)).sum();
        let refs = self.refs.fetch_add(shard_refs, Ordering::Relaxed) + shard_refs;
        self.handle.update_metrics(|m| {
            let c = m.counter("sweep_shards_done_total");
            m.inc(c, 1);
            let c = m.counter("sweep_refs_total");
            m.inc(c, shard_refs);
            let c = m.counter("sweep_probes_total");
            m.inc(c, shard_probes);
            let g = m.gauge(&labeled("sweep_worker_busy", "worker", &worker));
            m.set_gauge(g, 0.0);
            let c = m.counter(&labeled("sweep_worker_shards_total", "worker", &worker));
            m.inc(c, 1);
        });
        self.handle.publish_heartbeat(&self.heartbeat(refs));
    }

    fn worker_finish(&self, w: SpanWorker) {
        self.inner.worker_finish(w);
    }

    fn merge_begin(&self) {
        self.inner.merge_begin();
    }

    fn merge_end(&self) {
        self.inner.merge_end();
    }
}

/// Total optimized probes a shard charged, summed over every strategy —
/// the same accounting as the aggregate `ProbeStats` books.
fn shard_probe_total(results: &[(ProbeStats, ProbeStats)]) -> u64 {
    results
        .iter()
        .map(|(opt, _)| opt.hits.probes + opt.misses.probes + opt.write_backs.probes)
        .sum()
}

/// Runs a sweep of independent simulations across a sharded work queue,
/// returning outcomes in spec order.
///
/// The sweep is trace-major. Specs that share a trace, seed and L1 form a
/// group: their L1 miss stream is the same whatever their L2 (the
/// hierarchy does not enforce inclusion), so each of the group's trace
/// segments is generated once and run through one L1, and every L1 miss
/// fans out to each member's L2 and scorer. Parallelism is per (group,
/// segment): each cold-start trace segment is an independent unit of work
/// (the paper's methodology flushes the hierarchy between segments), so
/// even a single multi-segment group fans out across every worker.
/// Per-shard counters merge exactly — results are bit-identical to running
/// each spec serially through [`simulate`], whatever the grouping and the
/// worker count.
///
/// Runs on `threads` workers, clamped to the shard count; pass
/// [`available_threads`](crate::partition::available_threads) for the
/// machine's parallelism, or 1 for a sequential run.
pub fn simulate_many_with_threads(specs: &[RunSpec], threads: usize) -> Vec<RunOutcome> {
    let shards = shard_plan(specs);
    let threads = threads.max(1).min(shards.len().max(1));
    simulate_sharded(specs, shards, threads, &NoTracer)
}

/// [`simulate_many_with_threads`] with span tracing: outcomes are
/// bit-identical to the un-traced sweep (the tracer only brackets whole
/// shards — the per-access hot path is untouched), plus a [`SpanTrace`]
/// holding the sweep root, per-worker roots, per-shard spans with counter
/// attachments, queue-wait spans, and the merge span. Feed the trace to
/// [`SweepReport`](crate::sweep_report::SweepReport) for utilization
/// analysis or export it as Perfetto JSON.
pub fn simulate_many_traced_with_threads(
    specs: &[RunSpec],
    threads: usize,
) -> (Vec<RunOutcome>, SpanTrace) {
    let shards = shard_plan(specs);
    let threads = threads.max(1).min(shards.len().max(1));
    let tracer = SweepSpanTracer::new();
    let shard_count = shards.len();
    let outcomes = simulate_sharded(specs, shards, threads, &tracer);
    (outcomes, tracer.finish(shard_count, threads))
}

/// [`simulate_many_traced_with_threads`] additionally publishing live
/// sweep progress — shard/ref/probe counters, per-worker busy gauges, and
/// heartbeats — to a monitoring server's [`ServeHandle`]. Outcomes stay
/// bit-identical to the un-served sweep: publishing happens only between
/// shards.
///
/// The caller keeps responsibility for `finish_run` on the handle, so it
/// can publish final summary metrics after the sweep before the server
/// reports the run as done.
pub fn simulate_many_served_with_threads(
    specs: &[RunSpec],
    threads: usize,
    handle: ServeHandle,
) -> (Vec<RunOutcome>, SpanTrace) {
    let shards = shard_plan(specs);
    let threads = threads.max(1).min(shards.len().max(1));
    let tracer = ServeSweepTracer::new(handle, shards.len(), threads);
    let shard_count = shards.len();
    let outcomes = simulate_sharded(specs, shards, threads, &tracer);
    (outcomes, tracer.finish(shard_count, threads))
}

fn simulate_sharded<T: SweepTracer>(
    specs: &[RunSpec],
    shards: Vec<Shard>,
    threads: usize,
    tracer: &T,
) -> Vec<RunOutcome> {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    let mut slots: Vec<Vec<ShardOutcome>> = Vec::new();
    if threads <= 1 {
        let mut worker = tracer.worker_start(1);
        slots.extend(shards.iter().map(|s| {
            tracer.shard_begin(&mut worker, s);
            let outs = s.run(specs);
            tracer.shard_end(&mut worker, &outs);
            outs
        }));
        tracer.worker_finish(worker);
    } else {
        let shared: Vec<Mutex<Option<Vec<ShardOutcome>>>> =
            shards.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for track in 1..=threads as u32 {
                let (shards, shared, next) = (&shards, &shared, &next);
                scope.spawn(move || {
                    let mut worker = tracer.worker_start(track);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(i) else { break };
                        tracer.shard_begin(&mut worker, shard);
                        let outs = shard.run(specs);
                        tracer.shard_end(&mut worker, &outs);
                        *shared[i].lock().expect("no panics while holding the slot") = Some(outs);
                    }
                    tracer.worker_finish(worker);
                });
            }
        });
        slots.extend(shared.into_iter().map(|slot| {
            slot.into_inner()
                .expect("worker threads joined cleanly")
                .expect("every slot was filled")
        }));
    }

    // Fold each member's outcomes back together in segment order. Shards
    // were emitted in (group, segment) order, so a single forward pass
    // suffices.
    tracer.merge_begin();
    let mut outcomes: Vec<Option<ShardOutcome>> = specs.iter().map(|_| None).collect();
    for (shard, outs) in shards.iter().zip(slots) {
        for (&spec, out) in shard.members.iter().zip(outs) {
            match &mut outcomes[spec] {
                acc @ None => *acc = Some(out),
                Some(acc) => acc.merge(out),
            }
        }
    }
    let outcomes = outcomes
        .into_iter()
        .zip(specs)
        .map(|(acc, spec)| {
            acc.expect("every spec had at least one shard")
                .into_outcome(spec)
        })
        .collect();
    tracer.merge_end();
    outcomes
}

/// Results of a deep-hierarchy run: probe statistics at the last level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepOutcome {
    /// Depth of the hierarchy.
    pub depth: usize,
    /// Per-level incoming-request counters (index 0 = processor refs).
    pub traffic: Vec<seta_cache::LevelTraffic>,
    /// Processor references serviced.
    pub processor_refs: u64,
    /// Fraction of processor references missing every level.
    pub global_miss_ratio: f64,
    /// Per-strategy probe statistics at the last level (write-backs priced
    /// at zero, as under the write-back optimization).
    pub strategies: Vec<StrategyResult>,
    /// MRU-distance histogram of last-level read-in hits.
    pub mru_hist: MruDistanceHistogram,
}

impl DeepOutcome {
    /// The result for a strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&StrategyResult> {
        self.strategies.iter().find(|s| s.name == name)
    }
}

/// Runs a hierarchy of any depth and prices every lookup strategy at the
/// **last** level — the paper's "level two (or higher)" case.
///
/// # Panics
///
/// Panics if `configs` is not a valid hierarchy (see
/// [`MultiLevel::new`](seta_cache::MultiLevel)).
pub fn simulate_last_level<I>(
    configs: Vec<CacheConfig>,
    events: I,
    strategies: &[Box<dyn LookupStrategy>],
) -> DeepOutcome
where
    I: IntoIterator<Item = TraceEvent>,
{
    let last = configs.len() - 1;
    let last_assoc = configs[last].associativity();
    let mut hierarchy =
        seta_cache::MultiLevel::new(configs).expect("hierarchy configuration is valid");
    let mut scorer = Scorer::new(strategies, last_assoc);
    {
        let mut obs = |level: usize, req: &L2RequestView<'_>| {
            if level == last {
                scorer.on_l2_request(req);
            }
        };
        hierarchy.run(events, &mut obs);
    }
    DeepOutcome {
        depth: hierarchy.depth(),
        traffic: (0..hierarchy.depth())
            .map(|l| *hierarchy.traffic(l))
            .collect(),
        processor_refs: hierarchy.processor_refs(),
        global_miss_ratio: hierarchy.global_miss_ratio(),
        strategies: strategies
            .iter()
            .zip(scorer.results)
            .map(|(s, (probes, probes_no_opt))| StrategyResult {
                name: s.name(),
                probes,
                probes_no_opt,
            })
            .collect(),
        mru_hist: scorer.mru_hist,
    }
}

/// The paper's standard strategy set for an `a`-way L2 with `t`-bit tags:
/// traditional, naive, full-list MRU, and partial compare with the
/// subset count giving at least 4-bit compares (§2.2's rule 3, which
/// reproduces the s = 1, 2, 4 the paper used for a = 4, 8, 16 at t = 16)
/// and the simple self-inverse XOR transform ("this method is used
/// throughout this paper" — §2.2; the improved transform appears only in
/// the Figure 6 study).
pub fn standard_strategies(assoc: u32, tag_bits: u32) -> Vec<Box<dyn LookupStrategy>> {
    let mut v: Vec<Box<dyn LookupStrategy>> = vec![
        Box::new(Traditional),
        Box::new(Naive),
        Box::new(Mru::full()),
    ];
    if assoc >= 1 {
        let subsets = if assoc == 1 {
            1
        } else {
            model::subsets_for_four_bit_compares(tag_bits, assoc)
        };
        v.push(Box::new(PartialCompare::new(
            tag_bits,
            subsets,
            TransformKind::XorFold,
        )));
    }
    v
}

/// Names of the four standard strategies in [`standard_strategies`] order,
/// with the partial name resolved for the given parameters.
pub fn standard_names(assoc: u32, tag_bits: u32) -> Vec<String> {
    standard_strategies(assoc, tag_bits)
        .iter()
        .map(|s| s.name())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seta_trace::gen::{AtumLike, AtumLikeConfig};
    use seta_trace::TraceRecord;

    fn small_trace(refs: u64, seed: u64) -> AtumLike {
        let mut cfg = AtumLikeConfig::paper_like();
        cfg.segments = 2;
        cfg.refs_per_segment = refs;
        AtumLike::new(cfg, seed)
    }

    fn small_run(assoc: u32) -> RunOutcome {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, assoc).unwrap();
        simulate(
            l1,
            l2,
            small_trace(15_000, 7),
            &standard_strategies(assoc, 16),
        )
    }

    #[test]
    fn traditional_always_one_probe() {
        let out = small_run(4);
        let t = out.strategy("traditional").unwrap();
        assert_eq!(t.probes.hit_mean(), 1.0);
        assert_eq!(t.probes.miss_mean(), 1.0);
    }

    #[test]
    fn naive_miss_mean_is_exactly_a() {
        for a in [2u32, 4, 8] {
            let out = small_run(a);
            let n = out.strategy("naive").unwrap();
            assert_eq!(n.probes.miss_mean(), a as f64, "a={a}");
        }
    }

    #[test]
    fn mru_miss_mean_is_exactly_a_plus_one() {
        let out = small_run(4);
        let m = out.strategy("mru").unwrap();
        assert_eq!(m.probes.miss_mean(), 5.0);
    }

    #[test]
    fn mru_hit_mean_matches_distance_histogram() {
        let out = small_run(4);
        let m = out.strategy("mru").unwrap();
        assert!(
            (m.probes.hit_mean() - out.mru_hist.expected_hit_probes()).abs() < 1e-9,
            "measured {} vs histogram {}",
            m.probes.hit_mean(),
            out.mru_hist.expected_hit_probes()
        );
    }

    #[test]
    #[should_panic(expected = "at most 32 ways, not 64")]
    fn an_l2_wider_than_max_assoc_is_refused_before_any_request() {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(256 * 1024, 32, 64).unwrap();
        let strategies: Vec<Box<dyn LookupStrategy>> = vec![Box::new(Mru::full())];
        simulate(l1, l2, small_trace(1_000, 3), &strategies);
    }

    #[test]
    fn a_strategy_outside_seta_core_searches_its_own_view() {
        /// MRU's search, without a closed-enum form to price it by.
        struct External;
        impl LookupStrategy for External {
            fn lookup(&self, view: &seta_core::SetView, tag: u64) -> seta_core::Lookup {
                Mru::full().lookup(view, tag)
            }
            fn name(&self) -> String {
                "external".into()
            }
        }
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let strategies: Vec<Box<dyn LookupStrategy>> = vec![
            Box::new(Mru::full()),
            Box::new(External),
            Box::new(PartialCompare::new(16, 1, TransformKind::XorFold)),
        ];
        let out = simulate(l1, l2, small_trace(10_000, 3), &strategies);
        let (priced, searched) = (&out.strategies[0], &out.strategies[1]);
        assert_eq!(priced.probes, searched.probes);
        assert_eq!(priced.probes_no_opt, searched.probes_no_opt);
    }

    #[test]
    fn all_strategies_see_identical_request_counts() {
        let out = small_run(8);
        let first = &out.strategies[0].probes;
        for s in &out.strategies {
            assert_eq!(s.probes.hits.count, first.hits.count, "{}", s.name);
            assert_eq!(s.probes.misses.count, first.misses.count, "{}", s.name);
            assert_eq!(
                s.probes.write_backs.count, first.write_backs.count,
                "{}",
                s.name
            );
        }
        // And the counts agree with the hierarchy's own accounting.
        assert_eq!(first.hits.count, out.hierarchy.read_in_hits);
        assert_eq!(
            first.hits.count + first.misses.count,
            out.hierarchy.read_ins
        );
        assert_eq!(first.write_backs.count, out.hierarchy.write_backs);
    }

    #[test]
    fn write_back_optimization_only_affects_write_backs() {
        let out = small_run(4);
        for s in &out.strategies {
            assert_eq!(s.probes.hits, s.probes_no_opt.hits, "{}", s.name);
            assert_eq!(s.probes.misses, s.probes_no_opt.misses, "{}", s.name);
            assert_eq!(s.probes.write_backs.probes, 0, "{}", s.name);
            if s.name != "traditional" {
                // Without the optimization write-backs cost real probes.
                assert!(
                    s.probes_no_opt.total_mean() >= s.probes.total_mean(),
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_run(4);
        let b = small_run(4);
        assert_eq!(a.hierarchy, b.hierarchy);
        for (x, y) in a.strategies.iter().zip(&b.strategies) {
            assert_eq!(x.probes, y.probes);
        }
    }

    #[test]
    fn direct_mapped_l2_prices_everything_at_one_probe() {
        let out = small_run(1);
        for s in &out.strategies {
            assert_eq!(s.probes.hit_mean(), 1.0, "{}", s.name);
            if s.probes.misses.count > 0 {
                assert_eq!(s.probes.miss_mean(), 1.0, "{}", s.name);
            }
        }
    }

    #[test]
    fn standard_strategy_set_has_four_members() {
        assert_eq!(standard_names(4, 16).len(), 4);
        assert_eq!(standard_names(8, 16)[3], "partial[t=16,s=2,xor]");
        assert_eq!(standard_names(16, 16)[3], "partial[t=16,s=4,xor]");
    }

    #[test]
    fn simulate_many_matches_serial_runs() {
        let specs: Vec<RunSpec> = [2u32, 4, 8]
            .iter()
            .map(|&a| RunSpec {
                l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
                l2: CacheConfig::new(32 * 1024, 32, a).unwrap(),
                trace: {
                    let mut c = AtumLikeConfig::paper_like();
                    c.segments = 2;
                    c.refs_per_segment = 10_000;
                    c
                },
                seed: 7,
                tag_bits: 16,
            })
            .collect();
        let parallel = simulate_many_with_threads(&specs, crate::partition::available_threads());
        for (spec, out) in specs.iter().zip(&parallel) {
            let serial = simulate(
                spec.l1,
                spec.l2,
                AtumLike::new(spec.trace.clone(), spec.seed),
                &standard_strategies(spec.l2.associativity(), spec.tag_bits),
            );
            assert_eq!(out.hierarchy, serial.hierarchy);
            for (a, b) in out.strategies.iter().zip(&serial.strategies) {
                assert_eq!(a.probes, b.probes);
            }
        }
    }

    /// Debug formatting is a faithful fingerprint: every counter and every
    /// f64 (printed in shortest-roundtrip form) must agree bit-for-bit.
    fn fingerprint(out: &RunOutcome) -> String {
        format!("{out:?}")
    }

    fn multiseg_spec(segments: usize, assoc: u32, seed: u64) -> RunSpec {
        RunSpec {
            l1: CacheConfig::direct_mapped(4 * 1024, 16).unwrap(),
            l2: CacheConfig::new(32 * 1024, 32, assoc).unwrap(),
            trace: {
                let mut c = AtumLikeConfig::paper_like();
                c.segments = segments;
                c.refs_per_segment = 5_000;
                c
            },
            seed,
            tag_bits: 16,
        }
    }

    fn serial(spec: &RunSpec) -> RunOutcome {
        simulate(
            spec.l1,
            spec.l2,
            AtumLike::new(spec.trace.clone(), spec.seed),
            &standard_strategies(spec.l2.associativity(), spec.tag_bits),
        )
    }

    #[test]
    fn sharded_single_spec_is_bit_identical_to_serial() {
        let spec = multiseg_spec(5, 4, 13);
        let serial_out = serial(&spec);
        for threads in [1, 2, 5, 16] {
            let sharded = simulate_many_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(sharded.len(), 1);
            assert_eq!(
                fingerprint(&sharded[0]),
                fingerprint(&serial_out),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn warm_trace_shards_as_one_unit_and_stays_bit_identical() {
        let mut spec = multiseg_spec(3, 4, 21);
        spec.trace.flush_between_segments = false;
        assert!(!spec.splits_by_segment());
        let serial_out = serial(&spec);
        for threads in [1, 4] {
            let sharded = simulate_many_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(fingerprint(&sharded[0]), fingerprint(&serial_out));
        }
    }

    #[test]
    fn shard_plan_splits_cold_specs_per_segment() {
        let cold = multiseg_spec(4, 2, 1);
        let mut warm = multiseg_spec(3, 2, 1);
        warm.trace.flush_between_segments = false;
        let plan = shard_plan(&[cold, warm]);
        assert_eq!(plan.len(), 5); // 4 cold segments + 1 warm whole-spec
        assert!(plan[..4].iter().all(|s| s.seg_end - s.seg_start == 1));
        assert_eq!((plan[4].seg_start, plan[4].seg_end), (0, 3));
    }

    #[test]
    fn shard_plan_groups_specs_that_share_the_l1_stream() {
        let a4 = multiseg_spec(2, 4, 1);
        let other_seed = multiseg_spec(2, 4, 2);
        let mut a8 = multiseg_spec(2, 8, 1);
        a8.tag_bits = 12;
        let mut other_l1 = multiseg_spec(2, 4, 1);
        other_l1.l1 = CacheConfig::new(4 * 1024, 16, 2).unwrap();
        let plan = shard_plan(&[a4, other_seed, a8, other_l1]);
        let groups: Vec<(&[usize], usize)> = plan
            .iter()
            .map(|s| (s.members.as_slice(), s.seg_start))
            .collect();
        assert_eq!(
            groups,
            [
                (&[0, 2][..], 0),
                (&[0, 2][..], 1),
                (&[1][..], 0),
                (&[1][..], 1),
                (&[3][..], 0),
                (&[3][..], 1)
            ]
        );
    }

    #[test]
    fn traced_sweep_is_bit_identical_and_records_shard_spans() {
        let spec = multiseg_spec(4, 4, 31);
        let plain = simulate_many_with_threads(std::slice::from_ref(&spec), 2);
        for threads in [1, 2, 8] {
            let (traced, trace) =
                simulate_many_traced_with_threads(std::slice::from_ref(&spec), threads);
            assert_eq!(
                fingerprint(&traced[0]),
                fingerprint(&plain[0]),
                "threads={threads}"
            );
            let shard_spans: Vec<_> = trace.with_cat("shard").collect();
            assert_eq!(shard_spans.len(), 4, "one span per cold segment");
            // Shard counter sums reproduce the aggregate statistics.
            let refs: u64 = shard_spans.iter().filter_map(|s| s.counter("refs")).sum();
            assert_eq!(refs, traced[0].hierarchy.processor_refs);
            let probes: u64 = shard_spans.iter().filter_map(|s| s.counter("probes")).sum();
            let expected: u64 = traced[0]
                .strategies
                .iter()
                .map(|s| {
                    s.probes.hits.probes + s.probes.misses.probes + s.probes.write_backs.probes
                })
                .sum();
            assert_eq!(probes, expected);
            assert_eq!(trace.with_cat("sweep").count(), 1);
            assert_eq!(trace.with_cat("merge").count(), 1);
            let workers = trace.with_cat("worker").count();
            assert_eq!(workers, threads.min(4), "threads={threads}");
            assert!(trace.with_cat("queue-wait").count() >= workers);
        }
    }

    #[test]
    fn simulate_traced_matches_simulate_and_segments_conserve() {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let strategies = standard_strategies(4, 16);
        let plain = simulate(l1, l2, small_trace(8_000, 19), &strategies);
        let (traced, trace) = simulate_traced(l1, l2, small_trace(8_000, 19), &strategies);
        assert_eq!(format!("{traced:?}"), format!("{plain:?}"));
        let segs: Vec<_> = trace.with_cat("segment").collect();
        assert!(segs.len() >= 2, "two trace segments");
        for (counter, expected) in [
            ("refs", traced.hierarchy.processor_refs),
            ("read_ins", traced.hierarchy.read_ins),
            ("read_in_hits", traced.hierarchy.read_in_hits),
            ("write_backs", traced.hierarchy.write_backs),
        ] {
            let sum: u64 = segs.iter().filter_map(|s| s.counter(counter)).sum();
            assert_eq!(sum, expected, "{counter}");
        }
        assert_eq!(trace.with_cat("run").count(), 1);
    }

    #[test]
    fn simulate_last_level_two_levels_matches_simulate() {
        let l1 = CacheConfig::direct_mapped(4 * 1024, 16).unwrap();
        let l2 = CacheConfig::new(32 * 1024, 32, 4).unwrap();
        let two = simulate(l1, l2, small_trace(10_000, 3), &standard_strategies(4, 16));
        let deep = simulate_last_level(
            vec![l1, l2],
            small_trace(10_000, 3),
            &standard_strategies(4, 16),
        );
        assert_eq!(deep.depth, 2);
        assert_eq!(deep.processor_refs, two.hierarchy.processor_refs);
        for (a, b) in deep.strategies.iter().zip(&two.strategies) {
            assert_eq!(a.probes, b.probes, "{}", a.name);
        }
        assert!((deep.global_miss_ratio - two.hierarchy.global_miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn handcrafted_trace_yields_expected_probes() {
        // One block, referenced twice: first a cold miss, then an L1 hit
        // (no L2 traffic). Then evict it from L1 (clean) and re-reference:
        // L2 read-in hit at MRU distance 0.
        let l1 = CacheConfig::direct_mapped(256, 16).unwrap();
        let l2 = CacheConfig::new(1024, 16, 4).unwrap();
        let events = vec![
            TraceEvent::Ref(TraceRecord::read(0x000)),
            TraceEvent::Ref(TraceRecord::read(0x100)), // evicts 0x000 from L1
            TraceEvent::Ref(TraceRecord::read(0x000)), // L2 hit
        ];
        let out = simulate(l1, l2, events, &standard_strategies(4, 16));
        assert_eq!(out.hierarchy.read_ins, 3);
        assert_eq!(out.hierarchy.read_in_hits, 1);
        let mru = out.strategy("mru").unwrap();
        // The L2 hit is at MRU distance... 0x000 and 0x100 map to L2 sets 0
        // and (0x100/16)%16=0 — same set; 0x000 is at distance 1.
        assert_eq!(mru.probes.hits.probes, 3); // 1 list + 2 scans
        let naive = out.strategy("naive").unwrap();
        assert_eq!(naive.probes.hits.probes, 1); // way 0 holds 0x000
    }
}
