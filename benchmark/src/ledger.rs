//! The per-layer cost ledger: each layer of the simulator timed on its
//! own, from outside, around calls into its crate's public functions, over
//! one workload's inputs.
//!
//! Lookup pricing is timed directly over recorded L2 request snapshots,
//! never by subtracting whole-run timings: the scorer's fixed per-request
//! cost is as large as the pricing itself, so a run with one strategy
//! costs nearly as much as a run with all four. The scorer's own cost is
//! what remains of `simulate` once the hierarchy and the directly timed
//! lookups are taken out.

use crate::workloads::{TAG_BITS, THREADS};
use crate::Metric;
use seta_cache::{Cache, CacheConfig, L2Observer, L2RequestKind, L2RequestView, TwoLevel};
use seta_core::packed::LaneSpec;
use seta_core::{Lookup, PackedLanes, SetView, StrategyKind, MAX_ASSOC};
use seta_obs::SpanBuffer;
use seta_serve::{ConcurrentCache, LoadSpec};
use seta_sim::runner::{simulate, simulate_many_with_threads, standard_strategies, RunSpec};
use seta_trace::format::{DineroReader, DineroWriter};
use seta_trace::gen::{AtumLike, AtumLikeConfig};
use seta_trace::TraceEvent;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of every layer; the fastest is reported, since other
/// load on a shared host only ever slows a call down.
const REPS: usize = 5;
/// L2 request snapshots kept for the lookup loops, sampled evenly over the
/// trace: few enough to stay cache-resident, as the one set a lookup reads
/// inside `simulate` is.
const MAX_SNAPSHOTS: u64 = 1 << 10;
/// Lookups per timed repetition of one strategy.
const LOOKUPS_PER_REP: usize = 1 << 21;

/// What the ledger runs over.
pub struct LedgerInput {
    /// The trace, already cut to the ledger's length.
    pub trace: AtumLikeConfig,
    /// Its seed.
    pub seed: u64,
    /// Level-one geometry.
    pub l1: CacheConfig,
    /// Level-two (and shared-cache) geometry.
    pub l2: CacheConfig,
    /// The serve configuration for the serve-layer measurements.
    pub serve: LoadSpec,
}

/// The ledger's numbers and what went wrong measuring them.
pub struct Ledger {
    /// Per-layer metrics, in layer order.
    pub metrics: Vec<Metric>,
    /// Failed sanity checks.
    pub failures: Vec<String>,
    /// Metrics measured with more threads than the host has cores.
    pub not_measurable: Vec<&'static str>,
}

/// The fastest of several timed calls of one layer, in seconds.
struct Fastest(f64);

impl Fastest {
    fn new() -> Fastest {
        Fastest(f64::INFINITY)
    }

    /// Times one call of `f` inside a `layer` span.
    fn time<T>(&mut self, spans: &mut SpanBuffer, layer: &str, f: impl FnOnce() -> T) -> T {
        let span = spans.open(layer, "layer");
        let started = Instant::now();
        let out = black_box(f());
        self.0 = self.0.min(started.elapsed().as_secs_f64());
        spans.close(span);
        out
    }
}

/// Times [`REPS`] calls of `f`; returns the fastest time and the last
/// result.
fn timed<T>(spans: &mut SpanBuffer, layer: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut fastest = Fastest::new();
    let mut out = fastest.time(spans, layer, &mut f);
    for _ in 1..REPS {
        out = fastest.time(spans, layer, &mut f);
    }
    (fastest.0, out)
}

/// One L2 request as the serve layer receives it.
enum Request {
    ReadIn(u64),
    WriteBack(u64),
    Flush,
}

/// A recorded L2 request: the pre-access set, the incoming tag and the
/// way the cache found the block in.
struct Snapshot {
    view: SetView,
    tag: u64,
    hit_way: Option<u8>,
}

/// Records every L2 request into the serve request stream, and every
/// `stride`-th into a snapshot for the lookup loops.
struct Recorder {
    stride: u64,
    seen: u64,
    snapshots: Vec<Snapshot>,
    stream: Vec<Request>,
}

impl L2Observer for Recorder {
    fn on_l2_request(&mut self, req: &L2RequestView<'_>) {
        self.stream.push(match req.kind {
            L2RequestKind::ReadIn => Request::ReadIn(req.addr),
            L2RequestKind::WriteBack => Request::WriteBack(req.addr),
        });
        if self.seen % self.stride == 0 {
            let ways = req.frames.len();
            let mut tags = [0u64; MAX_ASSOC];
            let mut valid = [false; MAX_ASSOC];
            for (w, f) in req.frames.iter().enumerate() {
                tags[w] = f.tag;
                valid[w] = f.valid;
            }
            self.snapshots.push(Snapshot {
                view: SetView::from_parts(&tags[..ways], &valid[..ways], req.order),
                tag: req.tag,
                hit_way: req.hit_way,
            });
        }
        self.seen += 1;
    }
}

/// The hierarchy `simulate` builds for these strategies: packed lanes on
/// when a partial-compare strategy can use them.
fn hierarchy(l1: CacheConfig, l2: CacheConfig, lanes: Option<LaneSpec>) -> TwoLevel {
    let mut h = TwoLevel::new(l1, l2).expect("L1 blocks fit in L2 blocks");
    if let Some(spec) = lanes {
        h.enable_partial_lanes(spec);
    }
    h
}

/// Times one strategy over the snapshots. Returns ns per lookup, probes
/// per request and how many lookups disagreed with the cache.
fn time_lookups(
    spans: &mut SpanBuffer,
    layer: &str,
    kind: StrategyKind,
    snapshots: &[Snapshot],
) -> (f64, f64, usize) {
    let lanes = match kind {
        StrategyKind::Partial(p) => snapshots
            .first()
            .and_then(|s| p.lane_spec(s.view.ways()))
            .map(|spec| {
                let mut lanes = PackedLanes::new(spec, snapshots.len());
                for (i, s) in snapshots.iter().enumerate() {
                    lanes.rebuild_set(i, s.view.tags());
                }
                lanes
            }),
        _ => None,
    };
    let price = |i: usize, s: &Snapshot| -> Lookup {
        match (kind, &lanes) {
            (StrategyKind::Partial(p), Some(lanes)) => p.lookup_packed(
                black_box(&s.view),
                black_box(&lanes.view(i)),
                black_box(s.tag),
            ),
            (k, _) => k.lookup(black_box(&s.view), black_box(s.tag)),
        }
    };
    let mut probes = 0u64;
    let mut disagreements = 0;
    for (i, s) in snapshots.iter().enumerate() {
        let l = price(i, s);
        probes += u64::from(l.probes);
        disagreements += usize::from(l.hit_way != s.hit_way);
    }
    let rounds = (LOOKUPS_PER_REP / snapshots.len().max(1)).max(1);
    let (secs, _) = timed(spans, layer, || {
        let mut total = 0u64;
        for _ in 0..rounds {
            for (i, s) in snapshots.iter().enumerate() {
                total += u64::from(black_box(price(i, s)).probes);
            }
        }
        total
    });
    let n = snapshots.len().max(1) as f64;
    (
        secs * 1e9 / (rounds as f64 * n),
        probes as f64 / n,
        disagreements,
    )
}

/// Issues the recorded request stream against `cache`.
fn drive(cache: &ConcurrentCache, stream: &[Request]) {
    for r in stream {
        match *r {
            Request::ReadIn(addr) => {
                black_box(cache.read_in(black_box(addr)));
            }
            Request::WriteBack(addr) => {
                black_box(cache.write_back(black_box(addr)));
            }
            Request::Flush => cache.flush(),
        }
    }
}

/// Measures every layer over `input`, recording one span per layer call
/// into `spans` (inside whatever span is open there).
pub fn measure(input: &LedgerInput, spans: &mut SpanBuffer, nproc: usize) -> Ledger {
    let LedgerInput {
        trace,
        seed,
        l1,
        l2,
        serve,
    } = input;
    let (l1, l2, seed) = (*l1, *l2, *seed);
    let strategies = standard_strategies(l2.associativity(), TAG_BITS);
    let lanes = strategies.iter().find_map(|s| match s.kind() {
        Some(StrategyKind::Partial(p)) => p.lane_spec(l2.associativity() as usize),
        _ => None,
    });
    let events: Vec<TraceEvent> = AtumLike::new(trace.clone(), seed).collect();
    let refs = events.iter().filter(|e| !e.is_flush()).count() as f64;
    let mut metrics = Vec::new();
    let mut failures = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| metrics.push(Metric::new(name, value, unit));

    let (gen_s, _) = timed(spans, "trace.gen", || {
        for e in AtumLike::new(black_box(trace.clone()), black_box(seed)) {
            black_box(e);
        }
    });
    push("trace.gen.ns_per_ref", gen_s * 1e9 / refs, "ns");

    let mut text = Vec::new();
    DineroWriter::new(&mut text)
        .write_all(events.iter().copied())
        .expect("writing to memory cannot fail");
    let (decode_s, decoded) = timed(spans, "trace.decode", || {
        DineroReader::new(black_box(text.as_slice()))
            .map_while(Result::ok)
            .map(black_box)
            .count()
    });
    if decoded != events.len() {
        failures.push(format!("decoded {decoded} of {} events", events.len()));
    }
    push("trace.decode.ns_per_ref", decode_s * 1e9 / refs, "ns");
    push(
        "trace.decode.mb_per_s",
        text.len() as f64 / 1e6 / decode_s,
        "MB/s",
    );

    // The L2 and scorer rows are differences of these three timings, so
    // the three alternate: a slow spell on the host then hits each alike.
    let (mut l1_t, mut hier_t, mut sim_t) = (Fastest::new(), Fastest::new(), Fastest::new());
    let (mut l1_stats, mut stats, mut sim_stats) = Default::default();
    for _ in 0..REPS {
        l1_stats = l1_t.time(spans, "cache.l1", || {
            let mut cache = Cache::new(l1);
            for e in &events {
                match e {
                    TraceEvent::Flush => cache.flush(),
                    TraceEvent::Ref(r) => {
                        black_box(cache.access(black_box(r.addr), r.kind.is_write()));
                    }
                }
            }
            *cache.stats()
        });
        stats = hier_t.time(spans, "cache.hierarchy", || {
            let mut h = hierarchy(l1, l2, lanes);
            h.run(events.iter().copied(), &mut ());
            *h.stats()
        });
        sim_stats = sim_t.time(spans, "sim.simulate", || {
            simulate(l1, l2, events.iter().copied(), &strategies).hierarchy
        });
    }
    let (l1_s, hier_s, sim_s) = (l1_t.0, hier_t.0, sim_t.0);
    if sim_stats != stats {
        failures.push("simulate and the bare hierarchy disagree on the requests".into());
    }
    push("cache.l1.ns_per_ref", l1_s * 1e9 / refs, "ns");
    push("cache.l1.miss_ratio", l1_stats.miss_ratio(), "ratio");
    let requests = stats.l2_requests() as f64;
    push("cache.hierarchy.ns_per_ref", hier_s * 1e9 / refs, "ns");
    push(
        "cache.l2.ns_per_request",
        (hier_s - l1_s) * 1e9 / requests,
        "ns",
    );
    push("cache.l2.requests_per_ref", requests / refs, "ratio");
    push(
        "cache.l2.write_back_frac",
        stats.write_back_fraction(),
        "ratio",
    );
    push(
        "cache.l2.local_miss_ratio",
        stats.local_miss_ratio(),
        "ratio",
    );

    let mut recorder = Recorder {
        stride: stats.l2_requests().div_ceil(MAX_SNAPSHOTS).max(1),
        seen: 0,
        snapshots: Vec::new(),
        stream: Vec::new(),
    };
    let mut h = hierarchy(l1, l2, lanes);
    for e in &events {
        if e.is_flush() {
            recorder.stream.push(Request::Flush);
        }
        h.process(e, &mut recorder);
    }
    let mut lookup_ns = 0.0;
    for s in &strategies {
        let kind = s.kind().expect("the standard strategies are built in");
        let layer = format!("core.lookup.{}", s.kind_name());
        let (ns, probes, disagreements) = time_lookups(spans, &layer, kind, &recorder.snapshots);
        if disagreements > 0 {
            failures.push(format!(
                "{layer}: {disagreements} lookups disagree with the cache"
            ));
        }
        lookup_ns += ns;
        push(&format!("{layer}.ns_per_lookup"), ns, "ns");
        push(&format!("{layer}.probes_per_request"), probes, "probes");
    }
    push("sim.simulate.ns_per_ref", sim_s * 1e9 / refs, "ns");
    let scorer_ns = (sim_s - hier_s) * 1e9 / requests - lookup_ns;
    if scorer_ns < 0.0 {
        failures.push(format!(
            "sim.scorer.ns_per_request is {scorer_ns:.2}: the layer timings overcount simulate"
        ));
    }
    push("sim.scorer.ns_per_request", scorer_ns, "ns");

    let spec = RunSpec {
        l1,
        l2,
        trace: trace.clone(),
        seed,
        tag_bits: TAG_BITS,
    };
    let specs = std::slice::from_ref(&spec);
    let (mut runner_1t, mut runner_2t) = (Fastest::new(), Fastest::new());
    for _ in 0..REPS {
        runner_1t.time(spans, "sim.runner.1t", || {
            simulate_many_with_threads(specs, 1)
        });
        runner_2t.time(spans, "sim.runner.2t", || {
            simulate_many_with_threads(specs, THREADS)
        });
    }
    push(
        "sim.runner.parallel_efficiency",
        runner_1t.0 / (THREADS as f64 * runner_2t.0),
        "ratio",
    );

    let serve_requests = recorder.stream.len() - events.iter().filter(|e| e.is_flush()).count();
    let new_cache = || ConcurrentCache::new(l2, serve.strategy, serve.stripes);
    let (mut serve_1t, mut serve_2t) = (Fastest::new(), Fastest::new());
    let mut lost = false;
    for _ in 0..REPS {
        let one = serve_1t.time(spans, "serve.cache.1t", || {
            let cache = new_cache();
            drive(&cache, &recorder.stream);
            cache.stats()
        });
        let two = serve_2t.time(spans, "serve.cache.2t", || {
            let cache = new_cache();
            let (a, b) = recorder.stream.split_at(recorder.stream.len() / 2);
            std::thread::scope(|scope| {
                scope.spawn(|| drive(&cache, a));
                scope.spawn(|| drive(&cache, b));
            });
            cache.stats()
        });
        lost |= one.accesses() != serve_requests as u64 || two.accesses() != serve_requests as u64;
    }
    if lost {
        failures.push("serve.cache lost requests".into());
    }
    push(
        "serve.cache.ns_per_request.1t",
        serve_1t.0 * 1e9 / serve_requests as f64,
        "ns",
    );
    push(
        "serve.cache.ns_per_request.2t",
        serve_2t.0 * 1e9 / serve_requests as f64,
        "ns",
    );

    let span = spans.open("serve.lock", "layer");
    let (contended, report) = seta_serve::replay_contended(&events, THREADS, serve);
    spans.close(span);
    if !contended.conserves() {
        failures.push("the contended replay does not conserve".into());
    }
    push("serve.lock.wait_ns_mean", report.mean_wait_ns(), "ns");
    push("serve.lock.hold_ns_mean", report.mean_hold_ns(), "ns");

    let span = spans.open("serve.replay", "layer");
    let replay = seta_serve::replay(&events, THREADS, serve);
    spans.close(span);
    if !replay.conserves() {
        failures.push("the serve replay does not conserve".into());
    }
    match (replay.p50_ns, replay.p99_ns) {
        (Some(p50), Some(p99)) => {
            push("serve.replay.latency_p50_ns", p50 as f64, "ns");
            push("serve.replay.latency_p99_ns", p99 as f64, "ns");
        }
        _ => failures.push("the serve replay sampled no request latencies".into()),
    }
    push(
        "serve.replay.latency_samples",
        replay.latency_samples as f64,
        "count",
    );

    // Two-thread numbers from a host with fewer cores say nothing about
    // the design.
    let not_measurable = if nproc < THREADS {
        vec![
            "sim.runner.parallel_efficiency",
            "serve.cache.ns_per_request.2t",
            "serve.lock.wait_ns_mean",
            "serve.lock.hold_ns_mean",
            "serve.replay.latency_p50_ns",
            "serve.replay.latency_p99_ns",
        ]
    } else {
        Vec::new()
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        } else if (m.name.ends_with(".ns_per_lookup") || m.name.ends_with(".ns_per_ref"))
            && m.value < 1.0
        {
            failures.push(format!(
                "{} reads {:.3} ns: the compiler folded the timed loop",
                m.name, m.value
            ));
        }
    }
    Ledger {
        metrics,
        failures,
        not_measurable,
    }
}
